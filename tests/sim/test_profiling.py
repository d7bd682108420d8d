"""Engine-phase profiling: opt-in observation, zero behavioural footprint.

Two properties matter and both are pinned here:

* **observation** — with a profiler captured, the engine, hook bus and both
  ring kernels report their dispatch/publish/churn/finger activity;
* **transparency** — a profiled run returns byte-identical results to an
  unprofiled one, records only grow a ``timing.profile`` block (inside the
  ``strip_timing``-dropped view), and with profiling off no component holds
  a profiler at all — the golden-digest suite runs exactly as before.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import strip_timing
from repro.campaign.backends.base import execute_trial
from repro.chord.idspace import IdSpace
from repro.chord.node import ChordNode
from repro.chord.ring import ChordRing, RingConfig
from repro.chord.stabilization import Stabilizer
from repro.sim import profiling
from repro.sim.engine import SimulationEngine
from repro.sim.hooks import HookBus, NodeDeparted
from repro.sim.kernel import make_ring_kernel


TOY_TRIAL = {
    "trial_id": "load-toy",
    "kind": "load",
    "params": {
        "n_nodes": 25,
        "duration": 10.0,
        "sample_interval": 5.0,
        "offered_rps": 8.0,
        "seed": 1,
    },
}


# -------------------------------------------------------------- the profiler
def test_profiler_counters_and_timers():
    prof = profiling.SimProfiler()
    prof.incr("a")
    prof.incr("a", 2)
    prof.add_time("t", 0.5)
    with prof.timed("t"):
        pass
    snap = prof.snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["timers_s"]["t"] >= 0.5
    assert json.loads(json.dumps(snap)) == snap


def test_capture_is_scoped_and_reentrant():
    assert profiling.active() is None
    with profiling.capture(force=True) as outer:
        assert profiling.active() is outer
        with profiling.capture(force=True) as inner:
            assert profiling.active() is inner
        assert profiling.active() is outer
    assert profiling.active() is None


@pytest.mark.parametrize(
    "value,expected",
    [("1", True), ("true", True), ("ON", True), ("0", False), ("", False),
     ("off", False), ("no", False), ("false", False)],
)
def test_env_gating(monkeypatch, value, expected):
    monkeypatch.setenv(profiling.PROFILE_ENV, value)
    assert profiling.enabled_by_env() is expected
    with profiling.capture() as prof:
        assert (prof is not None) is expected


def test_capture_without_request_yields_none(monkeypatch):
    monkeypatch.delenv(profiling.PROFILE_ENV, raising=False)
    with profiling.capture() as prof:
        assert prof is None
        assert profiling.active() is None


# ----------------------------------------------------- component observation
def test_engine_counts_dispatches_under_capture():
    with profiling.capture(force=True) as prof:
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None, name="tick")
        engine.schedule(2.0, lambda: None)
        engine.run(until=5.0)
    assert prof.counters["engine.events_dispatched"] == 2
    assert prof.counters["engine.event.tick"] == 1
    assert prof.timers_s["engine.dispatch"] >= 0.0


def test_hook_bus_counts_publishes_and_deliveries():
    with profiling.capture(force=True) as prof:
        bus = HookBus()
        seen = []
        bus.subscribe(NodeDeparted, seen.append)
        bus.subscribe(NodeDeparted, seen.append)
        bus.publish(NodeDeparted(time=1.0, node_id=7))
    assert len(seen) == 2
    assert prof.counters["hooks.publishes"] == 1
    assert prof.counters["hooks.deliveries"] == 2


def test_hook_bus_zero_subscriber_fast_path_counts_nothing():
    with profiling.capture(force=True) as prof:
        HookBus().publish(NodeDeparted(time=1.0, node_id=7))
    assert "hooks.publishes" not in prof.counters


@pytest.mark.parametrize("kernel_name", ["object", "array"])
def test_kernels_count_churn_ops(kernel_name):
    with profiling.capture(force=True) as prof:
        kernel = make_ring_kernel(kernel_name, 128)
        kernel.load([1, 5, 9, 13], malicious_ids=[5])
        kernel.set_alive(5, False)
        kernel.set_alive(5, False)  # no-op flip: not a churn op
        kernel.set_alive(5, True)
        kernel.set_alive(999, False)  # unknown id: ignored
    assert prof.counters["kernel.churn_ops"] == 2


def test_array_kernel_counts_finger_cache_hits_and_misses():
    with profiling.capture(force=True) as prof:
        kernel = make_ring_kernel("array", 128)
        kernel.load([1, 5, 9, 13], malicious_ids=[])
        ideals = [2, 6, 10]
        kernel.resolve_fingers(1, ideals)   # cold: miss
        kernel.resolve_fingers(1, ideals)   # cached row: hit
        kernel.resolve_fingers(1, [3, 7])   # ideals changed: miss again
        kernel.set_alive(9, False)          # row 1 resolves to 9: invalidated
        kernel.resolve_fingers(1, [3, 7])   # miss
    assert prof.counters["kernel.finger_cache_misses"] == 3
    assert prof.counters["kernel.finger_cache_hits"] == 1
    assert prof.counters["kernel.finger_resolves"] == 4, "resolves == hits + misses"


@pytest.mark.parametrize("kernel_name", ["object", "array"])
def test_kernels_count_finger_resolves(kernel_name):
    """One per call on either kernel, whether or not a cache answered it."""
    with profiling.capture(force=True) as prof:
        kernel = make_ring_kernel(kernel_name, 128)
        kernel.load([1, 5, 9], malicious_ids=[])
        kernel.resolve_fingers(1, [2])
        kernel.resolve_fingers(1, [2])
    assert prof.counters["kernel.finger_resolves"] == 2


def test_nodes_count_table_snapshots_and_body_builds():
    """The hit ratio of the per-version table body: no build on a static ring
    once every node has answered, builds again after churn rewrites tables."""
    with profiling.capture(force=True) as prof:
        ring = ChordRing.build(RingConfig(n_nodes=30, fraction_malicious=0.0, seed=3))
        nodes = ring.alive_nodes()
        for node in nodes:
            node.snapshot(now=1.0)
        assert prof.counters["chord.table_body_builds"] == len(nodes)
        for _ in range(3):
            for node in nodes:
                node.snapshot(now=2.0)
        assert prof.counters["chord.table_body_builds"] == len(nodes)
        assert prof.counters["chord.table_snapshots"] == 4 * len(nodes)

        ring.mark_dead(nodes[0].node_id)
        Stabilizer(ring).run_global_round(now=3.0)
        for node in ring.alive_nodes():
            node.snapshot(now=3.0)
    rebuilt = prof.counters["chord.table_body_builds"] - len(nodes)
    assert 0 < rebuilt < len(nodes), "only the departed node's neighbours changed"


def test_disabled_components_bind_no_profiler():
    assert ChordNode(1, IdSpace(bits=16)).profiler is None
    assert SimulationEngine().profiler is None
    assert HookBus().profiler is None
    assert make_ring_kernel("object", 8).profiler is None
    assert make_ring_kernel("array", 8).profiler is None


# ------------------------------------------------------------- transparency
def test_profiled_trial_record_is_identical_outside_timing(monkeypatch):
    monkeypatch.delenv(profiling.PROFILE_ENV, raising=False)
    plain = execute_trial(dict(TOY_TRIAL), worker="w")
    assert "profile" not in plain["timing"]

    monkeypatch.setenv(profiling.PROFILE_ENV, "1")
    profiled = execute_trial(dict(TOY_TRIAL), worker="w")
    profile = profiled["timing"]["profile"]
    assert profile["counters"]["engine.events_dispatched"] > 0
    assert "engine.dispatch" in profile["timers_s"]

    # The determinism-compared view cannot tell the two runs apart: the
    # profile block rides inside "timing", which strip_timing drops wholesale.
    assert json.dumps(strip_timing(plain), sort_keys=True) == json.dumps(
        strip_timing(profiled), sort_keys=True
    )
    assert profiling.active() is None  # nothing leaked past the capture
