"""Worker heartbeats, partial-log appends, and the sweeper's slow-vs-dead
distinction.

The satellite regression here is the *slow worker*: a single trial that
legitimately outlasts the claim TTL must not have its claim stolen while the
worker's heartbeat thread keeps proving the process alive — yet a worker
that died (no heartbeat, or a final ``stopped`` beacon) must still age out on
the TTL exactly as before heartbeats existed.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass

import pytest

from repro.campaign import CampaignSpec, CampaignStore
from repro.campaign.backends.queue import claim_and_execute_next
from repro.campaign.registry import _REGISTRY, ExperimentAdapter
from repro.campaign.streaming import partial_entry
from repro.campaign.telemetry import (
    PartialSummaryWriter,
    WorkerHeartbeat,
    WorkerTelemetry,
)


@pytest.fixture
def small_spec() -> CampaignSpec:
    return CampaignSpec(
        kind="security",
        name="telemetry-test",
        base={"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0},
        grid={"attack_rate": [1.0]},
        seeds=(0, 1),
    )


def make_record(trial_id, metrics=None):
    return {
        "trial_id": trial_id,
        "kind": "security",
        "params": {"attack_rate": 1.0, "seed": 0},
        "metrics": metrics or {"m": 1.0},
        "detail": {},
        "timing": {"elapsed_s": 0.1, "worker": "w0"},
    }


# ------------------------------------------------------------------ heartbeat
def test_heartbeat_thread_keeps_beacon_fresh(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    beat = WorkerHeartbeat(store, "w0", interval_s=0.05).start()
    try:
        first = store.load_heartbeat(store.heartbeat_path("w0"))
        assert first is not None and first["worker"] == "w0"
        assert first["state"] == "idle" and first["pid"]
        deadline = time.time() + 5.0
        while time.time() < deadline:
            current = store.load_heartbeat(store.heartbeat_path("w0"))
            if current and current["updated_at"] > first["updated_at"]:
                break
            time.sleep(0.02)
        else:
            pytest.fail("heartbeat thread never refreshed the beacon")
    finally:
        beat.stop()
    final = store.load_heartbeat(store.heartbeat_path("w0"))
    assert final["state"] == "stopped" and final["current_trial"] is None


def test_heartbeat_tracks_trial_lifecycle_and_rate(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    beat = WorkerHeartbeat(store, "w0", interval_s=30.0)  # thread never fires
    beat.note_claim()
    beat.trial_started("t1")
    beat.write_now()
    running = store.load_heartbeat(store.heartbeat_path("w0"))
    assert running["state"] == "running" and running["current_trial"] == "t1"
    assert running["last_claim_at"] is not None

    beat.trial_finished(ran=True)
    beat.trial_started("t2")
    beat.trial_finished(ran=False)
    beat.write_now()
    idle = store.load_heartbeat(store.heartbeat_path("w0"))
    assert idle["state"] == "idle" and idle["current_trial"] is None
    assert idle["trials_done"] == 1 and idle["trials_skipped"] == 1
    assert idle["trials_per_min"] > 0.0


def test_heartbeat_rejects_nonpositive_interval(tmp_path):
    store = CampaignStore(tmp_path / "c")
    with pytest.raises(ValueError):
        WorkerHeartbeat(store, "w0", interval_s=0.0)


# ------------------------------------------------------------- partial logs
def logged_ids(store, worker):
    return [entry["trial_id"] for entry in store.load_partial(store.partial_path(worker))]


def test_partial_writer_appends_one_line_per_record(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    writer = PartialSummaryWriter(store, "w0")
    first = make_record("s0-a")
    first["detail"] = {"config": {"n_nodes": 60}, "series": list(range(1000))}
    writer.add(first)
    [path] = store.list_partials()
    assert path == store.partial_path("w0") and path.suffix == ".jsonl"
    assert store.load_partial(path) == [partial_entry(first)]
    size_of_one = path.stat().st_size
    assert size_of_one < 400  # the entry is what the fold reads, not the record's detail

    writer.add(make_record("s1-b"))
    writer.add(make_record("s1-b"))  # a worker keeps no state: a re-execution is logged again
    assert logged_ids(store, "w0") == ["s0-a", "s1-b", "s1-b"]
    # ... appended, not rewritten: the first line is still the file's prefix.
    assert path.read_bytes()[:size_of_one] == (json.dumps(partial_entry(first), sort_keys=True) + "\n").encode()


def test_partial_writer_never_litters_an_empty_log(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    telemetry = WorkerTelemetry(store, "w0", heartbeat_interval_s=30.0).start()
    telemetry.close()
    assert store.list_partials() == []
    assert not store.partial_path("w0").exists()


def test_partial_writer_survives_a_vanished_or_unwritable_directory(tmp_path):
    """Telemetry must never kill the worker it describes."""
    store = CampaignStore(tmp_path / "c")
    writer = PartialSummaryWriter(store, "w0")
    writer.add(make_record("s0-a"))  # no queue/ at all yet: the append creates partials/
    assert logged_ids(store, "w0") == ["s0-a"]
    store.partial_path("w0").unlink()
    store.partials_dir.rmdir()
    store.partials_dir.write_text("not a directory")
    writer.add(make_record("s1-b"))  # OSError swallowed: finalize tops the trial up


def test_worker_telemetry_close_is_idempotent_and_final(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    telemetry = WorkerTelemetry(store, "w0", heartbeat_interval_s=0.05).start()
    telemetry.note_claim()
    telemetry.trial_started("s0-a")
    telemetry.trial_finished(make_record("s0-a"), ran=True)
    # Skipped trials stay out of the log: the record belongs to whoever
    # executed it.
    telemetry.trial_started("s0-b")
    telemetry.trial_finished(make_record("s0-b"), ran=False)
    telemetry.close()
    telemetry.close()  # second close: no-op, no error

    beat = store.load_heartbeat(store.heartbeat_path("w0"))
    assert beat["state"] == "stopped"
    assert beat["trials_done"] == 1 and beat["trials_skipped"] == 1
    assert logged_ids(store, "w0") == ["s0-a"]
    assert store.heartbeat_fresh("w0", ttl_s=3600.0) is False  # stopped = not alive


# ------------------------------------------------------- sweeper interaction
def _expire_claim(store, ttl):
    """Drive the sweeper's local-observation watch past the TTL."""
    store.sweep_claims(claim_ttl_s=ttl)  # first sight: start watching
    time.sleep(ttl * 3)


def test_sweeper_heartbeat_veto_spares_the_slow_worker(small_spec, tmp_path):
    store = CampaignStore(tmp_path / "q")
    store.ensure_queue_layout()
    trial = small_spec.expand()[0]
    store.enqueue_trial(0, trial.to_dict())
    assert store.claim_job(store.list_pending()[0], "slow-worker") is not None

    ttl = 0.05
    beat = WorkerHeartbeat(store, "slow-worker", interval_s=0.02).start()
    try:
        _expire_claim(store, ttl)
        # Claim is past the TTL, but the beacon is fresh: veto the steal.
        assert store.sweep_claims(claim_ttl_s=ttl) == []
        assert len(store.list_claims()) == 1
    finally:
        beat.stop()
    # The final beacon says "stopped": the worker is gone, reclaim proceeds
    # (the claim watch is already past the TTL from the veto phase).
    assert store.sweep_claims(claim_ttl_s=ttl) == [trial.trial_id]
    assert store.list_pending() and not store.list_claims()


def test_sweeper_still_reclaims_heartbeatless_workers(small_spec, tmp_path):
    """Older workers (no telemetry) age out on the claim TTL exactly as
    before heartbeats existed."""
    store = CampaignStore(tmp_path / "q")
    store.ensure_queue_layout()
    trial = small_spec.expand()[0]
    store.enqueue_trial(0, trial.to_dict())
    assert store.claim_job(store.list_pending()[0], "legacy-worker") is not None
    ttl = 0.05
    _expire_claim(store, ttl)
    assert store.sweep_claims(claim_ttl_s=ttl) == [trial.trial_id]


# A registered toy kind whose trial sleeps longer than the claim TTL — the
# end-to-end "slow fake trial" regression for the heartbeat veto.
@dataclass
class SlowToyConfig:
    sleep_s: float = 0.3
    seed: int = 0


@dataclass
class SlowToyResult:
    config: SlowToyConfig

    def scalar_metrics(self):
        return {"slept_s": float(self.config.sleep_s)}

    def to_dict(self):
        return {"config": {"sleep_s": self.config.sleep_s}, "metrics": self.scalar_metrics()}


def run_slow_toy(config: SlowToyConfig) -> SlowToyResult:
    time.sleep(config.sleep_s)
    return SlowToyResult(config=config)


def test_slow_trial_survives_aggressive_sweeping_end_to_end(tmp_path, monkeypatch):
    monkeypatch.setitem(
        _REGISTRY,
        "slow-toy",
        ExperimentAdapter(
            kind="slow-toy", config_cls=SlowToyConfig, entry_point=run_slow_toy
        ),
    )
    spec = CampaignSpec(
        kind="slow-toy",
        name="slow-toy-campaign",
        base={"sleep_s": 0.4},
        grid={},
        seeds=(0,),
    )
    store = CampaignStore(tmp_path / "q")
    store.ensure_queue_layout()
    [trial] = spec.expand()
    store.enqueue_trial(0, trial.to_dict())

    worker_store = CampaignStore(tmp_path / "q")
    telemetry = WorkerTelemetry(worker_store, "slow-w", heartbeat_interval_s=0.02)
    telemetry.start()
    outcome = {}

    def work():
        try:
            record, ran = claim_and_execute_next(worker_store, "slow-w", telemetry=telemetry)
            outcome["record"], outcome["ran"] = record, ran
        finally:
            telemetry.close()

    thread = threading.Thread(target=work)
    thread.start()
    try:
        # Sweep aggressively (TTL far below the trial's sleep) for the whole
        # execution: the heartbeat veto must keep the claim with the worker.
        ttl = 0.05
        stolen = []
        while thread.is_alive():
            stolen.extend(store.sweep_claims(claim_ttl_s=ttl))
            time.sleep(0.02)
    finally:
        thread.join(timeout=30.0)
    assert not thread.is_alive()
    assert stolen == []  # never requeued out from under the slow worker
    assert outcome["ran"] is True
    record = store.load_trial(trial.trial_id)
    assert record is not None and record["metrics"]["slept_s"] == 0.4
    assert store.queue_drained()
    # Its log covers the trial it executed.
    assert logged_ids(store, "slow-w") == [trial.trial_id]


def test_heartbeat_files_survive_hostile_worker_ids(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    WorkerHeartbeat(store, "host/../evil worker", interval_s=1.0).write_now()
    [path] = store.list_heartbeats()
    assert path.parent == store.heartbeats_dir  # sanitized, not escaped
    data = json.loads(path.read_text())
    assert data["worker"] == "host/../evil worker"  # payload keeps the truth
