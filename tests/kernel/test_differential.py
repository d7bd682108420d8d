"""Object-vs-array kernel differential suite.

The determinism contract of the kernel switch: for every experiment kind
that owns a ring, running the same config under ``kernel="object"`` and
``kernel="array"`` produces byte-identical results once timing and the
kernel name itself are stripped (for ``anonymity``/``ablation`` the pair is
the reference path loop vs the shipped finger matrix, see ``cases.py``).  Kernels draw no randomness of their own —
all draws come from named :class:`~repro.sim.rng.RandomSource` streams — so
any divergence here is a semantics bug in one of the kernels, not noise.

The same contract is enforced end-to-end through the campaign runner: a
campaign sweeping ``kernel`` as a grid axis must produce trial records that
differ *only* in the config's kernel field.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import CampaignSpec, canonical_json, get_experiment, run_campaign, strip_timing
from repro.chord.ring import ChordRing, RingConfig
from repro.core.octopus_node import OctopusNetwork
from repro.experiments.kinds import BASE_KINDS
from repro.sim.kernel import KERNELS, DEFAULT_KERNEL, make_ring_kernel, validate_kernel

from cases import CASES, KERNEL_SWITCH_KINDS, run_canonical, strip_kernel, with_kernel


def test_kernel_registry():
    assert set(KERNELS) == {"object", "array"}
    assert DEFAULT_KERNEL == "array"
    for name, cls in KERNELS.items():
        assert cls.name == name
        kern = make_ring_kernel(name, space_size=2**16)
        assert type(kern) is cls
    with pytest.raises(ValueError, match="unknown kernel"):
        validate_kernel("hypercube")
    with pytest.raises(ValueError, match="unknown kernel"):
        make_ring_kernel("hypercube", space_size=2**16)


def test_default_kernel_is_written_once():
    """Every config with a ``kernel`` field reads ``DEFAULT_KERNEL``, and a
    default-built ring serves its alive view without rescanning."""
    with_field = [
        row.config_cls
        for row in BASE_KINDS.values()
        if "kernel" in {f.name for f in dataclasses.fields(row.config_cls)}
    ]
    assert {cls.__name__ for cls in with_field} == {
        "SecurityExperimentConfig", "LoadConfig", "EfficiencyExperimentConfig",
    }
    for cls in with_field:
        assert cls().kernel == DEFAULT_KERNEL
    assert RingConfig().kernel == DEFAULT_KERNEL

    for ring in (ChordRing.build(RingConfig(n_nodes=20)), OctopusNetwork.create(n_nodes=20).ring):
        assert ring.kernel.name == DEFAULT_KERNEL
        assert ring.kernel.alive_ids_view() is ring.kernel.alive_ids_view()


@pytest.mark.parametrize("kind", sorted(CASES))
def test_kernels_byte_identical_per_kind(kind):
    """The tentpole acceptance criterion, per experiment kind."""
    assert run_canonical(kind, "object") == run_canonical(kind, "array")


def test_kernel_config_round_trips_through_adapter():
    """The kernel name survives params -> typed config -> to_dict()."""
    for kind in KERNEL_SWITCH_KINDS:
        adapter = get_experiment(kind)
        config = adapter.build_config(with_kernel(kind, "array"))
        dumped = config.to_dict()
        if kind in ("scenario", "adaptive"):
            dumped = dumped["base"]
        assert dumped["kernel"] == "array"


def test_bad_kernel_rejected_at_config_time():
    """Base kinds reject a bad kernel when the typed config is built; the
    scenario and adaptive kinds defer base-config checks to run time (the
    nested base dict is only turned into a typed config then)."""
    for kind in KERNEL_SWITCH_KINDS:
        adapter = get_experiment(kind)
        params = with_kernel(kind, "no-such-kernel")
        with pytest.raises(ValueError, match="unknown kernel"):
            if kind in ("scenario", "adaptive"):
                adapter.run(params)
            else:
                adapter.build_config(params)


def test_timing_kind_has_no_kernel_switch():
    """The timing experiment owns no ring and the anonymity model has one
    lookup-path implementation; a kernel param must be rejected loudly
    rather than silently ignored."""
    for kind in ("timing", "anonymity", "ablation"):
        with pytest.raises((TypeError, ValueError)):
            get_experiment(kind).build_config({"n_nodes": 40, "kernel": "array"})


def test_campaign_sweeping_kernel_axis_is_kernel_blind(tmp_path):
    """A campaign with kernel as a grid axis: paired trials agree exactly on
    the timing-stripped, kernel-stripped view of their records."""
    spec = CampaignSpec(
        kind="security",
        name="kernel-differential",
        base={"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0},
        grid={"kernel": ["object", "array"]},
        seeds=(0, 1),
    )
    report = run_campaign(spec, out_dir=tmp_path / "diff")
    assert report.n_executed == 4

    by_seed = {}
    for trial in spec.expand():
        record = json.loads((tmp_path / "diff" / "trials" / f"{trial.trial_id}.json").read_text())
        assert record["params"]["kernel"] == trial.params["kernel"]
        # trial_id hashes the params — kernel included — so it legitimately
        # differs between the paired trials; blind the view to it as well.
        stripped = strip_kernel(strip_timing(record))
        stripped.pop("trial_id", None)
        view = canonical_json(stripped)
        by_seed.setdefault(trial.params["seed"], {})[trial.params["kernel"]] = view
    for seed, views in by_seed.items():
        assert views["object"] == views["array"], f"seed {seed} diverged"
