"""The ``scenario`` campaign kind: presets, resolution, end-to-end runs.

Acceptance criteria pinned here:

* every built-in preset runs end-to-end through ``repro campaign`` (the real
  CLI entry point) with content-addressed trial ids;
* preset resolution layers user overrides over preset defaults;
* inapplicable axes are reported, not silently dropped;
* ``paper-baseline`` reproduces the plain base experiment exactly.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.campaign import CampaignSpec, get_experiment, run_campaign
from repro.cli import main
from repro.experiments.kinds import BASE_KINDS
from repro.experiments.security import SecurityExperimentConfig, run_security
from repro.scenarios import (
    ScenarioConfig,
    available_presets,
    get_preset,
    run_scenario,
)

#: tiny base-experiment overrides keeping every preset's end-to-end run fast.
TINY_SECURITY = {"n_nodes": 60, "duration": 20.0, "sample_interval": 10.0}
TINY_ANONYMITY = {
    "n_nodes": 300,
    "fractions_malicious": [0.2],
    "dummy_counts": [2],
    "concurrent_lookup_rates": [0.01],
    "n_worlds": 5,
}
TINY_EFFICIENCY = {"n_nodes": 40, "lookups_per_scheme": 4}
TINY_LOAD = {"n_nodes": 40, "duration": 10.0, "sample_interval": 5.0, "offered_rps": 10.0}
TINY_BASE = {
    "security": TINY_SECURITY,
    "anonymity": TINY_ANONYMITY,
    "efficiency": TINY_EFFICIENCY,
    "load": TINY_LOAD,
    "ablation": {"n_nodes": 300, "n_worlds": 3},
    "timing": {"max_candidate_flows": 50},
}
#: one non-default, closed-loop-capable generator per scenario axis.
NON_DEFAULT_AXIS = {"churn": "weibull", "workload": "zipf", "adversary": "eclipse"}


def tiny_base_for(preset: str) -> dict:
    experiment = get_preset(preset).get("experiment", "security")
    if experiment == "anonymity":
        return dict(TINY_ANONYMITY)
    if experiment == "efficiency":
        return dict(TINY_EFFICIENCY)
    if experiment == "load":
        return dict(TINY_LOAD)
    return dict(TINY_SECURITY)


def test_at_least_six_builtin_presets():
    assert len(available_presets()) >= 6
    assert {"paper-baseline", "heavy-tail-churn", "flash-crowd", "eclipse-20pct",
            "zipf-hotkeys", "join-leave-attack"} <= set(available_presets())


@pytest.mark.parametrize("preset", available_presets())
def test_every_preset_runs_end_to_end_via_repro_campaign(preset, tmp_path, capsys):
    """The acceptance criterion, through the real CLI: one campaign per
    preset, records on disk, content-addressed trial ids."""
    out = tmp_path / preset
    argv = [
        "campaign", "--kind", "scenario",
        "--param", f"preset={preset}",
        "--param", f"base={json.dumps(tiny_base_for(preset))}",
        "--out", str(out), "--quiet",
    ]
    assert main(argv) == 0
    assert "1 trial(s) executed" in capsys.readouterr().out
    [record_path] = (out / "trials").glob("*.json")
    # Content-addressed id: seed prefix + 12-hex parameter digest, and the
    # stem re-derives from the persisted spec.
    assert re.fullmatch(r"s0-[0-9a-f]{12}", record_path.stem)
    spec = CampaignSpec.from_json_file(out / "spec.json")
    assert [t.trial_id for t in spec.expand()] == [record_path.stem]
    record = json.loads(record_path.read_text())
    assert record["kind"] == "scenario"
    assert record["metrics"]
    assert record["detail"]["scenario"]["preset"] == preset


def test_trial_ids_are_content_addressed_not_positional():
    def ids(presets):
        return {
            t.params["preset"]: t.trial_id
            for t in CampaignSpec(
                kind="scenario",
                base={"base": dict(TINY_SECURITY)},
                grid={"preset": list(presets)},
                seeds=(0,),
            ).expand()
        }

    two = ids(["paper-baseline", "zipf-hotkeys"])
    three = ids(["flash-crowd", "paper-baseline", "zipf-hotkeys"])
    # Growing the grid must not rename existing trials (resume safety)...
    assert two.items() <= three.items()
    # ...and any parameter edit must change the id.
    edited = {
        t.params["preset"]: t.trial_id
        for t in CampaignSpec(
            kind="scenario",
            base={"base": {**TINY_SECURITY, "n_nodes": 80}},
            grid={"preset": ["paper-baseline"]},
            seeds=(0,),
        ).expand()
    }
    assert edited["paper-baseline"] != two["paper-baseline"]


def test_scenario_campaign_grid_over_presets(tmp_path):
    spec = CampaignSpec(
        kind="scenario",
        name="preset-grid",
        base={"base": dict(TINY_SECURITY)},
        grid={"preset": ["paper-baseline", "heavy-tail-churn"]},
        seeds=(0, 1),
    )
    report = run_campaign(spec, out_dir=tmp_path / "grid")
    assert report.n_executed == 4
    assert report.summary["n_groups"] == 2
    groups = {g["params"]["preset"]: g for g in report.summary["groups"]}
    assert set(groups) == {"paper-baseline", "heavy-tail-churn"}
    assert groups["paper-baseline"]["metrics"]["final_malicious_fraction"]["n"] == 2


# ------------------------------------------------------------------ resolution


def test_preset_resolution_layers_user_overrides():
    cfg = ScenarioConfig(
        preset="flash-crowd",
        churn_params={"flash_time_s": 5.0},
        base={"n_nodes": 60},
    ).resolved()
    assert cfg.experiment == "security"
    assert cfg.churn == "flash-crowd"
    assert cfg.churn_params["flash_time_s"] == 5.0  # user key wins
    assert cfg.churn_params["late_fraction"] == 0.4  # preset key survives
    assert cfg.base["n_nodes"] == 60
    assert cfg.base["duration"] == 400.0  # preset base survives


def test_explicit_axis_choice_beats_the_preset():
    cfg = ScenarioConfig(preset="heavy-tail-churn", churn="pareto").resolved()
    assert cfg.churn == "pareto"


def test_overriding_an_axis_discards_the_presets_params_for_it():
    """Regression: the preset's Weibull 'shape' kwarg must not leak into a
    user-chosen Pareto profile — the composed config has to validate."""
    cfg = ScenarioConfig(preset="heavy-tail-churn", churn="pareto").resolved()
    assert "shape" not in cfg.churn_params
    cfg.validate()  # buildable end to end
    # Same rule for the base dict when the experiment itself is overridden:
    # eclipse-20pct's anonymity base params are meaningless to other kinds.
    swapped = ScenarioConfig(preset="eclipse-20pct", experiment="timing").resolved()
    assert "n_worlds" not in swapped.base
    swapped.validate()


def test_validation_fails_loudly():
    with pytest.raises(ValueError, match="unknown scenario preset"):
        ScenarioConfig(preset="no-such-preset").validate()
    with pytest.raises(ValueError, match="unknown churn profile"):
        ScenarioConfig(churn="brownian").validate()
    with pytest.raises(ValueError, match="unknown base experiment"):
        ScenarioConfig(experiment="quantum").validate()
    with pytest.raises(ValueError, match="bad parameters"):
        ScenarioConfig(churn="weibull", churn_params={"shpae": 1.0}).validate()
    with pytest.raises(ValueError, match="seed"):
        ScenarioConfig(base={"seed": 3}).validate()
    with pytest.raises(ValueError, match="unknown SecurityExperimentConfig"):
        ScenarioConfig(base={"n_nodez": 10}).validate()


# ------------------------------------------------------------------- semantics


def test_paper_baseline_reproduces_plain_security_exactly():
    plain = run_security(SecurityExperimentConfig(seed=2, **TINY_SECURITY))
    scenario = run_scenario(
        ScenarioConfig(preset="paper-baseline", base=dict(TINY_SECURITY), seed=2)
    )
    assert scenario.scalar_metrics() == plain.scalar_metrics()
    assert scenario.applied_axes == [] and scenario.ignored_axes == []


def test_paper_baseline_efficiency_reproduces_plain_efficiency_exactly():
    """PR 5 acceptance: routing the efficiency harness's draws through the
    workload model must be a behavioural no-op for the default model — the
    full result (latency CDFs included), not just the scalars, is compared."""
    from repro.experiments.efficiency import EfficiencyExperimentConfig, run_efficiency
    from repro.experiments.results import config_from_dict

    plain = run_efficiency(
        config_from_dict(EfficiencyExperimentConfig, {**TINY_EFFICIENCY, "seed": 2})
    )
    scenario = run_scenario(
        ScenarioConfig(
            preset="paper-baseline",
            experiment="efficiency",
            base=dict(TINY_EFFICIENCY),
            seed=2,
        )
    )
    assert scenario.base_result.to_dict() == plain.to_dict()
    assert scenario.applied_axes == [] and scenario.ignored_axes == []


def test_efficiency_applies_the_workload_axis():
    """PR 5 acceptance: experiment=efficiency, workload=zipf reports the
    workload axis as applied (efficiency used to support adversary only)."""
    result = run_scenario(
        ScenarioConfig(
            experiment="efficiency",
            workload="zipf",
            workload_params={"exponent": 1.2, "n_keys": 64},
            base=dict(TINY_EFFICIENCY),
        )
    )
    assert result.applied_axes == ["workload"]
    assert result.ignored_axes == []
    assert result.to_dict()["scenario"]["applied_axes"] == ["workload"]


@pytest.mark.parametrize("axis", sorted(NON_DEFAULT_AXIS))
@pytest.mark.parametrize("kind", sorted(BASE_KINDS))
def test_each_axis_is_applied_exactly_where_the_kind_declares_it(kind, axis):
    """The kind table's ``axes`` column is the whole truth: a non-default
    axis is applied iff the base kind declares it, and reported otherwise."""
    assert set(TINY_BASE) == set(BASE_KINDS), "add a TINY_BASE row for the new kind"
    result = run_scenario(
        ScenarioConfig(experiment=kind, base=dict(TINY_BASE[kind]), **{axis: NON_DEFAULT_AXIS[axis]})
    )
    declared = axis in BASE_KINDS[kind].axes
    assert result.applied_axes == ([axis] if declared else [])
    assert result.ignored_axes == ([] if declared else [axis])


def test_open_loop_poisson_is_ignored_by_the_closed_loop_efficiency_harness():
    """The Poisson model's essence is an engine-scheduled arrival process;
    the closed-loop efficiency harness cannot honour it and must say so
    (its key distribution alone would just be uniform under another name)."""
    result = run_scenario(
        ScenarioConfig(
            experiment="efficiency",
            workload="poisson",
            base=dict(TINY_EFFICIENCY),
        )
    )
    assert result.applied_axes == []
    assert result.ignored_axes == ["workload"]


def test_inapplicable_axes_are_reported_not_dropped():
    result = run_scenario(
        ScenarioConfig(
            experiment="timing",
            churn="weibull",
            base={"max_candidate_flows": 50},
        )
    )
    assert result.ignored_axes == ["churn"]
    assert result.to_dict()["scenario"]["ignored_axes"] == ["churn"]


def test_join_leave_on_a_churnless_kind_reports_the_dropped_attack():
    """Regression: on a base kind with no churn to accelerate, the join-leave
    placement still applies (it is uniform) but the temporal churn attack
    does not — the record must say so instead of claiming the attack ran."""
    result = run_scenario(
        ScenarioConfig(
            experiment="ablation",
            adversary="join-leave",
            base={"n_nodes": 300, "n_worlds": 3},
        )
    )
    assert result.applied_axes == ["adversary"]
    assert result.ignored_axes == ["churn"]


def test_adapter_builds_typed_config_from_campaign_params():
    adapter = get_experiment("scenario")
    config = adapter.build_config(
        {"preset": "zipf-hotkeys", "base": {"n_nodes": 60}, "seed": 4}
    )
    assert isinstance(config, ScenarioConfig)
    assert config.seed == 4
    # Campaign preflight validates unresolved configs without running them.
    config.validate()
