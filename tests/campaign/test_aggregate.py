"""Aggregation math, grouping, and result-dict JSON round-trips."""

from __future__ import annotations

import json
import math

import pytest

from repro.campaign import (
    IgnoredAxesAccumulator,
    MetricAccumulator,
    aggregate_records,
    group_key,
    summary_rows,
)
from repro.campaign.spec import CampaignSpec
from repro.experiments.results import config_from_dict, percentile, percentile_from_cdf
from repro.experiments.security import SecurityExperimentConfig


def record(seed, attack_rate, value):
    return {
        "trial_id": f"t-{attack_rate}-{seed}",
        "kind": "security",
        "params": {"n_nodes": 60, "attack_rate": attack_rate, "seed": seed},
        "metrics": {"final_malicious_fraction": value},
    }


def summarize(values):
    acc = MetricAccumulator()
    for value in values:
        acc.update(value)
    return acc.summary()


def test_summarize_known_values():
    stats = summarize([1.0, 2.0, 3.0, 4.0])
    assert stats["n"] == 4
    assert stats["mean"] == pytest.approx(2.5)
    assert stats["std"] == pytest.approx(math.sqrt(5.0 / 3.0))
    assert stats["ci95"] == pytest.approx(1.96 * stats["std"] / 2.0)
    assert stats["min"] == 1.0 and stats["max"] == 4.0


def test_summarize_degenerate_cases():
    assert summarize([]) == {"n": 0}
    single = summarize([7.0])
    assert single["mean"] == 7.0 and single["std"] == 0.0 and single["ci95"] == 0.0


def test_grouping_ignores_seed_only():
    assert group_key({"a": 1, "seed": 0}) == group_key({"a": 1, "seed": 9})
    assert group_key({"a": 1, "seed": 0}) != group_key({"a": 2, "seed": 0})


def test_aggregate_groups_by_grid_cell():
    records = [record(s, r, v) for (s, r, v) in
               [(0, 1.0, 0.10), (1, 1.0, 0.20), (0, 0.5, 0.30), (1, 0.5, 0.40)]]
    summary = aggregate_records(records)
    assert summary["n_trials"] == 4 and summary["n_groups"] == 2
    by_rate = {g["params"]["attack_rate"]: g for g in summary["groups"]}
    assert by_rate[1.0]["seeds"] == [0, 1]
    assert by_rate[1.0]["metrics"]["final_malicious_fraction"]["mean"] == pytest.approx(0.15)
    assert by_rate[0.5]["metrics"]["final_malicious_fraction"]["mean"] == pytest.approx(0.35)


def test_aggregate_is_order_independent():
    records = [record(s, r, 0.1 * (s + 1) * r) for r in (1.0, 0.5) for s in (0, 1, 2)]
    summary_fwd = aggregate_records(records)
    summary_rev = aggregate_records(list(reversed(records)))
    assert summary_fwd == summary_rev


def test_aggregate_attaches_spec_metadata():
    spec = CampaignSpec(kind="security", name="meta", grid={"attack_rate": [1.0]}, seeds=(0, 1))
    summary = aggregate_records([record(0, 1.0, 0.1), record(1, 1.0, 0.2)], spec=spec)
    assert summary["name"] == "meta"
    assert summary["kind"] == "security"
    assert summary["n_trials_expected"] == 2


def test_ignored_axes_roll_up_per_base_kind():
    def scenario_record(trial_id, base_kind, ignored):
        return {
            "trial_id": trial_id,
            "kind": "scenario",
            "params": {"experiment": base_kind, "seed": 0},
            "metrics": {"m": 1.0},
            "detail": {"scenario": {"base_kind": base_kind, "ignored_axes": ignored}},
        }

    records = [
        scenario_record("a", "timing", ["churn", "workload"]),
        scenario_record("b", "timing", ["churn"]),
        scenario_record("c", "anonymity", ["workload"]),
        scenario_record("d", "efficiency", []),  # all applied: no contribution
        record(0, 1.0, 0.1),  # non-scenario records contribute nothing
    ]
    acc = IgnoredAxesAccumulator()
    for rec in records:
        acc.add_record(rec)
    rollup = acc.summary()
    assert rollup == {
        "anonymity": {"axes": ["workload"], "n_trials": 1},
        "timing": {"axes": ["churn", "workload"], "n_trials": 2},
    }
    summary = aggregate_records(records)
    assert summary["ignored_axes"] == rollup
    # The common all-applied case omits the key entirely.
    assert "ignored_axes" not in aggregate_records([record(0, 1.0, 0.1)])


def test_summary_rows_show_varied_params_and_ci():
    records = [record(s, r, 0.1) for r in (1.0, 0.5) for s in (0, 1)]
    headers, rows = summary_rows(aggregate_records(records))
    assert headers[0] == "attack_rate"
    assert "n_nodes" not in headers  # constant across groups -> hidden
    assert len(rows) == 2
    assert all("±" in str(row[-1]) for row in rows)


def test_summary_json_round_trip():
    records = [record(s, 1.0, 0.1 * s) for s in (0, 1, 2)]
    summary = aggregate_records(records)
    assert json.loads(json.dumps(summary)) == summary


def test_config_from_dict_coerces_and_rejects():
    config = config_from_dict(
        SecurityExperimentConfig,
        {"n_nodes": 60, "octopus": {"expected_network_size": 60}, "seed": 3},
    )
    assert config.n_nodes == 60
    assert config.octopus.expected_network_size == 60
    with pytest.raises(ValueError, match="unknown SecurityExperimentConfig parameters"):
        config_from_dict(SecurityExperimentConfig, {"n_nodez": 60})


def test_fractional_bandwidth_intervals_get_distinct_metric_keys():
    from repro.experiments.efficiency import (
        EfficiencyExperimentConfig,
        EfficiencyExperimentResult,
        SchemeEfficiency,
    )

    result = EfficiencyExperimentResult(config=EfficiencyExperimentConfig())
    result.schemes["chord"] = SchemeEfficiency(
        scheme="chord", mean_latency=1.0, median_latency=1.0, latency_cdf=[],
        bandwidth_kbps={7.0: 1.0, 7.5: 2.0}, lookups=1, correct_fraction=1.0,
    )
    metrics = result.scalar_metrics()
    assert metrics["chord_kbps_lk_int_7min"] == 1.0
    assert metrics["chord_kbps_lk_int_7.5min"] == 2.0


def test_percentile_linear_interpolation():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    assert math.isnan(percentile([], 50))
    with pytest.raises(ValueError):
        percentile(values, 101)


def test_percentile_from_cdf_scans_cumulative_fractions():
    cdf = [(0.1, 0.25), (0.2, 0.5), (0.4, 0.75), (0.8, 1.0)]
    assert percentile_from_cdf(cdf, 0.5) == 0.2
    assert percentile_from_cdf(cdf, 0.51) == 0.4
    assert percentile_from_cdf(cdf, 1.0) == 0.8
    # Tiny fractions map to the first point regardless of list length —
    # the indexing bug this helper replaced returned cdf[0] only by clamping.
    assert percentile_from_cdf(cdf, 0.01) == 0.1
    assert math.isnan(percentile_from_cdf([], 0.5))
    with pytest.raises(ValueError):
        percentile_from_cdf(cdf, 0.0)
