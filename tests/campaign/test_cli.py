"""The ``repro campaign`` CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_param_value, _parse_seeds, main


def test_parse_seeds_forms():
    assert _parse_seeds("0") == [0]
    assert _parse_seeds("0,2,5") == [0, 2, 5]
    assert _parse_seeds("0-3") == [0, 1, 2, 3]


def test_parse_param_values():
    assert _parse_param_value("60") == 60
    assert _parse_param_value("0.5") == 0.5
    assert _parse_param_value("true") is True
    assert _parse_param_value("lookup-bias") == "lookup-bias"


def test_inline_json_list_param_is_one_value_not_a_grid_axis(tmp_path, capsys):
    """--param NAME=[v1,v2] must set one list-valued parameter inline."""
    out_dir = tmp_path / "list-param"
    argv = [
        "campaign",
        "--kind", "timing",
        "--param", "max_candidate_flows=50",
        "--param", "max_delays=[0.1,0.2]",
        "--param", "concurrent_lookup_rates=[0.01]",
        "--out", str(out_dir),
        "--quiet",
    ]
    assert main(argv) == 0
    assert "1 trial(s) executed" in capsys.readouterr().out
    record = json.loads(next((out_dir / "trials").glob("*.json")).read_text())
    assert record["params"]["max_delays"] == [0.1, 0.2]
    assert record["detail"]["config"]["max_delays"] == [0.1, 0.2]


def test_campaign_warns_per_kind_about_ignored_scenario_axes(tmp_path, capsys):
    """A scenario sweep whose base harness cannot express a requested axis
    must say so on the CLI — one warning line per base kind — instead of
    leaving the gap buried in the trial files."""
    argv = [
        "campaign", "--kind", "scenario",
        "--param", "experiment=timing",
        "--param", "churn=weibull",
        "--param", 'base={"max_candidate_flows":40}',
        "--out", str(tmp_path / "ignored"), "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert (
        "warning: 1 scenario trial(s) on base kind 'timing' ignored axes: churn" in out
    )


def test_campaign_applied_axes_print_no_warning(tmp_path, capsys):
    """The efficiency harness applies the workload axis (PR 5), so a zipf
    efficiency scenario runs warning-free and records the applied axis."""
    out_dir = tmp_path / "applied"
    argv = [
        "campaign", "--kind", "scenario",
        "--param", "experiment=efficiency",
        "--param", "workload=zipf",
        "--param", 'base={"n_nodes":40,"lookups_per_scheme":4}',
        "--out", str(out_dir), "--quiet",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "1 trial(s) executed" in out
    assert "warning:" not in out
    record = json.loads(next((out_dir / "trials").glob("*.json")).read_text())
    assert record["detail"]["scenario"]["applied_axes"] == ["workload"]
    assert record["detail"]["scenario"]["ignored_axes"] == []


def test_malformed_seeds_exit_cleanly():
    with pytest.raises(SystemExit, match="malformed --seeds"):
        main(["campaign", "--kind", "timing", "--seeds", "banana", "--out", "/tmp/never"])


def test_top_level_list_kinds_prints_kinds_axes_and_presets(capsys):
    """The 'repro list-kinds' subcommand surfaces the whole registry surface:
    experiment kinds with descriptions, scenario axis generators, presets."""
    from repro.campaign import available_kinds, get_experiment
    from repro.scenarios import CHURN_PROFILES, PLACEMENTS, WORKLOADS, available_presets

    assert main(["list-kinds"]) == 0
    out = capsys.readouterr().out
    for kind in available_kinds():
        assert kind in out
        assert get_experiment(kind).description in out
    for name in CHURN_PROFILES.available() + WORKLOADS.available() + PLACEMENTS.available():
        assert name in out
    for preset in available_presets():
        assert preset in out


def test_campaign_inline_grid_runs_and_resumes(tmp_path, capsys):
    out_dir = tmp_path / "cli-campaign"
    argv = [
        "campaign",
        "--kind", "ablation",
        "--param", "n_nodes=250",
        "--param", "n_worlds=2,3",
        "--seeds", "0,1",
        "--out", str(out_dir),
        "--quiet",
    ]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert "4 trial(s) executed, 0 skipped" in printed
    assert "aggregate" in printed
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_trials"] == 4 and summary["n_groups"] == 2

    assert main(argv + ["--resume"]) == 0
    assert "0 trial(s) executed, 4 skipped" in capsys.readouterr().out


def test_campaign_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli-spec",
        "kind": "timing",
        "base": {"max_candidate_flows": 50},
        "grid": {"max_delays": [[0.1], [0.2]]},
        "seeds": [0],
    }))
    out_dir = tmp_path / "out"
    assert main(["campaign", "--spec", str(spec_path), "--out", str(out_dir), "--quiet"]) == 0
    assert "campaign 'cli-spec'" in capsys.readouterr().out
    assert len(list((out_dir / "trials").glob("*.json"))) == 2


def test_malformed_spec_file_exits_cleanly(tmp_path):
    """Wrong-typed spec fields must produce the CLI's one-line error, not a traceback."""
    for bad in (
        {"kind": "security", "seeds": 5},
        {"kind": "security", "grid": {"n_nodes": 60}},
        {"kind": "security", "base": [1, 2]},
    ):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit, match="cannot load spec"):
            main(["campaign", "--spec", str(spec_path), "--out", str(tmp_path / "out")])


def test_semantically_invalid_config_fails_preflight(tmp_path):
    """config.validate() runs in the pre-flight, before anything is written."""
    out_dir = tmp_path / "never"
    with pytest.raises(SystemExit, match="unknown attack"):
        main(["campaign", "--kind", "security", "--param", "attack=typo",
              "--param", "n_nodes=10", "--param", "duration=50",
              "--out", str(out_dir)])
    assert not out_dir.exists()


def test_campaign_backend_queue_from_cli(tmp_path, capsys):
    """--backend queue completes with no external workers and drains its queue."""
    out_dir = tmp_path / "cli-queue"
    argv = [
        "campaign",
        "--kind", "timing",
        "--param", "max_candidate_flows=50",
        "--backend", "queue",
        "--out", str(out_dir),
        "--quiet",
    ]
    assert main(argv) == 0
    assert "1 trial(s) executed" in capsys.readouterr().out
    assert not list((out_dir / "queue" / "pending").glob("*"))
    assert not list((out_dir / "queue" / "claims").glob("*"))


def test_campaign_worker_gives_up_when_no_queue_appears(tmp_path, capsys):
    assert main([
        "campaign-worker", str(tmp_path / "nowhere"), "--wait-for-queue", "0",
    ]) == 0
    assert "executed 0 trial(s)" in capsys.readouterr().out


def test_campaign_jobs_conflicts_with_non_pool_backends(tmp_path):
    """--jobs would be silently ignored by serial/queue backends — reject it."""
    for backend in ("serial", "queue"):
        with pytest.raises(SystemExit, match="--jobs has no effect"):
            main(["campaign", "--kind", "timing", "--jobs", "4",
                  "--backend", backend, "--out", str(tmp_path / "never")])


def test_campaign_worker_rejects_bad_options(tmp_path):
    with pytest.raises(SystemExit, match="max-trials"):
        main(["campaign-worker", str(tmp_path), "--max-trials", "0"])
    with pytest.raises(SystemExit, match="claim-ttl"):
        main(["campaign-worker", str(tmp_path), "--claim-ttl", "0"])


def test_campaign_requires_kind_or_spec():
    with pytest.raises(SystemExit):
        main(["campaign", "--out", "/tmp/never-written"])


def test_campaign_malformed_param():
    with pytest.raises(SystemExit):
        main(["campaign", "--kind", "timing", "--param", "oops"])
