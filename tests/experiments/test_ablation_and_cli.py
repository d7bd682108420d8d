"""Tests for the Section 4.2 ablation and the command-line interface."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.campaign import ExperimentAdapter, available_kinds, get_experiment, register_experiment
from repro.campaign.registry import _REGISTRY
from repro.cli import main
from repro.experiments.ablation import AblationConfig, AnonymityAblation


class TestAnonymityAblation:
    @pytest.fixture(scope="class")
    def result(self):
        config = AblationConfig(n_nodes=3000, fraction_malicious=0.2, n_worlds=80, seed=5)
        return AnonymityAblation(config).run()

    def test_all_variants_evaluated(self, result):
        variants = {p.variant for p in result.points}
        assert variants == {
            "multi-path + dummies",
            "multi-path, no dummies",
            "single path + dummies",
            "single path, no dummies",
        }

    def test_full_design_is_strongest(self, result):
        """Section 4.2: the full design is never worse than the stripped-down
        variants beyond Monte-Carlo noise (the advantage grows with network
        size and adversary strength; at this scaled-down size it is small)."""
        by = result.by_variant()
        full = by["multi-path + dummies"].target_leak
        for variant, point in by.items():
            if variant == "multi-path + dummies":
                continue
            assert full <= point.target_leak + 0.2, variant

    def test_leaks_are_bounded(self, result):
        for point in result.points:
            assert 0.0 <= point.target_leak <= 5.0
            assert point.target_entropy <= result.points[0].target_entropy + 5.0


#: kind -> toy-size config fields for one ``repro <kind> --param ...`` run.
TINY_SECURITY = {"n_nodes": 60, "duration": 20.0, "sample_interval": 10.0}
TOY_PARAMS = {
    "security": TINY_SECURITY,
    "anonymity": {
        "n_nodes": 300,
        "fractions_malicious": [0.2],
        "dummy_counts": [2],
        "concurrent_lookup_rates": [0.01],
        "n_worlds": 5,
    },
    "efficiency": {"n_nodes": 40, "lookups_per_scheme": 4},
    "timing": {"max_candidate_flows": 50},
    "ablation": {"n_nodes": 300, "n_worlds": 3},
    "load": {"n_nodes": 40, "duration": 10.0, "sample_interval": 5.0, "offered_rps": 10.0},
    "scenario": {"preset": "heavy-tail-churn", "base": TINY_SECURITY},
    "adaptive": {"attacker": "re-eclipse", "base": TINY_SECURITY},
}


def assert_cli_matches_adapter(kind, params, capsys, seed=2):
    """``repro <kind> --param ... --seed N`` prints exactly what the adapter
    computes: every scalar metric, and a block per series."""
    argv = [kind, "--seed", str(seed)]
    for name, value in params.items():
        argv += ["--param", f"{name}={json.dumps(value)}"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    printed = dict(cells for cells in map(str.split, out.splitlines()) if len(cells) == 2)
    result = get_experiment(kind).run({**params, "seed": seed})
    assert result.scalar_metrics()
    for name, value in result.scalar_metrics().items():
        assert printed[name] == f"{value:.6g}", name
    for name in result.to_dict().get("series", {}):
        assert f"series {name}\n" in out, name


class TestCli:
    """The single-run subcommands are generated from the kind registry; one
    ``test_<kind>_subcommand`` per registered kind is generated below, so a
    kind without a ``TOY_PARAMS`` row fails by name."""

    def test_help_names_every_config_field(self, capsys):
        for kind in available_kinds():
            with pytest.raises(SystemExit) as exit_info:
                main([kind, "--help"])
            assert exit_info.value.code == 0
            out = capsys.readouterr().out
            for field in dataclasses.fields(get_experiment(kind).config_cls):
                assert f"  {field.name} = " in out, (kind, field.name)

    def test_kind_registered_in_the_test_is_runnable(self, capsys):
        @dataclasses.dataclass
        class ToyConfig:
            scale: float = 1.5
            seed: int = 0

        class ToyResult:
            def __init__(self, config):
                self.config = config

            def scalar_metrics(self):
                return {"scaled_seed": self.config.scale * self.config.seed}

            def to_dict(self):
                return {"metrics": self.scalar_metrics(), "series": {"ramp": [[0.0, 0.0], [1.0, 2.0]]}}

        register_experiment(ExperimentAdapter("toy-kind", ToyConfig, ToyResult, "a kind from a test"))
        try:
            assert_cli_matches_adapter("toy-kind", {"scale": 4.0}, capsys)
            with pytest.raises(SystemExit) as exit_info:
                main(["toy-kind", "--help"])
            assert exit_info.value.code == 0
            assert "scale = 1.5" in capsys.readouterr().out
        finally:
            del _REGISTRY["toy-kind"]

    def test_sweep_values_are_redirected_to_campaign(self):
        with pytest.raises(SystemExit, match="repro campaign --kind load"):
            main(["load", "--param", "offered_rps=10,25"])

    def test_unknown_field_fails_preflight(self):
        with pytest.raises(SystemExit, match="repro timing: unknown TimingExperimentConfig parameters: flows"):
            main(["timing", "--param", "flows=200"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])


def _subcommand_case(kind):
    def case(self, capsys):
        assert_cli_matches_adapter(kind, TOY_PARAMS[kind], capsys)

    return case


for _kind in available_kinds():
    setattr(TestCli, f"test_{_kind}_subcommand", _subcommand_case(_kind))
