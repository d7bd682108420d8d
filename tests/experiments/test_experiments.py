"""Integration tests for the experiment harnesses (scaled-down parameters).

These check the *shape* of the paper's results end-to-end: attacker
identification reduces the malicious fraction, accuracy metrics stay in the
published regime, the efficiency ordering holds, and the timing-analysis
error rate is high.
"""

from __future__ import annotations

import pytest

from repro.core.config import OctopusConfig
from repro.experiments.anonymity import AnonymityExperiment, AnonymityExperimentConfig
from repro.experiments.efficiency import EfficiencyExperiment, EfficiencyExperimentConfig
from repro.experiments.results import ExperimentRecord, format_series, format_table
from repro.experiments.security import SecurityExperiment, SecurityExperimentConfig
from repro.experiments.timing import TimingExperiment, TimingExperimentConfig


def small_security_config(attack: str, **overrides) -> SecurityExperimentConfig:
    defaults = dict(
        n_nodes=100,
        duration=240.0,
        attack=attack,
        attack_rate=1.0,
        churn_lifetime_minutes=60.0,
        sample_interval=60.0,
        seed=2,
    )
    defaults.update(overrides)
    return SecurityExperimentConfig(**defaults)


class TestSecurityExperiment:
    def test_lookup_bias_attackers_removed(self):
        result = SecurityExperiment(small_security_config("lookup-bias")).run()
        assert result.initial_malicious_fraction == pytest.approx(0.2, abs=0.02)
        assert result.final_malicious_fraction < 0.05
        assert result.false_positive_rate == 0.0
        assert result.identified_malicious > 0

    def test_biased_lookups_stop_growing(self):
        result = SecurityExperiment(small_security_config("lookup-bias")).run()
        biased = [v for _, v in result.biased_lookups_series]
        total = [v for _, v in result.lookups_series]
        assert total[-1] > 0
        # Most bias happens early; the last interval adds little.
        assert biased[-1] - biased[len(biased) // 2] <= max(2.0, 0.2 * biased[-1] + 1.0)

    def test_no_attack_no_convictions(self):
        result = SecurityExperiment(small_security_config("none", duration=180.0)).run()
        assert result.identified_malicious == 0
        assert result.identified_honest == 0
        assert result.final_malicious_fraction == pytest.approx(result.initial_malicious_fraction, abs=0.05)

    def test_fingertable_manipulation_detected(self):
        result = SecurityExperiment(small_security_config("fingertable-manipulation")).run()
        assert result.final_malicious_fraction < result.initial_malicious_fraction * 0.5
        assert result.false_positive_rate <= 0.05

    def test_selective_dos_detected(self):
        result = SecurityExperiment(small_security_config("selective-dos")).run()
        assert result.final_malicious_fraction < result.initial_malicious_fraction * 0.5
        assert result.false_positive_rate <= 0.05

    def test_ca_workload_peaks_early(self):
        result = SecurityExperiment(small_security_config("lookup-bias")).run()
        workload = [v for _, v in result.ca_workload_series]
        if sum(workload) > 0:
            first_half = sum(workload[: len(workload) // 2])
            second_half = sum(workload[len(workload) // 2:])
            assert first_half >= second_half

    def test_invalid_attack_rejected(self):
        with pytest.raises(ValueError):
            SecurityExperimentConfig(attack="unknown-attack").validate()


class TestAnonymityExperiment:
    def test_sweep_produces_points_and_octopus_wins(self):
        config = AnonymityExperimentConfig(
            n_nodes=3000,
            fractions_malicious=(0.1, 0.2),
            dummy_counts=(6,),
            concurrent_lookup_rates=(0.01,),
            n_worlds=60,
            seed=1,
        )
        result = AnonymityExperiment(config).run()
        assert len(result.octopus_points) == 2
        assert len(result.comparison_points) == 6
        # At f = 0.2, Octopus leaks less than every comparison scheme.
        octo = [p for p in result.octopus_points if p.fraction_malicious == 0.2][0]
        for point in result.comparison_points:
            if point.fraction_malicious == 0.2:
                assert octo.initiator_leak < point.initiator_leak
                assert octo.target_leak < point.target_leak

    def test_octopus_entropy_decreases_with_f(self):
        config = AnonymityExperimentConfig(
            n_nodes=3000,
            fractions_malicious=(0.05, 0.2),
            dummy_counts=(6,),
            concurrent_lookup_rates=(0.01,),
            n_worlds=60,
            seed=2,
        )
        points = AnonymityExperiment(config).run_octopus()
        low = [p for p in points if p.fraction_malicious == 0.05][0]
        high = [p for p in points if p.fraction_malicious == 0.2][0]
        assert high.initiator_entropy <= low.initiator_entropy


class TestEfficiencyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        config = EfficiencyExperimentConfig(
            n_nodes=100,
            lookups_per_scheme=40,
            seed=1,
            octopus=OctopusConfig(expected_network_size=100),
        )
        return EfficiencyExperiment(config).run()

    def test_all_schemes_measured(self, result):
        assert set(result.schemes) == {"octopus", "chord", "halo"}
        for scheme in result.schemes.values():
            assert scheme.lookups == 40
            assert scheme.mean_latency > 0.0

    def test_latency_ordering_matches_paper(self, result):
        """Table 3 / Figure 7(a): Chord fastest, Halo slowest (waits for all
        redundant lookups), Octopus in between."""
        chord = result.schemes["chord"].mean_latency
        octopus = result.schemes["octopus"].mean_latency
        halo = result.schemes["halo"].mean_latency
        assert chord < octopus
        assert octopus < halo

    def test_bandwidth_ordering_matches_paper(self, result):
        """Octopus pays the most bandwidth; all schemes stay within tens of kbps."""
        for interval in (5.0, 10.0):
            octopus = result.schemes["octopus"].bandwidth_kbps[interval]
            chord = result.schemes["chord"].bandwidth_kbps[interval]
            halo = result.schemes["halo"].bandwidth_kbps[interval]
            assert octopus > halo > chord
            assert octopus < 50.0
            assert chord < 2.0

    def test_longer_lookup_interval_cheaper(self, result):
        octopus = result.schemes["octopus"].bandwidth_kbps
        assert octopus[10.0] < octopus[5.0]

    def test_correctness_high_without_attack(self, result):
        for scheme in result.schemes.values():
            assert scheme.correct_fraction > 0.9

    def test_table3_rows_render(self, result):
        rows = result.table3_rows()
        assert len(rows) == 3
        assert {r["scheme"] for r in rows} == {"octopus", "chord", "halo"}


TINY_EFFICIENCY = dict(n_nodes=40, lookups_per_scheme=4)


class TestEfficiencyRegressions:
    """The PR-5 efficiency-harness config bugfixes, pinned."""

    def test_relay_pairs_come_from_the_scaled_octopus_config(self, monkeypatch):
        """Regression: measure_latencies built relay pairs from the *unscaled*
        ``cfg.octopus`` while the network ran the ``scaled_for(n_nodes)``
        config.  Scaling is identity for relay pairs today, so the test makes
        it not be: a scaled config with a different relay-pair count must be
        the one the lookup loop asks for — pinned at the paper's 207 nodes."""
        from dataclasses import replace

        from repro.core.anonymous_lookup import AnonymousLookupProtocol

        original_scaled_for = OctopusConfig.scaled_for

        def scaling_that_touches_relay_pairs(self, n_nodes):
            # Idempotent on purpose: the scaled config passes through
            # OctopusNetwork.create, which calls scaled_for again.
            return replace(original_scaled_for(self, n_nodes), relay_pairs_per_lookup=6)

        monkeypatch.setattr(OctopusConfig, "scaled_for", scaling_that_touches_relay_pairs)

        requested_counts = []
        original_select = AnonymousLookupProtocol.select_relay_pairs

        def spying_select(self, initiator, count):
            requested_counts.append(count)
            return original_select(self, initiator, count)

        monkeypatch.setattr(AnonymousLookupProtocol, "select_relay_pairs", spying_select)

        config = EfficiencyExperimentConfig(n_nodes=207, lookups_per_scheme=2, seed=1)
        assert config.octopus.relay_pairs_per_lookup == 4  # unscaled stays 4
        EfficiencyExperiment(config).measure_latencies()
        assert requested_counts and all(count == 6 + 1 for count in requested_counts)

    def test_fractional_lookup_intervals_do_not_collide(self):
        """Regression: ``table3_rows`` truncated intervals with ``int()``, so
        7 and 7.5 minutes both rendered ``kbps_lk_int_7min``."""
        config = EfficiencyExperimentConfig(
            seed=1, lookup_intervals_minutes=(7.0, 7.5), **TINY_EFFICIENCY
        )
        result = EfficiencyExperiment(config).run()
        for row in result.table3_rows():
            # Both intervals keep their own column — before the fix 7.5
            # truncated to 7 and silently overwrote the 7-minute value.
            assert {"kbps_lk_int_7min", "kbps_lk_int_7.5min"} <= set(row)
            assert len([k for k in row if k.startswith("kbps_lk_int_")]) == 2
        metrics = result.scalar_metrics()
        assert "octopus_kbps_lk_int_7min" in metrics
        assert "octopus_kbps_lk_int_7.5min" in metrics

    def test_sequence_config_fields_normalize_to_tuples(self):
        """Regression: list-valued sequence fields (as campaign specs and JSON
        deserialization produce) must compare equal to the tuple defaults."""
        import json

        from repro.experiments.results import config_from_dict

        from_lists = EfficiencyExperimentConfig(
            lookup_intervals_minutes=[5.0, 10.0], slow_node_delay_range=[0.5, 2.0]
        )
        assert from_lists == EfficiencyExperimentConfig()
        assert from_lists.lookup_intervals_minutes == (5.0, 10.0)
        # Round trip through JSON and back: byte-equal to the original.
        config = EfficiencyExperimentConfig(seed=3, lookup_intervals_minutes=(7.0, 7.5))
        revived = config_from_dict(
            EfficiencyExperimentConfig, json.loads(json.dumps(config.to_dict()))
        )
        assert revived == config


class TestEfficiencyWorkloadInjection:
    """The closed-loop workload surface on the efficiency harness."""

    def test_default_model_is_a_behavioural_noop(self):
        from repro.sim.workload import WorkloadModel

        config = EfficiencyExperimentConfig(seed=1, **TINY_EFFICIENCY)
        plain = EfficiencyExperiment(config).run()
        injected = EfficiencyExperiment(config, workload=WorkloadModel()).run()
        assert injected.to_dict() == plain.to_dict()

    def test_zipf_workload_changes_keys_deterministically(self):
        from repro.scenarios.workloads import ZipfWorkload

        config = EfficiencyExperimentConfig(seed=1, **TINY_EFFICIENCY)
        plain = EfficiencyExperiment(config).run()
        zipf = lambda: EfficiencyExperiment(  # noqa: E731 - local factory
            config, workload=ZipfWorkload(exponent=1.2, n_keys=64)
        ).run()
        first, second = zipf(), zipf()
        assert first.to_dict() == second.to_dict()  # same model, same draws
        assert first.to_dict() != plain.to_dict()  # but not the uniform ones

    def test_hot_key_storm_sees_the_virtual_clock(self):
        """Lookup ``i`` happens at ``now = i`` seconds: a storm window covering
        the whole run concentrates lookups on the hot key, one starting after
        ``lookups_per_scheme`` never fires."""
        from repro.scenarios.workloads import HotKeyStormWorkload

        config = EfficiencyExperimentConfig(seed=1, **TINY_EFFICIENCY)

        def run_with(storm_start_s, storm_end_s, storm_intensity=0.9):
            return EfficiencyExperiment(
                config,
                workload=HotKeyStormWorkload(
                    storm_start_s=storm_start_s,
                    storm_end_s=storm_end_s,
                    storm_intensity=storm_intensity,
                ),
            ).run()

        # Two windows the per-lookup virtual clock never reaches: identical
        # draws (the storm coin is always consumed, window or not).
        assert run_with(1e6, 2e6).to_dict() == run_with(5e6, 9e6).to_dict()
        # A window covering every lookup at full intensity hits the hot key.
        assert run_with(0.0, 1e6, 1.0).to_dict() != run_with(1e6, 2e6).to_dict()


class TestTimingExperiment:
    def test_table1_grid(self):
        config = TimingExperimentConfig(max_candidate_flows=400)
        result = TimingExperiment(config).run()
        assert len(result.cells) == 6
        assert result.min_error_rate() > 0.9
        assert result.max_information_leak() < 2.0
        rows = result.table1_rows()
        assert len(rows) == 2
        assert all(len(row) == 4 for row in rows)


class TestResultFormatting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "2.500" in text

    def test_format_series(self):
        text = format_series("s", [(0.0, 1.0), (10.0, 2.0)])
        assert "10.0" in text

    def test_experiment_record_roundtrip(self):
        record = ExperimentRecord(name="demo", parameters={"n": 5})
        record.add_row(metric="x", value=1.0)
        record.add_series("curve", [(0.0, 0.0), (1.0, 1.0)])
        record.notes.append("scaled-down run")
        text = record.to_text()
        assert "demo" in text and "curve" in text and "scaled-down" in text


def test_config_from_dict_resolves_type_hints_once_per_class(monkeypatch):
    """A campaign rebuilds one config per trial; resolving the annotations
    (a ``compile`` + ``eval`` per field, nested dataclasses included) is per
    class, not per trial."""
    import typing

    from repro.experiments import results

    resolved = []
    real = typing.get_type_hints
    monkeypatch.setattr(typing, "get_type_hints", lambda cls: resolved.append(cls) or real(cls))
    results._type_hints.cache_clear()
    for seed in range(40):
        config = results.config_from_dict(
            SecurityExperimentConfig,
            {"n_nodes": 60, "octopus": {"expected_network_size": 60}, "seed": seed},
        )
    assert config.seed == 39 and config.octopus.expected_network_size == 60
    assert isinstance(config.octopus, OctopusConfig)
    assert sorted(cls.__name__ for cls in resolved) == ["OctopusConfig", "SecurityExperimentConfig"]
