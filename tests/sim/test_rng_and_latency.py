"""Tests for the random-source registry and the King-like latency model."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.latency import KING_MEAN_RTT, ConstantLatencyModel, KingLatencyModel
from repro.sim.rng import RandomSource, derive_seed


class TestRandomSource:
    def test_same_seed_same_streams(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.stream("x").random() for _ in range(5)] == [b.stream("x").random() for _ in range(5)]

    def test_different_names_give_different_streams(self):
        src = RandomSource(42)
        xs = [src.stream("x").random() for _ in range(5)]
        ys = [src.stream("y").random() for _ in range(5)]
        assert xs != ys

    def test_different_seeds_give_different_streams(self):
        assert RandomSource(1).stream("x").random() != RandomSource(2).stream("x").random()

    def test_stream_is_cached(self):
        src = RandomSource(0)
        assert src.stream("a") is src.stream("a")

    def test_spawn_is_deterministic(self):
        a = RandomSource(5).spawn("child")
        b = RandomSource(5).spawn("child")
        assert a.stream("s").random() == b.stream("s").random()

    def test_reset_single_stream(self):
        src = RandomSource(9)
        first = src.stream("z").random()
        src.reset("z")
        assert src.stream("z").random() == first

    def test_derive_seed_distinct_for_similar_names(self):
        assert derive_seed(0, "stream1") != derive_seed(0, "stream2")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_helpers_draw_from_named_streams(self):
        src = RandomSource(3)
        assert 0.0 <= src.random("h") <= 1.0
        assert 1 <= src.randint("h", 1, 10) <= 10
        assert src.choice("h", [1, 2, 3]) in (1, 2, 3)
        sample = src.sample("h", list(range(10)), 3)
        assert len(sample) == 3

    @given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_in_64bit_range(self, seed, name):
        value = derive_seed(seed, name)
        assert 0 <= value < 2**64


class TestConstantLatencyModel:
    def test_self_latency_zero(self):
        model = ConstantLatencyModel(0.05)
        assert model.one_way(3, 3) == 0.0

    def test_constant_between_distinct_nodes(self):
        model = ConstantLatencyModel(0.05)
        assert model.one_way(1, 2) == pytest.approx(0.05)
        assert model.rtt(1, 2) == pytest.approx(0.10)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatencyModel(-1.0)


class TestKingLatencyModel:
    def test_symmetric_base_rtt(self):
        model = KingLatencyModel(seed=1)
        assert model.base_rtt(10, 20) == model.base_rtt(20, 10)

    def test_deterministic_across_instances(self):
        a = KingLatencyModel(seed=7)
        b = KingLatencyModel(seed=7)
        assert a.base_rtt(1, 2) == b.base_rtt(1, 2)

    def test_pair_draws_are_not_retained_as_streams(self):
        """The RTT cache is the only per-pair state and ``cache_limit`` bounds
        it: a pair's generator is dropped after its one draw, never registered."""
        model = KingLatencyModel(seed=0, cache_limit=100)
        streams_before = len(model._rng_source._streams)
        for a in range(100):
            for b in range(100, 200):
                model.base_rtt(a, b)
        assert len(model._rng_source._streams) == streams_before
        assert len(model._cache) == 100
        # a pair the full cache could not keep is drawn again, to the same value
        assert (50, 150) not in model._cache
        fresh = KingLatencyModel(seed=0).base_rtt(50, 150)
        assert model.base_rtt(50, 150) == model.base_rtt(150, 50) == fresh

    def test_pinned_pair_rtts(self):
        """Seed-0 values from before pairs stopped registering streams."""
        model = KingLatencyModel(seed=0)
        pinned = {
            (1, 2): 0.06925778887668645,
            (0, 4294967295): 0.09194743947996703,
            (17, 4000): 0.09779207959239644,
            (123456, 654321): 0.19248614694101684,
            (3, 4): 0.08282963898971857,
            (7, 7): 0.0,
        }
        for (a, b), rtt in pinned.items():
            assert model.base_rtt(a, b) == rtt
            assert model.base_rtt(b, a) == rtt

    def test_different_pairs_heterogeneous(self):
        model = KingLatencyModel(seed=3)
        rtts = {model.base_rtt(i, i + 1000) for i in range(50)}
        assert len(rtts) > 40  # almost all distinct

    def test_mean_rtt_close_to_king(self):
        model = KingLatencyModel(seed=5)
        mean = model.empirical_mean_rtt(n_pairs=3000)
        assert 0.5 * KING_MEAN_RTT < mean < 1.8 * KING_MEAN_RTT

    def test_rtt_within_plausible_wan_range(self):
        model = KingLatencyModel(seed=2)
        for i in range(200):
            rtt = model.base_rtt(i, i + 7)
            assert 0.002 <= rtt <= 1.5

    def test_jitter_bounded_by_cap_and_fraction(self):
        model = KingLatencyModel(seed=0, jitter_cap=0.010, jitter_fraction=0.10)
        rng = random.Random(0)
        base = 0.200
        for _ in range(100):
            assert 0.0 <= model.jitter(base, rng) <= 0.010
        small_base = 0.020
        for _ in range(100):
            assert 0.0 <= model.jitter(small_base, rng) <= 0.002 + 1e-12

    def test_sample_delay_at_least_base(self):
        model = KingLatencyModel(seed=0)
        rng = random.Random(1)
        base = model.one_way(1, 2)
        for _ in range(20):
            assert model.sample_delay(1, 2, rng) >= base

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            KingLatencyModel(long_path_fraction=1.5)
        with pytest.raises(ValueError):
            KingLatencyModel(mean_rtt=0.0)
