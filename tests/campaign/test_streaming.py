"""Exactness properties of the streaming aggregation core.

The determinism contract demands that a summary folded in whatever order
records happened to land — a worker's completion order, the line order of
several partial logs read in directory order — is *byte-identical* (under
``strip_timing``) to the serial one.  These tests pin that property at the
accumulator level: the integer moments against the ``Fraction`` formulation
they replaced (``tests/campaign/oracle.py``) bit for bit, random record sets
in random fold orders, duplicate (claim-steal) copies, and the
validate-then-commit fold.  What the logs add on top — partitions over
files, torn lines, stale entries — is ``test_partial_logs.py``.
"""

from __future__ import annotations

import json
import math
import random
import statistics

import pytest

from repro.campaign.streaming import (
    CampaignAccumulator,
    GroupAccumulator,
    MetricAccumulator,
    aggregate_records,
    group_key,
    strip_timing,
)


# ------------------------------------------------------------------ fixtures
def make_record(trial_id, params, metrics, elapsed=0.25, worker="w0"):
    return {
        "trial_id": trial_id,
        "kind": "security",
        "params": dict(params),
        "metrics": dict(metrics),
        "detail": {},
        "timing": {"elapsed_s": elapsed, "worker": worker},
    }


def random_records(rng, n_trials, n_cells=3, n_metrics=4):
    records = []
    for i in range(n_trials):
        cell = rng.randrange(n_cells)
        params = {"attack_rate": 0.5 * (cell + 1), "n_nodes": 60, "seed": i}
        metrics = {
            f"m{j}": rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-6, 6)
            for j in range(n_metrics)
        }
        records.append(
            make_record(f"s{i}-t{i:04d}", params, metrics, elapsed=rng.uniform(0.01, 2.0))
        )
    return records


def two_pass_reference(values):
    """The textbook two-pass mean/std/ci95 the accumulator must reproduce."""
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((x - mean) ** 2 for x in values) / (n - 1)
        std = math.sqrt(var)
        ci95 = 1.96 * std / math.sqrt(n)
    else:
        std = ci95 = 0.0
    return mean, std, ci95


# ------------------------------------------------------- metric accumulator
def summary_bytes(accumulator_cls, values):
    """The summary of ``values`` folded in order, as bytes — or the error's type."""
    acc = accumulator_cls()
    try:
        for v in values:
            acc.update(v)
        return json.dumps(acc.summary(), sort_keys=True)
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


#: every corner of the float format the scaled-integer moments must get right:
#: the smallest subnormal, a tiny normal, one, an integer that needs 54 bits,
#: big-but-squarable magnitudes, negative zero, and non-float numerics.
TAME_SPECIALS = [5e-324, 1e-300, 1.0, 2**53 + 1, 1e150, -1e150, -0.0, 0.0, 3, True, False, 0.1, 0.2, 0.3]
#: whose squares overflow a float: the variance raises — in both formulations.
WILD_SPECIALS = TAME_SPECIALS + [1e308, -1e308]


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
@pytest.mark.parametrize("specials", [TAME_SPECIALS, WILD_SPECIALS], ids=["tame", "wild"])
def test_integer_moments_equal_the_fraction_oracle_bit_for_bit(moment_oracle, specials, n):
    for seed in range(6):
        rng = random.Random(1000 * n + seed)
        values = [
            rng.choice(specials)
            if rng.random() < 0.5
            else rng.uniform(-1e3, 1e3) * 10 ** rng.randint(-12, 12)
            for _ in range(n)
        ]
        for _ in range(3):
            rng.shuffle(values)
            assert summary_bytes(MetricAccumulator, values) == summary_bytes(
                moment_oracle.MetricAccumulator, values
            )


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_nan_and_inf_raise_before_any_state_changes(bad):
    acc = MetricAccumulator()
    for v in (1.5, -2.25, 1e-9):
        acc.update(v)
    before = json.dumps(acc.summary(), sort_keys=True)
    with pytest.raises((ValueError, OverflowError)):
        acc.update(bad)
    assert acc.n == 3
    assert json.dumps(acc.summary(), sort_keys=True) == before


@pytest.mark.parametrize("seed", range(5))
def test_integer_moments_match_two_pass_reference(seed):
    rng = random.Random(seed)
    values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8) for _ in range(200)]
    acc = MetricAccumulator()
    for v in rng.sample(values, len(values)):
        acc.update(v)
    got = acc.summary()
    ref_mean, ref_std, ref_ci = two_pass_reference(values)
    assert got["n"] == len(values)
    assert got["min"] == min(values) and got["max"] == max(values)
    assert got["mean"] == pytest.approx(ref_mean, rel=1e-12, abs=1e-300)
    assert got["std"] == pytest.approx(ref_std, rel=1e-12, abs=1e-300)
    assert got["ci95"] == pytest.approx(ref_ci, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(5))
def test_any_fold_order_is_byte_identical(seed):
    rng = random.Random(100 + seed)
    # Magnitudes 24 decades apart: every reordering rescales the moments at
    # different points, and float addition would round differently each time.
    values = [rng.uniform(-50, 50) * 10 ** rng.randint(-12, 12) for _ in range(64)]
    baseline = summary_bytes(MetricAccumulator, values)
    for _ in range(6):
        rng.shuffle(values)
        assert summary_bytes(MetricAccumulator, values) == baseline


def test_streaming_matches_batch_summarize():
    rng = random.Random(7)
    values = [rng.gauss(3.0, 2.0) for _ in range(97)]
    acc = MetricAccumulator()
    for v in values:
        acc.update(v)
    summary = acc.summary()
    std = statistics.stdev(values)
    assert summary["n"] == 97
    assert summary["mean"] == statistics.mean(values)  # both correctly rounded
    assert summary["std"] == pytest.approx(std, rel=1e-12)
    assert summary["ci95"] == pytest.approx(1.96 * std / math.sqrt(97), rel=1e-12)
    assert (summary["min"], summary["max"]) == (min(values), max(values))


def test_empty_and_single_sample_edges():
    assert MetricAccumulator().summary() == {"n": 0}
    one = MetricAccumulator()
    one.update(4.25)
    assert one.summary() == {
        "mean": 4.25, "std": 0.0, "ci95": 0.0, "min": 4.25, "max": 4.25, "n": 1,
    }


def test_identical_samples_have_exactly_zero_spread():
    """No cancellation residue: n copies of 0.1 have std 0.0, not 1e-17."""
    acc = MetricAccumulator()
    for _ in range(1000):
        acc.update(0.1)
    summary = acc.summary()
    assert summary["mean"] == 0.1 and summary["std"] == 0.0 and summary["ci95"] == 0.0


# ----------------------------------------------------- campaign accumulator
@pytest.mark.parametrize("seed", range(4))
def test_any_record_order_with_duplicates_reproduces_serial_summary(seed):
    """Shuffled fold order + duplicate (stolen-claim) copies == the serial
    fold, byte-for-byte under strip_timing."""
    rng = random.Random(200 + seed)
    records = random_records(rng, n_trials=40)
    expected = json.dumps(strip_timing(aggregate_records(records)), sort_keys=True)

    # ~20% of trials were also executed by a second worker: byte-identical
    # outside timing, per the determinism contract.
    copies = [dict(r, timing={"elapsed_s": 9.0, "worker": "w1"}) for r in records if rng.random() < 0.2]
    for _ in range(4):
        arrival = records + copies
        rng.shuffle(arrival)
        acc = CampaignAccumulator()
        folded = [acc.add_record(record) for record in arrival]
        assert sum(folded) == len(records)  # every copy after the first was dropped
        assert json.dumps(strip_timing(acc.finalize()), sort_keys=True) == expected


def test_campaign_accumulator_matches_aggregate_records():
    rng = random.Random(42)
    records = random_records(rng, n_trials=24)
    acc = CampaignAccumulator()
    for record in records:
        acc.add_record(record)
    assert json.dumps(acc.finalize(), sort_keys=True) == json.dumps(
        aggregate_records(records), sort_keys=True
    )


def test_add_record_dedupes_by_trial_id():
    record = make_record("s0-aaaa", {"attack_rate": 1.0, "seed": 0}, {"m": 2.0})
    acc = CampaignAccumulator()
    assert acc.add_record(record) is True
    assert acc.add_record(dict(record)) is False
    summary = acc.finalize()
    assert summary["n_trials"] == 1
    [group] = summary["groups"]
    assert group["metrics"]["m"]["n"] == 1


def test_empty_accumulator_finalizes_to_zero_trials():
    empty = CampaignAccumulator()
    assert len(empty) == 0 and empty.trial_ids == set()
    summary = empty.finalize()
    assert summary["n_trials"] == 0 and summary["groups"] == []
    assert summary["timing"] == {"n": 0} and "ignored_axes" not in summary


# ------------------------------------------------- validate, then commit
BAD_RECORDS = {
    "non-numeric metric": {"metrics": {"a": 1.0, "b": "not a number"}},
    "NaN metric": {"metrics": {"a": 1.0, "b": float("nan")}},
    "infinite metric": {"metrics": {"a": 1.0, "b": float("inf")}},
    "metrics not a mapping": {"metrics": [1.0, 2.0]},
    "params not a mapping": {"params": ["attack_rate", 1.0]},
}


@pytest.mark.parametrize("damage", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_a_bad_record_raises_and_touches_nothing(damage):
    """The double-count / lost-trial bug: the fold used to account the id,
    count metric ``a`` and then raise on ``b`` — leaving a half-updated group
    and rejecting a later good copy of the same trial as a duplicate."""
    good = make_record("s0-good", {"attack_rate": 1.0, "seed": 0}, {"a": 1.0, "b": 2.0})
    victim = make_record("s1-victim", {"attack_rate": 1.0, "seed": 1}, {"a": 3.0, "b": 4.0})
    acc = CampaignAccumulator()
    acc.add_record(good)
    before = json.dumps(acc.finalize(), sort_keys=True)

    with pytest.raises((TypeError, ValueError)):
        acc.add_record({**victim, **damage})
    assert acc.trial_ids == {"s0-good"}
    assert json.dumps(acc.finalize(), sort_keys=True) == before  # no 'b': {'n': 0} beside a counted 'a'

    # ... and the good copy of the same trial is still new, and counts once.
    assert acc.add_record(victim) is True
    [group] = acc.finalize()["groups"]
    assert group["trial_ids"] == ["s0-good", "s1-victim"]
    assert group["metrics"]["a"]["n"] == group["metrics"]["b"]["n"] == 2


def test_a_bad_first_record_of_a_cell_leaves_no_empty_group():
    acc = CampaignAccumulator()
    with pytest.raises(ValueError):
        acc.add_record(make_record("s0-x", {"attack_rate": 2.0, "seed": 0}, {"m": float("nan")}))
    assert acc.groups == {} and acc.finalize()["n_groups"] == 0


def test_group_key_drops_only_the_seed():
    a = {"attack_rate": 1.0, "seed": 0, "n_nodes": 60}
    b = {"n_nodes": 60, "attack_rate": 1.0, "seed": 5}
    assert group_key(a) == group_key(b)
    assert group_key({"attack_rate": 0.5, "seed": 0}) != group_key(a)


def test_group_summary_orders_trials_by_seed():
    group = GroupAccumulator(key="k")
    for seed in (2, 0, 1):
        group.add_record(
            make_record(f"s{seed}-x", {"attack_rate": 1.0, "seed": seed}, {"m": 1.0})
        )
    summary = group.summary()
    assert summary["seeds"] == [0, 1, 2]
    assert summary["trial_ids"] == ["s0-x", "s1-x", "s2-x"]
    assert "seed" not in summary["params"]
