"""Exactness properties of the streaming (mergeable) aggregation core.

The determinism contract demands that a summary built from per-worker
partials — folded in nondeterministic completion order, committed to disk,
reloaded and merged in directory order — is *byte-identical* (under
``strip_timing``) to the serial one.  These tests pin that property the hard
way: random record sets, random partitions, random merge orders, duplicate
(claim-steal) overlaps, JSON round-trips, and the empty-partial edge case.
"""

from __future__ import annotations

import json
import math
import random
import statistics

import pytest

from repro.campaign.streaming import (
    PARTIAL_STATE_VERSION,
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
@pytest.mark.parametrize("seed", range(5))
def test_merged_partials_match_two_pass_reference(seed):
    rng = random.Random(seed)
    values = [rng.uniform(-1e6, 1e6) * 10 ** rng.randint(-8, 8) for _ in range(200)]

    # Split into random contiguous chunks, fold each into its own partial,
    # merge in shuffled order.
    cuts = sorted(rng.sample(range(1, len(values)), 5))
    chunks = [values[a:b] for a, b in zip([0] + cuts, cuts + [len(values)])]
    partials = []
    for chunk in chunks:
        acc = MetricAccumulator()
        for v in chunk:
            acc.update(v)
        partials.append(acc)
    rng.shuffle(partials)
    merged = MetricAccumulator()
    for part in partials:
        merged.merge(part)

    got = merged.summary()
    ref_mean, ref_std, ref_ci = two_pass_reference(values)
    assert got["n"] == len(values)
    assert got["min"] == min(values) and got["max"] == max(values)
    assert got["mean"] == pytest.approx(ref_mean, rel=1e-12, abs=1e-300)
    assert got["std"] == pytest.approx(ref_std, rel=1e-12, abs=1e-300)
    assert got["ci95"] == pytest.approx(ref_ci, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("seed", range(5))
def test_any_merge_order_is_byte_identical(seed):
    rng = random.Random(100 + seed)
    values = [rng.uniform(-50, 50) for _ in range(64)]
    chunks = [values[i::4] for i in range(4)]

    def merged_summary(order):
        out = MetricAccumulator()
        for idx in order:
            part = MetricAccumulator()
            for v in chunks[idx]:
                part.update(v)
            out.merge(part)
        return json.dumps(out.summary(), sort_keys=True)

    baseline = merged_summary(range(4))
    for _ in range(6):
        order = list(range(4))
        rng.shuffle(order)
        assert merged_summary(order) == baseline


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
    empty = MetricAccumulator()
    assert empty.summary() == {"n": 0}

    # Merging an empty partial is the identity, in either direction.
    one = MetricAccumulator()
    one.update(4.25)
    before = json.dumps(one.summary(), sort_keys=True)
    one.merge(MetricAccumulator())
    assert json.dumps(one.summary(), sort_keys=True) == before
    empty.merge(one)
    assert json.dumps(empty.summary(), sort_keys=True) == before
    assert one.summary() == {
        "mean": 4.25, "std": 0.0, "ci95": 0.0, "min": 4.25, "max": 4.25, "n": 1,
    }


def test_remove_is_the_exact_inverse_of_a_duplicate_update():
    rng = random.Random(11)
    values = [rng.uniform(-10, 10) for _ in range(30)]
    dup = values[13]
    acc = MetricAccumulator()
    for v in values:
        acc.update(v)
    reference = json.dumps(acc.summary(), sort_keys=True)
    acc.update(dup)   # the claim-steal double execution
    acc.remove(dup)   # the pre-merge dedupe
    assert json.dumps(acc.summary(), sort_keys=True) == reference

    with pytest.raises(ValueError):
        MetricAccumulator().remove(1.0)


def test_metric_state_round_trips_through_json():
    acc = MetricAccumulator()
    for v in (0.1, 0.2, 0.3):  # classic non-associative floats
        acc.update(v)
    state = json.loads(json.dumps(acc.to_state()))
    back = MetricAccumulator.from_state(state)
    assert json.dumps(back.summary(), sort_keys=True) == json.dumps(
        acc.summary(), sort_keys=True
    )


# ----------------------------------------------------- campaign accumulator
@pytest.mark.parametrize("seed", range(4))
def test_partitioned_partials_reproduce_serial_summary(seed):
    """Random partition + duplicates + JSON round-trip + shuffled merge ==
    the serial fold, byte-for-byte under strip_timing."""
    rng = random.Random(200 + seed)
    records = random_records(rng, n_trials=40)

    serial = CampaignAccumulator()
    for record in records:
        serial.add_record(record)
    expected = json.dumps(strip_timing(serial.finalize()), sort_keys=True)

    # Partition across 3 "workers"; ~20% of trials also execute on a second
    # worker (stolen claims) — byte-identical records, per the contract.
    partitions = [[], [], []]
    for record in records:
        partitions[rng.randrange(3)].append(record)
        if rng.random() < 0.2:
            partitions[rng.randrange(3)].append(record)

    partial_states = []
    for part_records in partitions:
        acc = CampaignAccumulator()
        for record in part_records:
            acc.add_record(record)  # in-worker dedupe: same-id copies skipped
        if len(acc):
            partial_states.append(json.loads(json.dumps(acc.to_state())))

    rng.shuffle(partial_states)
    merged = CampaignAccumulator()
    by_id = {r["trial_id"]: r for r in records}
    for state in partial_states:
        part = CampaignAccumulator.from_state(state)
        for trial_id in sorted(part.trial_ids & merged.trial_ids):
            part.remove_record(by_id[trial_id])
        merged.merge(part)
    for record in records:  # top-up anything no partial covered
        merged.add_record(record)

    assert json.dumps(strip_timing(merged.finalize()), sort_keys=True) == expected


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


def test_merging_an_empty_partial_is_the_identity():
    records = random_records(random.Random(3), n_trials=8)
    acc = CampaignAccumulator()
    for record in records:
        acc.add_record(record)
    before = json.dumps(strip_timing(acc.finalize()), sort_keys=True)
    acc.merge(CampaignAccumulator())
    assert json.dumps(strip_timing(acc.finalize()), sort_keys=True) == before

    empty = CampaignAccumulator()
    assert len(empty) == 0
    assert empty.finalize()["n_trials"] == 0
    # An empty accumulator's state must not round-trip into phantom trials.
    back = CampaignAccumulator.from_state(json.loads(json.dumps(empty.to_state())))
    assert len(back) == 0


def test_unsupported_partial_version_is_rejected():
    state = CampaignAccumulator().to_state()
    assert state["version"] == PARTIAL_STATE_VERSION
    state["version"] = PARTIAL_STATE_VERSION + 1
    with pytest.raises(ValueError):
        CampaignAccumulator.from_state(state)


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
