"""Self-tuning queue workers: idle-poll backoff and per-worker timing.

Two PR-4 satellites on the file-queue backend:

* ``repro campaign-worker`` polls with exponential backoff + jitter instead
  of a fixed interval — idle polling decays and snaps back the moment a job
  is claimed;
* every queue-executed record carries its executor in ``timing.worker``,
  and ``summary.json`` rolls elapsed seconds up per worker id (outside the
  determinism-compared view, like all timing).
"""

from __future__ import annotations

import json
import random

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    PollBackoff,
    run_campaign,
    run_worker,
    TimingAccumulator,
    strip_timing,
)


@pytest.fixture
def timing_spec() -> CampaignSpec:
    return CampaignSpec(
        kind="timing",
        name="worker-tuning",
        base={"max_candidate_flows": 50},
        seeds=(0, 1),
    )


# ----------------------------------------------------------------- PollBackoff


def test_backoff_decays_geometrically_and_caps():
    backoff = PollBackoff(base_s=0.1, max_s=0.8, factor=2.0, jitter=0.0)
    assert [round(backoff.next_delay(), 3) for _ in range(5)] == [0.1, 0.2, 0.4, 0.8, 0.8]


def test_backoff_resets_to_the_floor():
    backoff = PollBackoff(base_s=0.1, max_s=5.0, jitter=0.0)
    for _ in range(4):
        backoff.next_delay()
    assert backoff.current_delay() > 0.1
    backoff.reset()
    assert backoff.idle_polls == 0
    assert backoff.next_delay() == pytest.approx(0.1)


def test_backoff_jitter_stays_within_band():
    backoff = PollBackoff(base_s=1.0, max_s=1.0, jitter=0.25, rng=random.Random(7))
    delays = [backoff.next_delay() for _ in range(200)]
    assert all(0.75 <= d <= 1.25 for d in delays)
    assert len({round(d, 6) for d in delays}) > 1  # actually dithered


def test_backoff_survives_very_long_idle_stretches():
    """Regression: factor**idle_polls must stop growing at the ceiling — a
    worker parked on an empty queue for hours used to hit OverflowError."""
    backoff = PollBackoff(base_s=0.2, max_s=5.0, jitter=0.0)
    for _ in range(5000):
        assert backoff.next_delay() <= 5.0
    backoff.reset()
    assert backoff.next_delay() == pytest.approx(0.2)


def test_backoff_rejects_bad_parameters():
    with pytest.raises(ValueError):
        PollBackoff(base_s=0.0)
    with pytest.raises(ValueError):
        PollBackoff(base_s=0.1, factor=0.5)
    with pytest.raises(ValueError):
        PollBackoff(base_s=0.1, jitter=1.0)


def test_worker_idle_polls_decay_and_reset_on_claimed_job(
    timing_spec, tmp_path, monkeypatch
):
    """Drive run_worker through idle polling -> a claimed job -> idle again:
    the recorded sleep requests must escalate, then drop back to the floor
    after the claim."""
    out = tmp_path / "backoff"
    store = CampaignStore(out)
    store.ensure_queue_layout()  # open (unsealed) queue, nothing pending yet
    trial = timing_spec.expand()[0]

    delays = []

    def fake_sleep(seconds: float) -> None:
        delays.append(seconds)
        if len(delays) == 5:  # work arrives after five idle polls
            store.enqueue_trial(0, trial.to_dict())
        if len(delays) == 8:  # and later the producer seals the queue
            store.mark_enqueue_complete(1)

    monkeypatch.setattr("repro.campaign.backends.queue.time.sleep", fake_sleep)
    executed = run_worker(out, worker_id="w-backoff", poll_interval_s=0.05)
    assert executed == 1
    # Idle polls 1-5 escalate geometrically (jitter is at most +-25%, far
    # smaller than the 16x nominal growth across four doublings).
    assert delays[4] > delays[0] * 4
    assert sorted(delays[:5]) == delays[:5]
    # The claimed job reset the backoff: the first post-claim idle poll is
    # back at the floor, well below the pre-claim peak.
    assert delays[5] < delays[4] / 2
    assert delays[5] == pytest.approx(0.05, rel=0.3)


def test_worker_cli_rejects_inverted_poll_bounds(tmp_path):
    from repro.cli import main

    with pytest.raises(SystemExit, match="max-poll-interval"):
        main([
            "campaign-worker", str(tmp_path),
            "--poll-interval", "1.0", "--max-poll-interval", "0.5",
        ])


# ------------------------------------------------------- per-worker timing


def test_queue_records_carry_executor_and_summary_rolls_up(timing_spec, tmp_path):
    out = tmp_path / "attribution"
    store = CampaignStore(out)
    store.ensure_queue_layout()
    store.write_spec(timing_spec)
    trials = timing_spec.expand()
    for order, trial in enumerate(trials):
        store.enqueue_trial(order, trial.to_dict())
    store.mark_enqueue_complete(len(trials))

    executed = run_worker(
        out, worker_id="w-attrib", poll_interval_s=0.01, wait_for_queue_s=0
    )
    assert executed == len(trials)
    for trial in trials:
        record = store.load_trial(trial.trial_id)
        assert record["timing"]["worker"] == "w-attrib"
        # The label lives only under timing: stripped from the compared view.
        assert "worker" not in json.dumps(strip_timing(record))

    # The producer folds the worker-executed records into summary.json.
    report = run_campaign(timing_spec, out_dir=out, resume=True, backend="queue")
    workers = report.summary["timing"]["workers"]
    assert set(workers) == {"w-attrib"}
    assert workers["w-attrib"]["n"] == len(trials)
    assert workers["w-attrib"]["total_elapsed_s"] > 0
    assert "workers" not in json.dumps(strip_timing(report.summary))


def summarize_timing(records):
    acc = TimingAccumulator()
    for record in records:
        acc.add_record(record)
    return acc.summary()


def test_summarize_timing_splits_elapsed_per_worker():
    records = [
        {"kind": "timing", "params": {"seed": 0}, "timing": {"elapsed_s": 1.0, "worker": "a"}},
        {"kind": "timing", "params": {"seed": 1}, "timing": {"elapsed_s": 3.0, "worker": "a"}},
        {"kind": "timing", "params": {"seed": 2}, "timing": {"elapsed_s": 2.0, "worker": "b"}},
        # serial/pool records have no worker label and don't contribute
        {"kind": "timing", "params": {"seed": 3}, "timing": {"elapsed_s": 9.0}},
    ]
    timing = summarize_timing(records)
    assert timing["workers"] == {
        "a": {"n": 2, "total_elapsed_s": 4.0, "mean_elapsed_s": 2.0},
        "b": {"n": 1, "total_elapsed_s": 2.0, "mean_elapsed_s": 2.0},
    }
    assert timing["n"] == 4  # the unlabelled record still counts in totals


def test_summarize_timing_omits_workers_block_when_nobody_is_labelled():
    records = [{"kind": "timing", "params": {"seed": 0}, "timing": {"elapsed_s": 1.0}}]
    assert "workers" not in summarize_timing(records)
