"""Partial logs: what a queue campaign's summary is folded from, and what it costs.

Three families, all on a registered toy kind whose trials cost nothing:

* **log semantics** — any partition of a record set over any number of
  worker logs, in any line order, folds to the serial summary byte for byte;
  duplicates count once; a torn tail, a foreign line, an entry of another
  spec or a state file from before the logs are ignored and the trials they
  fail to cover are topped up from their records;
* **crash semantics** — a record is on disk before its log line, a worker
  killed mid-append costs one targeted ``load_trial``, ``clear_partials``
  under a live worker loses nothing;
* **linearity, as counts not times** — draining T jobs lists ``pending/`` a
  constant number of times and appends T bounded lines, resume reads each
  record once, and a job that appears after a worker's listing was taken is
  still found by that worker's next empty-handed call.
"""

from __future__ import annotations

import json
import os
import random
import threading
from dataclasses import dataclass

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_records,
    merge_partial_summaries,
    run_campaign,
    strip_timing,
)
from repro.campaign.backends.queue import (
    FileQueueBackend,
    claim_and_execute_batch,
    claim_and_execute_next,
    run_worker,
)
from repro.campaign.registry import _REGISTRY, ExperimentAdapter
from repro.campaign.streaming import partial_entry
from repro.campaign.telemetry import WorkerTelemetry

N_METRICS = 16


@dataclass
class ToyConfig:
    cell: int = 0
    seed: int = 0


class ToyResult:
    """A free trial: 16 scalar metrics drawn from (cell, seed), a bulky detail."""

    def __init__(self, config: ToyConfig) -> None:
        self.config = config
        draw = random.Random(config.seed * 1_000_003 + config.cell)
        self.metrics = {f"m{i:02d}": i + draw.random() for i in range(N_METRICS)}

    def scalar_metrics(self):
        return dict(self.metrics)

    def to_dict(self):
        return {
            "config": {"cell": self.config.cell, "seed": self.config.seed},
            "series": {"padding": list(range(200))},
            "metrics": self.scalar_metrics(),
        }


def run_toy(config: ToyConfig) -> ToyResult:
    return ToyResult(config)


@pytest.fixture(autouse=True)
def toy_kind(monkeypatch):
    monkeypatch.setitem(
        _REGISTRY, "toy", ExperimentAdapter(kind="toy", config_cls=ToyConfig, entry_point=run_toy)
    )


def toy_spec(n_trials: int, cells: int = 4) -> CampaignSpec:
    return CampaignSpec(
        kind="toy", name="toy", grid={"cell": list(range(cells))}, seeds=tuple(range(n_trials // cells))
    )


def summary_bytes(summary) -> str:
    return json.dumps(strip_timing(summary), sort_keys=True)


@pytest.fixture
def recorded(tmp_path):
    """A 24-trial toy campaign run serially: (store, trials, records, serial summary bytes)."""
    spec = toy_spec(24)
    report = run_campaign(spec, tmp_path / "c", backend="serial")
    store = CampaignStore(tmp_path / "c")
    trials = spec.expand()
    records = store.load_trials([t.trial_id for t in trials])
    assert len(records) == 24
    return store, trials, records, summary_bytes(report.summary)


def count_calls(monkeypatch, owner, name, when=lambda *args, **kwargs: True):
    """Wrap ``owner.name`` with a counter of the calls ``when`` accepts."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        if when(*args, **kwargs):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


# ------------------------------------------------------------- log semantics
@pytest.mark.parametrize("seed", range(5))
def test_any_partition_over_any_logs_in_any_order_is_the_serial_summary(recorded, seed):
    store, trials, records, serial = recorded
    rng = random.Random(seed)
    n_workers = seed + 1  # 1..5 logs
    lines = list(records)
    rng.shuffle(lines)
    for record in lines:
        store.write_partial(f"w{rng.randrange(n_workers)}", partial_entry(record))
    loads = []
    store.load_trial = lambda trial_id: loads.append(trial_id)  # every trial is logged: none may be read
    merged = merge_partial_summaries(store, trials)
    assert loads == []
    assert summary_bytes(merged.finalize(spec=toy_spec(24))) == serial


def test_a_duplicate_across_two_logs_counts_once(recorded):
    store, trials, records, serial = recorded
    for record in records:
        store.write_partial("w0", partial_entry(record))
    stolen = dict(records[3], timing={"elapsed_s": 7.0, "worker": "w1"})
    store.write_partial("w1", partial_entry(stolen))
    store.write_partial("w1", partial_entry(stolen))
    merged = merge_partial_summaries(store, trials)
    summary = merged.finalize(spec=toy_spec(24))
    assert summary["n_trials"] == 24
    assert summary_bytes(summary) == serial
    # the first copy read (w0's log sorts first) is the one counted, timing included
    assert summary["timing"]["n"] == 24 and "w1" not in summary["timing"].get("workers", {})


def _truncate_last_line(store, records):
    path = store.partial_path("w0")
    path.write_bytes(path.read_bytes()[:-40])
    return [records[-1]["trial_id"]]


def _glue_a_line_to_a_torn_tail(store, records):
    path = store.partial_path("w0")
    whole = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(whole[:-2]) + whole[-2][:50] + whole[-1])
    return [records[-2]["trial_id"], records[-1]["trial_id"]]


def _insert_non_json_lines(store, records):
    with open(store.partial_path("w0"), "a") as handle:
        handle.write("\n# hand-written note\n[1, 2, 3]\n\"just a string\"\n{\"no\": \"trial id\"}\n")
    return []


def _log_trials_of_another_spec(store, records):
    for record in records[:3]:
        store.write_partial("w1", partial_entry(dict(record, trial_id="s9-" + record["trial_id"])))
    return []


def _leave_an_old_format_state_file(store, records):
    state = {"version": 1, "n_trials": 1, "groups": {"k": {"params": {}, "trials": {records[0]["trial_id"]: 0}, "metrics": {}}}}
    (store.partials_dir / "w0.json").write_text(json.dumps(state))
    (store.partials_dir / "w9.json").write_text(json.dumps(state))
    return []


def _corrupt_an_entry_s_metric(store, records):
    path = store.partial_path("w0")
    first, rest = path.read_bytes().split(b"\n", 1)
    entry = json.loads(first)
    entry["metrics"]["m03"] = "oops"
    path.write_bytes(json.dumps(entry).encode() + b"\n" + rest)
    return [entry["trial_id"]]


@pytest.mark.parametrize(
    "damage",
    [
        _truncate_last_line,
        _glue_a_line_to_a_torn_tail,
        _insert_non_json_lines,
        _log_trials_of_another_spec,
        _leave_an_old_format_state_file,
        _corrupt_an_entry_s_metric,
    ],
)
def test_unusable_entries_are_ignored_and_their_trials_topped_up(recorded, monkeypatch, damage):
    """Whatever a log fails to say is read from the record it describes —
    with exactly one targeted ``load_trial`` per such trial, never a re-read."""
    store, trials, records, serial = recorded
    for record in records:
        store.write_partial("w0", partial_entry(record))
    expected_loads = damage(store, records)
    loads = count_calls(monkeypatch, CampaignStore, "load_trial")
    merged = merge_partial_summaries(store, trials)
    assert sorted(args[1] for args in loads) == sorted(expected_loads)
    summary = merged.finalize(spec=toy_spec(24))
    assert summary["n_trials"] == 24 and summary_bytes(summary) == serial


def test_a_genuinely_bad_record_still_raises_at_the_top_up(recorded):
    """A bad *log entry* is skipped; a bad *record* is a bug worth a traceback."""
    store, trials, records, _serial = recorded
    broken = dict(records[0], metrics=dict(records[0]["metrics"], m00="oops"))
    store.write_trial(broken)
    with pytest.raises(ValueError):
        merge_partial_summaries(store, trials)


def test_partial_entry_is_the_record_minus_detail(recorded):
    _store, _trials, records, _serial = recorded
    record = records[0]
    assert "series" in record["detail"]
    entry = partial_entry(record)
    assert entry == {k: v for k, v in record.items() if k != "detail"}
    assert len(json.dumps(entry)) < len(json.dumps(record)) / 2

    scenario = {"base_kind": "efficiency", "ignored_axes": ["churn"], "preset": "p", "axes": {"churn": "x"}}
    ignoring = dict(record, detail={"scenario": scenario, "base_result": {"big": list(range(99))}})
    assert partial_entry(ignoring)["detail"] == {
        "scenario": {"base_kind": "efficiency", "ignored_axes": ["churn"]}
    }
    applied = dict(record, detail={"scenario": dict(scenario, ignored_axes=[])})
    assert "detail" not in partial_entry(applied)
    # ... and an entry folds exactly like the record it was cut from.
    assert aggregate_records([partial_entry(ignoring)]) == aggregate_records([ignoring])


def test_worker_telemetry_logs_nothing_for_a_trial_it_did_not_run(recorded):
    store, _trials, records, _serial = recorded
    telemetry = WorkerTelemetry(store, "w0", heartbeat_interval_s=30.0)
    telemetry.trial_finished(records[0], ran=False)
    assert store.list_partials() == []
    telemetry.trial_finished(records[1], ran=True)
    assert [e["trial_id"] for e in store.load_partial(store.partial_path("w0"))] == [records[1]["trial_id"]]


# ----------------------------------------------------------- crash semantics
def test_an_entry_never_precedes_its_record_on_disk(tmp_path, monkeypatch):
    spec = toy_spec(16)
    seen = []
    original = CampaignStore.write_partial

    def checking(self, worker_id, entry):
        on_disk = self.load_trial(entry["trial_id"])
        assert on_disk is not None, "log line written before its record"
        assert partial_entry(on_disk) == entry
        seen.append(entry["trial_id"])
        original(self, worker_id, entry)

    monkeypatch.setattr(CampaignStore, "write_partial", checking)
    report = run_campaign(spec, tmp_path / "q", backend=FileQueueBackend(worker_id="w0"))
    assert sorted(seen) == sorted(report.executed_trial_ids) and len(seen) == 16


def test_a_worker_killed_mid_append_costs_one_targeted_load(tmp_path, monkeypatch):
    spec = toy_spec(16)
    reference = run_campaign(spec, tmp_path / "serial", backend="serial")
    out = tmp_path / "q"
    store = CampaignStore(out)
    store.ensure_queue_layout()
    for order, trial in enumerate(spec.expand()):
        store.enqueue_trial(order, trial.to_dict())
    store.mark_enqueue_complete(16)
    # The worker drains everything, then dies inside its last append.
    assert run_worker(out, worker_id="doomed", wait_for_queue_s=0) == 16
    log = store.partial_path("doomed")
    torn = json.loads(log.read_bytes().splitlines()[-1])["trial_id"]
    log.write_bytes(log.read_bytes()[:-25])
    assert len(store.load_partial(log)) == 15

    loads = count_calls(monkeypatch, CampaignStore, "load_trial")
    merged = merge_partial_summaries(store, spec.expand())
    assert [args[1] for args in loads] == [torn]
    assert summary_bytes(merged.finalize(spec=spec)) == summary_bytes(reference.summary)


def test_clear_partials_under_a_live_worker_loses_nothing(recorded):
    store, trials, records, serial = recorded
    telemetry = WorkerTelemetry(store, "live", heartbeat_interval_s=30.0)
    for record in records[:10]:
        telemetry.trial_finished(record, ran=True)
    store.clear_partials()  # a producer (re)starting while the worker is mid-campaign
    assert store.list_partials() == []
    for record in records[10:]:
        telemetry.trial_finished(record, ran=True)  # the next append recreates the log
    logged = [e["trial_id"] for e in store.load_partial(store.partial_path("live"))]
    assert logged == [r["trial_id"] for r in records[10:]]
    merged = merge_partial_summaries(store, trials)  # the first ten: topped up
    assert summary_bytes(merged.finalize(spec=toy_spec(24))) == serial


def test_clear_partials_removes_logs_and_pre_log_state_files(tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.clear_partials()  # no queue/ yet: nothing to do, no error
    store.ensure_queue_layout()
    (store.partials_dir / "old-worker.json").write_text("{}")
    (store.partials_dir / "README.txt").write_text("not ours")
    store.write_partial("w0", {"trial_id": "s0-a", "metrics": {}})
    store.clear_partials()
    assert sorted(os.listdir(store.partials_dir)) == ["README.txt"]


def test_concurrent_appenders_never_tear_each_other_s_lines(recorded):
    """Workers own their logs, but ids can collide (a restarted host reusing a
    pid): appends to one file from several threads must still parse line by
    line — each entry is a single ``write`` on an ``O_APPEND`` handle."""
    store, trials, records, serial = recorded

    def append(chunk):
        for record in chunk:
            store.write_partial("shared", partial_entry(record))

    threads = [threading.Thread(target=append, args=(records[i::6],)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
    assert not any(thread.is_alive() for thread in threads)
    entries = store.load_partial(store.partial_path("shared"))
    assert sorted(e["trial_id"] for e in entries) == sorted(r["trial_id"] for r in records)
    assert summary_bytes(merge_partial_summaries(store, trials).finalize(spec=toy_spec(24))) == serial


# ------------------------------------------------ linearity: counts, not times
def drain_counts(tmp_path, monkeypatch, n_trials):
    """One single-handed queue campaign of ``n_trials``: what it cost, in counts."""
    spec = toy_spec(n_trials)
    out = tmp_path / f"q{n_trials}"
    pending = str(CampaignStore(out).pending_dir)
    with monkeypatch.context() as patch:
        listings = count_calls(patch, os, "listdir", when=lambda path: str(path) == pending)
        appends = count_calls(patch, CampaignStore, "write_partial")
        report = run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"))
    store = CampaignStore(out)
    assert report.n_executed == n_trials and store.queue_drained()
    [log] = store.list_partials()
    return {
        "listings": len(listings),
        "appends": len(appends),
        "lines": len(log.read_bytes().splitlines()),
        "bytes": log.stat().st_size,
        "summary": summary_bytes(report.summary),
    }


def test_draining_lists_pending_a_constant_number_of_times_and_logs_bounded_lines(tmp_path, monkeypatch):
    half = drain_counts(tmp_path, monkeypatch, 60)
    full = drain_counts(tmp_path, monkeypatch, 120)
    # one listing each for purge, the enqueue snapshot and the drain — not one per claim
    assert half["listings"] <= 3 and full["listings"] <= 3
    assert (half["appends"], half["lines"]) == (60, 60)
    assert (full["appends"], full["lines"]) == (120, 120)
    # a line is the 16 metrics plus a few ids, whatever the campaign's size:
    # doubling T doubles the bytes (a state rewrite would have quadrupled them)
    assert full["bytes"] <= 800 * 120
    assert 1.9 <= full["bytes"] / half["bytes"] <= 2.1
    reference = run_campaign(toy_spec(120), tmp_path / "serial", backend="serial")
    assert full["summary"] == summary_bytes(reference.summary)


def test_a_standalone_worker_drains_with_a_constant_number_of_listings(tmp_path, monkeypatch):
    out = tmp_path / "q"
    store = CampaignStore(out)
    store.ensure_queue_layout()
    for order, trial in enumerate(toy_spec(120).expand()):
        store.enqueue_trial(order, trial.to_dict())
    store.mark_enqueue_complete(120)
    listings = count_calls(monkeypatch, os, "listdir", when=lambda path: str(path) == str(store.pending_dir))
    assert run_worker(out, worker_id="w0", wait_for_queue_s=0) == 120
    assert len(listings) <= 3  # the drain, the re-listing that came up empty, queue_drained()


def test_resume_reads_every_record_once_and_a_fresh_submit_unlinks_nothing(tmp_path, monkeypatch):
    spec = toy_spec(40)
    out = tmp_path / "q"
    discards = count_calls(monkeypatch, CampaignStore, "discard_trial")
    fresh = run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"))
    assert discards == []  # a fresh directory has no stale records to discard

    loads = count_calls(monkeypatch, CampaignStore, "load_trial")
    resumed = run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"), resume=True)
    assert resumed.n_skipped == 40 and resumed.n_executed == 0
    assert len(loads) == 40  # the probe; finalize starts from what the probe folded
    assert summary_bytes(resumed.summary) == summary_bytes(fresh.summary)

    # ... while a re-run without --resume still discards exactly what is there.
    rerun = run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"))
    assert len(discards) == 40 and rerun.n_executed == 40
    assert summary_bytes(rerun.summary) == summary_bytes(fresh.summary)


def test_a_submit_with_nothing_to_run_starts_no_telemetry(tmp_path, monkeypatch):
    spec = toy_spec(8)
    out = tmp_path / "q"
    run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"))
    store = CampaignStore(out)
    assert [p.name for p in store.list_heartbeats()] == ["w0.json"]
    started = count_calls(monkeypatch, threading.Thread, "start")
    run_campaign(spec, out, backend=FileQueueBackend(worker_id="w0"), resume=True)
    assert started == [] and store.list_heartbeats() == []
    assert store.enqueue_complete() and store.queue_drained()  # the queue was still reconciled


def _enqueue(store, trials, first_order=0):
    for order, trial in enumerate(trials, start=first_order):
        assert store.enqueue_trial(order, trial.to_dict())


def test_a_job_that_appears_after_the_listing_is_found_by_the_next_empty_handed_call(tmp_path, monkeypatch):
    trials = toy_spec(8).expand()
    worker = CampaignStore(tmp_path / "q")  # a worker's own store: its cached listing lives in it
    other = CampaignStore(tmp_path / "q")
    other.ensure_queue_layout()
    _enqueue(other, trials[:3])
    listings = count_calls(monkeypatch, os, "listdir", when=lambda path: str(path) == str(worker.pending_dir))

    def claim():
        record, _ran = claim_and_execute_next(worker, "w")
        return None if record is None else record["trial_id"]

    assert claim() == trials[0].trial_id and len(listings) == 1
    # Enqueued after the listing was taken — and sorting *before* what is cached.
    _enqueue(other, trials[3:4], first_order=0)
    # A cached entry goes stale: another worker claims it, dies, and is swept.
    stale = other.pending_job_path(1, trials[1].trial_id)
    assert other.claim_job(stale, "dead-worker") is not None
    assert claim() == trials[2].trial_id  # the stale entry lost its rename; no re-listing yet
    assert len(listings) == 1
    assert other.requeue_claim(trials[1].trial_id)  # what sweep_claims does with an expired claim

    # Empty-handed now: the same call re-lists and finds both, in dispatch order.
    assert claim() == trials[3].trial_id and len(listings) == 2
    assert claim() == trials[1].trial_id and len(listings) == 2
    # Nothing claimable is reported only after a listing taken during the call came up empty.
    assert claim() is None and len(listings) == 3
    assert other.queue_drained()
    assert len(other.recorded_trial_ids()) == 4


def parent_batches(jobs, batch_size):
    """The batches the one-listing-per-call loop claimed on a fixed queue.

    ``jobs`` is ``[(trial_id, cost_key)]`` in dispatch order: the first
    pending job anchors, later ones join while they share its key and the
    batch has room, the rest stay for the next call's fresh listing.
    """
    pending = list(jobs)
    batches = []
    while pending:
        anchor_key = pending[0][1]
        batch = [job for job in pending if job[1] == anchor_key][:batch_size]
        pending = [job for job in pending if job not in batch]
        batches.append([trial_id for trial_id, _key in batch])
    return batches


@pytest.mark.parametrize("interleaved", [False, True], ids=["cell-major", "interleaved"])
def test_claim_batch_four_claims_the_same_batches_as_one_listing_per_call(tmp_path, monkeypatch, interleaved):
    trials = toy_spec(40, cells=4).expand()  # 4 cells x 10 seeds, cell-major
    if interleaved:
        random.Random(5).shuffle(trials)
    store = CampaignStore(tmp_path / "q")
    store.ensure_queue_layout()
    _enqueue(store, trials)
    listings = count_calls(monkeypatch, os, "listdir", when=lambda path: str(path) == str(store.pending_dir))
    batches = []
    while True:
        batch = claim_and_execute_batch(store, "w", batch_size=4)
        if not batch:
            break
        assert all(ran for _record, ran in batch)
        batches.append([record["trial_id"] for record, _ran in batch])
    assert batches == parent_batches([(t.trial_id, t.cost_key) for t in trials], 4)
    assert len(listings) == 2  # the drain and the listing that came up empty
    assert store.queue_drained() and len(store.recorded_trial_ids()) == 40
