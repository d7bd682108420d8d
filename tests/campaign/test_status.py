"""``repro campaign-status``: the read-only snapshot and its rendering.

All state is synthesized on disk exactly as a live campaign would leave it —
spec.json, trial records, queue jobs, heartbeat beacons, partial logs —
and ``campaign_status`` must derive completion, per-worker telemetry,
staleness, per-cell progress and the ETA without mutating anything.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign import (
    CampaignSpec,
    CampaignStore,
    aggregate_records,
    campaign_status,
    render_status,
)
from repro.campaign.spec import cost_key
from repro.campaign.status import DEFAULT_STALE_AFTER_S
from repro.campaign.streaming import partial_entry


@pytest.fixture
def spec() -> CampaignSpec:
    return CampaignSpec(
        kind="security",
        name="status-test",
        base={"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0},
        grid={"attack_rate": [1.0, 0.5]},
        seeds=(0, 1),
    )


def make_record(trial, elapsed=2.0, worker="w0"):
    return {
        "trial_id": trial.trial_id,
        "kind": trial.kind,
        "params": dict(trial.params),
        "metrics": {"m": 1.0},
        "detail": {},
        "timing": {"elapsed_s": elapsed, "worker": worker},
    }


def heartbeat(worker, now, state="running", age=1.0, **extra):
    beat = {
        "worker": worker,
        "host": "h",
        "pid": 1,
        "state": state,
        "started_at": now - 100.0,
        "updated_at": now - age,
        "current_trial": None,
        "current_trial_started_at": None,
        "last_claim_at": now - age,
        "trials_done": 0,
        "trials_skipped": 0,
        "trials_per_min": 0.0,
    }
    beat.update(extra)
    return beat


def test_status_requires_a_campaign_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        campaign_status(tmp_path / "nowhere")


def test_status_counts_trials_cells_and_queue(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    trials = spec.expand()
    # Record both seeds of the attack_rate=1.0 cell; leave the 0.5 cell.
    done = [t for t in trials if t.params["attack_rate"] == 1.0]
    for trial in done:
        store.write_trial(make_record(trial))
    for order, trial in enumerate(t for t in trials if t not in done):
        store.enqueue_trial(order, trial.to_dict())

    status = campaign_status(store.out_dir, now=time.time())
    assert status["campaign"] == {
        "name": "status-test", "kind": "security", "n_trials_expected": 4,
    }
    assert status["trials"] == {"expected": 4, "recorded": 2, "remaining": 2}
    assert status["queue"]["pending"] == 2 and status["queue"]["claims"] == 0
    by_cell = {c["cell"]: c for c in status["cells"]}
    assert len(by_cell) == 2
    full = cost_key(spec.kind, done[0].params)
    assert by_cell[full]["done"] == 2 and by_cell[full]["expected"] == 2
    [(empty_key, empty)] = [(k, c) for k, c in by_cell.items() if k != full]
    assert empty["done"] == 0 and empty["expected"] == 2


def test_worker_rows_flag_staleness_but_not_stopped(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    now = time.time()
    store.write_heartbeat("fresh", heartbeat("fresh", now, age=1.0, trials_per_min=4.2))
    store.write_heartbeat("dead", heartbeat("dead", now, age=DEFAULT_STALE_AFTER_S * 3))
    store.write_heartbeat("done", heartbeat("done", now, state="stopped", age=500.0))

    status = campaign_status(store.out_dir, now=now)
    rows = {w["worker"]: w for w in status["workers"]}
    assert set(rows) == {"fresh", "dead", "done"}
    assert rows["fresh"]["stale"] is False
    assert rows["fresh"]["trials_per_min"] == pytest.approx(4.2)
    assert rows["dead"]["stale"] is True
    # A clean shutdown is final, not stale — no false alarm for finished workers.
    assert rows["done"]["stale"] is False and rows["done"]["state"] == "stopped"

    text = render_status(status)
    assert "workers (3):" in text
    assert "STALE" in text and "fresh:" in text


def test_eta_uses_partial_timing_and_divides_by_active_workers(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    trials = spec.expand()
    full_cell = [t for t in trials if t.params["attack_rate"] == 1.0]
    other_cell = [t for t in trials if t.params["attack_rate"] == 0.5]

    # One worker logged the attack_rate=1.0 cell at 2 s/trial; those trials
    # are also recorded on disk.
    for trial in full_cell:
        record = make_record(trial, elapsed=2.0)
        store.write_trial(record)
        store.write_partial("w0", partial_entry(record))
    now = time.time()
    store.write_heartbeat("w0", heartbeat("w0", now, age=1.0))
    store.write_heartbeat("w1", heartbeat("w1", now, state="idle", age=1.0))

    # Remaining: the 0.5 cell (2 trials) — but no elapsed history for it yet.
    status = campaign_status(store.out_dir, now=now)
    assert status["eta_s"] is None or status["eta_partial"] is True

    # Give the 0.5 cell history too (say a previous run's summary would — here
    # a second worker's log): 2 trials x 3 s / 2 active workers = 3 s.
    store.write_trial(make_record(other_cell[0], elapsed=3.0, worker="w1"))
    store.write_partial("w1", partial_entry(make_record(other_cell[0], elapsed=3.0, worker="w1")))
    status = campaign_status(store.out_dir, now=now)
    assert status["trials"]["remaining"] == 1
    assert status["eta_partial"] is False
    assert status["eta_s"] == pytest.approx(1 * 3.0 / 2)

    text = render_status(status)
    assert "eta: ~" in text and "1/2 complete" in text


def test_eta_done_when_everything_recorded(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    for trial in spec.expand():
        store.write_trial(make_record(trial))
    status = campaign_status(store.out_dir, now=time.time())
    assert status["trials"]["remaining"] == 0
    assert status["eta_s"] == 0.0
    assert "eta: done" in render_status(status)
    assert "workers: none seen" in render_status(status)


def test_ignored_axes_roll_up_from_partial_logs(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    trial = spec.expand()[0]
    record = make_record(trial)
    record["detail"] = {
        "scenario": {"base_kind": "security", "ignored_axes": ["workload"]},
        "base_result": {"series": list(range(50))},
    }
    store.write_partial("w0", partial_entry(record))
    status = campaign_status(store.out_dir, now=time.time())
    assert status["ignored_axes"] == {
        "security": {"axes": ["workload"], "n_trials": 1}
    }
    assert "ignored axes: workload" in render_status(status)


def test_live_logs_report_what_finalize_will(spec, tmp_path):
    """The status view and the summary fold the same entries the same way:
    per-cell means and ``ignored_axes`` read off live logs equal the finished
    campaign's — duplicates across logs, torn tails, entries of another spec
    and a pre-log state file notwithstanding."""
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    trials = spec.expand()
    records = []
    for i, trial in enumerate(trials):
        record = make_record(trial, elapsed=1.0 + i, worker=f"w{i % 2}")
        record["detail"] = {"scenario": {"base_kind": "security", "ignored_axes": ["workload"]}}
        records.append(record)
        store.write_trial(record)
        store.write_partial(f"w{i % 2}", partial_entry(record))
    # a stolen claim: w1 executed w0's first trial too, slower
    store.write_partial("w1", partial_entry({**records[0], "timing": {"elapsed_s": 99.0, "worker": "w1"}}))
    # a trial of some earlier spec, a pre-log state file, a torn tail
    store.write_partial("w1", partial_entry({**records[1], "trial_id": "s9-elsewhere"}))
    (store.partials_dir / "w0.json").write_text('{"version": 1, "groups": {}}')
    with open(store.partial_path("w1"), "a") as handle:
        handle.write('{"trial_id": "' + trials[2].trial_id + '", "metr')

    status = campaign_status(store.out_dir, now=time.time())
    summary = aggregate_records(records)
    assert status["queue"]["partials"] == 2
    assert status["ignored_axes"] == summary["ignored_axes"]
    assert {c["cell"]: c["mean_elapsed_s"] for c in status["cells"]} == {
        key: cell["mean_elapsed_s"] for key, cell in summary["timing"]["cells"].items()
    }


def test_status_json_round_trips(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    status = campaign_status(store.out_dir, now=time.time())
    assert json.loads(json.dumps(status, sort_keys=True)) == status


def test_status_is_read_only(spec, tmp_path):
    store = CampaignStore(tmp_path / "c")
    store.ensure_queue_layout()
    store.write_spec(spec)
    for order, trial in enumerate(spec.expand()):
        store.enqueue_trial(order, trial.to_dict())
    before = sorted(
        (str(p.relative_to(store.out_dir)), p.stat().st_mtime_ns)
        for p in store.out_dir.rglob("*") if p.is_file()
    )
    campaign_status(store.out_dir, now=time.time())
    after = sorted(
        (str(p.relative_to(store.out_dir)), p.stat().st_mtime_ns)
        for p in store.out_dir.rglob("*") if p.is_file()
    )
    assert after == before
