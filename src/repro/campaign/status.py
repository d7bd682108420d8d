"""Read-only live view over a (possibly running) campaign directory.

``repro campaign-status <out_dir>`` is built on :func:`campaign_status`: a
pure snapshot function that only *reads* the directory — spec, queue state,
recorded trial ids, worker heartbeats, the workers' partial logs — and
derives:

* per-worker telemetry (state, current trial, trials/min, staleness),
* per-grid-cell completion counts (done / expected),
* an ETA from the per-cell elapsed history of the logged trials (falling
  back to a previous run's ``summary.json``),
* the rolled-up ``ignored_axes`` the campaign has hit so far.

Nothing here mutates the campaign: no claims are swept, no files written, so
running it against a live producer+worker fleet is always safe.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from .persistence import CampaignStore
from .scheduling import load_timing_history
from .spec import cost_key
from .streaming import CampaignAccumulator, fold_partial_logs

#: a heartbeat older than this (default) is flagged stale in the status view.
DEFAULT_STALE_AFTER_S = 15.0


def _worker_row(
    beat: Mapping[str, object], now: float, stale_after_s: float
) -> Dict[str, object]:
    updated_at = beat.get("updated_at")
    age_s = (now - float(updated_at)) if isinstance(updated_at, (int, float)) else None
    state = str(beat.get("state", "unknown"))
    stale = state != "stopped" and (age_s is None or age_s > stale_after_s)
    return {
        "worker": str(beat.get("worker", "?")),
        "state": state,
        "stale": stale,
        "age_s": age_s,
        "current_trial": beat.get("current_trial"),
        "trials_done": int(beat.get("trials_done") or 0),
        "trials_skipped": int(beat.get("trials_skipped") or 0),
        "trials_per_min": float(beat.get("trials_per_min") or 0.0),
        "last_claim_at": beat.get("last_claim_at"),
    }


def campaign_status(
    out_dir: Union[str, Path],
    stale_after_s: float = DEFAULT_STALE_AFTER_S,
    now: Optional[float] = None,
) -> Dict[str, object]:
    """One read-only snapshot of a campaign directory's live state."""
    store = CampaignStore(out_dir)
    now = time.time() if now is None else now
    try:
        spec = store.load_spec()
    except (OSError, ValueError) as exc:
        raise FileNotFoundError(
            f"{store.out_dir} does not look like a campaign directory "
            f"(cannot load spec.json: {exc})"
        )
    trials = spec.expand()
    recorded = store.recorded_trial_ids()

    # Per-cell completion: expected from the spec grid, done from the trial
    # records present on disk right now.
    cells: Dict[str, Dict[str, int]] = {}
    done_ids: List[str] = []
    for trial in trials:
        key = cost_key(spec.kind, trial.params)
        cell = cells.setdefault(key, {"expected": 0, "done": 0})
        cell["expected"] += 1
        if trial.trial_id in recorded:
            cell["done"] += 1
            done_ids.append(trial.trial_id)

    # Workers, from their heartbeat beacons.
    workers = []
    for path in store.list_heartbeats():
        beat = store.load_heartbeat(path)
        if beat is not None:
            workers.append(_worker_row(beat, now, stale_after_s))
    active = [w for w in workers if w["state"] in ("running", "idle") and not w["stale"]]

    # Timing history + ignored-axes rollup from the workers' partial logs
    # (the same fold finalize runs, minus the top-up from records); a
    # previous run's summary.json fills timing gaps for cells no log has
    # seen yet (e.g. at campaign start).
    logged = CampaignAccumulator()
    fold_partial_logs(store, {trial.trial_id for trial in trials}, logged)
    timing = logged.timing
    cell_means: Dict[str, float] = {
        key: total / count for key, (count, total, _peak) in timing.cells.items() if count
    }
    for key, mean_s in load_timing_history(store.load_summary()).items():
        cell_means.setdefault(key, mean_s)

    # ETA: per-cell remaining x per-cell mean elapsed, divided across the
    # workers currently alive (the producer is one of them).  Cells with no
    # elapsed history yet contribute unknown time — flagged, not guessed.
    eta_known = True
    remaining_s = 0.0
    n_remaining = 0
    for key, cell in cells.items():
        left = cell["expected"] - cell["done"]
        if left <= 0:
            continue
        n_remaining += left
        if key in cell_means:
            remaining_s += left * cell_means[key]
        else:
            eta_known = False
    eta_s: Optional[float]
    if n_remaining == 0:
        eta_s = 0.0
    elif eta_known or remaining_s > 0:
        eta_s = remaining_s / max(len(active), 1)
    else:
        eta_s = None

    return {
        "out_dir": str(store.out_dir),
        "generated_at": now,
        "campaign": {
            "name": spec.name,
            "kind": spec.kind,
            "n_trials_expected": len(trials),
        },
        "trials": {
            "expected": len(trials),
            "recorded": len(done_ids),
            "remaining": len(trials) - len(done_ids),
        },
        "queue": {
            "pending": len(store.list_pending()),
            "claims": len(store.list_claims()),
            "enqueue_complete": store.enqueue_complete(),
            "partials": len(store.list_partials()),
        },
        "workers": workers,
        "cells": [
            {"cell": key, "done": cell["done"], "expected": cell["expected"],
             "mean_elapsed_s": cell_means.get(key)}
            for key, cell in sorted(cells.items())
        ],
        "eta_s": eta_s,
        "eta_partial": not eta_known and n_remaining > 0,
        "ignored_axes": logged.ignored_axes.summary(),
    }


def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "unknown"
    seconds = max(0.0, float(seconds))
    if seconds < 90:
        return f"{seconds:.0f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    if minutes < 90:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


def _shorten(text: str, width: int = 48) -> str:
    return text if len(text) <= width else text[: width - 1] + "…"


def render_status(status: Mapping[str, object]) -> str:
    """The human-readable ``repro campaign-status`` report."""
    campaign = status["campaign"]
    trials = status["trials"]
    queue = status["queue"]
    lines: List[str] = []
    lines.append(
        f"campaign {campaign['name']!r} ({campaign['kind']}) in {status['out_dir']}"
    )
    lines.append(
        f"trials: {trials['recorded']}/{trials['expected']} recorded, "
        f"{trials['remaining']} remaining  "
        f"(queue: {queue['pending']} pending, {queue['claims']} claimed, "
        f"enqueue {'complete' if queue['enqueue_complete'] else 'in progress'})"
    )
    eta = status.get("eta_s")
    if trials["remaining"] == 0:
        lines.append("eta: done")
    elif eta is None:
        lines.append("eta: unknown (no elapsed history yet)")
    else:
        suffix = " (partial history)" if status.get("eta_partial") else ""
        lines.append(f"eta: ~{_fmt_duration(eta)}{suffix}")

    workers = status.get("workers") or []
    if workers:
        lines.append(f"workers ({len(workers)}):")
        for w in workers:
            marks = []
            if w["stale"]:
                marks.append("STALE")
            state = w["state"] + ("," + ",".join(marks) if marks else "")
            current = f" on {_shorten(str(w['current_trial']), 20)}" if w["current_trial"] else ""
            age = f", beat {_fmt_duration(w['age_s'])} ago" if w["age_s"] is not None else ""
            lines.append(
                f"  {w['worker']}: {state}{current} — "
                f"{w['trials_done']} done, {w['trials_per_min']:.1f} trials/min{age}"
            )
    else:
        lines.append("workers: none seen (no heartbeats)")

    cells = status.get("cells") or []
    incomplete = [c for c in cells if c["done"] < c["expected"]]
    lines.append(
        f"cells: {len(cells) - len(incomplete)}/{len(cells)} complete"
    )
    for cell in incomplete[:12]:
        mean = (
            f", mean {_fmt_duration(cell['mean_elapsed_s'])}/trial"
            if cell.get("mean_elapsed_s") is not None
            else ""
        )
        lines.append(
            f"  [{cell['done']}/{cell['expected']}{mean}] {_shorten(cell['cell'])}"
        )
    if len(incomplete) > 12:
        lines.append(f"  … and {len(incomplete) - 12} more incomplete cell(s)")

    for base_kind, info in sorted((status.get("ignored_axes") or {}).items()):
        lines.append(
            f"warning: {info['n_trials']} trial(s) on base kind {base_kind!r} "
            f"ignored axes: {', '.join(info['axes'])}"
        )
    return "\n".join(lines)
