"""Timing-aware trial scheduling: longest-expected-first dispatch.

When a campaign mixes grid cells of very different cost (say a 60-node and a
2000-node security run), submission order decides the parallel makespan: if a
long trial is dispatched last, every other worker drains the queue and then
idles behind it.  The classic remedy is LPT — longest processing time first —
and campaigns already record exactly the data it needs: every ``summary.json``
carries a ``timing.cells`` block with the mean elapsed seconds of each grid
cell (see :class:`repro.campaign.streaming.TimingAccumulator`), keyed by the
stable :func:`repro.campaign.spec.cost_key`.

:func:`schedule_trials` folds that history into a dispatch order:

* trials of cells with no history keep their spec order and go *first* —
  an unknown cell might be the expensive one, so it must not be dispatched
  last;
* trials of known cells follow, longest expected cost first;
* ties (and trials within one cell) preserve spec order, so the schedule is
  deterministic.

Scheduling is pure ordering.  It never adds, drops or renames trials — the
records written and the aggregated summary are byte-identical whatever the
order, which is what keeps it outside the determinism contract entirely.
Serial runs skip it: with one worker the makespan is order-independent and
spec order keeps debugging sessions predictable.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

from .spec import TrialSpec


def load_timing_history(summary: Optional[Mapping[str, object]]) -> Dict[str, float]:
    """Extract ``{cost_key: expected seconds}`` from a summary dict.

    Reads the ``timing.cells`` block a prior :func:`run_campaign` wrote;
    summaries from before that block existed (or ``None`` for a fresh
    directory) yield an empty history, which makes scheduling a no-op.
    """
    if not isinstance(summary, Mapping):
        return {}
    timing = summary.get("timing")
    if not isinstance(timing, Mapping):
        return {}
    cells = timing.get("cells")
    if not isinstance(cells, Mapping):
        return {}
    history: Dict[str, float] = {}
    for key, stats in cells.items():
        if isinstance(stats, Mapping) and isinstance(
            stats.get("mean_elapsed_s"), (int, float)
        ):
            history[str(key)] = float(stats["mean_elapsed_s"])
    return history


def schedule_trials(
    trials: Sequence[TrialSpec],
    history: Optional[Mapping[str, float]] = None,
) -> List[TrialSpec]:
    """Order ``trials`` for dispatch, longest expected cost first.

    ``history`` maps :func:`repro.campaign.spec.cost_key` strings to expected
    seconds (see :func:`load_timing_history`).  With no history — the cold
    start — the result is exactly ``list(trials)``.  Unknown cells sort as
    infinitely expensive (dispatch early, see module docstring); the sort is
    stable on spec position, so equal-cost trials never swap.
    """
    trials = list(trials)
    if not history:
        return trials
    expected = {
        t.trial_id: float(history.get(t.cost_key, math.inf)) for t in trials
    }
    position = {t.trial_id: i for i, t in enumerate(trials)}
    return sorted(
        trials,
        key=lambda t: (-expected[t.trial_id], position[t.trial_id]),
    )
