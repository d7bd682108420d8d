"""The backend contract: how a campaign's pending trials get executed.

A backend receives the pending trials *in dispatch order* (the runner has
already applied timing-aware scheduling, see
:mod:`repro.campaign.scheduling`) plus the campaign's
:class:`~repro.campaign.persistence.CampaignStore`.  It must

* execute every trial exactly once (double execution is tolerated — trials
  are deterministic — but wasteful),
* persist each record via ``store.write_trial`` the moment it is available,
  *before* yielding it, so a crash mid-campaign never loses finished work,
* yield records in completion order.

The runner consumes the iterator, appending each yielded record's trial id to
the report and firing progress callbacks as results land — so even when a
later trial raises, everything persisted up to that point is accounted for.

``execute_trial`` lives here (not in ``runner.py``) because every backend —
including pool worker processes, which pickle it by reference to this
module — needs it without importing the runner.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from typing import Dict, Iterator, Sequence

from ...sim import profiling
from ..persistence import CampaignStore
from ..registry import get_experiment
from ..spec import TrialSpec


def execute_trial(trial: Dict[str, object], worker: str = "") -> Dict[str, object]:
    """Run one trial (dict form of :class:`TrialSpec`) and return its record.

    ``worker`` optionally labels the executing worker in the record's
    ``timing`` block (queue workers pass their claim-owner id), feeding the
    per-worker attribution in ``summary.json`` — like elapsed time itself it
    lives under ``timing`` only, outside the determinism-compared view.

    When profiling is requested (``REPRO_PROFILE``, inherited by pool and
    queue worker processes; see :mod:`repro.sim.profiling`) the run executes
    under a scoped profiler and its counter/timer snapshot is stored under
    ``timing["profile"]`` — inside the stripped block, so the determinism
    contract and golden digests are unaffected whether it is on or off.
    """
    adapter = get_experiment(str(trial["kind"]))
    started = time.perf_counter()
    with profiling.capture() as profiler:
        result = adapter.run(trial["params"])
    elapsed = time.perf_counter() - started
    # to_dict() embeds scalar_metrics() for standalone use; the record keeps
    # the metrics once, at top level, so the two copies can never drift.
    detail = result.to_dict()
    metrics = detail.pop("metrics", None) or result.scalar_metrics()
    # Wall-clock (and the executor label) live under "timing", never inside
    # "metrics": the determinism guarantee (serial == parallel) covers a
    # record with "timing" stripped — see streaming.strip_timing.
    timing: Dict[str, object] = {"elapsed_s": elapsed}
    if worker:
        timing["worker"] = worker
    if profiler is not None:
        timing["profile"] = profiler.snapshot()
    return {
        "trial_id": trial["trial_id"],
        "kind": trial["kind"],
        "params": dict(trial["params"]),
        "metrics": metrics,
        "detail": detail,
        "timing": timing,
    }


class Backend(ABC):
    """One strategy for executing a campaign's pending trials."""

    #: registry key (and the CLI's ``--backend`` value).
    name: str = ""

    #: whether dispatch order affects this backend's makespan — the runner
    #: only applies timing-aware scheduling when it does.
    reorders: bool = True

    #: whether this backend's workers log each record they execute to a
    #: per-worker partial log (``queue/partials/``).  When True the runner
    #: leaves the records this backend yields out of its own accumulator and
    #: folds the logs at finalize
    #: (:func:`repro.campaign.streaming.merge_partial_summaries`).
    commits_partials: bool = False

    def prepare(self, store: CampaignStore) -> None:
        """Early hook, called before the runner probes resume state.

        The file-queue backend uses it to re-open its on-disk queue the
        moment the campaign starts, so externally started workers don't
        mistake a previous run's finished queue for this run's — the resume
        probe between campaign start and ``submit`` can take a while.
        """

    @abstractmethod
    def submit(
        self, trials: Sequence[TrialSpec], store: CampaignStore
    ) -> Iterator[Dict[str, object]]:
        """Execute ``trials``, persisting and yielding records as they land."""
