"""Campaign execution: pluggable backends, timing-aware scheduling, resume.

``run_campaign`` owns the campaign lifecycle — expand the spec, skip trials
already recorded (``resume=True``), schedule the rest, hand them to an
execution backend, and aggregate everything into ``summary.json``.  *How*
trials run is delegated to :mod:`repro.campaign.backends`:

* ``backend="serial"`` — in this process, one at a time (the ``jobs=1``
  default; flat tracebacks, working ``pdb``);
* ``backend="pool"`` — a local ``ProcessPoolExecutor`` of ``jobs`` workers
  (the default whenever ``jobs > 1``);
* ``backend="queue"`` — a shared on-disk job queue under
  ``<out_dir>/queue/`` that any number of ``repro campaign-worker``
  processes, on any machine sharing the filesystem, cooperatively drain.

Every trial is seeded from its own parameters, so results do not depend on
which backend, worker, or completion order produced them — all three
backends yield byte-identical trial records and aggregates once the
per-trial ``timing`` block (wall-clock seconds, the one intentionally
non-deterministic field) is stripped; see
:func:`repro.campaign.streaming.strip_timing`.

For the parallel backends, pending trials are dispatched
longest-expected-first (:func:`repro.campaign.scheduling.schedule_trials`),
fed by the per-grid-cell elapsed history a previous run of the directory left
in ``summary.json``'s ``timing.cells`` block — scheduling changes only the
makespan, never the outputs.

Records are persisted (and accounted on the report) as each one lands, so a
trial that raises mid-campaign never discards finished work: the failure
surfaces as :class:`CampaignExecutionError` carrying the partial report, with
a best-effort summary of everything that did complete already on disk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from .backends import Backend, execute_trial, make_backend
from .persistence import CampaignStore
from .scheduling import load_timing_history, schedule_trials
from .spec import CampaignSpec
from .streaming import CampaignAccumulator, merge_partial_summaries

__all__ = [
    "CampaignExecutionError",
    "CampaignReport",
    "ProgressCallback",
    "execute_trial",
    "run_campaign",
]

#: ``progress(event, trial_id, done, total)`` with event in {"run", "skip"}.
ProgressCallback = Callable[[str, str, int, int], None]


@dataclass
class CampaignReport:
    """What one ``run_campaign`` invocation did.

    ``executed_trial_ids`` counts every record this invocation accounted for
    — including, under the queue backend, trials physically executed by a
    cooperating ``campaign-worker`` process.  Ids end up in spec order.
    """

    spec: CampaignSpec
    out_dir: Path
    executed_trial_ids: List[str] = field(default_factory=list)
    skipped_trial_ids: List[str] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def n_executed(self) -> int:
        return len(self.executed_trial_ids)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped_trial_ids)


class CampaignExecutionError(RuntimeError):
    """A trial failed mid-campaign.

    Carries the partial :class:`CampaignReport`: everything executed before
    the failure is persisted under ``trials/``, accounted in
    ``report.executed_trial_ids``, and already folded into a best-effort
    ``summary.json`` — re-running with ``resume=True`` picks up from there.
    The original worker exception is chained as ``__cause__``.
    """

    def __init__(self, message: str, report: CampaignReport) -> None:
        super().__init__(message)
        self.report = report


def run_campaign(
    spec: CampaignSpec,
    out_dir: Union[str, Path],
    jobs: int = 1,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
    backend: Union[str, Backend, None] = None,
) -> CampaignReport:
    """Expand ``spec``, run every trial, and write records + summary.

    With ``resume=True``, trials whose records already exist under
    ``out_dir/trials/`` are skipped (memoization across runs); the summary is
    recomputed from *all* records either way.  ``backend`` picks the
    execution strategy by name (``"serial"``, ``"pool"``, ``"queue"``) or as
    a :class:`~repro.campaign.backends.Backend` instance; by default ``jobs``
    keeps its historical meaning — serial when 1, a process pool of that many
    workers otherwise.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    executor = make_backend(backend, jobs=jobs)
    trials = spec.expand()
    store = CampaignStore(out_dir)
    store.ensure_layout()
    store.write_spec(spec)
    # Let the backend stake out its state before the resume probe below
    # (which scales with the campaign): the queue backend re-opens its
    # on-disk queue here so concurrently started workers keep polling.
    executor.prepare(store)

    # The summary is built incrementally: records stream into this
    # accumulator as they land (resume-skipped ones right here, executed ones
    # in the loop below) instead of being wholesale re-read at the end.  The
    # queue backend's executed records arrive by another road — its workers
    # log them, and finalization folds the logs in (see the finally).
    accumulator = CampaignAccumulator()

    # Probe only this spec's trial ids — not every file in trials/ — so resume
    # cost scales with the campaign, not with whatever else shares the directory.
    done = set()
    if resume:
        for trial in trials:
            record = store.load_trial(trial.trial_id)
            if record is not None:
                done.add(trial.trial_id)
                accumulator.add_record(record)
    pending = [t for t in trials if t.trial_id not in done]
    skipped = [t.trial_id for t in trials if t.trial_id in done]
    total = len(trials)
    finished = 0

    for trial_id in skipped:
        finished += 1
        if progress:
            progress("skip", trial_id, finished, total)

    report = CampaignReport(spec=spec, out_dir=store.out_dir, skipped_trial_ids=skipped)
    spec_order = {t.trial_id: i for i, t in enumerate(trials)}

    # The backend always runs, even with nothing pending: the queue backend
    # reconciles its on-disk queue (purging jobs a since-edited spec left
    # behind, re-sealing the enqueue-complete marker) as part of submit.
    ordered = pending
    if pending and executor.reorders:
        # Per-cell elapsed history from a previous run of this directory
        # (its summary.json is not rewritten before the finally below).
        ordered = schedule_trials(pending, load_timing_history(store.load_summary()))
    try:
        # Backends persist each record before yielding it, and ids are
        # appended per result — so a later trial raising can never
        # discard the accounting of records already on disk.
        for record in executor.submit(ordered, store):
            finished += 1
            trial_id = str(record["trial_id"])
            report.executed_trial_ids.append(trial_id)
            if not executor.commits_partials:
                accumulator.add_record(record)
            if progress:
                progress("run", trial_id, finished, total)
    except Exception as exc:
        raise CampaignExecutionError(
            f"campaign {spec.name!r} failed after {report.n_executed} of "
            f"{len(pending)} pending trial(s): {exc}",
            report,
        ) from exc
    finally:
        # Success, failure, even KeyboardInterrupt: executed ids end up in
        # spec order (not completion order) and whatever records exist are
        # folded into an on-disk summary — the partial report carried by
        # CampaignExecutionError is finalized here too, since the finally
        # block runs before the exception reaches the caller.
        report.executed_trial_ids.sort(key=spec_order.__getitem__)
        # Everything yielded (and resume-skipped) is already folded in —
        # except on the queue backend, whose workers' partial logs are folded
        # here.  Either way, records that exist on disk but reached neither
        # the iterator nor a log — pool results persisted right before a
        # crash, a queue worker killed mid-append — are topped up with
        # targeted loads only.
        final = merge_partial_summaries(store, trials, accumulator)
        report.summary = final.finalize(spec=spec)
        store.write_summary(report.summary)
    return report
