"""File-queue execution: cooperating worker processes over a shared directory.

The producer (``run_campaign(..., backend="queue")``) persists every pending
trial as a claimable job file under ``<out_dir>/queue/pending/`` in dispatch
order, then *itself* enters the worker loop — so a queue campaign always
completes even when no external worker ever shows up.  Any number of extra
workers (``python -m repro campaign-worker <out_dir>``, on this machine, over
SSH, or anywhere that mounts the same filesystem) join by running the same
loop:

    claim (atomic rename into ``claims/``) → execute → write record → drop
    claim → next

No sockets, no coordinator: the directory *is* the queue, and atomic rename
is the only synchronisation primitive (see
:mod:`repro.campaign.persistence`).  Fault tolerance falls out of the claim
files: a worker that dies mid-trial leaves a claim that ages past the TTL and
is swept back into ``pending/`` for someone else; a worker that dies between
writing the record and dropping its claim leaves a claim whose record already
exists, which the sweep simply clears.  Because trials are deterministic, the
pathological case — a claim stolen from a worker that was merely slow — ends
with two byte-identical records, not a conflict.

The producer yields each of its trials' records exactly once, in completion
order, whether it executed the trial locally or harvested a record written by
a remote worker.
"""

from __future__ import annotations

import os
import random
import socket
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

from ..persistence import CampaignStore
from ..scheduling import load_timing_history
from ..spec import TrialSpec, cost_key
from ..telemetry import DEFAULT_HEARTBEAT_INTERVAL_S, WorkerTelemetry
from .base import Backend, execute_trial

#: how long a claim may sit unreaped before it is presumed orphaned.
DEFAULT_CLAIM_TTL_S = 300.0
#: how long an idle worker sleeps between queue polls (backoff floor).
DEFAULT_POLL_INTERVAL_S = 0.2
#: idle-poll backoff ceiling: a long-idle worker never sleeps longer than this.
DEFAULT_MAX_POLL_INTERVAL_S = 5.0
#: grid cells whose recorded mean elapsed time reaches this claim singly even
#: under ``--claim-batch``: holding several expensive trials behind one claim
#: starves other workers and widens the crash-reexecution window.
DEFAULT_BATCH_EXPENSIVE_S = 5.0


def default_worker_id() -> str:
    """A claim owner label unique across hosts sharing the queue directory."""
    return f"{socket.gethostname()}-pid{os.getpid()}"


class PollBackoff:
    """Exponential idle-poll backoff with jitter for queue workers.

    A fixed poll interval makes many idle workers hammer the shared
    filesystem in lockstep; this decays the poll rate while the queue stays
    empty and snaps back the moment work appears.  Each consecutive idle
    poll doubles the delay (``base_s`` up to ``max_s``); :meth:`reset` — on a
    claimed job — drops back to the floor.  Jitter spreads a ±``jitter``
    fraction around each delay so co-started workers desynchronize; it
    perturbs *when* a worker looks, never *what* it computes, so trial
    records stay byte-identical.
    """

    def __init__(
        self,
        base_s: float,
        max_s: float = DEFAULT_MAX_POLL_INTERVAL_S,
        factor: float = 2.0,
        jitter: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        if base_s <= 0:
            raise ValueError("base_s must be positive")
        if factor < 1.0:
            raise ValueError("factor must be >= 1")
        if not 0.0 <= jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        self.base_s = float(base_s)
        self.max_s = max(float(max_s), self.base_s)
        self.factor = float(factor)
        self.jitter = float(jitter)
        # Jitter only perturbs poll timing, never records, but it must still
        # be explicitly seeded: the pid keeps co-started workers apart while
        # staying derivable (a caller wanting exact replay passes its own rng).
        self._rng = rng if rng is not None else random.Random(os.getpid())
        self._idle_polls = 0

    @property
    def idle_polls(self) -> int:
        """Escalation steps taken since the last reset (capped at the ceiling)."""
        return self._idle_polls

    def current_delay(self) -> float:
        """The undithered delay the next :meth:`next_delay` is based on."""
        return min(self.base_s * self.factor ** self._idle_polls, self.max_s)

    def next_delay(self) -> float:
        """Record one idle poll and return how long to sleep before the next."""
        delay = self.current_delay()
        # Stop escalating once the ceiling is reached: factor**idle_polls
        # would otherwise overflow after enough idle polls (a worker parked
        # on an empty queue for an hour would crash instead of waiting).
        if delay < self.max_s and self.factor > 1.0:
            self._idle_polls += 1
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        return delay

    def reset(self) -> None:
        """Work was found: poll at full rate again."""
        self._idle_polls = 0


def claim_and_execute_next(
    store: CampaignStore,
    worker_id: str,
    telemetry: Optional[WorkerTelemetry] = None,
) -> Tuple[Optional[Dict[str, object]], bool]:
    """Claim the first claimable pending job and return ``(record, ran)``.

    ``record`` is ``None`` when every pending job was claimed by someone else
    first (or the queue is empty); see :func:`claim_and_execute_batch`, of
    which this is the ``batch_size=1`` case.
    """
    batch = claim_and_execute_batch(store, worker_id, telemetry=telemetry)
    return batch[0] if batch else (None, False)


def expensive_cost_keys(
    store: CampaignStore, threshold_s: float = DEFAULT_BATCH_EXPENSIVE_S
) -> frozenset:
    """Grid cells whose recorded mean wall-clock reaches ``threshold_s``.

    Sourced from the campaign summary's timing block (a previous run, or a
    ``--resume``); a campaign with no summary yet has no history, so every
    cell batches until evidence says otherwise.
    """
    summary = store.load_summary()
    if summary is None:
        return frozenset()
    history = load_timing_history(summary)
    return frozenset(key for key, mean_s in history.items() if mean_s >= threshold_s)


def claim_and_execute_batch(
    store: CampaignStore,
    worker_id: str,
    batch_size: int = 1,
    expensive_keys: frozenset = frozenset(),
    telemetry: Optional[WorkerTelemetry] = None,
) -> list:
    """Claim up to ``batch_size`` same-cost-key pending jobs, execute in order.

    The first claimable job anchors the batch; further pending jobs join only
    while they share its :func:`~repro.campaign.spec.cost_key` (same kind and
    grid cell — seeds differ), so a batch is a run of cheap look-alike trials
    and never mixes cells with different costs.  Anchors whose cost key is in
    ``expensive_keys`` claim singly.  Returns ``[(record, ran), ...]`` in
    execution order (empty when nothing was claimable).  Jobs whose record
    already exists — enqueued twice across crashed runs, or re-executed after
    a claim steal — are not re-run: their claim is cleared and the existing
    record returned with ``ran=False``, so callers can account executions
    honestly.  A failing trial requeues every not-yet-executed claim of the
    batch — already-written records are kept — then re-raises, so nothing is
    lost to a mid-batch crash beyond the claim-TTL wait a single claim
    already risks.

    Claims walk the store's cached pending listing
    (:meth:`~repro.campaign.persistence.CampaignStore.claim_next`), so a
    drain costs one directory listing, not one per call.  ``telemetry``
    (optional) is notified around the claim and each execution so the
    worker's heartbeat names the in-flight trial and its partial log gains a
    line for each record it physically executed.
    """
    anchor = store.claim_next(worker_id)
    if anchor is None:
        return []
    claimed = [anchor]
    if batch_size > 1:
        anchor_key = cost_key(str(anchor["kind"]), anchor["params"])
        if anchor_key not in expensive_keys:  # expensive cells claim singly
            claimed += store.claim_siblings(worker_id, anchor_key, batch_size - 1)
    if telemetry is not None:
        telemetry.note_claim()

    results: list = []
    for index, job in enumerate(claimed):
        trial_id = str(job["trial_id"])
        record = store.load_trial(trial_id)
        ran = False
        if record is None:
            if telemetry is not None:
                telemetry.trial_started(trial_id)
            try:
                record = execute_trial(
                    {"trial_id": trial_id, "kind": job["kind"], "params": job["params"]},
                    worker=worker_id,
                )
                store.write_trial(record)
            except BaseException:
                # Covers the record write too (ENOSPC, mount errors): put the
                # jobs straight back so recovery (--resume, or another worker)
                # doesn't have to wait out the claim TTL first.
                for unexecuted in claimed[index:]:
                    store.requeue_claim(str(unexecuted["trial_id"]))
                raise
            ran = True
        store.complete_job(trial_id)
        if telemetry is not None:
            telemetry.trial_finished(record, ran)
        results.append((record, ran))
    return results


class FileQueueBackend(Backend):
    """Run trials through the shared on-disk job queue, participating in it."""

    name = "queue"
    # The producer and every worker log each record they execute to a
    # per-worker partial log; the runner folds summary.json from those (plus a
    # targeted top-up) instead of folding the records this backend yields.
    commits_partials = True

    def __init__(
        self,
        worker_id: Optional[str] = None,
        claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        claim_batch: int = 1,
        batch_expensive_s: float = DEFAULT_BATCH_EXPENSIVE_S,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        if claim_ttl_s <= 0:
            raise ValueError("claim_ttl_s must be positive")
        if claim_batch < 1:
            raise ValueError("claim_batch must be at least 1")
        self.worker_id = worker_id or default_worker_id()
        self.claim_ttl_s = claim_ttl_s
        self.poll_interval_s = poll_interval_s
        self.claim_batch = int(claim_batch)
        self.batch_expensive_s = float(batch_expensive_s)
        self.heartbeat_interval_s = float(heartbeat_interval_s)

    def prepare(self, store: CampaignStore) -> None:
        # Re-open the queue as the very first campaign action: workers only
        # treat "drained" as "campaign finished" while the enqueue-complete
        # marker exists, so clearing it here (before the runner's resume
        # probe, which scales with the campaign size) keeps concurrently
        # started workers from exiting on a previous run's finished state.
        store.ensure_queue_layout()
        store.clear_enqueue_complete()

    def submit(
        self, trials: Sequence[TrialSpec], store: CampaignStore
    ) -> Iterator[Dict[str, object]]:
        store.ensure_queue_layout()
        store.clear_enqueue_complete()  # no-op unless submit is called directly
        # One campaign directory holds one spec: jobs left by an earlier,
        # since-edited spec (e.g. a failing trial requeued before its grid
        # cell was removed) must not keep getting claimed and executed.
        store.purge_foreign_jobs({t.trial_id for t in trials})
        # Fresh run, fresh telemetry: partial logs and heartbeats left by a
        # previous run of this directory describe records the loop below is
        # about to discard — folding them into this run's summary would
        # resurrect stale results.  (Workers already attached re-write their
        # heartbeat within one interval, and what they append from here on
        # names only records executed *after* this point.)
        store.clear_partials()
        store.clear_heartbeats()
        # The runner decided these trials must run (no record, or a run
        # without --resume): a leftover record would otherwise make the queue
        # serve stale results where serial/pool re-execute.  Discard BEFORE
        # snapshotting the queue: any record appearing after this point was
        # written by a live worker running current code and is fresh by
        # definition, so the worst race outcome is a redundant (and
        # determinism-tolerated) re-execution — never a lost trial.
        recorded = store.recorded_trial_ids()
        for trial in trials:
            if trial.trial_id in recorded:
                store.discard_trial(trial.trial_id)
        queued = store.queued_trial_ids()  # one snapshot, not a scan per trial
        for order, trial in enumerate(trials):
            store.enqueue_trial(order, trial.to_dict(), known_queued=queued)
        store.mark_enqueue_complete(len(trials))
        if not trials:
            return  # queue reconciled, nothing to run: no heartbeat, no thread

        # Batch membership is advisory (cheap cells claim together); the
        # records themselves are untouched, so serial == pool == queue holds
        # for any claim_batch value.
        expensive = (
            expensive_cost_keys(store, self.batch_expensive_s)
            if self.claim_batch > 1
            else frozenset()
        )
        wanted = [t.trial_id for t in trials]
        outstanding = set(wanted)
        # The producer is a queue participant like any other: its heartbeat
        # and partial log cover the trials it executes locally.  Records
        # harvested from other workers are NOT logged by it — they are in the
        # executing worker's log (or, if that worker died before its append,
        # left to the runner's targeted top-up).
        telemetry = WorkerTelemetry(
            store, self.worker_id, heartbeat_interval_s=self.heartbeat_interval_s
        ).start()
        try:
            while outstanding:
                batch = claim_and_execute_batch(
                    store, self.worker_id, self.claim_batch, expensive, telemetry
                )
                if batch:
                    for record, _ran in batch:
                        trial_id = str(record["trial_id"])
                        if trial_id in outstanding:
                            outstanding.discard(trial_id)
                            yield record
                    continue  # keep draining while there is claimable work

                # Nothing claimable: harvest records produced by other workers.
                # One directory listing bounds the cost per poll; only names that
                # actually appeared are opened and parsed.
                harvested = False
                present = store.recorded_trial_ids()
                for trial_id in wanted:
                    if trial_id not in outstanding or trial_id not in present:
                        continue
                    record = store.load_trial(trial_id)
                    if record is not None:
                        outstanding.discard(trial_id)
                        harvested = True
                        yield record
                if not outstanding:
                    break
                # Requeue orphaned claims (dead workers) so someone — possibly
                # this very loop on its next pass — can pick them up again.
                if store.sweep_claims(self.claim_ttl_s):
                    continue
                if not harvested:
                    time.sleep(self.poll_interval_s)
        finally:
            # Runs on normal completion, mid-drain exceptions, and generator
            # close alike: downgrade the heartbeat.
            telemetry.close()


#: ``progress(event, trial_id, n_executed)`` with event in {"run", "skip"}.
WorkerProgress = Callable[[str, str, int], None]


def run_worker(
    out_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    claim_ttl_s: float = DEFAULT_CLAIM_TTL_S,
    poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
    max_trials: Optional[int] = None,
    wait_for_queue_s: float = 30.0,
    progress: Optional[WorkerProgress] = None,
    max_poll_interval_s: Optional[float] = None,
    claim_batch: int = 1,
    batch_expensive_s: float = DEFAULT_BATCH_EXPENSIVE_S,
    heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
) -> int:
    """The standalone worker loop behind ``repro campaign-worker``.

    Claims, executes and records jobs from ``out_dir``'s queue until it is
    fully drained (no pending jobs *and* no live claims — while another
    worker still holds a claim this worker keeps polling, so it can take over
    if that claim expires), or until ``max_trials`` have been executed.
    Returns the number of trials this worker executed.

    Idle polling self-tunes: consecutive empty polls back off exponentially
    from ``poll_interval_s`` up to ``max_poll_interval_s`` (with jitter so
    co-started workers desynchronize) and snap back to the floor the moment
    a job is claimed — a worker parked on a quiet shared filesystem costs
    almost nothing, yet reacts quickly while work is flowing.

    A worker may be started before the producer: ``wait_for_queue_s`` bounds
    how long it waits for ``out_dir/queue/`` to appear before giving up.  The
    same budget covers an *empty* queue whose producer is still enqueueing:
    "drained" only means "campaign finished" once the producer's
    enqueue-complete marker is present, so a worker racing the producer's
    enqueue loop keeps polling instead of exiting after zero trials.

    ``claim_batch > 1`` amortizes claim-file round-trips over shared
    filesystems: each poll claims up to that many *same-cost-key* pending
    jobs at once (cheap grid cells, typically seed siblings), while cells
    whose recorded mean elapsed time reaches ``batch_expensive_s`` keep
    claiming singly.  Batching changes only claim grouping, never records.

    While the loop runs, the worker's telemetry is live: a heartbeat file
    under ``queue/heartbeats/`` (rewritten every ``heartbeat_interval_s``
    seconds, keeping long trials from being presumed dead and feeding
    ``repro campaign-status``) and a partial log under ``queue/partials/``
    that gains one line per executed record (folded into ``summary.json`` by
    the producer).
    """
    store = CampaignStore(out_dir)
    worker = worker_id or default_worker_id()
    if claim_batch < 1:
        raise ValueError("claim_batch must be at least 1")
    if max_poll_interval_s is None:
        max_poll_interval_s = max(DEFAULT_MAX_POLL_INTERVAL_S, poll_interval_s)
    backoff = PollBackoff(
        base_s=poll_interval_s,
        max_s=max_poll_interval_s,
        # Seeded from the worker id: distinct workers desynchronize, while a
        # re-run of the same worker id paces its polls identically.
        rng=random.Random(f"poll-jitter:{worker}"),
    )

    deadline = time.monotonic() + wait_for_queue_s
    while not store.pending_dir.is_dir():
        if time.monotonic() >= deadline:
            return 0
        time.sleep(min(poll_interval_s, 0.1))

    expensive = (
        expensive_cost_keys(store, batch_expensive_s) if claim_batch > 1 else frozenset()
    )
    executed = 0
    telemetry = WorkerTelemetry(
        store, worker, heartbeat_interval_s=heartbeat_interval_s
    ).start()
    try:
        while max_trials is None or executed < max_trials:
            remaining = None if max_trials is None else max_trials - executed
            size = claim_batch if remaining is None else min(claim_batch, remaining)
            batch = claim_and_execute_batch(store, worker, size, expensive, telemetry)
            if batch:
                backoff.reset()
                for record, ran in batch:
                    if ran:
                        executed += 1
                    if progress:
                        progress("run" if ran else "skip", str(record["trial_id"]), executed)
                continue
            store.sweep_claims(claim_ttl_s)
            if store.queue_drained() and (
                store.enqueue_complete() or time.monotonic() >= deadline
            ):
                break
            time.sleep(backoff.next_delay())
    finally:
        telemetry.close()
    return executed
