"""Worker-side telemetry: heartbeat files and partial-log appends.

Every queue participant — standalone ``repro campaign-worker`` processes and
the producer's own drain loop — carries a :class:`WorkerTelemetry` that does
two things as trials execute:

* **Heartbeats** (``queue/heartbeats/<worker>.json``): a small JSON beacon
  rewritten every ``interval_s`` seconds by a daemon thread, so it stays
  fresh even while the main thread is deep inside a single long trial.  The
  claim sweeper reads it to tell *slow* workers from *dead* ones
  (:meth:`~repro.campaign.persistence.CampaignStore.heartbeat_fresh`), and
  ``repro campaign-status`` reads it for per-worker throughput.

* **Partial logs** (``queue/partials/<worker>.jsonl``): one appended line
  (:func:`~repro.campaign.streaming.partial_entry`) per record the worker
  executed, written strictly after the record itself.  The producer folds
  these into ``summary.json`` instead of re-reading every trial record, and
  ``repro campaign-status`` reads them for per-cell timing.  A worker keeps
  no aggregation state of its own: the cost per record is one small append,
  whatever the campaign's size.

Heartbeat file format (all timestamps ``time.time()`` epoch seconds)::

    {
      "worker": "host-pid1234",        # claim-owner id
      "host": "host", "pid": 1234,
      "state": "running" | "idle" | "stopped",
      "started_at": ..., "updated_at": ...,
      "current_trial": "<trial_id>" | null,
      "current_trial_started_at": ... | null,
      "last_claim_at": ... | null,
      "trials_done": 3, "trials_skipped": 0,
      "trials_per_min": 12.4            # over a recent window of finishes
    }

Nothing here touches trial records or the determinism-compared view: both
file families live under ``queue/`` and are ignored by ``strip_timing``
comparisons entirely.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional

from .persistence import CampaignStore
from .streaming import partial_entry

#: how often the heartbeat thread rewrites the beacon file.
DEFAULT_HEARTBEAT_INTERVAL_S = 2.0
#: finishes kept for the recent-throughput estimate.
_RATE_WINDOW = 32


class WorkerHeartbeat:
    """A worker's liveness beacon, kept fresh by a daemon thread.

    The writer thread exists because the interesting case is precisely when
    the worker's main thread is *not* available: a single huge trial blocks
    it for longer than any claim TTL, and the beacon must keep proving the
    process alive throughout.  All mutation goes through a lock; the thread
    only ever snapshots and writes.
    """

    def __init__(
        self,
        store: CampaignStore,
        worker_id: str,
        interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.store = store
        self.worker_id = worker_id
        self.interval_s = float(interval_s)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        now = time.time()
        self._state: Dict[str, object] = {
            "worker": worker_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "state": "idle",
            "started_at": now,
            "updated_at": now,
            "current_trial": None,
            "current_trial_started_at": None,
            "last_claim_at": None,
            "trials_done": 0,
            "trials_skipped": 0,
            "trials_per_min": 0.0,
        }
        self._finish_times: Deque[float] = deque(maxlen=_RATE_WINDOW)

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "WorkerHeartbeat":
        self.write_now()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{self.worker_id}", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_now()

    def stop(self) -> None:
        """Stop the thread and leave a final ``state: "stopped"`` beacon."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 1.0)
            self._thread = None
        with self._lock:
            self._state["state"] = "stopped"
            self._state["current_trial"] = None
            self._state["current_trial_started_at"] = None
        self.write_now()

    def write_now(self) -> None:
        with self._lock:
            self._state["updated_at"] = time.time()
            snapshot = dict(self._state)
        try:
            self.store.write_heartbeat(self.worker_id, snapshot)
        except OSError:
            pass  # telemetry must never kill the worker it describes

    # --------------------------------------------------------------- events
    def note_claim(self) -> None:
        with self._lock:
            self._state["last_claim_at"] = time.time()

    def trial_started(self, trial_id: str) -> None:
        with self._lock:
            self._state["state"] = "running"
            self._state["current_trial"] = trial_id
            self._state["current_trial_started_at"] = time.time()

    def trial_finished(self, ran: bool) -> None:
        now = time.time()
        with self._lock:
            self._state["current_trial"] = None
            self._state["current_trial_started_at"] = None
            self._state["state"] = "idle"
            if ran:
                self._state["trials_done"] = int(self._state["trials_done"]) + 1
                self._finish_times.append(now)
            else:
                self._state["trials_skipped"] = int(self._state["trials_skipped"]) + 1
            if len(self._finish_times) >= 2:
                span = self._finish_times[-1] - self._finish_times[0]
                if span > 0:
                    self._state["trials_per_min"] = (
                        (len(self._finish_times) - 1) * 60.0 / span
                    )
            elif self._finish_times:
                span = now - float(self._state["started_at"])
                self._state["trials_per_min"] = 60.0 / span if span > 0 else 0.0


class PartialSummaryWriter:
    """Appends one line to the worker's partial log per executed record."""

    def __init__(self, store: CampaignStore, worker_id: str) -> None:
        self.store = store
        self.worker_id = worker_id

    def add(self, record: Dict[str, object]) -> None:
        try:
            self.store.write_partial(self.worker_id, partial_entry(record))
        except OSError:
            pass  # the record is on disk: finalize tops the trial up from it


class WorkerTelemetry:
    """Facade the queue loops drive: heartbeat + partial log together.

    The claim/execute helpers accept this (optionally — ``None`` keeps the
    old silent behaviour) and call :meth:`trial_started` /
    :meth:`trial_finished` around each execution.  ``close`` is idempotent
    and safe on every exit path: it downgrades the heartbeat to ``stopped``
    so the sweeper stops trusting it immediately (the log has nothing to
    flush — every line was written when its record landed).
    """

    def __init__(
        self,
        store: CampaignStore,
        worker_id: str,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
    ) -> None:
        self.worker_id = worker_id
        self.heartbeat = WorkerHeartbeat(store, worker_id, heartbeat_interval_s)
        self.partials = PartialSummaryWriter(store, worker_id)
        self._closed = False

    def start(self) -> "WorkerTelemetry":
        self.heartbeat.start()
        return self

    def note_claim(self) -> None:
        self.heartbeat.note_claim()

    def trial_started(self, trial_id: str) -> None:
        self.heartbeat.trial_started(trial_id)

    def trial_finished(self, record: Dict[str, object], ran: bool) -> None:
        # Only records this worker physically executed enter its log: a
        # skipped (already-recorded) trial belongs to whichever worker wrote
        # it — or, if that worker died before its append, to the producer's
        # record-by-record top-up.
        if ran:
            self.partials.add(record)
        self.heartbeat.trial_finished(ran)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.heartbeat.stop()
