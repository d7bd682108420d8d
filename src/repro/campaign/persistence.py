"""On-disk layout of a campaign results directory.

::

    <out_dir>/
      spec.json             # the campaign spec as run
      summary.json          # aggregated metrics (see streaming.py)
      trials/
        <trial_id>.json     # one record per completed trial
      queue/                # file-queue backend only (see backends/queue.py)
        enqueue-complete.json       # producer is done enqueueing; an empty
                                    # queue now means "campaign finished"
        pending/
          <order>-<trial_id>.json   # enqueued job, claimable by any worker
        claims/
          <trial_id>.json           # job claimed by a live (or dead) worker
        heartbeats/
          <worker_id>.json          # liveness/progress beacon, rewritten every
                                    # couple of seconds by each worker's
                                    # heartbeat thread (repro.campaign.telemetry)
        partials/
          <worker_id>.jsonl         # that worker's append-only log: one JSON
                                    # line per record it executed, appended
                                    # right after the record landed; a queue
                                    # campaign's summary.json is folded from
                                    # these (repro.campaign.streaming)

Trial files are written atomically (tmp file + ``os.replace``) so a killed
run never leaves a half-written record; resume support treats only files
that parse and carry a ``metrics`` mapping as completed — a truncated or
otherwise corrupt file is indistinguishable from an absent one and the trial
re-runs.  Because trial ids are content-addressed hashes of the trial
parameters (see ``spec.py``), a record on disk is valid exactly as long as
the spec still expands to that trial — edited parameters yield new ids and
re-run automatically.

A partial-log line (``streaming.partial_entry``) is the record minus its
``detail`` block — trial id, kind, params, metrics, timing, plus a
``detail.scenario.{base_kind, ignored_axes}`` stub when the trial ignored
scenario axes: exactly what the summary accumulators read.  Appending needs
no tmp + rename because nothing ever depends on a line having landed: the
record is written first, so a line that is missing, torn by a kill
mid-append, or glued to such a torn tail simply fails to parse and its trial
is read back from ``trials/`` instead.  That is also why a log costs one
small write per record where the state file it replaces cost a rewrite of
everything the worker had done so far.

``spec.json``, ``summary.json`` and ``trials/*.json`` are what people read
and diff, and are written indented; the files only programs read (jobs,
claims, heartbeats, the enqueue marker, log lines) are compact.

Each record also carries a ``timing`` block (``{"elapsed_s": ...}``, written
by the runner) with the trial's wall-clock cost.  It is informational only:
resumed trials keep the timing of the run that actually produced them, and
determinism comparisons go through ``streaming.strip_timing``.

The queue layout exists so independent worker processes — possibly on other
machines sharing the directory over a network filesystem — can cooperate on
one campaign with no coordinator: ``os.rename`` of a pending job file into
``claims/`` is the atomic claim primitive (exactly one renamer succeeds; the
loser gets ``FileNotFoundError`` and moves on).  Pending filenames embed the
producer's dispatch order (zero-padded), so a plain sorted directory listing
is the schedule — one a worker takes once and walks across many claims
(``claim_next``): an entry gone stale in the meantime just loses its rename
like any other lost race.  Claim files carry ``claimed_at``/``worker``
metadata; a claim older than the TTL whose trial has no record is presumed
orphaned by a dead worker and is renamed back into ``pending/`` — and because
trials are deterministic functions of their parameters, the worst case of a
*slow* (not dead) worker losing its claim is two workers writing
byte-identical records.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from .spec import CampaignSpec, cost_key


def sanitize_worker_id(worker_id: str) -> str:
    """A worker id reduced to filesystem-safe characters for telemetry files."""
    return re.sub(r"[^A-Za-z0-9._-]", "_", str(worker_id)) or "worker"


def _write_json_atomic(
    path: Union[str, Path], data: object, indent: Optional[int] = 2
) -> None:
    """``indent=None`` is for files only programs read: it takes json's C encoder."""
    text = json.dumps(data, indent=indent, sort_keys=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    os.replace(tmp, path)


def _read_json_object(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The JSON object stored in ``path`` — or ``None``: absent, caught
    mid-rewrite, torn, or not an object.  Every reader here is tolerant."""
    try:
        with open(path, "rb") as handle:
            data = json.loads(handle.read())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


def _list_dir(directory: Path, suffix: Union[str, Tuple[str, ...]]) -> List[Path]:
    """Files of ``directory`` ending in ``suffix`` (or one of them), sorted by name.

    One ``os.listdir`` sorted as plain strings; an absent directory lists
    empty.
    """
    try:
        names = sorted(os.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return []
    return [directory / name for name in names if name.endswith(suffix)]


class CampaignStore:
    """Reads and writes one campaign's results directory."""

    def __init__(self, out_dir: Union[str, Path]) -> None:
        self.out_dir = Path(out_dir)
        self.trials_dir = self.out_dir / "trials"
        # trials/ as a plain-string prefix: a record is read, written or
        # unlinked several times per trial, and joining a pathlib.Path costs
        # about a third of such a small read.
        self._trials_prefix = f"{self.trials_dir}{os.sep}"
        self.spec_path = self.out_dir / "spec.json"
        self.summary_path = self.out_dir / "summary.json"
        self.queue_dir = self.out_dir / "queue"
        self.pending_dir = self.queue_dir / "pending"
        self.claims_dir = self.queue_dir / "claims"
        # Present only once the producer has finished enqueueing: workers may
        # not treat an empty queue as a finished campaign before this exists.
        self.enqueue_complete_path = self.queue_dir / "enqueue-complete.json"
        # Worker telemetry (see repro.campaign.telemetry): heartbeat files
        # live next to the claims they vouch for; partials are the per-worker
        # append-only logs a queue campaign's summary.json is folded from.
        self.heartbeats_dir = self.queue_dir / "heartbeats"
        self.partials_dir = self.queue_dir / "partials"
        # Sweeper-local heartbeat watch, same skew-proof scheme as
        # _claim_watch below: worker id -> (identity token, local monotonic
        # time of the last observed content change).
        self._hb_watch: Dict[str, tuple] = {}
        # Sweeper-local claim watch: claim file name -> (identity token,
        # local monotonic first-seen).  Claim timestamps are written by the
        # *claiming* host's clock, which on a multi-machine filesystem may be
        # skewed relative to ours — observing a claim sit unchanged for a TTL
        # on OUR clock is the skew-proof way to call it orphaned.
        self._claim_watch: Dict[str, tuple] = {}
        # Claimer-local cached listing of pending/, next job *last* (claims
        # pop from the end): claim_next / claim_siblings walk it across
        # claims and re-list only when it runs out.
        self._pending_cache: List[Path] = []

    def ensure_layout(self) -> None:
        self.trials_dir.mkdir(parents=True, exist_ok=True)

    def ensure_queue_layout(self) -> None:
        self.ensure_layout()
        self.pending_dir.mkdir(parents=True, exist_ok=True)
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.heartbeats_dir.mkdir(parents=True, exist_ok=True)
        self.partials_dir.mkdir(parents=True, exist_ok=True)

    # --------------------------------------------------------------- spec
    def write_spec(self, spec: CampaignSpec) -> None:
        self.ensure_layout()
        _write_json_atomic(self.spec_path, spec.to_dict())

    def load_spec(self) -> CampaignSpec:
        return CampaignSpec.from_json_file(self.spec_path)

    # -------------------------------------------------------------- trials
    def trial_path(self, trial_id: str) -> Path:
        return self.trials_dir / f"{trial_id}.json"

    def _trial_file(self, trial_id: str) -> str:
        return f"{self._trials_prefix}{trial_id}.json"

    def write_trial(self, record: Dict[str, object]) -> None:
        _write_json_atomic(self._trial_file(str(record["trial_id"])), record)

    def discard_trial(self, trial_id: str) -> None:
        """Delete a trial's record (it is about to be re-executed)."""
        try:
            os.unlink(self._trial_file(trial_id))
        except FileNotFoundError:
            pass

    def load_trial(self, trial_id: str) -> Optional[Dict[str, object]]:
        """The trial's record, or ``None`` if absent or unreadable."""
        record = _read_json_object(self._trial_file(trial_id))
        return record if record is not None and "metrics" in record else None

    def recorded_trial_ids(self) -> Set[str]:
        """Ids with a record *file* present, from one directory listing.

        Cheaper than :meth:`completed_trial_ids` (nothing is opened), so a
        name here may still turn out unreadable.
        """
        try:
            return {
                name[:-5] for name in os.listdir(self.trials_dir) if name.endswith(".json")
            }
        except FileNotFoundError:
            return set()

    def completed_trial_ids(self) -> Set[str]:
        """Ids of every trial with a complete, parseable record on disk."""
        if not self.trials_dir.is_dir():
            return set()
        done: Set[str] = set()
        for path in sorted(self.trials_dir.glob("*.json")):
            if self.load_trial(path.stem) is not None:
                done.add(path.stem)
        return done

    def load_trials(self, trial_ids: Iterable[str]) -> List[Dict[str, object]]:
        """Records for the given ids, in the given order, missing ones skipped."""
        records = []
        for trial_id in trial_ids:
            record = self.load_trial(trial_id)
            if record is not None:
                records.append(record)
        return records

    # --------------------------------------------------------------- queue
    # The job queue used by the file-queue backend (backends/queue.py).  All
    # multi-process coordination reduces to atomic renames within queue/.

    def pending_job_path(self, order: int, trial_id: str) -> Path:
        return self.pending_dir / f"{int(order):06d}-{trial_id}.json"

    def claim_path(self, trial_id: str) -> Path:
        return self.claims_dir / f"{trial_id}.json"

    @staticmethod
    def _job_trial_id(path: Path) -> str:
        """Trial id from a pending filename ``<order>-<trial_id>.json``."""
        return path.stem.partition("-")[2]

    def enqueue_trial(
        self,
        order: int,
        trial: Dict[str, object],
        known_queued: Optional[Set[str]] = None,
    ) -> bool:
        """Add one trial-dict job to ``pending/`` unless already queued/claimed/done.

        Returns ``True`` if a job file was written.  The job carries its
        dispatch ``order`` in both filename (for cheap sorted listing) and
        body (so an expired claim can be renamed back to the right slot).
        A caller enqueueing a batch can pass ``known_queued`` — one upfront
        snapshot of the pending/claimed trial ids — to replace the per-call
        directory scan that would otherwise make bulk enqueue O(n²).
        """
        trial_id = str(trial["trial_id"])
        if self.load_trial(trial_id) is not None:
            return False
        if known_queued is not None:
            if trial_id in known_queued:
                return False
        elif self.claim_path(trial_id).exists() or (
            self.pending_dir.is_dir()
            and next(self.pending_dir.glob(f"*-{trial_id}.json"), None)  # repro-lint: ignore[D202] — existence probe; at most one pending file matches a trial id
        ):
            return False
        job = dict(trial)
        job["order"] = int(order)
        _write_json_atomic(self.pending_job_path(order, trial_id), job, indent=None)
        return True

    def queued_trial_ids(self) -> Set[str]:
        """One snapshot of every trial id currently pending or claimed."""
        ids = {self._job_trial_id(p) for p in self.list_pending()}
        ids.update(p.stem for p in self.list_claims())
        return ids

    def purge_foreign_jobs(self, keep_ids: Set[str]) -> List[str]:
        """Drop queued jobs/claims whose trial is not in ``keep_ids``.

        A campaign directory holds exactly one spec; job files left by an
        earlier (edited or failed) spec would otherwise be claimed and
        executed forever — a requeued-on-failure job from a since-removed
        grid cell would poison every later queue run.  Returns the purged
        trial ids.
        """
        purged: List[str] = []
        for path in self.list_pending():
            trial_id = self._job_trial_id(path)
            if trial_id in keep_ids:
                continue
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # claimed (or purged) by someone else meanwhile
            purged.append(trial_id)
        for claim in self.list_claims():
            if claim.stem in keep_ids:
                continue
            try:
                claim.unlink()
            except FileNotFoundError:
                continue
            purged.append(claim.stem)
        return purged

    def list_pending(self) -> List[Path]:
        """Pending job files in dispatch order (filename-sorted)."""
        return _list_dir(self.pending_dir, ".json")

    def list_claims(self) -> List[Path]:
        return _list_dir(self.claims_dir, ".json")

    def peek_job(self, pending_path: Path) -> Optional[Dict[str, object]]:
        """Read a pending job's body without claiming it.

        ``None`` when the file vanished (claimed by another worker between
        the listing and the read) or is unparseable.  Purely advisory: the
        job may still be claimed away after a successful peek, so callers
        must go through :meth:`claim_job` before executing.
        """
        job = _read_json_object(pending_path)
        return job if job is not None and "trial_id" in job else None

    def claim_job(self, pending_path: Path, worker_id: str) -> Optional[Dict[str, object]]:
        """Atomically claim one pending job; ``None`` if another worker won.

        The claim is the rename itself — exactly one process moves the file
        into ``claims/``.  The winner then rewrites the claim file with
        ``claimed_at``/``worker`` so stale claims can be aged out; a crash
        inside that tiny window just leaves a claim whose age falls back to
        the file's mtime.
        """
        trial_id = self._job_trial_id(pending_path)
        claim = self.claim_path(trial_id)
        try:
            os.rename(pending_path, claim)
        except (FileNotFoundError, PermissionError):
            return None  # lost the race (PermissionError: Windows semantics)
        try:
            # Rename preserves the *enqueue* mtime; stamp the claim time now
            # so the mtime-based expiry fallback can't see a fresh claim as
            # already orphaned while the metadata rewrite below is in flight.
            os.utime(claim, None)
        except OSError:
            pass
        job = _read_json_object(claim)
        if job is None:
            return None
        job["claimed_at"] = time.time()
        job["worker"] = worker_id
        _write_json_atomic(claim, job, indent=None)
        return job

    def claim_next(self, worker_id: str) -> Optional[Dict[str, object]]:
        """Claim the first claimable pending job; ``None`` if there is none.

        The sorted listing of ``pending/`` is taken once and walked across
        calls, so draining a queue costs one ``listdir`` + sort, not one per
        claim.  An entry that went stale since — claimed by another worker —
        just loses its rename, which is already the protocol.  The listing is
        retaken only when it runs out, and ``None`` is returned only after a
        listing taken *during this call* yielded no claim: a job enqueued or
        requeued after the cached listing was taken is found by the first
        call that comes up empty-handed, without a poll sleep in between.
        """
        for relist in (False, True):
            if relist:
                self._pending_cache = self.list_pending()[::-1]
            cache = self._pending_cache
            while cache:
                job = self.claim_job(cache.pop(), worker_id)
                if job is not None:
                    return job
        return None

    def claim_siblings(
        self, worker_id: str, anchor_key: str, limit: int
    ) -> List[Dict[str, object]]:
        """Claim up to ``limit`` further pending jobs whose cost key is ``anchor_key``.

        Walks what :meth:`claim_next` left of the cached listing, in dispatch
        order.  Entries of other cells stay cached — and claimable by other
        workers; claimed and vanished ones leave the cache.
        """
        claimed: List[Dict[str, object]] = []
        cache = self._pending_cache
        index = len(cache)
        while index > 0 and len(claimed) < limit:
            index -= 1
            path = cache[index]
            peeked = self.peek_job(path)
            if peeked is None:  # claimed away (or unreadable)
                del cache[index]
            elif cost_key(str(peeked["kind"]), peeked["params"]) == anchor_key:
                del cache[index]
                job = self.claim_job(path, worker_id)
                if job is not None:
                    claimed.append(job)
        return claimed

    def complete_job(self, trial_id: str) -> None:
        """Drop the claim of a trial whose record has been written."""
        try:
            self.claim_path(trial_id).unlink()
        except FileNotFoundError:
            pass

    def claim_age_s(self, claim_path: Path, now: Optional[float] = None) -> float:
        """Seconds since the claim was taken (mtime fallback for odd files).

        Clamped to >= 0: a negative age just means the claiming host's clock
        runs ahead of ours, not that the claim comes from the future.
        """
        now = time.time() if now is None else now
        claimed_at = (_read_json_object(claim_path) or {}).get("claimed_at")
        if isinstance(claimed_at, (int, float)):
            return max(now - float(claimed_at), 0.0)
        try:
            return max(now - claim_path.stat().st_mtime, 0.0)
        except OSError:
            return 0.0

# ----------------------------------------------------------- telemetry
    # Heartbeat and partial-summary files written by repro.campaign.telemetry;
    # the store only owns their paths, atomic writes, and tolerant reads.

    def heartbeat_path(self, worker_id: str) -> Path:
        return self.heartbeats_dir / f"{sanitize_worker_id(worker_id)}.json"

    def write_heartbeat(self, worker_id: str, data: Dict[str, object]) -> None:
        self.heartbeats_dir.mkdir(parents=True, exist_ok=True)
        _write_json_atomic(self.heartbeat_path(worker_id), data, indent=None)

    def list_heartbeats(self) -> List[Path]:
        return _list_dir(self.heartbeats_dir, ".json")

    def load_heartbeat(self, path: Union[str, Path]) -> Optional[Dict[str, object]]:
        """A heartbeat file's content, or ``None`` if unreadable/mid-rewrite."""
        return _read_json_object(path)

    def clear_heartbeats(self) -> None:
        """Drop all heartbeat files (producer start: stale workers are gone;
        live ones rewrite theirs within a beat interval)."""
        for path in self.list_heartbeats():
            try:
                path.unlink()
            except FileNotFoundError:
                pass
        self._hb_watch.clear()

    def partial_path(self, worker_id: str) -> Path:
        return self.partials_dir / f"{sanitize_worker_id(worker_id)}.jsonl"

    def write_partial(self, worker_id: str, entry: Dict[str, object]) -> None:
        """Append one entry, as one JSON line, to the worker's partial log.

        Open-append-close per entry: the line is on its way to disk when
        this returns, and a log unlinked under a live worker
        (:meth:`clear_partials`) is simply recreated by the next append.
        """
        line = json.dumps(entry, sort_keys=True) + "\n"
        path = self.partial_path(worker_id)
        try:
            handle = open(path, "a", encoding="utf-8")
        except FileNotFoundError:
            self.partials_dir.mkdir(parents=True, exist_ok=True)
            handle = open(path, "a", encoding="utf-8")
        with handle:
            handle.write(line)

    def list_partials(self) -> List[Path]:
        """The workers' partial logs in deterministic (sorted) order."""
        return _list_dir(self.partials_dir, ".jsonl")

    def load_partial(self, path: Union[str, Path]) -> List[Dict[str, object]]:
        """Every parseable entry of one partial log, in line order.

        A line that is not a JSON object naming a trial — the torn tail of a
        worker killed mid-append, whatever got glued to it afterwards — is
        skipped, never an error.
        """
        entries = []
        try:
            with open(path, "rb") as handle:
                for line in handle:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    if isinstance(entry, dict) and "trial_id" in entry:
                        entries.append(entry)
        except OSError:
            pass
        return entries

    def clear_partials(self) -> None:
        """Drop all partial logs (producer start: this run's workers append
        fresh ones; anything they don't cover is topped up from the trial
        records themselves) — and the ``*.json`` state files a tree from
        before the logs may have left in the same directory."""
        for path in _list_dir(self.partials_dir, (".jsonl", ".json")):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    def heartbeat_fresh(self, worker_id: str, ttl_s: float) -> bool:
        """Whether a worker's heartbeat shows it alive within ``ttl_s``.

        Freshness deliberately errs toward "alive" (a false positive delays
        one reclaim by a TTL; a false negative steals a live worker's claim):

        * a heartbeat whose own ``updated_at`` stamp is within the TTL is
          fresh (fast path — heartbeats rewrite every couple of seconds, so
          this is orders of magnitude fresher than typical TTLs);
        * a heartbeat whose *content changed* since this process last looked
          is fresh regardless of its stamp (the skew-proof path: a live
          worker on a clock-skewed host keeps mutating the file);
        * only a heartbeat observed unchanged for a full TTL on our own
          monotonic clock — or explicitly marked ``state: "stopped"``, or
          absent entirely — counts as not fresh.
        """
        path = self.heartbeat_path(worker_id)
        try:
            stat = path.stat()
            token = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return False  # no heartbeat: fall back to plain claim-TTL aging
        data = self.load_heartbeat(path)
        if data is not None and data.get("state") == "stopped":
            return False
        local_now = time.monotonic()
        seen = self._hb_watch.get(worker_id)
        if seen is None or seen[0] != token:
            self._hb_watch[worker_id] = (token, local_now)
            return True
        updated_at = (data or {}).get("updated_at")
        if isinstance(updated_at, (int, float)) and time.time() - float(updated_at) < ttl_s:
            return True
        return local_now - seen[1] <= ttl_s

    def claim_worker(self, claim_path: Path) -> str:
        """The worker id recorded on a claim ('' for a bare/unreadable one)."""
        return str((_read_json_object(claim_path) or {}).get("worker") or "")

    def _claim_expired(self, claim_path: Path, claim_ttl_s: float) -> bool:
        """Whether a claim is presumed orphaned, robust to cross-host skew.

        Two independent criteria, either suffices:

        * the claim's own timestamp says it is older than the TTL (fast path
          for claims that were already stale before we started looking; with
          a behind-skewed claimer clock this can fire early, which costs a
          redundant — deterministically identical — execution, never a wrong
          result);
        * *this process* has watched the claim sit unchanged for a full TTL
          on its own monotonic clock (the skew-proof backstop: a dead
          worker's claim is reclaimed even if its clock ran arbitrarily
          ahead, so a campaign can never hang on it forever).
        """
        if self.claim_age_s(claim_path) > claim_ttl_s:
            return True
        try:
            stat = claim_path.stat()
            token = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            return False  # vanished: nothing to expire
        name = claim_path.name
        seen = self._claim_watch.get(name)
        local_now = time.monotonic()
        if seen is None or seen[0] != token:
            self._claim_watch[name] = (token, local_now)
            return False
        return local_now - seen[1] > claim_ttl_s

    def sweep_claims(self, claim_ttl_s: float) -> List[str]:
        """Clear finished claims and requeue expired ones; returns requeued ids.

        A claim whose trial already has a record is left over from a worker
        that died between writing the record and unlinking the claim — drop
        it.  A claim past the TTL with no record (see :meth:`_claim_expired`
        for the skew-robust criteria) is presumed orphaned and renamed back
        into ``pending/`` for any worker to re-claim (the rename keeps this
        race-safe: concurrent sweepers can't requeue one claim twice).

        A *fresh heartbeat* from the claim's worker vetoes expiry (see
        :meth:`heartbeat_fresh`): a single 10⁵-node trial can legitimately
        outlast any reasonable TTL, and the worker's heartbeat thread — not
        the untouched claim file's age — is the signal that it is slow
        rather than dead.  Workers without heartbeats (older code, manual
        claims) age out on the claim TTL exactly as before.
        """
        requeued: List[str] = []
        for claim in self.list_claims():
            trial_id = claim.stem
            if self.load_trial(trial_id) is not None:
                self.complete_job(trial_id)
                self._claim_watch.pop(claim.name, None)
                continue
            if not self._claim_expired(claim, claim_ttl_s):
                continue
            worker = self.claim_worker(claim)
            if worker and self.heartbeat_fresh(worker, claim_ttl_s):
                continue  # slow worker, not a dead one: leave its claim alone
            if self.requeue_claim(trial_id):
                self._claim_watch.pop(claim.name, None)
                requeued.append(trial_id)
        return requeued

    def requeue_claim(self, trial_id: str) -> bool:
        """Move a claim back into ``pending/`` (expired, or its trial failed).

        Returns ``False`` when there was nothing to requeue — the claim is
        gone (a concurrent sweeper moved it, or the worker finished after
        all).  Race-safe for the same reason claiming is: only one renamer
        of the claim file succeeds.
        """
        claim = self.claim_path(trial_id)
        try:
            order = int((_read_json_object(claim) or {}).get("order", 0))
        except (ValueError, TypeError):
            order = 0
        try:
            os.rename(claim, self.pending_job_path(order, trial_id))
        except (FileNotFoundError, PermissionError):
            return False
        return True

    def queue_drained(self) -> bool:
        """True when no pending jobs and no claims remain."""
        return not self.list_pending() and not self.list_claims()

    def mark_enqueue_complete(self, n_trials: int) -> None:
        """Producer signal: every job of the campaign is now in the queue."""
        _write_json_atomic(
            self.enqueue_complete_path, {"n_trials": int(n_trials)}, indent=None
        )

    def clear_enqueue_complete(self) -> None:
        """Re-open the queue before (re-)enqueueing a batch of jobs."""
        try:
            self.enqueue_complete_path.unlink()
        except FileNotFoundError:
            pass

    def enqueue_complete(self) -> bool:
        return self.enqueue_complete_path.exists()

    # ------------------------------------------------------------- summary
    def write_summary(self, summary: Dict[str, object]) -> None:
        self.ensure_layout()
        _write_json_atomic(self.summary_path, summary)

    def load_summary(self) -> Optional[Dict[str, object]]:
        return _read_json_object(self.summary_path)


@dataclass
class CampaignResults:
    """A loaded campaign results directory (spec + trials + summary)."""

    out_dir: Path
    spec: CampaignSpec
    records: List[Dict[str, object]] = field(default_factory=list)
    summary: Optional[Dict[str, object]] = None

    def metric_values(self, name: str) -> List[float]:
        """All per-trial values of one scalar metric, in trial order."""
        return [
            float(r["metrics"][name])
            for r in self.records
            if isinstance(r.get("metrics"), dict) and name in r["metrics"]
        ]

    def elapsed_values(self) -> List[float]:
        """Per-trial wall-clock seconds, in trial order (timed trials only)."""
        return [
            float(r["timing"]["elapsed_s"])
            for r in self.records
            if isinstance(r.get("timing"), dict)
            and isinstance(r["timing"].get("elapsed_s"), (int, float))
        ]


def load_campaign_results(out_dir: Union[str, Path]) -> CampaignResults:
    """Load a results directory written by :func:`repro.campaign.run_campaign`."""
    store = CampaignStore(out_dir)
    spec = store.load_spec()
    trial_ids = [t.trial_id for t in spec.expand()]
    return CampaignResults(
        out_dir=store.out_dir,
        spec=spec,
        records=store.load_trials(trial_ids),
        summary=store.load_summary(),
    )
