"""Aggregation of per-trial metrics into per-configuration summaries.

Trials are grouped by their parameters *minus the seed*: each group is one
cell of the campaign's parameter grid, its seeds the repeated measurements.
Every scalar metric is summarised as mean / sample standard deviation /
95% confidence half-width / min / max / n.  The confidence interval uses the
normal approximation ``1.96 * std / sqrt(n)`` (not Student's t) — campaigns
usually run enough seeds for the difference not to matter, and ``n`` is
reported so a stricter reader can re-derive t-based intervals.

Instead of re-reading every trial record into memory and folding them in one
pass, summaries are built from *accumulators* that

* **update** one record at a time (a worker folds each record the moment it
  lands),
* **merge** with each other (per-worker partial summaries combine into the
  campaign summary), and
* **serialize** to JSON (a worker commits its partial state to disk as it
  drains the queue; the producer merges the committed partials).

Exactness contract
------------------
The campaign determinism suite compares serial, pool and queue backends
byte-identically under ``strip_timing`` — which means the merged-partials
summary must reproduce the serial summary *to the last bit*, even though
workers fold records in nondeterministic completion order and the partials
merge in directory order.

Floating-point accumulation cannot deliver that (float addition is not
associative), so :class:`MetricAccumulator` keeps its running first and
second moments as exact :class:`fractions.Fraction` values.  Every float is a
dyadic rational, so sums and products of sample values are exact, and exact
sums are order-independent; the single rounding step happens in
:meth:`MetricAccumulator.summary` when the exact moments convert to floats
(``float(Fraction)`` is correctly rounded).  The textbook reason to prefer
the Welford recurrence and Chan's parallel combine — cancellation in
floating-point — therefore vanishes: the moment sums *are* the
Welford/Chan quantities, computed without error, and ``merge`` is Chan's
combine specialised to exact arithmetic (plain addition of moments).

Duplicates
----------
Queue campaigns can execute one trial twice (a claim stolen from a slow —
not dead — worker), putting the same trial into two workers' partials.
Records are deterministic, so the two copies are byte-identical;
:meth:`remove` subtracts one copy's exact contribution, which is why the
accumulators support removal at all.  ``min``/``max`` stay valid under this
restricted removal because the other copy of the value remains accounted.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .spec import CampaignSpec, canonical_json, cost_key


def group_key(params: Mapping[str, object]) -> str:
    """Canonical identity of a grid cell: the parameters without the seed."""
    return canonical_json({k: v for k, v in params.items() if k != "seed"})


def strip_timing(data: Mapping[str, object]) -> Dict[str, object]:
    """A trial record or summary without its wall-clock ``timing`` block.

    This is the determinism-compared view: serial and parallel runs of the
    same spec must produce byte-identical trial records and summaries *after*
    this projection, because elapsed wall-clock is the one field that
    legitimately varies between otherwise identical runs.  The per-trial
    profiling snapshot (``timing.profile``, opt-in via ``REPRO_PROFILE``)
    rides inside the timing block for exactly this reason.
    """
    return {k: v for k, v in data.items() if k != "timing"}


def _fraction_state(value: Fraction) -> List[int]:
    return [value.numerator, value.denominator]


def _fraction_from_state(state: Sequence[int]) -> Fraction:
    return Fraction(int(state[0]), int(state[1]))


class MetricAccumulator:
    """Exact streaming mean/std/ci95/min/max/n for one metric of one group."""

    __slots__ = ("n", "_sum", "_sumsq", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        self._sum = Fraction(0)
        self._sumsq = Fraction(0)
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def update(self, value: float) -> None:
        v = Fraction(float(value))
        self.n += 1
        self._sum += v
        self._sumsq += v * v
        fv = float(value)
        if self.min is None or fv < self.min:
            self.min = fv
        if self.max is None or fv > self.max:
            self.max = fv

    def merge(self, other: "MetricAccumulator") -> None:
        """Chan's parallel combine — exact, so it reduces to adding moments."""
        self.n += other.n
        self._sum += other._sum
        self._sumsq += other._sumsq
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def remove(self, value: float) -> None:
        """Subtract one duplicate contribution of ``value``.

        Only valid when another exactly-equal contribution of the same trial
        remains accounted (the queue-backend double-execution case): the
        moments are exact inverses, and ``min``/``max`` stay correct because
        the surviving copy still covers the extremes.
        """
        if self.n <= 0:
            raise ValueError("cannot remove from an empty accumulator")
        v = Fraction(float(value))
        self.n -= 1
        self._sum -= v
        self._sumsq -= v * v
        if self.n == 0:
            self.min = None
            self.max = None

    def summary(self) -> Dict[str, float]:
        """The ``{mean, std, ci95, min, max, n}`` block of ``summary.json``.

        Edge cases: ``{"n": 0}`` when empty, ``std == ci95 == 0.0`` for a
        single sample.  The mean is the correctly-rounded float of the exact mean,
        so it does not depend on accumulation or merge order.
        """
        if self.n == 0:
            return {"n": 0}
        mean = float(self._sum / self.n)
        if self.n > 1:
            variance = (self._sumsq - self._sum * self._sum / self.n) / (self.n - 1)
            if variance < 0:  # pragma: no cover - exact arithmetic: impossible
                variance = Fraction(0)
            std = math.sqrt(float(variance))
            ci95 = 1.96 * std / math.sqrt(self.n)
        else:
            std = 0.0
            ci95 = 0.0
        return {
            "mean": mean,
            "std": std,
            "ci95": ci95,
            "min": self.min,
            "max": self.max,
            "n": self.n,
        }

    def to_state(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "sum": _fraction_state(self._sum),
            "sumsq": _fraction_state(self._sumsq),
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "MetricAccumulator":
        acc = cls()
        acc.n = int(state["n"])
        acc._sum = _fraction_from_state(state["sum"])
        acc._sumsq = _fraction_from_state(state["sumsq"])
        acc.min = state.get("min")
        acc.max = state.get("max")
        return acc


class TimingAccumulator:
    """The summary's ``timing`` block: per-trial ``timing.elapsed_s`` folded
    into campaign-wide totals, a per-grid-cell ``cells`` breakdown (keyed by
    :func:`~repro.campaign.spec.cost_key` — the elapsed history
    ``schedule_trials`` reads to dispatch longest-expected-first), a
    ``workers`` breakdown for records stamped with their executing worker,
    and a ``profile`` roll-up of ``timing.profile`` snapshots.  Records
    without the relevant field simply don't contribute; empty blocks are
    omitted.

    Wall-clock genuinely varies between runs and lives outside the
    determinism-compared view (``strip_timing`` drops it wholesale), so plain
    float running sums suffice here — no exact arithmetic needed.  Folding
    records one at a time in their given order produces the same left-fold
    float sums as the batch ``sum()`` the block historically used.
    """

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # cost_key -> [n, total, max]
        self.cells: Dict[str, List[float]] = {}
        # worker -> [n, total]
        self.workers: Dict[str, List[float]] = {}
        # profiling counters summed over profiled trials (ints: exact).
        self.profile_counters: Dict[str, float] = {}
        self.profile_timers: Dict[str, float] = {}
        self.n_profiled = 0

    def add_record(self, record: Mapping[str, object]) -> None:
        timing = record.get("timing")
        if not isinstance(timing, Mapping):
            return
        elapsed = timing.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            seconds = float(elapsed)
            self.n += 1
            self.total += seconds
            if self.min is None or seconds < self.min:
                self.min = seconds
            if self.max is None or seconds > self.max:
                self.max = seconds
            key = cost_key(str(record.get("kind", "")), record.get("params", {}) or {})
            cell = self.cells.setdefault(key, [0, 0.0, seconds])
            cell[0] += 1
            cell[1] += seconds
            cell[2] = max(cell[2], seconds)
            worker = timing.get("worker")
            if worker:
                per_worker = self.workers.setdefault(str(worker), [0, 0.0])
                per_worker[0] += 1
                per_worker[1] += seconds
        profile = timing.get("profile")
        if isinstance(profile, Mapping):
            self.n_profiled += 1
            for name, value in (profile.get("counters") or {}).items():
                if isinstance(value, (int, float)):
                    self.profile_counters[str(name)] = (
                        self.profile_counters.get(str(name), 0) + value
                    )
            for name, value in (profile.get("timers_s") or {}).items():
                if isinstance(value, (int, float)):
                    self.profile_timers[str(name)] = (
                        self.profile_timers.get(str(name), 0.0) + float(value)
                    )

    def merge(self, other: "TimingAccumulator") -> None:
        self.n += other.n
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        for key, (count, total, peak) in other.cells.items():
            cell = self.cells.setdefault(key, [0, 0.0, peak])
            cell[0] += count
            cell[1] += total
            cell[2] = max(cell[2], peak)
        for worker, (count, total) in other.workers.items():
            per_worker = self.workers.setdefault(worker, [0, 0.0])
            per_worker[0] += count
            per_worker[1] += total
        self.n_profiled += other.n_profiled
        for name, value in other.profile_counters.items():
            self.profile_counters[name] = self.profile_counters.get(name, 0) + value
        for name, value in other.profile_timers.items():
            self.profile_timers[name] = self.profile_timers.get(name, 0.0) + value

    def remove_record(self, record: Mapping[str, object]) -> None:
        """Subtract one duplicate record's timing contribution (best effort).

        Duplicate executions of a deterministic trial have *different*
        wall-clock, so exact inversion is neither possible nor needed — the
        timing block sits outside the determinism-compared view.  Counts are
        kept honest; min/max may conservatively over-cover.
        """
        timing = record.get("timing")
        if not isinstance(timing, Mapping):
            return
        elapsed = timing.get("elapsed_s")
        if isinstance(elapsed, (int, float)) and self.n > 0:
            seconds = float(elapsed)
            self.n -= 1
            self.total -= seconds
            key = cost_key(str(record.get("kind", "")), record.get("params", {}) or {})
            cell = self.cells.get(key)
            if cell is not None:
                cell[0] -= 1
                cell[1] -= seconds
                if cell[0] <= 0:
                    del self.cells[key]
            worker = timing.get("worker")
            if worker and str(worker) in self.workers:
                per_worker = self.workers[str(worker)]
                per_worker[0] -= 1
                per_worker[1] -= seconds
                if per_worker[0] <= 0:
                    del self.workers[str(worker)]
        if isinstance(timing.get("profile"), Mapping) and self.n_profiled > 0:
            self.n_profiled -= 1

    def summary(self) -> Dict[str, object]:
        if not self.n:
            return {"n": 0}
        summary: Dict[str, object] = {
            "n": self.n,
            "total_elapsed_s": self.total,
            "mean_elapsed_s": self.total / self.n,
            "min_elapsed_s": self.min,
            "max_elapsed_s": self.max,
            "cells": {
                key: {
                    "n": int(count),
                    "mean_elapsed_s": total / count,
                    "max_elapsed_s": peak,
                }
                for key, (count, total, peak) in sorted(self.cells.items())
            },
        }
        if self.workers:
            summary["workers"] = {
                worker: {
                    "n": int(count),
                    "total_elapsed_s": total,
                    "mean_elapsed_s": total / count,
                }
                for worker, (count, total) in sorted(self.workers.items())
            }
        if self.n_profiled:
            summary["profile"] = {
                "n": self.n_profiled,
                "counters": dict(sorted(self.profile_counters.items())),
                "timers_s": dict(sorted(self.profile_timers.items())),
            }
        return summary

    def to_state(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "cells": {k: list(v) for k, v in self.cells.items()},
            "workers": {k: list(v) for k, v in self.workers.items()},
            "n_profiled": self.n_profiled,
            "profile_counters": dict(self.profile_counters),
            "profile_timers": dict(self.profile_timers),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "TimingAccumulator":
        acc = cls()
        acc.n = int(state.get("n", 0))
        acc.total = float(state.get("total", 0.0))
        acc.min = state.get("min")
        acc.max = state.get("max")
        acc.cells = {str(k): list(v) for k, v in (state.get("cells") or {}).items()}
        acc.workers = {str(k): list(v) for k, v in (state.get("workers") or {}).items()}
        acc.n_profiled = int(state.get("n_profiled", 0))
        acc.profile_counters = dict(state.get("profile_counters") or {})
        acc.profile_timers = dict(state.get("profile_timers") or {})
        return acc


class IgnoredAxesAccumulator:
    """Per-base-kind rollup of scenario axes trials could not apply.

    Scenario records report axes their base harness cannot express under
    ``detail.scenario.ignored_axes``; this folds them into ``{base_kind:
    {"axes": [...], "n_trials": N}}`` so a sweep over kinds surfaces the gap
    in ``summary.json`` and the CLI.  The summary key is omitted when empty.
    """

    def __init__(self) -> None:
        # base_kind -> (set of axis names, record count)
        self.by_kind: Dict[str, Tuple[Set[str], int]] = {}

    @staticmethod
    def _ignored(record: Mapping[str, object]) -> Optional[Tuple[str, List[str]]]:
        detail = record.get("detail")
        scenario = detail.get("scenario") if isinstance(detail, Mapping) else None
        if not isinstance(scenario, Mapping):
            return None
        axes = scenario.get("ignored_axes") or []
        if not axes:
            return None
        return str(scenario.get("base_kind", "unknown")), [str(a) for a in axes]

    def add_record(self, record: Mapping[str, object]) -> None:
        ignored = self._ignored(record)
        if ignored is None:
            return
        base_kind, axes = ignored
        entry = self.by_kind.get(base_kind)
        if entry is None:
            entry = (set(), 0)
        entry[0].update(axes)
        self.by_kind[base_kind] = (entry[0], entry[1] + 1)

    def remove_record(self, record: Mapping[str, object]) -> None:
        """Drop one duplicate record's count (axis sets keep the union —
        the duplicate is byte-identical, so its axes are already covered)."""
        ignored = self._ignored(record)
        if ignored is None:
            return
        base_kind, _axes = ignored
        entry = self.by_kind.get(base_kind)
        if entry is None:
            return
        if entry[1] <= 1:
            del self.by_kind[base_kind]
        else:
            self.by_kind[base_kind] = (entry[0], entry[1] - 1)

    def merge(self, other: "IgnoredAxesAccumulator") -> None:
        for base_kind, (axes, count) in other.by_kind.items():
            entry = self.by_kind.get(base_kind)
            if entry is None:
                self.by_kind[base_kind] = (set(axes), count)
            else:
                entry[0].update(axes)
                self.by_kind[base_kind] = (entry[0], entry[1] + count)

    def summary(self) -> Dict[str, Dict[str, object]]:
        return {
            base_kind: {"axes": sorted(axes), "n_trials": count}
            for base_kind, (axes, count) in sorted(self.by_kind.items())
        }

    def to_state(self) -> Dict[str, object]:
        return {
            base_kind: {"axes": sorted(axes), "n_trials": count}
            for base_kind, (axes, count) in self.by_kind.items()
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "IgnoredAxesAccumulator":
        acc = cls()
        for base_kind, entry in (state or {}).items():
            acc.by_kind[str(base_kind)] = (
                {str(a) for a in entry.get("axes", [])},
                int(entry.get("n_trials", 0)),
            )
        return acc


class GroupAccumulator:
    """All metric accumulators of one grid cell, plus its trial roster."""

    def __init__(self, key: str, params: Optional[Mapping[str, object]] = None) -> None:
        self.key = key
        self.params: Dict[str, object] = dict(params) if params else {}
        # trial_id -> seed; the roster that orders seeds/trial_ids at finalize.
        self.trial_seeds: Dict[str, object] = {}
        self.metrics: Dict[str, MetricAccumulator] = {}

    def add_record(self, record: Mapping[str, object]) -> None:
        params = record["params"]
        if not self.params:
            self.params = {k: v for k, v in params.items() if k != "seed"}
        self.trial_seeds[str(record["trial_id"])] = params.get("seed")
        for name, value in (record.get("metrics") or {}).items():
            acc = self.metrics.get(name)
            if acc is None:
                acc = self.metrics[name] = MetricAccumulator()
            acc.update(float(value))

    def remove_record(self, record: Mapping[str, object]) -> None:
        """Subtract one *duplicate* record (its twin stays accounted)."""
        for name, value in (record.get("metrics") or {}).items():
            acc = self.metrics.get(name)
            if acc is not None:
                acc.remove(float(value))

    def merge(self, other: "GroupAccumulator") -> None:
        if not self.params:
            self.params = dict(other.params)
        self.trial_seeds.update(other.trial_seeds)
        for name, acc in other.metrics.items():
            mine = self.metrics.get(name)
            if mine is None:
                self.metrics[name] = acc
            else:
                mine.merge(acc)

    def summary(self) -> Dict[str, object]:
        # Trials order by seed (spec order within a cell); the trial id breaks
        # the tie for hand-crafted records without seeds, keeping the output a
        # pure function of the accumulated set.
        ordered = sorted(
            self.trial_seeds.items(),
            key=lambda item: (item[1] if item[1] is not None else 0, item[0]),
        )
        return {
            "params": dict(self.params),
            "seeds": [seed for _tid, seed in ordered],
            "trial_ids": [tid for tid, _seed in ordered],
            "metrics": {
                name: self.metrics[name].summary() for name in sorted(self.metrics)
            },
        }

    def to_state(self) -> Dict[str, object]:
        return {
            "params": dict(self.params),
            "trials": dict(self.trial_seeds),
            "metrics": {name: acc.to_state() for name, acc in self.metrics.items()},
        }

    @classmethod
    def from_state(cls, key: str, state: Mapping[str, object]) -> "GroupAccumulator":
        acc = cls(key, params=state.get("params"))
        acc.trial_seeds = dict(state.get("trials") or {})
        acc.metrics = {
            str(name): MetricAccumulator.from_state(metric_state)
            for name, metric_state in (state.get("metrics") or {}).items()
        }
        return acc


#: on-disk schema version of serialized partial summaries.
PARTIAL_STATE_VERSION = 1


class CampaignAccumulator:
    """One campaign's summary under construction — updatable and mergeable.

    ``finalize`` emits exactly the structure ``aggregate_records`` always
    wrote; because the per-metric math is exact, a serial accumulator and any
    merge of per-worker partials over the same trial set produce byte-
    identical summaries (after ``strip_timing`` — the timing block keeps
    honest float wall-clock, which differs by construction).
    """

    def __init__(self) -> None:
        self.groups: Dict[str, GroupAccumulator] = {}
        self.timing = TimingAccumulator()
        self.ignored_axes = IgnoredAxesAccumulator()
        self._trial_ids: Set[str] = set()

    @property
    def trial_ids(self) -> Set[str]:
        """Ids of every trial this accumulator has folded in."""
        return self._trial_ids

    def __len__(self) -> int:
        return len(self._trial_ids)

    def add_record(self, record: Mapping[str, object]) -> bool:
        """Fold one record in; duplicates (same trial id) are skipped.

        Trial records are deterministic functions of their parameters, so a
        second record with an already-accounted id is byte-identical (modulo
        timing) and skipping it is exact.  Returns whether the record was new.
        """
        trial_id = str(record["trial_id"])
        if trial_id in self._trial_ids:
            return False
        self._trial_ids.add(trial_id)
        key = group_key(record["params"])
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupAccumulator(key)
        group.add_record(record)
        self.timing.add_record(record)
        self.ignored_axes.add_record(record)
        return True

    def remove_record(self, record: Mapping[str, object]) -> None:
        """Subtract one duplicate record's contribution (pre-merge dedupe).

        Used on a *partial* accumulator whose roster overlaps an already-
        merged one: the overlapping trial's numeric contribution is removed
        here so the subsequent :meth:`merge` counts it exactly once.  The
        trial id itself stays in the roster — the union is what merge wants.
        """
        key = group_key(record["params"])
        group = self.groups.get(key)
        if group is not None:
            group.remove_record(record)
        self.timing.remove_record(record)
        self.ignored_axes.remove_record(record)

    def merge(self, other: "CampaignAccumulator") -> None:
        """Combine another accumulator in (caller has deduped overlaps)."""
        for key, group in other.groups.items():
            mine = self.groups.get(key)
            if mine is None:
                self.groups[key] = group
            else:
                mine.merge(group)
        self.timing.merge(other.timing)
        self.ignored_axes.merge(other.ignored_axes)
        self._trial_ids.update(other._trial_ids)

    def finalize(self, spec: Optional[CampaignSpec] = None) -> Dict[str, object]:
        """The ``summary.json`` structure (see ``aggregate_records``)."""
        group_summaries = [self.groups[key].summary() for key in sorted(self.groups)]
        summary: Dict[str, object] = {
            "n_trials": len(self._trial_ids),
            "n_groups": len(group_summaries),
            "groups": group_summaries,
            "timing": self.timing.summary(),
        }
        ignored = self.ignored_axes.summary()
        if ignored:
            summary["ignored_axes"] = ignored
        if spec is not None:
            summary["name"] = spec.name
            summary["kind"] = spec.kind
            summary["n_trials_expected"] = spec.n_trials()
        return summary

    def to_state(self) -> Dict[str, object]:
        """JSON-serializable state — the partial-summary commit format."""
        return {
            "version": PARTIAL_STATE_VERSION,
            "n_trials": len(self._trial_ids),
            "groups": {key: group.to_state() for key, group in self.groups.items()},
            "timing": self.timing.to_state(),
            "ignored_axes": self.ignored_axes.to_state(),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "CampaignAccumulator":
        version = state.get("version")
        if version != PARTIAL_STATE_VERSION:
            raise ValueError(f"unsupported partial-summary version {version!r}")
        acc = cls()
        for key, group_state in (state.get("groups") or {}).items():
            group = GroupAccumulator.from_state(str(key), group_state)
            acc.groups[str(key)] = group
            acc._trial_ids.update(group.trial_seeds)
        acc.timing = TimingAccumulator.from_state(state.get("timing") or {})
        acc.ignored_axes = IgnoredAxesAccumulator.from_state(state.get("ignored_axes") or {})
        return acc


def merge_partial_summaries(store, trials) -> CampaignAccumulator:
    """Assemble a campaign accumulator from committed per-worker partials.

    ``store`` is the campaign's :class:`~repro.campaign.persistence
    .CampaignStore`; ``trials`` the spec's expanded
    :class:`~repro.campaign.spec.TrialSpec` list.  Partials merge in sorted
    file order; overlapping trials (claim-steal double executions) are
    deduplicated by subtracting the duplicate's exact contribution, read back
    from its record with a *targeted* load — never a wholesale re-read.  Any
    spec trial no partial accounts for (resume-skipped trials, a worker that
    died before its final flush) is topped up the same way, record by record.

    A partial naming a duplicate whose record cannot be read is skipped
    wholesale (its unique trials fall through to the top-up), so a corrupt
    file can never double-count.
    """
    merged = CampaignAccumulator()
    for path in store.list_partials():
        state = store.load_partial(path)
        if state is None:
            continue
        try:
            part = CampaignAccumulator.from_state(state)
        except (ValueError, KeyError, TypeError):
            continue
        duplicates = sorted(part.trial_ids & merged.trial_ids)
        usable = True
        for trial_id in duplicates:
            record = store.load_trial(trial_id)
            if record is None:
                usable = False
                break
            part.remove_record(record)
        if usable:
            merged.merge(part)
    for trial in trials:
        if trial.trial_id not in merged.trial_ids:
            record = store.load_trial(trial.trial_id)
            if record is not None:
                merged.add_record(record)
    return merged


def aggregate_records(
    records: Sequence[Mapping[str, object]],
    spec: Optional[CampaignSpec] = None,
) -> Dict[str, object]:
    """Fold trial records into the ``summary.json`` structure.

    A batch fold over :class:`CampaignAccumulator` — the streaming runner and
    the queue backend's merged partial summaries produce byte-identical
    structures because they share this accumulator.
    Records with an already-seen trial id are folded once (records are
    deterministic, so dropping the duplicate is exact).
    """
    acc = CampaignAccumulator()
    for record in records:
        acc.add_record(record)
    return acc.finalize(spec=spec)


def group_metric_cells(
    group: Mapping[str, object], metric_names: Sequence[str]
) -> Tuple[int, List[object]]:
    """(n, formatted cells) of one summary group's metric columns.

    The single definition of the metric-cell contract every rendered table
    shares: ``mean±ci95`` per metric, an empty cell for a metric the group
    never recorded, and ``n`` as the max over the group's metrics.
    """
    stats = group["metrics"]
    ns = [s.get("n", 0) for s in stats.values()]
    cells: List[object] = []
    for name in metric_names:
        stat = stats.get(name)
        if not stat or stat.get("n", 0) == 0:
            cells.append("")
        else:
            cells.append(f"{stat['mean']:.4g}±{stat['ci95']:.2g}")
    return (max(ns) if ns else 0), cells


def summary_rows(summary: Mapping[str, object], metrics: Optional[Sequence[str]] = None) -> Tuple[List[str], List[List[object]]]:
    """Flatten a summary into (headers, rows) for ``format_table``.

    One row per group; varied parameters first, then ``mean±ci95`` per metric.
    ``metrics`` selects/orders the metric columns (default: all, sorted).
    """
    groups = summary.get("groups", [])
    if not groups:
        return [], []
    # Only show parameters that actually vary between groups (plus n).
    all_params = sorted({k for g in groups for k in g["params"]})
    varied = [
        k for k in all_params
        if len({canonical_json(g["params"].get(k)) for g in groups}) > 1
    ] or all_params[:1]
    metric_names = list(metrics) if metrics else sorted({m for g in groups for m in g["metrics"]})
    headers = varied + ["n"] + metric_names
    rows: List[List[object]] = []
    for g in groups:
        row: List[object] = [g["params"].get(k, "") for k in varied]
        n, cells = group_metric_cells(g, metric_names)
        row.append(n)
        row.extend(cells)
        rows.append(row)
    return headers, rows
