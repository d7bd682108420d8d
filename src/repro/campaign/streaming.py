"""Aggregation of per-trial metrics into per-configuration summaries.

Trials are grouped by their parameters *minus the seed*: each group is one
cell of the campaign's parameter grid, its seeds the repeated measurements.
Every scalar metric is summarised as mean / sample standard deviation /
95% confidence half-width / min / max / n.  The confidence interval uses the
normal approximation ``1.96 * std / sqrt(n)`` (not Student's t) — campaigns
usually run enough seeds for the difference not to matter, and ``n`` is
reported so a stricter reader can re-derive t-based intervals.

Summaries are built from *accumulators* that fold one record at a time, so
nothing ever holds a campaign's records in memory at once: the runner folds
each record as its backend yields it, and a queue campaign's finalize folds
the entries its workers appended to their partial logs
(``queue/partials/<worker>.jsonl``, one :func:`partial_entry` line per
executed record — see :func:`merge_partial_summaries`).

Exactness contract
------------------
The campaign determinism suite compares serial, pool and queue backends
byte-identically under ``strip_timing`` — which means a summary folded from
worker logs must reproduce the serial summary *to the last bit*, even though
workers append in nondeterministic completion order and the logs are read in
directory order.

Floating-point accumulation cannot deliver that (float addition is not
associative), so :class:`MetricAccumulator` keeps its running first and
second moments exactly.  Every float is an integer over a power of two, so
each moment is one Python ``int`` over a shared ``2**exp``: sums and products
of sample values are exact, exact sums are order-independent, and the single
rounding step happens in :meth:`MetricAccumulator.summary`, where one
``int / int`` division (correctly rounded, like ``float(Fraction)``, which is
defined as that division) converts each exact moment to a float.  The
textbook reason to prefer the Welford recurrence — cancellation in floating
point — therefore vanishes: the moment sums *are* the Welford quantities,
computed without error.  ``tests/campaign/oracle.py`` keeps the
:class:`fractions.Fraction` formulation as the differential reference.

Duplicates
----------
Queue campaigns can execute one trial twice (a claim stolen from a slow —
not dead — worker), putting the same trial into two workers' logs.  Records
are deterministic, so the copies are identical outside ``timing``;
:meth:`CampaignAccumulator.add_record`'s id check drops every copy but the
first.
"""

from __future__ import annotations

import math
from collections.abc import Mapping  # the ABC: this module isinstance-checks against it per record
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


class MetricAccumulator:
    """Exact streaming mean/std/ci95/min/max/n for one metric of one group."""

    __slots__ = ("n", "_exp", "_sum", "_sumsq", "min", "max")

    def __init__(self) -> None:
        self.n = 0
        # Exact moments as scaled integers: the sum of the samples is
        # ``_sum / 2**_exp`` and the sum of their squares ``_sumsq / 4**_exp``.
        self._exp = 0
        self._sum = 0
        self._sumsq = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def update(self, value: float) -> None:
        fv = float(value)
        # A float is an integer over a power of two.  NaN and infinities
        # raise here, before any state changes.
        num, den = fv.as_integer_ratio()
        shift = self._exp - den.bit_length() + 1
        if shift >= 0:
            num <<= shift
        else:  # finer than anything seen so far: rescale the moments
            self._sum <<= -shift
            self._sumsq <<= -2 * shift
            self._exp -= shift
        self.n += 1
        self._sum += num
        self._sumsq += num * num
        if self.min is None or fv < self.min:
            self.min = fv
        if self.max is None or fv > self.max:
            self.max = fv

    def summary(self) -> Dict[str, float]:
        """The ``{mean, std, ci95, min, max, n}`` block of ``summary.json``.

        Edge cases: ``{"n": 0}`` when empty, ``std == ci95 == 0.0`` for a
        single sample.  Mean and variance are each one correctly-rounded
        ``int / int`` division of exact moments, so they do not depend on
        the order the samples arrived in.
        """
        n = self.n
        if n == 0:
            return {"n": 0}
        mean = self._sum / (n << self._exp)
        if n > 1:
            # (sumsq - sum**2 / n) / (n - 1) over one common denominator.
            variance = (n * self._sumsq - self._sum * self._sum) / (
                (n * (n - 1)) << (2 * self._exp)
            )
            std = math.sqrt(variance)
            ci95 = 1.96 * std / math.sqrt(n)
        else:
            std = 0.0
            ci95 = 0.0
        return {
            "mean": mean,
            "std": std,
            "ci95": ci95,
            "min": self.min,
            "max": self.max,
            "n": n,
        }


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
        axes = scenario.get("ignored_axes")
        if not axes or not isinstance(axes, (list, tuple)):
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

    def summary(self) -> Dict[str, Dict[str, object]]:
        return {
            base_kind: {"axes": sorted(axes), "n_trials": count}
            for base_kind, (axes, count) in sorted(self.by_kind.items())
        }


def _checked_fields(record: Mapping[str, object]) -> Tuple[Mapping[str, object], Dict[str, float]]:
    """``(params, {metric: float})`` of a record — or a raise.

    The validate half of validate-then-commit: everything about a record
    that can fail a fold (``params`` not a mapping, a metric that is not a
    finite number) fails here, before any accumulator state has changed.
    """
    params = record["params"]
    metrics = record.get("metrics") or {}
    if not isinstance(params, Mapping) or not isinstance(metrics, Mapping):
        raise TypeError(
            f"trial {record.get('trial_id')!r}: params and metrics must be mappings"
        )
    values: Dict[str, float] = {}
    for name, value in metrics.items():
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(
                f"trial {record.get('trial_id')!r}: metric {name!r} is {number}"
            )
        values[name] = number
    return params, values


class GroupAccumulator:
    """All metric accumulators of one grid cell, plus its trial roster."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.params: Dict[str, object] = {}
        # trial_id -> seed; the roster that orders seeds/trial_ids at finalize.
        self.trial_seeds: Dict[str, object] = {}
        self.metrics: Dict[str, MetricAccumulator] = {}

    def add_record(self, record: Mapping[str, object]) -> None:
        self.fold(str(record["trial_id"]), *_checked_fields(record))

    def fold(
        self, trial_id: str, params: Mapping[str, object], values: Mapping[str, float]
    ) -> None:
        """The commit half: fold one trial's already-validated fields in."""
        if not self.params:
            self.params = {k: v for k, v in params.items() if k != "seed"}
        self.trial_seeds[trial_id] = params.get("seed")
        for name, value in values.items():
            acc = self.metrics.get(name)
            if acc is None:
                acc = self.metrics[name] = MetricAccumulator()
            acc.update(value)

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


class CampaignAccumulator:
    """One campaign's summary under construction, folded record by record.

    ``finalize`` emits exactly the structure ``aggregate_records`` always
    wrote; because the per-metric math is exact, the same trial set folded
    in any order — the serial runner's, or whatever order the workers' logs
    happen to hold — produces byte-identical summaries (after
    ``strip_timing`` — the timing block keeps honest float wall-clock, which
    differs by construction).
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

        Validate, then commit: a malformed record raises before anything is
        touched — no half-updated group, and its id stays unaccounted, so a
        later good copy of the same trial is still folded.
        """
        trial_id = str(record["trial_id"])
        if trial_id in self._trial_ids:
            return False
        params, values = _checked_fields(record)
        key = group_key(params)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = GroupAccumulator(key)
        group.fold(trial_id, params, values)
        self.timing.add_record(record)
        self.ignored_axes.add_record(record)
        self._trial_ids.add(trial_id)
        return True

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


def partial_entry(record: Mapping[str, object]) -> Dict[str, object]:
    """The line a worker logs for a record it executed: what the fold reads.

    That is the record minus ``detail`` (by far its largest part, and nothing
    the accumulators above look at) — except the two ``detail.scenario``
    fields :class:`IgnoredAxesAccumulator` rolls up, kept as a stub when the
    trial did ignore axes.  An entry therefore folds through
    ``add_record`` exactly like the record it was cut from.
    """
    entry = {key: value for key, value in record.items() if key != "detail"}
    ignored = IgnoredAxesAccumulator._ignored(record)
    if ignored is not None:
        base_kind, axes = ignored
        entry["detail"] = {"scenario": {"base_kind": base_kind, "ignored_axes": axes}}
    return entry


def fold_partial_logs(store, trial_ids, accumulator: CampaignAccumulator) -> None:
    """Fold every usable entry of the workers' partial logs into ``accumulator``.

    Usable means: the line parses, names a trial in ``trial_ids`` (a log can
    outlive an edit of the spec) and passes ``add_record``'s validation.
    Anything else — the torn tail line of a worker killed mid-append, a
    hand-edited line — is skipped, which is always safe: the record itself
    is on disk (it is written before its log line) and whoever needs the
    trial reads that instead.  Duplicates across logs (claim-steal double
    executions) are dropped by ``add_record``'s id check.
    """
    for path in store.list_partials():
        for entry in store.load_partial(path):
            if str(entry.get("trial_id")) not in trial_ids:
                continue
            try:
                accumulator.add_record(entry)
            except (KeyError, TypeError, ValueError):
                continue


def merge_partial_summaries(
    store, trials, accumulator: Optional[CampaignAccumulator] = None
) -> CampaignAccumulator:
    """Complete a campaign accumulator from worker logs, then from records.

    ``store`` is the campaign's :class:`~repro.campaign.persistence
    .CampaignStore`; ``trials`` the spec's expanded
    :class:`~repro.campaign.spec.TrialSpec` list; ``accumulator`` whatever
    the runner has folded already (resume-probed and yielded records).  The
    workers' logs are folded first (:func:`fold_partial_logs`); any spec
    trial still unaccounted — no log names it (serial and pool campaigns have
    no logs at all), its worker died mid-append, its line was unusable — is
    topped up from its record with a *targeted* load, never a wholesale
    re-read.
    """
    merged = CampaignAccumulator() if accumulator is None else accumulator
    fold_partial_logs(store, {trial.trial_id for trial in trials}, merged)
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
