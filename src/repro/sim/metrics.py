"""Metric collection helpers: counters, time series and distribution summaries.

Experiments record their outputs through these classes so that benchmark
harnesses can print paper-style rows (means, medians, CDFs, fractions over
time) from a single uniform interface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of raw samples, ``pct`` in [0, 100].

    Uses the standard ``rank = pct/100 * (n - 1)`` convention (NumPy's
    ``linear`` interpolation): the 0th percentile is the minimum, the 100th
    the maximum, and intermediate ranks interpolate between the two nearest
    order statistics.  Canonical implementation — :class:`Histogram` and
    :mod:`repro.experiments.results` both delegate here.
    """
    if not values:
        return float("nan")
    if not 0.0 <= pct <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    return _percentile_of_sorted(sorted(values), pct)


def _percentile_of_sorted(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` for already-sorted samples (lets callers that need
    many percentiles of the same data, like a CDF, sort once)."""
    if len(ordered) == 1:
        return ordered[0]
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class TimeSeries:
    """An append-only series of ``(time, value)`` samples."""

    name: str = ""
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("time series samples must be appended in time order")
        self.times.append(float(time))
        self.values.append(float(value))

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Optional[float]:
        return self.values[-1] if self.values else None

    def value_at(self, time: float) -> Optional[float]:
        """Most recent value at or before ``time`` (step interpolation)."""
        idx = bisect_right(self.times, time) - 1
        if idx < 0:
            return None
        return self.values[idx]

    def resample(self, times: Sequence[float]) -> List[Optional[float]]:
        """Step-interpolate the series onto the given time grid."""
        return [self.value_at(t) for t in times]

    def as_pairs(self) -> List[Tuple[float, float]]:
        return list(zip(self.times, self.values))


@dataclass
class Counter:
    """A named monotonically non-decreasing counter."""

    name: str = ""
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for decrements")
        self.value += amount


class Histogram:
    """Collects scalar samples and reports summary statistics and CDFs."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def record(self, value: float) -> None:
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.record(v)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def mean(self) -> float:
        if not self._samples:
            return float("nan")
        return sum(self._samples) / len(self._samples)

    def median(self) -> float:
        return self.percentile(50.0)

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile, ``pct`` in [0, 100]."""
        return percentile(self._samples, pct)

    def stddev(self) -> float:
        if len(self._samples) < 2:
            return 0.0
        mu = self.mean()
        var = sum((x - mu) ** 2 for x in self._samples) / (len(self._samples) - 1)
        return math.sqrt(var)

    def cdf(self, n_points: int = 50) -> List[Tuple[float, float]]:
        """Return ``n_points`` (value, cumulative-fraction) pairs.

        Each point is the canonical :func:`percentile` of the samples at the
        cumulative fraction — NOT an ``int(round(frac * n)) - 1`` index into
        the order statistics, which skips/duplicates samples whenever the
        number of CDF points differs from the sample count (worst at small n).
        """
        if not self._samples:
            return []
        ordered = sorted(self._samples)
        return [
            (_percentile_of_sorted(ordered, 100.0 * i / n_points), i / n_points)
            for i in range(1, n_points + 1)
        ]


class MetricsRegistry:
    """Registry of named counters, time series and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._series: Dict[str, TimeSeries] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._bucketed: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name=name)
        return self._counters[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            self._series[name] = TimeSeries(name=name)
        return self._series[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name=name)
        return self._histograms[name]

    def bucket_increment(self, name: str, time: float, width: float, amount: float = 1.0) -> None:
        """Accumulate ``amount`` into the time bucket containing ``time``."""
        if width <= 0:
            raise ValueError("bucket width must be positive")
        bucket = int(time // width)
        self._bucketed[name][bucket] += amount

    def buckets(self, name: str, width: float) -> List[Tuple[float, float]]:
        """Return sorted ``(bucket_start_time, total)`` pairs for a bucketed metric."""
        data = self._bucketed.get(name, {})
        return [(bucket * width, total) for bucket, total in sorted(data.items())]

    def snapshot(self) -> Dict[str, float]:
        """Flat snapshot of all counters (for quick assertions in tests)."""
        return {name: c.value for name, c in self._counters.items()}
