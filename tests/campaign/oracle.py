"""The ``fractions.Fraction`` formulation of the exact metric accumulator.

This is ``repro.campaign.streaming.MetricAccumulator`` as it stood before
its moments became scaled integers, moved here verbatim (``__init__``,
``update``, ``summary``; ``merge`` / ``remove`` / the state round-trip were
deleted with their last callers).  It constructs a ``Fraction`` and runs a
gcd per sample, which is why ``src`` no longer does — and it is the obvious
formulation, which is why the tests compare the integer one against it bit
for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional


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
