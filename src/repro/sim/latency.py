"""Wide-area latency model.

The paper estimates pairwise latencies from the King dataset (measured RTTs
between Internet DNS servers, average RTT ~182 ms, strongly heterogeneous).
The dataset itself is not redistributable, so this module provides
:class:`KingLatencyModel`, a synthetic stand-in calibrated to the published
statistics:

* mean round-trip time ~182 ms,
* heavy-tailed, heterogeneous per-pair latencies (log-normal mixture of
  "continental" and "intercontinental" pairs),
* per-message jitter of ``min(10 ms, 10% of the transmission latency)``
  following Acharya & Saltz, as used in Section 4.7 of the paper.

Latencies returned by the model are **one-way** delays (RTT / 2).
"""

from __future__ import annotations

import math
import random
from typing import Dict, Optional, Tuple

from .rng import RandomSource, derive_seed

#: Mean RTT of the King dataset reported by the paper (seconds).
KING_MEAN_RTT = 0.182

#: Default fraction of node pairs treated as "intercontinental" (long) paths.
DEFAULT_LONG_PATH_FRACTION = 0.35


class LatencyModel:
    """Interface for pairwise latency models."""

    def one_way(self, src: int, dst: int) -> float:
        """Deterministic one-way propagation delay between two nodes (seconds)."""
        raise NotImplementedError

    def rtt(self, src: int, dst: int) -> float:
        """Round-trip time between two nodes (seconds)."""
        return self.one_way(src, dst) + self.one_way(dst, src)

    def sample_delay(self, src: int, dst: int, rng) -> float:
        """One-way delay including jitter for a single message."""
        base = self.one_way(src, dst)
        return base + self.jitter(base, rng)

    def jitter(self, base: float, rng) -> float:
        """Per-message jitter; subclasses may override."""
        return 0.0


class ConstantLatencyModel(LatencyModel):
    """All pairs separated by the same one-way delay (useful for unit tests)."""

    def __init__(self, one_way_delay: float = 0.05) -> None:
        if one_way_delay < 0:
            raise ValueError("delay must be non-negative")
        self.one_way_delay = float(one_way_delay)

    def one_way(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        return self.one_way_delay


class KingLatencyModel(LatencyModel):
    """Synthetic King-like heterogeneous latency matrix.

    Pairwise base RTTs are drawn lazily and memoised so that the model scales
    to hundreds of thousands of logical nodes without materialising an O(N^2)
    matrix.  The draw for a pair ``(a, b)`` is symmetric and derived
    deterministically from the model seed, so two models with the same seed
    agree on every pair.

    Parameters
    ----------
    seed:
        Seed for the latency substreams.
    mean_rtt:
        Target mean RTT in seconds (default: the King dataset's 182 ms).
    long_path_fraction:
        Fraction of pairs drawn from the long (intercontinental) mixture
        component.
    jitter_cap:
        Maximum jitter in seconds (paper: 10 ms).
    jitter_fraction:
        Jitter as a fraction of the base latency (paper: 10%).
    """

    def __init__(
        self,
        seed: int = 0,
        mean_rtt: float = KING_MEAN_RTT,
        long_path_fraction: float = DEFAULT_LONG_PATH_FRACTION,
        jitter_cap: float = 0.010,
        jitter_fraction: float = 0.10,
        cache_limit: int = 2_000_000,
    ) -> None:
        if not 0.0 <= long_path_fraction <= 1.0:
            raise ValueError("long_path_fraction must be in [0, 1]")
        if mean_rtt <= 0:
            raise ValueError("mean_rtt must be positive")
        self.seed = int(seed)
        self.mean_rtt = float(mean_rtt)
        self.long_path_fraction = float(long_path_fraction)
        self.jitter_cap = float(jitter_cap)
        self.jitter_fraction = float(jitter_fraction)
        self.cache_limit = int(cache_limit)
        self._rng_source = RandomSource(seed)
        self._cache: Dict[Tuple[int, int], float] = {}

        # Mixture calibration: short paths ~ lognormal around 60 ms RTT,
        # long paths ~ lognormal around the value that makes the overall mean
        # equal to ``mean_rtt``.
        self._short_median = 0.060
        self._short_sigma = 0.45
        short_mean = self._short_median * math.exp(self._short_sigma**2 / 2.0)
        p = self.long_path_fraction
        if p > 0:
            long_mean = (self.mean_rtt - (1.0 - p) * short_mean) / p
            long_mean = max(long_mean, short_mean * 1.5)
        else:
            long_mean = self.mean_rtt
        self._long_sigma = 0.35
        self._long_median = long_mean / math.exp(self._long_sigma**2 / 2.0)

    # ------------------------------------------------------------------ pairs
    def _pair_key(self, src: int, dst: int) -> Tuple[int, int]:
        return (src, dst) if src <= dst else (dst, src)

    def _draw_rtt(self, key: Tuple[int, int]) -> float:
        # Not a registered stream: that would outlive the draw, one per pair.
        stream = random.Random(derive_seed(self.seed, f"pair:{key[0]}:{key[1]}"))
        if stream.random() < self.long_path_fraction:
            rtt = stream.lognormvariate(math.log(self._long_median), self._long_sigma)
        else:
            rtt = stream.lognormvariate(math.log(self._short_median), self._short_sigma)
        # Clamp to a plausible WAN range: 2 ms .. 1.5 s RTT.
        return min(max(rtt, 0.002), 1.5)

    def base_rtt(self, src: int, dst: int) -> float:
        """Deterministic base RTT between two endpoints (seconds)."""
        if src == dst:
            return 0.0
        key = self._pair_key(src, dst)
        rtt = self._cache.get(key)
        if rtt is None:
            rtt = self._draw_rtt(key)
            if len(self._cache) < self.cache_limit:
                self._cache[key] = rtt
        return rtt

    def one_way(self, src: int, dst: int) -> float:
        return self.base_rtt(src, dst) / 2.0

    def jitter(self, base: float, rng) -> float:
        """Per-message jitter: uniform in [0, min(cap, fraction * base)]."""
        window = min(self.jitter_cap, self.jitter_fraction * base)
        if window <= 0:
            return 0.0
        return rng.uniform(0.0, window)

    # -------------------------------------------------------------- statistics
    def empirical_mean_rtt(self, n_pairs: int = 2000, rng: Optional[object] = None) -> float:
        """Estimate the mean RTT over ``n_pairs`` random node pairs."""
        stream = rng or self._rng_source.stream("empirical")
        total = 0.0
        for i in range(n_pairs):
            a = stream.randrange(1 << 30)
            b = stream.randrange(1 << 30)
            if a == b:
                b += 1
            total += self.base_rtt(a, b)
        return total / n_pairs
