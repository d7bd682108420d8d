"""Slow tier: the 10^5-node paths the array kernel exists for.

These are the ISSUE's production-scale acceptance runs — Table 3 / Fig 7(a)
(the efficiency experiment) on a 100,000-node ring, and the anonymity
model's greedy lookups at the paper's 100,000-node scale — exercised end to
end on the array kernel.  Run with ``pytest --run-slow -m slow``; the
nightly workflow does.
"""

from __future__ import annotations

import random

import pytest

from repro.anonymity.ring_model import LightweightRing
from repro.campaign import get_experiment

pytestmark = pytest.mark.slow


def test_table3_fig7a_at_1e5_nodes_on_array_kernel():
    """A full efficiency run (Table 3 rows + Fig 7(a) CDFs) at N=100,000."""
    result = get_experiment("efficiency").run(
        {"n_nodes": 100_000, "lookups_per_scheme": 5, "kernel": "array", "seed": 0}
    )
    rows = result.table3_rows()
    assert [row["scheme"] for row in rows] == ["octopus", "chord", "halo"]
    for row in rows:
        assert row["mean_latency_s"] > 0
        assert row["median_latency_s"] > 0
    for scheme in ("octopus", "chord", "halo"):
        cdf = result.schemes[scheme].latency_cdf
        assert cdf, f"{scheme} Fig 7(a) CDF is empty"
        fractions = [frac for _, frac in cdf]
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def test_efficiency_kernels_agree_at_1e4_nodes():
    """Differential check at the first 'slow' size: 10^4 nodes."""
    from cases import strip_kernel

    from repro.campaign import canonical_json, strip_timing

    views = {}
    for kernel in ("object", "array"):
        result = get_experiment("efficiency").run(
            {"n_nodes": 10_000, "lookups_per_scheme": 4, "kernel": kernel, "seed": 1}
        )
        views[kernel] = canonical_json(strip_kernel(strip_timing(result.to_dict())))
    assert views["object"] == views["array"]


def test_lightweight_paths_at_1e5_nodes():
    """The anonymity model's greedy lookups at the paper's 100,000 nodes."""
    ring = LightweightRing(n_nodes=100_000, fraction_malicious=0.2, seed=0)
    rnd = random.Random(0)
    hop_counts = []
    for _ in range(200):
        initiator, target = rnd.randrange(100_000), rnd.randrange(100_000)
        path = ring.query_path_positions(initiator, target)
        if initiator != target:
            assert path, "greedy lookup found no path"
            assert path[-1] in (target, (target - 1) % 100_000)
        hop_counts.append(len(path))
    # O(log N) routing: mean hops should land well under 2*log2(N) ~ 33.
    assert sum(hop_counts) / len(hop_counts) < 34
