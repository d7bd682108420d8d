#!/usr/bin/env python
"""Object-vs-array ring-kernel microbenchmark and perf gate.

Times the kernel-bound hot paths (ring build, successor resolution, a churn
epoch with targeted finger rebuilds) under both kernels at the same size,
reports per-op speedups, and optionally runs the 10^5-node Table 3 /
Fig 7(a) scale check on the default kernel (no ``kernel=`` passed).

This is the repo's first perf-trajectory benchmark: its JSON output is
committed as ``BENCH_kernel.json`` and CI re-runs the benchmark with
``--check-against BENCH_kernel.json``, failing when any gated op's speedup
falls more than ``--tolerance`` (default 25%) below the committed baseline.
Gating compares speedup *ratios*, not absolute seconds, so it is stable
across runner hardware.

Usage::

    python benchmarks/bench_kernel.py --out BENCH_kernel.json
    python benchmarks/bench_kernel.py --check-against BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.chord.ring import ChordRing, RingConfig
from repro.sim.rng import RandomSource

KERNELS = ("object", "array")


def best_of(repeats, fn, *args):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def build_ring(n_nodes, kernel):
    config = RingConfig(
        n_nodes=n_nodes, fraction_malicious=0.2, finger_count=12, id_bits=32, seed=0, kernel=kernel
    )
    return ChordRing.build(config=config, rng=RandomSource(0))


def op_ring_build(n_nodes, kernel):
    build_ring(n_nodes, kernel)


def op_successor_batch(ring, n_queries=20_000):
    rnd = random.Random(1)
    size = ring.space.size
    for _ in range(n_queries):
        ring.true_successor(rnd.randrange(size))


def op_churn_epoch(ring, n_events=300):
    """Depart+rejoin cycles with targeted finger rebuilds and the fraction
    metrics the security harness samples between events."""
    rnd = random.Random(2)
    ids = ring.all_ids()
    for _ in range(n_events):
        victim = rnd.choice(ids)
        ring.mark_dead(victim)
        ring.fraction_malicious_alive()
        ring.remaining_malicious_fraction()
        ring.mark_alive(victim)


def run_ops(n_nodes, repeats):
    """Per-op best-of-``repeats`` seconds for both kernels."""
    ops = {}

    timings = {k: best_of(repeats, op_ring_build, n_nodes, k) for k in KERNELS}
    # Build is dominated by node construction, not the kernel: informational.
    ops["ring_build"] = {"gate": False, **timings}

    rings = {k: build_ring(n_nodes, k) for k in KERNELS}
    ops["successor_batch"] = {
        "gate": True,
        **{k: best_of(repeats, op_successor_batch, rings[k]) for k in KERNELS},
    }
    ops["churn_epoch"] = {
        "gate": True,
        **{k: best_of(repeats, op_churn_epoch, rings[k]) for k in KERNELS},
    }

    for op in ops.values():
        op["object_s"] = round(op.pop("object"), 6)
        op["array_s"] = round(op.pop("array"), 6)
        op["speedup"] = round(op["object_s"] / op["array_s"], 2) if op["array_s"] else math.inf
    return ops


def run_scale_check(n_nodes):
    """The 10^5-node Table 3 / Fig 7(a) run on whatever kernel is the default."""
    from repro.campaign import get_experiment

    t0 = time.perf_counter()
    result = get_experiment("efficiency").run(
        {"n_nodes": n_nodes, "lookups_per_scheme": 5, "seed": 0}
    )
    elapsed = time.perf_counter() - t0
    rows = result.table3_rows()
    return {
        "n_nodes": n_nodes,
        "kernel": result.config.kernel,
        "elapsed_s": round(elapsed, 2),
        "table3_schemes": [row["scheme"] for row in rows],
        "fig7a_cdf_points": {
            name: len(scheme.latency_cdf) for name, scheme in result.schemes.items()
        },
    }


def check_against(report, baseline_path, tolerance):
    """Fail when a gated op's speedup regressed > tolerance vs the baseline."""
    baseline = json.loads(Path(baseline_path).read_text())
    failures = []
    for name, op in report["ops"].items():
        if not op["gate"]:
            continue
        base_op = baseline.get("ops", {}).get(name)
        if base_op is None:
            continue
        floor = base_op["speedup"] * (1.0 - tolerance)
        if op["speedup"] < floor:
            failures.append(
                f"{name}: speedup {op['speedup']:.1f}x < {floor:.1f}x "
                f"(baseline {base_op['speedup']:.1f}x - {tolerance:.0%})"
            )
    base_geo = baseline.get("geomean_speedup")
    if base_geo and report["geomean_speedup"] < base_geo * (1.0 - tolerance):
        failures.append(
            f"geomean: {report['geomean_speedup']:.1f}x < "
            f"{base_geo * (1.0 - tolerance):.1f}x (baseline {base_geo:.1f}x - {tolerance:.0%})"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--nodes", type=int, default=10_000, help="ring size for the op benchmarks")
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats per op")
    parser.add_argument("--scale-nodes", type=int, default=100_000, help="size of the Table 3 / Fig 7(a) scale run")
    parser.add_argument("--skip-scale", action="store_true", help="skip the 10^5-node scale run")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    parser.add_argument("--check-against", type=Path, default=None, help="baseline BENCH_kernel.json to gate on")
    parser.add_argument("--tolerance", type=float, default=0.25, help="allowed fractional speedup regression")
    args = parser.parse_args(argv)

    ops = run_ops(args.nodes, args.repeats)
    gated = [op["speedup"] for op in ops.values() if op["gate"]]
    report = {
        "bench": "kernel",
        "n_nodes": args.nodes,
        "repeats": args.repeats,
        "ops": ops,
        "geomean_speedup": round(math.exp(sum(math.log(s) for s in gated) / len(gated)), 2),
    }
    if not args.skip_scale:
        report["scale_run"] = run_scale_check(args.scale_nodes)

    for name, op in ops.items():
        gate = "gated" if op["gate"] else "info "
        print(
            f"{name:16s} [{gate}] object={op['object_s']:.4f}s "
            f"array={op['array_s']:.4f}s speedup={op['speedup']:.1f}x"
        )
    print(f"geomean speedup (gated ops): {report['geomean_speedup']:.1f}x")
    if "scale_run" in report:
        scale = report["scale_run"]
        print(
            f"scale run: Table 3 / Fig 7(a) at N={scale['n_nodes']} on the default "
            f"({scale['kernel']}) kernel in {scale['elapsed_s']}s ({', '.join(scale['table3_schemes'])})"
        )

    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.check_against:
        failures = check_against(report, args.check_against, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF GATE FAIL: {failure}")
            return 1
        print(f"perf gate OK (within {args.tolerance:.0%} of {args.check_against})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
