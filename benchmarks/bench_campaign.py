#!/usr/bin/env python
"""Campaign-fleet scaling benchmark and perf gate: is a campaign O(T)?

Runs campaigns of a self-registered no-op kind (16 scalar metrics per trial,
zero trial cost — persistence, claims, partial logs and exact aggregation are
all there is to measure) through the ``queue`` and ``serial`` backends at
T = 180 / 720 / 2880 trials and reports the user-mode CPU milliseconds each
trial cost, normalised by a fixed reference loop run around every campaign
(the ``benchmarks/e2e`` method: a busy neighbour slows the loop and the
campaign alike, and the quotient stays put).

The gated number is a ratio, so it survives a change of host:

    scaling_ratio = per_trial(2880) / per_trial(180)      (queue backend)

A fleet that pays per record stays near 1 (a little under: the fixed cost of
a campaign is spread over more trials); one that pays per record *for
everything done so far* — a whole-state rewrite per record, a directory
listing per claim — grows with T (4.3 before the partial logs).  The run
fails when the ratio exceeds ``MAX_SCALING_RATIO``, when a queue summary's
digest differs from the serial backend's at any T, and, with
``--check-against BENCH_campaign.json``, when the ratio is more than
``--tolerance`` above the committed one.

Usage::

    python benchmarks/bench_campaign.py --out BENCH_campaign.json [--parent-report parent.json]
    python benchmarks/bench_campaign.py --check-against BENCH_campaign.json --tolerance 0.5
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.campaign import (
    CampaignSpec,
    ExperimentAdapter,
    register_experiment,
    run_campaign,
    strip_timing,
)

KIND = "bench-campaign-noop"
N_METRICS = 16
CELLS = 4
SIZES = (180, 720, 2880)
BACKENDS = ("queue", "serial")
#: the acceptance threshold: per-trial cost may grow by at most half over a 16x larger campaign.
MAX_SCALING_RATIO = 1.5
#: CPU seconds of the reference loop on the host the numbers are quoted for.
REFERENCE_LOOP_S = 0.038
REFERENCE_ITERATIONS = 600_000


@dataclass
class NoopConfig:
    cell: int = 0
    seed: int = 0


class NoopResult:
    def __init__(self, config: NoopConfig) -> None:
        self.config = config
        draw = random.Random(config.seed * 1_000_003 + config.cell)
        self.metrics = {f"m{i:02d}": i + draw.random() for i in range(N_METRICS)}

    def scalar_metrics(self):
        return dict(self.metrics)

    def to_dict(self):
        return {"config": {"cell": self.config.cell, "seed": self.config.seed}, "metrics": self.scalar_metrics()}


def run_noop(config: NoopConfig) -> NoopResult:
    return NoopResult(config)


def reference_loop_s() -> float:
    """CPU seconds the fixed reference loop takes right now: the host's speed."""
    started = time.thread_time()
    x = 0
    for i in range(REFERENCE_ITERATIONS):
        x += i * i % 7
    return time.thread_time() - started


def run_one(backend: str, n_trials: int, work_dir: str) -> dict:
    """One fresh campaign: speed-adjusted user CPU seconds and the summary digest."""
    spec = CampaignSpec(
        name="bench-campaign", kind=KIND, grid={"cell": list(range(CELLS))}, seeds=tuple(range(n_trials // CELLS))
    )
    out_dir = tempfile.mkdtemp(prefix=f"{backend}-{n_trials}-", dir=work_dir)
    try:
        ref_before = reference_loop_s()
        user_before = resource.getrusage(resource.RUSAGE_SELF).ru_utime
        report = run_campaign(spec, out_dir, backend=backend)
        user_s = resource.getrusage(resource.RUSAGE_SELF).ru_utime - user_before
        ref_s = (ref_before + reference_loop_s()) / 2.0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    assert report.n_executed == n_trials, (report.n_executed, n_trials)
    canonical = json.dumps(strip_timing(report.summary), sort_keys=True)
    return {
        "cpu_s": user_s * REFERENCE_LOOP_S / ref_s,
        "digest": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def measure(rounds: int, work_dir: str) -> dict:
    """Every backend at every size, ``rounds`` times in turns; medians per cell."""
    runs = {(backend, size): [] for backend in BACKENDS for size in SIZES}
    for _ in range(rounds):
        for key in runs:
            runs[key].append(run_one(*key, work_dir))
    backends = {}
    for backend in BACKENDS:
        sizes = {}
        for size in SIZES:
            cpu_s = statistics.median(run["cpu_s"] for run in runs[(backend, size)])
            sizes[str(size)] = {
                "cpu_s": round(cpu_s, 4),
                "per_trial_ms": round(1e3 * cpu_s / size, 4),
                "digest": runs[(backend, size)][0]["digest"],
            }
        per_trial = [sizes[str(size)]["per_trial_ms"] for size in SIZES]
        backends[backend] = {"sizes": sizes, "scaling_ratio": round(per_trial[-1] / per_trial[0], 3)}
    return backends


def failures_of(report: dict, baseline: dict, tolerance: float) -> list:
    failures = []
    for size in map(str, SIZES):
        digests = {report["backends"][backend]["sizes"][size]["digest"] for backend in BACKENDS}
        if len(digests) != 1:
            failures.append(f"T={size}: queue and serial summaries differ under strip_timing")
    ratio = report["backends"]["queue"]["scaling_ratio"]
    if ratio > MAX_SCALING_RATIO:
        failures.append(
            f"queue per_trial({SIZES[-1]}) / per_trial({SIZES[0]}) = {ratio:.2f} > {MAX_SCALING_RATIO} "
            "(per-trial cost grows with the campaign)"
        )
    if baseline:
        committed = baseline["backends"]["queue"]["scaling_ratio"]
        if ratio > committed * (1.0 + tolerance):
            failures.append(
                f"queue scaling ratio {ratio:.2f} > {committed * (1.0 + tolerance):.2f} "
                f"(baseline {committed:.2f} + {tolerance:.0%})"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rounds", type=int, default=3, help="campaigns per backend and size (median reported)")
    parser.add_argument("--out", type=Path, default=None, help="write the JSON report here")
    parser.add_argument("--check-against", type=Path, default=None, help="baseline BENCH_campaign.json to gate on")
    parser.add_argument("--tolerance", type=float, default=0.25, help="allowed fractional rise of the scaling ratio")
    parser.add_argument("--parent-report", type=Path, default=None,
                        help="a report of this script run on the parent commit: copied in under 'parent'")
    args = parser.parse_args(argv)

    register_experiment(ExperimentAdapter(KIND, NoopConfig, run_noop, "bench_campaign no-op trial"), replace=True)
    scratch = ROOT / ".bench_build"  # the ignored scratch directory benchmarks/e2e uses too
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="bench-campaign-", dir=scratch)
    try:
        backends = measure(args.rounds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    report = {
        "bench": "campaign",
        "rounds": args.rounds,
        "reference_loop_s": REFERENCE_LOOP_S,
        "max_scaling_ratio": MAX_SCALING_RATIO,
        "backends": backends,
    }
    if args.parent_report:
        report["parent"] = json.loads(args.parent_report.read_text())["backends"]

    print(f"{'backend':8s} " + " ".join(f"{'T=' + str(size):>16s}" for size in SIZES) + "   ratio")
    for backend in BACKENDS:
        cells = backends[backend]["sizes"]
        row = " ".join(
            f"{cells[str(size)]['per_trial_ms']:7.3f} ms/trial" for size in SIZES
        )
        print(f"{backend:8s} {row}   {backends[backend]['scaling_ratio']:.2f}")
    biggest = backends["queue"]["sizes"][str(SIZES[-1])]
    print(f"queue T={SIZES[-1]}: {biggest['cpu_s']:.2f} CPU-s (speed-adjusted user time)")

    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    baseline = json.loads(args.check_against.read_text()) if args.check_against else None
    failures = failures_of(report, baseline, args.tolerance)
    for failure in failures:
        print(f"PERF GATE FAIL: {failure}")
    if not failures:
        against = f", within {args.tolerance:.0%} of {args.check_against}" if baseline else ""
        print(f"perf gate OK (scaling ratio <= {MAX_SCALING_RATIO}, digests equal{against})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
