"""End-to-end, layer-attributed benchmark of the Octopus reproduction.

One command::

    python3 benchmarks/e2e/run.py [--seed 0] [--workload NAME] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selftest

runs the named workloads, prints every metric by name with its unit, checks
the outputs and exits non-zero when a check fails.  With ``--trace`` the last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics for ``--trace 0``, the
per-layer metrics for ``--trace 1``.  Metric names, units and bounds are read
from ``BENCHMARK.json`` at the root of the checkout; see ``README.md`` here
for what each one means and why the protocol is what it is.

This is a host-time benchmark of a deterministic simulator.  It touches no
file under ``src/``: end-to-end numbers come from timing public entry
points, per-layer numbers from a separate traced pass (``tracing.py``).

Protocol, identical on every commit: each pass runs in a fresh child
interpreter (``PYTHONHASHSEED=0``), one at a time.  Per workload: ``REPEATS``
sampler children, each of which sets the workload up once (``setup_s``) and
then times the untraced call sequence in forked copies of itself until its
share of ``--seconds`` is used; one traced child that does the same but
alternates untraced runs with runs under the span wrappers; one counted pass.
The bounded host-time metrics count CPU seconds in user mode; wall-clock and
kernel time ride along per-layer, because on a shared virtual disk they say
more about the neighbours than about the code.  A shared host also changes
speed under the benchmark (a busy neighbour costs a third, for half a minute
at a time), so every sample is bracketed by a fixed reference loop and counted
in seconds of a host on which that loop takes ``REFERENCE_LOOP_S``; a host
time is the *median* of its speed-adjusted samples, as ``setup_s`` and
``peak_rss_mb`` are medians of theirs.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import compare
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: scratch of the benchmark inside the checkout: campaign and selftest temp dirs
BUILD = ROOT / ".bench_build"
BASELINE = HERE / "baseline" / "run-a.json"

REPEATS = 5
#: rounds of forked runs one sampler child makes at most
MAX_ROUNDS_PER_SAMPLER = 8
#: CPU seconds of ``workloads.reference_loop_s`` on the host at its undisturbed
#: speed when the baseline was taken: the speed host times are adjusted to
REFERENCE_LOOP_S = 0.038
HASH_SEED = "0"
MIN_COVERAGE = 0.90
#: one invocation with ``--workload`` must end well inside the driver's 180 s
WORKLOAD_DEADLINE_S = 170.0

#: simulated-time statistics that exist on some workloads only, so they cannot
#: be ``end_to_end`` entries of BENCHMARK.json (every entry there must be a
#: non-zero number on every workload).  Full runs report them with ``null``
#: where not applicable and ``--compare`` applies these bounds; ``--trace 1``
#: carries them as ``experiments.sim_latency_*`` with 0 for "not applicable".
SIM_METRICS = (
    {"name": "sim_latency_p50_s", "unit": "sim_s", "better": "lower", "bound": 0.05},
    {"name": "sim_latency_p90_s", "unit": "sim_s", "better": "lower", "bound": 0.10},
)


class BenchmarkError(Exception):
    """The benchmark could not be carried out (as opposed to: a check failed)."""


def load_contract() -> Dict[str, object]:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


# ------------------------------------------------------------------- children
def build() -> None:
    """Byte-compile ``src/repro`` and this directory (the build of a checkout).

    Children run with ``PYTHONDONTWRITEBYTECODE=1`` and only read the
    ``__pycache__`` written here, so ``setup_s`` neither pays a recompile in
    every child nor depends on which earlier command happened to leave
    bytecode in the tree.  Up-to-date files are skipped.
    """
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        raise BenchmarkError(f"{source} is missing: nothing to benchmark in this directory")
    for directory in (source, HERE):
        if not compileall.compile_dir(str(directory), quiet=2):
            raise BenchmarkError(f"byte-compiling {directory} failed")


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("REPRO_PROFILE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(
        PYTHONHASHSEED=HASH_SEED,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


class Children:
    """Starts passes one after another (never two at once: ``nproc`` is 2)."""

    def __init__(self, workload: str, seed: int, toy: bool, work_dir: str, deadline: float) -> None:
        self.job = {"root": str(ROOT), "workload": workload, "seed": seed, "toy": toy, "work_dir": work_dir}
        self.deadline = deadline
        self.env = child_env()

    def run(self, mode: str, **extra: object) -> Dict[str, object]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchmarkError(f"{self.job['workload']}: out of time before the {mode} pass")
        command = [sys.executable, str(HERE / "child.py"), json.dumps({**self.job, "mode": mode, **extra})]
        try:
            done = subprocess.run(
                command, env=self.env, cwd=str(ROOT), capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"{self.job['workload']}: {mode} pass timed out") from exc
        if done.returncode != 0:
            raise BenchmarkError(
                f"{self.job['workload']}: {mode} pass exited with {done.returncode}\n{done.stderr.strip()}"
            )
        return json.loads(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ measuring
def metric(value: Optional[float], unit: str, **extra: object) -> Dict[str, object]:
    return {"value": value, "unit": unit, **extra}


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def speed_adjusted(run: Dict[str, object]) -> float:
    """User-mode CPU seconds of a run, had the host run at its reference speed."""
    return run["user_s"] * REFERENCE_LOOP_S / run["ref_s"]


def per_layer_metrics(
    traced: Dict[str, object],
    counted: Dict[str, object],
    untraced: List[Dict[str, object]],
    extras: Optional[Dict[str, object]],
    ops: int,
    overhead_ratio: float,
) -> Dict[str, Dict[str, object]]:
    """Every ``per_layer`` metric of BENCHMARK.json from the passes of one workload."""
    trace = traced["trace"]
    layers = trace["layers"]
    out: Dict[str, Dict[str, object]] = {}
    for layer in tracing.LAYERS:
        row = layers[layer.name]
        out[f"{layer.name}.calls"] = metric(row["calls"], "count")
        out[f"{layer.name}.self_s"] = metric(row["self_s"], "s")
        if layer.composite:
            out[f"{layer.name}.total_s"] = metric(row["total_s"], "s")

    def calls(name: str) -> float:
        return layers[name]["calls"]

    out["trace.coverage"] = metric(trace["coverage"], "ratio")
    out["trace.overhead_ratio"] = metric(overhead_ratio, "ratio")
    out["chord.node.snapshots_per_lookup"] = metric(ratio(calls("chord.node.snapshot"), ops), "count")
    out["crypto.keys.signs_per_lookup"] = metric(ratio(calls("crypto.keys.sign"), ops), "count")
    out["core.random_walk.walks_per_lookup"] = metric(ratio(calls("core.random_walk.perform"), ops), "count")
    out["core.random_walk.restarts_per_walk"] = metric(
        ratio(layers["core.random_walk.perform"]["observed"], calls("core.random_walk.perform")), "count"
    )
    out["core.anonymous_path.queries_per_lookup"] = metric(
        ratio(calls("core.anonymous_path.send_query"), ops), "count"
    )

    # campaign layer: phase walls are best-of over the untraced samples
    queue_ms = serial_ms = exponent = files = resume_s = 0.0
    if extras is not None:
        trials = untraced[0]["stats"]["n_trials"]
        queue_ms = 1e3 * min(run["stats"]["fresh_s"] for run in untraced) / trials
        serial_ms = 1e3 * extras["serial_wall_s"] / trials
        # CPU seconds per trial at T against T/4, from campaigns run in turns
        quarter_trials = extras["quarter_queue"][0]["n_trials"]
        per_trial = statistics.median(map(speed_adjusted, extras["queue"])) / trials
        quarter_per_trial = statistics.median(map(speed_adjusted, extras["quarter_queue"])) / quarter_trials
        exponent = math.log(per_trial / quarter_per_trial) / math.log(trials / quarter_trials)
        files = counted["counted"]["file_replaces"] / trials
        resume_s = min(run["stats"]["resume_s"] for run in untraced)
    out["campaign.backends.queue.ms_per_trial"] = metric(queue_ms, "ms")
    out["campaign.backends.serial.ms_per_trial"] = metric(serial_ms, "ms")
    out["campaign.backends.queue.scaling_exponent"] = metric(exponent, "ratio")
    out["campaign.persistence.files_per_trial"] = metric(files, "count")
    out["campaign.runner.resume_s"] = metric(resume_s, "s")

    # exact counts of the counted pass (repro.sim.profiling counters)
    counters = counted["counted"]["counters"]
    events = counters.get("engine.events_dispatched", 0)
    hits = counters.get("kernel.finger_cache_hits", 0)
    out["sim.engine.events"] = metric(events, "count")
    out["sim.engine.us_per_event"] = metric(ratio(1e6 * layers["sim.engine.run"]["self_s"], events), "us")
    out["sim.kernel.churn_ops"] = metric(counters.get("kernel.churn_ops", 0), "count")
    out["sim.kernel.finger_resolves"] = metric(counters.get("kernel.finger_resolves", 0), "count")
    out["sim.kernel.finger_cache_hit_ratio"] = metric(
        ratio(hits, hits + counters.get("kernel.finger_cache_misses", 0)), "ratio"
    )
    out["sim.hooks.publishes"] = metric(counters.get("hooks.publishes", 0), "count")

    # what the user-mode CPU seconds of the end-to-end metrics leave out
    out["host.trial_wall_s"] = metric(min(run["wall_s"] for run in untraced), "s")
    out["host.trial_sys_s"] = metric(statistics.median(run["sys_s"] for run in untraced), "s")

    stats = untraced[0]["stats"]
    for spec in SIM_METRICS:
        out[f"experiments.{spec['name']}"] = metric(stats.get(spec["name"], 0.0), spec["unit"])
    return out


def measure(
    name: str, seed: int, seconds: float, toy: bool = False, repeats: int = REPEATS
) -> Dict[str, object]:
    """Run every pass of one workload and assemble its record."""
    tmp_root = BUILD / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=str(tmp_root))
    children = Children(name, seed, toy, work_dir, time.monotonic() + WORKLOAD_DEADLINE_S)
    try:
        share = seconds / repeats
        samplers = [
            children.run("sample", budget_s=share, max_rounds=MAX_ROUNDS_PER_SAMPLER) for _ in range(repeats)
        ]
        # two shares: a round of the traced child is an untraced and a traced run
        paired = children.run("traced", budget_s=2 * share, max_rounds=MAX_ROUNDS_PER_SAMPLER)
        counted = children.run("counted")
        extras = children.run("extras") if name == "campaign-fleet" else None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # the least disturbed traced run speaks for the layers
    traced_runs = paired["runs"]["traced"]
    traced = min(traced_runs, key=speed_adjusted)
    untraced = [run for child in samplers + [paired] for run in child["runs"]["untraced"]]
    first = untraced[0]
    ops = first["completed"]
    cpus = [speed_adjusted(run) for run in untraced]
    # set-up is wall-clock, but CPU-bound: adjusted like the samples
    setups = [
        child["setup_s"] * REFERENCE_LOOP_S / child["setup_ref_s"] for child in samplers + [paired, counted]
    ]
    trial_cpu_s = statistics.median(cpus)
    q1, _, q3 = statistics.quantiles(cpus, n=4)  # at least two samples: a sampler's and the traced child's
    spread = {"best": min(cpus), "q1": q1, "q3": q3, "max": max(cpus), "n": len(cpus)}

    end_to_end = {
        "trial_cpu_s": metric(trial_cpu_s, "s", **spread),
        "ops_per_cpu_s": metric(ops / trial_cpu_s, "1/s"),
        "setup_s": metric(statistics.median(setups), "s", best=min(setups), max=max(setups), n=len(setups)),
        "peak_rss_mb": metric(statistics.median(run["peak_rss_mb"] for run in untraced), "MiB"),
        "py_calls_per_op": metric(ratio(counted["counted"]["py_calls"], ops), "calls"),
        "ok_ops_fraction": metric(ratio(first["ok"], first["attempted"]), "ratio"),
    }
    for spec in SIM_METRICS:
        end_to_end[spec["name"]] = metric(first["stats"].get(spec["name"]), spec["unit"])
    # tracing overhead: the traced runs against all untraced ones (the traced
    # child alternates the two, so that both see the same minutes of the host)
    overhead_ratio = statistics.median(map(speed_adjusted, traced_runs)) / trial_cpu_s
    per_layer = per_layer_metrics(traced, counted, untraced, extras, ops, overhead_ratio)

    passes = untraced + traced_runs + [counted]
    digests = sorted({run["digest"] for run in passes})
    checks = list(first["checks"])
    checks.append(workloads.check(
        "digest-identical-across-passes", len(digests) == 1,
        f"{len(untraced)} untraced, {len(traced_runs)} traced, 1 counted run(s) -> {len(digests)} digest(s)",
    ))
    checks.append(workloads.check(
        "all-operations-completed", all(run["completed"] == run["attempted"] for run in passes),
        f"{first['completed']} of {first['attempted']}",
    ))
    if extras is not None:
        checks.append(workloads.check(
            "serial-summary-identical", extras["serial_digest"] == first["digest"],
            "queue vs serial under strip_timing",
        ))
    if not toy:  # a toy trial is too short for its residual to mean anything
        coverage = traced["trace"]["coverage"]
        detail = f"{coverage:.4f} (floor {MIN_COVERAGE})"
        checks.append(workloads.check("trace-coverage", coverage >= MIN_COVERAGE, detail))

    return {
        "workload": name,
        "seed": seed,
        "toy": toy,
        "params": samplers[0]["params"],
        "sim_digest": first["digest"],
        "correct": all(c["ok"] for c in checks),
        "attempted": sum(run["attempted"] for run in untraced),
        "failed": sum(run["attempted"] - run["completed"] for run in untraced),
        "ops_per_trial": ops,
        "checks": checks,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "trace": {"wall_s": traced["wall_s"], **traced["trace"]},
    }


# ------------------------------------------------------------------ reporting
def check_names(record: Dict[str, object], contract: Dict[str, object]) -> None:
    """The record must carry exactly the metrics BENCHMARK.json names, with their units."""
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in contract[section]}
        produced = {k: v["unit"] for k, v in record[section].items()}
        if section == "end_to_end":
            declared.update({m["name"]: m["unit"] for m in SIM_METRICS})
        if declared != produced:
            missing = sorted(set(declared) - set(produced))
            extra = sorted(set(produced) - set(declared))
            units = sorted(k for k in set(declared) & set(produced) if declared[k] != produced[k])
            raise BenchmarkError(
                f"{section} metrics differ from BENCHMARK.json: "
                f"missing {missing}, undeclared {extra}, unit mismatch {units}"
            )


def warn_if_redrawn(record: Dict[str, object]) -> None:
    """Flag, loudly but without failing, a simulated output unlike the committed baseline's."""
    if record["toy"] or not BASELINE.is_file():
        return
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    known = baseline.get("workloads", {}).get(record["workload"])
    if known is None or known["seed"] != record["seed"] or known["params"] != record["params"]:
        return
    if known["sim_digest"] != record["sim_digest"]:
        print(
            f"!!! {record['workload']}: sim_digest {record['sim_digest'][:16]}... differs from the committed "
            f"baseline's {known['sim_digest'][:16]}... (seed {record['seed']}): the simulated OUTPUT "
            "changed, not just its speed. Fine if this change means to redraw; then re-commit the baseline."
        )


def print_record(record: Dict[str, object]) -> None:
    print(f"== {record['workload']}  seed {record['seed']}{'  (toy size)' if record['toy'] else ''}")
    print(f"   params      {json.dumps(record['params'], sort_keys=True)}")
    print(f"   sim_digest  {record['sim_digest']}")
    print(
        f"   operations  attempted {record['attempted']}, failed {record['failed']} "
        f"({record['ops_per_trial']} per trial)"
    )
    for section in ("end_to_end", "per_layer"):
        print(f"   -- {section}")
        for name, entry in record[section].items():
            value = entry["value"]
            shown = "n/a" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))
            extra = ""
            if "best" in entry:
                extra = f"   (median; best {entry['best']:.6g}, max {entry['max']:.6g}, n={entry['n']})"
                if "q1" in entry:
                    extra = extra[:-1] + f", quartiles {entry['q1']:.6g}-{entry['q3']:.6g})"
            print(f"   {name:<52} {shown:>14} {entry['unit']}{extra}")
    for c in record["checks"]:
        print(f"   check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")


def contract_line(record: Dict[str, object], contract: Dict[str, object], trace: int) -> str:
    section = "per_layer" if trace else "end_to_end"
    result = {key: record[key] for key in ("correct", "attempted", "failed")}
    result["metrics"] = {
        spec["name"]: {"value": record[section][spec["name"]]["value"], "unit": spec["unit"]}
        for spec in contract[section]
    }
    return json.dumps(result)


def write_out(path: Path, seed: int, records: List[Dict[str, object]]) -> None:
    """``--out FILE`` plus one ``trace-<workload>.json`` beside it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "schema": 1,
        "seed": seed,
        "protocol": {
            "sampler_children": REPEATS,
            "max_rounds_per_sampler": MAX_ROUNDS_PER_SAMPLER,
            "hash_seed": HASH_SEED,
            "host_time_statistic": "median speed-adjusted user-mode CPU seconds of all forked untraced runs",
            "reference_loop_s": REFERENCE_LOOP_S,
            "setup_statistic": "median speed-adjusted wall seconds of the children that set the workload up",
            "peak_rss_statistic": "median over the forked untraced runs",
        },
        "workloads": {},
    }
    for record in records:
        trace = record["trace"]
        (path.parent / f"trace-{record['workload']}.json").write_text(
            json.dumps({"workload": record["workload"], "seed": record["seed"], **trace}, indent=1) + "\n",
            encoding="utf-8",
        )
        document["workloads"][record["workload"]] = {
            key: value for key, value in record.items() if key not in ("trace", "workload")
        }
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -------------------------------------------------------------------- selftest
def selftest(contract: Dict[str, object]) -> int:
    """All four workloads at toy size, one repeat: names, units and the trace file."""
    started = time.monotonic()
    out_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=str(BUILD)))
    try:
        records = [measure(w.name, 0, 0.0, toy=True, repeats=1) for w in workloads.WORKLOADS]
        for record in records:
            check_names(record, contract)
            if not record["correct"]:
                print_record(record)
                raise BenchmarkError(f"selftest: {record['workload']} failed a check")
            for trace in (0, 1):
                json.loads(contract_line(record, contract, trace))
        write_out(out_dir / "selftest.json", 0, records)
        for record in records:
            trace = json.loads((out_dir / f"trace-{record['workload']}.json").read_text(encoding="utf-8"))
            layers = {layer.name for layer in tracing.LAYERS}
            if not trace["spans"] or not trace["edges"] or set(trace["layers"]) != layers:
                raise BenchmarkError(f"selftest: trace-{record['workload']}.json is incomplete")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    n_metrics = len(contract["end_to_end"]) + len(SIM_METRICS) + len(contract["per_layer"])
    elapsed = time.monotonic() - started
    print(f"selftest ok: {len(records)} workloads, {n_metrics} metrics each, {elapsed:.1f} s")
    return 0


# ------------------------------------------------------------------------ main
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="feeds params['seed'] (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="untraced trial seconds to measure per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="print the result line: 0 end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="write all results here, trace-<workload>.json beside it")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="compare two --out files")
    parser.add_argument("--selftest", action="store_true",
                        help="all workloads at toy size, metric names checked")
    args = parser.parse_args(argv)
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        contract = load_contract()
        if args.compare:
            specs = list(contract["end_to_end"]) + list(SIM_METRICS)
            return compare.main(Path(args.compare[0]), Path(args.compare[1]), specs)
        build()
        if args.selftest:
            return selftest(contract)
        seconds = float(contract["run_seconds"]) if args.seconds is None else args.seconds
        names = [args.workload] if args.workload else [w.name for w in workloads.WORKLOADS]
        records = []
        for name in names:
            record = measure(name, args.seed, seconds)
            check_names(record, contract)
            print_record(record)
            warn_if_redrawn(record)
            records.append(record)
        if args.out is not None:
            write_out(args.out, args.seed, records)
            print(f"wrote {args.out} and {len(records)} trace file(s) beside it")
    except BenchmarkError as exc:
        print(f"benchmarks/e2e: {exc}", file=sys.stderr)
        return 2
    if args.trace is not None:
        print(contract_line(records[0], contract, args.trace))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
