"""One pass over one workload, in a fresh interpreter.

``run.py`` starts this file once per pass (``python child.py '<job json>'``)
and reads the JSON object printed as the last line of standard output.  The
passes:

``sample``    set-up (timed, between two reference loops: that is ``setup_s``),
              then the workload's public
              call sequence, timed, once per *forked* copy of this process
              until the job's share of ``--seconds`` is used.
``traced``    the same, forked copies alternating between an untraced run and
              one with the span wrappers of :mod:`tracing` installed, so that
              the tracing overhead is read off pairs measured side by side.
``counted``   the same under ``cProfile`` and ``repro.sim.profiling.capture``
              for exact counts; its times are discarded.
``extras``    campaign-fleet only: the serial backend on the same spec, and the
              queue backend at all and at a quarter of the trials in turns.

In-process repeats are not usable as samples (the heap grows and later runs
slow down: 6.25 -> 7.59 -> 8.14 s for three back-to-back ``security`` trials),
so every timed run gets a process of its own.  Forking the just-set-up
interpreter gives each run the same pristine heap without paying the import
again, which is what lets a run fit 10-15 samples into ten seconds - and on a
shared host only the best of many short samples is a steady number.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads  # imports no ``repro`` until one of its functions is called

#: "child start" of ``setup_s``: the harness's own stdlib imports and the
#: reference loop that says how fast the host was at that moment are above it
_REF_BEFORE_S = workloads.reference_loop_s()
_STARTED = time.perf_counter()

#: calls of this C function close every atomic JSON write of the campaign store
_REPLACE = "<built-in method posix.replace>"


def _import_repro(root: Path) -> float:
    """Import ``repro.campaign`` from this checkout; seconds it took."""
    started = time.perf_counter()
    import repro
    import repro.campaign  # noqa: F401

    if Path(repro.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SystemExit(f"child: imported repro from {repro.__file__}, not from {root / 'src'}")
    return time.perf_counter() - started


def _in_fork(produce) -> dict:
    """``produce()`` in a forked copy of this process; its JSON-able result."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            out = produce()
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            with os.fdopen(write_end, "w") as pipe:
                json.dump(out, pipe)
            status = 0
        except BaseException:  # report, then leave without running the parent's exit handlers
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "r") as pipe:
        payload = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"child: forked run ended with status {status}")
    return json.loads(payload)


def _sample(kinds: dict, budget_s: float, max_rounds: int) -> dict:
    """Forked runs, one of each kind per round, as many rounds as fit into ``budget_s``.

    ``kinds`` maps a name to the callable a forked copy runs; the result maps
    each name to its runs.  The budget counts measured trial time only; at
    least one round is made.
    """
    runs = {name: [] for name in kinds}
    spent = last_round = 0.0
    rounds = 0
    while rounds < max_rounds and (rounds == 0 or spent + last_round <= budget_s):
        last_round = 0.0
        for name, produce in kinds.items():
            runs[name].append(_in_fork(produce))
            last_round += runs[name][-1]["wall_s"]
        spent += last_round
        rounds += 1
    return runs


def _untraced(workload, params, work_dir) -> dict:
    return dataclasses.asdict(workload.run(params, work_dir))


def _traced(workload, params, work_dir) -> dict:
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        origin = time.perf_counter()
        outcome = workload.run(params, work_dir)
    out = dataclasses.asdict(outcome)
    out["trace"] = {
        "coverage": tracer.attributed_s() / outcome.wall_s,
        "layers": tracer.aggregates(),
        "edges": tracer.edges(),
        "spans": tracer.span_tree(origin),
    }
    return out


def _counted(workload, params, work_dir) -> dict:
    from repro.sim import profiling

    profile = cProfile.Profile()
    with profiling.capture(force=True) as profiler:
        profile.enable()
        try:
            outcome = workload.run(params, work_dir)
        finally:
            profile.disable()
    # Summed over the profiler's own entries, not ``pstats.total_calls``: pstats
    # keys functions by (file, line, name), under which every dataclass
    # ``__init__`` is ("<string>", 2, "__init__"); only one of them survives,
    # which one depends on where the code objects sit in memory, and the total
    # then differs from run to run.
    entries = profile.getstats()
    out = dataclasses.asdict(outcome)
    out["counted"] = {
        "py_calls": sum(entry.callcount for entry in entries),
        "file_replaces": sum(entry.callcount for entry in entries if entry.code == _REPLACE),
        "counters": profiler.snapshot()["counters"],
    }
    return out


#: rounds of the extras pass; one round is a campaign on each backend and size
EXTRAS_ROUNDS = 3


def _extras(workload, params, work_dir) -> dict:
    """Serial backend on the same spec; queue backend at all and a quarter of the trials.

    The two queue sizes take turns, so that the ratio of their costs (the
    scaling exponent) compares campaigns that ran side by side.
    """
    quarter_trials = int(params["trials"]) // 4
    serial, full, quarter = [], [], []
    for _ in range(EXTRAS_ROUNDS):
        serial.append(workload.run_backend(params, work_dir, "serial"))
        full.append(workload.run_backend(params, work_dir, "queue"))
        quarter.append(workload.run_backend(params, work_dir, "queue", trials=quarter_trials))
    return {
        "serial_wall_s": min(run["wall_s"] for run in serial),
        "serial_digest": serial[0]["digest"],
        "queue": full,
        "quarter_queue": quarter,
    }


def main(argv) -> int:
    job = json.loads(argv[1])
    root = Path(job["root"])
    import_s = _import_repro(root)

    workload = workloads.BY_NAME[job["workload"]]
    params = workload.params(job["seed"], toy=job["toy"])
    work_dir = job["work_dir"]
    mode = job["mode"]

    if mode == "extras":
        out = _extras(workload, params, work_dir)
    else:
        workload.setup(params, work_dir)
        setup_s = time.perf_counter() - _STARTED
        setup_ref_s = (_REF_BEFORE_S + workloads.reference_loop_s()) / 2.0
        gc.collect()
        if mode in ("sample", "traced"):
            kinds = {"untraced": lambda: _untraced(workload, params, work_dir)}
            if mode == "traced":
                kinds["traced"] = lambda: _traced(workload, params, work_dir)
            out = {"runs": _sample(kinds, job["budget_s"], job["max_rounds"])}
        elif mode == "counted":
            out = _counted(workload, params, work_dir)
        else:
            raise SystemExit(f"child: unknown mode {mode!r}")
        out["setup_s"] = setup_s
        out["setup_ref_s"] = setup_ref_s
        out["import_s"] = import_s
    out["mode"] = mode
    out["params"] = params
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
