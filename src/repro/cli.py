"""Command-line interface for running the reproduction's experiments.

Usage (after ``pip install -e .``)::

    python -m repro security   --param n_nodes=150 --param duration=400 --seed 2
    python -m repro efficiency --param n_nodes=207 --param lookups_per_scheme=80
    python -m repro timing     --help                 # config fields + defaults
    python -m repro list-kinds                        # kinds, axes, presets
    python -m repro campaign   --spec campaign.json --backend queue --out results/ --resume
    python -m repro campaign   --kind scenario --param preset=flash-crowd --out results/
    python -m repro campaign-worker results/          # in other terminals/hosts
    python -m repro campaign-status results/ --watch  # live progress view
    python -m repro lint src/repro                    # determinism/layering checks

There is one single-run subcommand per *registered experiment kind* (the
rows of :mod:`repro.experiments.kinds`, ``scenario``, ``adaptive`` and anything
added with ``register_experiment``), all of one generated shape: ``repro
<kind> [--param NAME=VALUE ...] [--seed N]`` sets fields of the kind's config
dataclass, runs one trial and prints its scalar metrics and series.
``campaign`` fans a multi-seed / parameter-grid sweep out over an execution
backend (``--backend serial|pool|queue``); ``campaign-worker`` joins the
on-disk job queue of a ``--backend queue`` campaign from any process or
machine sharing the results directory.  The grid can come from a JSON spec
file or be given inline::

    python -m repro campaign --kind security \
        --param n_nodes=150 --param duration=400 \
        --param attack_rate=1.0,0.5 --seeds 0-3 --jobs 4 --out results/fig3a

``--figure fig3a`` picks the right kind for a paper figure and tags the spec
(``--list-figures`` shows the figure -> kind/benchmark/metrics map); the
written results directory can then be fed to the matching benchmark via
``pytest benchmarks/<bench> --campaign-results <out>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

from .experiments.results import format_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Octopus (ICDCS 2012) reproduction — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .campaign import available_kinds, get_experiment

    # Options that several subcommands share are defined once, as parents.
    param_option = argparse.ArgumentParser(add_help=False)
    param_option.add_argument(
        "--param", action="append", default=[], metavar="NAME=V[,V...]",
        help="set a config field (repeatable; JSON literal or bare string); one value "
             "fixes it, several make a campaign grid axis",
    )
    queue_options = argparse.ArgumentParser(add_help=False)
    queue_options.add_argument(
        "--claim-ttl", type=float, default=300.0,
        help="queue: seconds before an unfinished claim is presumed orphaned and requeued",
    )
    queue_options.add_argument(
        "--claim-batch", type=int, default=1,
        help="queue: claim up to N cheap same-grid-cell trials per queue round-trip "
             "(cells with recorded mean elapsed >= 5 s still claim singly)",
    )
    queue_options.add_argument("--quiet", action="store_true", help="suppress per-trial progress lines")
    queue_options.add_argument(
        "--profile", action="store_true",
        help="record engine-phase profiling counters/timers under each trial's "
             "timing.profile (sets REPRO_PROFILE, which worker processes inherit)",
    )

    for kind in available_kinds():
        adapter = get_experiment(kind)
        single = sub.add_parser(
            kind,
            parents=[param_option],
            help=adapter.description,
            description=f"Run one {kind!r} trial: {adapter.description}.",
            epilog=_config_fields_help(adapter.config_cls),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        single.add_argument("--seed", type=int, metavar="N", help="shorthand for --param seed=N")
        single.set_defaults(run=_run_kind)

    list_kinds = sub.add_parser(
        "list-kinds",
        help="list experiment kinds, scenario axes and scenario presets",
        description=(
            "Print every registered experiment kind (with its description), the "
            "scenario axis generators (churn profiles, workload models, adversary "
            "placements) and the built-in scenario presets runnable via "
            "'repro scenario --param preset=NAME'."
        ),
    )
    list_kinds.set_defaults(run=_run_list_kinds)

    campaign = sub.add_parser(
        "campaign",
        parents=[param_option, queue_options],
        help="multi-seed / parameter-grid campaign over worker processes",
        description=(
            "Expand a campaign spec (experiment kind x parameter grid x seeds) into "
            "independent trials, run them serially or on a process pool, and write "
            "per-trial JSON plus a mean/std/CI summary to the results directory."
        ),
    )
    campaign.set_defaults(run=_run_campaign)
    campaign.add_argument("--spec", help="JSON campaign spec file (overrides inline options)")
    campaign.add_argument("--kind", help="experiment kind for an inline campaign")
    campaign.add_argument(
        "--figure",
        default="",
        help=(
            "paper figure/table this campaign regenerates (e.g. fig3a, table3); "
            "implies the matching --kind and is stored in spec.json for provenance"
        ),
    )
    campaign.add_argument("--name", default="", help="campaign name (default: <kind>-campaign)")
    campaign.add_argument("--seeds", default="0", help="seed list: '0,1,2' or a range '0-7'")
    campaign.add_argument("--jobs", type=int, default=1, help="worker processes (1 = serial)")
    campaign.add_argument(
        "--backend",
        default="",
        choices=["", "serial", "pool", "queue"],
        help=(
            "execution backend (default: serial when --jobs 1, else a process "
            "pool); 'queue' persists claimable job files under <out>/queue/ and "
            "cooperates with any number of 'repro campaign-worker' processes"
        ),
    )
    campaign.add_argument("--out", default="campaign-results", help="results directory")
    campaign.add_argument("--resume", action="store_true",
                          help="skip trials whose records already exist in --out")
    campaign.add_argument("--list-figures", action="store_true",
                          help="list figure adapters (figure -> kind, benchmark, metrics) and exit")

    worker = sub.add_parser(
        "campaign-worker",
        parents=[queue_options],
        help="drain a file-queue campaign's job queue (claim -> execute -> record)",
        description=(
            "Join the shared on-disk job queue of a campaign started with "
            "'repro campaign --backend queue'. Any number of workers — on this "
            "machine, over SSH, or anywhere sharing the results directory via a "
            "network filesystem — may run concurrently; each atomically claims "
            "pending job files, executes them, writes trial records, and exits "
            "once the queue is drained."
        ),
    )
    worker.set_defaults(run=_run_campaign_worker)
    worker.add_argument("out_dir", help="the campaign results directory (the producer's --out)")
    worker.add_argument("--worker-id", default="", help="claim owner label (default: <host>-pid<pid>)")
    worker.add_argument("--poll-interval", type=float, default=0.2,
                        help="seconds between queue polls when idle (exponential backoff floor)")
    worker.add_argument("--max-poll-interval", type=float, default=None,
                        help="idle-poll backoff ceiling in seconds (default: max(5, poll interval))")
    worker.add_argument("--max-trials", type=int, default=None,
                        help="exit after executing this many trials (default: until drained)")
    worker.add_argument("--wait-for-queue", type=float, default=30.0,
                        help="seconds to wait for the producer to create the queue before giving up")
    worker.add_argument("--heartbeat-interval", type=float, default=2.0,
                        help="seconds between heartbeat-file rewrites (feeds campaign-status "
                             "and keeps long trials from being presumed orphaned)")

    status = sub.add_parser(
        "campaign-status",
        help="read-only live view of a (running) campaign directory",
        description=(
            "Inspect a campaign results directory without touching it: recorded vs "
            "expected trials, queue depth, per-worker heartbeats and throughput, "
            "per-grid-cell completion, an ETA derived from per-cell elapsed history, "
            "and any rolled-up ignored scenario axes. Safe to run against a live "
            "producer + worker fleet."
        ),
    )
    status.set_defaults(run=_run_campaign_status)
    status.add_argument("out_dir", help="the campaign results directory (the producer's --out)")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw status snapshot as JSON instead of the report")
    status.add_argument("--watch", type=float, nargs="?", const=2.0, default=None,
                        metavar="SECONDS",
                        help="refresh every SECONDS (default 2) until the campaign completes")
    status.add_argument("--stale-after", type=float, default=15.0,
                        help="flag a worker heartbeat older than this many seconds as stale")

    lint = sub.add_parser(
        "lint",
        help="determinism & layering static analysis (AST-based, CI-gated)",
        description=(
            "Run the repro-specific static analyzer: banned nondeterminism sources "
            "(global random, wall clock, os.urandom, uuid4, builtin hash), "
            "unordered-iteration hazards (set iteration, unsorted directory "
            "listings), RNG stream discipline, and the documented import-layer DAG. "
            "Run with --rules for the full catalog and suppression policy."
        ),
    )
    lint.set_defaults(run=_run_lint)
    lint.add_argument("paths", nargs="*",
                      help="files or directories to lint (default: the installed repro package)")
    lint.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the machine-readable report (stable schema)")
    lint.add_argument("--rules", action="store_true",
                      help="print the rule catalog (id, summary, escape hatches) and exit")
    return parser


def _parse_param_value(token: str) -> object:
    """Parse one inline parameter value: JSON literal if possible, else string."""
    try:
        return json.loads(token)
    except ValueError:
        return token


def _parse_seeds(text: str) -> List[int]:
    """Parse ``--seeds``: comma-separated ints or an inclusive 'LO-HI' range."""
    text = text.strip()
    try:
        if "-" in text and "," not in text and not text.startswith("-"):
            lo, hi = text.split("-", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise SystemExit(
            f"repro campaign: malformed --seeds {text!r} (expected '0,1,2' or a range '0-7')"
        )


def _config_fields_help(config_cls: type) -> str:
    """The ``--help`` epilog of a kind: its config's fields and defaults."""
    lines = [f"{config_cls.__name__} fields (set with --param NAME=VALUE):"]
    for f in dataclasses.fields(config_cls):
        if f.default is not dataclasses.MISSING:
            default = repr(f.default)
        elif f.default_factory is not dataclasses.MISSING:
            default = repr(f.default_factory())
        else:
            default = "(required)"
        lines.append(f"  {f.name} = {default}")
    return "\n".join(lines)


def _parse_params(items: List[str], command: str) -> Tuple[Dict[str, object], Dict[str, List[object]]]:
    """Split ``--param NAME=V[,V...]`` items into (fixed values, grid axes)."""
    base: Dict[str, object] = {}
    grid: Dict[str, List[object]] = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"repro {command}: malformed --param {item!r} (expected NAME=VALUE[,VALUE...])")
        name, _, raw = item.partition("=")
        # A value that parses as JSON in one piece is ONE parameter value —
        # this is how list-valued config fields are set inline, e.g.
        # --param max_delays=[0.1,0.2].  Only otherwise does ',' split the
        # string into a grid axis.
        try:
            base[name.strip()] = json.loads(raw)
        except ValueError:
            values = [_parse_param_value(tok) for tok in raw.split(",")]
            if len(values) == 1:
                base[name.strip()] = values[0]
            else:
                grid[name.strip()] = values
    return base, grid


def _inline_spec(args) -> "CampaignSpec":
    """Build a CampaignSpec from --kind/--figure/--param/--seeds options."""
    from .campaign import CampaignSpec, get_figure

    kind = args.kind
    if args.figure:
        try:
            adapter = get_figure(args.figure)
        except KeyError as exc:
            raise SystemExit(f"repro campaign: {exc.args[0]}")
        if kind and kind != adapter.kind:
            raise SystemExit(
                f"repro campaign: figure {args.figure!r} is produced by kind "
                f"{adapter.kind!r}, not {kind!r}"
            )
        kind = adapter.kind
    if not kind:
        raise SystemExit("repro campaign: one of --spec FILE, --kind KIND or --figure FIG is required")
    base, grid = _parse_params(args.param, "campaign")
    return CampaignSpec(
        kind=kind,
        name=args.name,
        base=base,
        grid=grid,
        seeds=tuple(_parse_seeds(args.seeds)),
        figure=args.figure,
    )


def _preflight(adapter, params) -> None:
    """Build one trial's typed config and validate it where the config can."""
    config = adapter.build_config(params)
    validate = getattr(config, "validate", None)
    if callable(validate):
        validate()


def _run_kind(args) -> int:
    """``repro <kind>``: one trial of a registered kind, metrics + series out."""
    from .campaign import get_experiment

    kind = args.command
    params, grid = _parse_params(args.param, kind)
    if grid:
        raise SystemExit(
            f"repro {kind}: --param {sorted(grid)[0]} lists several values; a sweep is "
            f"'repro campaign --kind {kind} --param ...'"
        )
    if args.seed is not None:
        params["seed"] = args.seed
    adapter = get_experiment(kind)
    try:
        _preflight(adapter, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"repro {kind}: {exc.args[0] if exc.args else exc}")
    result = adapter.run(params)
    rows = [[name, f"{value:.6g}"] for name, value in result.scalar_metrics().items()]
    print(format_table(["metric", "value"], rows, title=kind))
    for name, pairs in (result.to_dict().get("series") or {}).items():
        print(format_table(["x", "y"], [[f"{x:g}", f"{y:g}"] for x, y in pairs], title=f"series {name}"))
    return 0


def _run_list_kinds(args) -> int:
    from . import scenarios
    from .campaign import available_kinds, get_experiment

    print("experiment kinds (repro KIND --help; sweeps: repro campaign --kind KIND):")
    for kind in available_kinds():
        print(f"  {kind:12s} {get_experiment(kind).description}")
    for title, descriptions in (
        ("scenario churn profiles (--param churn=NAME)", scenarios.CHURN_PROFILES.describe()),
        ("scenario workload models (--param workload=NAME)", scenarios.WORKLOADS.describe()),
        ("scenario adversary placements (--param adversary=NAME)", scenarios.PLACEMENTS.describe()),
        ("adaptive attacker strategies (repro adaptive --param attacker=NAME)",
         scenarios.ATTACKER_STRATEGIES.describe()),
        ("adaptive defense policies (repro adaptive --param defense=NAME)",
         scenarios.DEFENSE_POLICIES.describe()),
        ("scenario presets (repro scenario --param preset=NAME)", scenarios.describe_presets()),
        ("adaptive presets (repro adaptive --param preset=NAME)", scenarios.describe_adaptive_presets()),
    ):
        print(f"{title}:")
        for name, description in descriptions.items():
            print(f"  {name:18s} {description}")
    return 0


def _run_campaign(args) -> int:
    from .campaign import (
        CampaignExecutionError,
        CampaignSpec,
        FileQueueBackend,
        available_figures,
        get_experiment,
        get_figure,
        run_campaign,
        summary_rows,
    )

    if args.list_figures:
        for figure in available_figures():
            adapter = get_figure(figure)
            print(f"{figure:8s} kind={adapter.kind:10s} {adapter.bench}")
            print(f"{'':8s} metrics: {', '.join(adapter.metrics)}")
        return 0

    if args.spec:
        try:
            spec = CampaignSpec.from_json_file(args.spec)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"repro campaign: cannot load spec {args.spec!r}: {exc}")
        if args.name:
            spec.name = args.name
    else:
        spec = _inline_spec(args)
    # Fail fast — validate the spec and build every trial's typed config
    # before anything is written or any worker starts.
    try:
        trials = spec.expand()
        adapter = get_experiment(spec.kind)
        for trial in trials:
            _preflight(adapter, trial.params)
        if args.jobs < 1:
            raise ValueError("--jobs must be >= 1")
    except (KeyError, TypeError, ValueError) as exc:
        # KeyError's str() wraps the message in quotes; unwrap via args.
        raise SystemExit(f"repro campaign: {exc.args[0] if exc.args else exc}")

    # Progress lines carry completed/total plus the running throughput over
    # *executed* trials (skips are free and would inflate the rate).  The
    # prefix format is stable; the throughput rides as a suffix.
    progress_clock = {"started": None, "ran": 0}

    def progress(event: str, trial_id: str, done: int, total: int) -> None:
        if args.quiet:
            return
        verb = "ran " if event == "run" else "skip"
        rate = ""
        if event == "run":
            now = time.monotonic()
            if progress_clock["started"] is None:
                progress_clock["started"] = now
            progress_clock["ran"] += 1
            span = now - progress_clock["started"]
            if progress_clock["ran"] > 1 and span > 0:
                rate = f"  ({(progress_clock['ran'] - 1) * 60.0 / span:.1f} trials/min)"
        print(f"[{done}/{total}] {verb} {trial_id}{rate}", flush=True)

    # --backend queue gets its claim TTL from the CLI; the other names go
    # through by string and take their defaults.  --jobs only means anything
    # for the pool backend — reject contradictory combinations rather than
    # silently running 1-wide.
    if args.backend in ("serial", "queue") and args.jobs != 1:
        hint = (
            "start more 'repro campaign-worker' processes instead"
            if args.backend == "queue"
            else "drop --backend serial to use the process pool"
        )
        raise SystemExit(
            f"repro campaign: --jobs has no effect with --backend {args.backend}; {hint}"
        )
    if args.claim_batch < 1:
        raise SystemExit("repro campaign: --claim-batch must be >= 1")
    if args.backend == "queue":
        if args.claim_ttl <= 0:
            raise SystemExit("repro campaign: --claim-ttl must be positive")
        backend = FileQueueBackend(claim_ttl_s=args.claim_ttl, claim_batch=args.claim_batch)
    else:
        backend = args.backend or None
    try:
        report = run_campaign(
            spec,
            out_dir=args.out,
            jobs=args.jobs,
            resume=args.resume,
            progress=progress,
            backend=backend,
        )
    except CampaignExecutionError as exc:
        raise SystemExit(
            f"repro campaign: {exc} — completed trials are kept in {args.out!r}; "
            "re-run with --resume to continue"
        )
    print(
        f"campaign {spec.name!r} ({spec.kind}): {report.n_executed} trial(s) executed, "
        f"{report.n_skipped} skipped, results in {report.out_dir}"
    )
    timing = report.summary.get("timing") or {}
    if timing.get("n"):
        print(
            f"trial wall-clock: {timing['total_elapsed_s']:.2f} s total over "
            f"{timing['n']} timed trial(s), mean {timing['mean_elapsed_s']:.2f} s, "
            f"max {timing['max_elapsed_s']:.2f} s"
        )
        for worker, stats in (timing.get("workers") or {}).items():
            print(
                f"  worker {worker}: {stats['n']} trial(s), "
                f"{stats['total_elapsed_s']:.2f} s"
            )
        profile = timing.get("profile") or {}
        if profile.get("n"):
            print(f"profiling ({profile['n']} profiled trial(s)):")
            for name, value in (profile.get("counters") or {}).items():
                print(f"  {name}: {value:g}")
            for name, value in (profile.get("timers_s") or {}).items():
                print(f"  {name}: {value:.3f} s")
    # Scenario trials report axes their base harness cannot express; a sweep
    # that quietly dropped an axis would lie, so surface the gap per kind.
    for base_kind, info in sorted((report.summary.get("ignored_axes") or {}).items()):
        print(
            f"warning: {info['n_trials']} scenario trial(s) on base kind "
            f"{base_kind!r} ignored axes: {', '.join(info['axes'])} "
            f"(the harness cannot express them)"
        )
    headers, rows = summary_rows(report.summary)
    if rows:
        print(format_table(headers, rows, title="aggregate (mean±ci95 over seeds)"))
    return 0


def _run_campaign_worker(args) -> int:
    from .campaign import run_worker

    if args.max_trials is not None and args.max_trials < 1:
        raise SystemExit("repro campaign-worker: --max-trials must be >= 1")
    if args.claim_ttl <= 0:
        raise SystemExit("repro campaign-worker: --claim-ttl must be positive")
    if args.poll_interval <= 0:
        raise SystemExit("repro campaign-worker: --poll-interval must be positive")
    if args.max_poll_interval is not None and args.max_poll_interval < args.poll_interval:
        raise SystemExit(
            "repro campaign-worker: --max-poll-interval must be >= --poll-interval"
        )
    if args.claim_batch < 1:
        raise SystemExit("repro campaign-worker: --claim-batch must be >= 1")
    if args.heartbeat_interval <= 0:
        raise SystemExit("repro campaign-worker: --heartbeat-interval must be positive")

    def progress(event: str, trial_id: str, n_executed: int) -> None:
        if not args.quiet:
            verb = "ran " if event == "run" else "skip"
            print(f"[worker {n_executed}] {verb} {trial_id}", flush=True)

    try:
        executed = run_worker(
            args.out_dir,
            worker_id=args.worker_id or None,
            claim_ttl_s=args.claim_ttl,
            poll_interval_s=args.poll_interval,
            max_trials=args.max_trials,
            wait_for_queue_s=args.wait_for_queue,
            progress=progress,
            max_poll_interval_s=args.max_poll_interval,
            claim_batch=args.claim_batch,
            heartbeat_interval_s=args.heartbeat_interval,
        )
    except Exception as exc:  # a failing trial: its job was already requeued
        raise SystemExit(
            f"repro campaign-worker: trial failed ({exc}); "
            "the job went back to the queue"
        )
    print(f"campaign-worker: executed {executed} trial(s) from {args.out_dir}")
    return 0


def _run_campaign_status(args) -> int:
    from .campaign import campaign_status, render_status

    if args.stale_after <= 0:
        raise SystemExit("repro campaign-status: --stale-after must be positive")
    if args.watch is not None and args.watch <= 0:
        raise SystemExit("repro campaign-status: --watch interval must be positive")

    def snapshot():
        try:
            return campaign_status(args.out_dir, stale_after_s=args.stale_after)
        except FileNotFoundError as exc:
            raise SystemExit(f"repro campaign-status: {exc}")

    status = snapshot()
    while True:
        if args.as_json:
            print(json.dumps(status, indent=2, sort_keys=True), flush=True)
        else:
            print(render_status(status), flush=True)
        if args.watch is None or status["trials"]["remaining"] == 0:
            return 0
        try:
            time.sleep(args.watch)
        except KeyboardInterrupt:
            return 0
        status = snapshot()
        if not args.as_json:
            print(flush=True)  # blank line between refreshes


def _run_lint(args) -> int:
    """Delegate to the standalone linter CLI, reusing its exit-code contract."""
    from .lint.cli import main as lint_main

    argv: List[str] = list(args.paths)
    if args.as_json:
        argv.append("--json")
    if args.rules:
        argv.append("--rules")
    return lint_main(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if getattr(args, "profile", False):
        # Environment, not a parameter: pool and queue worker processes
        # inherit it, so every trial of the campaign profiles uniformly.
        os.environ["REPRO_PROFILE"] = "1"
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
