"""Parallel experiment-campaign runner.

Turns the repository's one-shot experiment harnesses into multi-seed,
parameter-grid campaigns:

* :mod:`repro.campaign.spec` — declarative spec and grid expansion;
* :mod:`repro.campaign.registry` — experiment kind → pickleable entry point;
* :mod:`repro.campaign.runner` — campaign lifecycle: expand, resume,
  schedule, delegate to a backend, aggregate;
* :mod:`repro.campaign.backends` — interchangeable execution strategies
  (serial / process pool / shared file queue + ``campaign-worker`` loop);
* :mod:`repro.campaign.scheduling` — longest-expected-first dispatch from
  per-grid-cell elapsed history;
* :mod:`repro.campaign.streaming` — mean/std/CI summaries per grid cell:
  the exact record-at-a-time accumulators every backend's summary is folded
  through, from yielded records or from the queue workers' partial logs;
* :mod:`repro.campaign.telemetry` — worker heartbeats and partial-log
  writers (the files ``repro campaign-status`` reads);
* :mod:`repro.campaign.status` — the read-only live campaign status view;
* :mod:`repro.campaign.persistence` — the JSON results-directory layout,
  including the queue/claim files behind the file-queue backend;
* :mod:`repro.campaign.figures` — figure adapters mapping every paper
  figure/table benchmark to the campaign kind and metrics it reports.

Typical use::

    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(
        kind="security",
        base={"n_nodes": 150, "duration": 400.0, "attack": "lookup-bias"},
        grid={"attack_rate": [1.0, 0.5]},
        seeds=(0, 1, 2, 3),
    )
    report = run_campaign(spec, out_dir="results/fig3a", jobs=4, resume=True)
    print(report.summary["groups"][0]["metrics"]["final_malicious_fraction"])

or, from the command line, ``python -m repro campaign --help``.
"""

from .backends import (
    Backend,
    FileQueueBackend,
    PollBackoff,
    ProcessPoolBackend,
    SerialBackend,
    available_backends,
    make_backend,
    run_worker,
)
from .figures import (
    FigureAdapter,
    adaptive_group_label,
    adaptive_summary_rows,
    available_figures,
    figure_aggregate_rows,
    get_figure,
    register_figure,
    render_figure_aggregates,
    scenario_group_label,
    scenario_summary_rows,
)
from .persistence import CampaignResults, CampaignStore, load_campaign_results
from .registry import (
    ExperimentAdapter,
    available_kinds,
    get_experiment,
    register_experiment,
)
from .runner import (
    CampaignExecutionError,
    CampaignReport,
    execute_trial,
    run_campaign,
)
from .scheduling import load_timing_history, schedule_trials
from .spec import CampaignSpec, TrialSpec, canonical_json, cost_key
from .status import campaign_status, render_status
from .streaming import (
    CampaignAccumulator,
    GroupAccumulator,
    IgnoredAxesAccumulator,
    MetricAccumulator,
    TimingAccumulator,
    aggregate_records,
    group_key,
    merge_partial_summaries,
    strip_timing,
    summary_rows,
)
from .telemetry import PartialSummaryWriter, WorkerHeartbeat, WorkerTelemetry

__all__ = [
    "Backend",
    "CampaignAccumulator",
    "CampaignExecutionError",
    "CampaignReport",
    "CampaignResults",
    "CampaignSpec",
    "CampaignStore",
    "ExperimentAdapter",
    "GroupAccumulator",
    "IgnoredAxesAccumulator",
    "MetricAccumulator",
    "PartialSummaryWriter",
    "TimingAccumulator",
    "WorkerHeartbeat",
    "WorkerTelemetry",
    "FigureAdapter",
    "FileQueueBackend",
    "PollBackoff",
    "ProcessPoolBackend",
    "SerialBackend",
    "TrialSpec",
    "adaptive_group_label",
    "adaptive_summary_rows",
    "aggregate_records",
    "available_backends",
    "available_figures",
    "available_kinds",
    "campaign_status",
    "canonical_json",
    "cost_key",
    "execute_trial",
    "merge_partial_summaries",
    "figure_aggregate_rows",
    "get_experiment",
    "get_figure",
    "group_key",
    "load_campaign_results",
    "load_timing_history",
    "make_backend",
    "register_experiment",
    "register_figure",
    "render_figure_aggregates",
    "render_status",
    "run_campaign",
    "run_worker",
    "scenario_group_label",
    "scenario_summary_rows",
    "schedule_trials",
    "strip_timing",
    "summary_rows",
]
