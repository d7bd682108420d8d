"""Figure adapters: the bridge between benchmarks and campaign aggregates.

Every benchmark in ``benchmarks/`` regenerates one figure or table of the
paper.  A :class:`FigureAdapter` records, per figure, which campaign ``kind``
produces its data, which scalar metrics the figure reports (as ``fnmatch``
patterns, because several harnesses derive metric names from swept values —
e.g. ``error_rate_100ms_alpha_0.5pct``), and how to turn a campaign summary
into printable mean±ci95 rows.  The registry is what lets *every* benchmark
accept ``--campaign-results DIR`` through one shared code path instead of 14
hand-rolled ones::

    from repro.campaign.figures import render_figure_aggregates
    print(render_figure_aggregates("fig3a", campaign_results))

Rendering is deliberately forgiving about *which* campaign it is given: a
results directory of the wrong experiment kind yields a one-line note, not an
error, because ``--campaign-results`` is a session-wide pytest option — one
campaign directory is shared by every collected benchmark, and only the
benchmarks whose kind matches should print aggregate rows.

Scenario campaigns get their own adapter family (``scenarios``,
``table3-scenarios``): their groups are grid cells of *scenario* parameters
(preset, axis generators, base-experiment overrides), so the rows are
labelled by the scenario — the preset name, or the non-default axes when the
scenario was composed by hand — via :func:`scenario_summary_rows`, and each
adapter filters to the base experiment kind whose metrics it reports (one
scenario campaign may sweep presets of several base kinds).
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..experiments.results import format_table
from .streaming import group_metric_cells, summary_rows
from .spec import canonical_json

#: ``formatter(adapter, summary) -> str`` renders one figure's aggregate rows.
FigureFormatter = Callable[["FigureAdapter", Mapping[str, object]], str]


@dataclass(frozen=True)
class FigureAdapter:
    """Binds one paper figure/table to the campaign data that reproduces it.

    ``metrics`` are ``fnmatch`` patterns matched against the scalar metric
    names in a campaign summary, in order; matched names keep the pattern
    order (then sort within a pattern), so the printed columns follow the
    figure's reading order rather than plain alphabetical order.
    """

    figure: str
    bench: str
    title: str
    kind: str
    metrics: Tuple[str, ...]
    formatter: Optional[FigureFormatter] = None

    def resolve_metrics(self, summary: Mapping[str, object]) -> List[str]:
        """Concrete metric names present in ``summary`` matching my patterns."""
        available = sorted(
            {name for group in summary.get("groups", []) for name in group.get("metrics", {})}
        )
        resolved: List[str] = []
        for pattern in self.metrics:
            for name in available:
                if fnmatchcase(name, pattern) and name not in resolved:
                    resolved.append(name)
        return resolved


_REGISTRY: Dict[str, FigureAdapter] = {}


def register_figure(adapter: FigureAdapter, replace: bool = False) -> None:
    """Add a figure adapter to the registry (``replace=True`` to override)."""
    if adapter.figure in _REGISTRY and not replace:
        raise ValueError(f"figure {adapter.figure!r} is already registered")
    _REGISTRY[adapter.figure] = adapter


def get_figure(figure: str) -> FigureAdapter:
    if figure not in _REGISTRY:
        raise KeyError(f"unknown figure {figure!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[figure]


def available_figures() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def figure_aggregate_rows(
    figure: str, summary: Mapping[str, object]
) -> Tuple[List[str], List[List[object]]]:
    """(headers, rows) of one figure's mean±ci95 table from a campaign summary.

    Empty when none of the figure's metrics appear in the summary — never the
    every-metric table ``summary_rows`` would fall back to on an empty
    selection (e.g. a matching-kind campaign recorded before a figure's
    metrics existed).
    """
    adapter = get_figure(figure)
    resolved = adapter.resolve_metrics(summary)
    if not resolved:
        return [], []
    return summary_rows(summary, metrics=resolved)


def _timing_line(summary: Mapping[str, object]) -> str:
    """The ``campaign timing: ...`` suffix, or ``""`` for untimed summaries."""
    timing = summary.get("timing") or {}
    if not timing.get("n"):
        return ""
    return (
        f"\ncampaign timing: {timing['total_elapsed_s']:.2f} s total over "
        f"{timing['n']} timed trial(s), mean {timing['mean_elapsed_s']:.2f} s/trial"
    )


def _missing_metrics_note(adapter: FigureAdapter) -> str:
    return (
        f"{adapter.title}: campaign summary contains none of this figure's "
        f"metrics ({', '.join(adapter.metrics)}) — re-run the campaign with "
        f"current code to record them"
    )


def _default_formatter(adapter: FigureAdapter, summary: Mapping[str, object]) -> str:
    resolved = adapter.resolve_metrics(summary)
    if not resolved:
        return _missing_metrics_note(adapter)
    headers, rows = summary_rows(summary, metrics=resolved)
    if not rows:
        return f"{adapter.title}: campaign summary has no aggregated groups yet"
    title = f"{adapter.title} — campaign aggregates (mean±ci95 over seeds)"
    return format_table(headers, rows, title=title) + _timing_line(summary)


# ------------------------------------------------------------------ scenarios

#: the scenario axis fields, in presentation order.
_SCENARIO_AXES = ("churn", "workload", "adversary")


def _resolved_scenario(params: Mapping[str, object]):
    """The group's :class:`~repro.scenarios.experiment.ScenarioConfig`,
    preset-resolved, or ``None`` when the params aren't scenario-shaped
    (hand-crafted summaries, foreign kinds)."""
    from ..scenarios.experiment import ScenarioConfig
    from ..experiments.results import config_from_dict

    try:
        return config_from_dict(ScenarioConfig, dict(params)).resolved()
    except (TypeError, ValueError):
        return None


def _label_for(cfg, params: Mapping[str, object]) -> str:
    """Display label for a group whose resolved config is ``cfg`` (may be
    ``None`` for non-scenario-shaped params)."""
    if cfg is None:
        return str(params.get("preset", "") or "custom")
    if cfg.preset:
        # A preset label must still show axes the user overrode on top of
        # it, or a grid sweeping an axis under one preset would render
        # indistinguishable rows.  Compare against the *pure* preset's
        # resolution, not the dataclass defaults.
        baseline = type(cfg)(preset=cfg.preset).resolved()
        overrides = [
            f"{axis}={getattr(cfg, axis)}"
            for axis in _SCENARIO_AXES
            if getattr(cfg, axis) != getattr(baseline, axis)
        ]
        return " ".join([cfg.preset] + overrides)
    defaults = type(cfg)()
    axes = [
        f"{axis}={getattr(cfg, axis)}"
        for axis in _SCENARIO_AXES
        if getattr(cfg, axis) != getattr(defaults, axis)
    ]
    return ",".join(axes) or "plain"


def scenario_group_label(params: Mapping[str, object]) -> str:
    """One scenario group's display label: the preset name, or the
    non-default axes (``workload=zipf,adversary=eclipse``) of a hand-composed
    scenario, or ``plain`` for the all-defaults environment."""
    return _label_for(_resolved_scenario(params), params)


def scenario_summary_rows(
    summary: Mapping[str, object],
    metrics: Optional[Sequence[str]] = None,
    base_kind: Optional[str] = None,
) -> Tuple[List[str], List[List[object]]]:
    """(headers, rows) of a scenario campaign's aggregates, one row per
    scenario group, labelled by preset / composed axes.

    ``base_kind`` filters to groups whose (preset-resolved) base experiment
    matches — a scenario campaign may sweep presets of several base kinds,
    and a figure only reports the metrics of one of them.  Default metric
    columns come from the groups that survive the filter, so excluded kinds
    contribute no blank columns.  Groups the label alone cannot tell apart
    (same preset, different ``*_params``/``base`` grid cells) get the
    varying grid params appended; rows are sorted by label so per-preset
    comparisons read top-to-bottom.
    """
    included: List[Tuple[object, Mapping[str, object], Mapping[str, object]]] = []
    for group in summary.get("groups", []):
        params = group.get("params", {})
        cfg = _resolved_scenario(params)
        experiment = cfg.experiment if cfg else params.get("experiment", "security")
        if base_kind is not None and experiment != base_kind:
            continue
        included.append((cfg, params, group))
    if not included:
        return [], []
    metric_names = (
        list(metrics)
        if metrics
        else sorted({m for _cfg, _params, g in included for m in g["metrics"]})
    )
    headers = ["scenario", "n"] + metric_names
    labels = [_label_for(cfg, params) for cfg, params, _group in included]
    if len(set(labels)) < len(labels):
        # The label shows the preset / axis choices only; when groups differ
        # in params it cannot show (axis kwargs, base overrides, the base
        # experiment itself), append the varying ones so duplicate-labelled
        # rows stay distinguishable.
        label_shown = {"preset", *_SCENARIO_AXES}
        varied = sorted(
            key
            for key in {k for _cfg, p, _g in included for k in p}
            if key not in label_shown
            and len({canonical_json(p.get(key)) for _cfg, p, _g in included}) > 1
        )
        if varied:
            labels = [
                f"{label} {canonical_json({k: p.get(k) for k in varied})}"
                for label, (_cfg, p, _g) in zip(labels, included)
            ]
    rows: List[List[object]] = []
    for label, (_cfg, _params, group) in zip(labels, included):
        n, cells = group_metric_cells(group, metric_names)
        rows.append([label, n] + cells)
    rows.sort(key=lambda r: str(r[0]))
    return headers, rows


def _scenario_formatter(base_kind: str) -> FigureFormatter:
    """A formatter for scenario-kind campaigns reporting one base kind's
    metrics, grouped per preset."""

    def formatter(adapter: FigureAdapter, summary: Mapping[str, object]) -> str:
        resolved = adapter.resolve_metrics(summary)
        if not resolved:
            return _missing_metrics_note(adapter)
        headers, rows = scenario_summary_rows(summary, resolved, base_kind=base_kind)
        if not rows:
            return (
                f"{adapter.title}: campaign has no scenario groups with base "
                f"kind {base_kind!r} yet"
            )
        title = f"{adapter.title} — per-scenario campaign aggregates (mean±ci95 over seeds)"
        return format_table(headers, rows, title=title) + _timing_line(summary)

    return formatter


# ------------------------------------------------------------------- adaptive


def _resolved_adaptive(params: Mapping[str, object]):
    """The group's :class:`~repro.scenarios.adaptive.AdaptiveConfig`,
    preset-resolved, or ``None`` when the params aren't adaptive-shaped."""
    from ..experiments.results import config_from_dict
    from ..scenarios.adaptive import AdaptiveConfig

    try:
        return config_from_dict(AdaptiveConfig, dict(params)).resolved()
    except (TypeError, ValueError):
        return None


def adaptive_group_label(params: Mapping[str, object]) -> str:
    """One adaptive group's display label: ``attacker vs defense``, prefixed
    with the preset name when one was used."""
    cfg = _resolved_adaptive(params)
    if cfg is None:
        return str(params.get("preset", "") or "custom")
    engagement = f"{cfg.attacker} vs {cfg.defense}"
    return f"{cfg.preset}: {engagement}" if cfg.preset else engagement


def adaptive_summary_rows(
    summary: Mapping[str, object],
    metrics: Optional[Sequence[str]] = None,
) -> Tuple[List[str], List[List[object]]]:
    """(headers, rows) of an adaptive campaign's aggregates, one row per
    attacker-strategy × defense-policy group.

    Same shape contract as :func:`scenario_summary_rows`: groups the label
    cannot tell apart (same controllers, different param/base grid cells)
    get the varying grid params appended; rows sort by label.
    """
    groups = list(summary.get("groups", []))
    if not groups:
        return [], []
    metric_names = (
        list(metrics) if metrics else sorted({m for g in groups for m in g["metrics"]})
    )
    headers = ["engagement", "n"] + metric_names
    labels = [adaptive_group_label(g.get("params", {})) for g in groups]
    if len(set(labels)) < len(labels):
        label_shown = {"preset", "attacker", "defense"}
        varied = sorted(
            key
            for key in {k for g in groups for k in g.get("params", {})}
            if key not in label_shown
            and len({canonical_json(g.get("params", {}).get(key)) for g in groups}) > 1
        )
        if varied:
            labels = [
                f"{label} {canonical_json({k: g.get('params', {}).get(k) for k in varied})}"
                for label, g in zip(labels, groups)
            ]
    rows: List[List[object]] = []
    for label, group in zip(labels, groups):
        n, cells = group_metric_cells(group, metric_names)
        rows.append([label, n] + cells)
    rows.sort(key=lambda r: str(r[0]))
    return headers, rows


def _adaptive_formatter(adapter: FigureAdapter, summary: Mapping[str, object]) -> str:
    resolved = adapter.resolve_metrics(summary)
    if not resolved:
        return _missing_metrics_note(adapter)
    headers, rows = adaptive_summary_rows(summary, resolved)
    if not rows:
        return f"{adapter.title}: campaign summary has no aggregated groups yet"
    title = f"{adapter.title} — per-engagement campaign aggregates (mean±ci95 over seeds)"
    return format_table(headers, rows, title=title) + _timing_line(summary)


def render_figure_aggregates(figure: str, results) -> str:
    """Render a loaded :class:`repro.campaign.CampaignResults` for one figure.

    Returns a table of mean±ci95 rows when the campaign's kind matches the
    figure's, and an explanatory one-liner otherwise (no summary yet, or a
    campaign of a different experiment kind).
    """
    adapter = get_figure(figure)
    if results is None:
        return ""
    kind = getattr(results.spec, "kind", None)
    if kind != adapter.kind:
        return (
            f"{adapter.title}: --campaign-results is a {kind!r} campaign; "
            f"this figure needs kind {adapter.kind!r} — skipping aggregates"
        )
    if not results.summary:
        return f"{adapter.title}: campaign directory has no summary.json yet"
    formatter = adapter.formatter or _default_formatter
    return formatter(adapter, results.summary)


for _adapter in (
    FigureAdapter(
        figure="fig3a",
        bench="bench_fig3a_lookup_bias.py",
        title="Figure 3(a) — malicious fraction under lookup bias",
        kind="security",
        metrics=("initial_malicious_fraction", "final_malicious_fraction", "false_positive_rate"),
    ),
    FigureAdapter(
        figure="fig3b",
        bench="bench_fig3b_biased_lookups.py",
        title="Figure 3(b) — cumulative lookups vs biased lookups",
        kind="security",
        metrics=("total_lookups", "total_biased_lookups"),
    ),
    FigureAdapter(
        figure="fig3c",
        bench="bench_fig3c_fingertable_manipulation.py",
        title="Figure 3(c) — malicious fraction under fingertable manipulation",
        kind="security",
        metrics=("final_malicious_fraction", "false_negative_rate", "false_positive_rate"),
    ),
    FigureAdapter(
        figure="fig4",
        bench="bench_fig4_fingertable_pollution.py",
        title="Figure 4 — malicious fraction under fingertable pollution",
        kind="security",
        metrics=(
            "final_malicious_fraction",
            "false_positive_rate",
            "false_negative_rate",
            "false_alarm_rate",
        ),
    ),
    FigureAdapter(
        figure="fig5a",
        bench="bench_fig5a_initiator_anonymity.py",
        title="Figure 5(a) — Octopus initiator anonymity H(I)",
        kind="anonymity",
        metrics=("octopus_initiator_entropy", "octopus_initiator_leak"),
    ),
    FigureAdapter(
        figure="fig5b",
        bench="bench_fig5b_initiator_comparison.py",
        title="Figure 5(b) — initiator anonymity comparison",
        kind="anonymity",
        metrics=("octopus_initiator_entropy", "*_initiator_leak"),
    ),
    FigureAdapter(
        figure="fig5c",
        bench="bench_fig5c_target_anonymity.py",
        title="Figure 5(c) — Octopus target anonymity H(T)",
        kind="anonymity",
        metrics=("octopus_target_entropy", "octopus_target_leak"),
    ),
    FigureAdapter(
        figure="fig6",
        bench="bench_fig6_target_comparison.py",
        title="Figure 6 — target anonymity comparison",
        kind="anonymity",
        metrics=("octopus_target_entropy", "*_target_leak"),
    ),
    FigureAdapter(
        figure="fig7a",
        bench="bench_fig7a_latency_cdf.py",
        title="Figure 7(a) — lookup latency CDF",
        kind="efficiency",
        metrics=("*_mean_latency_s", "*_median_latency_s"),
    ),
    FigureAdapter(
        figure="fig7b",
        bench="bench_fig7b_ca_workload.py",
        title="Figure 7(b) — CA workload",
        kind="security",
        metrics=("ca_messages_total", "ca_messages_peak_per_s"),
    ),
    FigureAdapter(
        figure="fig9",
        bench="bench_fig9_selective_dos.py",
        title="Figure 9 — malicious fraction under selective DoS",
        kind="security",
        metrics=("final_malicious_fraction", "false_positive_rate"),
    ),
    FigureAdapter(
        figure="table1",
        bench="bench_table1_timing_analysis.py",
        title="Table 1 — timing-analysis error rates",
        kind="timing",
        metrics=("min_error_rate", "max_information_leak_bits", "error_rate_*"),
    ),
    FigureAdapter(
        figure="table2",
        bench="bench_table2_identification_accuracy.py",
        title="Table 2 — identification accuracy under churn",
        kind="security",
        metrics=("false_positive_rate", "false_negative_rate", "false_alarm_rate"),
    ),
    FigureAdapter(
        figure="table3",
        bench="bench_table3_efficiency.py",
        title="Table 3 — latency / bandwidth comparison",
        kind="efficiency",
        metrics=("*_mean_latency_s", "*_median_latency_s", "*_kbps_lk_int_*"),
    ),
    FigureAdapter(
        figure="scenarios",
        bench="bench_scenarios.py",
        title="Scenario sweep — identification across environments",
        kind="scenario",
        metrics=(
            "initial_malicious_fraction",
            "final_malicious_fraction",
            "churn_departures",
            "churn_rejoins",
            "total_lookups",
        ),
        formatter=_scenario_formatter("security"),
    ),
    FigureAdapter(
        figure="table3-scenarios",
        bench="bench_table3_scenarios.py",
        title="Table 3 under scenarios — efficiency per workload environment",
        kind="scenario",
        metrics=("*_mean_latency_s", "*_median_latency_s", "*_kbps_lk_int_*"),
        formatter=_scenario_formatter("efficiency"),
    ),
    FigureAdapter(
        figure="load",
        bench="bench_load.py",
        title="Open-loop load sweep — offered RPS vs latency/success",
        kind="load",
        metrics=(
            "offered_rps_measured",
            "delivered_rps",
            "success_rate",
            "latency_p50_s",
            "latency_p90_s",
            "latency_p99_s",
            "queue_delay_p99_s",
            "inflight_mean",
        ),
    ),
    FigureAdapter(
        figure="adaptive",
        bench="bench_adaptive.py",
        title="Adaptive engagements — attacker strategy vs defense policy",
        kind="adaptive",
        metrics=(
            "initial_malicious_fraction",
            "final_malicious_fraction",
            "engagement_identification_latency_mean_s",
            "engagement_revocations_total",
            "engagement_re_placements_total",
            "engagement_*",
            "false_positive_rate",
        ),
        formatter=_adaptive_formatter,
    ),
):
    register_figure(_adapter)
