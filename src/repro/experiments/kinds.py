"""The table of base experiment kinds — the one place a kind is declared.

A *kind* is a named experiment family: a config dataclass, a pickleable
module-level ``run_<kind>(config, **axes)`` entry point, and the scenario
axes (``churn`` / ``workload`` / ``adversary``, see :mod:`repro.scenarios`)
that entry point accepts as keywords.  Everything else that needs to know
what a kind is derives it from :data:`BASE_KINDS`:

* :mod:`repro.campaign.registry` registers one campaign adapter per row;
* :mod:`repro.scenarios.experiment` validates ``experiment=NAME``, builds the
  row's config and calls ``row.run(config, **applied_axes)``;
* :mod:`repro.cli` generates ``repro <kind> --param NAME=VALUE`` from the
  registered adapters, listing the config's fields in ``--help``.

Adding a base kind (a new baseline family, say) is one row here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from .ablation import AblationConfig, run_ablation
from .anonymity import AnonymityExperimentConfig, run_anonymity
from .efficiency import EfficiencyExperimentConfig, run_efficiency
from .load import LoadConfig, run_load
from .security import SecurityExperimentConfig, run_security
from .timing import TimingExperimentConfig, run_timing


@dataclass(frozen=True)
class ExperimentKind:
    """One row of the kind table."""

    name: str
    config_cls: type
    #: ``run(config, **axes) -> result``; the result exposes
    #: ``scalar_metrics()`` and ``to_dict()``.
    run: Callable
    #: scenario axes ``run`` accepts as keywords; any other non-default axis
    #: of a scenario is reported under ``ignored_axes``, never dropped.
    axes: Tuple[str, ...]
    description: str
    #: engine-less harness: it consumes the workload axis through the
    #: closed-loop ``next_initiator``/``next_key`` draw surface only, so a
    #: model that is an engine-scheduled arrival process (``closed_loop =
    #: False``, e.g. open-loop Poisson) cannot apply and is reported ignored.
    closed_loop: bool = False


BASE_KINDS: Dict[str, ExperimentKind] = {
    row.name: row
    for row in (
        ExperimentKind(
            "security", SecurityExperimentConfig, run_security,
            ("churn", "workload", "adversary"),
            "attacker identification under active attacks (Figs 3/4/9, Table 2)",
        ),
        ExperimentKind(
            "anonymity", AnonymityExperimentConfig, run_anonymity,
            ("adversary",),
            "initiator/target anonymity sweeps (Figs 5/6)",
        ),
        ExperimentKind(
            "efficiency", EfficiencyExperimentConfig, run_efficiency,
            ("workload", "adversary"),
            "latency/bandwidth comparison (Table 3, Fig 7(a))",
            closed_loop=True,
        ),
        ExperimentKind(
            "timing", TimingExperimentConfig, run_timing,
            (),
            "timing-analysis error rates (Table 1)",
        ),
        ExperimentKind(
            "ablation", AblationConfig, run_ablation,
            ("adversary",),
            "multi-path / dummy-query design ablation (Section 4.2)",
        ),
        ExperimentKind(
            "load", LoadConfig, run_load,
            ("churn", "workload", "adversary"),
            "open-loop sustained-RPS load sweep (offered vs delivered, latency knee)",
        ),
    )
}
