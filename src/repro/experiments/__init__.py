"""Experiment harnesses regenerating every table and figure of the paper.

* :mod:`repro.experiments.security` — Figures 3(a)-(c), 4, 9, 7(b), Table 2.
* :mod:`repro.experiments.anonymity` — Figures 5(a)-(c), 6.
* :mod:`repro.experiments.efficiency` — Table 3, Figure 7(a).
* :mod:`repro.experiments.timing` — Table 1.
* :mod:`repro.experiments.ablation` — Section 4.2 design ablation.
* :mod:`repro.experiments.load` — open-loop sustained-RPS load sweeps
  (offered vs delivered load, latency percentiles, saturation knee).

Every harness also exposes a pickleable module-level ``run_<kind>(config,
**axes)`` entry point and ``to_dict()``-able results so :mod:`repro.campaign`
can fan trials out across worker processes.  :mod:`repro.experiments.kinds`
declares each kind once (``BASE_KINDS``); the campaign registry, the scenario
layer and the CLI subcommands are derived from that table.
"""

from .ablation import AblationConfig, AblationResult, AnonymityAblation, run_ablation
from .anonymity import (
    AnonymityExperiment,
    AnonymityExperimentConfig,
    AnonymityExperimentResult,
    AnonymityPoint,
    run_anonymity,
)
from .efficiency import (
    EfficiencyExperiment,
    EfficiencyExperimentConfig,
    EfficiencyExperimentResult,
    SchemeEfficiency,
    run_efficiency,
)
from .kinds import BASE_KINDS, ExperimentKind
from .load import LoadConfig, LoadExperiment, LoadResult, run_load
from .results import (
    ExperimentRecord,
    config_from_dict,
    format_series,
    format_table,
    jsonify,
    percentile,
    percentile_from_cdf,
)
from .security import (
    SecurityExperiment,
    SecurityExperimentConfig,
    SecurityExperimentResult,
    run_attack_sweep,
    run_security,
)
from .timing import TimingExperiment, TimingExperimentConfig, TimingExperimentResult, run_timing

__all__ = [
    "AblationConfig",
    "AblationResult",
    "AnonymityAblation",
    "AnonymityExperiment",
    "AnonymityExperimentConfig",
    "AnonymityExperimentResult",
    "AnonymityPoint",
    "BASE_KINDS",
    "EfficiencyExperiment",
    "EfficiencyExperimentConfig",
    "EfficiencyExperimentResult",
    "SchemeEfficiency",
    "ExperimentKind",
    "ExperimentRecord",
    "LoadConfig",
    "LoadExperiment",
    "LoadResult",
    "config_from_dict",
    "format_series",
    "format_table",
    "jsonify",
    "percentile",
    "percentile_from_cdf",
    "SecurityExperiment",
    "SecurityExperimentConfig",
    "SecurityExperimentResult",
    "run_ablation",
    "run_anonymity",
    "run_attack_sweep",
    "run_efficiency",
    "run_load",
    "run_security",
    "run_timing",
    "TimingExperiment",
    "TimingExperimentConfig",
    "TimingExperimentResult",
]
