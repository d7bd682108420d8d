"""Registry mapping experiment kinds to pickleable campaign entry points.

Each adapter pairs a config dataclass with a module-level ``run_<kind>``
function.  The base kinds are not named here: one adapter is registered per
row of :data:`repro.experiments.kinds.BASE_KINDS`, plus the two
scenario-layer kinds that wrap them.  Workers receive only the kind name
and a plain parameter dict, look the adapter up in their own process, build
the typed config, and run — so nothing that crosses the process boundary
needs to be pickleable beyond builtins.

``register_experiment`` is public: tests and downstream extensions can add
kinds (e.g. toy experiments, future distributed workloads) without touching
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Tuple

from ..experiments.kinds import BASE_KINDS
from ..experiments.results import config_from_dict
from ..scenarios.adaptive import AdaptiveConfig, run_adaptive
from ..scenarios.experiment import ScenarioConfig, run_scenario


@dataclass(frozen=True)
class ExperimentAdapter:
    """Binds an experiment kind to its config class and entry point.

    ``entry_point`` must be a module-level callable ``(config) -> result``
    whose result exposes ``scalar_metrics() -> Dict[str, float]`` and
    ``to_dict() -> dict`` (all :mod:`repro.experiments` harnesses do).
    """

    kind: str
    config_cls: type
    entry_point: Callable
    description: str = ""

    def build_config(self, params: Mapping[str, object]):
        return config_from_dict(self.config_cls, dict(params))

    def run(self, params: Mapping[str, object]):
        return self.entry_point(self.build_config(params))


_REGISTRY: Dict[str, ExperimentAdapter] = {}


def register_experiment(adapter: ExperimentAdapter, replace: bool = False) -> None:
    """Add an experiment kind to the registry (``replace=True`` to override)."""
    if adapter.kind in _REGISTRY and not replace:
        raise ValueError(f"experiment kind {adapter.kind!r} is already registered")
    _REGISTRY[adapter.kind] = adapter


def get_experiment(kind: str) -> ExperimentAdapter:
    if kind not in _REGISTRY:
        raise KeyError(f"unknown experiment kind {kind!r}; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[kind]


def available_kinds() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


for _row in BASE_KINDS.values():
    register_experiment(ExperimentAdapter(_row.name, _row.config_cls, _row.run, _row.description))
register_experiment(
    ExperimentAdapter(
        "scenario", ScenarioConfig, run_scenario,
        "any base experiment under named churn/workload/adversary axes (repro.scenarios)",
    )
)
register_experiment(
    ExperimentAdapter(
        "adaptive", AdaptiveConfig, run_adaptive,
        "security run under mid-run attacker strategy x defense policy controllers",
    )
)
