"""The ``scenario`` experiment kind: any base experiment × three axes.

:class:`ScenarioConfig` names a base experiment kind plus one generator per
scenario axis (churn profile, workload model, adversary placement, each with
its JSON parameter dict, see the sibling modules).  :func:`run_scenario` is
the pickleable campaign entry point: it resolves the optional preset, builds
the axis generators, passes the ones the base kind declares
(:data:`repro.experiments.kinds.BASE_KINDS`) to its ``run`` as keywords, and
wraps the base result so
``scalar_metrics()``/``to_dict()`` keep the campaign contract.

Axes that a base kind cannot express are *reported*, never silently
dropped: the result's ``ignored_axes`` lists every non-default axis that
did not apply (the analytical ``timing`` model, for instance, has no ring
to place an adversary on), so a sweep over kinds stays honest.

Default axes are not passed at all — the harnesses' historical inline code
paths — so the ``paper-baseline`` scenario reproduces the plain base kind's
records draw-for-draw.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..experiments.kinds import BASE_KINDS
from ..experiments.results import config_from_dict, jsonify
from .adversary import PLACEMENTS
from .churn_profiles import CHURN_PROFILES, AdversarialChurnWrapper
from .presets import get_preset
from .workloads import WORKLOADS

#: axis field -> its registry and the default (paper) generator name.
_AXES = {
    "churn": (CHURN_PROFILES, "exponential"),
    "workload": (WORKLOADS, "uniform"),
    "adversary": (PLACEMENTS, "uniform"),
}

@dataclass
class ScenarioConfig:
    """One scenario trial: a base experiment run under three chosen axes."""

    experiment: str = "security"
    #: optional named preset (see :mod:`repro.scenarios.presets`); fills every
    #: axis field left at its default and merges under the param dicts.
    preset: str = ""
    churn: str = "exponential"
    workload: str = "uniform"
    adversary: str = "uniform"
    churn_params: Dict[str, object] = field(default_factory=dict)
    workload_params: Dict[str, object] = field(default_factory=dict)
    adversary_params: Dict[str, object] = field(default_factory=dict)
    #: parameters forwarded to the base experiment's config dataclass.
    base: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    # ------------------------------------------------------------- resolution
    def resolved(self) -> "ScenarioConfig":
        """Apply the preset (if any) and return a fully explicit config.

        Axis fields still at their dataclass default take the preset's
        value; the ``*_params`` and ``base`` dicts merge with explicit user
        keys winning.  Preset params only merge when the resolved choice
        still *is* the preset's choice: overriding an axis generator (or the
        base experiment) discards the preset's params for it, since kwargs
        for one generator are meaningless — usually fatal — to another.
        (A user value that *equals* the default is indistinguishable from
        "unset" and yields to the preset — restate it in the params dict if
        that ever matters.)
        """
        if not self.preset:
            return self
        try:
            preset = get_preset(self.preset)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from exc
        defaults = ScenarioConfig()
        fields: Dict[str, object] = {}
        for name in ("experiment", "churn", "workload", "adversary"):
            mine = getattr(self, name)
            fields[name] = mine if mine != getattr(defaults, name) else preset.get(name, mine)
        for name, owner in (
            ("churn_params", "churn"),
            ("workload_params", "workload"),
            ("adversary_params", "adversary"),
            ("base", "experiment"),
        ):
            preset_choice = preset.get(owner, getattr(defaults, owner))
            from_preset = preset.get(name, {}) if fields[owner] == preset_choice else {}
            fields[name] = {**from_preset, **getattr(self, name)}
        return ScenarioConfig(preset=self.preset, seed=self.seed, **fields)

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        cfg = self.resolved()
        if cfg.experiment not in BASE_KINDS:
            raise ValueError(
                f"unknown base experiment {cfg.experiment!r}; "
                f"choose from {sorted(BASE_KINDS)}"
            )
        if "seed" in cfg.base:
            raise ValueError("put the seed in the scenario's 'seed' field, not in 'base'")
        for axis, (registry, _default) in _AXES.items():
            name = getattr(cfg, axis)
            params = getattr(cfg, f"{axis}_params")
            try:
                registry.build(name, params)  # also validates the params
            except KeyError as exc:
                raise ValueError(exc.args[0]) from exc
        # Build the typed base config so bad base params fail preflight too.
        cfg.build_base_config()

    def build_base_config(self):
        """The typed config of the base experiment (seed folded in)."""
        config_cls = BASE_KINDS[self.experiment].config_cls
        return config_from_dict(config_cls, {**self.base, "seed": self.seed})

    def to_dict(self) -> Dict[str, object]:
        return jsonify(asdict(self))


@dataclass
class ScenarioResult:
    """A base experiment's result plus the scenario it ran under."""

    config: ScenarioConfig  #: the *resolved* config the run used
    base_kind: str
    applied_axes: List[str] = field(default_factory=list)
    ignored_axes: List[str] = field(default_factory=list)
    base_result: object = None

    def scalar_metrics(self) -> Dict[str, float]:
        return self.base_result.scalar_metrics()

    def to_dict(self) -> Dict[str, object]:
        base_detail = self.base_result.to_dict()
        base_detail.pop("metrics", None)  # kept once, at this result's top level
        return {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "scenario": jsonify(
                {
                    "preset": self.config.preset,
                    "base_kind": self.base_kind,
                    "axes": {
                        axis: {
                            "name": getattr(self.config, axis),
                            "params": getattr(self.config, f"{axis}_params"),
                        }
                        for axis in sorted(_AXES)
                    },
                    "applied_axes": sorted(self.applied_axes),
                    "ignored_axes": sorted(self.ignored_axes),
                }
            ),
            "base_result": base_detail,
        }


def run_scenario(config: Optional[ScenarioConfig] = None) -> ScenarioResult:
    """Pickleable ``(config) -> result`` entry point for campaign workers."""
    cfg = (config or ScenarioConfig()).resolved()
    cfg.validate()
    kind = BASE_KINDS[cfg.experiment]
    base_config = cfg.build_base_config()

    # Build only the non-default axes: an axis left out keeps the harness's
    # historical inline path, so paper-baseline scenarios match plain runs
    # exactly.
    generators: Dict[str, object] = {}
    for axis, (registry, default) in _AXES.items():
        name = getattr(cfg, axis)
        params = getattr(cfg, f"{axis}_params")
        if name != default or params:
            generators[axis] = registry.build(name, params)

    applied = {axis: gen for axis, gen in generators.items() if axis in kind.axes}
    ignored = [axis for axis in generators if axis not in kind.axes]

    # The join-leave attack is temporal: its placement asks for adversary
    # nodes to churn faster, which only a churn-capable harness can honour.
    # On a churn-less base kind the placement itself still applies (it is
    # uniform), but the attack's essence does not — report that under
    # ignored_axes rather than letting the record claim an attack ran.
    placement = applied.get("adversary")
    session_scale = getattr(placement, "churn_session_scale", 0.0)
    if session_scale:
        if "churn" in kind.axes:
            applied["churn"] = AdversarialChurnWrapper(
                base=applied.get("churn"),
                session_scale=session_scale,
                downtime_scale=getattr(placement, "churn_downtime_scale", 0.5),
            )
        elif "churn" not in ignored:
            ignored.append("churn")

    # A closed-loop kind measures back-to-back lookups with no engine, so an
    # engine-scheduled arrival process (open-loop Poisson) cannot apply there
    # — report it ignored rather than running uniform traffic under the
    # model's name.
    if kind.closed_loop and not getattr(applied.get("workload"), "closed_loop", True):
        del applied["workload"]
        ignored.append("workload")

    return ScenarioResult(
        config=cfg,
        base_kind=cfg.experiment,
        applied_axes=list(applied),
        ignored_axes=ignored,
        base_result=kind.run(base_config, **applied),
    )
