"""Lint configuration: whitelists and rule scoping, declared in one place.

The analyzer itself is policy-free; everything repository-specific — which
modules may read the wall clock, which modules must keep their dataclasses
frozen, which rules are enabled — lives here so a reviewer can audit the
escape hatches at a glance.  ``repro lint --rules`` renders the whitelist
column from this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet

#: Modules allowed to read the wall clock (rule D103).  These are exactly the
#: modules whose *job* is wall-clock observation and whose output lives
#: outside the determinism-compared view (``streaming.strip_timing`` drops
#: every ``timing`` block):
#:
#: * ``repro.campaign.backends.base`` — per-trial ``timing.elapsed_s`` capture;
#: * ``repro.campaign.backends.queue`` — claim-TTL deadlines and poll pacing;
#: * ``repro.campaign.persistence``   — claim timestamps and skew-proof expiry;
#: * ``repro.campaign.telemetry``     — worker heartbeats (epoch-stamped);
#: * ``repro.campaign.status``        — read-only staleness/ETA view;
#: * ``repro.sim.profiling``          — opt-in phase timers (``timing.profile``);
#: * ``repro.cli``                    — progress-line throughput.
#:
#: Everything else — the simulator, the protocols, the harnesses — must use
#: the engine's virtual clock; a wall-clock read there can leak into records.
WALL_CLOCK_MODULES: FrozenSet[str] = frozenset({
    "repro.campaign.backends.base",
    "repro.campaign.backends.queue",
    "repro.campaign.persistence",
    "repro.campaign.telemetry",
    "repro.campaign.status",
    "repro.sim.profiling",
    "repro.cli",
})

#: Modules whose ``@dataclass`` definitions must be ``frozen=True`` (rule
#: D302): hook-bus events are shared by every subscriber in registration
#: order, so a mutating subscriber would change what later subscribers see.
FROZEN_DATACLASS_MODULES: FrozenSet[str] = frozenset({
    "repro.sim.hooks",
})

#: Modules holding mid-run controllers (rule D303): controllers must draw
#: only from their dedicated ``ctx.rng`` (the experiment's ``spawn("control")``
#: source) — touching ``*.network.rng`` / ``*.engine.rng`` would perturb the
#: simulation's own streams and break static-vs-adaptive comparability.
CONTROLLER_MODULES: FrozenSet[str] = frozenset({
    "repro.scenarios.controllers",
})


@dataclass(frozen=True)
class LintConfig:
    """Effective configuration for one lint run."""

    wall_clock_modules: FrozenSet[str] = WALL_CLOCK_MODULES
    frozen_dataclass_modules: FrozenSet[str] = FROZEN_DATACLASS_MODULES
    controller_modules: FrozenSet[str] = CONTROLLER_MODULES
    #: rule ids disabled wholesale ('' default: everything runs).
    disabled_rules: FrozenSet[str] = field(default_factory=frozenset)

    def rule_enabled(self, rule_id: str) -> bool:
        return rule_id not in self.disabled_rules

    def whitelisted(self, rule_id: str, module: str) -> bool:
        """Whether ``module`` is whitelisted for ``rule_id``.

        Scoped rules (D302/D303) invert the logic: they only *apply* inside
        their module set, so every other module is trivially whitelisted.
        """
        if rule_id == "D103":
            return module in self.wall_clock_modules
        if rule_id == "D302":
            return module not in self.frozen_dataclass_modules
        if rule_id == "D303":
            return module not in self.controller_modules
        return False


DEFAULT_CONFIG = LintConfig()
