"""Security experiments: malicious-node identification under active attacks.

Reproduces Section 5 of the paper:

* Figure 3(a): remaining malicious-node fraction under the lookup bias attack
  (attack rates 100% and 50%).
* Figure 3(b): cumulative number of lookups and of biased lookups.
* Figure 3(c): remaining malicious fraction under fingertable manipulation.
* Figure 4: remaining malicious fraction under fingertable pollution.
* Figure 9: remaining malicious fraction under selective DoS.
* Table 2: false positive / false negative / false alarm rates under churn.
* Figure 7(b): the CA's workload over time.

The experiment wires an :class:`~repro.core.octopus_node.OctopusNetwork`,
installs the requested attack behaviour on the adversary's nodes, schedules
the paper's periodic per-node tasks on the discrete-event engine, runs churn,
and samples the metrics over simulated time.  Paper-scale parameters
(N=1000, 1000 s) are the defaults; benchmarks pass scaled-down values that
preserve the qualitative behaviour, as documented in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..attacks.adversary import Adversary
from ..attacks.fingertable_manipulation import FingertableManipulationBehavior
from ..attacks.fingertable_pollution import FingertablePollutionBehavior
from ..attacks.lookup_bias import LookupBiasBehavior
from ..attacks.selective_dos import SelectiveDosBehavior
from ..core.config import OctopusConfig
from ..core.octopus_node import OctopusNetwork
from ..sim.churn import ChurnConfig, ChurnProcess, ChurnProfile
from ..sim.control import ControlContext, Controller, EngagementRecorder
from ..sim.engine import SimulationEngine
from ..sim.kernel import DEFAULT_KERNEL, validate_kernel
from ..sim.metrics import MetricsRegistry
from ..sim.rng import RandomSource
from ..sim.workload import WorkloadModel
from .results import jsonify

#: attack name -> behaviour factory
ATTACKS = {
    "lookup-bias": lambda adv, node, cfg: LookupBiasBehavior(adv, node),
    "fingertable-manipulation": lambda adv, node, cfg: FingertableManipulationBehavior(
        adv, node, collusion_consistency=cfg.collusion_consistency
    ),
    "fingertable-pollution": lambda adv, node, cfg: FingertablePollutionBehavior(
        adv, node, collusion_consistency=cfg.collusion_consistency
    ),
    "selective-dos": lambda adv, node, cfg: SelectiveDosBehavior(adv, node),
    "none": None,
}


@dataclass
class SecurityExperimentConfig:
    """Parameters of one security-simulation run (defaults = Section 5.1)."""

    n_nodes: int = 1000
    fraction_malicious: float = 0.2
    duration: float = 1000.0
    attack: str = "lookup-bias"
    attack_rate: float = 1.0
    collusion_consistency: float = 0.5
    churn_lifetime_minutes: Optional[float] = 60.0
    seed: int = 0
    sample_interval: float = 50.0
    include_lookups: bool = True
    octopus: OctopusConfig = field(default_factory=OctopusConfig)
    #: ring-membership backend (see repro.sim.kernel).
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        validate_kernel(self.kernel)

    def validate(self) -> None:
        if self.attack not in ATTACKS:
            raise ValueError(f"unknown attack {self.attack!r}; choose from {sorted(ATTACKS)}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        validate_kernel(self.kernel)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON representation (tuples already converted to lists)."""
        return jsonify(asdict(self))


@dataclass
class SecurityExperimentResult:
    """Everything the security figures and Table 2 need."""

    config: SecurityExperimentConfig
    #: (time, remaining malicious fraction) samples — Figures 3(a)/3(c)/4/9
    malicious_fraction_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, cumulative lookups) and (time, cumulative biased lookups) — Figure 3(b)
    lookups_series: List[Tuple[float, float]] = field(default_factory=list)
    biased_lookups_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (bucket start, CA messages) — Figure 7(b)
    ca_workload_series: List[Tuple[float, float]] = field(default_factory=list)
    #: Table 2 accuracy metrics
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    false_alarm_rate: float = 0.0
    identified_malicious: int = 0
    identified_honest: int = 0
    total_lookups: int = 0
    total_biased_lookups: int = 0
    final_malicious_fraction: float = 0.0
    initial_malicious_fraction: float = 0.0
    #: churn activity during the run (0 when churn is disabled) — lets
    #: scenario sweeps see how much dynamism each churn profile produced.
    churn_departures: int = 0
    churn_rejoins: int = 0
    #: per-round engagement report and flat engagement scalars; populated
    #: ONLY when mid-run controllers are attached (adaptive experiments), so
    #: controller-less records stay byte-identical to historical output.
    engagement_rounds: List[Dict[str, float]] = field(default_factory=list)
    engagement_summary: Dict[str, float] = field(default_factory=dict)

    def scalar_metrics(self) -> Dict[str, float]:
        """Flat per-trial metrics aggregated by :mod:`repro.campaign`."""
        ca_totals = [v for _, v in self.ca_workload_series]
        sample_interval = float(self.config.sample_interval) or 1.0
        metrics = {
            # CA workload scalars back Figure 7(b)'s campaign aggregates: the
            # series itself stays in to_dict()'s "series" block.
            "ca_messages_total": float(sum(ca_totals)),
            "ca_messages_peak_per_s": float(max(ca_totals) / sample_interval) if ca_totals else 0.0,
            "initial_malicious_fraction": float(self.initial_malicious_fraction),
            "final_malicious_fraction": float(self.final_malicious_fraction),
            "false_positive_rate": float(self.false_positive_rate),
            "false_negative_rate": float(self.false_negative_rate),
            "false_alarm_rate": float(self.false_alarm_rate),
            "identified_malicious": float(self.identified_malicious),
            "identified_honest": float(self.identified_honest),
            "total_lookups": float(self.total_lookups),
            "total_biased_lookups": float(self.total_biased_lookups),
            "churn_departures": float(self.churn_departures),
            "churn_rejoins": float(self.churn_rejoins),
        }
        if self.engagement_summary:
            metrics.update({k: float(v) for k, v in self.engagement_summary.items()})
        return metrics

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dump: config, scalar metrics and the raw series."""
        out = {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "series": {
                "malicious_fraction": [list(p) for p in self.malicious_fraction_series],
                "lookups": [list(p) for p in self.lookups_series],
                "biased_lookups": [list(p) for p in self.biased_lookups_series],
                "ca_workload": [list(p) for p in self.ca_workload_series],
            },
        }
        if self.engagement_rounds:
            out["series"]["engagement"] = [dict(row) for row in self.engagement_rounds]
        return out


class SecurityExperiment:
    """Runs one security-simulation configuration end to end.

    The keywords named after the scenario axes are the scenario-subsystem
    injection points (:mod:`repro.scenarios`): a ``churn`` profile replaces
    the exponential session model, a ``workload`` replaces the uniform
    periodic lookups, and an ``adversary`` placement strategy replaces the
    uniform-random malicious sample.  All
    default to ``None`` — the paper's stylized environment — and injecting
    any of them changes nothing about how the experiment reports results.
    """

    def __init__(
        self,
        config: Optional[SecurityExperimentConfig] = None,
        churn: Optional[ChurnProfile] = None,
        workload: Optional[WorkloadModel] = None,
        adversary=None,
        controllers: Tuple[Controller, ...] = (),
    ) -> None:
        self.config = config or SecurityExperimentConfig()
        self.config.validate()
        self.churn_profile = churn
        self.workload = workload
        self.placement = adversary
        #: mid-run attacker/defense controllers (``repro.scenarios.controllers``);
        #: attaching any — even the static no-ops — turns on the per-round
        #: engagement report in the result.
        self.controllers = tuple(c for c in controllers if c is not None)

    # -------------------------------------------------------------------- run
    def run(self) -> SecurityExperimentResult:
        cfg = self.config
        octopus_cfg = cfg.octopus.scaled_for(cfg.n_nodes)
        network = OctopusNetwork.create(
            n_nodes=cfg.n_nodes,
            fraction_malicious=cfg.fraction_malicious,
            seed=cfg.seed,
            config=octopus_cfg,
            placement=self.placement,
            kernel=cfg.kernel,
        )
        engine = SimulationEngine()
        # The control-plane bus is always bound: with no subscribers it costs
        # nothing and perturbs nothing (pinned by the golden digests).
        network.bind_hooks(engine.hooks)
        rng = RandomSource(cfg.seed + 1)
        metrics = MetricsRegistry()
        result = SecurityExperimentResult(config=cfg)
        result.initial_malicious_fraction = network.remaining_malicious_fraction()

        adversary = Adversary(network.ring, rng, attack_rate=cfg.attack_rate)
        factory = ATTACKS[cfg.attack]
        if factory is not None:
            adversary.install_behavior(lambda adv, node: factory(adv, node, cfg))

        # ----------------------------------------------------------- lookups
        lookups_counter = metrics.counter("lookups")
        biased_counter = metrics.counter("biased-lookups")

        def perform_lookup(node_id: int, draw_key) -> None:
            node = network.ring.get(node_id)
            if node is None or not node.alive:
                return
            key = draw_key()
            outcome = network.lookup(node_id, key, now=engine.now)
            lookups_counter.increment()
            if outcome.biased:
                biased_counter.increment()
            # Selective-DoS defense: investigate any drop the lookup suffered.
            if outcome.drop_culprits:
                self._investigate_drops(network, node_id, outcome)

        # ------------------------------------------------------ periodic tasks
        honest_ids = network.ring.honest_ids(alive_only=True)
        network.schedule_protocols(engine, node_ids=honest_ids, include_lookups=False)
        if cfg.include_lookups:
            workload = self.workload or WorkloadModel()
            workload.schedule(
                engine,
                honest_ids,
                octopus_cfg.lookup_interval,
                network.ring.space.size,
                rng,
                perform_lookup,
                # Open-loop models pick an initiator per arrival; give them
                # the live membership so departed nodes stop absorbing
                # arrivals.  Closed-loop models ignore this (their initiator
                # set is fixed per node at install time), so churn-free and
                # historical runs stay draw-for-draw identical.
                alive_view=lambda: network.ring.honest_ids(alive_only=True),
            )

        # --------------------------------------------------------------- churn
        churn_config = ChurnConfig.from_minutes(cfg.churn_lifetime_minutes)
        churn: Optional[ChurnProcess] = None
        # A profile can opt in even when the exponential model would be off
        # (trace replay runs from an explicit event list, not a mean lifetime).
        if churn_config.enabled or self.churn_profile is not None:
            def rejoin(nid: int) -> None:
                # Revoked nodes never rejoin; everyone else comes back with a
                # freshly rebuilt routing state and a recorded join time.
                if nid in network.ring.removed_ids:
                    return
                network.ring.mark_alive(nid, now=engine.now)

            churn = ChurnProcess(
                engine,
                churn_config,
                rng.spawn("churn"),
                on_leave=network.ring.mark_dead,
                on_join=rejoin,
                profile=self.churn_profile,
            )
            # Profiles that treat adversarial nodes differently (join-leave
            # attack churn) learn the split here.
            churn.profile.bind_population(set(network.ring.malicious_ids))
            churn.start(list(network.ring.nodes))

        # -------------------------------------------------------- controllers
        recorder: Optional[EngagementRecorder] = None
        if self.controllers:
            recorder = EngagementRecorder()
            recorder.seed_compromised(sorted(network.ring.malicious_ids))
            recorder.attach(engine.hooks)
            ctx = ControlContext(
                engine=engine,
                network=network,
                adversary=adversary,
                churn=churn,
                rng=rng.spawn("control"),
                config=cfg,
                recorder=recorder,
            )
            for controller in self.controllers:
                controller.bind(ctx)

        # ------------------------------------------------------------ sampling
        def sample() -> None:
            t = engine.now
            result.malicious_fraction_series.append((t, network.remaining_malicious_fraction()))
            result.lookups_series.append((t, lookups_counter.value))
            result.biased_lookups_series.append((t, biased_counter.value))

        engine.schedule_periodic(cfg.sample_interval, sample, start=0.0)

        engine.run(until=cfg.duration)
        sample()

        # --------------------------------------------------------- aggregation
        stats = network.identification.stats
        result.false_positive_rate = stats.false_positive_rate
        result.false_negative_rate = stats.false_negative_rate
        result.false_alarm_rate = stats.false_alarm_rate
        result.identified_malicious = stats.identified_malicious
        result.identified_honest = stats.identified_honest
        result.total_lookups = int(lookups_counter.value)
        result.total_biased_lookups = int(biased_counter.value)
        result.final_malicious_fraction = network.remaining_malicious_fraction()
        if churn is not None:
            result.churn_departures = len(churn.log.departures)
            result.churn_rejoins = len(churn.log.rejoins)
        result.ca_workload_series = [
            (t, float(count))
            for t, count in network.ca.workload_buckets(bucket_seconds=cfg.sample_interval, horizon=cfg.duration)
        ]
        if recorder is not None:
            result.engagement_rounds = recorder.rounds(
                cfg.sample_interval, cfg.duration, result.malicious_fraction_series
            )
            result.engagement_summary = recorder.summary()
        return result

    # ----------------------------------------------------------------- helpers
    def _investigate_drops(self, network: OctopusNetwork, initiator_id: int, outcome) -> None:
        """File drop reports for every culprit recorded on a lookup."""
        pairs = list(outcome.query_pairs)
        if outcome.first_pair is not None:
            pairs.append(outcome.first_pair)
        for culprit in outcome.drop_culprits:
            containing = next(
                (p for p in pairs if culprit in (p.first, p.second)),
                outcome.first_pair,
            )
            if containing is None or outcome.first_pair is None:
                continue
            relays = [outcome.first_pair.first, outcome.first_pair.second]
            if containing is not outcome.first_pair:
                relays.extend([containing.first, containing.second])
            network.dos_defense.investigate_drop(initiator_id, relays, culprit, now=0.0)


def run_security(
    config: Optional[SecurityExperimentConfig] = None, **injections
) -> SecurityExperimentResult:
    """Pickleable entry point: ``(config)`` for campaign workers; the harness's
    scenario axes and mid-run ``controllers`` pass through as keywords."""
    return SecurityExperiment(config, **injections).run()


def run_attack_sweep(
    attack: str,
    attack_rates: Tuple[float, ...] = (1.0, 0.5),
    base_config: Optional[SecurityExperimentConfig] = None,
) -> Dict[float, SecurityExperimentResult]:
    """Run one attack at several attack rates (the two curves of each figure)."""
    results: Dict[float, SecurityExperimentResult] = {}
    for rate in attack_rates:
        config = replace(base_config or SecurityExperimentConfig(), attack=attack, attack_rate=rate)
        results[rate] = SecurityExperiment(config).run()
    return results
