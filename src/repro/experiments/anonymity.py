"""Anonymity experiments: Figures 5(a), 5(b), 5(c) and 6.

Sweeps the fraction of malicious nodes and evaluates initiator/target
anonymity for Octopus (at several dummy-query counts and concurrent lookup
rates) and for the comparison schemes (Chord, NISAN, Torsk).

The paper uses N = 100,000; the estimators scale to that, but the default
benchmark configuration uses a smaller network so the suite runs in seconds.
Both are pure parameters of :class:`AnonymityExperimentConfig`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..anonymity.comparison import ComparisonAnonymityModel
from ..anonymity.initiator import InitiatorAnonymityEstimator
from ..anonymity.observations import AnonymityConfig
from ..anonymity.ring_model import LightweightRing
from ..anonymity.target import TargetAnonymityEstimator
from .results import jsonify


@dataclass
class AnonymityExperimentConfig:
    """Parameters of the anonymity sweeps."""

    n_nodes: int = 10_000
    fractions_malicious: Tuple[float, ...] = (0.04, 0.08, 0.12, 0.16, 0.20)
    dummy_counts: Tuple[int, ...] = (2, 6)
    concurrent_lookup_rates: Tuple[float, ...] = (0.005, 0.01)
    n_worlds: int = 200
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return jsonify(asdict(self))


@dataclass
class AnonymityPoint:
    """One data point of the anonymity figures."""

    scheme: str
    fraction_malicious: float
    dummy_queries: int
    concurrent_lookup_rate: float
    initiator_entropy: float
    target_entropy: float
    initiator_leak: float
    target_leak: float
    ideal_entropy: float


@dataclass
class AnonymityExperimentResult:
    """All points of Figures 5(a)/5(c) (Octopus) and 5(b)/6 (comparison)."""

    config: AnonymityExperimentConfig
    octopus_points: List[AnonymityPoint] = field(default_factory=list)
    comparison_points: List[AnonymityPoint] = field(default_factory=list)

    def octopus_series(self, dummy_queries: int, alpha: float) -> List[Tuple[float, float, float]]:
        """``(f, H(I), H(T))`` tuples for one Octopus configuration."""
        return [
            (p.fraction_malicious, p.initiator_entropy, p.target_entropy)
            for p in self.octopus_points
            if p.dummy_queries == dummy_queries and abs(p.concurrent_lookup_rate - alpha) < 1e-9
        ]

    def comparison_series(self, scheme: str) -> List[Tuple[float, float, float]]:
        return [
            (p.fraction_malicious, p.initiator_entropy, p.target_entropy)
            for p in self.comparison_points
            if p.scheme == scheme
        ]

    def scalar_metrics(self) -> Dict[str, float]:
        """Per-scheme mean entropies/leaks across all swept points."""
        metrics: Dict[str, float] = {}
        by_scheme: Dict[str, List[AnonymityPoint]] = {}
        for p in self.octopus_points + self.comparison_points:
            by_scheme.setdefault(p.scheme, []).append(p)
        for scheme in sorted(by_scheme):
            pts = by_scheme[scheme]
            n = float(len(pts))
            metrics[f"{scheme}_initiator_entropy"] = sum(p.initiator_entropy for p in pts) / n
            metrics[f"{scheme}_target_entropy"] = sum(p.target_entropy for p in pts) / n
            metrics[f"{scheme}_initiator_leak"] = sum(p.initiator_leak for p in pts) / n
            metrics[f"{scheme}_target_leak"] = sum(p.target_leak for p in pts) / n
        return metrics

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "octopus_points": [asdict(p) for p in self.octopus_points],
            "comparison_points": [asdict(p) for p in self.comparison_points],
        }


class AnonymityExperiment:
    """Runs the full anonymity sweep.

    ``adversary`` optionally replaces the uniform-random malicious sample of
    every ring the sweep builds with a placement strategy callable (see
    :class:`~repro.anonymity.ring_model.LightweightRing`); it is the scenario
    subsystem's injection point for clustered-eclipse and similar adversary
    placements.
    """

    def __init__(
        self,
        config: Optional[AnonymityExperimentConfig] = None,
        adversary=None,
    ) -> None:
        self.config = config or AnonymityExperimentConfig()
        self.placement = adversary

    def _ring(self, fraction_malicious: float) -> LightweightRing:
        return LightweightRing(
            n_nodes=self.config.n_nodes,
            fraction_malicious=fraction_malicious,
            seed=self.config.seed,
            placement=self.placement,
        )

    def run_octopus(self) -> List[AnonymityPoint]:
        """Octopus points: Figures 5(a) and 5(c)."""
        cfg = self.config
        points: List[AnonymityPoint] = []
        for f in cfg.fractions_malicious:
            ring = self._ring(f)
            for dummies in cfg.dummy_counts:
                for alpha in cfg.concurrent_lookup_rates:
                    anon_cfg = AnonymityConfig(concurrent_lookup_rate=alpha, dummy_queries=dummies)
                    init_est = InitiatorAnonymityEstimator(ring, config=anon_cfg)
                    tgt_est = TargetAnonymityEstimator(ring, config=anon_cfg, presim=init_est.presim)
                    init_res = init_est.estimate(n_worlds=cfg.n_worlds)
                    tgt_res = tgt_est.estimate(n_worlds=cfg.n_worlds)
                    points.append(
                        AnonymityPoint(
                            scheme="octopus",
                            fraction_malicious=f,
                            dummy_queries=dummies,
                            concurrent_lookup_rate=alpha,
                            initiator_entropy=init_res.entropy_bits,
                            target_entropy=tgt_res.entropy_bits,
                            initiator_leak=init_res.information_leak_bits,
                            target_leak=tgt_res.information_leak_bits,
                            ideal_entropy=init_res.ideal_entropy_bits,
                        )
                    )
        return points

    def run_comparison(self, alpha: float = 0.01) -> List[AnonymityPoint]:
        """Chord / NISAN / Torsk points: Figures 5(b) and 6 (alpha = 1%)."""
        cfg = self.config
        points: List[AnonymityPoint] = []
        for f in cfg.fractions_malicious:
            ring = self._ring(f)
            model = ComparisonAnonymityModel(ring, concurrent_lookup_rate=alpha)
            for scheme, res in model.all_schemes().items():
                points.append(
                    AnonymityPoint(
                        scheme=scheme,
                        fraction_malicious=f,
                        dummy_queries=0,
                        concurrent_lookup_rate=alpha,
                        initiator_entropy=res.initiator.entropy_bits,
                        target_entropy=res.target.entropy_bits,
                        initiator_leak=res.initiator.information_leak_bits,
                        target_leak=res.target.information_leak_bits,
                        ideal_entropy=res.initiator.ideal_entropy_bits,
                    )
                )
        return points

    def run(self) -> AnonymityExperimentResult:
        result = AnonymityExperimentResult(config=self.config)
        result.octopus_points = self.run_octopus()
        result.comparison_points = self.run_comparison()
        return result


def run_anonymity(
    config: Optional[AnonymityExperimentConfig] = None, **axes
) -> AnonymityExperimentResult:
    """Pickleable entry point: ``(config)`` for campaign workers; the harness's
    scenario axis passes through as a keyword."""
    return AnonymityExperiment(config, **axes).run()
