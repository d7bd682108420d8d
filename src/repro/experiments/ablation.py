"""Ablation study: which of Octopus's anonymity mechanisms actually matter?

Section 4.2 of the paper argues that (a) a *single* anonymous path for all
queries of a lookup lets the adversary link its observations and run the
range-estimation attack, and (b) dummy queries are only effective when
queries travel over separate paths.  This module quantifies both claims by
evaluating target anonymity with each mechanism switched off:

* ``multi-path + dummies`` — the full Octopus design;
* ``multi-path, no dummies`` — dummy queries disabled;
* ``single path + dummies`` — every query shares one (C, D) pair;
* ``single path, no dummies`` — the weakest configuration.

It is not one of the paper's numbered figures, but it regenerates the design
rationale the paper gives in prose, and DESIGN.md lists it as an ablation
target.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from ..anonymity.observations import AnonymityConfig
from ..anonymity.ring_model import LightweightRing
from ..anonymity.target import TargetAnonymityEstimator
from ..sim.rng import RandomSource
from .results import jsonify


@dataclass
class AblationConfig:
    """Parameters of the anonymity-mechanism ablation."""

    n_nodes: int = 8000
    fraction_malicious: float = 0.2
    concurrent_lookup_rate: float = 0.01
    dummy_queries: int = 6
    relay_pairs_per_lookup: int = 4
    n_worlds: int = 150
    seed: int = 0

    def to_dict(self) -> Dict[str, object]:
        return jsonify(asdict(self))


@dataclass
class AblationPoint:
    """Target anonymity of one configuration variant."""

    variant: str
    dummy_queries: int
    relay_pairs: int
    target_entropy: float
    target_leak: float


@dataclass
class AblationResult:
    """All variants, ordered from strongest to weakest configuration."""

    config: AblationConfig
    points: List[AblationPoint] = field(default_factory=list)

    def by_variant(self) -> Dict[str, AblationPoint]:
        return {p.variant: p for p in self.points}

    def scalar_metrics(self) -> Dict[str, float]:
        """H(T)/leak(T) per design variant, variant names slugified for keys."""
        metrics: Dict[str, float] = {}
        for p in self.points:
            slug = re.sub(r"[^a-z0-9]+", "_", p.variant.lower()).strip("_")
            metrics[f"target_entropy_{slug}"] = float(p.target_entropy)
            metrics[f"target_leak_{slug}"] = float(p.target_leak)
        return metrics

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "points": [asdict(p) for p in self.points],
        }


class AnonymityAblation:
    """Evaluates H(T) for the four design variants of Section 4.2."""

    VARIANTS = (
        ("multi-path + dummies", True, True),
        ("multi-path, no dummies", True, False),
        ("single path + dummies", False, True),
        ("single path, no dummies", False, False),
    )

    def __init__(self, config: Optional[AblationConfig] = None, adversary=None) -> None:
        self.config = config or AblationConfig()
        # Scenario-subsystem injection point: optional adversary placement
        # strategy (see LightweightRing), uniform random when None.
        self.placement = adversary

    def run(self) -> AblationResult:
        cfg = self.config
        ring = LightweightRing(
            n_nodes=cfg.n_nodes,
            fraction_malicious=cfg.fraction_malicious,
            seed=cfg.seed,
            placement=self.placement,
        )
        result = AblationResult(config=cfg)
        for variant, multi_path, with_dummies in self.VARIANTS:
            anon_cfg = AnonymityConfig(
                concurrent_lookup_rate=cfg.concurrent_lookup_rate,
                dummy_queries=cfg.dummy_queries if with_dummies else 0,
                relay_pairs_per_lookup=cfg.relay_pairs_per_lookup if multi_path else 1,
            )
            estimator = TargetAnonymityEstimator(
                ring, config=anon_cfg, rng=RandomSource(cfg.seed + 31)
            )
            estimate = estimator.estimate(n_worlds=cfg.n_worlds)
            result.points.append(
                AblationPoint(
                    variant=variant,
                    dummy_queries=anon_cfg.dummy_queries,
                    relay_pairs=anon_cfg.relay_pairs_per_lookup,
                    target_entropy=estimate.entropy_bits,
                    target_leak=estimate.information_leak_bits,
                )
            )
        return result


def run_ablation(config: Optional[AblationConfig] = None, **axes) -> AblationResult:
    """Pickleable entry point: ``(config)`` for campaign workers; the harness's
    scenario axis passes through as a keyword."""
    return AnonymityAblation(config, **axes).run()
