"""Efficiency experiments: Table 3 and Figure 7(a).

The paper measures lookup latency on PlanetLab with 207 nodes and estimates
per-node bandwidth for a 1,000,000-node overlay from the message-size model
of footnote 4.  We reproduce both on the simulator:

* **Latency** — Octopus, Chord and Halo lookups are executed over a ring of
  207 nodes whose pairwise latencies come from the King-like model; each
  lookup's end-to-end latency is the sum (Octopus/Chord) or parallel maximum
  (Halo) of its per-message delays, including the random delay Octopus's
  middle relay adds.  The harness reports mean/median and the latency CDF.
* **Bandwidth** — per-node kbps computed from the message-size model and the
  protocols' periodic schedules, for lookup intervals of 5 and 10 minutes, at
  the paper's 1,000,000-node overlay size (routing-state sizes scale with
  ``log2 N``).

Absolute numbers differ from the PlanetLab deployment (different latency
substrate), but the orderings the paper reports are preserved: Chord is the
latency floor, Halo pays for waiting on all redundant lookups, and Octopus
pays bandwidth for anonymity but stays within a few kbps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..baselines.chord_lookup import ChordLookupProtocol
from ..baselines.halo import HaloLookupProtocol
from ..core.config import OctopusConfig
from ..core.octopus_node import OctopusNetwork
from ..sim.bandwidth import MessageSizeModel
from ..sim.kernel import DEFAULT_KERNEL, validate_kernel
from ..sim.latency import KingLatencyModel
from ..sim.metrics import Histogram
from ..sim.rng import RandomSource
from ..sim.workload import WorkloadModel
from .results import jsonify


@dataclass
class EfficiencyExperimentConfig:
    """Parameters of the efficiency evaluation (defaults follow Section 7)."""

    n_nodes: int = 207
    lookups_per_scheme: int = 300
    fraction_malicious: float = 0.0
    seed: int = 0
    max_relay_delay: float = 0.100
    halo_redundancy: int = 8
    halo_sub_redundancy: int = 4
    #: overlay size assumed for the bandwidth estimate (paper: 1,000,000).
    bandwidth_network_size: int = 1_000_000
    lookup_intervals_minutes: Tuple[float, ...] = (5.0, 10.0)
    octopus: OctopusConfig = field(default_factory=OctopusConfig)
    #: server-side processing/scheduling delay at each *queried* node, part of
    #: the PlanetLab substitution (overloaded testbed machines): an
    #: exponential component plus a small probability of a long stall.
    #: Schemes that wait on many redundant queries (Halo) are hit hardest,
    #: which is what produces the paper's mean >> median latency for Halo.
    processing_delay_mean: float = 0.020
    slow_node_probability: float = 0.03
    slow_node_delay_range: Tuple[float, float] = (0.5, 2.0)
    #: ring-membership backend (see repro.sim.kernel).
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        # Sequence fields normalize to tuples on construction: campaign specs
        # and JSON round trips hand us lists, and a config built from a list
        # must compare equal to the tuple-defaulted fresh one (resume and the
        # backend determinism contract both compare configs structurally).
        self.lookup_intervals_minutes = tuple(self.lookup_intervals_minutes)
        self.slow_node_delay_range = tuple(self.slow_node_delay_range)
        validate_kernel(self.kernel)

    def to_dict(self) -> Dict[str, object]:
        return jsonify(asdict(self))


@dataclass
class SchemeEfficiency:
    """Latency and bandwidth summary for one scheme."""

    scheme: str
    mean_latency: float
    median_latency: float
    latency_cdf: List[Tuple[float, float]]
    bandwidth_kbps: Dict[float, float]
    lookups: int
    correct_fraction: float


@dataclass
class EfficiencyExperimentResult:
    """Everything Table 3 and Figure 7(a) report."""

    config: EfficiencyExperimentConfig
    schemes: Dict[str, SchemeEfficiency] = field(default_factory=dict)

    def table3_rows(self) -> List[Dict[str, object]]:
        rows = []
        for name in ("octopus", "chord", "halo"):
            s = self.schemes.get(name)
            if s is None:
                continue
            row = {
                "scheme": name,
                "mean_latency_s": round(s.mean_latency, 3),
                "median_latency_s": round(s.median_latency, 3),
            }
            for interval, kbps in sorted(s.bandwidth_kbps.items()):
                # %g matches scalar_metrics: whole-number intervals stay short
                # ('5') while fractional ones keep their value ('7.5') instead
                # of truncating — 7.5 and 7 must never share a column key.
                row[f"kbps_lk_int_{interval:g}min"] = round(kbps, 2)
            rows.append(row)
        return rows

    def scalar_metrics(self) -> Dict[str, float]:
        """Flat per-scheme latency/bandwidth metrics for campaign aggregation."""
        metrics: Dict[str, float] = {}
        for name in sorted(self.schemes):
            s = self.schemes[name]
            metrics[f"{name}_mean_latency_s"] = float(s.mean_latency)
            metrics[f"{name}_median_latency_s"] = float(s.median_latency)
            metrics[f"{name}_correct_fraction"] = float(s.correct_fraction)
            for interval, kbps in sorted(s.bandwidth_kbps.items()):
                # %g keeps whole-number intervals short ('5') but preserves
                # fractional ones ('7.5') so distinct intervals never collide.
                metrics[f"{name}_kbps_lk_int_{interval:g}min"] = float(kbps)
        return metrics

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "schemes": {
                name: {
                    "scheme": s.scheme,
                    "mean_latency": s.mean_latency,
                    "median_latency": s.median_latency,
                    "latency_cdf": [list(p) for p in s.latency_cdf],
                    "bandwidth_kbps": {str(k): v for k, v in sorted(s.bandwidth_kbps.items())},
                    "lookups": s.lookups,
                    "correct_fraction": s.correct_fraction,
                }
                for name, s in sorted(self.schemes.items())
            },
        }


class EfficiencyExperiment:
    """Runs the latency measurements and bandwidth estimates for all schemes.

    The two keywords named after scenario axes are scenario-subsystem
    injection points (:mod:`repro.scenarios`): a ``workload`` model replaces
    the uniform initiator/key draws of the measured lookups through the
    closed-loop surface of :class:`repro.sim.workload.WorkloadModel`, and an
    ``adversary`` placement strategy replaces the uniform-random malicious
    sample.  Both default to
    ``None`` — the paper's stylized environment — and the default workload
    reproduces the historical draw sequence exactly.
    """

    def __init__(
        self,
        config: Optional[EfficiencyExperimentConfig] = None,
        workload: Optional[WorkloadModel] = None,
        adversary=None,
    ) -> None:
        self.config = config or EfficiencyExperimentConfig()
        self.workload = workload
        self.placement = adversary

    # ------------------------------------------------------------------ setup
    def _build_network(self) -> Tuple[OctopusNetwork, KingLatencyModel]:
        cfg = self.config
        latency_model = KingLatencyModel(seed=cfg.seed)
        octopus_cfg = cfg.octopus.scaled_for(cfg.n_nodes)
        octopus_cfg = OctopusConfig(
            **{**octopus_cfg.__dict__, "max_relay_delay": cfg.max_relay_delay, "expected_network_size": cfg.n_nodes}
        )
        network = OctopusNetwork.create(
            n_nodes=cfg.n_nodes,
            fraction_malicious=cfg.fraction_malicious,
            seed=cfg.seed,
            config=octopus_cfg,
            latency_model=latency_model,
            placement=self.placement,
            kernel=cfg.kernel,
        )
        return network, latency_model

    def processing_delay_sampler(self):
        """Per-queried-node processing delay callable (see config docstring)."""
        cfg = self.config

        def sample(rng) -> float:
            delay = rng.expovariate(1.0 / cfg.processing_delay_mean) if cfg.processing_delay_mean > 0 else 0.0
            if cfg.slow_node_probability > 0 and rng.random() < cfg.slow_node_probability:
                delay += rng.uniform(*cfg.slow_node_delay_range)
            return delay

        return sample

    # ---------------------------------------------------------------- latency
    def measure_latencies(self) -> Dict[str, Tuple[Histogram, float]]:
        """Latency histograms and correctness fractions per scheme.

        Each measured lookup's initiator and key come from the workload
        model's closed-loop draw surface on the shared ``"keys"`` stream; the
        virtual closed-loop clock advances one second per lookup (lookup
        ``i`` happens at ``now = i``), which is what time-windowed models
        like hot-key-storm see.  With no injected model the default
        :class:`~repro.sim.workload.WorkloadModel` draws
        ``choice(alive)`` + ``randrange(space)`` — the exact
        ``random_alive_id``/``random_key`` sequence this loop always used.
        """
        cfg = self.config
        network, latency_model = self._build_network()
        # The network's config is the authoritative one: it carries the
        # ``scaled_for(n_nodes)`` adjustments (and this harness's overrides),
        # which ``cfg.octopus`` does not.
        octopus_cfg = network.config
        ring = network.ring
        rng = RandomSource(cfg.seed + 3)
        workload_model = self.workload or WorkloadModel()
        keys = rng.stream("keys")
        processing = self.processing_delay_sampler()

        chord = ChordLookupProtocol(
            ring, latency_model=latency_model, rng=rng.spawn("chord"), processing_delay=processing
        )
        halo = HaloLookupProtocol(
            ring,
            redundancy=cfg.halo_redundancy,
            sub_redundancy=cfg.halo_sub_redundancy,
            latency_model=latency_model,
            rng=rng.spawn("halo"),
            processing_delay=processing,
        )
        octopus = network.lookup_protocol
        octopus_processing_rng = rng.stream("octopus-processing")

        histograms = {name: Histogram(name) for name in ("octopus", "chord", "halo")}
        correct = {name: 0 for name in histograms}
        # Pre-build relay pairs once per initiator, as the protocol does on its
        # 15-second random-walk schedule (relay building is not on the lookup's
        # critical path).
        relay_cache: Dict[int, list] = {}

        for i in range(cfg.lookups_per_scheme):
            now = float(i)  # virtual closed-loop clock: one lookup per second
            initiator = workload_model.next_initiator(ring.alive_ids_sorted(), keys, now)
            key = workload_model.next_key(ring.space.size, keys, now)

            if initiator not in relay_cache:
                relay_cache[initiator] = octopus.select_relay_pairs(
                    initiator, octopus_cfg.relay_pairs_per_lookup + 1
                )
            oct_res = octopus.lookup(initiator, key, relay_pairs=list(relay_cache[initiator]))
            # Octopus's critical path queries one node per hop (dummies and
            # relay forwarding are off the critical path / negligible work).
            octopus_latency = oct_res.latency + sum(
                processing(octopus_processing_rng) for _ in range(oct_res.hops)
            )
            histograms["octopus"].record(octopus_latency)
            correct["octopus"] += 1 if oct_res.correct else 0

            chord_res = chord.lookup(initiator, key)
            histograms["chord"].record(chord_res.latency)
            correct["chord"] += 1 if chord_res.correct else 0

            halo_res = halo.lookup(initiator, key)
            histograms["halo"].record(halo_res.latency)
            correct["halo"] += 1 if halo_res.correct else 0

        return {
            name: (histograms[name], correct[name] / max(cfg.lookups_per_scheme, 1)) for name in histograms
        }

    # -------------------------------------------------------------- bandwidth
    def bandwidth_estimates(self) -> Dict[str, Dict[float, float]]:
        """Per-node bandwidth (kbps) per scheme and lookup interval.

        The estimate follows the paper's methodology: count the protocol
        messages each node sends/receives per second under the Section 5.1
        schedules for a ``bandwidth_network_size`` overlay, multiply by the
        footnote-4 message sizes, and add the per-lookup traffic at the given
        lookup interval.
        """
        cfg = self.config
        size_model = MessageSizeModel()
        n = cfg.bandwidth_network_size
        log_n = max(int(math.ceil(math.log2(n))), 1)
        octopus_cfg = cfg.octopus
        fingers = log_n  # at 1e6 nodes every scheme keeps ~log2 N fingers
        successors = octopus_cfg.successor_count
        predecessors = octopus_cfg.predecessor_count
        hops = max(1, int(round(0.5 * log_n)))

        def kbps(bytes_per_second: float) -> float:
            return bytes_per_second * 8.0 / 1000.0

        estimates: Dict[str, Dict[float, float]] = {"octopus": {}, "chord": {}, "halo": {}}
        for interval_min in cfg.lookup_intervals_minutes:
            interval_s = interval_min * 60.0

            # ---------------------------------------------------------- chord
            chord_maint = (
                2 * size_model.routing_table_bytes(successors, signed=False) / octopus_cfg.stabilize_interval
                + (size_model.query_bytes() + size_model.routing_table_bytes(2, signed=False) * hops)
                / octopus_cfg.finger_update_interval
            )
            chord_lookup = hops * (
                size_model.query_bytes() + size_model.routing_table_bytes(2, signed=False)
            ) / interval_s
            estimates["chord"][interval_min] = kbps(chord_maint + chord_lookup)

            # ----------------------------------------------------------- halo
            halo_searches = cfg.halo_redundancy * (1 + cfg.halo_sub_redundancy // 2)
            halo_lookup = halo_searches * hops * (
                size_model.query_bytes() + size_model.routing_table_bytes(2, signed=False)
            ) / interval_s
            estimates["halo"][interval_min] = kbps(chord_maint + halo_lookup)

            # -------------------------------------------------------- octopus
            table_entries = fingers + successors
            signed_table = size_model.reply_bytes(table_entries, onion_layers=0, signed=True)
            onion_query = size_model.query_bytes(onion_layers=4)
            onion_reply = size_model.reply_bytes(table_entries, onion_layers=4, signed=True)
            # Maintenance: bidirectional stabilization with signed lists,
            # random walks every 15 s (2l signed tables + certificates),
            # two surveillance checks per minute (anonymous queries + signed
            # lists), one checked finger update every 30 s.
            walk_hops = 2 * octopus_cfg.random_walk_phase_length
            octopus_maint = (
                2 * size_model.routing_table_bytes(successors + predecessors, signed=True)
                / octopus_cfg.stabilize_interval
                + walk_hops * (size_model.query_bytes() + signed_table) / octopus_cfg.random_walk_interval
                + 2 * (onion_query + onion_reply) / octopus_cfg.surveillance_interval
                + (hops * (size_model.query_bytes() + signed_table) + onion_query + onion_reply)
                / octopus_cfg.finger_update_interval
            )
            # Lookup: each of ~hops queries plus the dummies goes through a
            # 4-relay anonymous path, so each query is forwarded 5 times in
            # each direction (every relay forwards the full onion).
            relay_forwardings = 5
            queries_per_lookup = hops + octopus_cfg.dummy_queries
            octopus_lookup = queries_per_lookup * relay_forwardings * (onion_query + onion_reply) / interval_s
            estimates["octopus"][interval_min] = kbps(octopus_maint + octopus_lookup)
        return estimates

    # -------------------------------------------------------------------- run
    def run(self) -> EfficiencyExperimentResult:
        cfg = self.config
        result = EfficiencyExperimentResult(config=cfg)
        latency = self.measure_latencies()
        bandwidth = self.bandwidth_estimates()
        for scheme, (hist, correct_fraction) in latency.items():
            result.schemes[scheme] = SchemeEfficiency(
                scheme=scheme,
                mean_latency=hist.mean(),
                median_latency=hist.median(),
                latency_cdf=hist.cdf(n_points=40),
                bandwidth_kbps=bandwidth.get(scheme, {}),
                lookups=hist.count,
                correct_fraction=correct_fraction,
            )
        return result


def run_efficiency(
    config: Optional[EfficiencyExperimentConfig] = None, **axes
) -> EfficiencyExperimentResult:
    """Pickleable entry point: ``(config)`` for campaign workers; the harness's
    scenario axes pass through as keywords."""
    return EfficiencyExperiment(config, **axes).run()
