"""Open-loop sustained-RPS load experiments: the serving-path question.

Every other harness drives the paper's closed-loop workload — each node
issues a lookup, waits, and issues another on a fixed period — so offered
load can never outrun the ring.  A service operator asks the opposite
question: lookups arrive from *outside* at N requests per second whether or
not the ring keeps up, so what do p50/p99 latency, success rate and backlog
look like at that offered rate, and where is the saturation knee?  (The
single-hop DHT comparison literature frames exactly this offered-load vs
latency trade-off; the paper's Figure 7 measures only the unloaded path.)

:class:`LoadExperiment` schedules lookups from an arrival process — any
:class:`~repro.sim.workload.WorkloadModel`, open-loop Poisson (with rate
ramps) first — against a churning :class:`~repro.core.octopus_node.
OctopusNetwork` and measures what an operator would:

* **offered vs delivered** — every arrival the workload generates counts as
  offered; only arrivals whose initiator is actually online execute and
  count as delivered (closed-loop models under churn silently shed load —
  the gap is reported, never hidden);
* **latency percentiles** — per-lookup end-to-end latency: the network path
  latency (King model) plus the key owner's queueing + service time, through
  the existing :class:`~repro.sim.metrics.Histogram`/``percentile``
  machinery (p50/p90/p99);
* **saturation** — each key's *owner* serves lookups one at a time with an
  exponential service time: when per-owner arrival rate exceeds
  ``1/service_time_mean_s`` the queue grows without bound and p99 explodes —
  the knee a ``--kind load`` campaign sweeping ``offered_rps`` locates.
  Skewed workloads (``zipf``, ``hot-key-storm``) concentrate arrivals on few
  owners and saturate far below the uniform-traffic knee;
* **in-flight backlog** — the number of lookups issued but not yet
  completed, sampled over time.

The network-wide offered rate is honoured for *any* workload model through
the shared ``interval`` contract: the harness passes ``interval =
population / offered_rps``, so the closed-loop per-node period and the
open-loop default rate (``1/interval`` per node) both sum to ``offered_rps``
across the ring.

``run_load`` is the pickleable campaign entry point (kind ``load``); the
scenario layer composes churn profiles and adversary placements on top.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import OctopusConfig
from ..core.octopus_node import OctopusNetwork
from ..sim.churn import ChurnConfig, ChurnProcess, ChurnProfile
from ..sim.engine import SimulationEngine
from ..sim.kernel import DEFAULT_KERNEL, validate_kernel
from ..sim.latency import KingLatencyModel
from ..sim.metrics import Histogram, MetricsRegistry
from ..sim.rng import RandomSource
from ..sim.workload import WorkloadModel
from .results import jsonify


def _build_workload(name: str, params: Dict[str, object]) -> WorkloadModel:
    """Instantiate a named workload model from the scenario axis registry.

    Imported lazily: :mod:`repro.scenarios` imports :mod:`repro.experiments`
    at module scope, so the reverse edge must stay inside a function.
    """
    from ..scenarios.workloads import WORKLOADS  # repro-lint: ignore[L101] — deliberate lazy reverse edge; scenarios imports experiments at module scope

    try:
        return WORKLOADS.build(name, dict(params))
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc


@dataclass
class LoadConfig:
    """Parameters of one sustained-load run at a single offered-RPS level."""

    n_nodes: int = 150
    fraction_malicious: float = 0.0
    duration: float = 300.0
    #: network-wide offered lookup rate (lookups/second across the ring);
    #: the natural campaign grid axis for a saturation sweep.
    offered_rps: float = 20.0
    #: arrival process, by scenario-axis name (``poisson``, ``uniform``,
    #: ``zipf``, ``hot-key-storm``); a scenario-injected model overrides it.
    workload: str = "poisson"
    workload_params: Dict[str, object] = field(default_factory=dict)
    churn_lifetime_minutes: Optional[float] = 60.0
    sample_interval: float = 10.0
    seed: int = 0
    #: owner-side service model: each lookup occupies the target key's owner
    #: for an exponential service time (mean below), serialized per owner —
    #: the queueing that produces a saturation knee.  0 disables queueing.
    service_time_mean_s: float = 0.020
    slow_node_probability: float = 0.03
    slow_node_delay_range: Tuple[float, float] = (0.5, 2.0)
    octopus: OctopusConfig = field(default_factory=OctopusConfig)
    #: ring-membership backend (see repro.sim.kernel).
    kernel: str = DEFAULT_KERNEL

    def __post_init__(self) -> None:
        # Tuple-normalize sequence fields so configs rebuilt from JSON
        # compare equal to fresh ones (resume + backend determinism).
        self.slow_node_delay_range = tuple(self.slow_node_delay_range)
        validate_kernel(self.kernel)

    def validate(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.offered_rps <= 0:
            raise ValueError("offered_rps must be positive")
        if self.sample_interval <= 0:
            raise ValueError("sample_interval must be positive")
        if self.service_time_mean_s < 0:
            raise ValueError("service_time_mean_s must be non-negative")
        validate_kernel(self.kernel)
        _build_workload(self.workload, self.workload_params)  # fail preflight

    def build_workload(self) -> WorkloadModel:
        return _build_workload(self.workload, self.workload_params)

    def to_dict(self) -> Dict[str, object]:
        return jsonify(asdict(self))


@dataclass
class LoadResult:
    """Offered/delivered load, latency percentiles and backlog of one run."""

    config: LoadConfig
    offered_lookups: int = 0
    delivered_lookups: int = 0
    succeeded_lookups: int = 0
    latency_mean_s: float = 0.0
    latency_p50_s: float = 0.0
    latency_p90_s: float = 0.0
    latency_p99_s: float = 0.0
    latency_cdf: List[Tuple[float, float]] = field(default_factory=list)
    queue_delay_mean_s: float = 0.0
    queue_delay_p99_s: float = 0.0
    inflight_mean: float = 0.0
    inflight_max: float = 0.0
    #: (time, lookups in flight) — the backlog over time
    inflight_series: List[Tuple[float, float]] = field(default_factory=list)
    #: (bucket start, arrivals offered / delivered in the bucket)
    offered_series: List[Tuple[float, float]] = field(default_factory=list)
    delivered_series: List[Tuple[float, float]] = field(default_factory=list)
    churn_departures: int = 0
    churn_rejoins: int = 0

    def scalar_metrics(self) -> Dict[str, float]:
        """Flat per-trial metrics aggregated by :mod:`repro.campaign`."""
        duration = float(self.config.duration)
        delivered = float(self.delivered_lookups)
        return {
            "offered_rps_target": float(self.config.offered_rps),
            "offered_rps_measured": self.offered_lookups / duration,
            "delivered_rps": delivered / duration,
            "delivered_fraction": (
                delivered / self.offered_lookups if self.offered_lookups else 0.0
            ),
            "success_rate": (
                self.succeeded_lookups / delivered if delivered else 0.0
            ),
            "latency_mean_s": float(self.latency_mean_s),
            "latency_p50_s": float(self.latency_p50_s),
            "latency_p90_s": float(self.latency_p90_s),
            "latency_p99_s": float(self.latency_p99_s),
            "queue_delay_mean_s": float(self.queue_delay_mean_s),
            "queue_delay_p99_s": float(self.queue_delay_p99_s),
            "inflight_mean": float(self.inflight_mean),
            "inflight_max": float(self.inflight_max),
            "offered_lookups": float(self.offered_lookups),
            "delivered_lookups": float(self.delivered_lookups),
            "succeeded_lookups": float(self.succeeded_lookups),
            "churn_departures": float(self.churn_departures),
            "churn_rejoins": float(self.churn_rejoins),
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "metrics": self.scalar_metrics(),
            "series": {
                "inflight": [list(p) for p in self.inflight_series],
                "offered": [list(p) for p in self.offered_series],
                "delivered": [list(p) for p in self.delivered_series],
                "latency_cdf": [list(p) for p in self.latency_cdf],
            },
        }


class LoadExperiment:
    """Runs one sustained-load configuration end to end.

    The keywords named after the scenario axes are the scenario-subsystem
    injection points (:mod:`repro.scenarios`): a ``churn`` profile replaces
    the exponential session model, a ``workload`` model replaces the config's
    named arrival process, and an ``adversary`` placement strategy replaces
    the uniform-random malicious sample.
    """

    def __init__(
        self,
        config: Optional[LoadConfig] = None,
        churn: Optional[ChurnProfile] = None,
        workload: Optional[WorkloadModel] = None,
        adversary=None,
    ) -> None:
        self.config = config or LoadConfig()
        self.config.validate()
        self.churn_profile = churn
        self.workload = workload
        self.placement = adversary

    # -------------------------------------------------------------------- run
    def run(self) -> LoadResult:
        cfg = self.config
        octopus_cfg = cfg.octopus.scaled_for(cfg.n_nodes)
        network = OctopusNetwork.create(
            n_nodes=cfg.n_nodes,
            fraction_malicious=cfg.fraction_malicious,
            seed=cfg.seed,
            config=octopus_cfg,
            latency_model=KingLatencyModel(seed=cfg.seed),
            placement=self.placement,
            kernel=cfg.kernel,
        )
        engine = SimulationEngine()
        network.bind_hooks(engine.hooks)
        rng = RandomSource(cfg.seed + 1)
        metrics = MetricsRegistry()
        result = LoadResult(config=cfg)

        honest_ids = network.ring.honest_ids(alive_only=True)
        if not honest_ids:
            return result
        # The shared interval contract: population / offered_rps makes every
        # model — closed-loop per-node periods and open-loop default rates
        # alike — sum to offered_rps network-wide.
        interval = len(honest_ids) / cfg.offered_rps

        # ------------------------------------------------- service/queue model
        service_stream = rng.stream("load-service")
        busy_until: Dict[int, float] = {}

        def service_time() -> float:
            if cfg.service_time_mean_s <= 0:
                return 0.0
            delay = service_stream.expovariate(1.0 / cfg.service_time_mean_s)
            if (
                cfg.slow_node_probability > 0
                and service_stream.random() < cfg.slow_node_probability
            ):
                delay += service_stream.uniform(*cfg.slow_node_delay_range)
            return delay

        # ---------------------------------------------------------- measuring
        latency_hist = Histogram(name="lookup-latency")
        queue_delay_hist = Histogram(name="queue-delay")
        inflight_hist = Histogram(name="inflight")
        offered = metrics.counter("offered")
        delivered = metrics.counter("delivered")
        succeeded = metrics.counter("succeeded")
        inflight = {"now": 0}

        def complete() -> None:
            inflight["now"] -= 1

        def perform_lookup(node_id: int, draw_key) -> None:
            offered.increment()
            metrics.bucket_increment("offered", engine.now, cfg.sample_interval)
            node = network.ring.get(node_id)
            if node is None or not node.alive:
                # Offered but undeliverable: a closed-loop schedule firing
                # for a churned-offline node.  Open-loop models draw
                # initiators from the alive view, so they land here only in
                # the instant the whole population is transitioning.
                return
            key = draw_key()
            outcome = network.lookup(node_id, key, now=engine.now)
            delivered.increment()
            metrics.bucket_increment("delivered", engine.now, cfg.sample_interval)
            if outcome.correct:
                succeeded.increment()
            # Owner-side queueing: the key's current owner serves lookups
            # one at a time — the saturation mechanism.
            queue_delay = 0.0
            service = service_time()
            owner = network.ring.owner_of(key)
            if owner is not None:
                start = max(engine.now, busy_until.get(owner, 0.0))
                queue_delay = start - engine.now
                busy_until[owner] = start + service
            total = outcome.latency + queue_delay + service
            latency_hist.record(total)
            queue_delay_hist.record(queue_delay)
            inflight["now"] += 1
            engine.schedule(total, complete, name="load-complete")

        # ----------------------------------------------------------- schedule
        network.schedule_protocols(engine, node_ids=honest_ids, include_lookups=False)
        workload = self.workload or cfg.build_workload()
        workload.schedule(
            engine,
            honest_ids,
            interval,
            network.ring.space.size,
            rng,
            perform_lookup,
            alive_view=lambda: network.ring.honest_ids(alive_only=True),
        )

        # -------------------------------------------------------------- churn
        churn_config = ChurnConfig.from_minutes(cfg.churn_lifetime_minutes)
        churn: Optional[ChurnProcess] = None
        if churn_config.enabled or self.churn_profile is not None:
            def rejoin(nid: int) -> None:
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
            churn.profile.bind_population(set(network.ring.malicious_ids))
            churn.start(list(network.ring.nodes))

        # ----------------------------------------------------------- sampling
        def sample() -> None:
            backlog = float(inflight["now"])
            result.inflight_series.append((engine.now, backlog))
            inflight_hist.record(backlog)

        engine.schedule_periodic(cfg.sample_interval, sample, start=0.0)
        engine.run(until=cfg.duration)
        sample()

        # -------------------------------------------------------- aggregation
        result.offered_lookups = int(offered.value)
        result.delivered_lookups = int(delivered.value)
        result.succeeded_lookups = int(succeeded.value)
        if latency_hist.count:
            result.latency_mean_s = latency_hist.mean()
            result.latency_p50_s = latency_hist.percentile(50.0)
            result.latency_p90_s = latency_hist.percentile(90.0)
            result.latency_p99_s = latency_hist.percentile(99.0)
            result.latency_cdf = latency_hist.cdf(n_points=40)
            result.queue_delay_mean_s = queue_delay_hist.mean()
            result.queue_delay_p99_s = queue_delay_hist.percentile(99.0)
        if inflight_hist.count:
            result.inflight_mean = inflight_hist.mean()
            result.inflight_max = max(inflight_hist.samples)
        result.offered_series = metrics.buckets("offered", cfg.sample_interval)
        result.delivered_series = metrics.buckets("delivered", cfg.sample_interval)
        if churn is not None:
            result.churn_departures = len(churn.log.departures)
            result.churn_rejoins = len(churn.log.rejoins)
        return result


def run_load(config: Optional[LoadConfig] = None, **axes) -> LoadResult:
    """Pickleable entry point: ``(config)`` for campaign workers; the harness's
    scenario axes pass through as keywords."""
    return LoadExperiment(config, **axes).run()
