"""The top-level Octopus network facade — the library's primary public API.

:class:`OctopusNetwork` wires every subsystem together: the Chord ring, the
certificate authority, the attacker-identification service, the surveillance
mechanisms, the secure finger update, the selective-DoS defense and the
anonymous lookup protocol.  Examples and experiments interact with Octopus
through this class (or through the per-node :class:`OctopusNode` view it
hands out).

Typical use::

    from repro import OctopusNetwork

    net = OctopusNetwork.create(n_nodes=500, fraction_malicious=0.2, seed=7)
    initiator = net.random_honest_node()
    result = net.lookup(initiator, net.key_for("my-file.txt"))
    assert result.correct
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..chord.ring import ChordRing, RingConfig
from ..chord.stabilization import Stabilizer
from ..crypto.ca import CertificateAuthority
from ..crypto.keys import FAST
from ..sim.engine import SimulationEngine
from ..sim.hooks import HookBus, NodeCompromised
from ..sim.kernel import DEFAULT_KERNEL
from ..sim.latency import LatencyModel
from ..sim.rng import RandomSource
from .anonymous_lookup import AnonymousLookupProtocol, OctopusLookupResult
from .attacker_identification import AttackerIdentificationService
from .config import OctopusConfig
from .dos_defense import DosDefense
from .random_walk import RandomWalkProtocol, RelayPair
from .secure_update import SecureFingerUpdate
from .surveillance import SecretFingerSurveillance, SecretNeighborSurveillance


@dataclass
class OctopusNode:
    """A per-node handle over the network facade (the application-facing view)."""

    network: "OctopusNetwork"
    node_id: int

    def lookup(self, key: int, now: float = 0.0) -> OctopusLookupResult:
        """Perform an anonymous lookup for ``key`` from this node."""
        return self.network.lookup(self.node_id, key, now=now)

    def lookup_key(self, key_string: str, now: float = 0.0) -> OctopusLookupResult:
        """Hash ``key_string`` onto the ring and look it up anonymously."""
        return self.lookup(self.network.key_for(key_string), now=now)

    def select_relays(self, count: int = 1, now: float = 0.0) -> List[RelayPair]:
        """Pre-build ``count`` anonymization relay pairs via random walks."""
        return self.network.lookup_protocol.select_relay_pairs(self.node_id, count, now=now)

    @property
    def chord_node(self):
        return self.network.ring.node(self.node_id)


class OctopusNetwork:
    """All Octopus subsystems assembled over one simulated network."""

    def __init__(
        self,
        ring: ChordRing,
        ca: CertificateAuthority,
        config: OctopusConfig,
        rng: RandomSource,
        latency_model: Optional[LatencyModel] = None,
    ) -> None:
        config.validate()
        self.ring = ring
        self.ca = ca
        self.config = config
        self.rng = rng
        self.latency_model = latency_model
        #: control-plane bus; attached by :meth:`bind_hooks` when an engine
        #: drives this network (``None`` for engine-less use).
        self.hooks: Optional[HookBus] = None

        self.identification = AttackerIdentificationService(ca, ring, config)
        self.random_walker = RandomWalkProtocol(ring, config, rng)
        self.neighbor_surveillance = SecretNeighborSurveillance(
            ring, config, rng, self.identification, random_walker=self.random_walker
        )
        self.finger_surveillance = SecretFingerSurveillance(ring, config, rng, self.identification)
        self.secure_update = SecureFingerUpdate(
            ring, config, rng, self.identification, finger_surveillance=self.finger_surveillance
        )
        self.dos_defense = DosDefense(ring, config, rng, self.identification)
        self.lookup_protocol = AnonymousLookupProtocol(
            ring, config, rng, latency_model=latency_model, random_walker=self.random_walker
        )
        self.stabilizer = Stabilizer(ring)

    # ------------------------------------------------------------ construction
    @classmethod
    def create(
        cls,
        n_nodes: int = 1000,
        fraction_malicious: float = 0.2,
        seed: int = 0,
        config: Optional[OctopusConfig] = None,
        id_bits: int = 32,
        key_mode: str = FAST,
        latency_model: Optional[LatencyModel] = None,
        placement=None,
        kernel: str = DEFAULT_KERNEL,
    ) -> "OctopusNetwork":
        """Build a complete Octopus network with ``n_nodes`` peers.

        Parameters mirror the paper's experiment setup: 20% malicious nodes by
        default, routing-state sizes from the configuration.  ``placement``
        optionally replaces the uniform-random malicious sample with a
        strategy callable (see :meth:`repro.chord.ring.ChordRing.build`);
        ``kernel`` selects the ring-membership backend (:mod:`repro.sim.kernel`
        — the sorted-array kernel by default, ``"object"`` for the reference).
        """
        config = (config or OctopusConfig()).scaled_for(n_nodes)
        rng = RandomSource(seed)
        ca = CertificateAuthority(seed=seed, key_mode=key_mode)
        ring_config = RingConfig(
            n_nodes=n_nodes,
            fraction_malicious=fraction_malicious,
            finger_count=config.finger_count,
            successor_count=config.successor_count,
            predecessor_count=config.predecessor_count,
            id_bits=id_bits,
            key_mode=key_mode,
            seed=seed,
            kernel=kernel,
        )
        ring = ChordRing.build(config=ring_config, rng=rng, ca=ca, placement=placement)
        return cls(ring=ring, ca=ca, config=config, rng=rng, latency_model=latency_model)

    # ----------------------------------------------------------------- lookups
    def key_for(self, key_string: str) -> int:
        """Hash an application key onto the identifier space."""
        return self.ring.space.hash_key(key_string)

    def lookup(self, initiator_id: int, key: int, now: float = 0.0, **kwargs) -> OctopusLookupResult:
        """Perform an anonymous, secure lookup of ``key`` from ``initiator_id``."""
        node = self.ring.get(initiator_id)
        if node is None:
            raise KeyError(f"unknown node {initiator_id}")
        node.stats.lookups_initiated += 1
        return self.lookup_protocol.lookup(initiator_id, key, now=now, **kwargs)

    def node(self, node_id: int) -> OctopusNode:
        """A per-node handle (raises ``KeyError`` for unknown ids)."""
        if node_id not in self.ring:
            raise KeyError(f"unknown node {node_id}")
        return OctopusNode(network=self, node_id=node_id)

    def random_honest_node(self, stream: str = "api") -> int:
        """A uniformly random honest, alive node id."""
        honest = self.ring.honest_ids(alive_only=True)
        if not honest:
            raise RuntimeError("no honest nodes available")
        return self.rng.choice(stream, honest)

    # -------------------------------------------------------------- maintenance
    def run_maintenance_round(self, now: float = 0.0) -> None:
        """One round of stabilization for every alive node (tests / examples)."""
        self.stabilizer.run_global_round(now=now)

    def run_surveillance_round(self, now: float = 0.0, node_ids: Optional[List[int]] = None) -> None:
        """One round of both surveillance checks for the given (honest) nodes."""
        targets = node_ids if node_ids is not None else self.ring.honest_ids(alive_only=True)
        for node_id in targets:
            self.neighbor_surveillance.check(node_id, now=now)
            self.finger_surveillance.check(node_id, now=now)

    def schedule_protocols(
        self,
        engine: SimulationEngine,
        node_ids: Optional[List[int]] = None,
        include_lookups: bool = False,
    ) -> None:
        """Register the paper's periodic per-node tasks on an event engine.

        Per Section 5.1: stabilization every 2 s, finger updates every 30 s,
        surveillance checks every 60 s, relay-selection random walks every
        15 s, and (optionally) one application lookup per minute.
        Start times are jittered so nodes do not act in lock step.
        """
        cfg = self.config
        targets = node_ids if node_ids is not None else self.ring.honest_ids(alive_only=True)
        jitter = self.rng.stream("schedule-jitter")

        for node_id in targets:
            def alive(nid=node_id):
                n = self.ring.get(nid)
                return n is not None and n.alive

            def stab(nid=node_id):
                if alive(nid):
                    self.stabilizer.run_round(self.ring.node(nid), now=engine.now)

            def fingers(nid=node_id):
                if alive(nid):
                    self.secure_update.update_random_finger(nid, now=engine.now)

            def surveil(nid=node_id):
                if alive(nid):
                    self.neighbor_surveillance.check(nid, now=engine.now)
                    self.finger_surveillance.check(nid, now=engine.now)

            def walk(nid=node_id):
                if alive(nid):
                    self.random_walker.perform(nid, now=engine.now)

            engine.schedule_periodic(cfg.stabilize_interval, stab, start=jitter.uniform(0, cfg.stabilize_interval))
            engine.schedule_periodic(cfg.finger_update_interval, fingers, start=jitter.uniform(0, cfg.finger_update_interval))
            engine.schedule_periodic(cfg.surveillance_interval, surveil, start=jitter.uniform(0, cfg.surveillance_interval))
            engine.schedule_periodic(cfg.random_walk_interval, walk, start=jitter.uniform(0, cfg.random_walk_interval))
            if include_lookups:
                def do_lookup(nid=node_id):
                    if alive(nid):
                        key = self.ring.random_key(self.rng.stream("api-lookups"))
                        self.lookup(nid, key, now=engine.now)

                engine.schedule_periodic(cfg.lookup_interval, do_lookup, start=jitter.uniform(0, cfg.lookup_interval))

    # ------------------------------------------------------------ control plane
    def bind_hooks(self, hooks: HookBus) -> None:
        """Attach a control-plane :class:`HookBus` to every publishing subsystem.

        Harnesses call this with ``engine.hooks`` before running; with no
        subscribers the bus costs nothing (see :mod:`repro.sim.hooks`), so
        binding is always safe.
        """
        self.hooks = hooks
        self.identification.hooks = hooks
        self.ca.hooks = hooks
        self.dos_defense.hooks = hooks

    def compromise(self, node_id: int, now: float = 0.0, reason: str = "") -> bool:
        """The adversary takes control of ``node_id`` mid-run.

        Flips the ground-truth allegiance through the ring/kernel (see
        :meth:`repro.chord.ring.ChordRing.set_malicious`) and publishes
        :class:`~repro.sim.hooks.NodeCompromised`.  Attack *behaviour* on the
        node is the caller's concern (``Adversary.install_behavior``) — the
        network facade only tracks allegiance.  Returns whether anything
        changed (removed or already-malicious nodes are untouched).
        """
        changed = self.ring.set_malicious(node_id, True)
        if changed:
            hooks = self.hooks
            if hooks is not None and hooks.has_subscribers(NodeCompromised):
                hooks.publish(NodeCompromised(time=now, node_id=node_id, reason=reason))
        return changed

    # ------------------------------------------------------------------ status
    def remaining_malicious_fraction(self) -> float:
        """Fraction of the current network that is malicious and not yet removed."""
        return self.ring.remaining_malicious_fraction()

    def summary(self) -> Dict[str, float]:
        """A quick status snapshot used by examples."""
        return {
            "n_nodes": float(len(self.ring)),
            "alive_nodes": float(len(self.ring.alive_ids_sorted())),
            "malicious_remaining_fraction": self.remaining_malicious_fraction(),
            "nodes_revoked": float(len(self.ca.revoked_nodes)),
            "reports_processed": float(self.identification.stats.reports),
            "false_positive_rate": self.identification.stats.false_positive_rate,
        }
