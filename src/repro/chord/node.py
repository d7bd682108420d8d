"""Chord/Octopus node state and response behaviour.

A :class:`ChordNode` holds the routing state of one peer: its finger table,
successor list and (Octopus-specific) predecessor list, plus its identity key
pair and certificate.  How the node *answers* requests for that state is
factored into a :class:`NodeBehavior` strategy object so that the attack
models in :mod:`repro.attacks` can substitute malicious behaviours (biased
successor lists, manipulated fingertables, selective dropping) without
touching the honest code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..crypto.keys import FAST, KeyPair
from ..sim import profiling
from .fingertable import FingerTable
from .idspace import IdSpace
from .routing_table import RoutingTableSnapshot, TableBody
from .successor_list import NeighborList, SignedSuccessorList, successor_list_prefix


def synthetic_ip(node_id: int) -> str:
    """A deterministic synthetic IPv4 address for a node id."""
    return f"10.{(node_id >> 16) & 0xFF}.{(node_id >> 8) & 0xFF}.{node_id & 0xFF}"


class NodeBehavior:
    """Honest response behaviour (the default).

    Subclasses in :mod:`repro.attacks` override individual hooks to implement
    the paper's active attacks.  Every hook receives the owning node, the
    identity of the requester as the node sees it (which, behind an anonymous
    path, is the exit relay — not the initiator), a free-form ``purpose``
    string describing the protocol context, and the current time.
    """

    is_malicious = False

    def provide_routing_table(
        self, node: "ChordNode", requester: Optional[int], purpose: str, now: float
    ) -> RoutingTableSnapshot:
        """Return the routing table (fingers + successors) for a query."""
        return node.snapshot(now=now)

    def provide_successor_list(
        self, node: "ChordNode", requester: Optional[int], purpose: str, now: float
    ) -> SignedSuccessorList:
        """Return the signed successor list (used in stabilization and checks)."""
        return node.signed_successor_list(now=now)

    def provide_predecessor_list(
        self, node: "ChordNode", requester: Optional[int], purpose: str, now: float
    ) -> Tuple[int, ...]:
        """Return the predecessor list (used by secret finger surveillance)."""
        return tuple(node.predecessor_list.nodes)

    def should_drop(self, node: "ChordNode", purpose: str, context: Dict, now: float) -> bool:
        """Whether to drop a message this node is asked to forward/answer."""
        return False


@dataclass
class NodeStats:
    """Per-node protocol counters (used in tests and bandwidth sanity checks)."""

    queries_answered: int = 0
    queries_forwarded: int = 0
    lookups_initiated: int = 0
    surveillance_checks: int = 0
    reports_sent: int = 0
    messages_dropped: int = 0


class ChordNode:
    """One peer in the (customised) Chord ring used by Octopus.

    Parameters
    ----------
    node_id:
        Ring identifier.
    space:
        Identifier space.
    finger_count / successor_count / predecessor_count:
        Routing-state sizes; paper defaults for N=1000 are 12 / 6 / 6.
    malicious:
        Whether the node is controlled by the adversary.  The flag alone does
        nothing; attack behaviours are attached via :attr:`behavior`.
    key_mode:
        Signature mode for this node's key pair.
    """

    def __init__(
        self,
        node_id: int,
        space: IdSpace,
        finger_count: int = 12,
        successor_count: int = 6,
        predecessor_count: int = 6,
        malicious: bool = False,
        key_mode: str = FAST,
        keypair: Optional[KeyPair] = None,
    ) -> None:
        self.node_id = node_id
        self.space = space
        self.finger_table = FingerTable(node_id, space, size=finger_count)
        self.successor_list = NeighborList(node_id, space, capacity=successor_count, direction=+1)
        self.predecessor_list = NeighborList(node_id, space, capacity=predecessor_count, direction=-1)
        self.malicious = malicious
        self.alive = True
        self.ip_address = synthetic_ip(node_id)
        self.keypair = keypair or KeyPair(seed=node_id, mode=key_mode)
        self.certificate = None  # set by the ring builder via the CA
        self.behavior: NodeBehavior = NodeBehavior()
        self.stats = NodeStats()
        #: simulated time of the node's most recent (re)join; surveillance
        #: checks respect a short warm-up after joining so that routing-state
        #: convergence transients are not mistaken for attacks.
        self.last_join_time = 0.0
        # Octopus-specific buffers:
        #: signed successor lists received during stabilization, kept as proofs
        #: (paper: the latest 6) for the CA's pollution investigations.
        self.successor_list_proofs: List[SignedSuccessorList] = []
        self.proof_capacity = 6
        #: fingertables buffered from random walks / lookups, sampled by
        #: secret finger surveillance (Section 4.4).
        self.buffered_fingertables: List[RoutingTableSnapshot] = []
        self.fingertable_buffer_capacity = 8
        # What the node signs, cached per version of the state it is built
        # from: (finger version, successor version) -> table body, successor
        # version -> (nodes, payload prefix).  The finger table and neighbor
        # lists belong to the node for its lifetime; their counters are the
        # only invalidation.
        self._table_versions: Optional[Tuple[int, int]] = None
        self._table_body: Optional[TableBody] = None
        self._successor_version: Optional[int] = None
        self._successor_view: Tuple[Tuple[int, ...], bytes] = ((), b"")
        # Bound once at construction (None when profiling is off); see
        # repro.sim.profiling.
        self.profiler = profiling.active()

    # ------------------------------------------------------------------ state
    @property
    def successor(self) -> Optional[int]:
        return self.successor_list.first()

    @property
    def predecessor(self) -> Optional[int]:
        return self.predecessor_list.first()

    def is_malicious(self) -> bool:
        return self.malicious

    def routing_nodes(self) -> List[int]:
        """Every node referenced by the routing state (fingers + successors)."""
        seen = set()
        out = []
        for nid in self.finger_table.nodes() + self.successor_list.nodes:
            if nid not in seen and nid != self.node_id:
                seen.add(nid)
                out.append(nid)
        return out

    # ------------------------------------------------------------- snapshots
    def _signed_successors(self) -> Tuple[Tuple[int, ...], bytes]:
        """The successor list as signed: its tuple and timestamp-free payload prefix."""
        version = self.successor_list.version
        if version != self._successor_version:
            nodes = tuple(self.successor_list.nodes)
            self._successor_view = (nodes, successor_list_prefix(self.node_id, nodes))
            self._successor_version = version
        return self._successor_view

    def snapshot(self, now: float = 0.0) -> RoutingTableSnapshot:
        """Produce a signed snapshot of the node's current routing table.

        The table body is rebuilt only when the finger table or successor
        list changed since the last snapshot; the timestamp is the reply time
        and every snapshot is signed individually.
        """
        versions = (self.finger_table.version, self.successor_list.version)
        if versions != self._table_versions:
            self._table_body = TableBody(self.node_id, self.finger_table.pairs(), self._signed_successors()[0])
            self._table_versions = versions
            if self.profiler is not None:
                self.profiler.incr("chord.table_body_builds")
        if self.profiler is not None:
            self.profiler.incr("chord.table_snapshots")
        return self._table_body.signed(now, self.keypair)

    def signed_successor_list(self, now: float = 0.0, received_from: Optional[int] = None) -> SignedSuccessorList:
        """Produce a signed successor-list snapshot (surveillance evidence)."""
        nodes, prefix = self._signed_successors()
        return SignedSuccessorList(self.node_id, nodes, now, None, received_from, prefix).signed_by(self.keypair)

    # ------------------------------------------------------ proofs and buffers
    def store_successor_proof(self, proof: SignedSuccessorList) -> None:
        """Keep a received signed successor list as pollution-defense evidence."""
        self.successor_list_proofs.append(proof)
        if len(self.successor_list_proofs) > self.proof_capacity:
            self.successor_list_proofs.pop(0)

    def buffer_fingertable(self, table: RoutingTableSnapshot) -> None:
        """Buffer a fingertable seen during random walks / lookups (Section 4.4)."""
        if table.owner_id == self.node_id:
            return
        self.buffered_fingertables.append(table)
        if len(self.buffered_fingertables) > self.fingertable_buffer_capacity:
            self.buffered_fingertables.pop(0)

    # -------------------------------------------------------------- behaviour
    def respond_routing_table(self, requester: Optional[int], purpose: str, now: float) -> RoutingTableSnapshot:
        """Answer a routing-table query via the attached behaviour."""
        self.stats.queries_answered += 1
        return self.behavior.provide_routing_table(self, requester, purpose, now)

    def respond_successor_list(self, requester: Optional[int], purpose: str, now: float) -> SignedSuccessorList:
        self.stats.queries_answered += 1
        return self.behavior.provide_successor_list(self, requester, purpose, now)

    def respond_predecessor_list(self, requester: Optional[int], purpose: str, now: float) -> Tuple[int, ...]:
        self.stats.queries_answered += 1
        return self.behavior.provide_predecessor_list(self, requester, purpose, now)

    def wants_to_drop(self, purpose: str, context: Dict, now: float) -> bool:
        dropped = self.behavior.should_drop(self, purpose, context, now)
        if dropped:
            self.stats.messages_dropped += 1
        return dropped

    def __repr__(self) -> str:  # pragma: no cover
        flag = "M" if self.malicious else "H"
        return f"ChordNode(id={self.node_id}, {flag}, alive={self.alive})"
