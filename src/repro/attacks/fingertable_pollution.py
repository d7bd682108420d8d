"""Fingertable pollution attack (Section 4.5, Figure 4).

Where the manipulation attack lies about a fingertable *when asked*, the
pollution attack corrupts the fingertables that **honest** nodes build for
themselves: Octopus nodes refresh fingers by performing (non-anonymous)
lookups towards ideal finger identifiers, and malicious intermediate nodes
bias those lookups so honest nodes adopt colluders as fingers.

The behaviour therefore targets the ``finger-update`` lookup context: when a
finger-refresh lookup reaches a malicious node, the node claims a colluder
near the queried region as its immediate successor, so the refresh resolves
to that colluder.  The defense (Section 4.5) checks the candidate against a
predecessor's successor list before adoption; colluding predecessors cover
for the pollution with probability ``collusion_consistency``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..chord.node import ChordNode, NodeBehavior
from ..chord.routing_table import RoutingTableSnapshot
from ..chord.successor_list import SignedSuccessorList
from .adversary import Adversary


class FingertablePollutionBehavior(NodeBehavior):
    """Malicious behaviour that biases honest nodes' finger-refresh lookups."""

    is_malicious = True

    def __init__(self, adversary: Adversary, node: ChordNode, collusion_consistency: float = 0.5) -> None:
        self.adversary = adversary
        self.node = node
        self.collusion_consistency = collusion_consistency

    # ---------------------------------------------------------------- helpers
    def _colluding_successors(self) -> Tuple[int, ...]:
        ring = self.adversary.ring
        space = ring.space
        capacity = self.node.successor_list.capacity
        colluders = [nid for nid in self.adversary.controlled_ids(alive_only=True) if nid != self.node.node_id]
        colluders.sort(key=lambda nid: space.distance(self.node.node_id, nid))
        return tuple(colluders[:capacity]) or tuple(self.node.successor_list.nodes)

    # --------------------------------------------------------------- responses
    def provide_routing_table(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> RoutingTableSnapshot:
        honest = node.snapshot(now=now)
        # Pollution specifically targets finger-update lookups; regular
        # (anonymous) lookups are left alone so the attack is stealthier.
        if purpose != "finger-update" or not self.adversary.should_attack("fingertable-pollution"):
            return honest
        manipulated_successors = self._colluding_successors()
        self.adversary.stats.tables_manipulated += 1
        self.adversary.observe(now, "pollution-response", node=node.node_id, requester=requester)
        return RoutingTableSnapshot(
            owner_id=honest.owner_id,
            fingers=honest.fingers,
            successors=manipulated_successors,
            predecessors=honest.predecessors,
            timestamp=now,
        ).signed_by(node.keypair)

    def provide_predecessor_list(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> Tuple[int, ...]:
        """A polluted finger must also lie about its predecessors when checked."""
        if purpose == "finger-check" and self.adversary.should_attack("fingertable-pollution"):
            ring = self.adversary.ring
            space = ring.space
            capacity = node.predecessor_list.capacity
            colluders = [nid for nid in self.adversary.controlled_ids(alive_only=True) if nid != node.node_id]
            colluders.sort(key=lambda nid: space.distance(nid, node.node_id))
            if colluders:
                return tuple(colluders[:capacity])
        return tuple(node.predecessor_list.nodes)

    def provide_successor_list(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> SignedSuccessorList:
        """Cover for colluders on anonymous checks with bounded probability."""
        if purpose == "anonymous-lookup" and self.adversary.rng.stream("collusion").random() < self.collusion_consistency:
            nodes = self._colluding_successors()
            self.adversary.observe(now, "covering-successor-list", node=node.node_id)
            return SignedSuccessorList(owner_id=node.node_id, nodes=nodes, timestamp=now).signed_by(node.keypair)
        return node.signed_successor_list(now=now)
