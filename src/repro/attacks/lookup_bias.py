"""Lookup bias attack (Section 4.3, Figures 3(a) and 3(b)).

A malicious intermediate node biases a lookup by manipulating its successor
list so that the lookup key appears to fall between itself and a colluding
"successor"; the initiator then accepts the colluder as the key owner.  The
attack comes in two flavours:

* **Direct bias** — the malicious node, when queried, returns a successor
  list headed by a colluder (or with honest successors removed so a colluder
  close to the key becomes the claimed owner).
* **Successor-list pollution** — the malicious node feeds manipulated
  successor lists to honest neighbours during stabilization so that *honest*
  nodes evict the victim from their lists (Figure 2(b)); the pollution
  variant is modelled in :mod:`repro.attacks.fingertable_pollution`'s sibling
  behaviour below because it shares the stabilization hook.

Because Octopus routes surveillance probes through anonymous paths, the
attacker cannot distinguish a genuine lookup from a secret-neighbor-
surveillance check, which is exactly what gets it caught.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..chord.node import ChordNode, NodeBehavior
from ..chord.routing_table import RoutingTableSnapshot
from ..chord.successor_list import SignedSuccessorList
from .adversary import Adversary


class LookupBiasBehavior(NodeBehavior):
    """Malicious behaviour implementing the lookup bias attack.

    The node manipulates the successor list it returns for lookup-type
    queries: honest successors are dropped and colluders are promoted so that
    whatever key the querier is chasing appears owned by a colluder.  Finger
    entries are left untouched (that is the separate fingertable-manipulation
    attack).
    """

    is_malicious = True

    def __init__(self, adversary: Adversary, node: ChordNode, attack_stabilization: bool = False) -> None:
        self.adversary = adversary
        self.node = node
        #: when True, manipulated lists are also fed to honest neighbours
        #: during stabilization (successor-list pollution, Figure 2(b)).
        self.attack_stabilization = attack_stabilization

    # ------------------------------------------------------------ manipulation
    def _manipulated_successors(self) -> Tuple[int, ...]:
        """A successor list consisting of colluders only (honest nodes evicted)."""
        ring = self.adversary.ring
        space = ring.space
        capacity = self.node.successor_list.capacity
        colluders = [
            nid
            for nid in self.adversary.controlled_ids(alive_only=True)
            if nid != self.node.node_id
        ]
        colluders.sort(key=lambda nid: space.distance(self.node.node_id, nid))
        manipulated = tuple(colluders[:capacity])
        if manipulated:
            self.adversary.stats.tables_manipulated += 1
        return manipulated or tuple(self.node.successor_list.nodes)

    def _sign_successor_list(self, nodes: Tuple[int, ...], now: float, received_from: Optional[int] = None) -> SignedSuccessorList:
        return SignedSuccessorList(
            owner_id=self.node.node_id, nodes=nodes, timestamp=now, received_from=received_from
        ).signed_by(self.node.keypair)

    # ---------------------------------------------------------------- responses
    def provide_routing_table(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> RoutingTableSnapshot:
        honest = node.snapshot(now=now)
        if purpose not in ("anonymous-lookup", "lookup", "finger-update"):
            return honest
        if not self.adversary.should_attack("lookup-bias"):
            return honest
        manipulated = self._manipulated_successors()
        self.adversary.observe(now, "biased-lookup-response", node=node.node_id, requester=requester)
        self.adversary.stats.lookups_biased += 1
        return RoutingTableSnapshot(
            owner_id=honest.owner_id,
            fingers=honest.fingers,
            successors=manipulated,
            predecessors=honest.predecessors,
            timestamp=now,
        ).signed_by(node.keypair)

    def provide_successor_list(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> SignedSuccessorList:
        attack_contexts = {"anonymous-lookup", "lookup"}
        if self.attack_stabilization:
            attack_contexts.add("stabilize-successors")
        if purpose in attack_contexts and self.adversary.should_attack("lookup-bias"):
            self.adversary.observe(now, "biased-successor-list", node=node.node_id, requester=requester)
            return self._sign_successor_list(self._manipulated_successors(), now)
        return node.signed_successor_list(now=now)
