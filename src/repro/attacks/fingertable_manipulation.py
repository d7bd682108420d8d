"""Fingertable manipulation attack (Section 4.4, Figure 3(c)).

A malicious node replaces honest fingers in the tables it hands out with
colluding nodes.  The goal is not (only) to bias lookup results but to
misdirect random walks and to get *more malicious nodes queried* during a
lookup, creating more observation opportunities.

Detection is by secret finger surveillance: an honest node that buffered such
a manipulated table later checks one of its fingers against the successor
list of one of that finger's claimed predecessors.  To survive the check the
adversary has to manipulate the finger's predecessor list too, which in turn
sacrifices either the finger or the checked predecessor (Section 4.4).  The
``collusion_consistency`` parameter models how often a checked colluding
predecessor backs up the manipulation with a consistent (manipulated)
successor list — the paper's Table 2 uses 50%.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..chord.node import ChordNode, NodeBehavior
from ..chord.routing_table import RoutingTableSnapshot
from ..chord.successor_list import SignedSuccessorList
from .adversary import Adversary


class FingertableManipulationBehavior(NodeBehavior):
    """Malicious behaviour that substitutes colluders into returned fingertables."""

    is_malicious = True

    def __init__(
        self,
        adversary: Adversary,
        node: ChordNode,
        collusion_consistency: float = 0.5,
        fingers_to_manipulate: int = 4,
    ) -> None:
        self.adversary = adversary
        self.node = node
        #: probability that this node, when checked as a *predecessor* of a
        #: manipulated finger, returns a successor list consistent with the
        #: manipulation (Table 2 caption: 50%).
        self.collusion_consistency = collusion_consistency
        self.fingers_to_manipulate = fingers_to_manipulate

    # ------------------------------------------------------------ manipulation
    def _manipulated_fingers(
        self, honest_fingers: Tuple[Tuple[int, Optional[int]], ...]
    ) -> Tuple[Tuple[int, Optional[int]], ...]:
        """Replace the farthest fingers with the colluders closest to their ideals.

        Replacing the *far* fingers keeps the manipulation within NISAN-style
        bound checks (each substitute is still near its ideal identifier)
        while maximising the chance the victim routes through colluders.
        """
        ring = self.adversary.ring
        space = ring.space
        colluders = self.adversary.controlled_ids(alive_only=True)
        if not colluders:
            return honest_fingers
        out = list(honest_fingers)
        manipulated = 0
        for idx in range(len(out) - 1, -1, -1):
            if manipulated >= self.fingers_to_manipulate:
                break
            ideal, _current = out[idx]
            best = min(colluders, key=lambda nid: space.distance(ideal, nid))
            if best == self.node.node_id:
                continue
            out[idx] = (ideal, best)
            manipulated += 1
        if manipulated:
            self.adversary.stats.tables_manipulated += 1
        return tuple(out)

    # ---------------------------------------------------------------- responses
    def provide_routing_table(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> RoutingTableSnapshot:
        honest = node.snapshot(now=now)
        if purpose not in ("random-walk", "anonymous-lookup", "lookup", "finger-update"):
            return honest
        if not self.adversary.should_attack("fingertable-manipulation"):
            return honest
        self.adversary.observe(now, "manipulated-fingertable", node=node.node_id, requester=requester)
        return RoutingTableSnapshot(
            owner_id=honest.owner_id,
            fingers=self._manipulated_fingers(honest.fingers),
            successors=honest.successors,
            predecessors=honest.predecessors,
            timestamp=now,
        ).signed_by(node.keypair)

    def provide_predecessor_list(
        self, node: ChordNode, requester: Optional[int], purpose: str, now: float
    ) -> Tuple[int, ...]:
        """When asked for predecessors (finger check), claim colluders only.

        This is the adversary's only way to survive a secret finger check on a
        colluding finger: the claimed predecessors must also be colluders so
        that the follow-up successor-list query can be answered consistently.
        """
        if purpose == "finger-check" and self.adversary.should_attack("fingertable-manipulation"):
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
        """When anonymously checked as a predecessor, sometimes cover for colluders.

        With probability ``collusion_consistency`` the node strips honest
        entries from its successor list so a manipulated finger looks
        legitimate; otherwise it answers honestly (covering is risky — it is
        what secret neighbor surveillance catches).
        """
        if purpose == "anonymous-lookup" and self.adversary.rng.stream("collusion").random() < self.collusion_consistency:
            ring = self.adversary.ring
            space = ring.space
            capacity = node.successor_list.capacity
            colluders = [nid for nid in self.adversary.controlled_ids(alive_only=True) if nid != node.node_id]
            colluders.sort(key=lambda nid: space.distance(node.node_id, nid))
            nodes = tuple(colluders[:capacity]) or tuple(node.successor_list.nodes)
            self.adversary.observe(now, "covering-successor-list", node=node.node_id)
            return SignedSuccessorList(owner_id=node.node_id, nodes=nodes, timestamp=now).signed_by(node.keypair)
        return node.signed_successor_list(now=now)
