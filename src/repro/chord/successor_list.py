"""Successor and predecessor lists.

Chord nodes keep a successor list for fault tolerance.  Octopus additionally
requires every node to keep a *predecessor* list of the same size, maintained
by running the stabilization protocol anti-clockwise (Section 4.3): this is
what makes secret neighbor surveillance possible, because each node must then
appear in the successor list of each of its predecessors.

The lists are ordered by ring distance from the owner and bounded in length
(paper: 6 successors and 6 predecessors for the N=1000 experiments).
"""

from __future__ import annotations

import bisect
from dataclasses import InitVar, dataclass
from typing import Iterable, List, Optional, Sequence

from .idspace import IdSpace


class NeighborList:
    """An ordered, bounded list of ring neighbors in one direction.

    Parameters
    ----------
    owner_id:
        The node owning the list.
    space:
        Identifier space.
    capacity:
        Maximum number of entries kept (paper default: 6).
    direction:
        ``+1`` for a successor list (clockwise), ``-1`` for a predecessor list
        (anti-clockwise).

    :attr:`version` counts content changes (a mutator that leaves the entries
    as they were does not bump it), so what a node signs from the list can be
    cached per version.
    """

    def __init__(self, owner_id: int, space: IdSpace, capacity: int = 6, direction: int = +1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 (successors) or -1 (predecessors)")
        self.owner_id = owner_id
        self.space = space
        self.capacity = capacity
        self.direction = direction
        self._nodes: List[int] = []
        self.version = 0

    # ---------------------------------------------------------------- helpers
    def _distance(self, node_id: int) -> int:
        """Ring distance from the owner in the list's direction (``direction`` is +-1)."""
        return (node_id - self.owner_id) * self.direction % self.space.size

    # ----------------------------------------------------------------- access
    @property
    def nodes(self) -> List[int]:
        """Entries ordered by increasing ring distance from the owner."""
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def first(self) -> Optional[int]:
        """The immediate successor (or predecessor), if any."""
        return self._nodes[0] if self._nodes else None

    def is_full(self) -> bool:
        return len(self._nodes) >= self.capacity

    # ------------------------------------------------------------- mutation
    def _insert(self, node_id: int) -> bool:
        nodes = self._nodes
        if node_id == self.owner_id or node_id in nodes:
            return False
        # After any entry at the same distance, as a stable sort would put it.
        pos = bisect.bisect_right([self._distance(nid) for nid in nodes], self._distance(node_id))
        if pos >= self.capacity:
            return False
        nodes.insert(pos, node_id)
        del nodes[self.capacity:]
        return True

    def add(self, node_id: int) -> bool:
        """Insert ``node_id`` keeping order; returns whether the list changed."""
        changed = self._insert(node_id)
        if changed:
            self.version += 1
        return changed

    def update(self, node_ids: Iterable[int]) -> int:
        """Add many candidates; returns the number actually inserted."""
        count = sum(1 for nid in node_ids if self._insert(nid))
        if count:
            self.version += 1
        return count

    def remove(self, node_id: int) -> bool:
        """Remove ``node_id`` if present."""
        if node_id in self._nodes:
            self._nodes.remove(node_id)
            self.version += 1
            return True
        return False

    def replace_all(self, node_ids: Sequence[int]) -> None:
        """Replace the whole list (used when adopting a peer-provided list)."""
        # The ``capacity`` closest distinct non-owner ids, ties in order of
        # first appearance: what inserting one id at a time would leave.
        distinct = [nid for nid in dict.fromkeys(node_ids) if nid != self.owner_id]
        distinct.sort(key=self._distance)
        del distinct[self.capacity:]
        if distinct != self._nodes:
            self._nodes = distinct
            self.version += 1

    def clear(self) -> None:
        if self._nodes:
            self._nodes = []
            self.version += 1

    def copy(self) -> "NeighborList":
        clone = NeighborList(self.owner_id, self.space, self.capacity, self.direction)
        clone._nodes = list(self._nodes)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        kind = "succ" if self.direction > 0 else "pred"
        return f"NeighborList({kind}, owner={self.owner_id}, nodes={self._nodes})"


def successor_list_prefix(owner_id: int, nodes: Sequence[int]) -> bytes:
    """A signed successor list's payload up to (not including) the timestamp."""
    return f"succlist|{owner_id}|{','.join(map(str, nodes))}|".encode()


@dataclass(frozen=True)
class SignedSuccessorList:
    """A successor list snapshot signed by its owner.

    Octopus requires routing tables to be signed and timestamped so that they
    can serve as non-repudiable evidence when a node is reported to the CA
    (Section 4.3).  ``signature`` is produced by the owner's key pair over the
    canonical payload; ``received_from`` records who supplied the list during
    stabilization (used for successor-list-pollution proof chains).
    ``prefix`` is the timestamp-free part of the payload (not itself a
    field).  An owner computes it once per version of its list and hands it
    in as ``shared_prefix``; otherwise — and under ``dataclasses.replace`` —
    it is computed from the fields given.
    """

    owner_id: int
    nodes: tuple
    timestamp: float
    signature: object = None
    received_from: Optional[int] = None
    shared_prefix: InitVar[Optional[bytes]] = None

    def __post_init__(self, shared_prefix: Optional[bytes]) -> None:
        prefix = shared_prefix or successor_list_prefix(self.owner_id, self.nodes)
        object.__setattr__(self, "prefix", prefix)

    def payload(self) -> bytes:
        return self.prefix + b"%.3f" % self.timestamp

    def signed_by(self, keypair) -> "SignedSuccessorList":
        """This list carrying ``keypair``'s signature over :meth:`payload`."""
        return SignedSuccessorList(
            self.owner_id, self.nodes, self.timestamp, keypair.sign(self.payload()), self.received_from, self.prefix
        )

    def contains(self, node_id: int) -> bool:
        return node_id in self.nodes
