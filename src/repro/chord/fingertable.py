"""Finger tables.

Each Chord/Octopus node keeps ``m`` fingers: entry ``i`` points to the first
node whose identifier succeeds ``node_id + 2**i``.  The paper's simulations
use 12 fingers per node for the N=1000 networks (Section 5.1); this class
supports any finger count up to the identifier width.

Finger tables in Octopus are *signed* when returned to other nodes (together
with the successor list, forming the routing table); the signing wrapper
lives in :mod:`repro.chord.routing_table`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .idspace import IdSpace


@dataclass(frozen=True)
class FingerEntry:
    """A read-only view of one finger: the ideal identifier and the node filling it.

    Entries are handed out as values; a finger changes only through the
    owning :class:`FingerTable`'s mutators, which is what lets the table
    count its mutations (:attr:`FingerTable.version`).
    """

    index: int
    ideal_id: int
    node_id: Optional[int] = None

    def is_filled(self) -> bool:
        return self.node_id is not None


class FingerTable:
    """A node's finger table.

    Parameters
    ----------
    owner_id:
        Identifier of the node that owns this table.
    space:
        The identifier space.
    size:
        Number of fingers maintained (paper default for simulations: 12).

    :attr:`version` counts content changes: it is bumped by a mutator only
    when some finger ends up pointing at a different node, so everything
    derived from the table (the signed routing-table body kept by
    :class:`~repro.chord.node.ChordNode`) can be cached per version.
    """

    def __init__(self, owner_id: int, space: IdSpace, size: int = 12) -> None:
        if size < 1 or size > space.bits:
            raise ValueError(f"finger table size must be in [1, {space.bits}]")
        self.owner_id = owner_id
        self.space = space
        self.size = size
        # A node keeping fewer fingers than the identifier width keeps the
        # *longest-range* ones: finger ``i`` targets ``owner + 2**(bits-size+i)``.
        # (With ``size == bits`` this is exactly Chord's ``owner + 2**i``; with
        # the paper's 12 fingers it is the 12 fingers that actually matter for
        # O(log N) routing — the shorter ones all collapse onto the successor.)
        self._ideal_ids: Tuple[int, ...] = tuple(
            space.normalize(owner_id + (1 << (space.bits - size + i))) for i in range(size)
        )
        self._node_ids: List[Optional[int]] = [None] * size
        self.version = 0

    # ---------------------------------------------------------------- access
    def __len__(self) -> int:
        return self.size

    def entry(self, index: int) -> FingerEntry:
        return FingerEntry(index, self._ideal_ids[index], self._node_ids[index])

    @property
    def entries(self) -> List[FingerEntry]:
        return [FingerEntry(i, ideal, node) for i, (ideal, node) in enumerate(self.pairs())]

    def pairs(self) -> Tuple[Tuple[int, Optional[int]], ...]:
        """``(ideal_id, node_id)`` per finger in index order (the signed wire form)."""
        return tuple(zip(self._ideal_ids, self._node_ids))

    def ideal_id(self, index: int) -> int:
        return self._ideal_ids[index]

    def ideal_ids(self) -> List[int]:
        """Every entry's ideal identifier, in index order."""
        return list(self._ideal_ids)

    def get(self, index: int) -> Optional[int]:
        """The node currently filling finger ``index`` (or ``None``)."""
        return self._node_ids[index]

    def set(self, index: int, node_id: Optional[int]) -> None:
        """Set finger ``index`` to ``node_id``."""
        if self._node_ids[index] != node_id:
            self._node_ids[index] = node_id
            self.version += 1

    def nodes(self) -> List[int]:
        """All distinct filled finger node ids, in index order."""
        out = list(dict.fromkeys(self._node_ids))
        if None in out:
            out.remove(None)
        return out

    def as_dict(self) -> Dict[int, Optional[int]]:
        """``{index: node_id}`` mapping (used when exchanging fingertables)."""
        return dict(enumerate(self._node_ids))

    def fill_from(self, sorted_ids: Sequence[int]) -> None:
        """Fill every finger from a sorted list of all live node identifiers.

        Used by the ring builder to construct a *correct* table in one shot
        (the paper's simulator similarly bootstraps correct routing state and
        then lets stabilization maintain it under churn).
        """
        if not sorted_ids:
            raise ValueError("cannot fill a finger table from an empty ring")
        targets = []
        for ideal_id in self._ideal_ids:
            pos = bisect.bisect_left(sorted_ids, ideal_id)
            if pos == len(sorted_ids):
                pos = 0
            targets.append(sorted_ids[pos])
        self._replace(targets)

    def fill_targets(self, targets: Sequence[Optional[int]]) -> None:
        """Set every entry from pre-resolved targets (one per entry, in order).

        Counterpart of :meth:`fill_from` for callers that resolved the
        ideals elsewhere (the ring kernels' cached finger resolution).
        """
        if len(targets) != self.size:
            raise ValueError(f"expected {self.size} targets, got {len(targets)}")
        self._replace(list(targets))

    def _replace(self, node_ids: List[Optional[int]]) -> None:
        if node_ids != self._node_ids:
            self._node_ids = node_ids
            self.version += 1

    def copy(self) -> "FingerTable":
        """Deep copy (used when adversaries fabricate manipulated tables)."""
        clone = FingerTable(self.owner_id, self.space, self.size)
        clone._node_ids = list(self._node_ids)
        return clone

    # ------------------------------------------------------------ maintenance
    def replace_node(self, old_id: int, new_id: Optional[int]) -> int:
        """Replace every occurrence of ``old_id`` with ``new_id``; returns count."""
        count = self._node_ids.count(old_id)
        if count and new_id != old_id:
            self._node_ids = [new_id if nid == old_id else nid for nid in self._node_ids]
            self.version += 1
        return count

    def closest_preceding(self, key: int, exclude: Optional[set] = None) -> Optional[int]:
        """The filled finger most closely preceding ``key`` (Chord routing)."""
        exclude = exclude or set()
        best = None
        best_dist = None
        for nid in self._node_ids:
            if nid is None or nid in exclude or nid == self.owner_id:
                continue
            if not self.space.in_interval(nid, self.owner_id, key):
                continue
            d = self.space.distance(nid, key)
            if best_dist is None or d < best_dist:
                best, best_dist = nid, d
        return best

    def __repr__(self) -> str:  # pragma: no cover
        filled = self.size - self._node_ids.count(None)
        return f"FingerTable(owner={self.owner_id}, filled={filled}/{self.size})"
