"""Identifier-space arithmetic for the Chord ring.

Chord (Stoica et al.) places nodes and keys on a circular identifier space of
size ``2**m``.  Octopus inherits this structure.  All interval and distance
computations used by the rest of the code base live here, so that wrap-around
corner cases are handled (and tested) exactly once.

The paper uses 160-bit identifiers on PlanetLab; the simulators use smaller
``m`` (e.g. 32 bits) for speed.  Every function takes the space explicitly, so
both coexist.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

#: Identifier width used by the wire protocol in the paper.
DEFAULT_BITS = 160
#: Identifier width used by the simulation experiments (fast, still sparse).
SIMULATION_BITS = 32


@dataclass(frozen=True)
class IdSpace:
    """A ``2**bits`` circular identifier space.

    ``size``, the number of identifiers, is computed once per space: an
    attribute, not a field, so equality, hashing and ``replace`` see ``bits``.
    """

    bits: int = SIMULATION_BITS

    def __post_init__(self) -> None:
        if self.bits < 3 or self.bits > 512:
            raise ValueError("bits must be in [3, 512]")
        object.__setattr__(self, "size", 1 << self.bits)

    def contains(self, ident: int) -> bool:
        """Whether ``ident`` is a valid identifier."""
        return 0 <= ident < self.size

    def normalize(self, ident: int) -> int:
        """Map an arbitrary integer onto the ring."""
        return ident % self.size

    def hash_key(self, key: str) -> int:
        """Hash an application-level key (string) onto the ring."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return int.from_bytes(digest, "big") % self.size

    # ----------------------------------------------------------------- ranges
    def distance(self, a: int, b: int) -> int:
        """Clockwise distance from ``a`` to ``b``."""
        return (b - a) % self.size

    def in_interval(
        self,
        ident: int,
        start: int,
        end: int,
        inclusive_start: bool = False,
        inclusive_end: bool = False,
    ) -> bool:
        """Whether ``ident`` lies in the clockwise interval from ``start`` to ``end``.

        Handles wrap-around: the interval ``(start, end]`` with ``start > end``
        crosses zero.  When ``start == end`` the interval is the whole ring
        (minus the endpoints unless they are inclusive), matching Chord's use
        of intervals during stabilization with a single known node.
        """
        size = self.size
        d_end = (end - start) % size
        d_ident = (ident - start) % size
        if d_ident == 0:  # ident is start
            return inclusive_start or (d_end == 0 and inclusive_end)
        if d_ident == d_end:  # ident is end
            return inclusive_end
        return d_end == 0 or d_ident < d_end

    def ideal_finger(self, node_id: int, index: int) -> int:
        """The ideal identifier of finger ``index`` (0-based): ``node + 2**index``."""
        if index < 0 or index >= self.bits:
            raise ValueError(f"finger index {index} out of range for {self.bits}-bit space")
        return self.normalize(node_id + (1 << index))

    def ideal_fingers(self, node_id: int, count: Optional[int] = None) -> List[int]:
        """Ideal identifiers of the first ``count`` fingers (default: all)."""
        n = count if count is not None else self.bits
        return [self.ideal_finger(node_id, i) for i in range(min(n, self.bits))]


def successor_of(ids: Sequence[int], key: int, space: IdSpace) -> int:
    """The first identifier in ``ids`` at or clockwise after ``key``.

    ``ids`` must be non-empty; it does not need to be sorted.
    """
    if not ids:
        raise ValueError("successor_of requires at least one identifier")
    best = None
    best_dist = None
    for ident in ids:
        d = space.distance(key, ident)
        if best_dist is None or d < best_dist:
            best, best_dist = ident, d
    return best  # type: ignore[return-value]


def predecessor_of(ids: Sequence[int], key: int, space: IdSpace) -> int:
    """The first identifier in ``ids`` strictly counter-clockwise before ``key``."""
    if not ids:
        raise ValueError("predecessor_of requires at least one identifier")
    best = None
    best_dist = None
    for ident in ids:
        d = space.distance(ident, key)
        if d == 0:
            d = space.size
        if best_dist is None or d < best_dist:
            best, best_dist = ident, d
    return best  # type: ignore[return-value]


def closest_preceding(ids: Iterable[int], key: int, node_id: int, space: IdSpace) -> Optional[int]:
    """The identifier in ``ids`` that most closely precedes ``key``.

    Mirrors Chord's ``closest_preceding_finger``: among the candidates lying
    strictly between ``node_id`` and ``key`` (clockwise), return the one
    closest to ``key``; ``None`` if no candidate qualifies.
    """
    best = None
    best_dist = None
    for ident in ids:
        if ident == node_id or ident == key:
            continue
        if not space.in_interval(ident, node_id, key):
            continue
        d = space.distance(ident, key)
        if best_dist is None or d < best_dist:
            best, best_dist = ident, d
    return best
