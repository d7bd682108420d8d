"""The ring-kernel interface: membership state behind :class:`ChordRing`.

A *kernel* owns the mutable ground-truth membership of a simulated ring —
which identifiers exist, which are alive, which are malicious, which have
been permanently removed — and answers the global queries the experiment
scaffolding hammers on (sorted alive view, successor-of-key, malicious
fractions, finger resolution).  The protocol logic never sees a kernel; it
talks to :class:`~repro.chord.ring.ChordRing`, which delegates here.

Two implementations exist:

* :class:`~repro.sim.kernel.array_kernel.ArrayRingKernel`, the default — flat
  sorted arrays with incremental maintenance: O(log N) membership updates, O(1)
  counters for the fraction metrics, bisect successor resolution and a
  finger-resolution cache with churn-driven row invalidation.
* :class:`~repro.sim.kernel.object_kernel.ObjectRingKernel` — the historical
  semantics: every query is an O(N) scan, exactly as the per-node object
  code always computed it.  This is the reference kernel.

Both kernels are pure functions of the same state: for any sequence of
``load``/``set_alive``/``set_removed`` calls they must return identical
values from every query.  ``tests/kernel`` enforces this differentially.
Kernels draw no randomness, so swapping them can never change an
experiment's draw sequence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, List, Optional, Sequence

from .. import profiling


class RingKernel(ABC):
    """Mutable ring-membership state and the global queries over it."""

    #: registry name ("object" / "array"), set by subclasses.
    name: str = ""

    def __init__(self, space_size: int) -> None:
        if space_size < 1:
            raise ValueError("space_size must be positive")
        self.space_size = int(space_size)
        # Bound once at construction (None when profiling is off): kernels
        # count churn ops and finger-resolution cache behaviour, guarded by a
        # single `is not None` branch so the disabled path stays free.
        self.profiler = profiling.active()

    # ------------------------------------------------------------------ state
    @abstractmethod
    def load(self, sorted_ids: Sequence[int], malicious_ids: Iterable[int]) -> None:
        """Initialise from a sorted id list; every node starts alive."""

    @abstractmethod
    def set_alive(self, node_id: int, alive: bool) -> None:
        """Flip one node's alive flag (no-op if already in that state)."""

    @abstractmethod
    def set_removed(self, node_id: int) -> None:
        """Mark a node permanently removed (certificate revoked)."""

    @abstractmethod
    def set_malicious(self, node_id: int, malicious: bool) -> None:
        """Flip one node's allegiance mid-run (no-op if already there).

        Adaptive-adversary controllers compromise nodes after construction;
        both kernels must expose the same post-flip query results (the
        differential suite covers interleavings with ``set_alive`` /
        ``set_removed``).  Unknown ids are ignored.
        """

    # ---------------------------------------------------------------- queries
    @abstractmethod
    def is_alive(self, node_id: int) -> bool:
        ...

    @abstractmethod
    def alive_count(self) -> int:
        ...

    @abstractmethod
    def alive_ids_view(self) -> Sequence[int]:
        """Sorted alive ids; MAY be internal state — callers must not mutate."""

    def alive_ids(self) -> List[int]:
        """Sorted alive ids as a fresh list the caller owns."""
        return list(self.alive_ids_view())

    @abstractmethod
    def honest_alive_ids_view(self) -> Sequence[int]:
        """Sorted honest alive ids; MAY be internal state — do not mutate."""

    def honest_alive_ids(self) -> List[int]:
        return list(self.honest_alive_ids_view())

    @abstractmethod
    def successor_of(self, key: int) -> Optional[int]:
        """First alive id at or clockwise-after ``key`` (None if ring empty)."""

    @abstractmethod
    def fraction_malicious_alive(self) -> float:
        """Malicious share of the alive population."""

    @abstractmethod
    def remaining_malicious_fraction(self) -> float:
        """Malicious share of the alive-and-not-removed population."""

    @abstractmethod
    def resolve_fingers(self, owner_id: int, ideals: Sequence[int]) -> List[Optional[int]]:
        """First alive id at or after each ideal (with wraparound).

        The array kernel caches rows per owner and invalidates exactly the
        rows a churn event can change; the object kernel recomputes.  Every
        call counts one ``kernel.finger_resolves``; a caching kernel adds a
        ``kernel.finger_cache_hits`` or ``_misses`` (resolves = hits + misses).
        """


def validate_kernel(name: str) -> str:
    """Check a kernel name, returning it; raises ``ValueError`` otherwise."""
    from . import KERNELS

    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {sorted(KERNELS)}")
    return name


def make_ring_kernel(name: str, space_size: int) -> RingKernel:
    """Instantiate the named kernel over an identifier space of ``space_size``."""
    from . import KERNELS

    validate_kernel(name)
    return KERNELS[name](space_size)
