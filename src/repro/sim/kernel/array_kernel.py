"""The array kernel: flat sorted arrays with incremental maintenance.

State layout (for a ring of N identifiers):

* ``_ids`` — the immutable sorted identifier list; a node's *slot* is its
  index here, and ``_alive``/``_malicious``/``_removed`` are parallel flag
  bytearrays indexed by slot.
* ``_alive_sorted`` / ``_honest_alive`` — incrementally maintained sorted
  lists of the alive (and honest-alive) identifiers.  A churn event is an
  O(log N) bisect plus a C-level memmove instead of the object kernel's
  O(N) Python rescans, and every global read (successor-of-key, alive view,
  sampling pools) is a bisect or a cached list.
* O(1) population counters back the two malicious-fraction metrics.

Finger-resolution cache: ``resolve_fingers`` memoises one row of resolved
targets per owner.  Churn invalidates exactly the rows it can change:

* **death of x** — only rows that currently resolve some ideal *to* x can
  change (the ideal now resolves to x's successor); a reverse index from
  target id to owner rows finds them in O(affected).
* **birth of x** — only rows with an ideal in the circular interval
  ``(pred, x]`` can change, where ``pred`` is x's alive predecessor after
  insertion (those ideals previously skipped over the gap to x's successor
  and now resolve to x); a sorted index of cached ideals finds them with
  two bisects.

The cache is capped; on overflow it is dropped wholesale (correctness never
depends on a row being present, only on present rows being right).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .base import RingKernel

#: Rows cached before the finger cache is dropped and restarted.  High enough
#: that steady-state churn (recently rejoined nodes) never evicts, low enough
#: that a 10^6-node full rebuild cannot hold N rows hostage in memory.
_FINGER_CACHE_MAX_ROWS = 8192


class ArrayRingKernel(RingKernel):
    """Incrementally maintained flat-array membership state."""

    name = "array"

    def __init__(self, space_size: int) -> None:
        super().__init__(space_size)
        self._ids: List[int] = []
        self._slot: Dict[int, int] = {}
        self._alive = bytearray()
        self._malicious = bytearray()
        self._removed = bytearray()
        self._alive_sorted: List[int] = []
        self._honest_alive: List[int] = []
        self._n_alive = 0
        self._n_alive_malicious = 0
        self._n_alive_unremoved = 0
        self._n_alive_malicious_unremoved = 0
        # finger cache: owner -> resolved targets, plus the two inverse
        # indices that make churn invalidation O(affected rows).
        self._finger_rows: Dict[int, List[Optional[int]]] = {}
        self._row_ideals: Dict[int, Tuple[int, ...]] = {}
        self._owners_by_target: Dict[int, Set[int]] = {}
        self._ideal_index: List[Tuple[int, int]] = []  # sorted (ideal, owner)

    # ------------------------------------------------------------------ state
    def load(self, sorted_ids: Sequence[int], malicious_ids: Iterable[int]) -> None:
        self._ids = list(sorted_ids)
        n = len(self._ids)
        self._slot = {nid: i for i, nid in enumerate(self._ids)}
        self._alive = bytearray([1]) * n if n else bytearray()
        self._malicious = bytearray(n)
        self._removed = bytearray(n)
        malicious = set(malicious_ids)
        for nid in malicious:
            slot = self._slot.get(nid)
            if slot is not None:
                self._malicious[slot] = 1
        self._alive_sorted = list(self._ids)
        self._honest_alive = [nid for nid in self._ids if nid not in malicious]
        n_mal = sum(self._malicious)
        self._n_alive = n
        self._n_alive_malicious = n_mal
        self._n_alive_unremoved = n
        self._n_alive_malicious_unremoved = n_mal
        self._drop_finger_cache()

    def set_alive(self, node_id: int, alive: bool) -> None:
        slot = self._slot.get(node_id)
        if slot is None or bool(self._alive[slot]) == alive:
            return
        if self.profiler is not None:
            self.profiler.incr("kernel.churn_ops")
        self._alive[slot] = 1 if alive else 0
        malicious = bool(self._malicious[slot])
        removed = bool(self._removed[slot])
        delta = 1 if alive else -1
        self._n_alive += delta
        if malicious:
            self._n_alive_malicious += delta
        if not removed:
            self._n_alive_unremoved += delta
            if malicious:
                self._n_alive_malicious_unremoved += delta
        if alive:
            bisect.insort(self._alive_sorted, node_id)
            if not malicious:
                bisect.insort(self._honest_alive, node_id)
            self._invalidate_rows_for_birth(node_id)
        else:
            idx = bisect.bisect_left(self._alive_sorted, node_id)
            del self._alive_sorted[idx]
            if not malicious:
                idx = bisect.bisect_left(self._honest_alive, node_id)
                del self._honest_alive[idx]
            self._invalidate_rows_for_death(node_id)

    def set_removed(self, node_id: int) -> None:
        slot = self._slot.get(node_id)
        if slot is None or self._removed[slot]:
            return
        self._removed[slot] = 1
        if self._alive[slot]:
            self._n_alive_unremoved -= 1
            if self._malicious[slot]:
                self._n_alive_malicious_unremoved -= 1

    def set_malicious(self, node_id: int, malicious: bool) -> None:
        slot = self._slot.get(node_id)
        if slot is None or bool(self._malicious[slot]) == malicious:
            return
        self._malicious[slot] = 1 if malicious else 0
        if self._alive[slot]:
            delta = 1 if malicious else -1
            self._n_alive_malicious += delta
            if not self._removed[slot]:
                self._n_alive_malicious_unremoved += delta
            # ``_honest_alive`` tracks alive honest ids only; dead nodes enter
            # or leave it in ``set_alive`` based on the flag set here.  The
            # finger cache resolves over ``_alive_sorted`` (allegiance-blind),
            # so no row invalidation is needed.
            if malicious:
                idx = bisect.bisect_left(self._honest_alive, node_id)
                del self._honest_alive[idx]
            else:
                bisect.insort(self._honest_alive, node_id)

    # ---------------------------------------------------------------- queries
    def is_alive(self, node_id: int) -> bool:
        slot = self._slot.get(node_id)
        return bool(self._alive[slot]) if slot is not None else False

    def alive_count(self) -> int:
        return self._n_alive

    def alive_ids_view(self) -> List[int]:
        return self._alive_sorted

    def honest_alive_ids_view(self) -> List[int]:
        return self._honest_alive

    def successor_of(self, key: int) -> Optional[int]:
        alive = self._alive_sorted
        if not alive:
            return None
        pos = bisect.bisect_left(alive, key % self.space_size)
        if pos == len(alive):
            pos = 0
        return alive[pos]

    def fraction_malicious_alive(self) -> float:
        if not self._n_alive:
            return 0.0
        return self._n_alive_malicious / self._n_alive

    def remaining_malicious_fraction(self) -> float:
        if not self._n_alive_unremoved:
            return 0.0
        return self._n_alive_malicious_unremoved / self._n_alive_unremoved

    # ------------------------------------------------------------ finger cache
    def resolve_fingers(self, owner_id: int, ideals: Sequence[int]) -> List[Optional[int]]:
        key = tuple(ideals)
        cached = self._finger_rows.get(owner_id)
        hit = cached is not None and self._row_ideals.get(owner_id) == key
        if self.profiler is not None:
            self.profiler.incr("kernel.finger_resolves")
            self.profiler.incr("kernel.finger_cache_hits" if hit else "kernel.finger_cache_misses")
        if hit:
            return list(cached)
        if cached is not None:
            self._invalidate_row(owner_id)

        alive = self._alive_sorted
        if not alive:
            return [None] * len(ideals)
        n = len(alive)
        targets: List[Optional[int]] = []
        for ideal in key:
            pos = bisect.bisect_left(alive, ideal)
            if pos == n:
                pos = 0
            targets.append(alive[pos])

        if len(self._finger_rows) >= _FINGER_CACHE_MAX_ROWS:
            self._drop_finger_cache()
        self._finger_rows[owner_id] = list(targets)
        self._row_ideals[owner_id] = key
        for target in set(targets):  # repro-lint: ignore[D201] — dedup feeding an unordered index; per-item effect is idempotent
            if target is not None:
                self._owners_by_target.setdefault(target, set()).add(owner_id)
        for ideal in set(key):  # repro-lint: ignore[D201] — dedup feeding a sorted insort index; insertion order immaterial
            bisect.insort(self._ideal_index, (ideal, owner_id))
        return targets

    def finger_cache_size(self) -> int:
        """Cached row count (introspection for tests and benchmarks)."""
        return len(self._finger_rows)

    def _drop_finger_cache(self) -> None:
        self._finger_rows.clear()
        self._row_ideals.clear()
        self._owners_by_target.clear()
        self._ideal_index.clear()

    def _invalidate_row(self, owner_id: int) -> None:
        targets = self._finger_rows.pop(owner_id, None)
        ideals = self._row_ideals.pop(owner_id, ())
        if targets:
            for target in set(targets):  # repro-lint: ignore[D201] — dedup over an unordered index; per-item discard is idempotent
                owners = self._owners_by_target.get(target)
                if owners is not None:
                    owners.discard(owner_id)
                    if not owners:
                        del self._owners_by_target[target]
        for ideal in set(ideals):  # repro-lint: ignore[D201] — dedup over a sorted index; per-item removal is position-exact
            idx = bisect.bisect_left(self._ideal_index, (ideal, owner_id))
            if idx < len(self._ideal_index) and self._ideal_index[idx] == (ideal, owner_id):
                del self._ideal_index[idx]

    def _invalidate_rows_for_death(self, node_id: int) -> None:
        owners = self._owners_by_target.get(node_id)
        if owners:
            for owner in list(owners):
                self._invalidate_row(owner)

    def _invalidate_rows_for_birth(self, node_id: int) -> None:
        """Invalidate rows with an ideal in the circular interval (pred, x]."""
        if not self._ideal_index:
            return
        alive = self._alive_sorted
        if len(alive) <= 1:
            self._drop_finger_cache()
            return
        idx = bisect.bisect_left(alive, node_id)
        pred = alive[idx - 1]  # wraps to alive[-1] when idx == 0
        if pred == node_id:  # pragma: no cover - ids are unique
            self._drop_finger_cache()
            return
        index = self._ideal_index
        if pred < node_id:
            lo = bisect.bisect_right(index, (pred, float("inf")))
            hi = bisect.bisect_right(index, (node_id, float("inf")))
            affected = {owner for _, owner in index[lo:hi]}
        else:  # interval wraps the top of the identifier space
            hi_lo = bisect.bisect_right(index, (pred, float("inf")))
            lo_hi = bisect.bisect_right(index, (node_id, float("inf")))
            affected = {owner for _, owner in index[hi_lo:]}
            affected.update(owner for _, owner in index[:lo_hi])
        for owner in affected:
            self._invalidate_row(owner)
