"""Batched greedy-lookup execution over a flat finger-position matrix.

:class:`~repro.anonymity.ring_model.LightweightRing` computes thousands of
greedy lookup paths per anonymity estimate; re-deriving each of up to 40
finger candidates at every hop costs a ``normalize`` + bisect + two
modular-distance calls apiece.  :class:`FingerMatrix` resolves every node's
finger candidates to ring *positions* once — vectorised with numpy when it
is available, lazily per row with ``bisect`` otherwise — so the per-hop work
collapses to integer arithmetic over a precomputed row.

The selection logic in :func:`greedy_path_positions` (candidate order,
strict-inequality tie-breaks) is pinned hop for hop against the per-hop
reference loop kept in ``tests/kernel/oracle.py``, and against golden
digests of whole ``anonymity``/``ablation`` trials.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is an optional accelerator, never a requirement
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less CI
    _np = None

#: numpy builds the matrix in int64; identifier spaces wider than this fall
#: back to arbitrary-precision Python ints (ids + 2**(bits-1) must not wrap).
_MAX_NUMPY_ID_BITS = 62


class FingerMatrix:
    """Per-position finger candidates of a static sorted-identifier ring.

    Row ``p`` holds, for each finger index ``i``, the ring position owning
    identifier ``ids[p] + 2**i`` — i.e. ``position_of_id`` precomputed for
    every (position, finger) pair.  The ring is static (the lightweight
    model has no churn), so rows never invalidate.
    """

    def __init__(self, ids: Sequence[int], space_size: int, finger_count: int, space_bits: int, use_numpy: Optional[bool] = None) -> None:
        self.ids = ids
        self.n = len(ids)
        self.space_size = space_size
        self.finger_count = finger_count
        if use_numpy is None:
            use_numpy = _np is not None and space_bits <= _MAX_NUMPY_ID_BITS
        self._matrix = self._build_numpy() if use_numpy else None
        self._rows: Dict[int, Tuple[int, ...]] = {}

    def _build_numpy(self):
        ids_arr = _np.asarray(self.ids, dtype=_np.int64)
        pows = _np.int64(1) << _np.arange(self.finger_count, dtype=_np.int64)
        ideals = (ids_arr[:, None] + pows[None, :]) % _np.int64(self.space_size)
        return np_mod(_np.searchsorted(ids_arr, ideals, side="left"), self.n)

    def row(self, pos: int) -> Tuple[int, ...]:
        """Finger-candidate positions of ring position ``pos``, cached.

        Rows come from the vectorised matrix when numpy built one (a single
        ``tolist`` per row) and from per-finger ``bisect`` otherwise; either
        way the hop loop below runs over a plain tuple, which benchmarks
        faster than per-hop numpy vector ops at realistic finger counts.
        """
        row = self._rows.get(pos)
        if row is None:
            if self._matrix is not None:
                row = tuple(self._matrix[pos].tolist())
            else:
                ids, n, size = self.ids, self.n, self.space_size
                base = ids[pos]
                row = tuple(
                    bisect.bisect_left(ids, (base + (1 << i)) % size) % n
                    for i in range(self.finger_count)
                )
            self._rows[pos] = row
        return row

    def best_finger(
        self, pos: int, target_pos: int, dist_t: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """(best candidate position, its gap to the target), or (None, None).

        A candidate is admissible when it is not the current node and does
        not overshoot the target clockwise; among admissible candidates the
        *first* one at the minimal gap wins (a strict ``gap < best_gap``
        update in candidate order).
        """
        n = self.n
        best_pos: Optional[int] = None
        best_gap: Optional[int] = None
        for cand in self.row(pos):
            if cand == pos:
                continue
            if (cand - pos) % n > dist_t:
                continue
            gap = (target_pos - cand) % n
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        return best_pos, best_gap


def np_mod(arr, n):
    """``arr % n`` for numpy arrays (isolated so tests can stub numpy out)."""
    return arr % n


def greedy_path_positions(
    matrix: FingerMatrix,
    initiator_pos: int,
    target_pos: int,
    max_hops: int = 64,
    successor_count: int = 6,
) -> List[int]:
    """Greedy lookup path over a :class:`FingerMatrix`.

    Per hop, the best finger candidate (via :meth:`FingerMatrix.best_finger`)
    competes with up to six successor steps, successor steps winning only on
    strictly smaller gap; the returned positions exclude the initiator.
    """
    n = matrix.n
    path: List[int] = []
    current_pos = initiator_pos
    for _ in range(max_hops):
        dist_t = (target_pos - current_pos) % n
        if dist_t <= 1:
            break
        best_pos, best_gap = matrix.best_finger(current_pos, target_pos, dist_t)
        for step in range(1, successor_count + 1):
            if step > dist_t:
                break
            cand = (current_pos + step) % n
            gap = (target_pos - cand) % n
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        if best_pos is None or best_pos == current_pos:
            break
        path.append(best_pos)
        if best_pos == target_pos:
            break
        current_pos = best_pos
    return path
