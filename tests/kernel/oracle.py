"""Reference greedy lookup over a :class:`LightweightRing`: the per-hop loop.

This is the loop ``LightweightRing.query_path_positions`` ran before the
finger matrix became its only path: every hop re-derives each finger
candidate with a ``normalize`` + bisect and picks the admissible candidate
closest to the target.  It is slower than
:func:`repro.sim.kernel.greedy_path_positions` at every ring size, which is
why it left ``src``; it stays here as the oracle the matrix executor is
compared against, hop for hop (``test_invariants``) and through whole
``anonymity``/``ablation`` trials (``cases.run_canonical``).
"""

from __future__ import annotations

from typing import List


def loop_path_positions(ring, initiator_pos: int, target_pos: int, max_hops: int = 64) -> List[int]:
    """Positions queried by a greedy lookup, excluding the initiator."""
    space = ring.space
    path: List[int] = []
    current_pos = initiator_pos
    for _ in range(max_hops):
        current_id = ring.ids[current_pos]
        # Termination: the current node's immediate successor owns the key.
        succ_pos = (current_pos + 1) % ring.n_nodes
        if ring.hop_distance(current_pos, target_pos) <= 1:
            break
        if succ_pos == target_pos:
            break
        # Candidate next hops: true fingers + 6 successors.
        best_pos = None
        best_gap = None
        for i in range(ring.finger_count):
            ideal = space.normalize(current_id + (1 << i))
            cand = ring.position_of_id(ideal)
            gap = ring.hop_distance(cand, target_pos)
            if cand == current_pos:
                continue
            # Candidate must precede (or be) the target.
            if ring.hop_distance(current_pos, cand) > ring.hop_distance(current_pos, target_pos):
                continue
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        for step in range(1, 7):
            cand = (current_pos + step) % ring.n_nodes
            if ring.hop_distance(current_pos, cand) > ring.hop_distance(current_pos, target_pos):
                break
            gap = ring.hop_distance(cand, target_pos)
            if best_gap is None or gap < best_gap:
                best_pos, best_gap = cand, gap
        if best_pos is None or best_pos == current_pos:
            break
        path.append(best_pos)
        if best_pos == target_pos:
            break
        current_pos = best_pos
    return path
