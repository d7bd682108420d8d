"""Lightweight ring model for large-scale anonymity estimation.

The anonymity analysis of Section 6 considers networks of 100,000 nodes — far
too many to instantiate full :class:`~repro.chord.node.ChordNode` objects for
a Monte-Carlo estimator that resamples thousands of lookups.  The
:class:`LightweightRing` keeps only what the probabilistic model needs:

* the sorted identifier list (node *positions* are indices into it),
* which positions are malicious,
* ground-truth greedy lookup paths (the adversary is conservatively granted
  perfect knowledge of routing state, which maximises the leak), and
* successor/hop-distance arithmetic expressed in positions, so "distance in
  number of hops" from the paper maps to index differences.

Both the anonymity estimators and the pre-simulation distribution builders
(:mod:`repro.anonymity.presimulation`) run on this model.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Set

from ..chord.idspace import IdSpace
from ..sim.kernel import FingerMatrix, greedy_path_positions
from ..sim.rng import RandomSource


class LightweightRing:
    """A positional view of a Chord ring for anonymity calculations.

    Parameters
    ----------
    n_nodes:
        Number of nodes.
    fraction_malicious:
        Fraction of nodes controlled by the adversary.
    seed:
        Seed for identifier placement and malicious-set sampling.
    id_bits:
        Identifier width; defaults to 40 bits which keeps 100k nodes sparse.
    finger_count:
        Fingers per node assumed in the greedy lookup model.  Defaults to the
        identifier width (as in Chord, where a node keeps one finger per bit;
        only ``log2 N`` of them are distinct).
    placement:
        Optional adversary placement strategy: a callable ``(sorted_ids,
        n_malicious, stream, space_size) -> positions`` choosing which ring
        positions the adversary corrupts (uniform random when ``None``).
        :mod:`repro.scenarios.adversary` supplies clustered-eclipse,
        join-leave and high-degree strategies through this hook.
    """

    def __init__(
        self,
        n_nodes: int,
        fraction_malicious: float = 0.2,
        seed: int = 0,
        id_bits: int = 40,
        finger_count: Optional[int] = None,
        placement=None,
    ) -> None:
        if n_nodes < 8:
            raise ValueError("the lightweight ring needs at least 8 nodes")
        if not 0.0 <= fraction_malicious <= 1.0:
            raise ValueError("fraction_malicious must be in [0, 1]")
        self._finger_matrix: Optional[FingerMatrix] = None
        self.n_nodes = n_nodes
        self.fraction_malicious = fraction_malicious
        self.space = IdSpace(bits=id_bits)
        self.rng = RandomSource(seed)

        id_stream = self.rng.stream("ids")
        ids: Set[int] = set()
        while len(ids) < n_nodes:
            ids.add(id_stream.randrange(self.space.size))
        self.ids: List[int] = sorted(ids)

        n_mal = int(round(fraction_malicious * n_nodes))
        if not n_mal:
            mal_positions: Sequence[int] = []
        elif placement is not None:
            mal_positions = list(
                placement(self.ids, n_mal, self.rng.stream("placement"), self.space.size)
            )
        else:
            mal_positions = self.rng.sample("malicious", range(n_nodes), n_mal)
        self.malicious: List[bool] = [False] * n_nodes
        for pos in mal_positions:
            self.malicious[pos % n_nodes] = True

        if finger_count is None:
            finger_count = self.space.bits
        self.finger_count = min(finger_count, self.space.bits)

    # ---------------------------------------------------------------- position
    def position_of_id(self, ident: int) -> int:
        """Index of the node owning identifier ``ident`` (its successor)."""
        pos = bisect.bisect_left(self.ids, ident % self.space.size)
        return pos % self.n_nodes

    def id_of(self, position: int) -> int:
        return self.ids[position % self.n_nodes]

    def is_malicious(self, position: int) -> bool:
        return self.malicious[position % self.n_nodes]

    def hop_distance(self, from_pos: int, to_pos: int) -> int:
        """Clockwise distance in *nodes* from one position to another."""
        return (to_pos - from_pos) % self.n_nodes

    def successor_position(self, key: int) -> int:
        return self.position_of_id(key)

    # ------------------------------------------------------------------ lookup
    def query_path_positions(self, initiator_pos: int, target_pos: int, max_hops: int = 64) -> List[int]:
        """Positions queried by a greedy lookup from initiator to target.

        The lookup uses correct fingers (``node + 2**i`` successors) and a
        successor list of six entries, mirroring the honest protocol; the
        returned list excludes the initiator and is ordered as queried.  The
        final queried node is the target's predecessor region, which is where
        the query density peaks — the property the range-estimation adversary
        exploits.
        """
        matrix = self._finger_matrix
        if matrix is None:
            matrix = FingerMatrix(self.ids, self.space.size, self.finger_count, self.space.bits)
            self._finger_matrix = matrix
        return greedy_path_positions(matrix, initiator_pos, target_pos, max_hops)

    # --------------------------------------------------------------- sampling
    def random_position(self, stream: str = "positions") -> int:
        return self.rng.stream(stream).randrange(self.n_nodes)

    def random_honest_position(self, stream: str = "positions") -> int:
        rng = self.rng.stream(stream)
        while True:
            pos = rng.randrange(self.n_nodes)
            if not self.malicious[pos]:
                return pos

    def honest_count(self) -> int:
        return self.n_nodes - sum(self.malicious)
