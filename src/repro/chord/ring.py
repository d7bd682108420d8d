"""Ring construction and global network view.

:class:`ChordRing` is the simulator's view of the whole network: it owns every
:class:`~repro.chord.node.ChordNode`, knows the ground-truth key ownership
(used to score lookup correctness), assigns the malicious subset, and handles
joins and departures.  Protocol code never reads ground truth; it only ever
talks to nodes through their response behaviours, so the ring is purely the
experimental scaffolding the paper's C++ simulator also had.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

from ..crypto.ca import CertificateAuthority
from ..crypto.keys import FAST
from ..sim.kernel import DEFAULT_KERNEL, make_ring_kernel
from ..sim.rng import RandomSource
from .idspace import IdSpace
from .node import ChordNode


@dataclass
class RingConfig:
    """Parameters controlling ring construction.

    Defaults follow Section 5.1 of the paper (N=1000 security experiments):
    12 fingers, 6 successors, 6 predecessors, 20% malicious nodes.

    ``kernel`` selects the membership-state backend (see
    :mod:`repro.sim.kernel`): ``"array"``, the default, maintains flat sorted
    arrays incrementally (ground truth is a bisect or a cached list at any
    size); ``"object"`` is the O(N)-scan reference.  Observationally identical.
    """

    n_nodes: int = 1000
    fraction_malicious: float = 0.2
    finger_count: int = 12
    successor_count: int = 6
    predecessor_count: int = 6
    id_bits: int = 32
    key_mode: str = FAST
    seed: int = 0
    kernel: str = DEFAULT_KERNEL


class ChordRing:
    """The global network: all nodes, ground truth, joins and departures."""

    def __init__(self, space: IdSpace, config: Optional[RingConfig] = None, ca: Optional[CertificateAuthority] = None) -> None:
        self.space = space
        self.config = config or RingConfig(id_bits=space.bits)
        self.ca = ca
        self.nodes: Dict[int, ChordNode] = {}
        self._sorted_ids: List[int] = []
        self.malicious_ids: Set[int] = set()
        self.removed_ids: Set[int] = set()
        self.kernel = make_ring_kernel(self.config.kernel, space_size=space.size)

    # ------------------------------------------------------------ construction
    @classmethod
    def build(
        cls,
        config: Optional[RingConfig] = None,
        rng: Optional[RandomSource] = None,
        ca: Optional[CertificateAuthority] = None,
        placement=None,
    ) -> "ChordRing":
        """Build a fully-populated ring with correct routing state.

        Node identifiers are drawn uniformly at random from the identifier
        space; the malicious subset is a uniform sample of the requested
        fraction, unless ``placement`` — a callable ``(sorted_ids,
        n_malicious, stream, space_size) -> positions`` (indices into
        ``sorted_ids``) — chooses it instead.  Non-uniform adversary
        placements (ID-clustered eclipse regions, high-degree targeting)
        from :mod:`repro.scenarios.adversary` plug in here; the ring itself
        stays strategy-agnostic.  Every node's finger table, successor list
        and predecessor list are initialised to their *correct* values,
        after which churn and stabilization (and attacks) take over.
        """
        config = config or RingConfig()
        rng = rng or RandomSource(config.seed)
        space = IdSpace(bits=config.id_bits)
        ring = cls(space, config=config, ca=ca)

        id_stream = rng.stream("ring-ids")
        ids: Set[int] = set()
        while len(ids) < config.n_nodes:
            ids.add(id_stream.randrange(space.size))
        sorted_ids = sorted(ids)

        n_malicious = int(round(config.fraction_malicious * config.n_nodes))
        if not n_malicious:
            malicious: Set[int] = set()
        elif placement is not None:
            positions = placement(sorted_ids, n_malicious, rng.stream("placement"), space.size)
            malicious = {sorted_ids[pos % config.n_nodes] for pos in positions}
        else:
            malicious = set(rng.sample("ring-malicious", sorted_ids, n_malicious))

        for node_id in sorted_ids:
            node = ChordNode(
                node_id,
                space,
                finger_count=config.finger_count,
                successor_count=config.successor_count,
                predecessor_count=config.predecessor_count,
                malicious=node_id in malicious,
                key_mode=config.key_mode,
            )
            if ca is not None:
                node.certificate = ca.issue_certificate(node_id, node.ip_address, node.keypair.public_key)
            ring.nodes[node_id] = node

        ring._sorted_ids = sorted_ids
        ring.malicious_ids = malicious
        ring.kernel.load(sorted_ids, malicious)
        ring.rebuild_routing_state()
        return ring

    def rebuild_routing_state(self, node_ids: Optional[Iterable[int]] = None) -> None:
        """(Re)initialise routing state of the given nodes from ground truth.

        A full rebuild (``node_ids=None``, ring construction) is one pass over
        the sorted alive ids: a node's position is its loop index, its fingers
        are filled from the alive view, its successors and predecessors are
        slices of the doubled id list.  Targeted rebuilds (churn rejoins) find
        each node by bisect and go through the kernel's ``resolve_fingers``,
        which the array kernel caches per owner and invalidates on churn.
        """
        alive_sorted = self.kernel.alive_ids_view()
        n = len(alive_sorted)
        if not n:
            return
        if node_ids is None:
            doubled = alive_sorted + alive_sorted
            for pos, node_id in enumerate(alive_sorted):
                node = self.nodes[node_id]
                node.finger_table.fill_from(alive_sorted)
                successors, predecessors = node.successor_list, node.predecessor_list
                successors.replace_all(doubled[pos + 1 : pos + 1 + min(successors.capacity, n - 1)])
                before = n + pos - 1  # the same position in the second copy, minus one
                predecessors.replace_all(doubled[before : before - min(predecessors.capacity, n - 1) : -1])
            return
        for node_id in node_ids:
            node = self.nodes.get(node_id)
            if node is None or not node.alive:
                continue
            ideals = node.finger_table.ideal_ids()
            node.finger_table.fill_targets(self.kernel.resolve_fingers(node_id, ideals))
            node.successor_list.replace_all(self._neighbors(node_id, alive_sorted, +1, node.successor_list.capacity))
            node.predecessor_list.replace_all(self._neighbors(node_id, alive_sorted, -1, node.predecessor_list.capacity))

    def _neighbors(self, node_id: int, alive_sorted: Sequence[int], direction: int, count: int) -> List[int]:
        """Up to ``count`` alive ids after (``+1``) or before (``-1``) ``node_id``, nearest first."""
        n = len(alive_sorted)
        if node_id not in self.nodes or n <= 1:
            return []
        pos = bisect.bisect_left(alive_sorted, node_id)
        others = n - 1 if pos < n and alive_sorted[pos] == node_id else n  # not the node itself
        return [alive_sorted[(pos + direction * step) % n] for step in range(1, min(count, others) + 1)]

    # --------------------------------------------------------------- accessors
    def node(self, node_id: int) -> ChordNode:
        return self.nodes[node_id]

    def get(self, node_id: int) -> Optional[ChordNode]:
        return self.nodes.get(node_id)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def all_ids(self) -> List[int]:
        return list(self._sorted_ids)

    def alive_ids_sorted(self) -> List[int]:
        return self.kernel.alive_ids()

    def alive_nodes(self) -> List[ChordNode]:
        return [self.nodes[nid] for nid in self.kernel.alive_ids_view()]

    def honest_ids(self, alive_only: bool = True) -> List[int]:
        if alive_only:
            return self.kernel.honest_alive_ids()
        return [nid for nid in self._sorted_ids if nid not in self.malicious_ids]

    def malicious_alive_ids(self) -> List[int]:
        return [nid for nid in self.malicious_ids if nid in self.nodes and self.nodes[nid].alive]

    def is_malicious(self, node_id: int) -> bool:
        return node_id in self.malicious_ids

    def fraction_malicious_alive(self) -> float:
        """Fraction of alive nodes that are malicious (the Figure 3/4/9 metric)."""
        return self.kernel.fraction_malicious_alive()

    # ------------------------------------------------------------- ground truth
    def true_successor(self, key: int) -> Optional[int]:
        """Ground-truth owner of ``key`` (first alive node at or after the key)."""
        return self.kernel.successor_of(key)

    def owner_of(self, key: int) -> Optional[int]:
        """Alias for :meth:`true_successor` (Chord key ownership)."""
        return self.true_successor(key)

    # ----------------------------------------------------------- churn / removal
    def mark_dead(self, node_id: int) -> None:
        """A node departs (churn); its state is kept for when it rejoins."""
        node = self.nodes.get(node_id)
        if node is not None:
            node.alive = False
            self.kernel.set_alive(node_id, False)

    def mark_alive(self, node_id: int, rebuild_state: bool = True, now: float = 0.0) -> None:
        """A churned node rejoins (fresh routing state, as in the paper's model).

        Permanently removed nodes cannot rejoin: their certificate is revoked,
        so every honest peer rejects the join.  Without this guard a revoked
        node cycling through churn would silently regain standing.
        """
        node = self.nodes.get(node_id)
        if node is None or node_id in self.removed_ids:
            return
        node.alive = True
        node.last_join_time = now
        self.kernel.set_alive(node_id, True)
        if rebuild_state:
            self.rebuild_routing_state([node_id])

    def remove_permanently(self, node_id: int) -> None:
        """Eject a node whose certificate the CA revoked."""
        node = self.nodes.get(node_id)
        if node is None:
            return
        node.alive = False
        self.kernel.set_alive(node_id, False)
        self.removed_ids.add(node_id)
        self.kernel.set_removed(node_id)
        # The node stays in ``malicious_ids`` so metrics can distinguish
        # "was malicious and got removed" from "honest"; fraction metrics use
        # alive status and ``removed_ids``.

    def remaining_malicious_fraction(self) -> float:
        """Fraction of the *current* network that is malicious and not yet removed."""
        return self.kernel.remaining_malicious_fraction()

    # ------------------------------------------------------ mid-run compromise
    def set_malicious(self, node_id: int, malicious: bool = True) -> bool:
        """Flip a node's ground-truth allegiance mid-run.

        Adaptive adversary controllers compromise fresh nodes after revocation
        (or release control for ablations).  Updates the ground-truth set, the
        node object, and the kernel in lockstep; routing state is untouched —
        compromise does not move the node on the ring.  Removed nodes cannot
        be compromised (their certificate is already revoked).  Returns
        whether the flag actually changed.
        """
        node = self.nodes.get(node_id)
        if node is None or node_id in self.removed_ids:
            return False
        if (node_id in self.malicious_ids) == malicious:
            return False
        node.malicious = malicious
        if malicious:
            self.malicious_ids.add(node_id)
        else:
            self.malicious_ids.discard(node_id)
        self.kernel.set_malicious(node_id, malicious)
        return True

    # --------------------------------------------------------------- sampling
    def random_alive_id(self, rng, exclude: Optional[Set[int]] = None) -> Optional[int]:
        """A uniformly random alive node id (optionally excluding a set)."""
        if exclude:
            candidates = [nid for nid in self.kernel.alive_ids_view() if nid not in exclude]
        else:
            candidates = self.kernel.alive_ids_view()
        if not candidates:
            return None
        return rng.choice(candidates)

    def random_key(self, rng) -> int:
        """A uniformly random lookup key."""
        return rng.randrange(self.space.size)
