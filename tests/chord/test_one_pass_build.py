"""The array-speed ring substrate against the code it replaced (``oracle.py``).

Three pieces of ``repro.chord`` were rewritten to do once what they did per
element, and each is held here to the old code, kept verbatim in the oracle:

* ``NeighborList``: ``replace_all`` sorts once and ``_insert`` places one id by
  bisect, where every insert used to append and re-sort the whole list;
* ``IdSpace.in_interval``: two modular subtractions, where it used to
  normalise three arguments and compare endpoints before distances;
* ``ChordRing.rebuild_routing_state``: a full build is one pass over the
  sorted alive ids with neighbours sliced out of the doubled list, where it
  used to locate every node by bisect and collect neighbours in a loop.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import ChordRing, RingConfig
from repro.chord.successor_list import NeighborList
from repro.sim.kernel import KERNELS

SPACE = IdSpace(bits=8)
OWNER = 200


# ------------------------------------------------------------ neighbor lists
def _candidates(rng: random.Random, n: int) -> list:
    """Unsorted ids from a small pool: duplicates, the owner, and ids one
    turn of the ring apart (equal distance) all turn up."""
    pool = list(range(180, 230)) + [OWNER, OWNER + SPACE.size, 190 + SPACE.size, 210 - SPACE.size]
    return [rng.choice(pool) for _ in range(n)]


@pytest.mark.parametrize("direction", [+1, -1])
@pytest.mark.parametrize("capacity", [1, 3, 6])
@pytest.mark.parametrize("seed", range(8))
def test_neighbor_list_mutators_equal_insert_one_at_a_time(table_oracle, seed, capacity, direction):
    rng = random.Random(seed * 100 + capacity * 10 + direction)
    shipped = NeighborList(OWNER, SPACE, capacity, direction)
    reference = NeighborList(OWNER, SPACE, capacity, direction)
    for step in range(120):
        op = rng.choice(["replace_all", "replace_all", "add", "update", "remove", "clear", "same"])
        if op == "replace_all":
            ids = _candidates(rng, rng.randrange(0, 3 * capacity + 2))
            shipped.replace_all(ids)
            table_oracle.neighbor_replace_all(reference, ids)
        elif op == "same":  # the list it already holds: content and version stay
            ids = shipped.nodes
            shipped.replace_all(ids)
            table_oracle.neighbor_replace_all(reference, ids)
        elif op == "add":
            nid = rng.choice(_candidates(rng, 1))
            assert shipped.add(nid) == table_oracle.neighbor_add(reference, nid)
        elif op == "update":
            ids = _candidates(rng, rng.randrange(0, 2 * capacity + 2))
            assert shipped.update(ids) == table_oracle.neighbor_update(reference, ids)
        elif op == "remove":
            nid = rng.choice(shipped.nodes or [OWNER])
            assert shipped.remove(nid) == reference.remove(nid)
        else:
            shipped.clear()
            reference.clear()
        assert shipped.nodes == reference.nodes, (step, op)
        assert shipped.version == reference.version, (step, op)
        assert len(shipped) <= capacity and OWNER not in shipped


def test_replace_all_takes_any_iterable_once(table_oracle):
    """A generator argument is consumed once and gives the same list."""
    shipped = NeighborList(OWNER, SPACE, 4, +1)
    reference = NeighborList(OWNER, SPACE, 4, +1)
    ids = [230, 201, 201, OWNER, 250, 205, 203]
    shipped.replace_all(nid for nid in ids)
    table_oracle.neighbor_replace_all(reference, ids)
    assert shipped.nodes == reference.nodes == [201, 203, 205, 230]


# ----------------------------------------------------------------- intervals
def test_in_interval_equals_oracle_exhaustively_on_four_bits(table_oracle):
    space = IdSpace(bits=4)
    flags = list(itertools.product([False, True], repeat=2))
    for ident, start, end in itertools.product(range(space.size), repeat=3):
        for inc_start, inc_end in flags:
            assert space.in_interval(ident, start, end, inc_start, inc_end) == table_oracle.in_interval(
                space, ident, start, end, inc_start, inc_end
            ), (ident, start, end, inc_start, inc_end)


def test_in_interval_equals_oracle_outside_the_space(table_oracle):
    """Arguments are taken modulo the space: negative and over-large ones too."""
    space = IdSpace(bits=4)
    outside = [-33, -16, -1, 0, 5, 15, 16, 17, 31, 32, 1 << 70, -(1 << 70) + 3]
    for ident, start, end in itertools.product(outside, repeat=3):
        for inc_start, inc_end in itertools.product([False, True], repeat=2):
            assert space.in_interval(ident, start, end, inc_start, inc_end) == table_oracle.in_interval(
                space, ident, start, end, inc_start, inc_end
            ), (ident, start, end, inc_start, inc_end)


def test_size_is_computed_once_and_not_a_field():
    space = IdSpace(bits=10)
    assert space.size == 1024 and vars(space)["size"] == 1024
    assert space == IdSpace(bits=10) and hash(space) == hash(IdSpace(bits=10))
    assert repr(space) == "IdSpace(bits=10)"


# ---------------------------------------------------------------- ring build
def _routing_state(ring: ChordRing) -> dict:
    return {
        nid: (
            node.finger_table.pairs(), node.finger_table.version,
            node.successor_list.nodes, node.successor_list.version,
            node.predecessor_list.nodes, node.predecessor_list.version,
        )
        for nid, node in ring.nodes.items()
    }


def _config(n: int, successors: int, predecessors: int, kernel: str) -> RingConfig:
    return RingConfig(
        n_nodes=n, fraction_malicious=0.0, finger_count=6, id_bits=12, seed=n,
        successor_count=successors, predecessor_count=predecessors, kernel=kernel,
    )


def _per_node_build(monkeypatch, table_oracle, config: RingConfig) -> ChordRing:
    """The same ring with every (re)build done by the oracle's per-node code."""
    with monkeypatch.context() as patch:
        patch.setattr(ChordRing, "rebuild_routing_state", table_oracle.rebuild_routing_state)
        return ChordRing.build(config)


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 13, 50])
def test_one_pass_build_equals_per_node_build(monkeypatch, table_oracle, n, kernel):
    # list capacities below, at and above N - 1: the wrap-around and the
    # "ring smaller than the list" cases, asymmetric so the two directions
    # cannot stand in for each other
    capacities = sorted({1, 2, max(1, n - 2), max(1, n - 1), n, n + 3})
    for successors, predecessors in itertools.product(capacities, repeat=2):
        config = _config(n, successors, predecessors, kernel)
        shipped = ChordRing.build(config)
        reference = _per_node_build(monkeypatch, table_oracle, config)
        assert _routing_state(shipped) == _routing_state(reference)
        for node in shipped.nodes.values():
            assert len(node.successor_list) == min(successors, n - 1)
            assert len(node.predecessor_list) == min(predecessors, n - 1)

        # building again over correct state changes nothing, versions included
        before = _routing_state(shipped)
        shipped.rebuild_routing_state()
        assert _routing_state(shipped) == before


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n", [3, 7, 50])
def test_rebuilds_after_churn_equal_per_node_rebuilds(monkeypatch, table_oracle, n, kernel):
    config = _config(n, 4, 9, kernel)
    shipped = ChordRing.build(config)
    reference = _per_node_build(monkeypatch, table_oracle, config)
    resolved = []
    resolve = shipped.kernel.resolve_fingers

    def spy(owner, ideals):
        resolved.append(owner)
        return resolve(owner, ideals)

    monkeypatch.setattr(shipped.kernel, "resolve_fingers", spy)

    rng = random.Random(n)
    ids = shipped.all_ids()
    departed = rng.sample(ids, max(1, n // 3))
    for nid in departed:
        shipped.mark_dead(nid)
        reference.mark_dead(nid)
    rejoined = departed[: max(1, len(departed) // 2)]
    for nid in rejoined:
        shipped.mark_alive(nid)
        with monkeypatch.context() as patch:
            patch.setattr(ChordRing, "rebuild_routing_state", table_oracle.rebuild_routing_state)
            reference.mark_alive(nid)
    assert resolved == rejoined, "a targeted rebuild resolves fingers through the kernel"
    assert _routing_state(shipped) == _routing_state(reference)

    # a full rebuild with nodes still away touches the alive ones only
    shipped.rebuild_routing_state()
    table_oracle.rebuild_routing_state(reference)
    assert resolved == rejoined, "a full rebuild fills fingers from the alive view"
    assert _routing_state(shipped) == _routing_state(reference)


@pytest.mark.parametrize("n", [1, 2, 5, 13])
def test_neighbors_equal_membership_loop(table_oracle, n):
    """``_neighbors`` also serves reseeding and the oracle path: alive, dead
    and unknown ids, any count, both directions."""
    ring = ChordRing.build(_config(n, 3, 3, "array"))
    ids = ring.all_ids()
    if n > 2:
        ring.mark_dead(ids[0])
        ring.mark_dead(ids[-1])
    alive = ring.alive_ids_sorted()
    for node_id in ids + [ids[0] + 1, ring.space.size - 1]:
        for direction, count in itertools.product([+1, -1], [1, 2, n - 1, n, n + 4]):
            assert ring._neighbors(node_id, alive, direction, count) == table_oracle.neighbors(
                ring, node_id, alive, direction, count
            ), (node_id, direction, count)
