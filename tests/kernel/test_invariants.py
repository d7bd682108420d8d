"""Property-based ring invariants under randomized churn interleavings.

Seeded ``random.Random`` sequences of join/leave/remove/lookup operations
drive both kernels (and pairs of full :class:`ChordRing` instances differing
only in kernel) through the same state trajectory, asserting at every step:

* alive/honest views stay sorted and identical between kernels,
* ``successor_of`` equals the first-alive-at-or-after-key oracle,
* ``finger[i]`` is the first alive node >= ``id + 2**i`` (with wraparound)
  immediately after a targeted rebuild,
* the array kernel's cached finger rows never go stale across arbitrary
  birth/death invalidation interleavings,
* the lightweight model's matrix path executor (numpy and pure-python)
  reproduces the reference loop's paths (``oracle.py``) hop-for-hop.
"""

from __future__ import annotations

import random

import pytest

from repro.anonymity.ring_model import LightweightRing
from repro.chord.ring import ChordRing, RingConfig
from repro.sim.kernel import FingerMatrix, greedy_path_positions, make_ring_kernel
from repro.sim.kernel import array_kernel as array_kernel_module
from repro.sim.rng import RandomSource

from oracle import loop_path_positions

SPACE_BITS = 12
SPACE_SIZE = 2 ** SPACE_BITS


def oracle_successor(alive_sorted, key, size=SPACE_SIZE):
    """First alive id at or clockwise-after ``key`` — the definition."""
    if not alive_sorted:
        return None
    k = key % size
    for nid in alive_sorted:
        if nid >= k:
            return nid
    return alive_sorted[0]


def make_population(rnd, n=60, fraction_malicious=0.25):
    ids = sorted(rnd.sample(range(SPACE_SIZE), n))
    malicious = set(rnd.sample(ids, int(round(fraction_malicious * n))))
    return ids, malicious


def assert_kernels_agree(kern_o, kern_a, ids, rnd):
    alive_o = kern_o.alive_ids()
    assert alive_o == kern_a.alive_ids()
    assert alive_o == sorted(alive_o)
    assert kern_o.honest_alive_ids() == kern_a.honest_alive_ids()
    assert kern_o.alive_count() == kern_a.alive_count() == len(alive_o)
    assert kern_o.fraction_malicious_alive() == kern_a.fraction_malicious_alive()
    assert kern_o.remaining_malicious_fraction() == kern_a.remaining_malicious_fraction()
    for _ in range(8):
        key = rnd.randrange(SPACE_SIZE)
        expected = oracle_successor(alive_o, key)
        assert kern_o.successor_of(key) == expected
        assert kern_a.successor_of(key) == expected
    for nid in rnd.sample(ids, 6):
        assert kern_o.is_alive(nid) == kern_a.is_alive(nid)


@pytest.mark.parametrize("seed", range(5))
def test_kernel_equivalence_under_random_interleavings(seed):
    """Both kernels traverse identical state for any churn interleaving."""
    rnd = random.Random(seed)
    ids, malicious = make_population(rnd)
    kern_o = make_ring_kernel("object", SPACE_SIZE)
    kern_a = make_ring_kernel("array", SPACE_SIZE)
    kern_o.load(ids, malicious)
    kern_a.load(ids, malicious)

    dead = set()
    removed = set()
    for _ in range(120):
        op = rnd.random()
        if op < 0.35 and len(dead) < len(ids) - 2:
            victim = rnd.choice([nid for nid in ids if nid not in dead])
            dead.add(victim)
            kern_o.set_alive(victim, False)
            kern_a.set_alive(victim, False)
        elif op < 0.65 and dead:
            reborn = rnd.choice(sorted(dead))
            dead.discard(reborn)
            kern_o.set_alive(reborn, True)
            kern_a.set_alive(reborn, True)
        elif op < 0.75:
            victim = rnd.choice(ids)
            removed.add(victim)
            kern_o.set_removed(victim)
            kern_a.set_removed(victim)
        else:
            # Resolve a finger row on both kernels and check it against the
            # oracle; exercises the array kernel's cache between churn ops.
            owner = rnd.choice(ids)
            ideals = [
                (owner + (1 << i)) % SPACE_SIZE
                for i in range(SPACE_BITS - 8, SPACE_BITS)
            ]
            row_o = kern_o.resolve_fingers(owner, ideals)
            row_a = kern_a.resolve_fingers(owner, ideals)
            alive = kern_o.alive_ids()
            assert row_o == row_a == [oracle_successor(alive, ideal) for ideal in ideals]
        assert_kernels_agree(kern_o, kern_a, ids, rnd)


@pytest.mark.parametrize("seed", range(3))
def test_cached_finger_rows_never_stale(seed):
    """The invalidation rules: every cache hit equals a fresh resolution.

    Resolves rows for *every* owner, then churns; any under-invalidation
    (a row kept despite a birth in its (pred, x] interval or a death of a
    resolved target) would surface as a stale cached value here.
    """
    rnd = random.Random(1000 + seed)
    ids, malicious = make_population(rnd, n=40)
    kern = make_ring_kernel("array", SPACE_SIZE)
    kern.load(ids, malicious)
    ideals_of = {
        owner: [(owner + (1 << i)) % SPACE_SIZE for i in range(SPACE_BITS)]
        for owner in ids
    }

    dead = set()
    for _ in range(60):
        for owner in ids:  # populate / refresh rows for every owner
            kern.resolve_fingers(owner, ideals_of[owner])
        assert kern.finger_cache_size() == len(ids)
        if rnd.random() < 0.5 and len(dead) < len(ids) - 2:
            victim = rnd.choice([nid for nid in ids if nid not in dead])
            dead.add(victim)
            kern.set_alive(victim, False)
        elif dead:
            reborn = rnd.choice(sorted(dead))
            dead.discard(reborn)
            kern.set_alive(reborn, True)
        alive = kern.alive_ids()
        for owner in ids:
            row = kern.resolve_fingers(owner, ideals_of[owner])
            assert row == [oracle_successor(alive, ideal) for ideal in ideals_of[owner]], (
                f"stale cached finger row for owner {owner}"
            )


def test_finger_cache_cap_drops_wholesale(monkeypatch):
    """Overflowing the row cap drops the cache; results stay correct."""
    monkeypatch.setattr(array_kernel_module, "_FINGER_CACHE_MAX_ROWS", 4)
    rnd = random.Random(7)
    ids, malicious = make_population(rnd, n=20)
    kern = make_ring_kernel("array", SPACE_SIZE)
    kern.load(ids, malicious)
    alive = kern.alive_ids()
    for owner in ids:
        ideals = [(owner + (1 << i)) % SPACE_SIZE for i in range(4)]
        row = kern.resolve_fingers(owner, ideals)
        assert row == [oracle_successor(alive, ideal) for ideal in ideals]
        assert kern.finger_cache_size() <= 4


@pytest.mark.parametrize("seed", range(3))
def test_ring_pair_identical_under_churn(seed):
    """Full ChordRing pairs (object vs array) stay identical through churn,
    and every targeted rebuild restores the finger definition."""
    rings = {}
    for kernel in ("object", "array"):
        config = RingConfig(
            n_nodes=48,
            fraction_malicious=0.25,
            finger_count=10,
            id_bits=16,
            seed=seed,
            kernel=kernel,
        )
        rings[kernel] = ChordRing.build(config=config, rng=RandomSource(seed))
    ring_o, ring_a = rings["object"], rings["array"]
    assert ring_o.all_ids() == ring_a.all_ids()
    ids = ring_o.all_ids()
    size = ring_o.space.size

    rnd = random.Random(5000 + seed)
    dead = set()
    removed = set()
    for _ in range(80):
        op = rnd.random()
        if op < 0.30 and len(dead) < len(ids) - 4:
            victim = rnd.choice([nid for nid in ids if nid not in dead])
            dead.add(victim)
            ring_o.mark_dead(victim)
            ring_a.mark_dead(victim)
        elif op < 0.60 and dead:
            reborn = rnd.choice(sorted(dead))
            ring_o.mark_alive(reborn)
            ring_a.mark_alive(reborn)
            if reborn in removed:
                # Revoked nodes cannot rejoin: mark_alive must be a no-op.
                assert not ring_o.node(reborn).alive
                assert not ring_a.node(reborn).alive
            else:
                dead.discard(reborn)
                # Finger definition check right after the targeted rebuild:
                # finger[i] = first alive node >= ideal (with wraparound).
                alive = ring_o.alive_ids_sorted()
                for entry in ring_a.node(reborn).finger_table.entries:
                    expected = next(
                        (nid for nid in alive if nid >= entry.ideal_id), alive[0]
                    )
                    assert entry.node_id == expected
                    assert ring_o.node(reborn).finger_table.get(entry.index) == expected
        elif op < 0.72:
            victim = rnd.choice(ids)
            ring_o.remove_permanently(victim)
            ring_a.remove_permanently(victim)
            dead.add(victim)
            removed.add(victim)
        elif op < 0.82:
            # Mid-run allegiance flips (adaptive-adversary compromise).
            target = rnd.choice(ids)
            flag = rnd.random() < 0.6
            assert ring_o.set_malicious(target, flag) == ring_a.set_malicious(target, flag)

        assert ring_o.alive_ids_sorted() == ring_a.alive_ids_sorted()
        assert ring_o.honest_ids() == ring_a.honest_ids()
        assert ring_o.fraction_malicious_alive() == ring_a.fraction_malicious_alive()
        assert ring_o.remaining_malicious_fraction() == ring_a.remaining_malicious_fraction()
        key = rnd.randrange(size)
        succ = ring_o.true_successor(key)
        assert succ == ring_a.true_successor(key)
        assert succ == oracle_successor(ring_o.alive_ids_sorted(), key, size=size)

    # End-state routing tables agree node-for-node.
    for nid in ids:
        node_o, node_a = ring_o.node(nid), ring_a.node(nid)
        assert node_o.alive == node_a.alive
        assert node_o.finger_table.as_dict() == node_a.finger_table.as_dict()


@pytest.mark.parametrize("seed", range(3))
def test_lightweight_paths_identical(seed):
    """Matrix-driven greedy paths == the reference loop, pair for pair."""
    ring = LightweightRing(n_nodes=200, fraction_malicious=0.2, seed=seed)

    rnd = random.Random(9000 + seed)
    pairs = [(rnd.randrange(200), rnd.randrange(200)) for _ in range(40)]
    loop_paths = [loop_path_positions(ring, i, t) for i, t in pairs]
    assert loop_paths == [ring.query_path_positions(i, t) for i, t in pairs]

    # The pure-python matrix (no numpy) must agree hop-for-hop too.
    matrix = FingerMatrix(
        ring.ids, ring.space.size, ring.finger_count, ring.space.bits, use_numpy=False
    )
    assert matrix._matrix is None
    assert loop_paths == [greedy_path_positions(matrix, i, t) for i, t in pairs]


def test_finger_matrix_numpy_and_python_rows_agree():
    numpy = pytest.importorskip("numpy")
    del numpy
    ring = LightweightRing(n_nodes=150, fraction_malicious=0.2, seed=2)
    vec = FingerMatrix(ring.ids, ring.space.size, ring.finger_count, ring.space.bits, use_numpy=True)
    plain = FingerMatrix(ring.ids, ring.space.size, ring.finger_count, ring.space.bits, use_numpy=False)
    for pos in range(0, 150, 7):
        assert vec.row(pos) == plain.row(pos)
