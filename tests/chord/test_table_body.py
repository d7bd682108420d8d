"""The version-cached table body against the uncached reference (``oracle.py``).

A node keeps one table body per ``(finger version, successor version)`` and
every snapshot signed from that version reads it.  Pinned here:

* after any interleaving of routing-state mutators and snapshot calls, what a
  snapshot exposes — fields, payload bytes, derived node lists, greedy next
  hop, bound-check verdict — equals what the oracle recomputes from the
  node's state at that moment;
* a version moves exactly when content does, so a no-op mutation keeps the
  body and a real one never leaves a stale body behind;
* bodies are immutable and shared: lists handed to callers are copies, and a
  snapshot taken earlier keeps describing the table as it was.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.node import ChordNode
from repro.chord.routing_table import BoundChecker
from repro.crypto.keys import verify

SPACE = IdSpace(bits=16)
OWNER = 1000
#: two parameter sets, so a memoised verdict of one cannot answer for the other
CHECKERS = (
    BoundChecker(SPACE, expected_network_size=8, tolerance_factor=2.0),
    BoundChecker(SPACE, expected_network_size=64, tolerance_factor=8.0),
)


def _node() -> ChordNode:
    return ChordNode(OWNER, SPACE, finger_count=6, successor_count=4, predecessor_count=4)


def assert_matches_oracle(oracle, node: ChordNode, now: float) -> None:
    snap = node.snapshot(now=now)
    assert (snap.owner_id, snap.fingers, snap.successors, snap.predecessors) == oracle.snapshot_fields(node)
    assert snap.timestamp == now
    assert snap.payload() == oracle.payload(snap)
    assert verify(node.keypair.public_key, oracle.payload(snap), snap.signature)
    assert snap.finger_nodes() == oracle.finger_nodes(snap)
    assert snap.all_nodes() == oracle.all_nodes(snap)
    for key in (0, OWNER, OWNER + 1, 9000, 33000, SPACE.size - 1):
        assert snap.closest_preceding(key, SPACE) == oracle.closest_preceding(snap, key, SPACE)
        excluded = set(snap.all_nodes()[:2])
        assert snap.closest_preceding(key, SPACE, exclude=excluded) == oracle.closest_preceding(
            snap, key, SPACE, exclude=excluded
        )
    for checker in CHECKERS:
        verdict = checker.check(snap)
        assert (verdict.passed, list(verdict.violations)) == oracle.check(checker, snap)

    signed = node.signed_successor_list(now=now, received_from=7)
    assert (signed.owner_id, signed.nodes, signed.timestamp, signed.received_from) == (
        OWNER, tuple(node.successor_list.nodes), now, 7,
    )
    assert signed.payload() == oracle.successor_list_payload(signed)
    assert verify(node.keypair.public_key, signed.payload(), signed.signature)


def _mutators(rng: random.Random, node: ChordNode):
    """``name -> thunk`` for one random application of every mutator."""
    fingers, succ = node.finger_table, node.successor_list
    # a small id pool makes repeats (no-op mutations) and evictions common
    pool = [OWNER] + [OWNER + step * 1500 for step in range(1, 30)]

    def pick():
        return rng.choice(pool) % SPACE.size

    def some():
        return [pick() for _ in range(rng.randrange(6))]

    def mutate_copies():
        # a copy is a table of its own: changing it must not reach the node
        finger_clone, succ_clone = fingers.copy(), succ.copy()
        finger_clone.set(rng.randrange(fingers.size), pick())
        succ_clone.replace_all(some())

    return {
        "set": lambda: fingers.set(rng.randrange(fingers.size), rng.choice([None, pick()])),
        "fill_from": lambda: fingers.fill_from(sorted(set(some() + [pick()]))),
        "fill_targets": lambda: fingers.fill_targets([rng.choice([None, pick()]) for _ in range(fingers.size)]),
        "replace_node": lambda: fingers.replace_node(pick(), rng.choice([None, pick()])),
        "add": lambda: succ.add(pick()),
        "update": lambda: succ.update(some()),
        "remove": lambda: succ.remove(pick()),
        "replace_all": lambda: succ.replace_all(rng.choice([some(), succ.nodes])),
        "clear": succ.clear,
        "copy": mutate_copies,
        "snapshot": lambda: node.snapshot(now=rng.random()),
        "signed_successor_list": lambda: node.signed_successor_list(now=rng.random()),
    }


@pytest.mark.parametrize("seed", range(12))
def test_random_interleavings_match_the_oracle(seed, table_oracle):
    rng = random.Random(seed)
    node = _node()
    seen = set()
    assert_matches_oracle(table_oracle, node, now=0.0)
    for step in range(150):
        mutators = _mutators(rng, node)
        name = rng.choice(sorted(mutators))
        seen.add(name)
        before = (node.finger_table.as_dict(), node.successor_list.nodes)
        versions = (node.finger_table.version, node.successor_list.version)
        body = node.snapshot().body
        mutators[name]()
        after = (node.finger_table.as_dict(), node.successor_list.nodes)
        # per table: the version moved exactly when the content did
        assert (node.finger_table.version != versions[0]) == (after[0] != before[0]), name
        assert (node.successor_list.version != versions[1]) == (after[1] != before[1]), name
        assert (node.snapshot().body is body) == (after == before), name
        assert_matches_oracle(table_oracle, node, now=step + rng.random())
    assert len(seen) == 12, "the walk is long enough to draw every operation"


def test_noop_mutations_keep_the_version_and_the_body():
    node = _node()
    node.finger_table.fill_from([2000, 9000, 40000])
    node.successor_list.update([2000, 3000])
    body = node.snapshot().body
    versions = (node.finger_table.version, node.successor_list.version)

    node.finger_table.set(0, node.finger_table.get(0))
    node.finger_table.fill_from([2000, 9000, 40000])
    node.finger_table.fill_targets(list(node.finger_table.as_dict().values()))
    assert node.finger_table.replace_node(5, 6) == 0
    assert node.finger_table.replace_node(9000, 9000) > 0
    assert not node.successor_list.add(2000)
    assert not node.successor_list.add(OWNER)
    assert node.successor_list.update([3000, 2000]) == 0
    assert not node.successor_list.remove(4242)
    node.successor_list.replace_all([3000, 2000])
    node.predecessor_list.clear()

    assert (node.finger_table.version, node.successor_list.version) == versions
    assert node.snapshot(now=3.0).body is body
    # the predecessor list is not part of the signed table
    node.predecessor_list.update([900, 800])
    assert node.snapshot(now=4.0).body is body


def test_every_reply_is_stamped_and_signed_on_its_own():
    node = _node()
    node.finger_table.fill_from([2000, 9000, 40000])
    node.successor_list.update([2000, 3000])
    first, second = node.snapshot(now=1.0), node.snapshot(now=2.0)
    assert first.body is second.body
    assert (first.timestamp, second.timestamp) == (1.0, 2.0)
    assert first.payload() != second.payload()
    assert first.signature != second.signature
    assert not verify(node.keypair.public_key, second.payload(), first.signature)

    lists = node.signed_successor_list(now=1.0), node.signed_successor_list(now=2.0)
    assert lists[0].prefix is lists[1].prefix
    assert lists[0].signature != lists[1].signature


def test_lists_handed_to_callers_are_copies(table_oracle):
    node = _node()
    node.finger_table.fill_from([2000, 9000, 40000])
    node.successor_list.update([2000, 3000])
    snap = node.snapshot()
    expected = (snap.finger_nodes(), snap.all_nodes())
    snap.finger_nodes().clear()
    snap.all_nodes().append(-1)
    snap.all_nodes().sort(reverse=True)
    again = node.snapshot()
    assert again.body is snap.body
    assert (again.finger_nodes(), again.all_nodes()) == expected
    assert_matches_oracle(table_oracle, node, now=1.0)


def test_an_earlier_snapshot_keeps_describing_the_table_as_it_was():
    node = _node()
    node.finger_table.fill_from([2000, 9000, 40000])
    node.successor_list.update([2000, 3000])
    old = node.snapshot(now=1.0)
    frozen = (old.fingers, old.successors, old.payload(), old.all_nodes(), CHECKERS[0].check(old))

    node.finger_table.set(5, 50000)
    node.successor_list.replace_all([1200])
    new = node.snapshot(now=1.0)

    assert new.body is not old.body
    assert new.payload() != old.payload()
    assert (old.fingers, old.successors, old.payload(), old.all_nodes(), CHECKERS[0].check(old)) == frozen
    assert verify(node.keypair.public_key, old.payload(), old.signature)


def test_a_copy_with_other_fields_does_not_inherit_the_body(table_oracle):
    node = _node()
    node.finger_table.fill_from([2000, 9000, 40000])
    node.successor_list.update([2000, 3000])
    snap = node.snapshot(now=1.0)
    CHECKERS[1].check(snap)
    edited = dataclasses.replace(snap, successors=(3000, 2000))
    assert edited.body is not snap.body
    assert edited.payload() == table_oracle.payload(edited) != snap.payload()
    verdict = CHECKERS[1].check(edited)
    assert (verdict.passed, list(verdict.violations)) == table_oracle.check(CHECKERS[1], edited)
    assert not verify(node.keypair.public_key, edited.payload(), edited.signature)

    signed = node.signed_successor_list(now=1.0)
    relisted = dataclasses.replace(signed, nodes=(3000,))
    assert relisted.payload() == table_oracle.successor_list_payload(relisted) != signed.payload()
