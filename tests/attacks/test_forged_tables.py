"""Forged routing tables share nothing with the honest table they start from.

An honest node keeps one table body per version of its routing state and
signs every reply from it (``tests/chord/test_table_body.py``).  The three
table-forging behaviours build their reply from their own fields, so it must
get a body, a payload and a bound-check verdict of its own: a verdict
remembered for the honest table never answers for forged content.
"""

from __future__ import annotations

import pytest

from repro.attacks.adversary import Adversary
from repro.attacks.fingertable_manipulation import FingertableManipulationBehavior
from repro.attacks.fingertable_pollution import FingertablePollutionBehavior
from repro.attacks.lookup_bias import LookupBiasBehavior
from repro.chord.routing_table import BoundChecker
from repro.crypto.keys import verify
from repro.sim.rng import RandomSource

#: behaviour -> (factory, the query purpose it forges for, the field it forges)
FORGERS = {
    "lookup-bias": (LookupBiasBehavior, "anonymous-lookup", "successors"),
    "fingertable-manipulation": (FingertableManipulationBehavior, "random-walk", "fingers"),
    "fingertable-pollution": (FingertablePollutionBehavior, "finger-update", "successors"),
}


@pytest.fixture(params=sorted(FORGERS))
def forging_ring(request, small_ring):
    factory, purpose, forged_field = FORGERS[request.param]
    adversary = Adversary(small_ring, RandomSource(9), attack_rate=1.0)
    adversary.install_behavior(factory)
    return small_ring, purpose, forged_field


def test_forged_table_has_its_own_body_payload_and_signature(forging_ring, table_oracle):
    ring, purpose, forged_field = forging_ring
    for node_id in ring.malicious_alive_ids():
        node = ring.node(node_id)
        honest = node.snapshot(now=2.0)
        forged = node.respond_routing_table(None, purpose=purpose, now=2.0)

        assert getattr(forged, forged_field) != getattr(honest, forged_field)
        assert forged.body is not honest.body
        assert node.snapshot(now=2.0).body is honest.body, "forging must not disturb the honest body"
        # the signed bytes are those of the forged entries, not the honest ones
        assert forged.payload() == table_oracle.payload(forged) != honest.payload()
        assert forged.all_nodes() == table_oracle.all_nodes(forged)
        assert verify(node.keypair.public_key, forged.payload(), forged.signature)
        assert not verify(node.keypair.public_key, forged.payload(), honest.signature)


def test_honest_verdict_never_answers_for_a_forged_table(forging_ring, table_oracle):
    ring, purpose, _ = forging_ring
    caught = 0
    for tolerance in (0.5, 1.0, 2.0, 4.0, 8.0):
        checker = BoundChecker(ring.space, expected_network_size=len(ring), tolerance_factor=tolerance)
        for node_id in ring.malicious_alive_ids():
            node = ring.node(node_id)
            honest_verdict = checker.check(node.snapshot(now=2.0))  # remembered on the honest body
            forged = node.respond_routing_table(None, purpose=purpose, now=2.0)
            expected_passed, expected_violations = table_oracle.check(checker, forged)
            verdict = checker.check(forged)
            assert (verdict.passed, list(verdict.violations)) == (expected_passed, expected_violations)
            caught += honest_verdict.passed and not expected_passed
    assert caught, "no forged table failed a check its honest original passed: the test shows nothing"


def test_forged_successor_lists_are_signed_over_their_own_nodes(small_ring, table_oracle):
    adversary = Adversary(small_ring, RandomSource(9), attack_rate=1.0)
    adversary.install_behavior(LookupBiasBehavior)
    for node_id in small_ring.malicious_alive_ids():
        node = small_ring.node(node_id)
        honest = node.signed_successor_list(now=2.0)
        forged = node.respond_successor_list(None, purpose="anonymous-lookup", now=2.0)
        assert forged.nodes != honest.nodes
        assert forged.payload() == table_oracle.successor_list_payload(forged) != honest.payload()
        assert verify(node.keypair.public_key, forged.payload(), forged.signature)
