"""Tests for key pairs, signatures, certificates, the CA and revocation."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.ca import CertificateAuthority
from repro.crypto.certificates import Certificate, CertificateStore
from repro.crypto.keys import FAST, SCHNORR, KeyPair, Signature, verify
from repro.crypto.revocation import MerkleRevocationTree, RevocationList


class TestSchnorrSignatures:
    def test_sign_and_verify(self):
        kp = KeyPair(seed=1, mode=SCHNORR)
        sig = kp.sign(b"hello world")
        assert verify(kp.public_key, b"hello world", sig)

    def test_wrong_message_rejected(self):
        kp = KeyPair(seed=1, mode=SCHNORR)
        sig = kp.sign(b"hello")
        assert not verify(kp.public_key, b"goodbye", sig)

    def test_wrong_key_rejected(self):
        kp1 = KeyPair(seed=1, mode=SCHNORR)
        kp2 = KeyPair(seed=2, mode=SCHNORR)
        sig = kp1.sign(b"msg")
        assert not verify(kp2.public_key, b"msg", sig)

    def test_tampered_signature_rejected(self):
        kp = KeyPair(seed=3, mode=SCHNORR)
        sig = kp.sign(b"msg")
        tampered = Signature(c=sig.c, s=sig.s + 1, mode=sig.mode)
        assert not verify(kp.public_key, b"msg", tampered)

    def test_deterministic_signatures(self):
        kp = KeyPair(seed=4, mode=SCHNORR)
        assert kp.sign(b"x") == kp.sign(b"x")

    def test_non_bytes_message_rejected(self):
        kp = KeyPair(seed=5, mode=SCHNORR)
        with pytest.raises(TypeError):
            kp.sign("not-bytes")  # type: ignore[arg-type]

    @given(st.binary(min_size=0, max_size=200))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, message):
        kp = KeyPair(seed=99, mode=SCHNORR)
        assert verify(kp.public_key, message, kp.sign(message))


class TestFastSignatures:
    def test_sign_and_verify(self):
        kp = KeyPair(seed=1, mode=FAST)
        sig = kp.sign(b"payload")
        assert verify(kp.public_key, b"payload", sig)

    def test_wrong_message_rejected(self):
        kp = KeyPair(seed=1, mode=FAST)
        assert not verify(kp.public_key, b"other", kp.sign(b"payload"))

    def test_mode_mismatch_rejected(self):
        fast = KeyPair(seed=1, mode=FAST)
        schnorr = KeyPair(seed=1, mode=SCHNORR)
        sig = fast.sign(b"m")
        assert not verify(schnorr.public_key, b"m", sig)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            KeyPair(seed=1, mode="rsa")

    @given(st.binary(min_size=0, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, message):
        kp = KeyPair(seed=7, mode=FAST)
        assert verify(kp.public_key, message, kp.sign(message))

    @given(st.integers(min_value=0, max_value=2**40), st.binary(min_size=0, max_size=500))
    @settings(max_examples=100, deadline=None)
    def test_tag_is_hmac_sha256_keyed_on_the_public_value(self, seed, message):
        """The one-shot digest is bit for bit the tag ``hmac.new(...).digest()`` gave."""
        kp = KeyPair(seed=seed, mode=FAST)
        value = kp.public_key.value
        key = value.to_bytes(max(1, (value.bit_length() + 7) // 8), "big")
        tag = hmac.new(key, message, hashlib.sha256).digest()
        sig = kp.sign(message)
        assert (sig.c, sig.s, sig.mode) == (0, int.from_bytes(tag, "big"), FAST)
        assert kp.sign(bytearray(message)) == sig
        assert verify(kp.public_key, message, sig)
        assert verify(kp.public_key, bytearray(message), sig)
        # verification accepts exactly the tag: not a neighbour, not an over-long integer
        assert not verify(kp.public_key, message, Signature(c=0, s=sig.s ^ 1, mode=FAST))
        assert not verify(kp.public_key, message, Signature(c=0, s=sig.s + (1 << 256), mode=FAST))
        assert not verify(kp.public_key, message, Signature(c=0, s=-sig.s - 1, mode=FAST))

    def test_non_bytes_message_rejected(self):
        kp = KeyPair(seed=5, mode=FAST)
        with pytest.raises(TypeError):
            kp.sign("not-bytes")  # type: ignore[arg-type]
        assert not verify(kp.public_key, "not-bytes", kp.sign(b"not-bytes"))  # type: ignore[arg-type]


class TestCertificates:
    def test_issue_and_verify(self):
        ca = CertificateAuthority(seed=0)
        kp = KeyPair(seed=10)
        cert = ca.issue_certificate(42, "10.0.0.42", kp.public_key, now=0.0)
        assert cert.verify(ca.public_key, now=1.0)
        assert cert.node_id == 42

    def test_expired_certificate_rejected(self):
        ca = CertificateAuthority(seed=0, certificate_lifetime=100.0)
        kp = KeyPair(seed=10)
        cert = ca.issue_certificate(42, "10.0.0.42", kp.public_key, now=0.0)
        assert not cert.verify(ca.public_key, now=200.0)

    def test_forged_certificate_rejected(self):
        ca = CertificateAuthority(seed=0)
        other_ca = CertificateAuthority(seed=1)
        kp = KeyPair(seed=10)
        cert = ca.issue_certificate(42, "10.0.0.42", kp.public_key, now=0.0)
        assert not cert.verify(other_ca.public_key)

    def test_certificate_store(self):
        ca = CertificateAuthority(seed=0)
        store = CertificateStore(ca_public_key=ca.public_key)
        kp = KeyPair(seed=10)
        cert = ca.issue_certificate(1, "10.0.0.1", kp.public_key)
        assert store.add(cert)
        assert 1 in store
        assert store.get(1) is cert
        store.remove(1)
        assert 1 not in store

    def test_store_rejects_bad_certificate(self):
        ca = CertificateAuthority(seed=0)
        imposter = CertificateAuthority(seed=5)
        store = CertificateStore(ca_public_key=ca.public_key)
        kp = KeyPair(seed=10)
        bad = imposter.issue_certificate(1, "10.0.0.1", kp.public_key)
        assert not store.add(bad)
        assert len(store) == 0


class TestCertificateAuthority:
    def test_revocation(self):
        ca = CertificateAuthority(seed=0)
        kp = KeyPair(seed=1)
        ca.issue_certificate(7, "10.0.0.7", kp.public_key)
        assert ca.revoke(7)
        assert ca.is_revoked(7)
        assert not ca.revoke(7)  # idempotent

    def test_revoking_unknown_node_fails(self):
        ca = CertificateAuthority(seed=0)
        assert not ca.revoke(999)

    def test_workload_buckets(self):
        ca = CertificateAuthority(seed=0)
        ca.record_message(5.0, "report")
        ca.record_message(6.0, "proof")
        ca.record_message(25.0, "report")
        buckets = dict(ca.workload_buckets(bucket_seconds=10.0, horizon=30.0))
        assert buckets[0.0] == 2
        assert buckets[20.0] == 1

    def test_serials_increase(self):
        ca = CertificateAuthority(seed=0)
        kp = KeyPair(seed=1)
        c1 = ca.issue_certificate(1, "a", kp.public_key)
        c2 = ca.issue_certificate(2, "b", kp.public_key)
        assert c2.serial > c1.serial


class TestRevocationStructures:
    def test_crl_sign_and_verify(self):
        ca_kp = KeyPair(seed=0)
        crl = RevocationList()
        assert crl.verify(ca_kp.public_key)  # empty list verifies trivially
        crl.revoke(5, ca_kp)
        crl.revoke(9, ca_kp)
        assert crl.is_revoked(5)
        assert not crl.is_revoked(6)
        assert crl.verify(ca_kp.public_key)

    def test_crl_tamper_detected(self):
        ca_kp = KeyPair(seed=0)
        crl = RevocationList()
        crl.revoke(5, ca_kp)
        crl.revoked_serials.add(6)  # tamper without re-signing
        assert not crl.verify(ca_kp.public_key)

    def test_merkle_membership_proof(self):
        tree = MerkleRevocationTree([1, 5, 9, 12, 30])
        root = tree.root()
        proof = tree.prove(9)
        assert proof is not None
        assert MerkleRevocationTree.verify_proof(9, proof, root)

    def test_merkle_non_member_has_no_proof(self):
        tree = MerkleRevocationTree([1, 5, 9])
        assert tree.prove(7) is None

    def test_merkle_proof_fails_against_wrong_root(self):
        tree = MerkleRevocationTree([1, 5, 9, 12])
        proof = tree.prove(5)
        tree.add(99)
        assert not MerkleRevocationTree.verify_proof(5, proof, tree.root())
        assert MerkleRevocationTree.verify_proof(5, tree.prove(5), tree.root())

    @given(st.sets(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_merkle_all_members_provable(self, serials):
        tree = MerkleRevocationTree(sorted(serials))
        root = tree.root()
        for serial in serials:
            proof = tree.prove(serial)
            assert proof is not None
            assert MerkleRevocationTree.verify_proof(serial, proof, root)
