"""Key pairs for node identities.

The paper uses ECDSA keys bound to node identities through CA-issued
certificates.  This module implements a self-contained Schnorr-style
signature scheme over a multiplicative prime group (no external crypto
dependency is available offline).  Two modes are provided:

* ``"schnorr"`` — a real discrete-log signature scheme (secure under the
  usual assumptions for the chosen group size); used in unit tests and the
  cryptographic examples.
* ``"fast"`` — an HMAC-based simulation signature in which verification is
  keyed on the *public* key.  It is **not** a real signature scheme (anyone
  holding the public key could forge), but it preserves the interface,
  determinism and message sizes, and is orders of magnitude faster.  The
  large-scale simulations use this mode, exactly as the paper's C++ simulator
  models signatures without actually computing ECDSA.

Both modes share the :class:`KeyPair` / :class:`PublicKey` interface so the
protocol code never needs to know which is in use.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

# A 1536-bit MODP group (RFC 3526 group 5).  q = (p - 1) / 2 is prime, and we
# sign in the order-q subgroup generated by g = 4.
_MODP_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA237327FFFFFFFFFFFFFFFF",
    16,
)
_MODP_Q = (_MODP_P - 1) // 2
_MODP_G = 4

SCHNORR = "schnorr"
FAST = "fast"


def _hash_to_int(*parts: bytes) -> int:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(4, "big"))
        h.update(part)
    return int.from_bytes(h.digest(), "big")


def _int_bytes(x: int) -> bytes:
    length = max(1, (x.bit_length() + 7) // 8)
    return x.to_bytes(length, "big")


@dataclass(frozen=True)
class PublicKey:
    """A node's public key.

    ``value`` is the group element ``g^x mod p`` in Schnorr mode, or a hash of
    the secret in fast mode.  ``mode`` records which scheme produced it.
    """

    value: int
    mode: str = SCHNORR

    def fingerprint(self) -> str:
        """Short hex fingerprint used in certificates and logs."""
        return hashlib.sha256(f"{self.mode}:{self.value}".encode()).hexdigest()[:40]

    def to_bytes(self) -> bytes:
        return f"{self.mode}:{self.value}".encode()

    @cached_property
    def mac_key(self) -> bytes:
        """The HMAC key of fast mode (``value`` as bytes), computed once per key."""
        return _int_bytes(self.value)


@dataclass(frozen=True)
class Signature:
    """A signature over a message.

    In Schnorr mode ``(c, s)`` are the challenge and response; in fast mode
    ``s`` carries the HMAC tag and ``c`` is zero.
    """

    c: int
    s: int
    mode: str = SCHNORR

    def to_bytes(self) -> bytes:
        return _int_bytes(self.c) + b"|" + _int_bytes(self.s)


class KeyPair:
    """A signing key pair.

    Parameters
    ----------
    seed:
        Deterministic seed for key generation (node id or experiment seed).
        Production users would pass ``None`` to use OS randomness; the
        reproduction always passes explicit seeds for determinism.
    mode:
        ``"schnorr"`` or ``"fast"`` (see module docstring).
    """

    def __init__(self, seed: Optional[int] = None, mode: str = SCHNORR) -> None:
        if mode not in (SCHNORR, FAST):
            raise ValueError(f"unknown key mode: {mode}")
        self.mode = mode
        if seed is None:
            import os

            seed_bytes = os.urandom(32)  # repro-lint: ignore[D104] — documented escape hatch: seedless keys are for ad-hoc use, never inside seeded experiments
        else:
            seed_bytes = hashlib.sha256(f"keyseed:{seed}".encode()).digest()
        self._secret = int.from_bytes(
            hashlib.sha256(b"secret:" + seed_bytes).digest() * 2, "big"
        ) % (_MODP_Q - 1) + 1
        if mode == SCHNORR:
            pub_value = pow(_MODP_G, self._secret, _MODP_P)
        else:
            pub_value = _hash_to_int(b"fastpub", _int_bytes(self._secret))
        self.public_key = PublicKey(value=pub_value, mode=mode)

    # ----------------------------------------------------------------- signing
    def sign(self, message: bytes) -> Signature:
        """Sign ``message`` and return a :class:`Signature`."""
        if not isinstance(message, (bytes, bytearray)):
            raise TypeError("message must be bytes")
        if self.mode == FAST:
            tag = hmac.digest(self.public_key.mac_key, message, "sha256")
            return Signature(c=0, s=int.from_bytes(tag, "big"), mode=FAST)
        # Deterministic nonce (RFC-6979 style): k = H(secret, message) mod q.
        k = _hash_to_int(b"nonce", _int_bytes(self._secret), bytes(message)) % (_MODP_Q - 1) + 1
        r = pow(_MODP_G, k, _MODP_P)
        c = _hash_to_int(_int_bytes(r), bytes(message), self.public_key.to_bytes()) % _MODP_Q
        s = (k + c * self._secret) % _MODP_Q
        return Signature(c=c, s=s, mode=SCHNORR)

    def __repr__(self) -> str:  # pragma: no cover
        return f"KeyPair(mode={self.mode}, fingerprint={self.public_key.fingerprint()[:12]})"


def verify(public_key: PublicKey, message: bytes, signature: Signature) -> bool:
    """Verify ``signature`` over ``message`` under ``public_key``.

    Returns ``False`` (never raises) on any mismatch, including mode
    mismatches, so callers can treat verification failure uniformly.
    """
    if not isinstance(message, (bytes, bytearray)):
        return False
    if signature.mode != public_key.mode:
        return False
    if public_key.mode == FAST:
        tag = hmac.digest(public_key.mac_key, message, "sha256")
        try:
            claimed = signature.s.to_bytes(len(tag), "big")
        except OverflowError:
            return False
        return hmac.compare_digest(claimed, tag)
    # Schnorr verification: r' = g^s * y^(-c); accept iff H(r', m, pk) == c.
    try:
        y_inv_c = pow(pow(public_key.value, signature.c, _MODP_P), _MODP_P - 2, _MODP_P)
        r_prime = (pow(_MODP_G, signature.s, _MODP_P) * y_inv_c) % _MODP_P
    except (ValueError, OverflowError):
        return False
    c_prime = _hash_to_int(_int_bytes(r_prime), bytes(message), public_key.to_bytes()) % _MODP_Q
    return c_prime == signature.c
