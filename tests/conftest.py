"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.chord.idspace import IdSpace
from repro.chord.ring import ChordRing, RingConfig
from repro.core.config import OctopusConfig
from repro.core.octopus_node import OctopusNetwork
from repro.crypto.ca import CertificateAuthority
from repro.sim.rng import RandomSource


def _load_by_path(name: str, relative: str):
    """A test-side module loaded by path under a distinct name.

    Test directories share one import namespace and several of them have an
    ``oracle`` module of their own, so none of them can be imported as
    ``oracle``.
    """
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parent / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def table_oracle():
    """``tests/chord/oracle.py``: the uncached routing-table derivations."""
    return _load_by_path("chord_table_oracle", "chord/oracle.py")


@pytest.fixture(scope="session")
def moment_oracle():
    """``tests/campaign/oracle.py``: the ``Fraction`` metric accumulator."""
    return _load_by_path("campaign_moment_oracle", "campaign/oracle.py")


@pytest.fixture
def space() -> IdSpace:
    """A small identifier space used by most unit tests."""
    return IdSpace(bits=16)


@pytest.fixture
def rng() -> RandomSource:
    return RandomSource(12345)


@pytest.fixture
def small_ring() -> ChordRing:
    """A 64-node ring with 25% malicious nodes and correct routing state."""
    config = RingConfig(n_nodes=64, fraction_malicious=0.25, finger_count=10, id_bits=20, seed=7)
    return ChordRing.build(config=config, rng=RandomSource(7))


@pytest.fixture
def honest_ring() -> ChordRing:
    """A 64-node ring with no malicious nodes."""
    config = RingConfig(n_nodes=64, fraction_malicious=0.0, finger_count=10, id_bits=20, seed=11)
    return ChordRing.build(config=config, rng=RandomSource(11))


@pytest.fixture
def small_network() -> OctopusNetwork:
    """A complete Octopus network of 80 nodes (20% malicious)."""
    return OctopusNetwork.create(
        n_nodes=80,
        fraction_malicious=0.2,
        seed=5,
        config=OctopusConfig(expected_network_size=80),
        id_bits=24,
    )


@pytest.fixture
def honest_network() -> OctopusNetwork:
    """A complete Octopus network with no malicious nodes."""
    return OctopusNetwork.create(
        n_nodes=60,
        fraction_malicious=0.0,
        seed=9,
        config=OctopusConfig(expected_network_size=60),
        id_bits=24,
    )


@pytest.fixture
def ca() -> CertificateAuthority:
    return CertificateAuthority(seed=1)
