"""Shared per-kind experiment cases for the kernel differential/golden suites.

One small-but-nontrivial parameter set per experiment kind that owns a ring.
The differential tests run each case under both kernels and demand
byte-identical results; the golden tests pin the same cases to committed
sha256 digests so a semantics drift in *either* kernel fails even when both
kernels drift together.

``anonymity`` and ``ablation`` have no ``kernel=`` switch: their lookup paths
always come from the finger matrix.  Their ``"array"`` side is that shipped
path; their ``"object"`` side patches the reference loop (``oracle.py``) in,
so the loop stays pinned to the same digests end to end.

Keep these parameters stable: changing them invalidates the golden digests
(regenerate with ``python tests/kernel/regenerate.py`` and commit the diff).
"""

from __future__ import annotations

import contextlib
import copy
from typing import Dict
from unittest import mock

from repro.anonymity.ring_model import LightweightRing
from repro.campaign import canonical_json, get_experiment, strip_timing

from oracle import loop_path_positions

#: kind -> small deterministic params (seconds-scale under either kernel).
#: ``timing`` is deliberately absent: it has no ring.
CASES: Dict[str, dict] = {
    "security": {"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0, "seed": 3},
    "efficiency": {"n_nodes": 40, "lookups_per_scheme": 4, "seed": 3},
    "anonymity": {
        "n_nodes": 150,
        "fractions_malicious": [0.2],
        "dummy_counts": [2],
        "concurrent_lookup_rates": [0.01],
        "n_worlds": 10,
        "seed": 3,
    },
    "ablation": {"n_nodes": 120, "n_worlds": 8, "seed": 3},
    "scenario": {
        "preset": "heavy-tail-churn",
        "seed": 3,
        "base": {"n_nodes": 60, "duration": 15.0, "sample_interval": 5.0},
    },
    "adaptive": {
        "attacker": "re-eclipse",
        "defense": "aggressive-revoke",
        "seed": 3,
        "base": {
            "n_nodes": 60,
            "duration": 30.0,
            "sample_interval": 10.0,
            "attack": "lookup-bias",
        },
    },
}


#: kinds whose ring is a LightweightRing: no ``kernel`` parameter to set.
LOOP_ORACLE_KINDS = ("ablation", "anonymity")

#: kinds whose config (or nested base config) takes the ``kernel=`` switch.
KERNEL_SWITCH_KINDS = tuple(sorted(set(CASES) - set(LOOP_ORACLE_KINDS)))


def with_kernel(kind: str, kernel: str) -> dict:
    """The kind's case params with the kernel switch applied.

    Scenario and adaptive configs carry the base experiment's params in a
    nested ``base`` dict, so the switch nests accordingly.
    """
    params = copy.deepcopy(CASES[kind])
    if kind in LOOP_ORACLE_KINDS:
        return params
    if kind in ("scenario", "adaptive"):
        params["base"]["kernel"] = kernel
    else:
        params["kernel"] = kernel
    return params


def strip_kernel(obj):
    """Drop every ``kernel`` key, recursively.

    Result dicts embed their config — including the kernel name — so the
    byte-identity comparison must blind itself to the one field that is
    *supposed* to differ between the two runs.
    """
    if isinstance(obj, dict):
        return {k: strip_kernel(v) for k, v in obj.items() if k != "kernel"}
    if isinstance(obj, list):
        return [strip_kernel(v) for v in obj]
    return obj


def run_canonical(kind: str, kernel: str) -> str:
    """Canonical timing- and kernel-stripped JSON of one case run."""
    reference_paths = contextlib.nullcontext()
    if kind in LOOP_ORACLE_KINDS and kernel == "object":
        reference_paths = mock.patch.object(LightweightRing, "query_path_positions", loop_path_positions)
    with reference_paths:
        result = get_experiment(kind).run(with_kernel(kind, kernel))
    return canonical_json(strip_kernel(strip_timing(result.to_dict())))
