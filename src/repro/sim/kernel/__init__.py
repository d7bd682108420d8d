"""``repro.sim.kernel`` — pluggable ring-representation kernels.

The simulator's hot paths (ring membership, successor/finger resolution,
greedy lookup routing, adversary-fraction metrics) are served by a *kernel*:
``kernel="array"`` (flat sorted arrays, incremental churn maintenance,
cached finger resolution), the default, or ``kernel="object"`` (the
historical per-object O(N) scans), the reference it is verified against.
:class:`~repro.chord.ring.ChordRing` and
:class:`~repro.core.octopus_node.OctopusNetwork` take the switch and keep
their APIs unchanged; the engine-driven experiment configs (``security``,
``load``, ``efficiency``) carry it as a ``kernel`` field, so any campaign
over them runs on either kernel.  The anonymity model's
:class:`~repro.anonymity.ring_model.LightweightRing` has no switch: its
lookup paths always run over :class:`FingerMatrix`.

Kernels are pure implementation swaps: they draw no randomness and must be
observationally identical (``tests/kernel`` enforces byte-identical trial
records, ring invariants under churn interleavings, and golden digests).
See ``docs/architecture.md`` for the layouts and cache-invalidation rules,
and ``BENCH_kernel.json`` for the measured speedups.
"""

from .array_kernel import ArrayRingKernel
from .base import RingKernel, make_ring_kernel, validate_kernel
from .object_kernel import ObjectRingKernel
from .paths import FingerMatrix, greedy_path_positions

#: kernel name -> class; the ``kernel=`` switch accepts these names.
KERNELS = {
    ObjectRingKernel.name: ObjectRingKernel,
    ArrayRingKernel.name: ArrayRingKernel,
}

#: The one place the default is written: every ``kernel=`` default reads it.
DEFAULT_KERNEL = ArrayRingKernel.name

__all__ = [
    "ArrayRingKernel",
    "DEFAULT_KERNEL",
    "FingerMatrix",
    "KERNELS",
    "ObjectRingKernel",
    "RingKernel",
    "greedy_path_positions",
    "make_ring_kernel",
    "validate_kernel",
]
