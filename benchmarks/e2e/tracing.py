"""Outside-in span tracer: the benchmark's own wrappers around each layer.

Nothing under ``src/`` knows about this file.  :func:`installed` replaces
each layer's public entry point (a class attribute, or every ``repro.*``
binding of a module-level function) with a timing wrapper for the duration
of one traced pass and puts the originals back afterwards.

Per layer the tracer keeps ``calls``, ``self_s`` (span minus the part of it
covered by child spans) and ``total_s``; per parent->child edge the call
count and covered time; and, for the first :data:`CAPTURED_ROOTS` lookups /
campaign trials, the full span tree.  Everything stays in memory until the
pass is over.

The self time of *outermost* spans (``experiments.run`` around a trial,
``campaign.runner.run_campaign`` around a campaign) is the residual no named
layer below accounts for; ``coverage`` is the rest of the wall.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: span trees are kept for this many lookups / campaign trials per pass.
CAPTURED_ROOTS = 20


@dataclass(frozen=True)
class Layer:
    """One traced entry point (several targets pool into one layer)."""

    name: str
    #: ``"package.module:Class.method"`` or ``"package.module:function"``.
    targets: Tuple[str, ...]
    #: composite layers also report ``<name>.total_s``.
    composite: bool = False
    #: a span of this layer opens a captured span tree (first N only).
    capture_root: bool = False
    #: optional ``result -> number`` summed per layer (``observed``).
    observe: Optional[Callable[[object], float]] = None


LAYERS: Tuple[Layer, ...] = (
    Layer("experiments.run", ("repro.campaign.registry:ExperimentAdapter.run",), composite=True),
    Layer("sim.engine.run", ("repro.sim.engine:SimulationEngine.run",), composite=True),
    Layer("chord.ring.build", ("repro.chord.ring:ChordRing.build",)),
    Layer("chord.ring.mark_dead", ("repro.chord.ring:ChordRing.mark_dead",)),
    Layer("chord.ring.mark_alive", ("repro.chord.ring:ChordRing.mark_alive",)),
    Layer("chord.ring.alive_ids_sorted", ("repro.chord.ring:ChordRing.alive_ids_sorted",)),
    Layer("chord.node.snapshot", ("repro.chord.node:ChordNode.snapshot",), composite=True),
    Layer("chord.node.signed_successor_list", ("repro.chord.node:ChordNode.signed_successor_list",)),
    Layer(
        "chord.stabilization.run_round",
        ("repro.chord.stabilization:Stabilizer.run_round",),
        composite=True,
    ),
    Layer("crypto.keys.sign", ("repro.crypto.keys:KeyPair.sign",)),
    Layer("crypto.keys.verify", ("repro.crypto.keys:verify",)),
    Layer("crypto.ca.revoke", ("repro.crypto.ca:CertificateAuthority.revoke",)),
    Layer(
        "core.random_walk.perform",
        ("repro.core.random_walk:RandomWalkProtocol.perform",),
        composite=True,
        observe=lambda walk: walk.restarts,
    ),
    Layer(
        "core.anonymous_lookup.lookup",
        ("repro.core.anonymous_lookup:AnonymousLookupProtocol.lookup",),
        composite=True,
        capture_root=True,
    ),
    Layer(
        "core.anonymous_lookup.select_relay_pairs",
        ("repro.core.anonymous_lookup:AnonymousLookupProtocol.select_relay_pairs",),
    ),
    Layer("core.anonymous_path.send_query", ("repro.core.anonymous_path:AnonymousPath.send_query",)),
    Layer(
        "core.surveillance.neighbor_check",
        ("repro.core.surveillance:SecretNeighborSurveillance.check",),
        composite=True,
    ),
    Layer("core.surveillance.finger_check", ("repro.core.surveillance:SecretFingerSurveillance.check",)),
    Layer(
        "core.secure_update.update_random_finger",
        ("repro.core.secure_update:SecureFingerUpdate.update_random_finger",),
    ),
    Layer(
        "core.attacker_identification.process_report",
        (
            "repro.core.attacker_identification:AttackerIdentificationService.process_neighbor_report",
            "repro.core.attacker_identification:AttackerIdentificationService.process_finger_report",
            "repro.core.attacker_identification:AttackerIdentificationService.process_drop_report",
        ),
    ),
    Layer("core.dos_defense.investigate_drop", ("repro.core.dos_defense:DosDefense.investigate_drop",)),
    Layer("baselines.chord_lookup.lookup", ("repro.baselines.chord_lookup:ChordLookupProtocol.lookup",)),
    Layer("baselines.halo.lookup", ("repro.baselines.halo:HaloLookupProtocol.lookup",)),
    Layer(
        "sim.latency.one_way",
        (
            "repro.sim.latency:KingLatencyModel.one_way",
            "repro.sim.latency:ConstantLatencyModel.one_way",
        ),
    ),
    Layer("campaign.runner.run_campaign", ("repro.campaign.runner:run_campaign",), composite=True),
    Layer("campaign.spec.expand", ("repro.campaign.spec:CampaignSpec.expand",)),
    Layer("campaign.persistence.enqueue_trial", ("repro.campaign.persistence:CampaignStore.enqueue_trial",)),
    # the three below are not in the issue's list; without them a third of the
    # campaign-fleet wall stayed in run_campaign's residual (coverage 0.66)
    Layer("campaign.persistence.list_pending", ("repro.campaign.persistence:CampaignStore.list_pending",)),
    Layer("campaign.persistence.load_trial", ("repro.campaign.persistence:CampaignStore.load_trial",)),
    Layer("campaign.persistence.complete_job", ("repro.campaign.persistence:CampaignStore.complete_job",)),
    Layer("campaign.persistence.claim_job", ("repro.campaign.persistence:CampaignStore.claim_job",)),
    Layer("campaign.persistence.write_trial", ("repro.campaign.persistence:CampaignStore.write_trial",)),
    Layer("campaign.persistence.write_partial", ("repro.campaign.persistence:CampaignStore.write_partial",)),
    Layer("campaign.persistence.sweep_claims", ("repro.campaign.persistence:CampaignStore.sweep_claims",)),
    Layer("campaign.telemetry.partial_add", ("repro.campaign.telemetry:PartialSummaryWriter.add",)),
    Layer("campaign.streaming.add_record", ("repro.campaign.streaming:CampaignAccumulator.add_record",)),
    Layer(
        "campaign.streaming.merge_partial_summaries",
        ("repro.campaign.streaming:merge_partial_summaries",),
    ),
    Layer(
        "campaign.backends.execute_trial",
        ("repro.campaign.backends.base:execute_trial",),
        capture_root=True,
    ),
)


class Tracer:
    """Aggregates and (for the first few roots) span trees of one traced pass.

    Everything is booked per parent->child *edge* (calls, covered seconds,
    self seconds) in flat lists indexed ``parent * width + child``; per-layer
    numbers are column sums.  Row ``len(layers)`` is the virtual parent of
    outermost spans, so the hot wrapper never branches on "is there a parent".
    One wrapped call costs about a microsecond, which is what keeps
    ``trace.overhead_ratio`` under its limit at ~10^5 spans per second.
    """

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS, captured_roots: int = CAPTURED_ROOTS) -> None:
        self.layers = layers
        self.width = width = len(layers) + 1
        self.edge_calls = [0] * (width * width)
        self.edge_total_s = [0.0] * (width * width)
        self.edge_self_s = [0.0] * (width * width)
        self.observed = [0.0] * len(layers)
        #: open spans, innermost last: [row offset, child seconds, span id];
        #: the permanent bottom frame stands for "no parent span"
        self.stack: List[list] = [[len(layers) * width, 0.0, -1]]
        #: captured spans: (id, parent id, layer index, start, end)
        self.spans: List[Optional[tuple]] = []
        self.roots_left = captured_roots

    def wrap(self, fn: Callable, index: int) -> Callable:
        """A timing wrapper around ``fn`` that books into layer ``index``."""
        layer = self.layers[index]
        tracer = self
        stack = self.stack
        spans = self.spans
        edge_calls, edge_total_s, edge_self_s = self.edge_calls, self.edge_total_s, self.edge_self_s
        observed = self.observed
        row = index * self.width
        is_root = layer.capture_root
        observe = layer.observe
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            # a span is captured when its parent is, or when it opens one of
            # the first few root spans (a lookup, a campaign trial)
            if parent[2] >= 0:
                span_id = len(spans)
                spans.append(None)
            elif is_root and tracer.roots_left > 0:
                tracer.roots_left -= 1
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            frame = [row, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observed[index] += observe(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                edge = parent[0] + index
                edge_calls[edge] += 1
                edge_total_s[edge] += duration
                edge_self_s[edge] += duration - frame[1]
                parent[1] += duration
                if span_id >= 0:
                    spans[span_id] = (span_id, parent[2], index, start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    # ----------------------------------------------------------------- report
    def _column(self, values: list, child: int) -> float:
        return sum(values[parent * self.width + child] for parent in range(self.width))

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s, total_s[, observed]}}`` for every layer."""
        out: Dict[str, Dict[str, float]] = {}
        for i, layer in enumerate(self.layers):
            row = {
                "calls": self._column(self.edge_calls, i),
                "self_s": self._column(self.edge_self_s, i),
                "total_s": self._column(self.edge_total_s, i),
            }
            if layer.observe is not None:
                row["observed"] = self.observed[i]
            out[layer.name] = row
        return out

    def attributed_s(self) -> float:
        """Self seconds of every span that has a parent span.

        What is left of the wall - the self time of outermost spans and
        anything outside all spans - is the residual no named layer explains.
        """
        outer = len(self.layers) * self.width
        return sum(self.edge_self_s[:outer])

    def edges(self) -> List[Dict[str, object]]:
        """Non-empty parent->child edges (parent ``None`` = outermost span)."""
        names = [layer.name for layer in self.layers] + [None]
        return [
            {
                "parent": names[p],
                "child": names[c],
                "calls": self.edge_calls[p * self.width + c],
                "total_s": self.edge_total_s[p * self.width + c],
                "self_s": self.edge_self_s[p * self.width + c],
            }
            for p in range(self.width)
            for c in range(len(self.layers))
            if self.edge_calls[p * self.width + c]
        ]

    def span_tree(self, origin: float) -> List[Dict[str, object]]:
        """Captured spans, times in seconds since ``origin`` (the pass start)."""
        names = [layer.name for layer in self.layers]
        return [
            {
                "id": span[0],
                "parent": span[1] if span[1] >= 0 else None,
                "layer": names[span[2]],
                "start": span[3] - origin,
                "end": span[4] - origin,
            }
            for span in self.spans
            if span is not None
        ]


def _resolve(target: str) -> Tuple[object, str, object]:
    """``(owner, attribute, raw object)`` of a target, or ``LookupError`` naming it.

    A layer whose entry point was renamed must fail the benchmark visibly
    rather than drop out of the trace with zero calls.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"traced target {target!r}: cannot import {module_name} ({exc})") from exc
    *parents, attribute = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise LookupError(f"traced target {target!r}: {module_name} has no {part!r}")
        owner = getattr(owner, part)
    # vars(), not getattr(): the method must be defined on this very class
    # (an inherited one would be patched on the wrong owner) and classmethod /
    # staticmethod objects must be seen raw.
    if attribute not in vars(owner):
        raise LookupError(f"traced target {target!r}: {attribute!r} is not defined on {owner!r}")
    return owner, attribute, vars(owner)[attribute]


def _repro_bindings(function: object) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` in loaded ``repro`` modules bound to ``function``.

    ``from .keys import verify`` copies the binding into the importing module,
    so patching the defining module alone would miss most call sites.
    """
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is function:
                found.append((module, name))
    return found


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer's wrapper; restore every original on exit."""
    patches: List[Tuple[object, str, object]] = []

    def patch(owner: object, attribute: str, replacement: object, original: object) -> None:
        patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    try:
        for index, layer in enumerate(tracer.layers):
            for target in layer.targets:
                owner, attribute, raw = _resolve(target)
                if isinstance(raw, (classmethod, staticmethod)):
                    patch(owner, attribute, type(raw)(tracer.wrap(raw.__func__, index)), raw)
                elif isinstance(owner, type):
                    patch(owner, attribute, tracer.wrap(raw, index), raw)
                else:
                    wrapped = tracer.wrap(raw, index)
                    for module, name in _repro_bindings(raw):
                        patch(module, name, wrapped, raw)
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
