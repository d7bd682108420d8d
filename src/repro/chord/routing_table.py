"""Signed routing-table snapshots.

In Octopus every queried node returns its *routing table*: the union of its
finger table and its successor list (Section 4.3).  The table is signed and
timestamped by its owner so that it can later serve as non-repudiable
evidence before the CA.  This module defines the snapshot object exchanged on
the wire plus bound-checking utilities (the NISAN-style defense Octopus
applies to returned tables, Section 4.1).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Dict, List, Optional, Tuple

from .idspace import IdSpace


class TableBody:
    """Everything about a routing table that does not depend on the reply time.

    A node's table changes far less often than it is asked for, so the
    owner keeps one body per version of its routing state
    (:meth:`repro.chord.node.ChordNode.snapshot`) and every
    :class:`RoutingTableSnapshot` signed from that version refers to it: the
    entry tuples, the timestamp-free part of the signed payload, the
    deduplicated node lists and the bound-check verdicts are computed once
    per mutation instead of once per query.  A body is built from the fields
    it describes and never modified afterwards; a table fabricated with other
    fields (the attack behaviours) gets a body of its own.
    """

    __slots__ = ("owner_id", "fingers", "successors", "predecessors", "prefix", "finger_nodes", "all_nodes", "verdicts")

    def __init__(
        self,
        owner_id: int,
        fingers: Tuple[Tuple[int, Optional[int]], ...],
        successors: Tuple[int, ...],
        predecessors: Tuple[int, ...] = (),
    ) -> None:
        self.owner_id = owner_id
        self.fingers = fingers
        self.successors = successors
        self.predecessors = predecessors
        finger_part = ";".join(f"{ideal}:{node}" for ideal, node in fingers)
        succ = ",".join(map(str, successors))
        pred = ",".join(map(str, predecessors))
        #: the signed payload up to (not including) the timestamp
        self.prefix = f"rt|{owner_id}|{finger_part}|{succ}|{pred}|".encode()
        #: distinct finger node ids in index order
        self.finger_nodes = tuple(dict.fromkeys(node for _, node in fingers if node is not None))
        #: every referenced node id (fingers, then successors) except the owner
        self.all_nodes = tuple(
            node for node in dict.fromkeys(self.finger_nodes + tuple(successors)) if node != owner_id
        )
        #: bound-check verdicts per checker parameters, created on first check
        self.verdicts: Optional[Dict[tuple, "BoundCheckResult"]] = None

    def payload(self, timestamp: float) -> bytes:
        """The bytes an owner signs when it hands this table out at ``timestamp``."""
        return self.prefix + b"%.3f" % timestamp

    def signed(self, timestamp: float, keypair) -> "RoutingTableSnapshot":
        """The snapshot of this body at ``timestamp``, signed with ``keypair``."""
        return RoutingTableSnapshot(
            self.owner_id,
            self.fingers,
            self.successors,
            self.predecessors,
            timestamp,
            keypair.sign(self.payload(timestamp)),
            self,
        )


@dataclass(frozen=True)
class RoutingTableSnapshot:
    """An immutable, signed view of a node's routing state at a point in time.

    Attributes
    ----------
    owner_id:
        The node whose state this is.
    fingers:
        ``(ideal_id, node_id)`` pairs in finger-index order.
    successors:
        Successor list in ring order.
    predecessors:
        Predecessor list in ring order (Octopus-specific; may be empty when a
        peer only asks for the classic table).
    timestamp:
        Simulated time at which the snapshot was produced (the reply time).
    signature:
        The owner's signature over :meth:`payload`; ``None`` in contexts where
        signatures are modelled but not computed (fast simulation mode still
        accounts for their bytes).
    body:
        The :class:`TableBody` of the four table fields (not itself a field).
        An owner hands the body of its current state in as ``shared_body``,
        so every snapshot signed from one version shares it; otherwise — and
        under ``dataclasses.replace`` — it is built from the fields given, so
        a snapshot never carries the body of other content.
    """

    owner_id: int
    fingers: Tuple[Tuple[int, Optional[int]], ...]
    successors: Tuple[int, ...]
    predecessors: Tuple[int, ...] = ()
    timestamp: float = 0.0
    signature: object = None
    shared_body: InitVar[Optional[TableBody]] = None

    def __post_init__(self, shared_body: Optional[TableBody]) -> None:
        body = shared_body or TableBody(self.owner_id, self.fingers, self.successors, self.predecessors)
        object.__setattr__(self, "body", body)

    def payload(self) -> bytes:
        return self.body.payload(self.timestamp)

    def signed_by(self, keypair) -> "RoutingTableSnapshot":
        """This snapshot carrying ``keypair``'s signature over :meth:`payload`."""
        return self.body.signed(self.timestamp, keypair)

    # ----------------------------------------------------------------- access
    def finger_nodes(self) -> List[int]:
        """Distinct finger node ids in index order."""
        return list(self.body.finger_nodes)

    def all_nodes(self) -> List[int]:
        """Every node id referenced by this table (fingers + successors)."""
        return list(self.body.all_nodes)

    def entry_count(self) -> int:
        """Number of routing items (for bandwidth accounting)."""
        return len(self.fingers) + len(self.successors) + len(self.predecessors)

    def closest_preceding(self, key: int, space: IdSpace, exclude: Optional[set] = None) -> Optional[int]:
        """The referenced node most closely preceding ``key`` (greedy routing)."""
        exclude = exclude or set()
        best = None
        best_dist = None
        for node in self.body.all_nodes:
            if node in exclude:
                continue
            if not space.in_interval(node, self.owner_id, key):
                continue
            d = space.distance(node, key)
            if best_dist is None or d < best_dist:
                best, best_dist = node, d
        return best

    def immediate_successor(self) -> Optional[int]:
        return self.successors[0] if self.successors else None


@dataclass(frozen=True)
class BoundCheckResult:
    """Outcome of NISAN-style bound checking on a returned routing table.

    Immutable: one verdict is remembered on the table's body and handed to
    every checker with the same parameters.
    """

    passed: bool
    violations: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


class BoundChecker:
    """Statistical bound checking of returned routing tables.

    NISAN (and Octopus, Section 4.1) limits fingertable manipulation by
    checking that each returned finger is plausibly close to its ideal
    identifier.  With ``N`` uniformly distributed nodes the expected gap
    between the ideal identifier and the true finger is ``ring_size / N``;
    the checker flags fingers whose gap exceeds ``tolerance_factor`` times
    that expectation, and successor lists whose span is implausibly wide.

    This is deliberately a *moderate* defense — the paper notes a malicious
    node can still modify a few fingers undetected — which is why Octopus
    pairs it with secret surveillance.
    """

    def __init__(self, space: IdSpace, expected_network_size: int, tolerance_factor: float = 8.0) -> None:
        if expected_network_size < 2:
            raise ValueError("expected_network_size must be at least 2")
        self.space = space
        self.expected_network_size = expected_network_size
        self.tolerance_factor = tolerance_factor

    @property
    def expected_gap(self) -> float:
        return self.space.size / self.expected_network_size

    def check(self, table: RoutingTableSnapshot) -> BoundCheckResult:
        """Check a routing table; returns which constraints were violated.

        The verdict depends only on the table's body and this checker's
        parameters, so it is computed once per (body, parameters).
        """
        body = table.body
        key = (self.space.bits, self.expected_network_size, self.tolerance_factor)
        if body.verdicts is None:
            body.verdicts = {}
        verdict = body.verdicts.get(key)
        if verdict is None:
            verdict = body.verdicts[key] = self._check(body)
        return verdict

    def _check(self, table: TableBody) -> BoundCheckResult:
        violations: List[str] = []
        max_gap = self.tolerance_factor * self.expected_gap
        for ideal, node in table.fingers:
            if node is None:
                continue
            gap = self.space.distance(ideal, node)
            if gap > max_gap:
                violations.append(f"finger for ideal {ideal} is {gap:.0f} past ideal (> {max_gap:.0f})")
        if table.successors:
            span = self.space.distance(table.owner_id, table.successors[-1])
            max_span = self.tolerance_factor * self.expected_gap * max(len(table.successors), 1)
            if span > max_span:
                violations.append(f"successor list spans {span:.0f} (> {max_span:.0f})")
            # Successors must be sorted by distance from the owner.
            distances = [self.space.distance(table.owner_id, s) for s in table.successors]
            if distances != sorted(distances):
                violations.append("successor list is not ordered by ring distance")
        return BoundCheckResult(passed=not violations, violations=tuple(violations))
