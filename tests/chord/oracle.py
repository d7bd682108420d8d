"""Reference routing-table derivations: everything recomputed from the fields.

These are the bodies ``RoutingTableSnapshot.payload`` / ``finger_nodes`` /
``all_nodes`` / ``closest_preceding``, ``SignedSuccessorList.payload``,
``BoundChecker.check`` and ``ChordNode.snapshot`` had before a node kept one
table body per version of its routing state: each call walks the entry tuples
again.  They are slower at every size, which is why they left ``src``; they
stay here as the oracle the cached body is compared against after every
mutation (``test_table_body``).  Each takes the object whose method it was.
"""

from __future__ import annotations

from typing import List, Optional, Tuple


def payload(table) -> bytes:
    fingers = ";".join(f"{ideal}:{node}" for ideal, node in table.fingers)
    succ = ",".join(str(n) for n in table.successors)
    pred = ",".join(str(n) for n in table.predecessors)
    return f"rt|{table.owner_id}|{fingers}|{succ}|{pred}|{table.timestamp:.3f}".encode()


def successor_list_payload(signed) -> bytes:
    body = ",".join(str(n) for n in signed.nodes)
    return f"succlist|{signed.owner_id}|{body}|{signed.timestamp:.3f}".encode()


def finger_nodes(table) -> List[int]:
    """Distinct finger node ids in index order."""
    seen = set()
    out = []
    for _, node in table.fingers:
        if node is not None and node not in seen:
            seen.add(node)
            out.append(node)
    return out


def all_nodes(table) -> List[int]:
    """Every node id referenced by this table (fingers + successors)."""
    seen = set()
    out = []
    for node in finger_nodes(table) + list(table.successors):
        if node not in seen and node != table.owner_id:
            seen.add(node)
            out.append(node)
    return out


def closest_preceding(table, key: int, space, exclude: Optional[set] = None) -> Optional[int]:
    """The referenced node most closely preceding ``key`` (greedy routing)."""
    exclude = exclude or set()
    best = None
    best_dist = None
    for node in all_nodes(table):
        if node in exclude:
            continue
        if not space.in_interval(node, table.owner_id, key):
            continue
        d = space.distance(node, key)
        if best_dist is None or d < best_dist:
            best, best_dist = node, d
    return best


def check(checker, table) -> Tuple[bool, List[str]]:
    """``BoundChecker.check``: ``(passed, violations)``."""
    violations: List[str] = []
    max_gap = checker.tolerance_factor * checker.expected_gap
    for ideal, node in table.fingers:
        if node is None:
            continue
        gap = checker.space.distance(ideal, node)
        if gap > max_gap:
            violations.append(f"finger for ideal {ideal} is {gap:.0f} past ideal (> {max_gap:.0f})")
    if table.successors:
        span = checker.space.distance(table.owner_id, table.successors[-1])
        max_span = checker.tolerance_factor * checker.expected_gap * max(len(table.successors), 1)
        if span > max_span:
            violations.append(f"successor list spans {span:.0f} (> {max_span:.0f})")
        # Successors must be sorted by distance from the owner.
        distances = [checker.space.distance(table.owner_id, s) for s in table.successors]
        if distances != sorted(distances):
            violations.append("successor list is not ordered by ring distance")
    return not violations, violations


def snapshot_fields(node) -> Tuple[int, tuple, tuple, tuple]:
    """``(owner_id, fingers, successors, predecessors)`` as ``ChordNode.snapshot`` read them."""
    fingers = tuple((e.ideal_id, e.node_id) for e in node.finger_table.entries)
    return node.node_id, fingers, tuple(node.successor_list.nodes), ()
