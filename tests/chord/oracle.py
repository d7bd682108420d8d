"""Reference routing-state derivations: the code ``src`` replaced, kept as oracles.

**Routing tables, recomputed from the fields.**  These are the bodies
``RoutingTableSnapshot.payload`` / ``finger_nodes`` / ``all_nodes`` /
``closest_preceding``, ``SignedSuccessorList.payload``,
``BoundChecker.check`` and ``ChordNode.snapshot`` had before a node kept one
table body per version of its routing state: each call walks the entry tuples
again.  They are slower at every size, which is why they left ``src``; they
stay here as the oracle the cached body is compared against after every
mutation (``test_table_body``).  Each takes the object whose method it was.

**Neighbor lists, intervals and the ring build, one element at a time.**
``neighbor_*`` are ``NeighborList``'s mutators from when every insert appended
and re-sorted the whole list and ``replace_all`` inserted its argument one id
at a time; ``in_interval`` is ``IdSpace.in_interval`` from when it normalised
its three arguments and compared endpoints before distances; ``neighbors`` /
``rebuild_routing_state`` are ``ChordRing``'s from when a full build located
every node by bisect and collected its neighbours with a membership loop.
``test_one_pass_build`` holds the shipped code to them.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple


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


# ------------------------------------------------------------ neighbor lists
def _neighbor_distance(lst, node_id: int) -> int:
    if lst.direction > 0:
        return lst.space.distance(lst.owner_id, node_id)
    return lst.space.distance(node_id, lst.owner_id)


def _neighbor_insert(lst, node_id: int) -> bool:
    if node_id == lst.owner_id or node_id in lst._nodes:
        return False
    lst._nodes.append(node_id)
    lst._nodes.sort(key=lambda nid: _neighbor_distance(lst, nid))
    if len(lst._nodes) > lst.capacity:
        dropped = lst._nodes.pop()
        return dropped != node_id
    return True


def neighbor_add(lst, node_id: int) -> bool:
    """Insert ``node_id`` keeping order; returns whether the list changed."""
    changed = _neighbor_insert(lst, node_id)
    if changed:
        lst.version += 1
    return changed


def neighbor_update(lst, node_ids: Iterable[int]) -> int:
    """Add many candidates; returns the number actually inserted."""
    count = sum(1 for nid in node_ids if _neighbor_insert(lst, nid))
    if count:
        lst.version += 1
    return count


def neighbor_replace_all(lst, node_ids: Sequence[int]) -> None:
    """Replace the whole list (used when adopting a peer-provided list)."""
    previous = lst._nodes
    lst._nodes = []
    for nid in node_ids:
        _neighbor_insert(lst, nid)
    if lst._nodes != previous:
        lst.version += 1


# ----------------------------------------------------------------- intervals
def in_interval(
    space,
    ident: int,
    start: int,
    end: int,
    inclusive_start: bool = False,
    inclusive_end: bool = False,
) -> bool:
    ident = space.normalize(ident)
    start = space.normalize(start)
    end = space.normalize(end)
    if start == end:
        if ident == start:
            return inclusive_start or inclusive_end
        return True
    d_end = space.distance(start, end)
    d_ident = space.distance(start, ident)
    if ident == start:
        return inclusive_start
    if ident == end:
        return inclusive_end
    return 0 < d_ident < d_end


# ---------------------------------------------------------------- ring build
def rebuild_routing_state(ring, node_ids: Optional[Iterable[int]] = None) -> None:
    alive_sorted = ring.kernel.alive_ids_view()
    if not alive_sorted:
        return
    full_rebuild = node_ids is None
    targets = list(ring.nodes) if full_rebuild else node_ids
    for node_id in targets:
        node = ring.nodes.get(node_id)
        if node is None or not node.alive:
            continue
        if full_rebuild:
            node.finger_table.fill_from(alive_sorted)
        else:
            node.finger_table.fill_targets(
                ring.kernel.resolve_fingers(node_id, node.finger_table.ideal_ids())
            )
        neighbor_replace_all(
            node.successor_list, neighbors(ring, node_id, alive_sorted, +1, node.successor_list.capacity)
        )
        neighbor_replace_all(
            node.predecessor_list, neighbors(ring, node_id, alive_sorted, -1, node.predecessor_list.capacity)
        )


def neighbors(ring, node_id: int, alive_sorted: Sequence[int], direction: int, count: int) -> List[int]:
    if node_id not in ring.nodes:
        return []
    pos = bisect.bisect_left(alive_sorted, node_id)
    out: List[int] = []
    n = len(alive_sorted)
    if n <= 1:
        return out
    for step in range(1, count + 1):
        if direction > 0:
            j = (pos + step) % n
        else:
            j = (pos - step) % n
        candidate = alive_sorted[j]
        if candidate == node_id:
            break
        if candidate not in out:
            out.append(candidate)
    return out
