"""``run.py --compare A.json B.json``: B against A, per (metric, workload).

Each end-to-end metric gets one of

``ok``          B is within the metric's bound of A;
``worse``       B is worse than A by more than the bound;
``better``      B is better than A by more than the bound;
``unresolved``  the difference is within the bound, but the samples of either
                run were themselves spread wider than the bound (first to
                third quartile), so "unchanged" is not a claim the data supports;
``n/a``         the metric does not exist on this workload.

Numbers that a deterministic simulator must reproduce exactly for one seed
(calls per operation, outcome fractions, simulated latencies, the output
digest, every per-layer count) are additionally listed as equal or not.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

#: end-to-end metrics that are exact for a given seed and commit
EXACT = ("py_calls_per_op", "ok_ops_fraction", "sim_latency_p50_s", "sim_latency_p90_s")


def _noise(entry: Dict[str, object]) -> float:
    """The middle half of a metric's samples, as a share of their median (the value)."""
    if entry.get("q1") is None or not entry.get("value"):
        return 0.0
    return (float(entry["q3"]) - float(entry["q1"])) / abs(float(entry["value"]))


def verdict(spec: Dict[str, object], a: Dict[str, object], b: Dict[str, object]) -> Dict[str, object]:
    """Status of one metric on one workload, with the share by which B is worse."""
    if a["value"] is None or b["value"] is None:
        return {"status": "n/a", "worse_by": None}
    before, after = float(a["value"]), float(b["value"])
    change = (after - before) / abs(before)
    worse_by = change if spec["better"] == "lower" else -change
    bound = float(spec["bound"])
    if worse_by > bound:
        status = "worse"
    elif worse_by < -bound:
        status = "better"
    elif max(_noise(a), _noise(b)) > bound:
        status = "unresolved"
    else:
        status = "ok"
    return {"status": status, "worse_by": worse_by}


def differing_counts(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Per-layer metrics in ``count`` units whose values differ between the runs."""
    return sorted(
        name
        for name, entry in a["per_layer"].items()
        if entry["unit"] == "count" and b["per_layer"].get(name, {}).get("value") != entry["value"]
    )


def _shown(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(path_a: Path, path_b: Path, specs: List[Dict[str, object]]) -> int:
    a = json.loads(path_a.read_text(encoding="utf-8"))
    b = json.loads(path_b.read_text(encoding="utf-8"))
    print(f"A = {path_a} (seed {a['seed']})   B = {path_b} (seed {b['seed']})")
    print(f"{'workload':<16} {'metric':<20} {'A':>12} {'B':>12} {'B worse by':>11}  bound  status")
    tally: Dict[str, int] = {}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<16} missing from B")
            tally["worse"] = tally.get("worse", 0) + 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for spec in specs:
            ea, eb = wa["end_to_end"][spec["name"]], wb["end_to_end"][spec["name"]]
            result = verdict(spec, ea, eb)
            tally[result["status"]] = tally.get(result["status"], 0) + 1
            by = "" if result["worse_by"] is None else f"{100 * result['worse_by']:+.2f}%"
            print(
                f"{name:<16} {spec['name']:<20} {_shown(ea['value']):>12} {_shown(eb['value']):>12} {by:>11}"
                f"  {100 * float(spec['bound']):>4.1f}%  {result['status']}"
            )
    print("exact for one seed and one commit (only meaningful when A and B used the same seed):")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        unequal = [m for m in EXACT if wa["end_to_end"][m]["value"] != wb["end_to_end"][m]["value"]]
        if wa["sim_digest"] != wb["sim_digest"]:
            unequal.append("sim_digest")
        counts = differing_counts(wa, wb)
        print(
            f"{name:<16} end-to-end: {'all equal' if not unequal else 'DIFFER ' + ', '.join(unequal)};"
            f" per-layer counts: {'all equal' if not counts else 'DIFFER ' + ', '.join(counts)}"
        )
    print("summary: " + ", ".join(f"{count} {status}" for status, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0
