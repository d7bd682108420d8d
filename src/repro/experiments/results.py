"""Result containers and paper-style table formatting.

Every experiment harness returns a structured result object; the helpers here
render them as the rows/series the paper reports, so benchmark output can be
compared against the published tables and figures at a glance.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..sim.metrics import percentile  # noqa: F401 — canonical impl, re-exported here


def percentile_from_cdf(cdf: Sequence[Tuple[float, float]], fraction: float) -> float:
    """Percentile read off ``(value, cumulative_fraction)`` pairs.

    Returns the smallest value whose cumulative fraction reaches ``fraction``
    (``fraction`` in (0, 1]).  This is the correct way to query a pre-computed
    CDF: it scans the cumulative fractions instead of indexing the point list
    by ``fraction * len(cdf)``, which conflates the number of CDF points with
    the number of underlying samples and silently degrades whenever the CDF
    resolution differs from the sample count.
    """
    if not cdf:
        return float("nan")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    for value, cum in cdf:
        if cum >= fraction:
            return value
    return cdf[-1][0]


def jsonify(data: object) -> object:
    """Recursively convert tuples to lists so a dump/load round trip is equal.

    ``dataclasses.asdict`` preserves tuples, but JSON has no tuple type, so a
    reloaded record would otherwise compare unequal to the in-memory one —
    which would break campaign resume comparisons and test assertions.
    """
    if isinstance(data, (list, tuple)):
        return [jsonify(v) for v in data]
    if isinstance(data, dict):
        return {k: jsonify(v) for k, v in data.items()}
    return data


@functools.lru_cache(maxsize=None)
def _type_hints(cls: type) -> Dict[str, object]:
    """``typing.get_type_hints(cls)``, resolved once per config class.

    Resolving compiles and evaluates every string annotation — per field,
    nested dataclasses included — which a campaign would otherwise pay once
    per trial.  The result is shared between callers: read it, don't mutate.
    """
    return typing.get_type_hints(cls)


def config_from_dict(cls: type, data: Dict[str, object]):
    """Instantiate an experiment config dataclass from a plain-JSON dict.

    Used by :mod:`repro.campaign` to turn trial parameters back into typed
    configs.  Lists are coerced to tuples (JSON has no tuples), a mapping
    given for a dataclass-typed field (e.g. ``octopus``) is recursively
    rebuilt into that dataclass, and unknown keys raise ``ValueError`` so
    typos in campaign specs fail loudly instead of being ignored.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} parameters: {', '.join(unknown)}")
    # Resolve string annotations (``from __future__ import annotations``) so
    # nested dataclass fields can be detected by type, not by name.
    hints = _type_hints(cls)
    kwargs: Dict[str, object] = {}
    for name, value in data.items():
        target = hints.get(name)
        if isinstance(value, dict) and dataclasses.is_dataclass(target):
            value = config_from_dict(target, value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a simple fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_series(name: str, pairs: Iterable[Tuple[float, float]], x_label: str = "time", y_label: str = "value") -> str:
    """Render a time series as two columns (the shape of the paper's figures)."""
    lines = [f"{name}  ({x_label} -> {y_label})"]
    for x, y in pairs:
        lines.append(f"  {x:10.1f}  {y:10.4f}")
    return "\n".join(lines)


@dataclass
class ExperimentRecord:
    """A generic named result bundle written by benchmark harnesses."""

    name: str
    parameters: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def add_series(self, name: str, pairs: Sequence[Tuple[float, float]]) -> None:
        self.series[name] = list(pairs)

    def to_text(self) -> str:
        """Render the record: parameters, rows as a table, series as columns."""
        chunks: List[str] = [f"=== {self.name} ==="]
        if self.parameters:
            chunks.append("parameters: " + ", ".join(f"{k}={v}" for k, v in sorted(self.parameters.items())))
        if self.rows:
            headers = list(self.rows[0].keys())
            chunks.append(format_table(headers, [[row.get(h, "") for h in headers] for row in self.rows]))
        for name, pairs in self.series.items():
            chunks.append(format_series(name, pairs))
        for note in self.notes:
            chunks.append(f"note: {note}")
        return "\n".join(chunks)
