"""The benchmark's own arithmetic: layer self time, names, failures.

Kept free of I/O so that ``test_arith.py`` can check every rule the
reported numbers rest on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def check_name(name: str) -> str:
    """Return ``name`` if it is a valid metric or workload name, else raise."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """Return ``unit`` if it is a valid metric unit, else raise."""
    if not isinstance(unit, str) or not _UNIT.match(unit):
        raise ValueError(f"invalid metric unit {unit!r}")
    return unit


@dataclass
class Span:
    """One timed interval of a layer; ``parent`` is another span's ``id``.

    ``compute_share`` is set on parallel-map spans only: the fraction of
    the map's wall time its workers spent inside tasks (busy time over
    workers x wall).  That share of the map's self time is work of the
    layer that called the map; the rest is parallel overhead.
    """

    id: str
    parent: Optional[str]
    layer: str
    t0: float
    t1: float
    compute_share: Optional[float] = None

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)


def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in parts if min(hi, b) > max(lo, a)
    )
    total = 0.0
    end = lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans: Sequence[Span], parallel_layer: str = "parallel") -> Dict[str, float]:
    """Seconds of self time per span id.

    A span's self time is its duration minus the part of it that its
    child spans cover.  For a parallel map, ``compute_share`` of that
    self time moves to the nearest ancestor of another layer.  The
    self times of a tree add up to its root's duration when children
    lie inside their parents.
    """
    by_id = {span.id: span for span in spans}
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    own: Dict[str, float] = {}
    for span in spans:
        seconds = span.duration - covered(
            (span.t0, span.t1), ((c.t0, c.t1) for c in children.get(span.id, ()))
        )
        if span.compute_share is not None and seconds > 0:
            owner = _ancestor_outside(span, by_id, parallel_layer)
            if owner is not None:
                moved = seconds * min(1.0, max(0.0, span.compute_share))
                own[owner.id] = own.get(owner.id, 0.0) + moved
                seconds -= moved
        own[span.id] = own.get(span.id, 0.0) + seconds
    return own


def sum_by(spans: Sequence[Span], values: Dict[str, float], key) -> Dict[str, float]:
    """Add up per-span ``values`` under ``key(span)``."""
    totals: Dict[str, float] = {}
    for span in spans:
        totals[key(span)] = totals.get(key(span), 0.0) + values.get(span.id, 0.0)
    return totals


def _ancestor_outside(span: Span, by_id: Dict[str, Span], layer: str) -> Optional[Span]:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None and parent.layer == layer:
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return parent


def layer_paths(spans: Sequence[Span]) -> Dict[str, str]:
    """Each span's path of layers from its root, e.g. ``op/ser.mc/sram``."""
    by_id = {span.id: span for span in spans}
    paths: Dict[str, str] = {}

    def path(span: Span) -> str:
        if span.id not in paths:
            parent = by_id.get(span.parent) if span.parent is not None else None
            paths[span.id] = span.layer if parent is None else f"{path(parent)}/{span.layer}"
        return paths[span.id]

    for span in spans:
        path(span)
    return paths


@dataclass
class Ledger:
    """Attempted and failed operations; a failed op carries its reasons."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, label: str, problems: Sequence[str]) -> bool:
        """Count one op; it failed if any output check found a problem."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
