"""Per-layer metrics of a traced phase: span tree, self times and counts.

Each traced op is one process.  Its tree has the op as the root, whose
self time is the ``unattributed_s`` metric; below it sit ``proc.startup``
(fork to the first line of ``tracer.py``), the import spans, the spans
around the flow's entry points and ``proc.teardown`` (``main``
returned to ``wait4`` returned, spans written on the way).  For a
query the daemon's spans join the tree under the client's ``service``
span whose interval holds them.  Counts come from the manifests the
program writes (``--metrics-out``) and worker busy time from its event
stream (``--events``).
"""

from __future__ import annotations

import bisect
import json
import statistics
from typing import Dict, List, Optional, Tuple

from arith import Span, layer_paths, self_times, sum_by

#: Layer of each self-time metric.
TIME_METRICS = {
    "import.repro_s": "import.repro",
    "import.client_s": "import.client",
    "proc.startup_s": "proc.startup",
    "proc.teardown_s": "proc.teardown",
    "transport.s": "transport",
    "sram.s": "sram",
    "ser.build_s": "ser.build",
    "ser.mc_s": "ser.mc",
    "ser.fit_s": "ser.fit",
    "io.load_s": "io.load",
    "io.store_s": "io.store",
    "parallel.self_s": "parallel",
    "service.self_s": "service",
    "unattributed_s": "op",
}


class Events:
    """Worker busy time and worker counts of one process's event stream."""

    def __init__(self, path: Optional[str]):
        self._busy: Dict[str, Tuple[List[float], List[float]]] = {}
        self._workers: Dict[str, Tuple[List[float], List[int]]] = {}
        if path is None:
            return
        rows = []
        with open(path) as handle:
            for line in handle:
                try:
                    rows.append(json.loads(line))
                except ValueError:
                    continue
        rows.sort(key=lambda e: e.get("t_worker", e.get("t", 0.0)))
        for event in rows:
            label = event.get("label")
            when = event.get("t_worker", event.get("t", 0.0))
            if event.get("kind") == "progress" and event.get("state") == "finished":
                times, busy = self._busy.setdefault(label, ([], []))
                times.append(when)
                busy.append(float(event.get("busy_s", 0.0)))
            elif event.get("kind") == "round" and event.get("phase") == "start":
                times, workers = self._workers.setdefault(label, ([], []))
                times.append(when)
                workers.append(int(event.get("workers", 1)))

    def busy(self, label: str, w0: float, w1: float) -> Tuple[float, int]:
        """(summed task busy seconds, workers) of ``label``'s map in [w0, w1]."""
        times, busy = self._busy.get(label, ([], []))
        lo, hi = bisect.bisect_left(times, w0), bisect.bisect_right(times, w1)
        times_w, workers = self._workers.get(label, ([], []))
        wlo, whi = bisect.bisect_left(times_w, w0), bisect.bisect_right(times_w, w1)
        return sum(busy[lo:hi]), max(workers[wlo:whi], default=1)


def _spans_of(prefix: str, record: dict, events: Events, root: Optional[str], maps: list) -> List[Span]:
    spans = []
    for raw in record["spans"]:
        share = None
        if raw["layer"] == "parallel":
            busy, workers = events.busy(raw["label"], raw["w0"], raw["w1"])
            wall = raw["t1"] - raw["t0"]
            share = busy / (workers * wall) if wall > 0 else 0.0
            maps.append((wall, busy, workers))
        parent = f"{prefix}{raw['parent']}" if raw["parent"] is not None else root
        spans.append(Span(f"{prefix}{raw['id']}", parent, raw["layer"], raw["t0"], raw["t1"], share))
    return spans


def _manifest_sum(manifests: List[dict], section: str, key: str) -> float:
    total = 0.0
    for manifest in manifests:
        holder = manifest.get(section, {})
        if section == "metrics":
            holder = holder.get("counters", {})
        total += float(holder.get(key, 0) or 0)
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def analyze(ops: list, daemon: Optional[dict]) -> Tuple[Dict[str, float], List[dict]]:
    """Per-layer metrics (per op) and the layer-tree rows of a traced phase.

    ``ops`` are the phase's timed ops whose trace was read; ``daemon`` holds
    the traced daemon's ``trace``, ``manifest`` and ``events`` for a
    query phase, else ``None``.
    """
    spans: List[Span] = []
    maps: list = []
    raw_spans: List[dict] = []
    manifests = []
    service_rtt: Dict[str, List[float]] = {"hit": [], "miss": []}
    for i, op in enumerate(ops):
        record, done = op.trace, op.done
        root = f"o{i}"
        spans.append(Span(root, None, "op", done.t0, done.t1))
        spans.append(Span(f"{root}s", root, "proc.startup", done.t0, record["t_enter"]))
        spans.append(Span(f"{root}e", root, "proc.teardown", record["t_main1"], done.t1))
        spans.extend(_spans_of(f"{root}.", record, Events(op.events), root, maps))
        raw_spans.extend(record["spans"])
        for raw in record["spans"]:
            if raw["layer"] == "service":
                service_rtt[op.kind].append(raw["t1"] - raw["t0"])
        if op.manifest is not None:
            manifests.append(op.manifest)
    if daemon is not None:
        services = [span for span in spans if span.layer == "service"]
        daemon_spans = _spans_of("d.", daemon["trace"], Events(daemon["events"]), None, maps)
        for span in daemon_spans:
            if span.parent is None:
                span.parent = next(
                    (s.id for s in services if s.t0 <= span.t0 <= s.t1), "orphan"
                )
        kept = _attached(daemon_spans)
        spans.extend(kept)
        kept_ids = {span.id for span in kept}
        raw_spans.extend(raw for raw in daemon["trace"]["spans"] if f"d.{raw['id']}" in kept_ids)
        manifests.append(daemon["manifest"])

    own = self_times(spans)
    by_layer = sum_by(spans, own, lambda span: span.layer)
    n_ops = len(ops)
    metrics = {name: by_layer.get(layer, 0.0) / n_ops for name, layer in TIME_METRICS.items()}

    def io(layer):
        hits = [raw for raw in raw_spans if raw["layer"] == layer]
        return len(hits) / n_ops, sum(raw.get("bytes", 0) for raw in hits) / n_ops

    metrics["io.loads"], metrics["io.load_bytes"] = io("io.load")
    metrics["io.stores"], metrics["io.store_bytes"] = io("io.store")
    cache_hits = _manifest_sum(manifests, "lut_cache", "hits")
    metrics["io.hit_frac"] = _ratio(cache_hits, cache_hits + _manifest_sum(manifests, "lut_cache", "misses"))

    trials = _manifest_sum(manifests, "mc", "transport_trials")
    metrics["transport.trials"] = trials / n_ops
    metrics["transport.trials_per_s"] = _ratio(trials, by_layer.get("transport", 0.0))
    metrics["transport.fin_hit_frac"] = _ratio(_manifest_sum(manifests, "metrics", "transport.fin_hits"), trials)

    sims = _manifest_sum(manifests, "metrics", "characterize.cell_sims")
    metrics["sram.cell_sims"] = sims / n_ops
    metrics["sram.sims_per_s"] = _ratio(sims, by_layer.get("sram", 0.0))
    metrics["sram.early_exit_frac"] = _ratio(
        _manifest_sum(manifests, "metrics", "characterize.kernel.early_exit.frozen"), sims
    )

    rays = _manifest_sum(manifests, "mc", "array_particles")
    hits = _manifest_sum(manifests, "mc", "array_hits")
    metrics["ser.trials"] = rays / n_ops
    metrics["ser.trials_per_s"] = _ratio(rays, by_layer.get("ser.mc", 0.0))
    metrics["ser.hit_frac"] = _ratio(hits, rays)
    metrics["ser.strikes_per_hit"] = _ratio(_manifest_sum(manifests, "mc", "fin_strikes"), hits)

    map_wall = sum(wall for wall, _, _ in maps)
    busy = sum(b for _, b, _ in maps)
    metrics["parallel.maps"] = len(maps) / n_ops
    metrics["parallel.map_s"] = map_wall / n_ops
    metrics["parallel.busy_s"] = busy / n_ops
    metrics["parallel.efficiency"] = _ratio(busy, sum(wall * k for wall, _, k in maps))
    for name, section, key in (
        ("parallel.pools_created", "parallel", "pools_created"),
        ("parallel.pools_reused", "parallel", "pools_reused"),
        ("parallel.shm_bytes", "parallel", "shm_bytes"),
        ("parallel.payload_hits", "parallel", "worker_payload_hits"),
        ("parallel.retried", "fault_tolerance", "retried_shards"),
        ("parallel.lost", "fault_tolerance", "lost_shards"),
        ("service.requests", "service", "requests"),
        ("service.memo_hits", "service", "memo_hits"),
        ("service.campaigns", "service", "campaigns"),
    ):
        metrics[name] = _manifest_sum(manifests, section, key) / n_ops
    metrics["service.memo_hit_frac"] = _ratio(metrics["service.memo_hits"], metrics["service.requests"])
    for kind in ("hit", "miss"):
        rtts = service_rtt[kind]
        metrics[f"service.rtt_{kind}_s"] = statistics.median(rtts) if rtts else 0.0
    return metrics, _tree(spans, own, n_ops)


def _attached(spans: List[Span]) -> List[Span]:
    """Drop daemon spans that ran outside every client request."""
    by_id = {span.id: span for span in spans}

    def rooted(span):
        while span.parent in by_id:
            span = by_id[span.parent]
        return span.parent != "orphan"

    return [span for span in spans if rooted(span)]


def _tree(spans: List[Span], own: Dict[str, float], n_ops: int) -> List[dict]:
    """Rows of the layer tree: per path, spans per op, total and self s/op."""
    paths = layer_paths(spans)
    rows: Dict[str, dict] = {}
    for span in spans:
        row = rows.setdefault(paths[span.id], {"path": paths[span.id], "count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own.get(span.id, 0.0)
    for row in rows.values():
        row["count"] /= n_ops
        row["total_s"] /= n_ops
        row["self_s"] /= n_ops
    # the op's own self time is the wall no layer accounts for
    op = rows["op"]
    unattributed = {"path": "op/unattributed", "count": op["count"], "total_s": op["self_s"], "self_s": op["self_s"]}
    op["self_s"] = 0.0
    return [rows[path] for path in sorted(rows)] + [unattributed]


def render_tree(rows: List[dict]) -> str:
    """The layer tree as indented text, self time per op first."""
    lines = [f"{'self s/op':>10} {'total s/op':>10} {'spans/op':>9}  layer"]
    for row in rows:
        depth = row["path"].count("/")
        name = row["path"].rsplit("/", 1)[-1]
        lines.append(
            f"{row['self_s']:10.4f} {row['total_s']:10.4f} {row['count']:9.2f}  {'  ' * depth}{name}"
        )
    return "\n".join(lines)
