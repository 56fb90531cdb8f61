"""Telemetry-overhead gate for the campaign phase of a flow sweep.

Times the campaign phase of a flow-level sweep -- every ``fit`` of a
(particle, vdd) grid, each fanning its energy-bin campaigns across the
leased worker pool -- twice: bare (metrics only), and with the full
observability plane live (event bus streaming worker progress and
heartbeats, plus span tracing).  Cell characterization and simulator
construction are deterministic shared prep and run before the clock
starts (with a cache directory they are loaded from disk in
production anyway).

Appends one run entry to a JSON trajectory artifact.

Usage (CI runs the tiny scale with a 25% allowance for shared
runners)::

    PYTHONPATH=src python benchmarks/perf/bench_flow.py \
        --scale tiny --check --max-overhead 0.25 \
        --out BENCH_flow_telemetry.json

``--check`` asserts bit-identical fits with telemetry on and off, that
the sweep reused a leased pool, that workers served campaigns from the
fingerprint-cached payload, and that telemetry stays within the
``--max-overhead`` budget.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import FlowConfig, SerFlow
from repro.obs.events import configure_events, disable_events
from repro.obs.registry import disable_metrics, enable_metrics
from repro.obs.trace import configure_tracing, reset_tracing
from repro.parallel import get_lease, get_pack
from repro.sram import CharacterizationConfig

SCALES = {
    # ISSUE floor: >= 2 particles x >= 2 Vdd x >= 4 energy bins, jobs >= 2.
    "tiny": dict(
        vdds=(0.7, 0.8, 0.9, 1.1),
        bins=4,
        particles_per_bin=200,
        rows=12,
        char_samples=150,
    ),
    "small": dict(
        vdds=(0.7, 0.8, 0.9, 1.1),
        bins=6,
        particles_per_bin=2000,
        rows=12,
        char_samples=150,
    ),
    "full": dict(
        vdds=(0.7, 0.8, 0.9, 1.0, 1.1),
        bins=8,
        particles_per_bin=20000,
        rows=16,
        char_samples=200,
    ),
}


def make_config(scale) -> FlowConfig:
    """A direct-deposition sweep config (no LUT build on the hot path)."""
    return FlowConfig(
        particles=("alpha", "proton"),
        vdd_list=scale["vdds"],
        n_energy_bins=scale["bins"],
        mc_particles_per_bin=scale["particles_per_bin"],
        array_rows=scale["rows"],
        array_cols=scale["rows"],
        deposition_mode="direct",
        process_variation=True,
        characterization=CharacterizationConfig(
            n_charge_points=9,
            n_samples=scale["char_samples"],
            max_pair_points=4,
            max_triple_points=3,
            seed=5,
        ),
        seed=2014,
    )


def _reset_engine(flow: SerFlow):
    """Back to a cold engine: no leased pools, no segments, no packs."""
    get_lease().shutdown_all()
    get_pack().release_all()
    flow._campaign_pack = None


def bench_mode(flow: SerFlow, reps: int, *, telemetry_dir=None):
    """Min-of-``reps`` campaign-phase timing.

    Every rep starts from a cold engine, so pool reuse is what the
    sweep earns *within* one run's worth of fits -- the realistic shape
    of a CLI invocation.  Returns the last rep's fits, the best wall
    time, and the last rep's metrics counters.

    With ``telemetry_dir``, the full observability plane is live for
    every timed rep: the event bus streams worker progress/heartbeats
    to ``events.jsonl`` and spans to ``trace.jsonl``.
    """
    grid = [
        (p, float(v))
        for p in flow.config.particles
        for v in flow.config.vdd_list
    ]
    fits, best, counters = None, float("inf"), {}
    try:
        for _ in range(reps):
            _reset_engine(flow)
            registry = enable_metrics(fresh=True)
            if telemetry_dir is not None:
                configure_events(Path(telemetry_dir) / "events.jsonl")
                configure_tracing(Path(telemetry_dir) / "trace.jsonl")
            try:
                t0 = time.perf_counter()
                fits = [flow.fit(p, v) for p, v in grid]
                seconds = time.perf_counter() - t0
                counters = registry.snapshot()["counters"]
            finally:
                if telemetry_dir is not None:
                    disable_events()
                    reset_tracing()
                disable_metrics()
            best = min(best, seconds)
    finally:
        _reset_engine(flow)
    return fits, best, counters


def assert_fits_identical(a, b):
    assert len(a) == len(b)
    for fit_a, fit_b in zip(a, b):
        key = (fit_a.particle_name, fit_a.vdd_v)
        for attr in ("fit_total", "fit_seu", "fit_mbu"):
            va, vb = getattr(fit_a, attr), getattr(fit_b, attr)
            assert va == vb, f"{key} {attr}: {va} != {vb}"
        assert np.array_equal(fit_a.pof_per_bin, fit_b.pof_per_bin), (
            f"{key} pof_per_bin differs"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        default="tiny",
        choices=sorted(SCALES),
        help="problem size (tiny = CI smoke)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker count for every pooled map (default: 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="repetitions per mode; min is reported (default: 3)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert bit-identical fits, pool reuse, payload-cache hits "
        "and the overhead budget",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=0.05,
        help="with --check, fail if telemetry costs more than this "
        "fraction of wall time (default: 0.05)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_flow_telemetry.json",
        help="trajectory artifact to append this run to",
    )
    args = parser.parse_args(argv)
    if args.jobs < 2:
        parser.error("--jobs must be >= 2 (pooled maps are the subject)")

    scale = SCALES[args.scale]
    config = make_config(scale)
    n_maps = len(config.particles) * len(config.vdd_list)
    print(
        f"scale={args.scale} jobs={args.jobs} reps={args.reps} "
        f"({len(config.particles)} particles x {len(config.vdd_list)} vdd "
        f"x {config.n_energy_bins} bins = {n_maps} campaign maps/sweep)"
    )

    flow = SerFlow(config=config, cache_dir=None, n_jobs=args.jobs)
    t0 = time.perf_counter()
    flow.simulator()  # characterization + layout: shared deterministic prep
    print(f"prep (characterize + simulator build): {time.perf_counter()-t0:.1f}s")

    bare_fits, bare_s, counters = bench_mode(flow, args.reps)
    with tempfile.TemporaryDirectory(prefix="bench_obs_") as obs_dir:
        tele_fits, tele_s, _ = bench_mode(
            flow, args.reps, telemetry_dir=obs_dir
        )
        events_bytes = (Path(obs_dir) / "events.jsonl").stat().st_size
    overhead = tele_s / bare_s - 1.0 if bare_s > 0 else 0.0

    pools_reused = counters.get("parallel.pool.reused", 0)
    payload_hits = counters.get("parallel.shm.payload_hits", 0)
    print(
        f"bare-run counters: pools_created="
        f"{counters.get('parallel.pool.created', 0)} "
        f"pools_reused={pools_reused} "
        f"shm_segments={counters.get('parallel.shm.segments', 0)} "
        f"shm_bytes={counters.get('parallel.shm.bytes', 0)} "
        f"worker_payload_hits={payload_hits}"
    )
    print(
        f"telemetry plane (events + trace): {tele_s:.3f}s vs "
        f"{bare_s:.3f}s bare ({overhead:+.1%}, "
        f"{events_bytes} event bytes over {args.reps} reps)"
    )

    if args.check:
        assert_fits_identical(bare_fits, tele_fits)
        assert pools_reused > 0, "the sweep never reused a pool"
        assert payload_hits > 0, (
            "workers never served a campaign from the payload cache"
        )
        assert overhead <= args.max_overhead, (
            f"telemetry overhead {overhead:+.1%} above "
            f"{args.max_overhead:.0%} budget"
        )
        print(
            "checks passed (fits bit-identical with telemetry on, "
            f"overhead <= {args.max_overhead:.0%})"
        )

    entry = {
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "scale": args.scale,
        "jobs": args.jobs,
        "reps": args.reps,
        "checked": bool(args.check),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "timings_s": {"bare": bare_s, "telemetry": tele_s},
        "overhead": overhead,
        "events_bytes": events_bytes,
        "counters": {
            "pools_created": counters.get("parallel.pool.created", 0),
            "pools_reused": pools_reused,
            "shm_segments": counters.get("parallel.shm.segments", 0),
            "shm_bytes": counters.get("parallel.shm.bytes", 0),
            "worker_payload_hits": payload_hits,
        },
    }
    out = Path(args.out)
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"trajectory appended to {out} ({len(history)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
