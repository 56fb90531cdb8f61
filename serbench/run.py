"""End-to-end benchmark of the SER flow: real ``repro-ser`` processes, split by layer.

Run from the repository root::

    python3 serbench/run.py --workload sweep-cold --seed 1 --seconds 20 --trace 0

Workloads (sizes in ``workloads.py``; why each exists in ``BENCHMARK.json``):

* ``sweep-cold`` -- ``sweep --jobs 1`` on an empty cache: every paper level
  runs serially; cell characterization dominates.
* ``sweep-warm`` -- ``sweep --jobs 2`` with the device and cell LUTs built
  in set-up by ``build-luts``: array MC, pools and cache loads do the work.
* ``query`` -- ``repro-ser query`` clients, one at a time, against a
  ``serve --jobs 2`` daemon: memo hits are import-bound, misses run only
  the array MC inside the daemon.

An op is one ``repro-ser`` process: a *miss* computes its answer, a
*hit* is answered from a cache (see ``workloads.py``).  End-to-end
metrics, measured with tracing off:

* ``setup_s`` -- median of three set-ups (``build-luts``; daemon start
  to the reply to its first query; for ``sweep-cold``, which has no
  set-up of its own, a ``repro-ser --version`` readiness probe);
* ``wall_s`` / ``cpu_s`` -- mean wall time and user+sys CPU per timed
  op, the CPU of every process (daemon and workers included).  On the
  sweeps only misses are timed, the sweeps that compute; on ``query``
  hits and misses both are;
* ``peak_rss_mb`` -- the largest max-RSS of any process in the run;
* ``ok_frac`` -- share of ops that passed every output check (one minus
  the failed fraction, so that the metric is never 0);
* ``hit.latency_p50_s`` / ``miss.latency_p50_s`` -- median op latency
  per kind.  No tail latency is reported: a run of this length holds a
  handful of ops of each kind, too few for a percentile above the
  median with ten samples beyond it.

``--trace 0`` measures with tracing off and prints the end-to-end
metrics.  ``--trace 1`` runs half the time untraced and half traced
(``tracer.py`` wraps the flow's entry points in every op process) and
prints the per-layer metrics of the timed ops, the layer tree and the
tracing overhead.  The last line of standard output is the JSON result;
the run's record (environment, failures, layer tree) is also written under
``.serbench-run/reports/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
from importlib import metadata

import layers
import procs
from arith import check_name, check_unit
from workloads import WORKLOADS, Context, SetupError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
KINDS = ("hit", "miss")


def environment(workload, seed: int, ctx: Context) -> dict:
    """What the numbers depend on, recorded with every result."""
    usable = len(os.sched_getaffinity(0))
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": workload.name,
        "workload_seed": seed,
        "program_seed": ctx.program_seed,
        "jobs": workload.jobs,
        "usable_cpus": usable,
        "valid": workload.jobs <= usable,
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
    }


def _walls(phase, kind):
    return [op.done.wall_s for op in phase.ops if op.kind == kind]


def end_to_end(ctx: Context, setups, phase):
    timed = phase.timed_ops()
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(op.done.wall_s for op in timed),
        "cpu_s": phase.cpu_s / len(timed),
        "peak_rss_mb": ctx.peak_rss_mb,
        "ok_frac": 1.0 - ctx.ledger.failed_frac,
    }
    for kind in KINDS:
        metrics[f"{kind}.latency_p50_s"] = statistics.median(_walls(phase, kind))
    return metrics


def per_layer(untraced, traced):
    ops = [op for op in traced.timed_ops() if op.trace is not None]
    if not ops:
        raise SetupError("no traced op completed")
    metrics, tree = layers.analyze(ops, traced.daemon)
    overhead = 0.0
    for kind in traced.timed:
        slow, fast = _walls(traced, kind), _walls(untraced, kind)
        if slow and fast:
            share = len(slow) / len(traced.timed_ops())
            overhead += share * (statistics.median(slow) - statistics.median(fast))
    metrics["trace.overhead_s"] = overhead
    return metrics, tree


def check_layer_map(bench: dict, layer_map: dict):
    """Every per-layer metric sits in one layer of the map, and the map
    names only end-to-end metrics and workloads that exist."""
    mapped = [name for layer in layer_map.values() for name in layer["metrics"]]
    declared = [m["name"] for m in bench["per_layer"]]
    if sorted(mapped) != sorted(declared):
        raise ValueError("layer_map.json and BENCHMARK.json list different per-layer metrics")
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for layer in layer_map.values():
        for workload, moved in layer["moves"].items():
            if workload not in workloads or not set(moved) <= e2e:
                raise ValueError(f"layer_map.json moves unknown {workload}: {moved}")


def result_metrics(metrics: dict, declared: list) -> dict:
    """The metrics as printed, checked against the declared names and units."""
    if set(metrics) != {m["name"] for m in declared}:
        raise ValueError(f"metrics {sorted(metrics)} differ from the declared ones")
    out = {}
    for spec in declared:
        value = float(metrics[check_name(spec["name"])])
        if not math.isfinite(value):
            raise ValueError(f"{spec['name']} is not finite")
        out[spec["name"]] = {"value": value, "unit": check_unit(spec["unit"])}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(source, "cli.py")):
        print(f"serbench: no program sources at {source}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layer_map.json")) as handle:
        layer_map = json.load(handle)
    check_layer_map(bench, layer_map)
    if not compileall.compile_dir(source, quiet=1):
        print("serbench: byte-compiling the sources failed", file=sys.stderr)
        return 2
    procs.become_subreaper()
    # a terminated run still stops its daemon and reaps its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workdir = os.path.abspath(os.path.join(".serbench-run", f"{args.workload}-{args.seed}-{os.getpid()}"))
    os.makedirs(workdir)
    ctx = Context(ROOT, workdir, args.seed)
    workload = WORKLOADS[args.workload]()
    env = environment(workload, args.seed, ctx)
    record = {"environment": env}
    try:
        if args.trace:
            workload.setup(ctx)
            untraced = workload.phase(ctx, args.seconds / 2, traced=False, fresh=True)
            traced = workload.phase(ctx, args.seconds / 2, traced=True)
            metrics, record["layer_tree"] = per_layer(untraced, traced)
            declared = bench["per_layer"]
        else:
            setups = [workload.setup(ctx) for _ in range(SETUP_REPS)]
            phase = workload.phase(ctx, args.seconds, traced=False)
            metrics = end_to_end(ctx, setups, phase)
            record["setups_s"] = setups
            record["ops"] = [
                {"kind": op.kind, "wall_s": op.done.wall_s, "cpu_s": op.done.cpu_s} for op in phase.ops
            ]
            declared = bench["end_to_end"]
    except SetupError as exc:
        print(f"serbench: {args.workload} could not run: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close(ctx)
        procs.reap_orphans()
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": ctx.ledger.failed == 0 and env["valid"],
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        "metrics": result_metrics(metrics, declared),
    }
    record.update(result=result, failures=ctx.ledger.failures)
    reports = os.path.join(".serbench-run", "reports")
    os.makedirs(reports, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(reports, name), "w") as handle:
        json.dump(record, handle, indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    if not env["valid"]:
        print(f"INVALID: --jobs {env['jobs']} exceeds {env['usable_cpus']} usable CPUs")
    for failure in ctx.ledger.failures:
        print("FAILED " + failure)
    if "layer_tree" in record:
        print(layers.render_tree(record["layer_tree"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
