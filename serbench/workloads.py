"""The three workloads and the output checks applied to every op.

Every op is one ``repro-ser`` process and is either a *miss* (the
answer is computed) or a *hit* (the answer comes from a cache: the
sweep artifact on disk, or the daemon's memo).  A phase runs blocks of
one miss then ``HITS_PER_MISS`` hits, in a closed loop, while the next
block would still end in its time.

Which ops ``wall_s`` and ``cpu_s`` average is the phase's ``timed``
kinds.  A sweep workload is defined by the sweep that computes, so only
its misses are timed; its hits re-run the same command against the
stored artifact so that ``hit.*`` exists and the cached table is
checked, and weigh nothing in ``wall_s`` or ``cpu_s``.  On ``query``
both kinds are the daemon's traffic and both are timed.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import procs
from arith import Ledger

PARTICLES = ("alpha", "proton")
#: ``build-luts`` has no ``--vdd-list``: it always builds this list.
VDD_DEFAULT = (0.7, 0.8, 0.9, 1.0, 1.1)
OP_TIMEOUT_S = 120.0
#: One repeat per computed spec.  No record of this service's traffic
#: exists to set another mix, so each spec the daemon computes is asked
#: for exactly once more: every memo entry is read once, and ``query``
#: runs as many hits as misses.  The sweeps use the same blocks.
HITS_PER_MISS = 1

#: Problem sizes; the LUT sizes of ``sweep-warm`` and ``query`` match so
#: their setups share the ``build-luts`` command line.
COLD_VDDS = (0.7, 0.9, 1.1)
COLD_SIZE = ["--samples", "60", "--yield-trials", "6000", "--mc-particles", "2500"]
LUT_SIZE = ["--samples", "20", "--yield-trials", "2000"]
WARM_MC = 6000
QUERY_MC = 2000
#: Misses add a distinct offset in [1, QUERY_MC_SPREAD] to ``QUERY_MC``.
QUERY_MC_SPREAD = 64


@dataclass
class Op:
    kind: str
    done: procs.Done
    traced: bool = False
    trace: Optional[dict] = None
    manifest: Optional[dict] = None
    events: Optional[str] = None


@dataclass
class Phase:
    #: Kinds of op that ``wall_s``, ``cpu_s`` and the layer split cover.
    timed: Tuple[str, ...]
    ops: List[Op] = field(default_factory=list)
    #: CPU of the timed ops, the daemon's included.
    cpu_s: float = 0.0
    daemon: Optional[dict] = None

    def timed_ops(self) -> List[Op]:
        return [op for op in self.ops if op.kind in self.timed]


class Context:
    """State of one benchmark run: paths, environment, failures, peak RSS."""

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        self.workdir = workdir
        self.env = procs.child_env(root)
        self.rng = random.Random(seed)
        self.program_seed = self.rng.randrange(1, 2**31)
        self.ledger = Ledger()
        self.peak_rss_mb = 0.0
        self._count = 0

    def path(self, name: str) -> str:
        self._count += 1
        return os.path.join(self.workdir, f"{self._count:04d}-{name}")

    def fresh_dir(self, name: str) -> str:
        path = self.path(name)
        os.makedirs(path)
        return path

    def argv(self, args: List[str], traced: bool, role: str, tag: str) -> tuple:
        """Command line of one child, plus the trace files it will write."""
        if not traced:
            return [sys.executable, "-m", "repro", *args], None
        files = {key: self.path(f"{tag}.{key}") for key in ("spans", "manifest", "events")}
        argv = [
            sys.executable, os.path.join(self.root, "serbench", "tracer.py"),
            files["spans"], role, *args,
            "--metrics-out", files["manifest"], "--events", files["events"],
        ]
        return argv, files

    def run(self, args: List[str], cwd: str, tag: str, kind: str = "setup",
            traced: bool = False, role: str = "flow") -> Op:
        argv, files = self.argv(args, traced, role, tag)
        done = procs.run(argv, cwd, self.env, self.path(tag), OP_TIMEOUT_S)
        self.peak_rss_mb = max(self.peak_rss_mb, done.maxrss_mb)
        op = Op(kind, done, traced)
        if traced and done.rc == 0:
            op.trace = _read_json(files["spans"])
            op.manifest = _read_json(files["manifest"])
            op.events = files["events"] if os.path.exists(files["events"]) else None
        return op

    def record(self, label: str, op: Op, problems: List[str]) -> bool:
        if op.done.rc != 0:
            problems = [f"exit {op.done.rc}: {op.done.stderr_tail()}"] + problems
        elif op.traced and (op.trace is None or op.manifest is None):
            problems = ["trace files missing"] + problems
        return self.ledger.record(label, problems)


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


# -- output checks --------------------------------------------------------------


def case_problems(cases: List[dict], vdds) -> List[str]:
    """Every (particle, Vdd) case present, finite and not degraded, and
    the one paper finding that holds by a wide margin at these sizes:
    alpha FIT falls from the lowest to the highest Vdd (F2; the ratio
    is about 4 over 0.7-1.1 V).  Proton FIT and the MBU/SEU ordering
    (F3) rest on a few rare proton events at these trial counts: one
    proton MBU in a low-energy bin can lift its MBU/SEU above alpha's,
    so checking them here would fail correct runs.
    """
    problems = []
    table = {(case["particle"], round(float(case["vdd"]), 6)): case for case in cases}
    for particle in PARTICLES:
        for vdd in vdds:
            case = table.get((particle, round(vdd, 6)))
            if case is None:
                problems.append(f"missing case {particle}@{vdd}")
                continue
            values = [case.get(key) for key in ("fit_total", "fit_seu", "fit_mbu")]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) and v >= 0 for v in values):
                problems.append(f"non-finite FIT {particle}@{vdd}: {values}")
            if case.get("degraded"):
                problems.append(f"degraded case {particle}@{vdd}")
    if not problems:
        low, high = (table[("alpha", round(v, 6))]["fit_total"] for v in (min(vdds), max(vdds)))
        if not low > high:
            problems.append("F2: alpha FIT does not fall from lowest to highest Vdd")
    return problems


#: Artifact kinds of the device and cell LUTs in a cache directory.
LUT_KINDS = ["pof", "yield-alpha", "yield-proton"]


def lut_problems(cache: str, ignore=()) -> List[str]:
    """The cache holds exactly the device and cell artifacts, besides
    sweep artifacts and the names in ``ignore``.  Checked after every
    miss, so that a miss whose LUT key stopped matching the set-up's
    (and rebuilt the LUTs instead of loading them) fails."""
    names = sorted(name for name in os.listdir(cache) if not name.startswith("sweep-") and name not in ignore)
    if sorted(name.rsplit("-", 1)[0] for name in names) == LUT_KINDS:
        return []
    return [f"unexpected LUT cache {names}"]


def lut_cache_misses(manifest: Optional[dict]) -> int:
    return int((manifest or {}).get("lut_cache", {}).get("misses", -1))


def blocks(seconds: float):
    """Yield once per block while the next block, as long as the last one,
    still ends within ``seconds``; always at least once."""
    start = time.monotonic()
    while True:
        began = time.monotonic()
        yield
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return


def _report_lines(text: str) -> List[str]:
    """Result lines of a command's output, without the 'written to' notices."""
    return [line for line in text.splitlines() if " written to " not in line]


# -- sweeps -------------------------------------------------------------------------


class Sweep:
    """``repro-ser sweep`` processes; each miss is followed by hits that
    re-run the identical command against the artifact the miss stored."""

    def __init__(self, name: str, jobs: int, vdds, size: List[str], warm: bool):
        self.name = name
        self.jobs = jobs
        self.vdds = vdds
        self.size = size
        self.warm = warm
        self.cache: Optional[str] = None
        self.reference: Optional[dict] = None

    def setup(self, ctx: Context) -> float:
        """One set-up: ``build-luts`` into a fresh cache (warm), or a
        readiness probe of the interpreter and CLI (cold, which has no
        set-up of its own)."""
        if not self.warm:
            op = ctx.run(["--version"], ctx.workdir, "probe")
            problems = [] if op.done.stdout().startswith("repro-ser ") else ["bad --version output"]
            _require(ctx.record("probe", op, problems), ctx)
            return op.done.wall_s
        cache = ctx.fresh_dir("luts")
        op = ctx.run(
            ["build-luts", "--jobs", str(self.jobs), "--cache-dir", cache, "--quiet",
             *LUT_SIZE, "--seed", str(ctx.program_seed)],
            ctx.workdir, "build-luts",
        )
        _require(ctx.record("build-luts", op, lut_problems(cache) if op.done.rc == 0 else []), ctx)
        if self.cache is not None:
            shutil.rmtree(self.cache)
        self.cache = cache
        return op.done.wall_s

    def phase(self, ctx: Context, seconds: float, traced: bool, fresh: bool = False) -> Phase:
        """Blocks of a miss and its hits; ``fresh`` changes nothing, as
        every sweep op is a new process."""
        phase = Phase(timed=("miss",))
        args = ["sweep", "--jobs", str(self.jobs), "--vdd-list", ",".join(f"{v:g}" for v in self.vdds),
                *self.size, "--seed", str(ctx.program_seed)]
        for _ in blocks(seconds):
            cache = self.cache if self.warm else ctx.fresh_dir("cache")
            command = [*args, "--cache-dir", cache]
            miss = ctx.run(command, ctx.workdir, "miss", "miss", traced)
            sweep = _sweep_artifact(cache) if miss.done.rc == 0 else None
            problems = ["no sweep artifact stored"] if sweep is None else case_problems(sweep["results"], self.vdds)
            if miss.done.rc == 0:
                problems += lut_problems(cache)
            if self.warm and miss.manifest is not None and lut_cache_misses(miss.manifest) != 1:
                # only the sweep artifact itself may miss; the LUTs come from set-up
                problems.append(f"lut_cache.misses={lut_cache_misses(miss.manifest)}, expected 1")
            if sweep is not None and not problems:
                if self.reference is None:
                    self.reference = sweep
                elif sweep != self.reference:
                    problems.append("FITs differ from an earlier identical sweep")
            ctx.record(f"{self.name} miss", miss, problems)
            phase.ops.append(miss)
            for _ in range(HITS_PER_MISS):
                hit = ctx.run(command, ctx.workdir, "hit", "hit", traced)
                problems = []
                if hit.done.rc == 0 and _report_lines(hit.done.stdout()) != _report_lines(miss.done.stdout()):
                    problems.append("cached sweep prints another table than the computed one")
                ctx.record(f"{self.name} hit", hit, problems)
                phase.ops.append(hit)
            if self.warm:
                for name in os.listdir(cache):
                    if name.startswith("sweep-"):
                        os.unlink(os.path.join(cache, name))
            else:
                shutil.rmtree(cache)
        phase.cpu_s = sum(op.done.cpu_s for op in phase.timed_ops())
        return phase

    def close(self, ctx: Context):
        """Nothing outlives a sweep op; its caches sit in the run directory."""


def _sweep_artifact(cache: str) -> Optional[dict]:
    names = [name for name in os.listdir(cache) if name.startswith("sweep-") and name.endswith(".json")]
    return _read_json(os.path.join(cache, names[0])) if len(names) == 1 else None


# -- the daemon --------------------------------------------------------------------------


class Query:
    """``repro-ser query`` processes against one ``repro-ser serve --jobs 2``.

    Misses ask for a ``--mc-particles`` the daemon has not seen, so the
    LUT keys stay fixed and only the array MC runs; hits repeat a spec
    already served, chosen by the workload seed.
    """

    name = "query"
    jobs = 2

    def __init__(self):
        self.template: Optional[str] = None
        self.daemon: Optional[procs.Daemon] = None
        self.files: Optional[dict] = None
        self.served: Dict[int, dict] = {}
        self.offsets: List[int] = []

    def _luts(self, ctx: Context) -> str:
        if self.template is None:
            self.template = ctx.fresh_dir("luts")
            op = ctx.run(
                ["build-luts", "--jobs", str(self.jobs), "--cache-dir", self.template, "--quiet",
                 *LUT_SIZE, "--seed", str(ctx.program_seed)],
                ctx.workdir, "build-luts",
            )
            _require(ctx.record("build-luts", op, lut_problems(self.template) if op.done.rc == 0 else []), ctx)
            self.offsets = ctx.rng.sample(range(1, QUERY_MC_SPREAD + 1), QUERY_MC_SPREAD)
        return self.template

    def _start(self, ctx: Context, traced: bool) -> procs.Daemon:
        home = ctx.fresh_dir("svc")
        for name in os.listdir(self._luts(ctx)):
            shutil.copy(os.path.join(self.template, name), home)
        args = ["serve", "--socket", "ser.sock", "--cache-dir", ".", "--jobs", str(self.jobs), "--quiet"]
        argv, files = ctx.argv(args, traced, "flow", "serve")
        daemon = procs.Daemon(argv, home, ctx.env, ctx.path("serve"), "ser.sock")
        self.files = files
        self.served = {}
        try:
            daemon.wait_ready(60.0)
        except RuntimeError as exc:
            daemon.stop()
            raise SetupError(str(exc)) from None
        return daemon

    def _stop(self, ctx: Context) -> Optional[dict]:
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return None
        cpu, rss = procs.tree_usage(daemon.proc.pid) if daemon.rc is None else (0.0, 0.0)
        clean = daemon.stop()
        ctx.peak_rss_mb = max(ctx.peak_rss_mb, rss, daemon.maxrss_mb)
        if not clean:
            ctx.ledger.record("serve", [f"daemon did not shut down cleanly: {daemon.stderr_tail()}"])
            return None
        if self.files is None:
            return None
        trace, manifest = _read_json(self.files["spans"]), _read_json(self.files["manifest"])
        if trace is None or manifest is None:
            ctx.ledger.record("serve", ["daemon trace files missing"])
            return None
        campaigns = int(manifest.get("service", {}).get("campaigns", -1))
        if lut_cache_misses(manifest) != campaigns:
            # each campaign may miss only its own sweep artifact
            ctx.ledger.record("serve", [f"lut_cache.misses={lut_cache_misses(manifest)} for {campaigns} campaigns"])
        return {"trace": trace, "manifest": manifest, "events": self.files["events"]}

    def _query(self, ctx: Context, mc: int, kind: str, traced: bool) -> Op:
        args = ["query", "--socket", "ser.sock", *LUT_SIZE, "--mc-particles", str(mc),
                "--seed", str(ctx.program_seed), "--json"]
        op = ctx.run(args, os.path.dirname(self.daemon.socket_path), kind, kind, traced, "client")
        problems: List[str] = []
        if op.done.rc == 0:
            source, result = _parse_query(op.done.stdout())
            expected = "memo" if kind == "hit" else "campaign"
            if result is None:
                problems.append("no JSON result printed")
            elif source != expected:
                problems.append(f"source={source}, expected {expected}")
            elif kind == "miss":
                problems += case_problems(result["cases"], VDD_DEFAULT)
                problems += lut_problems(os.path.dirname(self.daemon.socket_path), ignore=("ser.sock",))
                self.served[mc] = result
            elif _without_source(result) != _without_source(self.served[mc]):
                problems.append("memo hit differs from the miss that produced it")
        ctx.record(f"query {kind} mc={mc}", op, problems)
        return op

    def _next_mc(self) -> int:
        offset = self.offsets.pop(0)
        self.offsets.append(offset + QUERY_MC_SPREAD)
        return QUERY_MC + offset

    def setup(self, ctx: Context) -> float:
        """One set-up: a daemon on a fresh copy of the LUTs, from its start
        to the reply to its first query (a miss, which seeds the memo)."""
        self._stop(ctx)
        self.daemon = self._start(ctx, traced=False)
        first = self._query(ctx, self._next_mc(), "miss", traced=False)
        if first.done.rc != 0 or not self.served:
            self._stop(ctx)
            raise SetupError(f"first query failed: {ctx.ledger.failures[-1:]}")
        return first.done.t1 - self.daemon.t0

    def phase(self, ctx: Context, seconds: float, traced: bool, fresh: bool = False) -> Phase:
        """Blocks of a miss and its hits on the set-up daemon, or, when
        ``fresh``, on a new daemon whose memo starts empty.  A traced
        phase is always fresh; the untraced half of a traced run is made
        fresh too, so that both halves pay the same daemon cold start."""
        phase = Phase(timed=("hit", "miss"))
        if traced or fresh:
            self._stop(ctx)
            self.daemon = self._start(ctx, traced)
        cpu0 = procs.tree_usage(self.daemon.proc.pid)[0]
        for _ in blocks(seconds):
            phase.ops.append(self._query(ctx, self._next_mc(), "miss", traced))
            if not self.served:
                break
            for _ in range(HITS_PER_MISS):
                repeat = ctx.rng.choice(sorted(self.served))
                phase.ops.append(self._query(ctx, repeat, "hit", traced))
        cpu1 = procs.tree_usage(self.daemon.proc.pid)[0]
        phase.cpu_s = cpu1 - cpu0 + sum(op.done.cpu_s for op in phase.ops)
        phase.daemon = self._stop(ctx)
        return phase

    def close(self, ctx: Context):
        self._stop(ctx)


def _parse_query(text: str):
    source = None
    for line in text.splitlines():
        if line.startswith("source="):
            source = line.split()[0].split("=", 1)[1]
            break
    start = text.find("\n{")
    if start < 0:
        return source, None
    try:
        result, _ = json.JSONDecoder().raw_decode(text[start + 1:])
    except ValueError:
        return source, None
    return source, result


def _without_source(result: dict) -> dict:
    return {key: value for key, value in result.items() if key != "source"}


class SetupError(RuntimeError):
    """The workload could not be made ready; the run reports no result."""


def _require(ok: bool, ctx: Context):
    if not ok:
        raise SetupError(ctx.ledger.failures[-1])


WORKLOADS = {
    "sweep-cold": lambda: Sweep("sweep-cold", 1, COLD_VDDS, COLD_SIZE, warm=False),
    "sweep-warm": lambda: Sweep(
        "sweep-warm", 2, VDD_DEFAULT, [*LUT_SIZE, "--mc-particles", str(WARM_MC)], warm=True
    ),
    "query": Query,
}
