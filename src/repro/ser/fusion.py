"""Batch plans: a set of array-MC campaigns run as one parallel map.

Every uniform campaign fan-out of the flow -- a Fig. 8 energy scan, one
(particle, Vdd) FIT case, a whole sweep -- queues the draw blocks of
all its (particle, energy, Vdd) points into one :class:`BatchPlan` and
executes them as a single :func:`~repro.parallel.parallel_map`: the
one broadcast payload (the simulator, shipped via the
:mod:`repro.parallel.shm` plane) serves every point, and pool tasks
from different campaigns share the same warm workers.

Determinism is inherited, not re-proven: each point's draw blocks are
the exact :func:`~repro.ser.mc._draw_blocks` partition, each block
consumes the same :func:`~repro.parallel.spawn_seeds` child stream of
the point's campaign seed, and per-point results merge in block order
-- so every plan point is bit-identical to
:meth:`~repro.ser.mc.ArraySerSimulator.run` on the same seed, for any
worker count (asserted by ``tests/test_fusion.py``).

Fault tolerance: completed pool tasks journal through the standard
array-shard codec so an interrupted plan resumes bit-identically; any
draw block lost past the retry budget raises
:class:`~repro.errors.WorkerCrashError` (the downstream FIT integral
needs every energy bin, so degradation to a partial sweep is not
meaningful here).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..errors import WorkerCrashError
from ..obs import get_logger, get_registry, kv
from ..obs.convergence import record_bin
from ..parallel import parallel_map, spawn_seeds
from ..physics import get_particle
from .mc import ArrayPofResult, _bundle_tasks, _draw_blocks

_log = get_logger(__name__)

__all__ = ["BatchPlan", "CampaignPoint"]


@dataclass(frozen=True)
class CampaignPoint:
    """One (particle, energy, Vdd) campaign queued into a plan."""

    particle_name: str
    energy_mev: float
    vdd_v: float
    n_particles: int
    #: Root :class:`numpy.random.SeedSequence` of the campaign: the
    #: point reproduces ``simulator.run(..., np.random.default_rng(seed))``
    #: and, like that call, spawns its block streams off the sequence.
    seed: np.random.SeedSequence


def _block_task(payload, task):
    """Pool worker: run one campaign spec's draw blocks, in order.

    ``task`` is ``(spec, [(size, seed), ...])``.  The payload carries
    only the (campaign-invariant) simulator, so every map ships the
    *same* payload and warm workers reuse the one they already
    rebuilt; everything that varies rides in the spec -- particle,
    energy and Vdd, plus the optional ``spectrum``/``e_range`` of a
    spectrum campaign and the sampling ``stratum`` of an adaptive
    round (:mod:`repro.ser.adaptive`).  The per-block payload is
    rebuilt exactly as ``ArraySerSimulator._run_campaign`` builds it,
    so a block computes the identical result whichever map runs it.
    """
    simulator = payload["simulator"]
    spec, blocks = task
    particle = get_particle(spec["particle"])
    block_payload = {
        "simulator": simulator,
        "particle": particle,
        "energy_mev": float(spec["energy_mev"]),
        "vdd_v": float(spec["vdd_v"]),
        "window": simulator.layout.launch_window(simulator.config.margin_nm),
        "law": simulator.config.law_for(particle.name),
        "spectrum": spec.get("spectrum"),
        "e_range": spec.get("e_range"),
        "stratum": spec.get("stratum"),
    }
    return [
        simulator._run_block(block_payload, size, seed)
        for size, seed in blocks
    ]


class BatchPlan:
    """Campaign points whose draw blocks run as one parallel map.

    Parameters
    ----------
    simulator:
        The shared :class:`~repro.ser.mc.ArraySerSimulator`.
    points:
        The queued campaigns, in result order.
    n_jobs, retry, journal:
        The usual execution/fault-tolerance knobs of
        :func:`~repro.parallel.parallel_map`; the retry policy is
        forced strict (see module docstring).
    payload:
        Optional pre-packed broadcast payload holding the simulator
        (``SerFlow._campaign_payload``); defaults to a plain dict.
    """

    def __init__(
        self,
        simulator,
        points: Sequence[CampaignPoint],
        *,
        n_jobs: int = 1,
        retry=None,
        journal=None,
        payload=None,
    ):
        self.simulator = simulator
        self.points = list(points)
        self.n_jobs = n_jobs
        self.retry = retry
        self.journal = journal
        self.payload = payload

    def execute(self) -> List[ArrayPofResult]:
        """Run every queued campaign; one merged result per point.

        Results come back in point order, each bit-identical to what
        ``simulator.run(point...)`` would have produced.
        """
        tasks = []
        block_counts = []
        for point in self.points:
            blocks = _draw_blocks(point.n_particles)
            seeds = spawn_seeds(
                np.random.default_rng(point.seed), len(blocks)
            )
            block_counts.append(len(blocks))
            spec = {
                "particle": point.particle_name,
                "energy_mev": float(point.energy_mev),
                "vdd_v": float(point.vdd_v),
            }
            tasks.extend(
                (spec, chunk)
                for chunk in _bundle_tasks(
                    blocks, seeds, self.simulator.config.chunk_size
                )
            )
        total_blocks = sum(block_counts)
        total_particles = sum(point.n_particles for point in self.points)

        metrics = get_registry()
        if metrics.enabled:
            metrics.counter("fused.plans").inc()
            metrics.counter("fused.campaigns").inc(len(self.points))
            metrics.counter("fused.blocks").inc(total_blocks)
        _log.info(
            "fused batch plan %s",
            kv(
                campaigns=len(self.points),
                blocks=total_blocks,
                tasks=len(tasks),
                particles=total_particles,
            ),
        )

        t0 = time.perf_counter()
        with metrics.time("fused.plan"):
            nested = parallel_map(
                _block_task,
                tasks,
                payload=(
                    self.payload
                    if self.payload is not None
                    else {"simulator": self.simulator}
                ),
                n_jobs=self.n_jobs,
                label="fused_campaigns",
                retry=self.retry.strict() if self.retry is not None else None,
                journal=self.journal,
                # no cost hint: with n_jobs > 1 every plan runs pooled,
                # so the plans of one run share a warm pool
            )
            lost = sum(1 for group in nested if group is None)
            if lost:
                raise WorkerCrashError(
                    f"batch plan lost {lost}/{len(tasks)} pool tasks to "
                    "worker crashes; the FIT integral needs every energy "
                    "bin, so a plan cannot degrade"
                )
            flat = [result for group in nested for result in group]
        elapsed = time.perf_counter() - t0

        # per-point merge, in block order -- the same reduction
        # ArraySerSimulator._run_campaign performs on its own blocks
        results = []
        offset = 0
        per_point_elapsed = elapsed / max(len(self.points), 1)
        with metrics.time("array_mc.merge"):
            for point, n_blocks in zip(self.points, block_counts):
                merged = ArrayPofResult.merge(
                    flat[offset : offset + n_blocks]
                )
                offset += n_blocks
                results.append(merged)
                if metrics.enabled:
                    self.simulator._record_run_metrics(
                        metrics,
                        merged.n_particles,
                        merged.n_array_hits,
                        merged.n_fin_strikes,
                        per_point_elapsed,
                    )
                record_bin(
                    "array-mc",
                    trials=int(merged.n_particles),
                    pof=float(merged.pof_total),
                    particle=merged.particle_name,
                    vdd_v=float(merged.vdd_v),
                    energy_mev=float(merged.energy_mev),
                )
        return results
