"""Adaptive trial allocation + variance-reduced sampling (docs/performance.md).

The uniform campaigns of :class:`~repro.ser.mc.ArraySerSimulator` spend
the same number of trials on every (particle, energy, Vdd) bin whether
its POF estimate converged after 4k draws or needs 400k.  This module
closes the loop with the live convergence plane of PR 6: an
:class:`AdaptiveCampaignController` runs a small uniform *pilot* round
across all bins, then repeatedly allocates the next batch of
:data:`~repro.ser.mc.DRAW_BLOCK_SIZE` draw blocks to the bins with the
largest predicted standard-error reduction (discrete Neyman allocation
on the binomial variance, :func:`repro.analysis.convergence.allocate_blocks`),
stopping per bin once :func:`~repro.analysis.convergence.pof_standard_error`
reaches the caller's ``target_se`` or a hard trial ceiling.

Two variance-reduction layers ride on top of the allocation, both
implemented as *stratified sampling* so the strike kernels stay
untouched and the estimator is exactly unbiased by construction:

* **Position strata** -- the launch window is split into a ``core``
  rectangle (the bounding box of the sensitive fins plus a halo) and
  the surrounding ``frame``.  Each draw block samples one stratum
  uniformly; :meth:`~repro.ser.mc.ArrayPofResult.merge` recombines the
  conditional means as ``sum_s w_s * mean_s`` with ``w_s`` the exact
  area fractions.  Allocation then concentrates blocks on the core,
  where nearly all the variance lives.
* **Energy strata** (spectrum campaigns) -- the energy band is split
  into log-spaced sub-bands weighted by their integral-flux mass, and
  the pilot's POF(E) gradient tilts allocation toward sub-bands where
  POF is steep (importance *concentration*; the weights, and therefore
  the estimate, never depend on how many draws a sub-band received).

Determinism/resume contract: every round's draw blocks consume spawned
children of the bin's root seed in (bin, stratum, block) order, round
results are journaled per round, and every allocation decision is a
pure function of the journaled results -- so killing a campaign
mid-round and resuming replays the identical allocation sequence and
reproduces the final results bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, WorkerCrashError
from ..obs import get_logger, get_registry, kv
from ..obs.convergence import record_bin
from ..obs.events import emit_event
from ..parallel import parallel_map
from .fusion import _block_task
from .mc import DRAW_BLOCK_SIZE, ArrayPofResult

_log = get_logger(__name__)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive campaign controller.

    Lives on :class:`~repro.core.flow.FlowConfig` (``adaptive=``) --
    unlike execution knobs it *changes results* (different trial
    counts, stratified estimator), so it must perturb cache keys.
    """

    #: Per-bin POF standard-error target.  Absolute by default;
    #: ``relative_target`` reinterprets it as a fraction of the bin's
    #: current POF estimate (bins with POF == 0 then only stop at the
    #: trial ceiling).
    target_se: float = 5e-4
    relative_target: bool = False
    #: Uniform pilot trials per bin (round 0), rounded up to whole
    #: draw blocks and spread over the bin's strata by weight.
    pilot_trials: int = 8192
    #: Hard per-bin trial ceiling; ``None`` defers to the driver's
    #: default (the flow passes ``mc_particles_per_bin``, so adaptive
    #: never spends more on a bin than the uniform campaign would).
    max_trials: Optional[int] = None
    #: Draw blocks distributed per refinement round and the round cap.
    round_blocks: int = 16
    max_rounds: int = 64
    #: Position stratification (core/frame split of the launch window)
    #: and the halo [nm] inflating the sensitive-fin bounding box.
    stratify: bool = True
    halo_nm: float = 200.0
    #: Energy sub-strata per spectrum bin (<= 1 disables) and the
    #: POF(E)-gradient tilt clip for their allocation priority.
    energy_strata: int = 4
    max_tilt: float = 8.0

    def __post_init__(self):
        if self.target_se <= 0:
            raise ConfigError("target standard error must be positive")
        if self.pilot_trials < 1:
            raise ConfigError("pilot needs at least one trial")
        if self.max_trials is not None and self.max_trials < 1:
            raise ConfigError("trial ceiling must be positive")
        if self.round_blocks < 1:
            raise ConfigError("need at least one block per round")
        if self.max_rounds < 1:
            raise ConfigError("need at least one round")
        if self.halo_nm < 0:
            raise ConfigError("halo cannot be negative")
        if self.energy_strata < 0:
            raise ConfigError("energy strata count cannot be negative")
        if self.max_tilt < 1.0:
            raise ConfigError("max_tilt must be >= 1")


@dataclass(frozen=True)
class AdaptiveBin:
    """One (particle, energy, vdd) campaign point under adaptive control.

    Mono-energetic bins leave ``spectrum``/``e_range`` unset; spectrum
    bins carry both (``energy_mev`` is then the representative energy
    stamped on the results, as in
    :meth:`~repro.ser.mc.ArraySerSimulator.run_spectrum`).
    """

    particle_name: str
    energy_mev: float
    vdd_v: float
    e_range: Optional[Tuple[float, float]] = None
    spectrum: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.energy_mev <= 0:
            raise ConfigError("energy must be positive")
        if (self.spectrum is None) != (self.e_range is None):
            raise ConfigError(
                "spectrum bins need both spectrum and e_range; "
                "mono-energetic bins neither"
            )

    @property
    def key(self) -> str:
        return (
            f"{self.particle_name}"
            f".vdd={self.vdd_v:g}.e={self.energy_mev:.6g}"
        )


@dataclass
class AdaptiveRoundRecord:
    """One executed round: what was assigned and where it left each bin."""

    index: int
    #: ``{bin key: {stratum name (None = uniform): draw blocks}}``.
    allocation: Dict[str, Dict[Optional[str], int]]
    #: Cumulative trials and the post-round standard error per bin.
    cumulative_trials: Dict[str, int]
    standard_errors: Dict[str, float]


@dataclass
class AdaptiveReport:
    """Outcome of one adaptive campaign (all bins)."""

    #: Final merged result per bin, in the caller's bin order.
    results: List[ArrayPofResult]
    rounds: List[AdaptiveRoundRecord]
    total_trials: int
    converged: Dict[str, bool]
    at_ceiling: Dict[str, bool]

    @property
    def allocation_history(self) -> List[Dict[str, int]]:
        """Per-round ``{bin key: total blocks}`` -- the resume invariant."""
        return [
            {
                key: sum(strata.values())
                for key, strata in record.allocation.items()
            }
            for record in self.rounds
        ]


def position_strata(layout, margin_nm: float, halo_nm: float) -> List[dict]:
    """Core/frame partition of the launch window, with area weights.

    The ``core`` rectangle is the bounding box of the *sensitive* fin
    boxes (the same subset the sparse strike kernel ray-casts against)
    inflated by ``halo_nm`` and clipped to the launch window; the
    ``frame`` is the remaining border, decomposed into up to four
    rectangles sampled as one stratum.  Weights are exact area
    fractions, so the stratified estimator is unbiased for any
    allocation across the two strata.
    """
    if halo_nm < 0:
        raise ConfigError("halo cannot be negative")
    x_range, y_range, _z, _area = layout.launch_window(margin_nm)
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    total = (x1 - x0) * (y1 - y0)
    if total <= 0:
        raise ConfigError("launch window has zero area")
    whole = [{"name": "window", "weight": 1.0, "rects": ((x0, x1, y0, y1),)}]

    boxes = layout.packed_boxes[layout.fin_strike >= 0]
    if len(boxes) == 0:
        return whole
    cx0 = max(float(np.min(boxes[:, 0])) - halo_nm, x0)
    cy0 = max(float(np.min(boxes[:, 1])) - halo_nm, y0)
    cx1 = min(float(np.max(boxes[:, 3])) + halo_nm, x1)
    cy1 = min(float(np.max(boxes[:, 4])) + halo_nm, y1)
    if cx1 <= cx0 or cy1 <= cy0:
        return whole

    def area(rect):
        return (rect[1] - rect[0]) * (rect[3] - rect[2])

    core = (cx0, cx1, cy0, cy1)
    frame = [
        rect
        for rect in (
            (x0, x1, y0, cy0),  # bottom band, full width
            (x0, x1, cy1, y1),  # top band, full width
            (x0, cx0, cy0, cy1),  # left band, core's y-extent
            (cx1, x1, cy0, cy1),  # right band, core's y-extent
        )
        if area(rect) > 0.0
    ]
    if not frame:  # the core covers the whole window
        return [{"name": "core", "weight": 1.0, "rects": (core,)}]
    frame_area = sum(area(rect) for rect in frame)
    return [
        {"name": "core", "weight": area(core) / total, "rects": (core,)},
        {"name": "frame", "weight": frame_area / total, "rects": tuple(frame)},
    ]


def energy_strata(spectrum, e_lo: float, e_hi: float, count: int) -> List[dict]:
    """Log-spaced energy sub-bands weighted by integral-flux mass.

    Each stratum carries the band, its flux-mass weight (so the
    stratified mean reproduces the flux-weighted POF exactly) and its
    log-center for the POF(E)-gradient tilt.  Zero-mass bands are
    dropped and the weights renormalized over the survivors.
    """
    if count < 2:
        raise ConfigError("need at least two energy strata")
    if not 0 < e_lo < e_hi:
        raise ConfigError("need 0 < e_lo < e_hi")
    edges = np.logspace(math.log10(e_lo), math.log10(e_hi), count + 1)
    masses = np.array(
        [
            spectrum.integral_flux(float(lo), float(hi))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
    total = float(np.sum(masses))
    if total <= 0:
        raise ConfigError("spectrum has no flux inside the energy band")
    strata = []
    for j, (lo, hi, mass) in enumerate(zip(edges[:-1], edges[1:], masses)):
        if mass <= 0:
            continue
        strata.append(
            {
                "name": f"e{j}",
                "weight": float(mass) / total,
                "e_range": (float(lo), float(hi)),
                "e_index": j,
                "log_center": float(math.sqrt(lo * hi)),
            }
        )
    return strata


def _combined_strata(pos: Optional[List[dict]], energy: Optional[List[dict]]):
    """Cross product of position x energy strata (either side optional).

    Returns ``[None]`` when both are off -- plain uniform blocks, merged
    on the legacy bit-identical path.
    """
    if pos is None and energy is None:
        return [None]
    if energy is None:
        return list(pos)
    if pos is None:
        return list(energy)
    combined = []
    for p in pos:
        for e in energy:
            combined.append(
                {
                    "name": f"{p['name']}|{e['name']}",
                    "weight": p["weight"] * e["weight"],
                    "rects": p["rects"],
                    "e_range": e["e_range"],
                    "e_index": e["e_index"],
                    "log_center": e["log_center"],
                }
            )
    return combined


class AdaptiveCampaignController:
    """Sequential adaptive MC campaign over a set of bins.

    Parameters mirror the flow's execution plane: ``payload`` may be a
    pre-packed :class:`~repro.parallel.shm.PackedPayload` shared across
    rounds, ``journal_factory(round_index)`` returns the round's
    :class:`~repro.parallel.ShardJournal` (or ``None``) so interrupted
    campaigns resume bit-identically, and ``retry`` is forced strict --
    a lost draw block would change every later allocation decision, so
    unrecoverable loss must raise rather than degrade.
    """

    def __init__(
        self,
        simulator,
        config: Optional[AdaptiveConfig] = None,
        *,
        n_jobs: Optional[int] = None,
        retry=None,
        warm_pool: Optional[bool] = None,
        shm: Optional[bool] = None,
        payload=None,
        journal_factory=None,
        stage: str = "adaptive",
        default_max_trials: Optional[int] = None,
    ):
        self.simulator = simulator
        self.config = config if config is not None else AdaptiveConfig()
        self.n_jobs = (
            simulator.config.n_jobs if n_jobs is None else int(n_jobs)
        )
        self.retry = retry
        self.warm_pool = (
            simulator.config.warm_pool if warm_pool is None else warm_pool
        )
        self.shm = simulator.config.shm if shm is None else shm
        self.payload = (
            payload if payload is not None else {"simulator": simulator}
        )
        self.journal_factory = journal_factory
        self.stage = stage
        max_trials = (
            self.config.max_trials
            if self.config.max_trials is not None
            else default_max_trials
        )
        if max_trials is None:
            raise ConfigError(
                "adaptive campaigns need a trial ceiling: set "
                "AdaptiveConfig.max_trials or pass default_max_trials"
            )
        self.max_trials = int(max_trials)
        self._position_strata: Optional[List[dict]] = None

    # -- strata ----------------------------------------------------------

    def _strata_for(self, bin_: AdaptiveBin) -> List[Optional[dict]]:
        pos = None
        if self.config.stratify:
            if self._position_strata is None:
                self._position_strata = position_strata(
                    self.simulator.layout,
                    self.simulator.config.margin_nm,
                    self.config.halo_nm,
                )
            pos = self._position_strata
        energy = None
        if bin_.spectrum is not None and self.config.energy_strata >= 2:
            energy = energy_strata(
                bin_.spectrum,
                bin_.e_range[0],
                bin_.e_range[1],
                self.config.energy_strata,
            )
        return _combined_strata(pos, energy)

    @staticmethod
    def _pilot_split(strata, n_blocks: int) -> Dict[Optional[str], int]:
        """Pilot blocks per stratum: >= 1 each, rest by largest remainder.

        Every stratum *must* appear in the pilot -- the weighted merge
        needs all strata of a point present (weights sum to 1), and the
        controller needs at least a rough variance estimate per stratum
        to allocate later rounds.
        """
        if strata == [None]:
            return {None: n_blocks}
        names = [stratum["name"] for stratum in strata]
        weights = [stratum["weight"] for stratum in strata]
        n_blocks = max(n_blocks, len(strata))
        counts = {name: 1 for name in names}
        extra = n_blocks - len(strata)
        if extra > 0:
            quotas = [w * extra for w in weights]
            floors = [int(math.floor(q)) for q in quotas]
            for name, base in zip(names, floors):
                counts[name] += base
            remainder = extra - sum(floors)
            order = sorted(
                range(len(names)),
                key=lambda i: (-(quotas[i] - floors[i]), i),
            )
            for i in order[:remainder]:
                counts[names[i]] += 1
        return counts

    # -- per-stratum statistics (pure functions of block results) --------

    @staticmethod
    def _stratum_stats(blocks) -> Dict[Optional[str], Tuple[int, float, int]]:
        """``{stratum: (trials, pooled pof, hits)}`` over a bin's blocks."""
        stats: Dict[Optional[str], List[ArrayPofResult]] = {}
        for block in blocks:
            stats.setdefault(block.stratum, []).append(block)
        out = {}
        for name, members in stats.items():
            n = sum(member.n_particles for member in members)
            pof = (
                sum(member.pof_total * member.n_particles for member in members)
                / n
            )
            hits = sum(member.n_array_hits for member in members)
            out[name] = (n, pof, hits)
        return out

    def _tilts_for(self, strata, stats) -> Dict[str, float]:
        """POF(E)-gradient tilt per stratum (1.0 without energy strata)."""
        from ..analysis.convergence import build_energy_tilt

        by_index: Dict[int, List[dict]] = {}
        for stratum in strata:
            if stratum is None or "e_index" not in stratum:
                return {}
            by_index.setdefault(stratum["e_index"], []).append(stratum)
        if len(by_index) < 2:
            return {}
        centers, pofs, indices = [], [], []
        for e_index in sorted(by_index):
            members = by_index[e_index]
            n_tot, pof_sum = 0, 0.0
            for stratum in members:
                n, pof, _hits = stats.get(stratum["name"], (0, 0.0, 0))
                n_tot += n
                pof_sum += pof * n
            centers.append(math.log(members[0]["log_center"]))
            pofs.append(pof_sum / n_tot if n_tot else 0.0)
            indices.append(e_index)
        tilts = build_energy_tilt(centers, pofs, self.config.max_tilt)
        by_e = dict(zip(indices, tilts))
        return {
            stratum["name"]: by_e[stratum["e_index"]] for stratum in strata
        }

    def _split_round(
        self, strata, blocks, n_blocks: int
    ) -> Dict[Optional[str], int]:
        """One bin's refinement blocks, split across its strata."""
        from ..analysis.convergence import (
            StratumState,
            split_blocks_across_strata,
        )

        if strata == [None]:
            return {None: n_blocks}
        stats = self._stratum_stats(blocks)
        tilts = self._tilts_for(strata, stats)
        states = []
        for stratum in strata:
            n, pof, hits = stats.get(stratum["name"], (0, 0.0, 0))
            states.append(
                StratumState(
                    name=stratum["name"],
                    weight=stratum["weight"],
                    trials=n,
                    pof=pof,
                    hits=hits,
                    tilt=tilts.get(stratum["name"], 1.0),
                )
            )
        return split_blocks_across_strata(states, n_blocks, DRAW_BLOCK_SIZE)

    # -- round execution -------------------------------------------------

    def _execute_round(self, round_index, bins, strata, seeds, allocation):
        """Fan one round's draw blocks out and route results per bin.

        Tasks are built for *every* round, replayed or not: spawning
        the seeds keeps each bin's child-stream counter aligned with
        the allocation history, so a resumed campaign's later rounds
        draw the same streams as the uninterrupted run.
        """
        tasks, owners = [], []
        per_task = max(
            1, math.ceil(self.simulator.config.chunk_size / DRAW_BLOCK_SIZE)
        )
        round_trials = 0
        for bin_ in bins:
            alloc = allocation.get(bin_.key)
            if not alloc:
                continue
            total_blocks = sum(alloc.values())
            child_seeds = seeds[bin_.key].spawn(total_blocks)
            cursor = 0
            for stratum in strata[bin_.key]:
                name = None if stratum is None else stratum["name"]
                count = alloc.get(name, 0)
                if count == 0:
                    continue
                pairs = [
                    (DRAW_BLOCK_SIZE, child_seeds[cursor + j])
                    for j in range(count)
                ]
                cursor += count
                round_trials += count * DRAW_BLOCK_SIZE
                spec = {
                    "particle": bin_.particle_name,
                    "energy_mev": float(bin_.energy_mev),
                    "vdd_v": float(bin_.vdd_v),
                    "spectrum": bin_.spectrum,
                    "e_range": bin_.e_range,
                    "stratum": stratum,
                }
                for i in range(0, len(pairs), per_task):
                    tasks.append((spec, pairs[i : i + per_task]))
                    owners.append(bin_.key)
        journal = (
            self.journal_factory(round_index)
            if self.journal_factory is not None
            else None
        )
        nested = parallel_map(
            _block_task,
            tasks,
            payload=self.payload,
            n_jobs=self.n_jobs,
            label="adaptive",
            retry=self.retry.strict() if self.retry is not None else None,
            journal=journal,
            cost_hint_s=2.0e-6 * round_trials / max(len(tasks), 1),
            warm_pool=self.warm_pool,
            shm=self.shm,
        )
        routed: Dict[str, List[ArrayPofResult]] = {}
        for owner, group in zip(owners, nested):
            if group is None:
                raise WorkerCrashError(
                    "adaptive round lost a draw-block task; allocation "
                    "would diverge -- rerun with a strict retry policy"
                )
            routed.setdefault(owner, []).extend(group)
        return routed, journal, round_trials

    # -- the campaign loop -----------------------------------------------

    def run(self, bins: Sequence[AdaptiveBin], seed_for) -> AdaptiveReport:
        """Run the adaptive campaign; ``seed_for(bin)`` gives each bin's
        root :class:`numpy.random.SeedSequence` (a pure function of the
        bin, so resume re-derives the same streams)."""
        from ..analysis.convergence import (
            allocate_blocks,
            pof_standard_error,
        )

        bins = list(bins)
        if not bins:
            raise ConfigError("need at least one bin")
        keys = [bin_.key for bin_ in bins]
        if len(set(keys)) != len(keys):
            raise ConfigError(f"duplicate bin keys in {keys}")

        strata = {bin_.key: self._strata_for(bin_) for bin_ in bins}
        seeds = {bin_.key: seed_for(bin_) for bin_ in bins}
        blocks: Dict[str, List[ArrayPofResult]] = {key: [] for key in keys}
        merged: Dict[str, ArrayPofResult] = {}
        errors: Dict[str, float] = {}
        journals = []
        rounds: List[AdaptiveRoundRecord] = []
        metrics = get_registry()

        pilot_blocks = max(
            1, math.ceil(self.config.pilot_trials / DRAW_BLOCK_SIZE)
        )
        allocation = {
            bin_.key: self._pilot_split(strata[bin_.key], pilot_blocks)
            for bin_ in bins
        }

        t0 = time.perf_counter()
        round_index = 0
        total_trials = 0
        while True:
            routed, journal, round_trials = self._execute_round(
                round_index, bins, strata, seeds, allocation
            )
            if journal is not None:
                journals.append(journal)
            total_trials += round_trials
            for bin_ in bins:
                new = routed.get(bin_.key)
                if not new:
                    continue
                blocks[bin_.key].extend(new)
                merged[bin_.key] = ArrayPofResult.merge(blocks[bin_.key])
                errors[bin_.key] = pof_standard_error(merged[bin_.key])
                record_bin(
                    self.stage,
                    trials=sum(block.n_particles for block in new),
                    pof=float(merged[bin_.key].pof_total),
                    standard_error=errors[bin_.key],
                    particle=bin_.particle_name,
                    vdd_v=float(bin_.vdd_v),
                    energy_mev=float(bin_.energy_mev),
                )
            states = self._budget_states(bins, merged, errors)
            converged_now = sum(1 for state in states if state.converged)
            rounds.append(
                AdaptiveRoundRecord(
                    index=round_index,
                    allocation={
                        key: dict(alloc)
                        for key, alloc in allocation.items()
                        if alloc
                    },
                    cumulative_trials={
                        key: merged[key].n_particles for key in keys
                    },
                    standard_errors=dict(errors),
                )
            )
            emit_event(
                "allocation",
                stage=self.stage,
                round=round_index,
                blocks=sum(
                    sum(alloc.values()) for alloc in allocation.values()
                ),
                trials=round_trials,
                bins={
                    key: sum(alloc.values())
                    for key, alloc in allocation.items()
                    if alloc
                },
                converged=converged_now,
            )
            if metrics.enabled:
                metrics.counter("adaptive.rounds").inc()
                metrics.counter("adaptive.trials").inc(round_trials)
                metrics.counter("adaptive.blocks").inc(
                    round_trials // DRAW_BLOCK_SIZE
                )
            round_index += 1
            if round_index >= self.config.max_rounds:
                _log.warning(
                    "adaptive campaign hit the round cap %s",
                    kv(stage=self.stage, rounds=round_index),
                )
                break
            per_bin = allocate_blocks(
                states, self.config.round_blocks, DRAW_BLOCK_SIZE
            )
            if not per_bin:
                break
            allocation = {
                key: self._split_round(strata[key], blocks[key], count)
                for key, count in per_bin.items()
            }

        converged = {}
        at_ceiling = {}
        for state in self._budget_states(bins, merged, errors):
            converged[state.key] = state.converged
            at_ceiling[state.key] = state.trials >= state.max_trials
        if metrics.enabled:
            metrics.counter("adaptive.bins").inc(len(bins))
            metrics.counter("adaptive.bins_converged").inc(
                sum(converged.values())
            )
            metrics.counter("adaptive.bins_ceiling").inc(
                sum(
                    1
                    for key in keys
                    if at_ceiling[key] and not converged[key]
                )
            )
        _log.info(
            "adaptive campaign done %s",
            kv(
                stage=self.stage,
                bins=len(bins),
                rounds=len(rounds),
                trials=total_trials,
                converged=sum(converged.values()),
                elapsed_s=round(time.perf_counter() - t0, 3),
            ),
        )
        # only a *completed* campaign may drop its checkpoints; an
        # aborted round leaves them for the resume to replay
        for journal in journals:
            journal.clear()
        return AdaptiveReport(
            results=[merged[key] for key in keys],
            rounds=rounds,
            total_trials=total_trials,
            converged=converged,
            at_ceiling=at_ceiling,
        )

    def _budget_states(self, bins, merged, errors):
        from ..analysis.convergence import BinBudgetState as state_cls

        states = []
        for bin_ in bins:
            result = merged[bin_.key]
            target = self.config.target_se
            if self.config.relative_target:
                target *= max(float(result.pof_total), 0.0)
            states.append(
                state_cls(
                    key=bin_.key,
                    trials=int(result.n_particles),
                    pof=float(result.pof_total),
                    standard_error=float(errors[bin_.key]),
                    target_se=target,
                    max_trials=self.max_trials,
                )
            )
        return states
