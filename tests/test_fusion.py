"""Batch plans: the flow's one uniform campaign fan-out.

Covers the contracts of :mod:`repro.ser.fusion` and the flow paths
built on it:

* kernel goldens -- the segmented strike-kernel reductions
  (:func:`~repro.ser.mc.segment_combine`,
  :func:`~repro.ser.mc.segment_multiplicity`) reproduce the written-out
  eqs. 4-6 and a per-segment sequential DP bit for bit, the I-V table
  lookup is the written-out bilinear blend, and the vectorized
  cluster/POF-grouping helpers match their loop references element
  for element;
* bit-identity -- a campaign is invariant to chunking and worker
  count, every plan point equals ``simulator.run`` on its seed, every
  ``sweep()`` case equals ``integrate_fit`` over per-point
  ``simulator.run`` calls, and ``fit(p, v)`` equals
  ``sweep().get(p, v)``;
* fault tolerance -- a plan cannot degrade (a lost task raises), and
  a sweep killed mid-plan resumes from its journal bit-identically.
"""

import shutil

import numpy as np
import pytest

from repro.errors import WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy
from repro.parallel.engine import FAULT_ENV
from repro.physics import ALPHA, spectrum_for
from repro.ser import (
    ArrayMcConfig,
    ArraySerSimulator,
    BatchPlan,
    CampaignPoint,
    integrate_fit,
)
from repro.ser.clusters import _accumulate_pairs_loop, _pair_streams
from repro.ser.mc import segment_combine, segment_multiplicity
from repro.sram import PofTable
from repro.sram.pof_lut import _group_codes
from repro.sram.strike import ALL_COMBOS


# -- shared fixtures (the cheap synthetic setup of test_faults) ----------------


@pytest.fixture(scope="module")
def pof_table():
    vdds = (0.7, 0.9)
    n_q = 5
    base = np.linspace(0.0, 1.0, n_q)
    pof = {}
    for combo in ALL_COMBOS:
        grids = []
        for i_vdd in range(len(vdds)):
            grid = base * (1.0 - 0.2 * i_vdd)
            for _ in range(len(combo) - 1):
                grid = np.add.outer(grid, base * (1.0 - 0.2 * i_vdd)) / 2.0
            grids.append(grid)
        pof[combo] = np.stack(grids, axis=0)
    return PofTable(
        vdd_list=vdds,
        charge_axis_c=np.logspace(-16, -14, n_q),
        pof=pof,
        process_variation=False,
        n_samples=1,
    )


@pytest.fixture(scope="module")
def layout():
    return SramArrayLayout(n_rows=4, n_cols=4)


def make_simulator(layout, pof_table, **overrides):
    config = ArrayMcConfig(deposition_mode="direct", **overrides)
    return ArraySerSimulator(layout, pof_table, config=config)


def run_campaign(layout, pof_table, *, seed=42, n=6000, **overrides):
    simulator = make_simulator(layout, pof_table, **overrides)
    return simulator.run(ALPHA, 5.0, 0.7, n, np.random.default_rng(seed))


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


def assert_fits_identical(a, b):
    assert a.fit_total == b.fit_total
    assert a.fit_seu == b.fit_seu
    assert a.fit_mbu == b.fit_mbu
    assert np.array_equal(a.pof_per_bin, b.pof_per_bin)


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


# -- kernel goldens ------------------------------------------------------------


class TestKernelGoldens:
    """The plain numpy kernels vs. their reference expressions."""

    def _segments(self, rng, n_groups=40, max_size=6):
        sizes = rng.integers(1, max_size + 1, size=n_groups)
        pof = rng.random(int(sizes.sum()))
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return pof, starts

    def test_segment_combine_matches_inline_eqs(self):
        rng = np.random.default_rng(21)
        one_minus_eps = 1.0 - 1e-12
        for _ in range(50):
            pof, starts = self._segments(rng)
            total, seu, mbu = segment_combine(pof, starts, one_minus_eps)
            # the segmented eqs. 4-6, written out
            ref_total = 1.0 - np.multiply.reduceat(1.0 - pof, starts)
            clipped = np.minimum(pof, one_minus_eps)
            survive = 1.0 - clipped
            ref_seu = np.multiply.reduceat(survive, starts) * np.add.reduceat(
                clipped / survive, starts
            )
            ref_mbu = np.maximum(ref_total - ref_seu, 0.0)
            assert np.array_equal(total, ref_total)
            assert np.array_equal(seu, ref_seu)
            assert np.array_equal(mbu, ref_mbu)

    def test_segment_multiplicity_matches_sequential_dp(self):
        """The rank-vectorized DP equals a per-segment python DP, bitwise."""
        rng = np.random.default_rng(22)
        max_k = 4
        for _ in range(25):
            pof, starts = self._segments(rng, n_groups=20)
            got = segment_multiplicity(pof, starts, max_k)
            ends = np.append(starts[1:], len(pof))
            pmfs = np.zeros((len(starts), max_k + 1), dtype=np.float64)
            for g, (lo, hi) in enumerate(zip(starts, ends)):
                pmf = np.zeros(max_k + 1)
                pmf[0] = 1.0
                for p in pof[lo:hi]:
                    shifted = np.zeros_like(pmf)
                    shifted[1:] = pmf[:-1]
                    shifted[-1] += pmf[-1]  # overflow bin absorbs k >= max_k
                    pmf = pmf * (1.0 - p) + shifted * p
                pmfs[g] = pmf
            assert np.array_equal(got, pmfs.sum(axis=0))


    def test_bilinear_lookup_matches_written_out_blend(self):
        """``IVTables.currents_stacked`` is the four-corner blend of its
        ``(slab, u, w)`` grid, bit for bit."""
        from repro.sram import SramCellDesign
        from repro.sram.ivtab import I_SCALE_A, IVTables

        tables = IVTables(SramCellDesign(), 0.8, points=33)
        n = tables.points
        u_hi = tables.u_lo + (n - 1) / tables.u_inv_step
        w_hi = tables.w_lo + (n - 1) / tables.w_inv_step
        rng = np.random.default_rng(23)
        u = rng.uniform(tables.u_lo, u_hi, size=64)
        w3 = rng.uniform(tables.w_lo, w_hi, size=(3, 64))
        got = tables.currents_stacked(u, w3)

        tu = (u - tables.u_lo) * tables.u_inv_step
        iu = np.clip(tu.astype(np.int64), 0, n - 2)
        fu = tu - iu
        tw = (w3 - tables.w_lo) * tables.w_inv_step
        jw = np.clip(tw.astype(np.int64), 0, n - 2)
        fw = tw - jw
        slab = np.arange(3)[:, np.newaxis]
        z = tables.z
        z0 = z[slab, iu, jw] + (z[slab, iu, jw + 1] - z[slab, iu, jw]) * fw
        z1 = z[slab, iu + 1, jw] + (
            z[slab, iu + 1, jw + 1] - z[slab, iu + 1, jw]
        ) * fw
        assert np.array_equal(got, I_SCALE_A * np.sinh(z0 + (z1 - z0) * fu))


class TestCampaignIdentity:
    def test_identical_across_chunking_and_jobs(self, layout, pof_table):
        baseline = run_campaign(layout, pof_table, n=9000, chunk_size=4096)
        rechunked = run_campaign(layout, pof_table, n=9000, chunk_size=16384)
        fanned = run_campaign(
            layout, pof_table, n=9000, chunk_size=4096, n_jobs=2
        )
        assert_results_identical(baseline, rechunked)
        assert_results_identical(baseline, fanned)


# -- batch plans ---------------------------------------------------------------


class TestBatchPlan:
    def test_plan_points_match_individual_runs(self, layout, pof_table):
        """Two campaigns in one plan == two separate ``run`` calls."""
        simulator = make_simulator(layout, pof_table)
        specs = [(5.0, 0.7, 9000, 101), (2.0, 0.9, 6000, 202)]
        individual = [
            simulator.run(
                ALPHA,
                energy,
                vdd,
                n,
                np.random.default_rng(np.random.SeedSequence(seed)),
            )
            for energy, vdd, n, seed in specs
        ]
        for n_jobs in (1, 2):
            # fresh points per plan: executing one spawns its seeds' streams
            points = [
                CampaignPoint(
                    particle_name="alpha",
                    energy_mev=energy,
                    vdd_v=vdd,
                    n_particles=n,
                    seed=np.random.SeedSequence(seed),
                )
                for energy, vdd, n, seed in specs
            ]
            planned = BatchPlan(simulator, points, n_jobs=n_jobs).execute()
            assert len(planned) == 2
            for merged, single in zip(planned, individual):
                assert_results_identical(merged, single)

    def test_plan_metrics(self, layout, pof_table, metrics):
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint("alpha", 5.0, 0.7, 5000, np.random.SeedSequence(1))
        ]
        BatchPlan(simulator, points).execute()
        counters = get_registry().snapshot()["counters"]
        assert counters["fused.plans"] == 1
        assert counters["fused.campaigns"] == 1
        assert counters["fused.blocks"] == 2
        assert counters["array_mc.particles"] == 5000

    def test_lost_task_raises(self, layout, pof_table, tmp_path, monkeypatch):
        """A plan cannot degrade: a lost block is fatal."""
        simulator = make_simulator(layout, pof_table)
        points = [
            CampaignPoint("alpha", 5.0, 0.7, 9000, np.random.SeedSequence(1))
        ]
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"fused_campaigns:0:{marker}")
        with pytest.raises(WorkerCrashError):
            BatchPlan(
                simulator,
                points,
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=True),
            ).execute()
        assert marker.exists()


# -- the flow's campaign paths -------------------------------------------------


@pytest.fixture(scope="module")
def flow_config():
    from repro import FlowConfig
    from repro.sram import CharacterizationConfig

    return FlowConfig(
        particles=("alpha",),
        vdd_list=(0.7, 0.9),
        yield_energy_points=3,
        yield_trials_per_energy=1500,
        characterization=CharacterizationConfig(
            vdd_list=(0.7, 0.9),
            n_charge_points=11,
            n_samples=25,
            max_pair_points=3,
            max_triple_points=3,
        ),
        array_rows=3,
        array_cols=3,
        n_energy_bins=3,
        mc_particles_per_bin=4000,
        seed=7,
    )


@pytest.fixture(scope="module")
def lut_cache(flow_config, tmp_path_factory):
    """An artifact cache holding the flow's LUTs (no sweep artifact)."""
    from repro import SerFlow

    cache = tmp_path_factory.mktemp("luts")
    flow = SerFlow(flow_config, cache_dir=str(cache))
    flow.yield_luts()
    flow.pof_table()
    return cache


@pytest.fixture()
def flow_cache(lut_cache, tmp_path):
    cache = tmp_path / "cache"
    shutil.copytree(lut_cache, cache)
    return cache


def simulator_runs(flow, stage, vdd, energies, n_particles):
    """Per-point ``simulator.run`` on each campaign's flow seed."""
    simulator = flow.simulator()
    return [
        simulator.run(
            ALPHA,
            float(energy),
            vdd,
            n_particles,
            np.random.default_rng(
                flow._campaign_seed(
                    stage, "alpha", f"{vdd:g}", f"{float(energy):.9g}"
                )
            ),
        )
        for energy in energies
    ]


class TestFlowCampaigns:
    def test_sweep_cases_equal_integrated_simulator_runs(
        self, flow_config, flow_cache
    ):
        from repro import SerFlow

        flow = SerFlow(flow_config, cache_dir=str(flow_cache))
        sweep = flow.sweep()
        assert len(list(flow_cache.glob("sweep-*.json"))) == 1
        e_lo, e_hi = flow_config.energy_range_for("alpha")
        bins = spectrum_for("alpha").make_bins(
            flow_config.n_energy_bins, e_lo, e_hi
        )
        for vdd in flow_config.vdd_list:
            results = simulator_runs(
                flow,
                "fit",
                vdd,
                bins.representative_mev,
                flow_config.mc_particles_per_bin,
            )
            expected = integrate_fit("alpha", vdd, bins, results)
            assert_fits_identical(sweep.get("alpha", vdd), expected)

    def test_fit_equals_sweep_case(self, flow_config, flow_cache):
        from repro import SerFlow

        sweep = SerFlow(flow_config, cache_dir=str(flow_cache)).sweep()
        fitter = SerFlow(flow_config, cache_dir=str(flow_cache), n_jobs=2)
        for vdd in flow_config.vdd_list:
            assert_fits_identical(
                fitter.fit("alpha", vdd), sweep.get("alpha", vdd)
            )

    def test_pof_vs_energy_equals_simulator_runs(
        self, flow_config, flow_cache
    ):
        from repro import SerFlow

        flow = SerFlow(flow_config, cache_dir=str(flow_cache), n_jobs=2)
        energies = [0.5, 2.0, 5.0]
        scanned = flow.pof_vs_energy("alpha", 0.7, energies, n_particles=5000)
        expected = simulator_runs(flow, "pof-vs-energy", 0.7, energies, 5000)
        assert len(scanned) == len(expected)
        for got, want in zip(scanned, expected):
            assert_results_identical(got, want)


class TestFlowKillResume:
    def test_sweep_resume_bit_identical(
        self, flow_config, flow_cache, tmp_path, monkeypatch, metrics
    ):
        """Kill a worker mid-sweep, rerun with resume: same sweep.

        The sweep is six one-block tasks on two workers.  The worker
        that picks task 3 finds at least two earlier tasks finished and
        journaled, so the rerun always resumes with partial credit (a
        kill at task 1 would race task 0 and could leave nothing).
        """
        from repro import SerFlow

        clean = SerFlow(flow_config, cache_dir=str(flow_cache)).sweep()
        for stored in flow_cache.glob("sweep-*.json"):
            stored.unlink()

        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"fused_campaigns:3:{marker}")
        with pytest.raises(WorkerCrashError):
            SerFlow(
                flow_config,
                cache_dir=str(flow_cache),
                n_jobs=2,
                retry=RetryPolicy(retries=0, allow_partial=False),
            ).sweep()
        assert marker.exists()
        assert not list(flow_cache.glob("sweep-*.json"))
        assert len(list(flow_cache.glob("journal-sweep-*.jsonl"))) == 1

        resumed = SerFlow(flow_config, cache_dir=str(flow_cache), n_jobs=2)
        swept = resumed.sweep()
        for vdd in flow_config.vdd_list:
            assert_fits_identical(
                swept.get("alpha", vdd), clean.get("alpha", vdd)
            )
        assert get_registry().counter("journal.resumed").value >= 1
        # the finished sweep cleared its checkpoint
        assert not list(flow_cache.glob("journal-*.jsonl"))


# -- vectorized helpers vs. their preserved loop references --------------------


class TestClusterPairVectorization:
    def _random_batch(self, rng):
        n_events = int(rng.integers(1, 12))
        n_cells = 9  # 3x3
        pof = rng.random((n_events, n_cells))
        pof[rng.random((n_events, n_cells)) < 0.6] = 0.0
        return pof

    def test_pair_streams_match_loop_bitwise_and_in_order(self):
        n_cols = 3
        rng = np.random.default_rng(31)
        for _ in range(200):
            pof_cells = self._random_batch(rng)
            loop_acc = {}
            _accumulate_pairs_loop(pof_cells, n_cols, loop_acc)
            stream = _pair_streams(pof_cells, n_cols)
            if stream is None:
                assert loop_acc == {}
                continue
            codes, values = stream
            unique_codes, first_pos, inverse = np.unique(
                codes, return_index=True, return_inverse=True
            )
            acc = np.zeros(len(unique_codes), dtype=np.float64)
            np.add.at(acc, inverse, values)
            vec_acc = {
                (
                    int(unique_codes[i] // n_cols),
                    int(unique_codes[i] % n_cols),
                ): float(acc[i])
                for i in np.argsort(first_pos, kind="stable")
            }
            # bit-identical values AND identical dict insertion order
            assert list(vec_acc) == list(loop_acc)
            for key in loop_acc:
                assert vec_acc[key] == loop_acc[key]

    def test_empty_and_single_cell_batches(self):
        assert _pair_streams(np.zeros((4, 9)), 3) is None
        single = np.zeros((2, 9))
        single[0, 4] = 0.5  # one failing cell: no pairs
        assert _pair_streams(single, 3) is None


def _group_codes_loop(codes):
    """The pre-vectorization grouping, verbatim (regression reference)."""
    return [
        (int(code), np.nonzero(codes == code)[0]) for code in np.unique(codes)
    ]


class TestPofGroupingVectorization:
    def test_group_codes_match_loop(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            codes = rng.integers(0, 8, size=int(rng.integers(0, 40)))
            got = _group_codes(codes)
            ref = _group_codes_loop(codes)
            assert len(got) == len(ref)
            for (code_a, rows_a), (code_b, rows_b) in zip(got, ref):
                assert code_a == code_b
                assert np.array_equal(rows_a, rows_b)

    def test_empty(self):
        assert _group_codes(np.array([], dtype=np.int64)) == []
