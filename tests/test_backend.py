"""Pluggable array-compute backend: selection, bit-identity, fusion.

Covers the four contracts of the backend plane:

* selection precedence -- ``REPRO_BACKEND`` beats an explicit override
  beats ``set_backend_default``, the same layering as the warm-pool
  and shm switches (one parameterized test across all three);
* graceful degradation -- requesting an unavailable accelerated
  backend falls back to numpy with a counted warning, never an error;
* bit-identity -- the numpy backend reproduces the historical inline
  kernels exactly (primitive goldens + campaign invariance), the
  vectorized cluster/POF-grouping satellites match their preserved
  loop references element-for-element, fused sweeps match per-campaign
  sweeps, and kill-and-resume stays deterministic under
  ``backend="numpy"``;
* tolerance -- numba/cupy campaigns agree with numpy within 1e-3
  (auto-skipped on hosts without the dependency).
"""

import numpy as np
import pytest

from repro.backend import (
    BACKENDS,
    ENV_BACKEND,
    CupyBackend,
    NumbaBackend,
    NumpyBackend,
    backend_name,
    get_backend,
    get_backend_instance,
    resolve_backend,
    set_backend_default,
)
from repro.errors import ConfigError, WorkerCrashError
from repro.layout import SramArrayLayout
from repro.obs.manifest import build_manifest
from repro.obs.registry import disable_metrics, enable_metrics, get_registry
from repro.parallel import RetryPolicy, ShardJournal
from repro.parallel.engine import FAULT_ENV
from repro.parallel.pool import set_warm_pool_default, warm_pool_enabled
from repro.parallel.shm import set_shm_default, shm_enabled
from repro.physics import ALPHA
from repro.ser import ArrayMcConfig, ArraySerSimulator, BatchPlan, CampaignPoint
from repro.ser.clusters import _accumulate_pairs_loop, _pair_streams
from repro.ser.mc import array_shard_decode, array_shard_encode
from repro.sram import PofTable
from repro.sram.pof_lut import _group_codes
from repro.sram.strike import ALL_COMBOS

needs_numba = pytest.mark.skipif(
    not NumbaBackend.available(), reason="numba not installed"
)
needs_cupy = pytest.mark.skipif(
    not CupyBackend.available(), reason="cupy/GPU not available"
)


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


def run_campaign(
    layout, pof_table, *, seed=42, n=6000, retry=None, journal=None, **overrides
):
    simulator = make_simulator(layout, pof_table, **overrides)
    rng = np.random.default_rng(seed)
    return simulator.run(ALPHA, 5.0, 0.7, n, rng, retry=retry, journal=journal)


def assert_results_identical(a, b):
    assert a.pof_total == b.pof_total
    assert a.pof_seu == b.pof_seu
    assert a.pof_mbu == b.pof_mbu
    assert a.n_particles == b.n_particles
    assert a.n_array_hits == b.n_array_hits
    assert a.n_fin_strikes == b.n_fin_strikes
    assert np.array_equal(a.multiplicity_pmf, b.multiplicity_pmf)


@pytest.fixture()
def metrics():
    registry = enable_metrics(fresh=True)
    try:
        yield registry
    finally:
        disable_metrics()


# -- selection precedence ------------------------------------------------------

# One row per execution-plane switch: the env var must beat the
# explicit override, which must beat the module set_*_default.
PRECEDENCE = {
    "warm_pool": dict(
        query=warm_pool_enabled,
        set_default=set_warm_pool_default,
        factory_default=True,
        non_default=False,
        override=True,
        env=("REPRO_NO_WARM_POOL", "1"),
        env_wins=False,
    ),
    "shm": dict(
        query=shm_enabled,
        set_default=set_shm_default,
        factory_default=True,
        non_default=False,
        override=True,
        env=("REPRO_NO_SHM", "1"),
        env_wins=False,
    ),
    "backend": dict(
        query=backend_name,
        set_default=set_backend_default,
        factory_default="numpy",
        non_default="numba",
        override="cupy",
        env=(ENV_BACKEND, "numpy"),
        env_wins="numpy",
    ),
}


class TestPrecedence:
    @pytest.mark.parametrize("switch", sorted(PRECEDENCE))
    def test_env_beats_override_beats_default(self, switch, monkeypatch):
        knob = PRECEDENCE[switch]
        monkeypatch.delenv(knob["env"][0], raising=False)
        try:
            # layer 3: the module default applies when nothing else is set
            knob["set_default"](knob["non_default"])
            assert knob["query"]() == knob["non_default"]
            # layer 2: an explicit override beats the default
            assert knob["query"](knob["override"]) == knob["override"]
            # layer 1: the environment beats both
            monkeypatch.setenv(*knob["env"])
            assert knob["query"](knob["override"]) == knob["env_wins"]
            assert knob["query"]() == knob["env_wins"]
        finally:
            knob["set_default"](knob["factory_default"])


# -- resolution and graceful fallback ------------------------------------------


class TestResolution:
    def test_registered_names(self):
        assert BACKENDS == ("numpy", "numba", "cupy")

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            backend_name("fortran")
        with pytest.raises(ConfigError):
            get_backend_instance("fortran")
        with pytest.raises(ConfigError):
            ArrayMcConfig(backend="fortran")

    def test_env_unknown_name_rejected(self, monkeypatch):
        monkeypatch.setenv(ENV_BACKEND, "fortran")
        with pytest.raises(ConfigError):
            backend_name()

    def test_numpy_always_resolves_to_itself(self):
        assert resolve_backend("numpy") == "numpy"
        assert isinstance(get_backend("numpy"), NumpyBackend)

    def test_instances_are_cached(self):
        assert get_backend_instance("numpy") is get_backend_instance("numpy")

    def test_unavailable_request_falls_back_counted(
        self, monkeypatch, metrics
    ):
        if CupyBackend.available():
            pytest.skip("cupy present: fallback path not reachable")
        monkeypatch.setenv(ENV_BACKEND, "cupy")
        assert backend_name() == "cupy"  # requested name survives
        assert resolve_backend() == "numpy"  # effective name degrades
        assert get_registry().counter("backend.fallbacks").value >= 1
        # the degraded instance is plain numpy, fully functional
        assert isinstance(get_backend(), NumpyBackend)

    def test_simulator_adopts_resolved_backend(self, layout, pof_table):
        simulator = make_simulator(layout, pof_table, backend="numpy")
        assert simulator._backend_name == "numpy"

    def test_campaign_runs_counted_per_backend(
        self, layout, pof_table, metrics
    ):
        run_campaign(layout, pof_table, n=4096, backend="numpy")
        assert get_registry().counter("backend.runs.numpy").value >= 1


# -- numpy bit-identity golden -------------------------------------------------


class TestNumpyPrimitiveGoldens:
    """NumpyBackend primitives vs. the historical inline code, verbatim."""

    def _segments(self, rng, n_groups=40, max_size=6):
        sizes = rng.integers(1, max_size + 1, size=n_groups)
        pof = rng.random(int(sizes.sum()))
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        return pof, starts

    def test_segment_combine_matches_inline_eqs(self):
        xp = NumpyBackend()
        rng = np.random.default_rng(21)
        one_minus_eps = 1.0 - 1e-12
        for _ in range(50):
            pof, starts = self._segments(rng)
            total, seu, mbu = xp.segment_combine(pof, starts, one_minus_eps)
            # the exact expressions the sparse kernel used to inline
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
        xp = NumpyBackend()
        rng = np.random.default_rng(22)
        max_k = 4
        for _ in range(25):
            pof, starts = self._segments(rng, n_groups=20)
            got = xp.segment_multiplicity(pof, starts, max_k)
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

    def test_bilinear_gather_matches_inline_blend(self):
        xp = NumpyBackend()
        rng = np.random.default_rng(23)
        stride = 9
        flat = rng.standard_normal(stride * 7)
        base = rng.integers(0, stride * 5, size=64)
        fw = rng.random(64)
        fu = rng.random(64)
        got = xp.bilinear_gather(flat, base, stride, fw, fu)
        v00, v01 = flat[base], flat[base + 1]
        v10, v11 = flat[base + stride], flat[base + stride + 1]
        z0 = v00 + (v01 - v00) * fw
        z1 = v10 + (v11 - v10) * fw
        assert np.array_equal(got, z0 + (z1 - z0) * fu)


class TestNumpyCampaignIdentity:
    def test_default_resolution_is_numpy_and_identical(
        self, layout, pof_table
    ):
        """``backend=None`` resolves to numpy and changes no bit."""
        implicit = run_campaign(layout, pof_table)
        explicit = run_campaign(layout, pof_table, backend="numpy")
        assert_results_identical(implicit, explicit)

    def test_identical_across_chunking_and_jobs(self, layout, pof_table):
        baseline = run_campaign(
            layout, pof_table, n=9000, chunk_size=4096, backend="numpy"
        )
        rechunked = run_campaign(
            layout, pof_table, n=9000, chunk_size=16384, backend="numpy"
        )
        fanned = run_campaign(
            layout,
            pof_table,
            n=9000,
            chunk_size=4096,
            n_jobs=2,
            backend="numpy",
        )
        assert_results_identical(baseline, rechunked)
        assert_results_identical(baseline, fanned)


# -- accelerated backends: tolerance contract ----------------------------------


class TestAcceleratedTolerance:
    """max |delta| <= 1e-3 vs numpy; auto-skipped when unavailable."""

    def _compare(self, layout, pof_table, name):
        base = run_campaign(layout, pof_table, n=9000, backend="numpy")
        accel = run_campaign(layout, pof_table, n=9000, backend=name)
        assert accel.n_particles == base.n_particles
        assert accel.n_array_hits == base.n_array_hits
        assert accel.n_fin_strikes == base.n_fin_strikes
        assert abs(accel.pof_total - base.pof_total) <= 1e-3
        assert abs(accel.pof_seu - base.pof_seu) <= 1e-3
        assert abs(accel.pof_mbu - base.pof_mbu) <= 1e-3
        assert (
            np.max(np.abs(accel.multiplicity_pmf - base.multiplicity_pmf))
            <= 1e-3
        )

    @needs_numba
    def test_numba_campaign_within_tolerance(self, layout, pof_table):
        self._compare(layout, pof_table, "numba")

    @needs_cupy
    def test_cupy_campaign_within_tolerance(self, layout, pof_table):
        self._compare(layout, pof_table, "cupy")


# -- cross-campaign batch fusion -----------------------------------------------


class TestBatchPlan:
    def test_fused_points_match_individual_runs(self, layout, pof_table):
        """Two campaigns fused into one plan == two separate runs."""
        simulator = make_simulator(layout, pof_table, backend="numpy")
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
        points = [
            CampaignPoint(
                index=i,
                particle_name="alpha",
                energy_mev=energy,
                vdd_v=vdd,
                n_particles=n,
                seed=np.random.SeedSequence(seed),
            )
            for i, (energy, vdd, n, seed) in enumerate(specs)
        ]
        fused = BatchPlan(simulator, points).execute()
        assert len(fused) == 2
        for merged, single in zip(fused, individual):
            assert_results_identical(merged, single)

    def test_fused_plan_metrics(self, layout, pof_table, metrics):
        simulator = make_simulator(layout, pof_table, backend="numpy")
        points = [
            CampaignPoint(0, "alpha", 5.0, 0.7, 5000, np.random.SeedSequence(1))
        ]
        BatchPlan(simulator, points).execute()
        counters = get_registry().snapshot()["counters"]
        assert counters["backend.fused_plans"] == 1
        assert counters["backend.fused_campaigns"] == 1
        assert counters["backend.fused_blocks"] >= 1

    def test_lost_task_raises(self, layout, pof_table, tmp_path, monkeypatch):
        """A fused plan cannot degrade: a lost block is fatal."""
        simulator = make_simulator(layout, pof_table, backend="numpy")
        points = [
            CampaignPoint(0, "alpha", 5.0, 0.7, 9000, np.random.SeedSequence(1))
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


class TestFusedSweep:
    @pytest.fixture(scope="class")
    def flow_config(self):
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
            n_energy_bins=2,
            mc_particles_per_bin=4000,
            seed=7,
        )

    def test_fused_sweep_bit_identical_same_cache_key(
        self, flow_config, tmp_path
    ):
        """fuse=True changes no bit of the sweep and no cache key."""
        from repro import SerFlow

        plain_flow = SerFlow(flow_config, cache_dir=str(tmp_path))
        plain = plain_flow.sweep()
        cached = sorted(p.name for p in tmp_path.glob("sweep-*.json"))
        assert len(cached) == 1
        for stale in tmp_path.glob("sweep-*.json"):
            stale.unlink()

        # same cache dir: LUT + POF artifacts are reused, only the
        # sweep itself reruns -- this time through the fused plan
        fused_flow = SerFlow(flow_config, cache_dir=str(tmp_path), fuse=True)
        fused = fused_flow.sweep()
        assert sorted(p.name for p in tmp_path.glob("sweep-*.json")) == cached

        assert fused.particles() == plain.particles()
        for vdd in (0.7, 0.9):
            a = plain.get("alpha", vdd)
            b = fused.get("alpha", vdd)
            assert b.fit_total == a.fit_total
            assert b.fit_seu == a.fit_seu
            assert b.fit_mbu == a.fit_mbu


# -- kill-and-resume determinism under --backend numpy -------------------------


class TestKillResumeWithBackend:
    def test_resume_bit_identical_under_numpy_backend(
        self, layout, pof_table, tmp_path, monkeypatch, metrics
    ):
        clean = run_campaign(
            layout, pof_table, n=9000, chunk_size=4096, backend="numpy"
        )
        journal = ShardJournal(
            tmp_path / "campaign.jsonl",
            "campaign-key",
            encode=array_shard_encode,
            decode=array_shard_decode,
        )
        marker = tmp_path / "killed"
        monkeypatch.setenv(FAULT_ENV, f"array_mc:2:{marker}")
        with pytest.raises(WorkerCrashError):
            run_campaign(
                layout,
                pof_table,
                n=9000,
                chunk_size=4096,
                n_jobs=2,
                backend="numpy",
                retry=RetryPolicy(retries=0, allow_partial=False),
                journal=journal,
            )
        assert marker.exists()
        assert len(journal.load()) >= 1

        resumed = run_campaign(
            layout,
            pof_table,
            n=9000,
            chunk_size=4096,
            n_jobs=2,
            backend="numpy",
            journal=journal,
        )
        assert get_registry().counter("journal.resumed").value >= 1
        assert_results_identical(resumed, clean)
        assert journal.load() == {}


# -- vectorized satellites vs. their preserved loop references -----------------


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


# -- observability -------------------------------------------------------------


class TestBackendObservability:
    def test_manifest_backend_section(self, metrics):
        registry = get_registry()
        registry.counter("backend.runs.numpy").inc(3)
        registry.counter("backend.fallbacks").inc()
        registry.counter("backend.fused_plans").inc()
        registry.counter("backend.fused_campaigns").inc(4)
        registry.counter("backend.fused_blocks").inc(12)
        manifest = build_manifest(
            command="sweep",
            argv=["sweep", "--backend", "numpy", "--fuse"],
            config={"backend": "numpy"},
            seed=7,
            started_at="2026-08-08T00:00:00+00:00",
            duration_s=1.0,
            exit_code=0,
            version="1.0.0",
        )
        assert manifest.backend["runs"] == {"numpy": 3}
        assert manifest.backend["fallbacks"] == 1
        assert manifest.backend["fused_plans"] == 1
        assert manifest.backend["fused_campaigns"] == 4
        assert manifest.backend["fused_blocks"] == 12
        assert manifest.environment["backend"] == "numpy"
        # the section survives the serialization round trip
        from repro.obs.manifest import RunManifest

        clone = RunManifest.from_dict(manifest.to_dict())
        assert clone.backend == manifest.backend
