"""Cell characterization into POF LUTs (paper Section 4)."""

import numpy as np
import pytest

from repro.errors import ConfigError, LookupError_
from repro.sram import (
    ALL_COMBOS,
    CharacterizationConfig,
    PofTable,
    SramCellDesign,
    characterize_cell,
)
from repro.sram.qcrit import nominal_critical_charge_c


@pytest.fixture(scope="module")
def design():
    return SramCellDesign()


@pytest.fixture(scope="module")
def table(design):
    config = CharacterizationConfig(
        vdd_list=(0.7, 0.9),
        n_charge_points=17,
        n_samples=60,
        max_pair_points=6,
        max_triple_points=4,
        seed=3,
    )
    return characterize_cell(design, config)


@pytest.fixture(scope="module")
def nominal_table(design):
    config = CharacterizationConfig(
        vdd_list=(0.7, 0.9),
        n_charge_points=17,
        process_variation=False,
        max_pair_points=6,
        max_triple_points=4,
    )
    return characterize_cell(design, config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            CharacterizationConfig(vdd_list=())
        with pytest.raises(ConfigError):
            CharacterizationConfig(vdd_list=(0.9, 0.7))
        with pytest.raises(ConfigError):
            CharacterizationConfig(charge_min_fc=1.0, charge_max_fc=0.5)
        with pytest.raises(ConfigError):
            CharacterizationConfig(n_samples=0)

    def test_charge_axis_log_spaced(self):
        axis = CharacterizationConfig(n_charge_points=11).charge_axis_c()
        ratios = axis[1:] / axis[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_combo_axis_decimation(self):
        config = CharacterizationConfig(n_charge_points=21, max_pair_points=7)
        assert len(config.axis_for_combo((0,))) == 21
        assert len(config.axis_for_combo((0, 1))) == 7


class TestKernelEquivalence:
    """End-to-end contracts of the cell-kernel rework: fused stacking,
    settle hoisting, batch chunking and early exit reproduce the seed
    exact pipeline bit-identically; the tabulated backend stays within
    its POF accuracy budget."""

    BASE = dict(
        vdd_list=(0.7,),
        n_charge_points=7,
        n_samples=6,
        max_pair_points=3,
        max_triple_points=3,
        seed=11,
    )

    @classmethod
    def _run(cls, design, **overrides):
        return characterize_cell(
            design, CharacterizationConfig(**cls.BASE, **overrides)
        )

    @pytest.fixture(scope="class")
    def seed_table(self, design):
        return self._run(
            design, kernel="exact", early_exit=False, hoist_settle=False
        )

    @staticmethod
    def _assert_identical(a, b):
        for combo in a.pof:
            assert np.array_equal(a.pof[combo], b.pof[combo])

    def test_fused_bit_identical(self, design, seed_table):
        fused = self._run(
            design, kernel="fused", early_exit=False, hoist_settle=False
        )
        self._assert_identical(fused, seed_table)

    def test_hoisted_settle_bit_identical(self, design, seed_table):
        hoisted = self._run(
            design, kernel="exact", early_exit=False, hoist_settle=True
        )
        self._assert_identical(hoisted, seed_table)

    def test_chunked_bit_identical(self, design, seed_table):
        chunked = self._run(
            design,
            kernel="exact",
            early_exit=False,
            hoist_settle=False,
            max_batch=10,  # forces one grid point per chunk (6 samples)
        )
        self._assert_identical(chunked, seed_table)

    def test_early_exit_bit_identical(self, design, seed_table):
        early = self._run(
            design, kernel="fused", early_exit=True, hoist_settle=False
        )
        self._assert_identical(early, seed_table)

    def test_tabulated_within_budget(self, design, seed_table):
        tabulated = self._run(design)  # the defaults: tabulated + all opts
        for combo in seed_table.pof:
            dev = np.max(
                np.abs(tabulated.pof[combo] - seed_table.pof[combo])
            )
            assert dev <= 0.01, f"combo {combo}: |dPOF| {dev:.4f}"

    def test_kernel_config_validation(self):
        with pytest.raises(ConfigError):
            CharacterizationConfig(kernel="magic")
        with pytest.raises(ConfigError):
            CharacterizationConfig(early_exit_margin_v=0.0)
        with pytest.raises(ConfigError):
            CharacterizationConfig(table_points=4)
        with pytest.raises(ConfigError):
            CharacterizationConfig(max_batch=0)

    def test_kernel_metrics_recorded(self, design):
        from repro.obs.registry import disable_metrics, enable_metrics

        registry = enable_metrics(fresh=True)
        try:
            self._run(design)
            runs = registry.counter("characterize.kernel.runs.tabulated")
            builds = registry.counter("characterize.kernel.table_builds")
            frozen = registry.counter(
                "characterize.kernel.early_exit.frozen"
            )
            assert runs.value > 0
            assert builds.value >= 1
            assert frozen.value > 0
        finally:
            disable_metrics()


class TestPofTableStructure:
    def test_all_combos_present(self, table):
        assert set(table.pof) == set(ALL_COMBOS)

    def test_grid_shapes(self, table):
        n_q = len(table.charge_axis_c)
        assert table.pof[(0,)].shape == (2, n_q)
        assert table.pof[(0, 1)].shape == (2, n_q, n_q)
        assert table.pof[(0, 1, 2)].shape == (2, n_q, n_q, n_q)

    def test_pof_in_unit_interval(self, table):
        for grid in table.pof.values():
            assert np.all(grid >= 0.0)
            assert np.all(grid <= 1.0)

    def test_monotone_along_each_axis(self, table):
        for combo, grid in table.pof.items():
            for axis in range(1, grid.ndim):
                assert np.all(np.diff(grid, axis=axis) >= -1e-12)

    def test_edges_are_decisive(self, table):
        # smallest charge never flips, largest always flips
        for vdd_index in range(2):
            single = table.pof[(0,)][vdd_index]
            assert single[0] == 0.0
            assert single[-1] == 1.0


class TestPofQueries:
    def test_zero_charge_zero_pof(self, table):
        assert table.query(0.8, np.zeros((3, 3))) == pytest.approx([0, 0, 0])

    def test_threshold_behaviour(self, table, design):
        qcrit = nominal_critical_charge_c(design, 0.7)
        low = table.query(0.7, np.array([[0.3 * qcrit, 0, 0]]))[0]
        high = table.query(0.7, np.array([[3.0 * qcrit, 0, 0]]))[0]
        assert low < 0.05
        assert high > 0.95

    def test_lower_vdd_weaker_cell(self, table):
        # at a charge near threshold, POF(0.7V) >= POF(0.9V)
        axis = table.charge_axis_c
        mid = np.array([[axis[len(axis) // 2], 0.0, 0.0]])
        assert table.query(0.7, mid)[0] >= table.query(0.9, mid)[0] - 1e-9

    def test_vdd_interpolation_brackets(self, table):
        charges = np.array([[1.2e-16, 0.0, 0.0]])
        p_lo = table.query(0.7, charges)[0]
        p_hi = table.query(0.9, charges)[0]
        p_mid = table.query(0.8, charges)[0]
        assert min(p_lo, p_hi) - 1e-12 <= p_mid <= max(p_lo, p_hi) + 1e-12

    def test_vdd_outside_range_rejected(self, table):
        # a 0.5 V query must not silently return the 0.7 V edge numbers
        charges = np.array([[1.2e-16, 0.0, 0.0]])
        for vdd in (0.5, 0.69, 0.91, 1.2):
            with pytest.raises(ConfigError, match="outside"):
                table.query(vdd, charges)
        # the tabulated edges themselves stay valid
        assert table.query(0.7, charges).shape == (1,)
        assert table.query(0.9, charges).shape == (1,)

    def test_charge_clamp_above_grid(self, table):
        charges = np.array([[1e-12, 0.0, 0.0]])  # 1 pC, way off grid
        assert table.query(0.7, charges)[0] == pytest.approx(1.0)

    def test_multi_strike_exceeds_single(self, table, design):
        qcrit = nominal_critical_charge_c(design, 0.7)
        q = 0.7 * qcrit
        single = table.query(0.7, np.array([[q, 0, 0]]))[0]
        double = table.query(0.7, np.array([[q, q, 0]]))[0]
        assert double >= single - 1e-9

    def test_scenario_query(self, table):
        from repro.sram import StrikeScenario

        pof = table.query_scenario(0.7, StrikeScenario(5e-16, 0, 0))
        assert pof == pytest.approx(1.0)

    def test_negative_charge_rejected(self, table):
        with pytest.raises(ConfigError):
            table.query(0.7, np.array([[-1e-16, 0, 0]]))

    def test_critical_charge_extraction(self, table, design):
        qcrit_table = table.critical_charge_c(0.7)
        qcrit_direct = nominal_critical_charge_c(design, 0.7)
        assert qcrit_table == pytest.approx(qcrit_direct, rel=0.25)


class TestNominalMode:
    def test_binary_pofs(self, nominal_table):
        # "deterministic binary value" (paper Section 4).  Multi-strike
        # grids are re-interpolated onto the shared axis, which smears
        # the step; the natively-gridded single-strike tables stay
        # exactly binary.
        for combo in ((0,), (1,), (2,)):
            grid = nominal_table.pof[combo]
            assert np.all((grid == 0.0) | (grid == 1.0))

    def test_n_samples_is_one(self, nominal_table):
        assert nominal_table.n_samples == 1
        assert not nominal_table.process_variation

    def test_pv_smooths_the_step(self, table, nominal_table):
        """With PV the POF transition must be wider than the binary step."""
        axis = table.charge_axis_c
        pv = table.pof[(0,)][0]
        intermediate = np.sum((pv > 0.02) & (pv < 0.98))
        assert intermediate >= 1


class TestSerialization:
    def test_round_trip(self, table):
        clone = PofTable.from_dict(table.to_dict())
        assert np.allclose(clone.vdd_list, table.vdd_list)
        assert np.allclose(clone.charge_axis_c, table.charge_axis_c)
        for combo in ALL_COMBOS:
            assert np.allclose(clone.pof[combo], table.pof[combo])
        charges = np.array([[1.3e-16, 0.0, 2.0e-16]])
        assert clone.query(0.8, charges)[0] == pytest.approx(
            table.query(0.8, charges)[0]
        )

    def test_wrong_kind_rejected(self):
        with pytest.raises(ConfigError):
            PofTable.from_dict({"kind": "something-else"})


class TestGridPointConsistency:
    def test_query_reproduces_stored_grid(self, table):
        """Interpolation is exact at the tabulated grid points."""
        axis = table.charge_axis_c
        stored = table.pof[(0,)][0]  # vdd index 0 = 0.7 V
        for i in (0, len(axis) // 2, len(axis) - 1):
            charges = np.zeros((1, 3))
            charges[0, 0] = axis[i]
            assert table.query(0.7, charges)[0] == pytest.approx(
                stored[i], abs=1e-9
            )

    def test_pair_grid_point_consistency(self, table):
        axis = table.charge_axis_c
        mid = len(axis) // 2
        charges = np.zeros((1, 3))
        charges[0, 0] = axis[mid]
        charges[0, 1] = axis[mid]
        stored = table.pof[(0, 1)][0][mid, mid]
        assert table.query(0.7, charges)[0] == pytest.approx(
            stored, abs=1e-9
        )
