"""The numpy POF-LUT lookup against scipy's RegularGridInterpolator.

:func:`repro.sram.pof_lut._multilinear` replaced
``scipy.interpolate.RegularGridInterpolator(method="linear")`` in the
POF table and in the characterization resampler.  Every FIT flows
through it, so these tests demand *exact* equality (``np.array_equal``)
with scipy, which stays available as a test-only reference.
"""

import pickle

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.sram import PofTable
from repro.sram.characterize import _resample_to_axis
from repro.sram.pof_lut import _multilinear
from repro.sram.strike import ALL_COMBOS

interpolate = pytest.importorskip("scipy.interpolate")


def _scipy_lookup(axis, values, points):
    return interpolate.RegularGridInterpolator(
        (axis,) * values.ndim,
        values,
        method="linear",
        bounds_error=False,
        fill_value=None,
    )(points)


def _scipy_query(table, vdd_v, charges):
    """``PofTable.query`` as it was written on top of scipy."""
    charges = np.atleast_2d(np.asarray(charges, dtype=np.float64))
    result = np.zeros(charges.shape[0])
    log_axis = np.log(table.charge_axis_c)
    lo, hi, weight = table._vdd_bracket(vdd_v)
    active = charges > 0.0
    codes = active[:, 0] + 2 * active[:, 1] + 4 * active[:, 2]
    for code in np.unique(codes):
        if code == 0:
            continue
        rows = np.nonzero(codes == code)[0]
        combo = tuple(i for i in range(3) if code & (1 << i))
        points = np.log(
            np.clip(
                charges[rows][:, list(combo)],
                table.charge_axis_c[0],
                table.charge_axis_c[-1],
            )
        )
        pof_lo = _scipy_lookup(log_axis, table.pof[combo][lo], points)
        if hi == lo:
            result[rows] = pof_lo
        else:
            pof_hi = _scipy_lookup(log_axis, table.pof[combo][hi], points)
            result[rows] = (1.0 - weight) * pof_lo + weight * pof_hi
    return np.clip(result, 0.0, 1.0)


def _random_table(rng, vdds=(0.7, 0.8, 0.9, 1.0), n_q=9):
    axis = np.sort(np.exp(rng.uniform(np.log(1e-17), np.log(1e-14), n_q)))
    pof = {
        combo: rng.random((len(vdds),) + (n_q,) * len(combo))
        for combo in ALL_COMBOS
    }
    return PofTable(vdd_list=vdds, charge_axis_c=axis, pof=pof)


def _random_charges(rng, table, n):
    log_lo = np.log(table.charge_axis_c[0])
    log_hi = np.log(table.charge_axis_c[-1])
    charges = np.exp(rng.uniform(log_lo - 1.0, log_hi + 1.0, (n, 3)))
    charges[rng.random((n, 3)) < 0.4] = 0.0
    return charges


class TestMultilinearMatchesScipy:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    @pytest.mark.parametrize("n_axis", [2, 3, 11])
    def test_random_points(self, ndim, n_axis):
        rng = np.random.default_rng(100 * ndim + n_axis)
        for _ in range(20):
            axis = np.sort(rng.uniform(-40.0, -32.0, n_axis))
            values = rng.random((n_axis,) * ndim)
            points = rng.uniform(axis[0] - 1.0, axis[-1] + 1.0, (257, ndim))
            assert np.array_equal(
                _multilinear(axis, values, points),
                _scipy_lookup(axis, values, points),
            )

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_exact_grid_points_and_edges(self, ndim):
        rng = np.random.default_rng(7 + ndim)
        axis = np.log(np.logspace(-17, -14, 8))
        values = rng.random((len(axis),) * ndim)
        mesh = np.meshgrid(*([axis] * ndim), indexing="ij")
        nodes = np.stack([m.ravel() for m in mesh], axis=-1)
        mixed = [axis[0], axis[-1], axis[0]][:ndim]
        edges = np.array([[axis[0]] * ndim, [axis[-1]] * ndim, mixed])
        for points in (nodes, edges):
            got = _multilinear(axis, values, points)
            assert np.array_equal(got, _scipy_lookup(axis, values, points))
        # on a node the lookup returns the stored value itself
        assert np.array_equal(
            _multilinear(axis, values, nodes), values.ravel()
        )

    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_single_row(self, ndim):
        rng = np.random.default_rng(3)
        axis = np.sort(rng.uniform(0.0, 1.0, 6))
        values = rng.random((6,) * ndim)
        point = rng.uniform(0.0, 1.0, (1, ndim))
        got = _multilinear(axis, values, point)
        assert got.shape == (1,)
        assert np.array_equal(got, _scipy_lookup(axis, values, point))

    def test_read_only_grid_same_result(self):
        # scipy switches to another (differently rounded) 2-D path for a
        # read-only grid; the lookup must not depend on writeability, as
        # grids attached from shared memory are read-only
        rng = np.random.default_rng(11)
        axis = np.linspace(-38.0, -33.0, 9)
        values = rng.random((9, 9))
        points = rng.uniform(-38.0, -33.0, (500, 2))
        frozen = values.copy()
        frozen.flags.writeable = False
        assert np.array_equal(
            _multilinear(axis, frozen, points),
            _multilinear(axis, values, points),
        )


class TestPofTableQueryMatchesScipy:
    def test_tabulated_vdds(self):
        rng = np.random.default_rng(21)
        table = _random_table(rng)
        charges = _random_charges(rng, table, 400)
        for vdd in table.vdd_list:
            assert np.array_equal(
                table.query(vdd, charges), _scipy_query(table, vdd, charges)
            )

    def test_vdd_between_brackets(self):
        rng = np.random.default_rng(22)
        table = _random_table(rng)
        charges = _random_charges(rng, table, 400)
        for vdd in (0.7001, 0.75, 0.83, 0.9999):
            got = table.query(vdd, charges)
            assert np.array_equal(got, _scipy_query(table, vdd, charges))

    def test_charge_edges_and_single_rows(self):
        rng = np.random.default_rng(23)
        table = _random_table(rng, vdds=(0.8, 1.0), n_q=6)
        q_lo, q_hi = table.charge_axis_c[0], table.charge_axis_c[-1]
        rows = np.array(
            [
                [q_lo, 0.0, 0.0],
                [q_hi, 0.0, 0.0],
                [q_lo, q_hi, 0.0],
                [q_hi, q_hi, q_hi],
                [q_lo / 10, 0.0, q_hi * 10],  # clipped onto the edges
                [0.0, table.charge_axis_c[2], q_lo],
            ]
        )
        for vdd in (0.8, 0.9, 1.0):
            assert np.array_equal(
                table.query(vdd, rows), _scipy_query(table, vdd, rows)
            )
            for row in rows:
                assert np.array_equal(
                    table.query(vdd, row[np.newaxis]),
                    _scipy_query(table, vdd, row[np.newaxis]),
                )

    def test_single_vdd_table(self):
        rng = np.random.default_rng(24)
        table = _random_table(rng, vdds=(0.9,))
        charges = _random_charges(rng, table, 50)
        assert np.array_equal(
            table.query(0.9, charges), _scipy_query(table, 0.9, charges)
        )

    def test_read_only_grids(self):
        # grids attached from shared memory in pool workers are
        # read-only; the answer must not depend on the worker count
        rng = np.random.default_rng(26)
        table = _random_table(rng)
        frozen_pof = {}
        for combo, grid in table.pof.items():
            frozen_pof[combo] = grid.copy()
            frozen_pof[combo].flags.writeable = False
        frozen = PofTable(table.vdd_list, table.charge_axis_c, frozen_pof)
        charges = _random_charges(rng, table, 300)
        for vdd in (0.7, 0.75, 1.0):
            assert np.array_equal(
                frozen.query(vdd, charges), table.query(vdd, charges)
            )

    def test_pickle_round_trip(self):
        # the table travels to pool workers inside the pickled payload
        rng = np.random.default_rng(25)
        table = _random_table(rng)
        charges = _random_charges(rng, table, 100)
        expected = table.query(0.85, charges)
        clone = pickle.loads(pickle.dumps(table))
        assert np.array_equal(clone.query(0.85, charges), expected)


class TestVddDomain:
    @pytest.mark.parametrize("vdd", [0.6, 0.6999, 1.0001, 1.2, float("nan")])
    def test_out_of_range_raises(self, vdd):
        table = _random_table(np.random.default_rng(30))
        with pytest.raises(ConfigError, match="outside"):
            table.query(vdd, np.array([[1e-16, 0.0, 0.0]]))

    def test_edges_are_in_range(self):
        table = _random_table(np.random.default_rng(31))
        charges = np.array([[1e-16, 0.0, 0.0]])
        assert np.array_equal(
            table.query(0.7, charges), _scipy_query(table, 0.7, charges)
        )
        assert np.array_equal(
            table.query(1.0, charges), _scipy_query(table, 1.0, charges)
        )


class TestResampleMatchesScipy:
    @pytest.mark.parametrize("ndim", [1, 2, 3])
    def test_resample(self, ndim):
        rng = np.random.default_rng(40 + ndim)
        from_axis = np.logspace(-17, -14, 7)
        to_axis = np.logspace(-17.2, -13.9, 13)
        grid = np.sort(rng.random((7,) * ndim), axis=-1)
        mesh = np.meshgrid(*([np.log(to_axis)] * ndim), indexing="ij")
        points = np.stack([m.ravel() for m in mesh], axis=-1)
        expected = np.clip(
            _scipy_lookup(np.log(from_axis), grid, points).reshape(
                mesh[0].shape
            ),
            0.0,
            1.0,
        )
        got = _resample_to_axis(grid, from_axis, to_axis)
        assert np.array_equal(got, expected)

    def test_same_axis_is_identity(self):
        axis = np.logspace(-17, -14, 5)
        grid = np.random.default_rng(0).random((5, 5))
        assert _resample_to_axis(grid, axis, axis) is grid
