"""Broad-phase ray cast: the fin grid against the dense chord matrix.

:meth:`repro.geometry.BoxGrid.strike_pairs` must return exactly the
nonzero entries of ``chord_lengths(rays, sensitive boxes)`` in
``np.nonzero`` order: the array MC's generator consumption, and hence
every result and cache file, depends on that order.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Aabb, BoxGrid, RayBatch, chord_lengths, stack_boxes
from repro.layout import SramArrayLayout
from repro.obs.manifest import build_manifest
from repro.obs.registry import disable_metrics, enable_metrics
from repro.physics import ALPHA, sample_rays
from repro.ser import ArrayMcConfig, ArraySerSimulator
from repro.ser.heavy_ion import HeavyIonCampaign
from repro.sram import PofTable
from repro.sram.strike import ALL_COMBOS

LAWS = ("cosine", "isotropic", "beam:0.3", "beam:1.0")
MULTI_FIN = {"pd_l": 2, "pd_r": 2, "pg_l": 3, "pg_r": 3, "pu_l": 2}


@pytest.fixture(scope="module")
def pof_table():
    """Tiny hand-built POF table rising along every charge axis."""
    base = np.linspace(0.0, 1.0, 5)
    pof = {}
    for combo in ALL_COMBOS:
        grid = base
        for _ in range(len(combo) - 1):
            grid = np.add.outer(grid, base) / 2.0
        pof[combo] = np.stack([grid, 0.8 * grid], axis=0)
    return PofTable(
        vdd_list=(0.7, 0.9),
        charge_axis_c=np.logspace(-16, -14, 5),
        pof=pof,
        process_variation=False,
        n_samples=1,
    )


def dense_form(rays, boxes):
    """``(event_rows, ray_idx, fin_idx, chord)`` of the dense matrix."""
    chords = chord_lengths(rays, boxes)
    event_rows = np.nonzero(np.any(chords > 0.0, axis=1))[0]
    sub = chords[event_rows]
    ray_idx, fin_idx = np.nonzero(sub > 0.0)
    return event_rows, ray_idx, fin_idx, sub[ray_idx, fin_idx]


def assert_matches_dense(layout, rays):
    grid = layout.sensitive_grid()
    hits = grid.strike_pairs(rays)
    expected = dense_form(rays, layout.packed_boxes[layout.fin_strike >= 0])
    for got, want in zip(hits[:4], expected):
        assert np.array_equal(got, want)
    return hits


def launch_rays(layout, n, seed, law):
    x_range, y_range, z, _ = layout.launch_window(100.0)
    return sample_rays(n, np.random.default_rng(seed), x_range, y_range, z, law)


class TestStrikePairsEqualDense:
    @pytest.mark.parametrize("law", LAWS)
    @pytest.mark.parametrize("pattern", ["uniform", "checkerboard"])
    @pytest.mark.parametrize("nfins", [None, MULTI_FIN])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 12), (12, 1), (9, 9)])
    def test_launch_rays(self, shape, nfins, pattern, law):
        layout = SramArrayLayout(
            n_rows=shape[0], n_cols=shape[1], data_pattern=pattern, nfins=nfins
        )
        hits = assert_matches_dense(layout, launch_rays(layout, 3000, 7, law))
        # a lone cell can see no strike in 3000 oblique tracks
        assert len(hits.box_idx) > 0 or layout.n_cells == 1

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 12),
        cols=st.integers(1, 12),
        pattern=st.sampled_from(["uniform", "checkerboard"]),
        multi_fin=st.booleans(),
        law=st.sampled_from(LAWS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_layouts(self, rows, cols, pattern, multi_fin, law, seed):
        layout = SramArrayLayout(
            n_rows=rows,
            n_cols=cols,
            data_pattern=pattern,
            nfins=MULTI_FIN if multi_fin else None,
        )
        assert_matches_dense(layout, launch_rays(layout, 500, seed, law))

    def test_rays_starting_inside_the_array(self):
        layout = SramArrayLayout(n_rows=5, n_cols=6)
        rng = np.random.default_rng(3)
        bbox = layout.bounding_box()
        origins = bbox.lo + rng.random((4000, 3)) * bbox.size
        directions = rng.normal(size=(4000, 3))
        hits = assert_matches_dense(layout, RayBatch(origins, directions))
        assert len(hits.box_idx) > 0

    @pytest.mark.parametrize(
        "direction",
        [
            (0.0, 0.0, -1.0),
            (0.0, 0.0, 1.0),
            (1.0, 0.0, 0.0),
            (0.0, -1.0, 0.0),
            (0.3, -0.2, -0.9),
            (-0.7, 0.7, 0.1),
        ],
    )
    def test_rays_starting_on_fin_faces(self, direction):
        """Origins on every face plane of every sensitive fin, incl.
        faces on a cell edge (zero y-clearance) and axis-aligned rays
        that run inside a face plane (the parallel branch)."""
        layout = SramArrayLayout(n_rows=3, n_cols=4, data_pattern="checkerboard")
        boxes = layout.packed_boxes[layout.fin_strike >= 0]
        lo, hi = boxes[:, :3], boxes[:, 3:]
        rng = np.random.default_rng(11)
        origins = []
        for axis in range(3):
            for plane in (lo, hi):
                point = lo + rng.random(lo.shape) * (hi - lo)
                point[:, axis] = plane[:, axis]
                origins.append(point)
                corner = lo.copy()
                corner[:, axis] = plane[:, axis]
                origins.append(corner)
        origins = np.concatenate(origins)
        directions = np.broadcast_to(direction, origins.shape)
        hits = assert_matches_dense(layout, RayBatch(origins, directions))
        assert len(hits.box_idx) > 0

    def test_tracks_along_a_shared_cell_edge(self):
        """Vertical tracks exactly on the y = cell-height edge, where the
        fins of both neighbouring rows touch the bin boundary."""
        layout = SramArrayLayout(n_rows=4, n_cols=3)
        xs = np.linspace(0.0, layout.width_nm, 301)
        origins = np.stack(
            [xs, np.full_like(xs, layout.cell.height_nm), np.full_like(xs, 50.0)],
            axis=1,
        )
        rays = RayBatch(origins, np.broadcast_to([0.0, 0.0, -1.0], origins.shape))
        hits = assert_matches_dense(layout, rays)
        assert len(hits.box_idx) > 0

    def test_prunes_the_candidate_pairs(self):
        layout = SramArrayLayout()
        rays = launch_rays(layout, 4000, 5, "cosine")
        hits = layout.sensitive_grid().strike_pairs(rays)
        n_hit_rays = int(np.sum(layout.sensitive_grid().enter(rays)[0]))
        assert hits.n_tested < 10 * n_hit_rays
        assert hits.n_tested < n_hit_rays * layout.sensitive_fin_count() / 20


class TestBoxGridValidation:
    def test_boxes_outside_bounds_rejected(self):
        boxes = np.array([[0.0, 0.0, 0.0, 2.0, 2.0, 2.0]])
        with pytest.raises(GeometryError):
            BoxGrid(boxes, Aabb((0, 0, 0), (1, 1, 1)), 1, 1)

    def test_empty_grid_rejected(self):
        with pytest.raises(GeometryError):
            BoxGrid(np.zeros((0, 6)), Aabb((0, 0, 0), (1, 1, 1)), 1, 1)


class TestSubnormalDirections:
    """A subnormal direction component used to overflow the slab
    parameter (``(hi - o) * (1/d)``) and warn; it now counts as
    parallel, so no overflow is ever computed."""

    @pytest.mark.parametrize(
        "dy", [1.1125369292536007e-308, 5.0e-309, -1.0e-320, 1.0e-250]
    )
    def test_no_overflow_and_parallel_chord(self, dy):
        box = Aabb((0, 0, 0), (10, 20, 30))
        rays = RayBatch(np.array([[0.0, 0.0, 40.0]]), np.array([[0.0, dy, -1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            chord = chord_lengths(rays, [box])[0, 0]
            single = box.chord(rays[0])
            grid_hits = BoxGrid(stack_boxes([box]), box, 1, 1).strike_pairs(rays)
        assert chord == 30.0
        assert single == 30.0
        assert np.array_equal(grid_hits.chord, [30.0])

    def test_outside_slab_still_misses(self):
        box = Aabb((0, 0, 0), (10, 20, 30))
        rays = RayBatch(
            np.array([[0.0, -5.0, 40.0]]), np.array([[0.0, 1e-308, -1.0]])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chord_lengths(rays, [box])[0, 0] == 0.0


class TestOtherKernels:
    def test_heavy_ion_uses_the_grid(self, pof_table, monkeypatch):
        """The heavy-ion campaign casts through the shared broad phase."""
        layout = SramArrayLayout(n_rows=3, n_cols=3)
        campaign = HeavyIonCampaign(layout, pof_table, chunk_size=500)
        calls = []
        real = BoxGrid.strike_pairs

        def spy(self, rays):
            calls.append(len(rays))
            return real(self, rays)

        monkeypatch.setattr(BoxGrid, "strike_pairs", spy)
        point = campaign.run_let(1.0, 0.7, 1200, np.random.default_rng(1))
        assert calls == [500, 500, 200]
        assert point.pof_per_particle > 0


class TestPairTestsCounter:
    def test_counter_reaches_manifest(self, pof_table):
        layout = SramArrayLayout(n_rows=4, n_cols=4)
        simulator = ArraySerSimulator(
            layout, pof_table, config=ArrayMcConfig(deposition_mode="direct")
        )
        registry = enable_metrics(fresh=True)
        try:
            result = simulator.run(ALPHA, 5.0, 0.7, 5000, np.random.default_rng(2))
            tests = registry.counter("array_mc.pair_tests").value
            manifest = build_manifest(
                command="test",
                argv=[],
                config={},
                seed=None,
                started_at="now",
                duration_s=0.0,
                exit_code=0,
                version="test",
            )
        finally:
            disable_metrics()
        assert manifest.mc["pair_tests"] == tests
        # pruned: far fewer than every hit ray against every sensitive fin
        assert result.n_fin_strikes <= tests
        assert tests < result.n_array_hits * layout.sensitive_fin_count() / 5
