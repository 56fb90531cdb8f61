"""Uniform-grid broad phase for casting rays through many small boxes.

The array-level Monte Carlo casts tracks through a few hundred
sensitive fins, yet a track that crosses the array strikes about half
a fin on average: a dense ``(rays x boxes)`` slab matrix spends almost
all of its arithmetic on pairs that cannot meet.  :class:`BoxGrid`
bins the boxes once on a regular xy grid over their common bounds; a
cast then slab-tests only the boxes binned where a ray's in-bounds
segment runs.

The result is exactly the dense one.  Each tested pair goes through the
same per-element slab arithmetic as :func:`~repro.geometry.box.chord_lengths`
(:func:`~repro.geometry.box._slab_interval` on broadcast shapes), and
pairs come back in ``np.nonzero`` order of the dense matrix: rays
ascending, then boxes ascending, each pair once.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..errors import GeometryError
from .box import Aabb, _chords, _slab_interval

#: Bin padding as a fraction of the smaller bin edge.  A box is listed
#: in every bin its padded footprint touches and a ray's segment is
#: padded the same way, so a face that lands exactly on a bin edge, or
#: a segment end point a few ulp off, cannot drop a pair.  The dense
#: matrix's hits are a subset of the candidates whenever the rounding
#: of end points and bin arithmetic stays below this pad.
_PAD_FRACTION = 1.0e-6


class RayHits(NamedTuple):
    """The struck (ray, box) pairs of one cast, in dense order.

    ``event_rows`` are the rays with at least one hit (ascending);
    ``ray_idx`` indexes ``event_rows`` for every pair, ``box_idx`` the
    grid's boxes, ``chord`` is the forward chord [nm].  ``n_tested``
    counts the (ray, box) pairs that were slab-tested.
    """

    event_rows: np.ndarray
    ray_idx: np.ndarray
    box_idx: np.ndarray
    chord: np.ndarray
    n_tested: int


def event_index(ray_of_pair: np.ndarray):
    """``(event_rows, ray_idx)`` of pairs grouped by ascending ray.

    ``ray_of_pair`` must be sorted; ``event_rows`` lists its distinct
    values and ``ray_idx`` maps every pair to its position there.
    """
    if len(ray_of_pair) == 0:
        return ray_of_pair, ray_of_pair
    first = np.r_[True, ray_of_pair[1:] != ray_of_pair[:-1]]
    return ray_of_pair[first], np.cumsum(first) - 1


def _expand_rects(c0, c1, r0, r1):
    """Every bin of inclusive bin rectangles, owner by owner.

    Returns ``(owner, col, row, edge)``: owners ascend, each owner's
    bins run row-major, and ``edge`` has bit 0 set on the rectangle's
    first column and bit 1 on its first row.
    """
    width = c1 - c0 + 1
    sizes = width * (r1 - r0 + 1)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    local = np.arange(int(sizes.sum())) - np.repeat(
        np.cumsum(sizes) - sizes, sizes
    )
    drow, dcol = np.divmod(local, width[owner])
    edge = (dcol == 0) + 2 * (drow == 0)
    return owner, c0[owner] + dcol, r0[owner] + drow, edge


class BoxGrid:
    """Boxes binned on an ``n_x x n_y`` grid over ``bounds`` in xy.

    Parameters
    ----------
    boxes:
        ``(m, 6)`` packed ``[lo, hi]`` rows (see
        :func:`~repro.geometry.box.stack_boxes`); box ``i`` is reported
        as ``box_idx == i``.
    bounds:
        A box containing every box.  A ray that misses it cannot strike
        any box, which is what lets a cast skip such rays outright.
    n_x, n_y:
        Bin counts along x and y.
    """

    def __init__(self, boxes, bounds: Aabb, n_x: int, n_y: int):
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 6 or len(boxes) == 0:
            raise GeometryError(
                f"boxes must be a non-empty (m, 6) array, got {boxes.shape}"
            )
        if n_x < 1 or n_y < 1:
            raise GeometryError("a box grid needs at least one bin per axis")
        self.bounds = bounds
        self.n_x = int(n_x)
        self.n_y = int(n_y)
        self._lo = np.ascontiguousarray(boxes[:, :3])
        self._hi = np.ascontiguousarray(boxes[:, 3:])
        if np.any(self._lo < bounds.lo) or np.any(self._hi > bounds.hi):
            raise GeometryError("every box must lie inside the grid bounds")
        self._bin_size = (bounds.hi[:2] - bounds.lo[:2]) / (self.n_x, self.n_y)
        self._pad = _PAD_FRACTION * float(np.min(self._bin_size))

        c0, c1 = self._bin_range(self._lo[:, 0], self._hi[:, 0], 0)
        r0, r1 = self._bin_range(self._lo[:, 1], self._hi[:, 1], 1)
        owner, col, row, edge = _expand_rects(c0, c1, r0, r1)
        bin_of = row * self.n_x + col
        order = np.lexsort((owner, bin_of))
        #: boxes of bin ``b``: ``_bin_boxes[_bin_start[b]:_bin_start[b + 1]]``
        self._bin_boxes = owner[order]
        #: each entry's ``edge`` bits: is this the box's first column/row?
        self._bin_edge = edge[order]
        self._bin_start = np.concatenate(
            [[0], np.cumsum(np.bincount(bin_of, minlength=self.n_x * self.n_y))]
        )

    def _bin_range(self, low, high, axis: int):
        """Inclusive first/last bin along ``axis`` of padded intervals."""
        origin = self.bounds.lo[axis]
        size = self._bin_size[axis]
        last = (self.n_x, self.n_y)[axis] - 1
        first_bin = np.floor((low - self._pad - origin) / size)
        last_bin = np.floor((high + self._pad - origin) / size)
        return (
            np.clip(first_bin, 0, last).astype(np.int64),
            np.clip(last_bin, 0, last).astype(np.int64),
        )

    def enter(self, rays):
        """``(hit, t_enter, t_exit)`` of the rays against the bounds.

        ``hit`` is exactly ``chord_lengths(rays, [bounds])[:, 0] > 0``;
        ``[t_enter, t_exit]`` is each ray's forward segment inside the
        bounds (meaningful where ``hit``).
        """
        t_near, t_far = _slab_interval(
            rays.origins, rays.directions, self.bounds.lo, self.bounds.hi
        )
        t_enter = np.maximum(t_near, 0.0)
        return t_far - t_enter > 0.0, t_enter, t_far

    def cast(self, origins, directions, t_enter, t_exit):
        """Struck pairs of rays whose in-bounds segments are known.

        ``origins``/``directions`` are ``(n, 3)``; ``[t_enter, t_exit]``
        is each ray's forward segment inside the bounds (from
        :meth:`enter`).  Returns ``(ray_of_pair, box_idx, chord,
        n_tested)``: every pair with a positive forward chord, sorted
        by ray then box, and the number of pairs slab-tested.
        """
        lo_xy = []
        hi_xy = []
        for axis in range(2):
            start = origins[:, axis] + t_enter * directions[:, axis]
            end = origins[:, axis] + t_exit * directions[:, axis]
            lo_xy.append(np.minimum(start, end))
            hi_xy.append(np.maximum(start, end))
        c0, c1 = self._bin_range(lo_xy[0], hi_xy[0], 0)
        r0, r1 = self._bin_range(lo_xy[1], hi_xy[1], 1)

        ray_of_bin, col, row, ray_edge = _expand_rects(c0, c1, r0, r1)
        bin_id = row * self.n_x + col
        first = self._bin_start[bin_id]
        count = self._bin_start[bin_id + 1] - first
        entry = np.arange(int(count.sum())) + np.repeat(
            first - (np.cumsum(count) - count), count
        )
        # A (ray, box) pair whose bin rectangles share several bins is
        # tested once, in the lowest shared bin: the one where each
        # axis is at the box's first bin or at the ray's.
        once = (self._bin_edge[entry] | np.repeat(ray_edge, count)) == 3
        ray = np.repeat(ray_of_bin, count)[once]
        box = self._bin_boxes[entry[once]]
        n_tested = len(box)

        t_near, t_far = _slab_interval(
            np.take(origins, ray, axis=0),
            np.take(directions, ray, axis=0),
            np.take(self._lo, box, axis=0),
            np.take(self._hi, box, axis=0),
        )
        chord = _chords(t_near, t_far)
        struck = chord > 0.0
        ray, box, chord = ray[struck], box[struck], chord[struck]
        order = np.lexsort((box, ray))
        return ray[order], box[order], chord[order], n_tested

    def strike_pairs(self, rays) -> RayHits:
        """Every struck (ray, box) pair of a batch, in dense order.

        Equal element for element to the dense form: ``chords =
        chord_lengths(rays, boxes)``, ``event_rows`` its rows with a
        positive entry and ``ray_idx, box_idx =
        np.nonzero(chords[event_rows] > 0)``.
        """
        hit, t_enter, t_exit = self.enter(rays)
        rows = np.flatnonzero(hit)
        ray, box, chord, n_tested = self.cast(
            rays.origins[rows],
            rays.directions[rows],
            t_enter[rows],
            t_exit[rows],
        )
        event_rows, ray_idx = event_index(rows[ray])
        return RayHits(event_rows, ray_idx, box, chord, n_tested)
