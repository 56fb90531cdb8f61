"""Axis-aligned boxes and vectorized ray/box chord computation.

The device world (fins, BOX layer, substrate slab, cell footprints) is
entirely axis-aligned, so the classic slab method gives exact chord
lengths.  Two entry points are provided:

* :meth:`Aabb.chord` -- one ray against one box;
* :func:`chord_lengths` -- an ``(n_rays, n_boxes)`` matrix of chord
  lengths.

The array-level Monte Carlo casts through
:class:`~repro.geometry.grid.BoxGrid`, which runs the same slab kernel
on the (ray, box) pairs a ray can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from .ray import Ray, RayBatch
from .vec import as_vec3


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned bounding box, corners in nm.

    ``lo`` and ``hi`` are the minimum / maximum corners; every extent
    must be strictly positive (no degenerate boxes -- a zero-thickness
    box can never be struck and indicates a construction bug).
    """

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = as_vec3(lo)
        hi = as_vec3(hi)
        if np.any(hi <= lo):
            raise GeometryError(
                f"degenerate box: lo={lo.tolist()} hi={hi.tolist()}"
            )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def size(self) -> np.ndarray:
        """Edge lengths [nm]."""
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        """Geometric centre [nm]."""
        return 0.5 * (self.lo + self.hi)

    @property
    def volume_nm3(self) -> float:
        """Volume [nm^3]."""
        return float(np.prod(self.size))

    @property
    def diagonal_nm(self) -> float:
        """Length of the main diagonal -- an upper bound on any chord."""
        return float(np.linalg.norm(self.size))

    def contains(self, points) -> np.ndarray:
        """Element-wise containment test for ``(..., 3)`` points."""
        pts = np.asarray(points, dtype=np.float64)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def translated(self, offset) -> "Aabb":
        """A copy shifted by ``offset`` [nm]."""
        off = as_vec3(offset)
        return Aabb(self.lo + off, self.hi + off)

    def intersect_interval(self, ray: Ray):
        """Entry/exit parameters ``(t_near, t_far)`` or ``None`` if missed.

        Parameters are distances along the ray (which may be negative if
        the origin lies past the box).  A hit requires
        ``t_far > max(t_near, 0)`` when the ray is interpreted as a
        half-line; callers wanting the infinite-line chord use the raw
        interval.
        """
        t_near, t_far = _slab_interval(
            ray.origin, ray.direction, self.lo, self.hi
        )
        if t_far <= t_near:
            return None
        return float(t_near), float(t_far)

    def chord(self, ray: Ray) -> float:
        """Chord length [nm] of the forward half-line through this box."""
        interval = self.intersect_interval(ray)
        if interval is None:
            return 0.0
        t_near, t_far = interval
        entry = max(t_near, 0.0)
        return max(t_far - entry, 0.0)


#: Direction components below this magnitude count as parallel to their
#: slab pair.  A subnormal component makes the slab parameter
#: ``(lo - o) / d`` overflow for a displacement of a few nm; above this
#: bound no displacement under 1e100 nm can overflow, and below it the
#: parameter exceeds 1e200 nm per nm of displacement, which no finite
#: geometry tells apart from a parallel ray.
_PARALLEL_BELOW = 1.0e-200

#: Large finite slab bound for parallel rays: +/- inf would turn into
#: nan under the interval arithmetic (inf - inf) when a
#: parallel-outside slab meets another infinite bound.
_BIG = 1.0e30


def _slab_interval(origins, directions, lo, hi):
    """Slab intersection of rays and boxes on broadcast shapes.

    Parameters
    ----------
    origins, directions:
        ``(..., 3)`` ray data.
    lo, hi:
        ``(..., 3)`` box corners, broadcast against the rays: the dense
        matrix passes ``(n, 1, 3)`` rays and ``(1, m, 3)`` boxes, a
        pair list passes ``(k, 3)`` of each.  Every output element is
        the same per-element arithmetic either way, so a pair list and
        the dense matrix agree bit for bit.

    Returns
    -------
    (t_near, t_far):
        Arrays of the broadcast shape without its last axis; a miss is
        encoded as ``t_far <= t_near``.
    """
    # Accumulate the slab interval one axis at a time -- avoids
    # (..., 3) temporaries, which dominate the array-MC runtime.
    shape = np.broadcast_shapes(
        origins.shape, directions.shape, lo.shape, hi.shape
    )[:-1]
    t_near = np.full(shape, -np.inf, dtype=np.float64)
    t_far = np.full(shape, np.inf, dtype=np.float64)
    # Divide only where the reciprocal is usable; parallel components
    # get a zero placeholder that the parallel branch below overwrites.
    parallel_all = np.abs(directions) < _PARALLEL_BELOW
    inv_all = np.divide(
        1.0,
        directions,
        out=np.zeros(directions.shape, dtype=np.float64),
        where=~parallel_all,
    )
    for axis in range(3):
        o = origins[..., axis]
        inv = inv_all[..., axis]
        lo_axis = lo[..., axis]
        hi_axis = hi[..., axis]
        t1 = (lo_axis - o) * inv
        t2 = (hi_axis - o) * inv
        axis_lo = np.minimum(t1, t2)
        axis_hi = np.maximum(t1, t2)
        parallel = parallel_all[..., axis]
        if np.any(parallel):
            # A ray parallel to this slab pair either satisfies it for
            # all t (origin inside the slab) or for no t (outside).
            inside = (o >= lo_axis) & (o <= hi_axis)
            axis_lo = np.where(
                parallel, np.where(inside, -_BIG, _BIG), axis_lo
            )
            axis_hi = np.where(
                parallel, np.where(inside, _BIG, -_BIG), axis_hi
            )
        np.maximum(t_near, axis_lo, out=t_near)
        np.minimum(t_far, axis_hi, out=t_far)
    return t_near, t_far


def _chords(t_near, t_far, forward_only: bool = True):
    """Chord lengths of slab intervals; 0 where the box is missed."""
    if forward_only:
        t_near = np.maximum(t_near, 0.0)
    lengths = t_far - t_near
    return np.where(lengths > 0.0, lengths, 0.0)


def chord_lengths(rays: RayBatch, boxes, forward_only: bool = True):
    """Chord length matrix for a ray batch against a box collection.

    Parameters
    ----------
    rays:
        Batch of ``n`` rays.
    boxes:
        Sequence of :class:`Aabb` (or a pre-stacked ``(m, 6)`` array of
        ``[lo, hi]`` rows from :func:`stack_boxes`).
    forward_only:
        Clip the chord to the forward half-line (particle travels from
        its origin in its direction; matter behind it is not traversed).

    Returns
    -------
    numpy.ndarray
        ``(n, m)`` chord lengths [nm]; 0 where a box is missed.
    """
    lo, hi = _boxes_to_arrays(boxes)
    t_near, t_far = _slab_interval(
        rays.origins[:, np.newaxis, :],
        rays.directions[:, np.newaxis, :],
        lo[np.newaxis, :, :],
        hi[np.newaxis, :, :],
    )
    return _chords(t_near, t_far, forward_only)


def stack_boxes(boxes) -> np.ndarray:
    """Pack a sequence of :class:`Aabb` into an ``(m, 6)`` array."""
    if len(boxes) == 0:
        raise GeometryError("cannot stack an empty box collection")
    return np.array(
        [np.concatenate([box.lo, box.hi]) for box in boxes], dtype=np.float64
    )


def _boxes_to_arrays(boxes):
    """Accept either Aabb sequences or packed ``(m, 6)`` arrays."""
    if isinstance(boxes, np.ndarray):
        if boxes.ndim != 2 or boxes.shape[1] != 6:
            raise GeometryError(
                f"packed boxes must be (m, 6), got {boxes.shape}"
            )
        return boxes[:, :3], boxes[:, 3:]
    packed = stack_boxes(boxes)
    return packed[:, :3], packed[:, 3:]
