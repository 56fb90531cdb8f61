"""Axis-aligned 3-D geometry: vectors, rays, boxes, SOI fin worlds."""

from .box import Aabb, chord_lengths, stack_boxes
from .grid import BoxGrid, event_index
from .fin import FinGeometry, SoiFinWorld, SoiStack, Volume
from .ray import Ray, RayBatch
from .vec import as_vec3, as_vec3_batch, dot, norm, normalize

__all__ = [
    "Aabb",
    "chord_lengths",
    "stack_boxes",
    "BoxGrid",
    "event_index",
    "FinGeometry",
    "SoiStack",
    "SoiFinWorld",
    "Volume",
    "Ray",
    "RayBatch",
    "as_vec3",
    "as_vec3_batch",
    "dot",
    "norm",
    "normalize",
]
