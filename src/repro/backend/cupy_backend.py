"""CuPy backend: device-resident arrays for the hot kernels.

Arrays live on the GPU between primitives; the explicit
:meth:`~repro.backend.base.ArrayBackend.to_numpy` boundary is crossed
only where the flow genuinely needs host data (the host-side numpy
:meth:`~repro.sram.pof_lut.PofTable.query`, result scalars).  Large
static tables -- the raveled I-V surfaces, POF grids -- go through
:meth:`CupyBackend.upload`, a device cache keyed on the same sha256
fingerprints the :mod:`repro.parallel.shm` payload plane computes, so
a whole (particle, energy, Vdd) sweep uploads each table once
(``backend.uploads`` / ``backend.upload_hits`` count the traffic).

Import is gated: without cupy (or without a CUDA device) the module
still loads, :meth:`CupyBackend.available` reports ``False``, and
selection falls back to numpy.  Accuracy rides the tolerance contract
(max ``|dPOF| <= 1e-3`` vs numpy, ``bench_backend.py --check``):
``segment_prod`` runs as an exp-of-segmented-log-sum scan (exact zeros
handled via a per-segment zero count), which is the one primitive that
is not a bit-level twin of the numpy reduction order.
"""

from __future__ import annotations

import numpy as np

from ..obs import get_registry
from .base import ArrayBackend

try:  # pragma: no cover - exercised only on CUDA hosts
    import cupy as _cupy
except ImportError:  # pragma: no cover
    _cupy = None

__all__ = ["CupyBackend"]


def _device_usable() -> bool:  # pragma: no cover - needs a CUDA device
    if _cupy is None:
        return False
    try:
        _cupy.cuda.runtime.getDeviceCount()
        return True
    except Exception:
        return False


class CupyBackend(ArrayBackend):  # pragma: no cover - needs a CUDA device
    """Device implementation (available only with cupy + a GPU)."""

    name = "cupy"

    def __init__(self):
        #: fingerprint -> device array; the once-per-sweep upload cache.
        self._uploads = {}
        #: id(array) -> (fingerprint, shape, dtype) memo so repeat
        #: uploads of the same live host array skip re-hashing.
        self._fingerprints = {}

    @classmethod
    def available(cls) -> bool:
        return _device_usable()

    # -- host/device boundary ----------------------------------------------

    def asarray(self, array, dtype=None):
        return _cupy.asarray(array, dtype=dtype)

    def to_numpy(self, array) -> np.ndarray:
        if isinstance(array, _cupy.ndarray):
            return _cupy.asnumpy(array)
        return np.asarray(array)

    def zeros(self, shape, dtype=np.float64):
        return _cupy.zeros(shape, dtype=dtype)

    def upload(self, array: np.ndarray):
        from ..parallel.shm import array_fingerprint

        metrics = get_registry()
        memo = self._fingerprints.get(id(array))
        if memo is not None and memo[1:] == (array.shape, array.dtype.str):
            fingerprint = memo[0]
        else:
            fingerprint = array_fingerprint(array)
            self._fingerprints[id(array)] = (
                fingerprint,
                array.shape,
                array.dtype.str,
            )
        cached = self._uploads.get(fingerprint)
        if cached is not None:
            if metrics.enabled:
                metrics.counter("backend.upload_hits").inc()
            return cached
        device = _cupy.asarray(array)
        self._uploads[fingerprint] = device
        if metrics.enabled:
            metrics.counter("backend.uploads").inc()
            metrics.counter("backend.upload_bytes").inc(int(array.nbytes))
        return device

    def synchronize(self) -> None:
        _cupy.cuda.get_current_stream().synchronize()

    # -- sparse strike accumulator primitives -------------------------------

    def unique_inverse(self, keys):
        return _cupy.unique(keys, return_inverse=True)

    def scatter_add(self, target, indices, values) -> None:
        import cupyx

        cupyx.scatter_add(target, indices, values)

    def segment_sum(self, values, starts):
        c = _cupy.cumsum(values)
        n = len(values)
        ends = _cupy.append(starts[1:], n) - 1
        lead = _cupy.where(starts > 0, c[starts - 1], 0.0)
        return c[ends] - lead

    def segment_prod(self, values, starts):
        # exp(segmented sum of logs), exact zeros via a zero count
        zero = values == 0.0
        safe = _cupy.where(zero, 1.0, values)
        log_sum = self.segment_sum(_cupy.log(safe), starts)
        zeros_per = self.segment_sum(zero.astype(_cupy.float64), starts)
        return _cupy.where(zeros_per > 0.0, 0.0, _cupy.exp(log_sum))

    def segment_combine(self, pof, starts, one_minus_eps: float):
        total = 1.0 - self.segment_prod(1.0 - pof, starts)
        clipped = _cupy.minimum(pof, one_minus_eps)
        survive = 1.0 - clipped
        seu = self.segment_prod(survive, starts) * self.segment_sum(
            clipped / survive, starts
        )
        mbu = _cupy.maximum(total - seu, 0.0)
        return total, seu, mbu

    def segment_multiplicity(self, pof, starts, max_k: int):
        # the same rank-by-rank DP as numpy, on device arrays
        n_groups = len(starts)
        sizes = _cupy.diff(_cupy.append(starts, len(pof)))
        group_of = _cupy.repeat(_cupy.arange(n_groups), sizes.tolist())
        rank = _cupy.arange(len(pof)) - starts[group_of]

        pmf = _cupy.zeros((n_groups, max_k + 1), dtype=_cupy.float64)
        pmf[:, 0] = 1.0
        for r in range(int(sizes.max())):
            selected = rank == r
            rows = group_of[selected]
            p = pof[selected][:, _cupy.newaxis]
            block = pmf[rows]
            shifted = _cupy.zeros_like(block)
            shifted[:, 1:] = block[:, :-1]
            shifted[:, -1] += block[:, -1]
            pmf[rows] = block * (1.0 - p) + shifted * p
        return pmf.sum(axis=0)

    # -- bilinear table lookup ---------------------------------------------

    def bilinear_gather(self, flat, base, stride: int, fw, fu):
        v00 = flat[base]
        v01 = flat[base + 1]
        v10 = flat[base + stride]
        v11 = flat[base + stride + 1]
        z0 = v00 + (v01 - v00) * fw
        z1 = v10 + (v11 - v10) * fw
        return z0 + (z1 - z0) * fu
