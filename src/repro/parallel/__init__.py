"""Parallel campaign execution: sharded Monte Carlo across processes.

See :mod:`repro.parallel.engine` for the determinism contract (fixed
sharding + spawned child streams + ordered merges = bit-identical
results for any worker count) and the fault-tolerance layer
(:class:`RetryPolicy` retry/backoff/watchdog, :class:`ShardJournal`
crash-safe checkpoints, graceful degradation to partial statistics).
Every pooled map runs on a warm pool leased from
:mod:`repro.parallel.pool`, and :mod:`repro.parallel.shm` ships bulk
payload arrays through shared memory -- both pure transport
optimizations that never change results.
"""

from .engine import (
    AUTO_INLINE_THRESHOLD_S,
    WARM_AUTO_INLINE_THRESHOLD_S,
    RetryPolicy,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)
from .journal import ShardJournal
from .pool import PoolLease, get_lease
from .shm import (
    MIN_SHM_BYTES,
    PackedPayload,
    SharedArrayPack,
    get_pack,
    pack_payload,
)

__all__ = [
    "AUTO_INLINE_THRESHOLD_S",
    "WARM_AUTO_INLINE_THRESHOLD_S",
    "MIN_SHM_BYTES",
    "PackedPayload",
    "PoolLease",
    "RetryPolicy",
    "SharedArrayPack",
    "ShardJournal",
    "get_lease",
    "get_pack",
    "pack_payload",
    "parallel_map",
    "resolve_jobs",
    "spawn_seeds",
]
