"""Parallel campaign execution: sharded Monte Carlo across processes.

See :mod:`repro.parallel.engine` for the determinism contract (fixed
sharding + spawned child streams + ordered merges = bit-identical
results for any worker count) and the fault-tolerance layer
(:class:`RetryPolicy` retry/backoff/watchdog, :class:`ShardJournal`
crash-safe checkpoints, graceful degradation to partial statistics).
:mod:`repro.parallel.pool` keeps worker pools warm across successive
maps and :mod:`repro.parallel.shm` ships bulk payload arrays through
shared memory -- both pure transport optimizations that never change
results.
"""

from .engine import (
    AUTO_INLINE_THRESHOLD_S,
    WARM_AUTO_INLINE_THRESHOLD_S,
    ParallelConfig,
    RetryPolicy,
    parallel_map,
    resolve_jobs,
    spawn_seeds,
)
from .journal import ShardJournal
from .pool import PoolLease, get_lease, set_warm_pool_default, warm_pool_enabled
from .shm import (
    MIN_SHM_BYTES,
    PackedPayload,
    SharedArrayPack,
    get_pack,
    pack_payload,
    set_shm_default,
    shm_enabled,
)

__all__ = [
    "AUTO_INLINE_THRESHOLD_S",
    "WARM_AUTO_INLINE_THRESHOLD_S",
    "MIN_SHM_BYTES",
    "PackedPayload",
    "ParallelConfig",
    "PoolLease",
    "RetryPolicy",
    "SharedArrayPack",
    "ShardJournal",
    "get_lease",
    "get_pack",
    "pack_payload",
    "parallel_map",
    "resolve_jobs",
    "set_shm_default",
    "set_warm_pool_default",
    "shm_enabled",
    "spawn_seeds",
    "warm_pool_enabled",
]
