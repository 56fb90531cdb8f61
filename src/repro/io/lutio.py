"""Persistence of LUT artifacts and results.

The paper's flow builds its LUTs "only once"; this module makes that
literal: electron-yield LUTs and POF tables serialize to JSON and can
be cached on disk keyed by a configuration hash, so repeated benchmark
runs skip the expensive build steps.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Optional, Union

from ..errors import SerializationError
from ..obs import get_logger, get_registry, kv

_log = get_logger(__name__)


# The artifact classes are imported where they are deserialized, so
# importing this module (and the cache keys it defines) stays light.
def _load_electron_yield_lut(payload):
    from ..transport.lut import ElectronYieldLUT

    return ElectronYieldLUT.from_dict(payload)


def _load_pof_table(payload):
    from ..sram.pof_lut import PofTable

    return PofTable.from_dict(payload)


def _load_ser_sweep(payload):
    from ..ser.results import SerSweep

    return SerSweep.from_dict(payload)


_KIND_LOADERS = {
    "electron_yield_lut": _load_electron_yield_lut,
    "pof_table": _load_pof_table,
    "ser_sweep": _load_ser_sweep,
}

def _atomic_write(path: Path, writer, mode: str):
    """Write via a unique same-directory temp file + ``os.replace``.

    The temp name is unique (``mkstemp``), so concurrent writers never
    clobber each other's half-written files; the payload is fsynced
    before the rename, so an interrupted write can never leave a
    truncated artifact under the final name.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, mode) as handle:
            writer(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_artifact(artifact, path: Union[str, Path]):
    """Atomically write an artifact with a ``to_dict`` method to disk.

    Format follows the suffix: ``.json`` (default, human-readable) or
    ``.npz`` (compressed; the dict payload is embedded as a JSON blob
    -- compact for the large POF grids).  The write goes through a
    unique temp file + ``os.replace`` so an interrupted run can never
    leave a corrupt artifact at the target path.
    """
    path = Path(path)
    if not hasattr(artifact, "to_dict"):
        raise SerializationError(
            f"object of type {type(artifact).__name__} is not serializable"
        )
    payload = artifact.to_dict()
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".npz":

        import numpy as np

        blob = np.frombuffer(
            json.dumps(payload).encode("utf-8"), dtype=np.uint8
        )
        _atomic_write(
            path, lambda handle: np.savez_compressed(handle, payload=blob), "wb"
        )
        return
    _atomic_write(path, lambda handle: json.dump(payload, handle), "w")

def load_artifact(path: Union[str, Path]):
    """Load a previously saved artifact, dispatching on its ``kind``."""
    path = Path(path)
    try:
        if path.suffix == ".npz":
            import numpy as np

            with np.load(path) as archive:
                payload = json.loads(
                    archive["payload"].tobytes().decode("utf-8")
                )
        else:
            with open(path) as handle:
                payload = json.load(handle)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise SerializationError(f"cannot load artifact {path}: {exc}") from exc
    kind = payload.get("kind")
    loader = _KIND_LOADERS.get(kind)
    if loader is None:
        raise SerializationError(f"unknown artifact kind {kind!r} in {path}")
    return loader(payload)

def config_hash(*objects) -> str:
    """Deterministic short hash of configuration objects.

    Dataclasses are converted via ``asdict``; everything else must be
    JSON-encodable.  Used as a cache key so stale artifacts are never
    reused after a configuration change.
    """

    def encode(obj):
        if is_dataclass(obj) and not isinstance(obj, type):
            return {type(obj).__name__: _jsonable(asdict(obj))}
        return _jsonable(obj)

    blob = json.dumps([encode(o) for o in objects], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays into JSON-safe values."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj

#: Default single-flight lock parameters (see
#: :meth:`ArtifactCache.get_or_build`): how often a waiter re-polls a
#: held lock, and after how long an untouched lock is presumed dead
#: and taken over (a crashed builder cannot release its lock).
DEFAULT_LOCK_POLL_S = 0.05
DEFAULT_LOCK_STALE_S = 600.0


class BuildLock:
    """Cross-process single-flight lock for one cache key.

    A lock *file* created with ``O_CREAT | O_EXCL`` — the one
    primitive that is atomic on every filesystem — marks a build in
    flight.  Exactly one process wins creation and runs the builder;
    everybody else polls, re-checking the cache each round so they
    pick up the winner's artifact instead of rebuilding.  A lock whose
    file has not been refreshed for ``stale_s`` is presumed abandoned
    (builder crashed before the ``finally``) and taken over.
    """

    def __init__(
        self,
        path: Path,
        poll_s: float = DEFAULT_LOCK_POLL_S,
        stale_s: float = DEFAULT_LOCK_STALE_S,
    ):
        self.path = Path(path)
        self.poll_s = float(poll_s)
        self.stale_s = float(stale_s)
        self._fd: Optional[int] = None

    def try_acquire(self) -> bool:
        """One non-blocking acquisition attempt."""
        try:
            fd = os.open(
                self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        os.write(fd, f"{os.getpid()} {time.time()}\n".encode("utf-8"))
        self._fd = fd
        return True

    def holder_stale(self) -> bool:
        """True when the held lock looks abandoned (mtime too old)."""
        try:
            age = time.time() - os.stat(self.path).st_mtime
        except OSError:
            return False  # released between the check and the stat
        return age > self.stale_s

    def break_stale(self) -> bool:
        """Remove an abandoned lock so the next attempt can win it."""
        try:
            os.unlink(self.path)
            return True
        except OSError:
            return False  # somebody else broke or released it first

    def release(self):
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            try:
                os.unlink(self.path)
            except OSError:
                pass  # a (wrongly) aggressive takeover beat us to it


class ArtifactCache:
    """A tiny content-addressed artifact cache directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        lock_poll_s: float = DEFAULT_LOCK_POLL_S,
        lock_stale_s: float = DEFAULT_LOCK_STALE_S,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock_poll_s = float(lock_poll_s)
        self.lock_stale_s = float(lock_stale_s)

    def path_for(self, name: str, *config_objects) -> Path:
        """Cache file path for a named artifact under a config."""
        key = config_hash(*config_objects)
        return self.directory / f"{name}-{key}.json"

    def lock_path_for(self, name: str, *config_objects) -> Path:
        """Single-flight build-lock path for a named artifact."""
        key = config_hash(*config_objects)
        return self.directory / f"{name}-{key}.lock"

    def journal_path(self, name: str, *config_objects) -> Path:
        """Shard-journal checkpoint path for a named campaign.

        Lives next to the artifact it checkpoints, keyed by the same
        sha256 configuration hash -- so a journal can only ever resume
        the campaign whose configuration wrote it (the
        :class:`~repro.parallel.ShardJournal` additionally embeds the
        key in every record).
        """
        key = config_hash(*config_objects)
        return self.directory / f"journal-{name}-{key}.jsonl"

    def journal_key(self, *config_objects) -> str:
        """The sha256 campaign key matching :meth:`journal_path`."""
        return config_hash(*config_objects)

    def _try_load(self, name: str, path: Path):
        """One cache probe: ``(hit, artifact)``; corrupt entries discarded."""
        metrics = get_registry()
        if not path.exists():
            return False, None
        try:
            artifact = load_artifact(path)
        except SerializationError as exc:
            metrics.counter("lut_cache.invalid").inc()
            _log.warning(
                "discarding corrupt cache entry %s",
                kv(name=name, path=path, error=exc),
            )
            path.unlink(missing_ok=True)
            return False, None
        metrics.counter("lut_cache.hits").inc()
        _log.debug("cache hit %s", kv(name=name, path=path))
        return True, artifact

    def get_or_build(self, name: str, builder, *config_objects):
        """Load the cached artifact or build + store it — once per key.

        ``builder`` is a zero-argument callable producing the artifact.
        Concurrent misses on the same key (two processes, or two
        service requests) are **single-flighted** through a lock file
        next to the artifact: one process builds while the others poll,
        re-checking the cache each round so they return the winner's
        artifact instead of duplicating the build (and racing on the
        shared journal path).  A lock left behind by a crashed builder
        is taken over after ``lock_stale_s``.

        Artifacts flagged ``degraded`` (partial statistics after worker
        loss) are returned but **not** cached, so the next run rebuilds
        at full statistics (waiters on a degraded build find no
        artifact when the lock clears and run the builder themselves).
        Cache traffic is counted in the metrics registry
        (``lut_cache.hits`` / ``misses`` / ``writes`` / ``invalid`` /
        ``lock_waits`` / ``lock_takeovers``).
        """
        metrics = get_registry()
        path = self.path_for(name, *config_objects)
        hit, artifact = self._try_load(name, path)
        if hit:
            return artifact
        lock = BuildLock(
            self.lock_path_for(name, *config_objects),
            poll_s=self.lock_poll_s,
            stale_s=self.lock_stale_s,
        )
        waited = False
        while not lock.try_acquire():
            if not waited:
                waited = True
                metrics.counter("lut_cache.lock_waits").inc()
                _log.debug(
                    "waiting on concurrent build %s",
                    kv(name=name, lock=lock.path),
                )
            if lock.holder_stale() and lock.break_stale():
                metrics.counter("lut_cache.lock_takeovers").inc()
                _log.warning(
                    "took over stale build lock %s",
                    kv(name=name, lock=lock.path, stale_s=self.lock_stale_s),
                )
                continue
            time.sleep(self.lock_poll_s)
            hit, artifact = self._try_load(name, path)
            if hit:
                return artifact
        try:
            # we hold the lock; the winner of a wait must still re-check
            # (the previous holder may have published while we raced the
            # release/acquire edge).
            hit, artifact = self._try_load(name, path)
            if hit:
                return artifact
            metrics.counter("lut_cache.misses").inc()
            _log.debug("cache miss %s", kv(name=name, path=path))
            artifact = builder()
            if getattr(artifact, "degraded", False):
                metrics.counter("lut_cache.degraded_skips").inc()
                _log.warning(
                    "not caching degraded artifact %s", kv(name=name, path=path)
                )
                return artifact
            save_artifact(artifact, path)
            metrics.counter("lut_cache.writes").inc()
            _log.debug("cache write %s", kv(name=name, path=path))
            return artifact
        finally:
            lock.release()
