"""On-disk memoization of completed runs.

``run_simulation(config)`` is a pure function of its
:class:`~repro.simulator.config.SimulationConfig` (every RNG stream is
derived from ``config.seed``), and so are the closed-system run, the
telemetry of a run, the cluster run over a
:class:`~repro.cluster.sim.ClusterSimConfig`, the shape of the tree
a run starts from and the model's capacity search named by a
:class:`~repro.model.throughput.CapacitySearch`, so each result can be
memoized on disk and reused across processes and invocations.  A cache
entry is keyed by a stable content hash of the full configuration plus:

* a *kind* tag ("open", "closed", "telemetry", "cluster", "shape" or
  "search" — the task kinds of :class:`~repro.parallel.SimTask`),
* any extra run parameters outside the config (the closed system's
  multiprogramming level and think time, a telemetry run's options),
* a **code-version salt** (:data:`CODE_SALT`), bumped whenever a change
  to the simulator or the model alters results, which atomically
  invalidates every stale entry.

Layout on disk (see ``docs/performance.md``)::

    <cache dir>/
        <key[:2]>/<key>.pkl     # one pickled result

where ``<cache dir>`` is ``$REPRO_CACHE_DIR`` when set, else
``$XDG_CACHE_HOME/repro`` (default ``~/.cache/repro``).  Entries are
written atomically (temp file + rename) so a crashed run never leaves a
torn pickle, and each entry carries a SHA-256 payload checksum
(:data:`ENTRY_MAGIC` header) so *any* on-disk corruption — truncation,
bit rot, a concurrent writer torn mid-entry — degrades to a cache miss
instead of feeding a damaged result into a sweep.  Unreadable or
unverifiable entries — headerless ones included, which carry no
checksum — are deleted and recomputed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.simulator.metrics import SimulationResult

#: Code-version salt folded into every cache key.  Bump it whenever a
#: simulator change alters results for the same configuration; every
#: previously cached entry then misses and is recomputed.  Warm runs
#: serve the model's capacity searches from the cache too ("search"
#: tasks), so a change under ``repro.model`` that moves any output must
#: bump it as well.
#: sim-v2: percentile reservoir seeds now derive from the run seed.
CODE_SALT = "sim-v2"

#: Header magic of the checksummed entry format:
#: ``ENTRY_MAGIC + sha256(payload) + payload``.
ENTRY_MAGIC = b"RPCK1\n"
_DIGEST_SIZE = hashlib.sha256().digest_size


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


#: Field names of each dataclass type met while keying (None: not a
#: dataclass), so a walk asks ``dataclasses.fields`` once per type.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = tuple(f.name for f in dataclasses.fields(cls)) \
            if dataclasses.is_dataclass(cls) else None
        _FIELD_NAMES[cls] = names
        return names


def _canonical(value: Any) -> Any:
    """Reduce a config value to JSON-serializable canonical form."""
    names = _field_names(type(value))
    if names is not None:
        fields = {name: _canonical(getattr(value, name)) for name in names}
        return {"__type__": type(value).__name__, **fields}
    if isinstance(value, (tuple, list)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} "
                    f"for cache keying: {value!r}")


def _is_default_workload(workload: Any) -> bool:
    """True when ``workload`` is the default spec (legacy behaviour)."""
    from repro.workload.spec import DEFAULT_WORKLOAD
    return workload == DEFAULT_WORKLOAD


def config_key(config: Any, *, kind: str = "open",
               extra: Optional[dict] = None,
               salt: str = CODE_SALT) -> str:
    """Stable content hash identifying one run of ``config`` (a
    simulation or a cluster configuration).

    The same configuration always hashes to the same key, across
    processes and Python invocations (no reliance on ``hash()`` or
    pickle byte stability); changing ``salt`` changes every key.

    A config whose ``workload`` is absent *or equal to the default
    spec* hashes exactly as it did before the field existed (both
    reproduce the legacy behaviour bit-identically), so pre-existing
    cache entries stay valid without a CODE_SALT bump; any non-default
    :class:`~repro.workload.spec.WorkloadSpec` is content-hashed into
    the key like every other field.
    """
    config_payload = _canonical(config)
    if isinstance(config_payload, dict):
        workload = getattr(config, "workload", None)
        if workload is None or _is_default_workload(workload):
            config_payload.pop("workload", None)
    payload = {
        "salt": salt,
        "kind": kind,
        "extra": _canonical(extra or {}),
        "config": config_payload,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Counters for one :class:`ResultCache` instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries that existed but could not be read (corrupt/truncated);
    #: they are deleted and counted as misses too.
    errors: int = 0


class ResultCache:
    """Directory-backed store of pickled task results."""

    def __init__(self, directory: Optional[os.PathLike] = None,
                 salt: str = CODE_SALT) -> None:
        self.directory = Path(directory) if directory is not None \
            else default_cache_dir()
        # A file where the directory (or one of its parents) should be
        # would only fail at the first store, after a task has run.
        for path in (self.directory, *self.directory.parents):
            if path.exists():
                if not path.is_dir():
                    raise ConfigurationError(
                        f"result cache directory {str(self.directory)!r} "
                        f"is unusable: {str(path)!r} is not a directory")
                break
        self.salt = salt
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        # Two-character fan-out keeps any one directory small even for
        # very large sweep grids.
        return self.directory / key[:2] / f"{key}.pkl"

    def get(self, key: str, expect: type = SimulationResult) -> Any:
        """The cached result for ``key``, or None on a miss.

        A corrupt, truncated, or checksum-failing entry, or one that is
        not an ``expect`` instance, is removed and reported as a miss
        (the caller recomputes and overwrites it) — corruption must
        never crash a sweep or leak a damaged result.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            return self._reject(path)
        try:
            result = self._decode(blob)
        except Exception:
            # Anything: torn pickle, checksum mismatch, hostile bytes.
            return self._reject(path)
        if not isinstance(result, expect):
            return self._reject(path)
        self.stats.hits += 1
        return result

    def _decode(self, blob: bytes) -> Any:
        """Verify and unpickle one entry body; only a checksummed entry
        that verifies exactly is ever unpickled."""
        if not blob.startswith(ENTRY_MAGIC):
            raise ValueError("cache entry has no checksum header")
        header_end = len(ENTRY_MAGIC) + _DIGEST_SIZE
        digest = blob[len(ENTRY_MAGIC):header_end]
        payload = blob[header_end:]
        if hashlib.sha256(payload).digest() != digest:
            raise ValueError("cache entry checksum mismatch")
        return pickle.loads(payload)

    def _reject(self, path: Path) -> None:
        """Count and delete an unusable entry; always a miss."""
        self.stats.errors += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` atomically (tmp + rename),
        with the payload checksum prepended."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(ENTRY_MAGIC)
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if self.directory.is_dir():
            for entry in self.directory.glob("*/*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            for bucket in self.directory.iterdir():
                if bucket.is_dir():
                    shutil.rmtree(bucket, ignore_errors=True)
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResultCache({str(self.directory)!r}, salt={self.salt!r}, "
                f"stats={self.stats})")
