"""Content-addressed on-disk cache of simulation results.

Layout (default root ``.repro-cache/``, override with ``REPRO_CACHE_DIR``)::

    .repro-cache/
      <code-salt>/                 one generation per source-tree version
        <spec-hash>.json           {"spec": ..., "stats": ..., ...}

The salt is a digest of every ``repro`` source file, so any code change
starts a fresh generation and stale results can never be served; old
generations stay on disk until ``clear(stale_only=True)`` removes them.
Entries store the :meth:`~repro.sim.stats.SimStats.to_dict` snapshot, which
round-trips every statistic the experiments read.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from ..guard import faultinject
from .spec import RunSpec

#: Suffix bad cache entries are quarantined under (kept for post-mortems,
#: invisible to lookups and occupancy stats).
QUARANTINE_SUFFIX = ".bad"

#: Cache format version; bump to invalidate all generations at once.
CACHE_FORMAT = 1

#: Environment variables honoured by the default cache.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"

DEFAULT_CACHE_DIR = ".repro-cache"


class CacheCounters:
    """Per-cache hit/miss/evict accounting.

    Every :class:`ResultCache` owns one of these; the runner exposes the
    snapshot through
    :meth:`~repro.runner.telemetry.RunnerTelemetry.snapshot` so the
    counters land in metrics documents and ``repro report``.
    """

    FIELDS = ("hits", "misses", "puts", "quarantines", "evictions")
    __slots__ = FIELDS

    def __init__(self) -> None:
        for field in self.FIELDS:
            setattr(self, field, 0)

    def snapshot(self) -> Dict[str, int]:
        return {field: getattr(self, field) for field in self.FIELDS}


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the ``repro`` package sources (the cache's version salt).

    Hashes file contents, not mtimes, so rebuilding an identical tree
    keeps the cache warm while any real source edit invalidates it.
    """
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(f"format:{CACHE_FORMAT}".encode())
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root).as_posix()
        digest.update(rel.encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


class ResultCache:
    """Maps :class:`RunSpec` content hashes to serialised ``SimStats``."""

    #: Backend kind tag surfaced in counter snapshots and reports.
    kind = "local"

    def __init__(self, root: Optional[os.PathLike] = None,
                 salt: Optional[str] = None):
        if root is None:
            root = os.environ.get(ENV_CACHE_DIR, DEFAULT_CACHE_DIR)
        self.root = Path(root)
        self.salt = salt if salt is not None else code_version()
        self.generation_dir = self.root / self.salt
        self.counters = CacheCounters()

    @classmethod
    def from_environment(cls) -> Optional["ResultCache"]:
        """The default cache, or None when ``REPRO_NO_CACHE`` is set."""
        if os.environ.get(ENV_NO_CACHE):
            return None
        return cls()

    def _path(self, spec: RunSpec) -> Path:
        return self.generation_dir / f"{spec.content_hash()}.json"

    # -- lookup / store --------------------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[Dict]:
        """The stored entry for ``spec`` (current generation), or None.

        A corrupt or truncated entry (interrupted write, disk fault,
        manual edit) is treated as a miss: the bad file is quarantined to
        ``<hash>.json.bad`` for post-mortems and the caller re-simulates.
        Lookups never raise.
        """
        path = self._path(spec)
        self._maybe_inject_corruption(path)
        if path.exists() and faultinject.fires("backend.read.ioerror"):
            # Chaos: a transient read I/O error, served as a miss.  The
            # caller re-simulates (or another worker's entry wins the
            # content-addressed race) — that degradation *is* the
            # recovery, so it is recorded here.
            faultinject.record_recovery("backend.read.ioerror")
            self.counters.misses += 1
            return None
        if not path.exists():
            self.counters.misses += 1
            return None
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            self.counters.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            self._quarantine(path, "undecodable JSON")
            self.counters.misses += 1
            return None
        if not isinstance(entry, dict) or "stats" not in entry:
            self._quarantine(path, "entry missing 'stats'")
            self.counters.misses += 1
            return None
        self.counters.hits += 1
        return entry

    def _quarantine(self, path: Path, reason: str) -> Optional[Path]:
        """Move a bad entry aside so the next run re-simulates it."""
        bad = path.with_name(path.name + QUARANTINE_SUFFIX)
        try:
            with self._entry_lock(path):
                os.replace(path, bad)
        except OSError:  # pragma: no cover - racing delete
            return None
        self.counters.quarantines += 1
        # Quarantine is the designed recovery for every torn/corrupt
        # entry; credit whichever corruption site is armed (no-ops
        # otherwise).
        for site in ("backend.put.partial", "cache.corrupt",
                     "cache.truncate"):
            faultinject.record_recovery(site)
        return bad

    def _maybe_inject_corruption(self, path: Path) -> None:
        """Chaos harness: damage an existing entry just before the read."""
        if faultinject.active() is None or not path.exists():
            return
        if faultinject.fires("cache.corrupt"):
            path.write_bytes(b"\x00garbage{not json")
        elif faultinject.fires("cache.truncate"):
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])

    @contextlib.contextmanager
    def _entry_lock(self, path: Path):
        """Advisory per-entry lock serialising concurrent writers.

        Two runners putting the same spec hash each write their own temp
        file, so the rename itself is safe — but without a lock their
        ``os.replace`` calls can interleave with a concurrent quarantine
        of the same path and resurrect a corrupt entry.  The lock file
        lives beside the entry (``<hash>.json.lock``) and is advisory:
        hosts without ``fcntl`` fall back to plain atomic-rename safety.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            yield
            return
        lock_path = path.with_name(path.name + ".lock")
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def put(self, spec: RunSpec, stats_dict: Dict,
            wall_time: float = 0.0,
            metrics: Optional[Dict] = None) -> Path:
        """Store a result crash-safely.

        The entry is written to a private temp file, flushed and
        ``fsync``'d, then atomically renamed over the destination while
        holding the entry's advisory lock — a reader (or a crash at any
        instant) sees either the old complete entry or the new complete
        entry, never a torn one.
        """
        path = self._path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT,
            "code_version": self.salt,
            "created": time.time(),
            "wall_time": wall_time,
            "spec": spec.key(),
            "stats": stats_dict,
        }
        if metrics:
            entry["metrics"] = metrics
        if faultinject.fires("backend.put.partial"):
            # Chaos: a torn write lands half an entry at the *final*
            # path (the failure the tmp+fsync+rename discipline exists
            # to prevent).  The next read quarantines it as a miss and
            # the result is re-simulated — detectable, recoverable,
            # never silently served.
            blob = json.dumps(entry, sort_keys=True)
            with self._entry_lock(path):
                path.write_text(blob[:max(1, len(blob) // 2)],
                                encoding="utf-8")
            self.counters.puts += 1
            return path
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(entry, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            with self._entry_lock(path):
                os.replace(tmp, path)
        except BaseException:
            # Unserialisable metrics, ENOSPC, an interrupt: the temp
            # file is this writer's own, so it never outlives the put.
            with contextlib.suppress(OSError):
                tmp.unlink()
            raise
        self.counters.puts += 1
        return path

    # -- maintenance -----------------------------------------------------------------

    def counters_snapshot(self) -> Dict:
        """JSON-safe hit/miss/evict counters (plus the backend kind)."""
        return {"kind": self.kind, **self.counters.snapshot()}

    def _generations(self):
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.iterdir() if p.is_dir())

    def stats(self) -> Dict:
        """Occupancy summary for the ``cache stats`` CLI subcommand."""
        generations = []
        total_entries = total_bytes = total_quarantined = 0
        for gen in self._generations():
            entries = list(gen.glob("*.json"))
            size = sum(p.stat().st_size for p in entries)
            quarantined = len(list(
                gen.glob("*.json" + QUARANTINE_SUFFIX)))
            generations.append({
                "salt": gen.name,
                "current": gen.name == self.salt,
                "entries": len(entries),
                "bytes": size,
                "quarantined": quarantined,
            })
            total_entries += len(entries)
            total_bytes += size
            total_quarantined += quarantined
        return {
            "root": str(self.root),
            "kind": self.kind,
            "current_salt": self.salt,
            "entries": total_entries,
            "bytes": total_bytes,
            "quarantined": total_quarantined,
            "generations": generations,
        }

    def clear(self, stale_only: bool = False) -> int:
        """Delete cached entries; returns how many files were removed.

        With ``stale_only``, generations whose salt differs from the
        current source tree are removed wholesale, and quarantined
        ``.bad`` entries are reaped from the current generation too —
        they can never be served again, so they count as stale.
        """
        removed = 0
        for gen in self._generations():
            if stale_only and gen.name == self.salt:
                for path in gen.glob("*.json" + QUARANTINE_SUFFIX):
                    path.unlink()
                    removed += 1
                continue
            for pattern in ("*.json", "*.json" + QUARANTINE_SUFFIX):
                for path in gen.glob(pattern):
                    path.unlink()
                    removed += 1
            # Lock files, and in a stale generation the temp files of
            # failed or killed writers, are housekeeping, not cached
            # results: removed silently so the count stays "results
            # deleted".  The current generation keeps its temp files,
            # which a live writer may still own.
            for path in gen.glob("*.json.lock"):
                path.unlink()
            if gen.name != self.salt:
                for path in gen.glob("*.tmp.*"):
                    path.unlink()
            try:
                gen.rmdir()
            except OSError:  # pragma: no cover - non-cache files present
                pass
        return removed

    def evict(self, max_bytes: Optional[int] = None,
              max_age: Optional[float] = None,
              now: Optional[float] = None) -> int:
        """Size/age-based GC; returns how many entries were evicted.

        Entries (including quarantined ``.bad`` files) are considered
        oldest-first by mtime across every generation.  An entry goes
        when it is older than ``max_age`` seconds, or while the cache's
        total footprint still exceeds ``max_bytes`` — so the size budget
        sheds the coldest results first.  With neither bound this is a
        no-op, never a full clear.
        """
        if max_bytes is None and max_age is None:
            return 0
        now = time.time() if now is None else now
        entries = []
        total = 0
        for gen in self._generations():
            for pattern in ("*.json", "*.json" + QUARANTINE_SUFFIX):
                for path in gen.glob(pattern):
                    try:
                        st = path.stat()
                    except OSError:  # pragma: no cover - racing delete
                        continue
                    entries.append((st.st_mtime, st.st_size, path))
                    total += st.st_size
        entries.sort(key=lambda item: item[0])
        evicted = 0
        for mtime, size, path in entries:
            stale = max_age is not None and (now - mtime) > max_age
            over = max_bytes is not None and total > max_bytes
            if not stale and not over:
                # Sorted oldest-first: nothing later is stale either,
                # and the size budget is already satisfied.
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing delete
                continue
            entry_name = path.name
            if entry_name.endswith(QUARANTINE_SUFFIX):
                entry_name = entry_name[:-len(QUARANTINE_SUFFIX)]
            lock = path.with_name(entry_name + ".lock")
            if lock.exists():
                lock.unlink()
            total -= size
            evicted += 1
            self.counters.evictions += 1
        for gen in self._generations():
            try:
                gen.rmdir()
            except OSError:
                pass
        return evicted
