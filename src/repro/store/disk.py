"""Content-addressed on-disk artifact store.

Layout (all under one root directory)::

    <root>/objects/<d2>/<key-digest>.bin        payload bytes
    <root>/objects/<d2>/<key-digest>.meta.json  key + content digest
    <root>/tmp/                                 staging for atomic writes

where ``<d2>`` is the first two hex chars of the key digest (keeps
directory fan-out flat).  Writes stage into ``tmp/`` and land with
``os.replace`` so readers never observe a torn artifact; the meta file
is written after its payload and removed first on eviction, so a
payload without meta is garbage, never the reverse.

Reads verify the payload against the recorded content digest — a
mismatch (bit rot, manual tampering, a crashed writer that somehow got
through) is treated as a miss and the entry is *quarantined*: moved
into ``<root>/quarantine/`` (and counted by
``repro_store_quarantined_total``) so the bad bytes stay available for
forensics instead of vanishing.  Recency is tracked through payload
mtimes (bumped on every hit), giving LRU eviction that survives
process restarts without a separate index.

Puts do not rescan the store.  Each :class:`ArtifactStore` keeps a
running total: the payload bytes its last scan counted, plus the bytes
it wrote since (an overwrite replaces the old size).  A put scans only
on the object's first put, or when the running total exceeds
``max_bytes``; the scan is one ``stat`` per payload, with no meta
reads, and it evicts least-recently-used entries down to the cap and
resets the total.  ``gc``, ``clear``, ``verify`` and ``total_bytes``
always scan and reset it too.

Several writers on one root (processes, or several objects in one
process) each count only their own bytes since their own last scan.
The store can therefore grow past its cap until one writer's running
total crosses it; that writer's scan then sees every writer's bytes
and trims the store back to the cap.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import threading
from typing import Any, Callable, Iterable, Optional

from repro import faults, telemetry
from repro.store.keys import ArtifactKey, digest_bytes

#: Default size cap — plenty for thousands of analysis payloads while
#: keeping a forgotten store from eating the disk.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

_HITS = telemetry.counter(
    "repro_store_hits_total",
    "Artifact-store reads served from disk", labels=("kind",))
_MISSES = telemetry.counter(
    "repro_store_misses_total",
    "Artifact-store reads that found nothing", labels=("kind",))
_WRITES = telemetry.counter(
    "repro_store_writes_total",
    "Artifacts written to the store", labels=("kind",))
_EVICTIONS = telemetry.counter(
    "repro_store_evictions_total",
    "Artifacts evicted by the LRU size cap")
_CORRUPT = telemetry.counter(
    "repro_store_corrupt_total",
    "Artifacts dropped after failing the integrity check")
_QUARANTINED = telemetry.counter(
    "repro_store_quarantined_total",
    "Corrupt artifacts moved into the quarantine directory")
_BYTES = telemetry.gauge(
    "repro_store_bytes", "Total payload bytes currently stored")


@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One stored artifact as seen by ``ls``/``gc``/``verify``."""

    key_digest: str
    kind: str
    seed: int
    schema_version: int
    params: dict[str, Any]
    content_digest: str
    size_bytes: int
    last_used: float            # POSIX mtime of the payload file


@dataclasses.dataclass(frozen=True)
class StoreProblem:
    """One integrity violation found by :meth:`ArtifactStore.verify`."""

    key_digest: str
    reason: str


def default_store_dir() -> pathlib.Path:
    """``$REPRO_STORE_DIR`` or ``~/.cache/repro/store``."""
    env = os.environ.get("REPRO_STORE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro" / "store"


class ArtifactStore:
    """Deterministic key→bytes store with LRU eviction.

    Thread-safe: a single lock serializes metadata mutation (the
    threaded HTTP service reads and writes concurrently).  Payloads are
    opaque bytes; callers are expected to store canonical encodings so
    a hit is byte-identical to a fresh computation.
    """

    def __init__(self, root: str | os.PathLike | None = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = pathlib.Path(root) if root is not None \
            else default_store_dir()
        self.max_bytes = int(max_bytes)
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._quarantine_dir = self.root / "quarantine"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._tmp.mkdir(parents=True, exist_ok=True)
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        #: Payload bytes at the last scan plus bytes written since;
        #: ``None`` until the first scan.
        self._running: Optional[int] = None
        self.hits = 0
        self.misses = 0
        #: Callbacks fired (outside the lock) with each key digest the
        #: store stops serving — eviction, GC, ``clear`` or quarantine.
        #: The service's in-memory hot tier subscribes here so a hot
        #: entry can never outlive its durable artifact.
        self._invalidation_hooks: list[Callable[[str], None]] = []
        self._pending_invalidations: list[str] = []

    # -- invalidation fan-out ------------------------------------------
    def add_invalidation_hook(self,
                              hook: Callable[[str], None]) -> None:
        """Register ``hook(key_digest)`` for every dropped entry."""
        self._invalidation_hooks.append(hook)

    def _invalidated(self, key_digest: str) -> None:
        """Record a dropped digest (lock held; delivered after)."""
        if self._invalidation_hooks:
            self._pending_invalidations.append(key_digest)

    def _flush_invalidations(self) -> None:
        """Deliver pending invalidations (must NOT hold the lock)."""
        if not self._pending_invalidations:
            return
        with self._lock:
            pending, self._pending_invalidations = \
                self._pending_invalidations, []
        for digest in pending:
            for hook in self._invalidation_hooks:
                try:
                    hook(digest)
                except Exception:  # noqa: BLE001 - hooks must not
                    pass           # break store operations

    # -- paths ---------------------------------------------------------
    def _payload_path(self, key_digest: str) -> pathlib.Path:
        return self._objects / key_digest[:2] / f"{key_digest}.bin"

    def _meta_path(self, key_digest: str) -> pathlib.Path:
        return self._objects / key_digest[:2] / f"{key_digest}.meta.json"

    # -- core API ------------------------------------------------------
    def get(self, key: ArtifactKey) -> Optional[bytes]:
        """Payload for ``key`` or ``None`` (integrity-checked)."""
        key_digest = key.digest
        with self._lock:
            payload = self._read_verified(key_digest)
        self._flush_invalidations()
        if payload is None:
            self.misses += 1
            if telemetry.enabled():
                _MISSES.labels(kind=key.kind).inc()
            return None
        self.hits += 1
        if telemetry.enabled():
            _HITS.labels(kind=key.kind).inc()
        return payload

    def put(self, key: ArtifactKey, payload: bytes) -> StoreEntry:
        """Atomically store ``payload`` under ``key`` (idempotent)."""
        if not isinstance(payload, (bytes, bytearray)):
            raise TypeError("store payloads are bytes; encode upstream")
        key_digest = key.digest
        payload = bytes(payload)
        meta = {
            "key": key.to_dict(),
            "key_digest": key_digest,
            "content_digest": digest_bytes(payload),
            "size_bytes": len(payload),
        }
        written = payload
        if faults.active():
            if faults.should_fire("store.write_error", key_digest):
                raise OSError(
                    f"injected store write failure "
                    f"({key_digest[:12]})")
            if faults.should_fire("store.corrupt", key_digest):
                # Land bytes that cannot match the recorded content
                # digest: the next read detects the mismatch, drops
                # the entry and reports a miss (never bad data).
                written = bytes([payload[0] ^ 0xFF]) + payload[1:] \
                    if payload else b"\xff"
        with self._lock:
            payload_path = self._payload_path(key_digest)
            payload_path.parent.mkdir(parents=True, exist_ok=True)
            replaced = (self._size_on_disk(payload_path)
                        if self._running is not None else 0)
            self._atomic_write(payload_path, written)
            self._atomic_write(
                self._meta_path(key_digest),
                json.dumps(meta, sort_keys=True).encode())
            if self._running is not None:
                self._running += len(written) - replaced
            if self._running is None or self._running > self.max_bytes:
                self._evict_over_cap()
            size = self._running
        self._flush_invalidations()
        if telemetry.enabled():
            _WRITES.labels(kind=key.kind).inc()
            _BYTES.set(size)
        return self._entry_from_meta(meta, payload_path)

    def get_by_digest(self, key_digest: str) -> Optional[bytes]:
        """Integrity-checked payload for a raw key digest.

        Used by degraded-mode serving, which picks a stale entry off
        :meth:`entries` and only knows its digest.  Does not touch the
        hit/miss counters — a stale read is neither.
        """
        with self._lock:
            payload = self._read_verified(key_digest)
        self._flush_invalidations()
        return payload

    def get_or_build(self, key: ArtifactKey,
                     build: Callable[[], bytes]) -> tuple[bytes, bool]:
        """``(payload, was_hit)`` — builds and stores on a miss."""
        cached = self.get(key)
        if cached is not None:
            return cached, True
        payload = build()
        self.put(key, payload)
        return payload, False

    def contains(self, key: ArtifactKey) -> bool:
        with self._lock:
            return self._payload_path(key.digest).exists() \
                and self._meta_path(key.digest).exists()

    # -- maintenance ---------------------------------------------------
    def entries(self) -> list[StoreEntry]:
        """Every stored artifact, most recently used first."""
        with self._lock:
            out = list(self._iter_entries())
        return sorted(out, key=lambda e: -e.last_used)

    def total_bytes(self) -> int:
        """Payload bytes on disk (scans, and resets the running total)."""
        with self._lock:
            return self._recount()

    def gc(self, max_bytes: Optional[int] = None) -> list[StoreEntry]:
        """Evict least-recently-used artifacts down to the cap."""
        with self._lock:
            evicted = self._evict_over_cap(
                self.max_bytes if max_bytes is None else int(max_bytes))
            size = self._running
        self._flush_invalidations()
        if telemetry.enabled():
            _BYTES.set(size)
        return evicted

    def verify(self) -> list[StoreProblem]:
        """Re-hash every payload; report (but keep) violations."""
        problems: list[StoreProblem] = []
        with self._lock:
            self._recount()
            for meta_path in self._objects.glob("*/*.meta.json"):
                key_digest = meta_path.name[:-len(".meta.json")]
                try:
                    meta = json.loads(meta_path.read_bytes())
                except (OSError, ValueError):
                    problems.append(StoreProblem(key_digest,
                                                 "unreadable meta"))
                    continue
                payload_path = self._payload_path(key_digest)
                if not payload_path.exists():
                    problems.append(StoreProblem(key_digest,
                                                 "missing payload"))
                    continue
                actual = digest_bytes(payload_path.read_bytes())
                if actual != meta.get("content_digest"):
                    problems.append(StoreProblem(
                        key_digest, "content digest mismatch"))
            for payload_path in self._objects.glob("*/*.bin"):
                key_digest = payload_path.name[:-len(".bin")]
                if not self._meta_path(key_digest).exists():
                    problems.append(StoreProblem(key_digest,
                                                 "orphan payload"))
        return problems

    def stats(self) -> dict[str, Any]:
        with self._lock:
            entries = list(self._iter_entries())
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(e.size_bytes for e in entries),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "quarantined": len(list(self._quarantine_dir.glob("*.bin"))),
        }

    def clear(self) -> None:
        """Drop every artifact (testing / ``gc --all``)."""
        with self._lock:
            for _, key_digest, _ in self._scan():
                self._remove(key_digest)
            self._running = 0
        self._flush_invalidations()
        if telemetry.enabled():
            _BYTES.set(0)

    # -- internals (lock held) -----------------------------------------
    def _atomic_write(self, dest: pathlib.Path, data: bytes) -> None:
        tmp = self._tmp / f".{os.getpid()}.{threading.get_ident()}." \
            f"{dest.name}"
        tmp.write_bytes(data)
        os.replace(tmp, dest)

    def _read_verified(self, key_digest: str) -> Optional[bytes]:
        payload_path = self._payload_path(key_digest)
        meta_path = self._meta_path(key_digest)
        try:
            meta = json.loads(meta_path.read_bytes())
            payload = payload_path.read_bytes()
        except (OSError, ValueError):
            return None
        if digest_bytes(payload) != meta.get("content_digest"):
            self._quarantine(key_digest)
            if telemetry.enabled():
                _CORRUPT.inc()
            return None
        os.utime(payload_path)  # LRU recency bump
        return payload

    def _iter_entries(self) -> Iterable[StoreEntry]:
        for meta_path in self._objects.glob("*/*.meta.json"):
            key_digest = meta_path.name[:-len(".meta.json")]
            payload_path = self._payload_path(key_digest)
            try:
                meta = json.loads(meta_path.read_bytes())
                stat = payload_path.stat()
            except (OSError, ValueError):
                continue
            yield self._entry_from_meta(meta, payload_path,
                                        mtime=stat.st_mtime,
                                        size=stat.st_size)

    @staticmethod
    def _entry_from_meta(meta: dict, payload_path: pathlib.Path,
                         mtime: Optional[float] = None,
                         size: Optional[int] = None) -> StoreEntry:
        key = meta["key"]
        if mtime is None or size is None:
            stat = payload_path.stat()
            mtime, size = stat.st_mtime, stat.st_size
        return StoreEntry(
            key_digest=meta["key_digest"], kind=key["kind"],
            seed=key["seed"], schema_version=key["schema_version"],
            params=dict(key["params"]),
            content_digest=meta["content_digest"],
            size_bytes=size, last_used=mtime)

    @staticmethod
    def _size_on_disk(path: pathlib.Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _scan(self) -> list[tuple[float, str, int]]:
        """``(mtime, key digest, size)`` of every payload, oldest
        first: one ``stat`` per payload and no meta reads."""
        found: list[tuple[float, str, int]] = []
        try:
            shards = os.scandir(self._objects)
        except FileNotFoundError:
            return found
        with shards:
            for shard in shards:
                if not shard.is_dir():
                    continue
                with os.scandir(shard.path) as files:
                    for f in files:
                        if not f.name.endswith(".bin"):
                            continue
                        try:
                            st = f.stat()
                        except OSError:  # removed since the listing
                            continue
                        found.append((st.st_mtime, f.name[:-len(".bin")],
                                      st.st_size))
        found.sort()
        return found

    def _recount(self) -> int:
        """Scan and reset the running total to the bytes found."""
        self._running = sum(size for _, _, size in self._scan())
        return self._running

    def _evict_over_cap(self, max_bytes: Optional[int] = None
                        ) -> list[StoreEntry]:
        """Scan, evict least-recently-used payloads down to the cap,
        and reset the running total.  Returns the evicted entries
        whose meta was readable."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        found = self._scan()
        total = sum(size for _, _, size in found)
        evicted: list[StoreEntry] = []
        for mtime, key_digest, size in found:
            if total <= cap:
                break
            try:
                meta = json.loads(self._meta_path(key_digest).read_bytes())
                evicted.append(self._entry_from_meta(
                    meta, self._payload_path(key_digest), mtime=mtime,
                    size=size))
            except (OSError, ValueError, KeyError):
                pass  # orphan payload: garbage, evicted all the same
            self._remove(key_digest)
            total -= size
            if telemetry.enabled():
                _EVICTIONS.inc()
        self._running = total
        return evicted

    def _remove(self, key_digest: str) -> None:
        for path in (self._meta_path(key_digest),
                     self._payload_path(key_digest)):
            try:
                path.unlink()
            except OSError:
                pass
        self._invalidated(key_digest)

    def _quarantine(self, key_digest: str) -> None:
        """Move a corrupt entry aside instead of destroying evidence."""
        self._quarantine_dir.mkdir(parents=True, exist_ok=True)
        size = self._size_on_disk(self._payload_path(key_digest))
        moved = False
        for path in (self._meta_path(key_digest),
                     self._payload_path(key_digest)):
            try:
                os.replace(path, self._quarantine_dir / path.name)
                moved = True
            except OSError:
                pass
        if moved:
            if self._running is not None:
                self._running -= size
            self._invalidated(key_digest)
            if telemetry.enabled():
                _QUARANTINED.inc()
