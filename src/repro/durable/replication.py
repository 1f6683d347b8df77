"""Replication primitives: segment manifests, fence files, replica WALs.

This module is the durable half of shard replication
(``docs/serving.md`` § Replicated shards).  The serving layer decides
*when* to ship, promote, or rebuild; everything here is mechanism:

* :func:`build_manifest` — the primary's per-segment catalogue
  (``index`` / ``length`` / ``crc``), built under the store lock so it
  pins an exact log prefix.  Records appended after the manifest is
  built reach the standby through live shipping; the manifest plus the
  ship stream covers the log with no gap and no overlap, because the
  manifest records each segment's exact byte length and
  :func:`read_segment` returns exactly those bytes even if the live
  segment has grown since.
* :class:`ReplicaWal` — the standby's write side: verifies fetched
  segments against the manifest CRCs, appends live-shipped records with
  the same framing the primary used, and rewrites itself after a
  primary compaction.  :meth:`ReplicaWal.plan_sync` is the anti-entropy
  step — it diffs the local directory against a primary manifest and
  classifies every difference, so a diverged replica (bytes that are
  provably not a prefix of the primary's log) is detected and rebuilt,
  never silently trusted.
* :func:`read_fence_token` / :func:`write_fence_token` — the shard's
  fence *file*, the cross-process half of fencing.  The promoted
  replica stamps the token into its own WAL (``fence`` record,
  :meth:`~repro.durable.store.CheckpointStore.write_fence`) for
  durability; the supervisor also publishes it into
  ``<durable_root>/shard-<k>.fence`` *before* promoting, so a zombie
  ex-primary — which owns a different WAL directory and would never see
  the record — finds the newer token next to its root and self-fences
  (:class:`~repro.errors.StoreFenced`).

Divergence is possible despite deterministic replay because shipping is
asynchronous: a primary can fsync records it never managed to ship, die,
and leave its slot holding a log tail the promoted replica re-executes
differently (fresh appends for the resent requests).  The stale slot's
segments then mismatch the new primary's CRCs at the same indexes —
exactly what :meth:`ReplicaWal.plan_sync` reports as ``diverged``.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List, Optional

from repro.durable.recovery import RecoveryManager, segment_index
from repro.durable.wal import (
    append_record,
    fsync_dir,
    fsync_handle,
    replace_file,
    scan_segment,
)
from repro.errors import StoreLocked, WalCorruptionError

__all__ = [
    "build_manifest",
    "read_segment",
    "read_fence_token",
    "write_fence_token",
    "fence_path",
    "SyncPlan",
    "ReplicaWal",
]


def build_manifest(root: str) -> List[Dict[str, Any]]:
    """The segment catalogue of the WAL directory *root*: one
    ``{"index", "name", "length", "crc"}`` entry per segment, in replay
    order.  ``crc`` is the CRC32 of the segment's first ``length`` bytes
    — the caller must hold the store lock (or own the directory) so that
    ``length`` pins a prefix no concurrent append can invalidate."""
    manifest: List[Dict[str, Any]] = []
    for path in RecoveryManager(root).segments():
        with open(path, "rb") as handle:
            data = handle.read()
        index = segment_index(os.path.basename(path))
        manifest.append(
            {
                "index": index,
                "name": os.path.basename(path),
                "length": len(data),
                "crc": zlib.crc32(data),
            }
        )
    return manifest


def read_segment(root: str, index: int, length: int) -> bytes:
    """Exactly the first *length* bytes of segment *index* under *root*
    — the prefix a manifest pinned, even if the live segment has grown
    since.  Raises :class:`~repro.errors.WalCorruptionError` when the
    segment is shorter than the manifest promised (the log shrank, which
    append-only storage cannot do)."""
    path = os.path.join(root, f"wal-{index:08d}.log")
    with open(path, "rb") as handle:
        data = handle.read(length)
    if len(data) < length:
        raise WalCorruptionError(
            f"segment {os.path.basename(path)} holds {len(data)} bytes but "
            f"the manifest pinned {length} — an append-only log cannot shrink"
        )
    return data


def fence_path(durable_root: str, shard_id: int) -> str:
    """The shard's fence-file path: ``<durable_root>/shard-<k>.fence``.
    Deliberately *next to* (not inside) the WAL slot directories, so one
    file fences both slots of the shard whichever one a zombie owns."""
    return os.path.join(os.fspath(durable_root), f"shard-{shard_id}.fence")


def read_fence_token(path: str) -> int:
    """The fencing token published at *path*, ``0`` when absent or
    unreadable (an unreadable fence file fails open on the read side —
    the WAL ``fence`` record is the durable source of truth; the file is
    the fast cross-process signal)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return 0
    token = payload.get("token") if isinstance(payload, dict) else None
    return token if isinstance(token, int) else 0


def write_fence_token(path: str, token: int) -> None:
    """Atomically publish fencing *token* at *path* (write-temp → fsync
    → ``os.replace`` → directory fsync), so a reader never observes a
    torn fence file and a crash mid-publish leaves the old token."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"token": token}, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(os.path.dirname(path) or ".")


@dataclass
class SyncPlan:
    """What anti-entropy decided about one replica directory.

    Attributes:
        fetch: manifest entries whose segments must be fetched from the
            primary (missing locally, or present but not verifiably the
            pinned prefix).
        delete: local segment indexes the primary's manifest does not
            know — stale pre-compaction segments or diverged tails.
        matched: manifest entries already byte-identical locally.
        diverged: ``True`` when some local non-empty segment had to be
            discarded — its bytes are provably not the primary's.  A
            merely *lagging* replica (strict subset of the primary's
            log) is not diverged.
    """

    fetch: List[Dict[str, Any]] = field(default_factory=list)
    delete: List[int] = field(default_factory=list)
    matched: List[Dict[str, Any]] = field(default_factory=list)
    diverged: bool = False


class ReplicaWal:
    """The standby's WAL directory: verified fetches + live appends.

    Owns ``root`` with the same flock protocol as
    :class:`~repro.durable.store.CheckpointStore` (two writers on one
    log interleave frames), but writes *only* what the primary shipped —
    it never composes records of its own.  On promotion the serving
    layer calls :meth:`close` (which releases the lock deterministically)
    and reopens the directory as a real exclusive ``CheckpointStore``;
    recovery replays the shipped log exactly as it would the primary's.

    Args:
        root: the replica slot directory (created if missing).
        fsync: ``"always"`` fsyncs every applied record — the replica
            never claims application it could lose; ``"rotate"``/
            ``"never"`` relax it (the primary's copy is still durable).
    """

    def __init__(self, root: str, fsync: str = "always"):
        self.root = os.fspath(root)
        self.fsync = fsync
        os.makedirs(self.root, exist_ok=True)
        self._lock_handle = open(os.path.join(self.root, "LOCK"), "a+")
        import fcntl

        try:
            fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._lock_handle.close()
            raise StoreLocked(
                f"replica WAL directory {self.root} is owned by another "
                "live process"
            ) from None
        self._handle: Optional[BinaryIO] = None
        self._open_index: Optional[int] = None
        self._closed = False
        #: Records applied via :meth:`append` since open.
        self.records_applied = 0
        #: Segments fetched-and-verified via :meth:`write_segment`.
        self.segments_fetched = 0

    # -- anti-entropy -----------------------------------------------------------

    def plan_sync(self, manifest: List[Dict[str, Any]]) -> SyncPlan:
        """Diff this directory against a primary *manifest* (see
        :class:`SyncPlan`).  A local segment counts as matched only when
        its full content equals the pinned prefix exactly (same length,
        same CRC); anything else is refetched — CRC32 cannot verify a
        proper prefix, and a wrong guess here is silent split-brain."""
        plan = SyncPlan()
        remote_indexes = set()
        for entry in manifest:
            remote_indexes.add(entry["index"])
            path = os.path.join(self.root, f"wal-{entry['index']:08d}.log")
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                plan.fetch.append(entry)
                continue
            if len(data) == entry["length"] and zlib.crc32(data) == entry["crc"]:
                plan.matched.append(entry)
            else:
                plan.fetch.append(entry)
                if data:
                    plan.diverged = True
        for path in RecoveryManager(self.root).segments():
            index = segment_index(os.path.basename(path))
            if index is not None and index not in remote_indexes:
                plan.delete.append(index)
                if os.path.getsize(path):
                    plan.diverged = True
        return plan

    def delete_segment(self, index: int) -> None:
        """Drop local segment *index* (stale or diverged)."""
        self._close_handle()
        try:
            os.unlink(os.path.join(self.root, f"wal-{index:08d}.log"))
        except FileNotFoundError:
            pass
        fsync_dir(self.root)

    def write_segment(self, entry: Dict[str, Any], data: bytes) -> None:
        """Install fetched segment bytes after verifying them against the
        manifest *entry* (length + CRC32, then a full record scan — a
        segment that checksums but does not frame is corruption).  The
        write is atomic: temp → fsync → replace → directory fsync."""
        if len(data) != entry["length"] or zlib.crc32(data) != entry["crc"]:
            raise WalCorruptionError(
                f"fetched segment {entry['index']} for {self.root} does not "
                f"match its manifest entry ({len(data)} bytes, "
                f"crc {zlib.crc32(data)} != {entry['crc']}) — refusing to "
                "install unverified bytes"
            )
        self._close_handle()
        final = os.path.join(self.root, f"wal-{entry['index']:08d}.log")
        tmp = final + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(data)
            fsync_handle(handle)
        replace_file(tmp, final)
        scan = scan_segment(final)
        if scan.torn:
            raise WalCorruptionError(
                f"fetched segment {entry['index']} for {self.root} matches "
                f"its CRC but does not frame as WAL records ({scan.damage}) "
                "— the primary shipped a non-log file"
            )
        self.segments_fetched += 1

    # -- live shipping ----------------------------------------------------------

    def append(self, index: int, payload: bytes, sync: bool = True) -> None:
        """Apply one live-shipped record *payload* to segment *index*,
        rotating when the primary did (a new *index* closes the old
        segment exactly as the primary's fsync-before-rotation does).

        ``sync=False`` writes the record but leaves its fsync to the
        caller's next :meth:`sync` — one fsync for a batch of records,
        for a caller that reports none of them applied before it syncs.
        """
        if self._closed:
            raise ValueError(f"replica WAL {self.root} is closed")
        if self._open_index != index:
            self._close_handle()
            path = os.path.join(self.root, f"wal-{index:08d}.log")
            self._handle = open(path, "ab")
            self._open_index = index
            fsync_dir(self.root)
        append_record(self._handle, payload)
        if self.fsync == "always" and sync:
            fsync_handle(self._handle)
        else:
            self._handle.flush()
        self.records_applied += 1

    def apply_compact(self, index: int, data: bytes) -> None:
        """Mirror a primary compaction: every local segment is replaced
        by the single compacted segment *index* holding *data* (verified
        by a full record scan before the old segments go away)."""
        self._close_handle()
        entry = {"index": index, "length": len(data), "crc": zlib.crc32(data)}
        old = [
            path
            for path in RecoveryManager(self.root).segments()
            if segment_index(os.path.basename(path)) != index
        ]
        self.write_segment(entry, data)
        self.segments_fetched -= 1  # not a fetch, an in-band rewrite
        for path in old:
            os.unlink(path)
        fsync_dir(self.root)

    def sync(self) -> None:
        """Force the active segment onto the disk."""
        if self._handle is not None:
            fsync_handle(self._handle)

    def close(self) -> None:
        """Sync, close, and release the directory lock (idempotent) —
        after this returns, the same process can reopen the directory as
        an exclusive :class:`~repro.durable.store.CheckpointStore`
        (promotion does exactly that)."""
        if self._closed:
            return
        self._closed = True
        self._close_handle()
        if self._lock_handle is not None:
            import fcntl

            try:
                fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
            self._lock_handle.close()
            self._lock_handle = None

    def __enter__(self) -> "ReplicaWal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def _close_handle(self) -> None:
        if self._handle is not None:
            if self.fsync != "never":
                fsync_handle(self._handle)
            self._handle.close()
            self._handle = None
            self._open_index = None
