"""The crash-safe checkpoint store: a WAL of governed-run state.

:class:`CheckpointStore` persists three record kinds, all JSON payloads
framed by :mod:`repro.durable.wal`:

* ``request`` — a journalled unit of admitted work (the query service's
  request payload, or the CLI's program + facts), written once at
  admission so a restarted process knows *what* was running;
* ``checkpoint`` — a :class:`~repro.robust.checkpoint.Checkpoint`
  payload, streamed every durability-policy interval so a restarted
  process knows *where* the run was (the newest valid one per run id
  wins);
* ``done`` — the run completed (or its outcome was delivered); recovery
  ignores the id and compaction drops its records;
* ``update`` — one materialized-view journal entry (a ``base`` snapshot
  of program + EDB, or a mutation ``batch``), folded into a per-view
  :class:`~repro.durable.recovery.ViewLog`; update records never enter
  the pending-run set, so request recovery is unaffected by live views;
* ``fence`` — a replica-promotion stamp (:meth:`write_fence`): the
  monotonic fencing token the shard is now serving under.  Compaction
  rewrites the newest token into the fresh segment so it survives
  forever; recovery folds it into ``recovered.fence_token``.

Durability discipline:

* appends go to the current ``wal-<n>.log`` segment and are fsynced per
  the ``fsync`` policy (``"always"`` by default — a record returned from
  ``write_checkpoint`` survives an immediate power cut);
* under :meth:`CheckpointStore.group_commit` an ``"always"`` store
  writes each record at once but fsyncs (and ships) it at the next
  :meth:`~CheckpointStore.commit`: one fsync for every record appended
  since the last, for a caller that publishes nothing before it commits
  (the shard worker commits before every publish);
* segments rotate at ``segment_bytes``; the outgoing segment is fsynced
  *before* the new one is created, so damage can only ever live at the
  tail of the final segment;
* compaction rewrites the live state (pending requests + their newest
  checkpoint) into the *next* segment index via write-temp → fsync →
  ``os.replace`` → directory fsync, then unlinks the old segments — a
  crash at any boundary leaves either the old segments (replace not yet
  done) or old + compacted (deletes not yet done), both of which replay
  to the same state because later records win.

On open, the store replays the log (:class:`RecoveryManager`), truncates
a torn tail on the final segment, and exposes the surviving in-flight
work via :meth:`pending` / :meth:`latest_checkpoint` / :meth:`resume`.
Metrics live under the ``durable/`` namespace of the store's registry:
``bytes_written``, ``records``, ``fsyncs``, ``rotations``,
``compactions``, ``checkpoints``, ``recovered_runs``, ``torn_tails``.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.durable.recovery import PendingRun, RecoveredState, RecoveryManager, ViewLog
from repro.durable.wal import (
    append_record,
    fsync_dir,
    fsync_handle,
    replace_file,
)
from repro.errors import RecoveryError
from repro.obs.metrics import MetricsRegistry

__all__ = ["CheckpointStore", "FSYNC_POLICIES"]

#: ``"always"`` fsyncs every append (full durability); ``"rotate"`` only
#: at rotation/compaction/close (a crash loses at most one segment's
#: recent appends); ``"never"`` leaves flushing to the OS (tests only).
FSYNC_POLICIES = ("always", "rotate", "never")


class CheckpointStore:
    """A write-ahead checkpoint store rooted at one directory.

    Args:
        root: directory for the segments (created if missing).
        segment_bytes: rotation threshold for the active segment.
        fsync: one of :data:`FSYNC_POLICIES`.
        metrics: registry for the ``durable/`` counters (a private one is
            created when omitted).
        auto_truncate: repair a torn tail on open (default).  Disable to
            fail loudly instead — the tail is then reported via
            ``recovered.torn_tail`` but the file is left untouched.
        exclusive: take a process-exclusive ``flock`` on the directory's
            ``LOCK`` file for the store's lifetime; a second opener with
            ``exclusive=True`` gets a typed
            :class:`~repro.errors.StoreLocked` instead of silently
            interleaving appends.  The kernel drops the lock when the
            process dies — including SIGKILL — so a crashed shard's
            restarted replacement acquires it without cleanup.
    """

    def __init__(
        self,
        root: str,
        segment_bytes: int = 4 * 1024 * 1024,
        fsync: str = "always",
        metrics: Optional[MetricsRegistry] = None,
        auto_truncate: bool = True,
        exclusive: bool = False,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        self.root = os.fspath(root)
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        os.makedirs(self.root, exist_ok=True)
        self._lock_handle: Any = None
        if exclusive:
            self._acquire_ownership()
        #: What the opening replay reconstructed (kept for introspection).
        self.recovered: RecoveredState = RecoveryManager(self.root).recover()
        if self.recovered.torn_tail is not None:
            path, good_length, _damage = self.recovered.torn_tail
            if auto_truncate:
                with open(path, "r+b") as handle:
                    handle.truncate(good_length)
                    fsync_handle(handle)
                self.metrics.inc("durable/torn_tails")
        self._pending: Dict[str, PendingRun] = dict(self.recovered.pending)
        self._updates: Dict[str, ViewLog] = {
            rid: log.copy() for rid, log in self.recovered.updates.items()
        }
        self._done = set(self.recovered.done)
        self._fence_token = self.recovered.fence_token
        #: Replication ship hooks (:mod:`repro.durable.replication`).
        #: ``on_append(segment_index, record_bytes)`` fires under the
        #: store lock after each append (post-fsync under ``"always"``);
        #: ``on_compact(segment_index, segment_bytes)`` fires after a
        #: compaction lands, with the full compacted segment.  Hooks must
        #: not block: ship them into a queue, not down a pipe.
        self.on_append: Optional[Callable[[int, bytes], None]] = None
        self.on_compact: Optional[Callable[[int, bytes], None]] = None
        self._segment_index = self.recovered.next_segment_index
        self._handle: Any = None
        self._segment_size = 0
        self._closed = False
        #: Records written but not yet fsynced and shipped, as
        #: ``(segment index, record bytes)``; ``None`` unless
        #: :meth:`group_commit` is on.
        self._uncommitted: Optional[List[Tuple[int, bytes]]] = None
        # Appends come from many threads (the query service journals from
        # the caller thread and checkpoints from worker threads); one lock
        # serializes the log so records never interleave mid-frame.
        self._lock = threading.RLock()
        self.metrics.set_counter(
            "durable/recovered_runs", len(self._pending)
        )
        self._open_segment(self._segment_index)

    @classmethod
    def for_shard(cls, root: str, shard_id: int, **kwargs: Any) -> "CheckpointStore":
        """The store for shard *shard_id* under the service's durable
        directory: ``<root>/shard-<k>``, opened with exclusive ownership
        (each worker process is the sole writer of its WAL shard)."""
        kwargs.setdefault("exclusive", True)
        return cls(os.path.join(os.fspath(root), f"shard-{shard_id}"), **kwargs)

    @staticmethod
    def shard_roots(root: str) -> Dict[int, str]:
        """The ``{shard_id: path}`` of every ``shard-<k>`` directory under
        *root* (read side: the front door scans these at startup to seed
        its request counter past every journalled id)."""
        roots: Dict[int, str] = {}
        try:
            names = os.listdir(os.fspath(root))
        except FileNotFoundError:
            return roots
        for name in names:
            if name.startswith("shard-") and name[len("shard-"):].isdigit():
                path = os.path.join(os.fspath(root), name)
                if os.path.isdir(path):
                    roots[int(name[len("shard-"):])] = path
        return roots

    def _acquire_ownership(self) -> None:
        import fcntl

        from repro.errors import StoreLocked

        handle = open(os.path.join(self.root, "LOCK"), "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StoreLocked(
                f"WAL directory {self.root} is owned by another live "
                "process — two writers on one log would interleave frames"
            ) from None
        # Best-effort breadcrumb for humans inspecting a crash.
        handle.seek(0)
        handle.truncate()
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        self._lock_handle = handle

    # -- the write side ---------------------------------------------------------

    def journal_request(self, rid: str, payload: Any) -> None:
        """Journal one admitted unit of work under *rid* (JSON payload)."""
        with self._lock:
            self._append({"kind": "request", "rid": rid, "data": payload})
            run = self._pending.setdefault(rid, PendingRun(rid))
            run.request = payload
            self._done.discard(rid)

    def write_checkpoint(self, rid: str, checkpoint: Any) -> None:
        """Persist *checkpoint* (a
        :class:`~repro.robust.checkpoint.Checkpoint`) as the newest
        durable state of *rid*."""
        from repro.robust.checkpoint import _to_payload

        payload = _to_payload(checkpoint)
        with self._lock:
            self._append({"kind": "checkpoint", "rid": rid, "data": payload})
            run = self._pending.setdefault(rid, PendingRun(rid))
            run.checkpoint_payload = payload
            run.checkpoints_seen += 1
            self._done.discard(rid)
            self.metrics.inc("durable/checkpoints")

    def journal_update(self, rid: str, payload: Dict[str, Any]) -> None:
        """Journal one materialized-view record under view id *rid*.

        *payload* is either a ``{"type": "base", "seq": n, ...}`` snapshot
        (program + full EDB as of seq *n* — supersedes every batch with
        ``seq <= n``) or a ``{"type": "batch", "seq": n, ...}`` mutation
        batch.  The append is fsynced per the store policy; callers that
        need the write-ahead guarantee under ``fsync != "always"`` should
        follow with :meth:`sync` before applying the batch in memory.

        Raises:
            ValueError: on a payload shape the view log cannot fold.
        """
        with self._lock:
            log = self._updates.get(rid)
            if log is None:
                log = ViewLog(rid)
            probe = log.copy()
            if not probe.fold(payload):
                raise ValueError(
                    f"unknown update payload for view {rid!r}: "
                    f"type={payload.get('type')!r} seq={payload.get('seq')!r}"
                )
            self._append({"kind": "update", "rid": rid, "data": payload})
            self._updates[rid] = probe
            self._done.discard(rid)
            self.metrics.inc("durable/updates")

    def view_log(self, rid: str) -> Optional[ViewLog]:
        """The journalled :class:`~repro.durable.recovery.ViewLog` for
        view *rid* (a snapshot copy), or ``None``."""
        with self._lock:
            log = self._updates.get(rid)
            return log.copy() if log is not None else None

    def view_logs(self) -> Dict[str, ViewLog]:
        """Every journalled view log by id (snapshot copies)."""
        with self._lock:
            return {rid: log.copy() for rid, log in self._updates.items()}

    def mark_done(self, rid: str) -> None:
        """Record that *rid* needs no recovery (finished, or its outcome
        was delivered).  Idempotent; unknown ids are fine.  For a view id
        this drops the view's journalled log."""
        with self._lock:
            if rid in self._done:
                return
            self._append({"kind": "done", "rid": rid})
            self._pending.pop(rid, None)
            self._updates.pop(rid, None)
            self._done.add(rid)

    def group_commit(self) -> None:
        """Turn on group commit (an ``"always"`` store only; a no-op
        under the lazier policies, which never promised a per-record
        fsync).

        From here on an append writes and flushes its record at once, so
        the record survives the process being killed, but its fsync and
        its ``on_append`` ship wait for the next :meth:`commit`, which
        covers every record appended since the last one with a single
        fsync.  The caller takes over the ``"always"`` promise: it must
        commit before it tells anyone outside the process about a
        record.  :meth:`sync`, :meth:`write_fence`, :meth:`compact` and
        :meth:`close` commit first.
        """
        with self._lock:
            if self.fsync == "always" and self._uncommitted is None:
                self._uncommitted = []

    def commit(self) -> None:
        """Under :meth:`group_commit`: fsync every record appended since
        the last commit, then ship them in log order.  Cheap when there
        is nothing to commit."""
        with self._lock:
            if not self._uncommitted:
                return
            records, self._uncommitted = self._uncommitted, []
            if self._handle is not None:
                fsync_handle(self._handle)
                self.metrics.inc("durable/fsyncs")
            if self.on_append is not None:
                for index, payload in records:
                    self.on_append(index, payload)

    def sync(self) -> None:
        """Force everything appended so far onto the disk."""
        with self._lock:
            if self._uncommitted is not None:
                self.commit()
            elif self._handle is not None:
                fsync_handle(self._handle)
                self.metrics.inc("durable/fsyncs")

    @property
    def fence_token(self) -> int:
        """The newest promotion fencing token stamped into this log
        (``0`` when the shard was never promoted)."""
        with self._lock:
            return self._fence_token

    def write_fence(self, token: int) -> None:
        """Stamp fencing *token* into the log as a ``fence`` record and
        force it to disk, whatever the fsync policy — a promotion is not
        done until its token is durable.  Tokens are monotonic: a token
        no newer than the one already stamped is a supervisor bug.
        """
        with self._lock:
            if token <= self._fence_token:
                raise ValueError(
                    f"fence token {token} is not newer than the stamped "
                    f"token {self._fence_token} in {self.root}"
                )
            self._append({"kind": "fence", "rid": "shard", "data": {"token": token}})
            if self._uncommitted is not None:
                self.commit()
            elif self.fsync != "always" and self._handle is not None:
                fsync_handle(self._handle)
                self.metrics.inc("durable/fsyncs")
            self._fence_token = token

    # -- the read side ----------------------------------------------------------

    def pending(self) -> Dict[str, PendingRun]:
        """The in-flight runs (journalled or checkpointed, not done),
        newest state per id — a snapshot copy."""
        with self._lock:
            return dict(self._pending)

    def latest_checkpoint(self, rid: str) -> Optional[Any]:
        """The newest durable :class:`~repro.robust.checkpoint.Checkpoint`
        of *rid*, or ``None`` when the run never reached one.  A payload
        written by an unknown future format raises the checkpoint layer's
        :class:`~repro.errors.CheckpointError`."""
        from repro.robust.checkpoint import _from_payload

        run = self._pending.get(rid)
        if run is None or run.checkpoint_payload is None:
            return None
        return _from_payload(run.checkpoint_payload)

    def resume(self, rid: str, program: Any, governor: Any = None, tracer: Any = None):
        """Restore *rid*'s newest checkpoint against *program* and run it
        to completion; marks the run done and returns the database.

        Raises:
            RecoveryError: *rid* is not a pending run, or it crashed
                before its first durable checkpoint (nothing to resume —
                re-run it from the journalled request instead).
        """
        from repro.robust.checkpoint import resume as resume_checkpoint

        if rid not in self._pending:
            known = ", ".join(repr(r) for r in sorted(self._pending)) or "none"
            raise RecoveryError(
                f"no recoverable run {rid!r} in {self.root} "
                f"(pending runs: {known})"
            )
        checkpoint = self.latest_checkpoint(rid)
        if checkpoint is None:
            raise RecoveryError(
                f"run {rid!r} in {self.root} crashed before its first "
                "durable checkpoint — re-run it from the journalled request"
            )
        db = resume_checkpoint(checkpoint, program, governor=governor, tracer=tracer)
        self.mark_done(rid)
        return db

    def next_numeric_rid(self) -> int:
        """One more than the largest integer-shaped run id ever seen
        (pending *or* done) — the query service seeds its request counter
        here so restarted services never reuse a journalled id."""
        with self._lock:
            known = list(self._pending) + list(self._done)
        ceiling = -1
        for rid in known:
            try:
                ceiling = max(ceiling, int(rid))
            except ValueError:
                continue
        return ceiling + 1

    # -- maintenance ------------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the live state into one fresh segment and drop the
        rest; returns bytes reclaimed.  Crash-safe at every boundary (see
        the module docstring)."""
        with self._lock:
            # Ship what the compacted segment is about to absorb first.
            self.commit()
            return self._compact_locked()

    def _compact_locked(self) -> int:
        old_paths = [
            path
            for path in RecoveryManager(self.root).segments()
            if os.path.exists(path)
        ]
        old_bytes = sum(os.path.getsize(path) for path in old_paths)
        if self._handle is not None:
            fsync_handle(self._handle)
            self._handle.close()
            self._handle = None
        index = self._segment_index + 1
        final = self._segment_path(index)
        tmp = final + ".tmp"
        written = 0
        with open(tmp, "wb") as handle:
            # The fencing token outlives every run: losing it in a
            # compaction would let a zombie ex-primary publish again.
            if self._fence_token:
                written += append_record(
                    handle,
                    _encode(
                        {
                            "kind": "fence",
                            "rid": "shard",
                            "data": {"token": self._fence_token},
                        }
                    ),
                )
            for rid in sorted(self._pending):
                run = self._pending[rid]
                if run.request is not None:
                    written += append_record(
                        handle,
                        _encode({"kind": "request", "rid": rid, "data": run.request}),
                    )
                if run.checkpoint_payload is not None:
                    written += append_record(
                        handle,
                        _encode(
                            {
                                "kind": "checkpoint",
                                "rid": rid,
                                "data": run.checkpoint_payload,
                            }
                        ),
                    )
            # Live views survive compaction too: the newest base plus the
            # batches it does not cover, in replay order.
            for rid in sorted(self._updates):
                log = self._updates[rid]
                if log.base is not None:
                    written += append_record(
                        handle,
                        _encode({"kind": "update", "rid": rid, "data": log.base}),
                    )
                for batch in log.replay_batches():
                    written += append_record(
                        handle,
                        _encode({"kind": "update", "rid": rid, "data": batch}),
                    )
            fsync_handle(handle)
        replace_file(tmp, final)
        for path in old_paths:
            os.unlink(path)
        fsync_dir(self.root)
        if self.on_compact is not None:
            with open(final, "rb") as compacted:
                self.on_compact(index, compacted.read())
        # ``done`` markers for compacted-away runs are gone with the old
        # segments; the ids are gone too, so nothing resurrects.
        self._done.clear()
        self._segment_index = index
        self._open_segment(index + 1)
        self.metrics.inc("durable/compactions")
        self.metrics.inc("durable/bytes_written", written)
        return max(0, old_bytes - written)

    def stats(self) -> Dict[str, Any]:
        """The ``durable/`` counters plus live shape, JSON-ready."""
        counters = {
            name[len("durable/") :]: value
            for name, value in self.metrics.counters.items()
            if name.startswith("durable/")
        }
        return {
            "root": self.root,
            "pending": len(self._pending),
            "views": len(self._updates),
            "segment": os.path.basename(self._segment_path(self._segment_index)),
            "counters": counters,
        }

    def close(self) -> None:
        """Sync and close the active segment (idempotent); releases the
        exclusive directory lock, when one is held."""
        with self._lock:
            if self._closed:
                return
            self.commit()
            self._closed = True
            if self._handle is not None:
                if self.fsync != "never":
                    fsync_handle(self._handle)
                self._handle.close()
                self._handle = None
            if self._lock_handle is not None:
                # Release explicitly, then close.  Closing the fd drops
                # the flock too on every platform we run on, but the
                # explicit unlock makes the handoff deterministic: the
                # moment close() returns, a promotion or supervised
                # restart in this same process can re-acquire the shard.
                import fcntl

                try:
                    fcntl.flock(self._lock_handle.fileno(), fcntl.LOCK_UN)
                except OSError:
                    pass
                self._lock_handle.close()
                self._lock_handle = None

    def __enter__(self) -> "CheckpointStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals --------------------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.root, f"wal-{index:08d}.log")

    def _open_segment(self, index: int) -> None:
        self._segment_index = index
        path = self._segment_path(index)
        self._handle = open(path, "ab")
        self._segment_size = os.path.getsize(path)
        fsync_dir(self.root)

    def _append(self, record: Dict[str, Any]) -> None:
        if self._closed:
            raise ValueError(f"checkpoint store {self.root} is closed")
        payload = _encode(record)
        written = append_record(self._handle, payload)
        self._segment_size += written
        self.metrics.inc("durable/records")
        self.metrics.inc("durable/bytes_written", written)
        if self._uncommitted is not None:
            # Group commit: durable and shipped at the next commit().
            self._handle.flush()
            self._uncommitted.append((self._segment_index, payload))
        else:
            if self.fsync == "always":
                fsync_handle(self._handle)
                self.metrics.inc("durable/fsyncs")
            if self.on_append is not None:
                # Ship after the fsync: under "always" the standby can
                # never hold a record the primary's disk does not.
                self.on_append(self._segment_index, payload)
        if self._segment_size >= self.segment_bytes:
            self._rotate()

    def _rotate(self) -> None:
        # The outgoing segment is always synced, whatever the policy:
        # rotation is the invariant that confines damage to the final
        # segment's tail.
        fsync_handle(self._handle)
        self.metrics.inc("durable/fsyncs")
        self._handle.close()
        self._open_segment(self._segment_index + 1)
        self.metrics.inc("durable/rotations")


def _encode(record: Dict[str, Any]) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode("utf-8")
