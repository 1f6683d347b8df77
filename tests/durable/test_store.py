"""CheckpointStore unit tests: journal, rotation, compaction, recovery.

Crash-point behaviour is in ``test_crash_matrix.py``; this file covers
the store's happy-path mechanics and its reopen semantics.
"""

from __future__ import annotations

import os

import pytest

from repro.core.compiler import compile_program
from repro.durable import (
    CheckpointStore,
    DurabilityPolicy,
    DurableWriter,
    RecoveryManager,
)
from repro.errors import BudgetExceeded, RecoveryError, WalCorruptionError
from repro.obs.metrics import MetricsRegistry
from repro.robust import Budget, RunGovernor

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"v{i}", (37 * i) % 101) for i in range(14)]}


def _interrupted_checkpoint(max_steps=3):
    compiled = compile_program(SORTING)
    governor = RunGovernor(Budget(max_gamma_steps=max_steps), check_interval=1)
    with pytest.raises(BudgetExceeded) as info:
        compiled.run(dict(SORT_FACTS), seed=0, governor=governor)
    return info.value.partial.checkpoint


class TestJournal:
    def test_request_checkpoint_done_lifecycle(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("a", {"program": SORTING})
        assert sorted(store.pending()) == ["a"]
        store.write_checkpoint("a", _interrupted_checkpoint())
        assert store.pending()["a"].checkpoints_seen == 1
        store.mark_done("a")
        assert store.pending() == {}
        store.close()
        reopened = CheckpointStore(tmp_path)
        assert reopened.pending() == {}
        reopened.close()

    def test_reopen_reconstructs_newest_checkpoint(self, tmp_path):
        older = _interrupted_checkpoint(max_steps=2)
        newer = _interrupted_checkpoint(max_steps=5)
        store = CheckpointStore(tmp_path)
        store.journal_request("run", {"program": SORTING})
        store.write_checkpoint("run", older)
        store.write_checkpoint("run", newer)
        store.close()
        reopened = CheckpointStore(tmp_path)
        assert reopened.pending()["run"].checkpoints_seen == 2
        latest = reopened.latest_checkpoint("run")
        assert latest.facts == newer.facts
        assert latest.rng_state == newer.rng_state
        reopened.close()

    def test_latest_checkpoint_none_before_first(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            store.journal_request("r", {})
            assert store.latest_checkpoint("r") is None
            assert store.latest_checkpoint("unknown") is None

    def test_closed_store_refuses_appends(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.close()
        with pytest.raises(ValueError):
            store.journal_request("r", {})

    def test_next_numeric_rid_spans_pending_and_done(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            assert store.next_numeric_rid() == 0
            store.journal_request("3", {})
            store.journal_request("7", {})
            store.mark_done("7")
            store.journal_request("not-a-number", {})
            assert store.next_numeric_rid() == 8
        with CheckpointStore(tmp_path) as reopened:
            assert reopened.next_numeric_rid() == 8

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError):
            CheckpointStore(tmp_path, segment_bytes=0)


class TestRotation:
    def test_appends_rotate_segments(self, tmp_path):
        store = CheckpointStore(tmp_path, segment_bytes=256, fsync="rotate")
        for i in range(20):
            store.journal_request(str(i), {"payload": "x" * 64})
        store.close()
        segments = RecoveryManager(tmp_path).segments()
        assert len(segments) > 1
        assert store.metrics.counter("durable/rotations") == len(segments) - 1
        reopened = CheckpointStore(tmp_path)
        assert sorted(reopened.pending()) == sorted(str(i) for i in range(20))
        reopened.close()

    def test_new_segment_after_reopen_not_old_tail(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("a", {})
        store.close()
        reopened = CheckpointStore(tmp_path)
        reopened.journal_request("b", {})
        reopened.close()
        # Both records must replay, whichever segments they landed in.
        final = CheckpointStore(tmp_path)
        assert sorted(final.pending()) == ["a", "b"]
        final.close()


class TestCompaction:
    def test_compact_drops_dead_records(self, tmp_path):
        store = CheckpointStore(tmp_path)
        cp = _interrupted_checkpoint()
        for i in range(10):
            store.journal_request(str(i), {"program": SORTING})
            store.write_checkpoint(str(i), cp)
            if i % 2 == 0:
                store.mark_done(str(i))
        before = sum(
            os.path.getsize(p) for p in RecoveryManager(tmp_path).segments()
        )
        reclaimed = store.compact()
        after = sum(
            os.path.getsize(p) for p in RecoveryManager(tmp_path).segments()
        )
        assert reclaimed > 0
        assert after < before
        assert sorted(store.pending()) == [str(i) for i in range(10) if i % 2]
        store.close()
        reopened = CheckpointStore(tmp_path)
        assert sorted(reopened.pending()) == [str(i) for i in range(10) if i % 2]
        assert reopened.latest_checkpoint("1").facts == cp.facts
        reopened.close()

    def test_compact_keeps_only_newest_checkpoint(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("r", {"program": SORTING})
        store.write_checkpoint("r", _interrupted_checkpoint(2))
        newest = _interrupted_checkpoint(5)
        store.write_checkpoint("r", newest)
        store.compact()
        store.close()
        reopened = CheckpointStore(tmp_path)
        run = reopened.pending()["r"]
        assert run.checkpoints_seen == 1  # compaction kept one
        assert reopened.latest_checkpoint("r").facts == newest.facts
        reopened.close()


class TestTornTail:
    def test_open_truncates_torn_tail(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("keep", {})
        store.close()
        segment = RecoveryManager(tmp_path).segments()[-1]
        good = os.path.getsize(segment)
        with open(segment, "ab") as handle:
            handle.write(b"\xde\xad\xbe")
        reopened = CheckpointStore(tmp_path)
        assert os.path.getsize(segment) == good
        assert sorted(reopened.pending()) == ["keep"]
        assert reopened.metrics.counter("durable/torn_tails") == 1
        reopened.close()

    def test_torn_tail_on_non_final_segment_is_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path, segment_bytes=64)
        for i in range(6):
            store.journal_request(str(i), {"pad": "y" * 32})
        store.close()
        first, *_ = RecoveryManager(tmp_path).segments()
        with open(first, "ab") as handle:
            handle.write(b"\x01\x02\x03")
        with pytest.raises(WalCorruptionError) as info:
            CheckpointStore(tmp_path)
        assert "not the final segment" in str(info.value)

    def test_foreign_record_is_corruption(self, tmp_path):
        from repro.durable.wal import frame

        store = CheckpointStore(tmp_path)
        store.close()
        segment = RecoveryManager(tmp_path).segments()[-1]
        with open(segment, "ab") as handle:
            handle.write(frame(b"this is not a JSON store record"))
        with pytest.raises(WalCorruptionError) as info:
            CheckpointStore(tmp_path)
        assert "written by something else" in str(info.value)

    def test_unknown_record_kind_is_skipped(self, tmp_path):
        from repro.durable.wal import frame

        store = CheckpointStore(tmp_path)
        store.journal_request("a", {})
        store.close()
        segment = RecoveryManager(tmp_path).segments()[-1]
        with open(segment, "ab") as handle:
            handle.write(frame(b'{"kind":"lease","rid":"a","data":1}'))
        reopened = CheckpointStore(tmp_path)
        assert reopened.recovered.unknown_records == 1
        assert sorted(reopened.pending()) == ["a"]
        reopened.close()


class TestResume:
    def test_resume_unknown_rid_raises_recovery_error(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            store.journal_request("real", {})
            with pytest.raises(RecoveryError) as info:
                store.resume("ghost", compile_program(SORTING).program)
        message = str(info.value)
        assert "'ghost'" in message and "'real'" in message

    def test_resume_without_checkpoint_raises_recovery_error(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            store.journal_request("early", {})
            with pytest.raises(RecoveryError) as info:
                store.resume("early", compile_program(SORTING).program)
        assert "before its first" in str(info.value)


class TestMetricsAndWriter:
    def test_durable_namespace_counters(self, tmp_path):
        registry = MetricsRegistry()
        store = CheckpointStore(tmp_path, metrics=registry)
        store.journal_request("r", {})
        store.write_checkpoint("r", _interrupted_checkpoint())
        store.mark_done("r")
        store.compact()
        store.close()
        assert registry.counter("durable/records") == 3
        assert registry.counter("durable/checkpoints") == 1
        assert registry.counter("durable/compactions") == 1
        assert registry.counter("durable/bytes_written") > 0
        assert registry.counter("durable/fsyncs") > 0
        stats = store.stats()
        assert stats["pending"] == 0
        assert stats["counters"]["records"] == 3

    def test_durable_writer_cadence(self, tmp_path):
        store = CheckpointStore(tmp_path)
        writer = DurableWriter(store, "run", DurabilityPolicy(every_steps=4))
        governor = RunGovernor(durability=writer)
        compiled = compile_program(SORTING)
        compiled.run(dict(SORT_FACTS), seed=0, governor=governor)
        assert writer.checkpoints_written >= 2
        # cadence 4 means one checkpoint per 4 ticks, give or take start
        assert store.pending()["run"].checkpoints_seen == writer.checkpoints_written
        writer.complete()
        assert store.pending() == {}
        store.close()

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DurabilityPolicy(every_steps=0)
        with pytest.raises(ValueError):
            DurabilityPolicy(every_steps=None, every_seconds=None)
        with pytest.raises(ValueError):
            DurabilityPolicy(every_seconds=-1.0)

    def test_time_cadence_fires(self, tmp_path):
        clock_value = [0.0]
        store = CheckpointStore(tmp_path)
        writer = DurableWriter(
            store,
            "run",
            DurabilityPolicy(every_steps=None, every_seconds=0.5),
            clock=lambda: clock_value[0],
        )
        compiled = compile_program(SORTING)
        db = compiled.run(dict(SORT_FACTS), seed=0)
        # Drive ticks directly: advance the clock past the cadence, then
        # tick through a clock-check boundary.
        writer.start(_EngineStub(compiled.program), db)
        clock_value[0] = 1.0
        for _ in range(64):
            writer.tick()
        assert writer.checkpoints_written >= 1
        store.close()

    def test_tick_before_start_is_harmless(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            writer = DurableWriter(store, "r", DurabilityPolicy(every_steps=1))
            writer.tick()  # not bound to an engine yet — must not write
            assert writer.checkpoints_written == 0


class _EngineStub:
    """Minimal engine shape for capture(): a program plus getattr
    defaults for everything else."""

    def __init__(self, program):
        self.program = program


class TestExclusiveOwnership:
    """flock-based single-writer WAL shards for the sharded service.

    The lock is advisory and held by an open file handle, so a SIGKILLed
    owner releases it automatically — exactly the property the
    supervisor's restart-with-same-shard loop relies on.
    """

    def test_exclusive_store_blocks_a_second_owner(self, tmp_path):
        from repro.errors import StoreLocked

        first = CheckpointStore(str(tmp_path), exclusive=True)
        try:
            with pytest.raises(StoreLocked) as excinfo:
                CheckpointStore(str(tmp_path), exclusive=True)
            assert "LOCK" in str(excinfo.value) or "owned" in str(excinfo.value)
        finally:
            first.close()
        # close() released the flock: ownership is transferable again.
        second = CheckpointStore(str(tmp_path), exclusive=True)
        second.close()

    def test_non_exclusive_open_still_works_alongside_an_owner(self, tmp_path):
        # The recovery manager reads shard WALs without claiming them.
        owner = CheckpointStore(str(tmp_path), exclusive=True)
        try:
            reader = CheckpointStore(str(tmp_path))
            reader.close()
        finally:
            owner.close()

    def test_for_shard_layout_and_shard_roots_round_trip(self, tmp_path):
        stores = [
            CheckpointStore.for_shard(str(tmp_path), k) for k in range(3)
        ]
        try:
            roots = CheckpointStore.shard_roots(str(tmp_path))
            assert set(roots) == {0, 1, 2}
            for k, path in roots.items():
                assert path.endswith(f"shard-{k}")
                assert os.path.isdir(path)
        finally:
            for store in stores:
                store.close()

    def test_shard_roots_ignores_foreign_directories(self, tmp_path):
        os.makedirs(tmp_path / "shard-0")
        os.makedirs(tmp_path / "shard-x")
        os.makedirs(tmp_path / "other")
        (tmp_path / "shard-7").write_text("a file, not a dir")
        roots = CheckpointStore.shard_roots(str(tmp_path))
        assert set(roots) == {0}

    def test_shard_roots_of_a_missing_root_is_empty(self, tmp_path):
        assert CheckpointStore.shard_roots(str(tmp_path / "nope")) == {}

    def test_close_reopen_close_reopen_in_one_process(self, tmp_path):
        """Regression: close() must release the flock deterministically
        (explicit LOCK_UN, not just handle close), so the same process
        can cycle ownership — exactly what a promotion does when it
        closes the replica log and reopens the directory exclusively."""
        for _ in range(3):
            store = CheckpointStore(str(tmp_path), exclusive=True)
            store.journal_request("r", {})
            store.close()
        final = CheckpointStore(str(tmp_path), exclusive=True)
        assert sorted(final.pending()) == ["r"]
        final.close()

    def test_replica_to_exclusive_store_handoff(self, tmp_path):
        from repro.durable import ReplicaWal

        replica = ReplicaWal(str(tmp_path))
        replica.close()
        store = CheckpointStore(str(tmp_path), exclusive=True)
        store.close()
        # And back: the released exclusive store frees the replica path.
        again = ReplicaWal(str(tmp_path))
        again.close()


class TestFencing:
    """The ``fence`` WAL record: monotonic promotion tokens that survive
    reopen and compaction."""

    def test_write_fence_round_trips_through_recovery(self, tmp_path):
        store = CheckpointStore(tmp_path)
        assert store.fence_token == 0
        store.write_fence(3)
        assert store.fence_token == 3
        store.close()
        reopened = CheckpointStore(tmp_path)
        assert reopened.fence_token == 3
        assert reopened.recovered.fence_token == 3
        reopened.close()

    def test_fence_tokens_are_monotonic(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            store.write_fence(2)
            with pytest.raises(ValueError):
                store.write_fence(2)
            with pytest.raises(ValueError):
                store.write_fence(1)
            store.write_fence(5)
            assert store.fence_token == 5

    def test_fence_is_durable_under_lazy_fsync_policies(self, tmp_path):
        store = CheckpointStore(tmp_path, fsync="never")
        fsyncs = store.metrics.counter("durable/fsyncs")
        store.write_fence(1)
        # write_fence forces the sync whatever the policy: a promotion
        # is not real until its token is on the platter.
        assert store.metrics.counter("durable/fsyncs") > fsyncs
        store.close()

    def test_fence_survives_compaction(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("r", {"program": SORTING})
        store.write_fence(4)
        store.mark_done("r")
        store.compact()
        store.close()
        reopened = CheckpointStore(tmp_path)
        assert reopened.fence_token == 4
        reopened.close()

    def test_malformed_fence_record_counts_as_unknown(self, tmp_path):
        from repro.durable.wal import frame

        store = CheckpointStore(tmp_path)
        store.close()
        segment = RecoveryManager(tmp_path).segments()[-1]
        with open(segment, "ab") as handle:
            handle.write(frame(b'{"kind":"fence","rid":"shard","data":{}}'))
        reopened = CheckpointStore(tmp_path)
        assert reopened.fence_token == 0
        assert reopened.recovered.unknown_records == 1
        reopened.close()


class TestGroupCommit:
    """``group_commit()``: an ``"always"`` store writes each record at
    once but fsyncs and ships it at the next ``commit()``."""

    @staticmethod
    def _shipping(store):
        shipped = []
        store.on_append = lambda index, payload: shipped.append(payload)
        return shipped

    def test_one_fsync_covers_every_record_since_the_last_commit(self, tmp_path):
        with CheckpointStore(tmp_path) as store:
            shipped = self._shipping(store)
            store.group_commit()
            fsyncs = store.metrics.counter("durable/fsyncs")
            store.journal_request("a", {"program": SORTING})
            store.journal_request("b", {"program": SORTING})
            store.mark_done("a")
            assert store.metrics.counter("durable/fsyncs") == fsyncs
            assert shipped == []
            store.commit()
            assert store.metrics.counter("durable/fsyncs") == fsyncs + 1
            assert [b'"rid":"a"' in p for p in shipped] == [True, False, True]
            store.commit()  # nothing new: no fsync
            assert store.metrics.counter("durable/fsyncs") == fsyncs + 1

    def test_uncommitted_records_are_written_at_once(self, tmp_path):
        # Flushed to the OS: a reader (or the successor of a killed
        # process) sees them before any commit.
        store = CheckpointStore(tmp_path)
        store.group_commit()
        store.journal_request("a", {"program": SORTING})
        assert set(RecoveryManager(str(tmp_path)).recover().pending) == {"a"}
        store.close()

    def test_sync_fence_compact_and_close_commit_first(self, tmp_path):
        store = CheckpointStore(tmp_path)
        shipped = self._shipping(store)
        store.group_commit()
        store.journal_request("a", {"program": SORTING})
        store.sync()
        assert len(shipped) == 1
        store.write_fence(2)
        assert len(shipped) == 2
        store.journal_request("b", {"program": SORTING})
        store.compact()
        assert len(shipped) == 3
        store.mark_done("b")
        store.close()
        assert len(shipped) == 4
        reopened = CheckpointStore(tmp_path)
        assert set(reopened.pending()) == {"a"}
        assert reopened.fence_token == 2
        reopened.close()

    def test_lazy_policies_ignore_it(self, tmp_path):
        with CheckpointStore(tmp_path, fsync="never") as store:
            shipped = self._shipping(store)
            store.group_commit()
            store.journal_request("a", {"program": SORTING})
            assert len(shipped) == 1
