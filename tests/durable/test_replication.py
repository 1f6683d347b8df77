"""Replication primitives: manifests, fence files, and the ReplicaWal.

The serving-layer integration (live shipping, standby promotion,
anti-entropy over the pipe protocol) lives in
``tests/serve/test_replication.py``; this file proves the durable
mechanism underneath it in-process — manifest pinning, verified segment
installs, divergence classification, fence monotonicity, and the
lock handoff a promotion performs (replica log → exclusive store).
"""

from __future__ import annotations

import os
import zlib

import pytest

from repro.durable import (
    CheckpointStore,
    RecoveryManager,
    ReplicaWal,
    build_manifest,
    fence_path,
    read_fence_token,
    read_segment,
    write_fence_token,
)
from repro.durable.wal import frame, scan_segment
from repro.errors import StoreLocked, WalCorruptionError


def _segment_bytes(root, index):
    with open(os.path.join(root, f"wal-{index:08d}.log"), "rb") as handle:
        return handle.read()


class TestManifest:
    def test_manifest_catalogues_every_segment(self, tmp_path):
        store = CheckpointStore(tmp_path, segment_bytes=128)
        for i in range(8):
            store.journal_request(str(i), {"pad": "x" * 48})
        store.close()
        manifest = build_manifest(str(tmp_path))
        segments = RecoveryManager(str(tmp_path)).segments()
        assert len(manifest) == len(segments) > 1
        for entry in manifest:
            data = _segment_bytes(str(tmp_path), entry["index"])
            assert entry["length"] == len(data)
            assert entry["crc"] == zlib.crc32(data)

    def test_read_segment_returns_the_pinned_prefix_after_growth(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("a", {})
        manifest = build_manifest(str(tmp_path))
        (entry,) = manifest
        store.journal_request("b", {})  # the live segment grows past the pin
        data = read_segment(str(tmp_path), entry["index"], entry["length"])
        assert len(data) == entry["length"]
        assert zlib.crc32(data) == entry["crc"]
        store.close()

    def test_read_segment_refuses_a_shrunken_log(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.journal_request("a", {})
        (entry,) = build_manifest(str(tmp_path))
        store.close()
        with pytest.raises(WalCorruptionError):
            read_segment(str(tmp_path), entry["index"], entry["length"] + 1)


class TestFenceFile:
    def test_round_trip_and_overwrite(self, tmp_path):
        path = fence_path(str(tmp_path), 3)
        assert path.endswith("shard-3.fence")
        assert read_fence_token(path) == 0  # absent fails open
        write_fence_token(path, 1)
        assert read_fence_token(path) == 1
        write_fence_token(path, 2)
        assert read_fence_token(path) == 2

    def test_garbage_fence_file_fails_open(self, tmp_path):
        path = fence_path(str(tmp_path), 0)
        with open(path, "w") as handle:
            handle.write("not json at all")
        assert read_fence_token(path) == 0
        with open(path, "w") as handle:
            handle.write('{"token": "seven"}')
        assert read_fence_token(path) == 0


class TestPlanSync:
    def test_lagging_replica_fetches_without_divergence(self, tmp_path):
        primary = tmp_path / "p"
        store = CheckpointStore(primary, segment_bytes=128)
        for i in range(8):
            store.journal_request(str(i), {"pad": "x" * 48})
        manifest = build_manifest(str(primary))
        store.close()
        replica = ReplicaWal(str(tmp_path / "r"))
        plan = replica.plan_sync(manifest)
        assert [e["index"] for e in plan.fetch] == [e["index"] for e in manifest]
        assert plan.matched == [] and plan.delete == []
        assert not plan.diverged  # missing everything is lag, not divergence
        replica.close()

    def test_matched_segments_are_not_refetched(self, tmp_path):
        primary = tmp_path / "p"
        store = CheckpointStore(primary)
        store.journal_request("a", {})
        manifest = build_manifest(str(primary))
        store.close()
        replica = ReplicaWal(str(tmp_path / "r"))
        for entry in manifest:
            replica.write_segment(
                entry, read_segment(str(primary), entry["index"], entry["length"])
            )
        plan = replica.plan_sync(manifest)
        assert plan.fetch == [] and plan.delete == []
        assert [e["index"] for e in plan.matched] == [e["index"] for e in manifest]
        assert not plan.diverged
        replica.close()

    def test_mismatched_and_extra_segments_are_divergence(self, tmp_path):
        primary = tmp_path / "p"
        store = CheckpointStore(primary)
        store.journal_request("a", {})
        manifest = build_manifest(str(primary))
        store.close()
        root = str(tmp_path / "r")
        os.makedirs(root)
        # Same index, different bytes: provably not the primary's prefix.
        live = manifest[0]["index"]
        with open(os.path.join(root, f"wal-{live:08d}.log"), "wb") as handle:
            handle.write(frame(b'{"kind":"done","rid":"ghost"}'))
        # An index the manifest does not know at all.
        with open(os.path.join(root, "wal-00000005.log"), "wb") as handle:
            handle.write(frame(b'{"kind":"done","rid":"stale"}'))
        replica = ReplicaWal(root)
        plan = replica.plan_sync(manifest)
        assert [e["index"] for e in plan.fetch] == [manifest[0]["index"]]
        assert plan.delete == [5]
        assert plan.diverged
        replica.close()

    def test_empty_stale_segments_do_not_count_as_divergence(self, tmp_path):
        primary = tmp_path / "p"
        CheckpointStore(primary).close()
        manifest = build_manifest(str(primary))
        root = str(tmp_path / "r")
        os.makedirs(root)
        open(os.path.join(root, "wal-00000009.log"), "wb").close()
        replica = ReplicaWal(root)
        plan = replica.plan_sync(manifest)
        assert plan.delete == [9]
        assert not plan.diverged  # zero bytes carry no wrong history
        replica.close()


class TestReplicaWal:
    def test_write_segment_rejects_unverified_bytes(self, tmp_path):
        replica = ReplicaWal(str(tmp_path / "r"))
        entry = {"index": 0, "length": 4, "crc": zlib.crc32(b"good")}
        with pytest.raises(WalCorruptionError):
            replica.write_segment(entry, b"evil")
        assert replica.segments_fetched == 0
        replica.close()

    def test_write_segment_rejects_checksummed_garbage(self, tmp_path):
        # Matches length and CRC but does not frame as WAL records.
        replica = ReplicaWal(str(tmp_path / "r"))
        blob = b"\xff" * 32
        entry = {"index": 0, "length": len(blob), "crc": zlib.crc32(blob)}
        with pytest.raises(WalCorruptionError):
            replica.write_segment(entry, blob)
        replica.close()

    def test_two_replicas_cannot_own_one_directory(self, tmp_path):
        replica = ReplicaWal(str(tmp_path))
        with pytest.raises(StoreLocked):
            ReplicaWal(str(tmp_path))
        replica.close()

    def test_appended_stream_reopens_as_a_real_store(self, tmp_path):
        """The promotion handoff: a replica built purely from shipped
        records closes, and the same directory opens as an exclusive
        CheckpointStore that recovered the shipped state."""
        primary = tmp_path / "p"
        store = CheckpointStore(primary)
        shipped = []
        store.on_append = lambda index, payload: shipped.append((index, payload))
        store.journal_request("r1", {"program": "x"})
        store.journal_request("r2", {})
        store.mark_done("r2")
        store.close()
        replica = ReplicaWal(str(tmp_path / "r"))
        for index, payload in shipped:
            replica.append(index, payload)
        assert replica.records_applied == len(shipped) == 3
        replica.close()
        promoted = CheckpointStore(str(tmp_path / "r"), exclusive=True)
        assert sorted(promoted.pending()) == ["r1"]
        promoted.close()

    def test_deferred_appends_share_one_fsync(self, tmp_path, monkeypatch):
        import repro.durable.replication as replication

        store = CheckpointStore(tmp_path / "p")
        shipped = []
        store.on_append = lambda index, payload: shipped.append((index, payload))
        for rid in ("r1", "r2", "r3"):
            store.journal_request(rid, {})
        store.close()
        fsyncs = []
        real = replication.fsync_handle
        monkeypatch.setattr(
            replication, "fsync_handle", lambda h: (fsyncs.append(1), real(h))
        )
        replica = ReplicaWal(str(tmp_path / "r"))
        for index, payload in shipped:
            replica.append(index, payload, sync=False)
        assert fsyncs == []
        # Written through to the file at once, only the fsync waits.
        index = shipped[0][0]
        assert _segment_bytes(str(tmp_path / "r"), index) == _segment_bytes(
            str(tmp_path / "p"), index
        )
        replica.sync()
        assert len(fsyncs) == 1
        replica.close()

    def test_append_rotates_when_the_primary_does(self, tmp_path):
        primary = tmp_path / "p"
        store = CheckpointStore(primary, segment_bytes=128)
        shipped = []
        store.on_append = lambda index, payload: shipped.append((index, payload))
        for i in range(8):
            store.journal_request(str(i), {"pad": "x" * 48})
        store.close()
        assert len({index for index, _ in shipped}) > 1
        replica = ReplicaWal(str(tmp_path / "r"))
        for index, payload in shipped:
            replica.append(index, payload)
        replica.close()
        for index in {index for index, _ in shipped}:
            local = _segment_bytes(str(tmp_path / "r"), index)
            remote = _segment_bytes(str(primary), index)
            assert local == remote
        # Every local segment frames cleanly.
        for path in RecoveryManager(str(tmp_path / "r")).segments():
            assert not scan_segment(path).torn

    def test_apply_compact_replaces_the_whole_log(self, tmp_path):
        primary = tmp_path / "p"
        store = CheckpointStore(primary, segment_bytes=128)
        shipped = []
        compacted = []
        store.on_append = lambda index, payload: shipped.append((index, payload))
        store.on_compact = lambda index, data: compacted.append((index, data))
        for i in range(8):
            store.journal_request(str(i), {"pad": "x" * 48})
            if i % 2 == 0:
                store.mark_done(str(i))
        replica = ReplicaWal(str(tmp_path / "r"))
        for index, payload in shipped:
            replica.append(index, payload)
        store.compact()
        assert len(compacted) == 1
        replica.apply_compact(*compacted[0])
        store.close()
        replica.close()
        local = RecoveryManager(str(tmp_path / "r")).segments()
        assert len(local) == 1
        promoted = CheckpointStore(str(tmp_path / "r"), exclusive=True)
        assert sorted(promoted.pending()) == [str(i) for i in range(8) if i % 2]
        promoted.close()

    def test_close_is_idempotent_and_releases_the_lock(self, tmp_path):
        replica = ReplicaWal(str(tmp_path))
        replica.close()
        replica.close()
        with pytest.raises(ValueError):
            replica.append(0, b"{}")
        # The lock is free for the next owner, in this same process.
        second = ReplicaWal(str(tmp_path))
        second.close()
