"""Event-driven delivery across the process boundary.

The supervisor blocks on every shard pipe and worker sentinel, and the
worker blocks on its pipe and a wake pipe, so nothing here waits for a
heartbeat: crashes are seen at once, the front door's own latency
matches a client's stopwatch, and closing a handle never tears a write
that its sender thread has in flight.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import struct
import sys
import threading
import time
from multiprocessing.reduction import ForkingPickler
from statistics import median

from repro.serve import (
    OK,
    QueryRequest,
    QueryResponse,
    ShardConfig,
    ShardedQueryService,
    Ticket,
)
from repro.serve.shard import ShardHandle

SORTING = """
sp(nil, nil, 0).
sp(X, C, I) <- next(I), p(X, C), least(C, I).
"""

SORT_FACTS = {"p": [(f"x{i}", i % 5) for i in range(12)]}

#: Crash detection must not wait for the heartbeat: with pings a second
#: apart, a dead worker is still noticed within this bound.
DETECTION_BOUND_S = 0.3


def _wait_for(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"{message} not within {timeout}s")


class TestDoneCallback:
    def test_fires_once_whether_registered_before_or_after_completion(self):
        request = QueryRequest(SORTING, SORT_FACTS)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rid in range(300):
                ticket = Ticket(rid, request, 0.0)
                calls = []
                completer = threading.Thread(
                    target=ticket._complete,
                    args=(QueryResponse(request_id=rid, status=OK),),
                )
                completer.start()
                ticket.add_done_callback(calls.append)
                completer.join(5)
                assert not completer.is_alive()
                assert calls == [ticket]
                assert ticket.done
        finally:
            sys.setswitchinterval(previous)


class TestCrashDetection:
    def test_sigkilled_idle_shard_is_seen_before_the_next_heartbeat(self):
        service = ShardedQueryService(
            shards=1, heartbeat_interval=1.0, restart_backoff=5.0
        )
        try:
            state = service._shards[0]
            assert state.state == "up"
            os.kill(state.pid, signal.SIGKILL)
            _wait_for(
                lambda: service.stats()["counters"].get("crashes", 0) == 1,
                DETECTION_BOUND_S,
                "crash detected",
            )
        finally:
            service.close()

    def test_sigkilled_standby_is_down_before_the_next_heartbeat(self, tmp_path):
        service = ShardedQueryService(
            shards=1,
            replicas=1,
            durable_dir=str(tmp_path),
            heartbeat_interval=1.0,
            restart_backoff=5.0,
        )
        try:
            shard = service._shards[0]
            _wait_for(
                lambda: shard.standby_state == "warm", 30.0, "standby warm"
            )
            os.kill(shard.standby_pid, signal.SIGKILL)
            _wait_for(
                lambda: service.stats()["shards"][0]["standby_state"] == "down",
                DETECTION_BOUND_S,
                "standby down",
            )
            assert service.stats()["counters"].get("crashes", 0) == 0
        finally:
            service.close()


class TestHonestLatency:
    def test_front_door_p50_matches_a_client_stopwatch(self):
        with ShardedQueryService(shards=1) as service:
            client_ms = []
            for seed in range(100):
                start = time.perf_counter()
                response = service.submit(
                    QueryRequest(SORTING, SORT_FACTS, seed=seed)
                ).response(timeout=60)
                client_ms.append((time.perf_counter() - start) * 1000.0)
                assert response.status == OK
            stats = service.stats()
        client_p50 = median(client_ms)
        front_door_p50 = stats["latency_ms_p50"]
        assert abs(front_door_p50 - client_p50) <= max(0.2 * client_p50, 1.0), (
            front_door_p50,
            client_p50,
        )
        # The worker's own figure is a separate series and leaves out
        # the pipes, so it can only be lower.
        assert stats["worker_latency_ms_p50"] <= front_door_p50


class _PausingConn:
    """The parent's pipe end, able to hold one send between its length
    header and its body — the two writes a large ``Connection.send``
    makes — until :attr:`release` is set."""

    def __init__(self, conn):
        self._conn = conn
        self.armed = threading.Event()
        self.paused = threading.Event()
        self.release = threading.Event()

    def send(self, obj):
        if not self.armed.is_set():
            self._conn.send(obj)
            return
        self.armed.clear()
        body = bytes(ForkingPickler.dumps(obj))
        self._conn._send(struct.pack("!i", len(body)))
        self.paused.set()
        self.release.wait(30)
        self._conn._send(body)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class _PausingContext:
    """A spawn context whose pipes hand the parent a :class:`_PausingConn`."""

    def __init__(self):
        self._ctx = multiprocessing.get_context("spawn")
        self.conn = None

    def Pipe(self, duplex=True):
        parent, child = self._ctx.Pipe(duplex=duplex)
        self.conn = _PausingConn(parent)
        return self.conn, child

    def Process(self, *args, **kwargs):
        return self._ctx.Process(*args, **kwargs)


class TestSenderOwnsThePipe:
    def test_killing_a_handle_mid_bulk_send_tears_no_write(self, monkeypatch):
        thread_errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: thread_errors.append(args)
        )
        ctx = _PausingContext()
        handle = ShardHandle(shard_id=0, config=ShardConfig(), ctx=ctx)
        handle.spawn()
        conn = ctx.conn
        try:
            _wait_for(
                lambda: handle.poll() and handle.recv()[0] == "ready",
                60.0,
                "worker ready",
            )
            payload = QueryRequest(SORTING, SORT_FACTS).to_payload()
            conn.armed.set()
            for rid in range(200):
                handle.send(("submit", rid, payload))
            assert conn.paused.wait(30), "the bulk send never started"
            sender = handle._sender
            # The crash path, while the sender is between header and body.
            handle.kill()
            assert not conn.closed
            conn.release.set()
            sender.join(30)
            assert not sender.is_alive()
            assert thread_errors == []
            assert conn.closed
        finally:
            conn.release.set()
            handle.kill()
