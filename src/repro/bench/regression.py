"""Perf-regression harness for the plan-cache layer.

Runs the seminaive E7 transitive-closure sweep twice — with cached plans
(compile once per ``(rule, delta occurrence)``) and with per-call
planning (the pre-cache behaviour, ``cache_plans=False``) — plus a
greedy-engine sweep on the sorting program, and records the timings to
``BENCH_plans.json`` at the repository root.  The checked-in file is the
before/after evidence for the plan-cache optimisation; re-run after
touching the planner or the executor and compare::

    PYTHONPATH=src python -m repro.bench.regression

``--check`` turns the harness into a CI gate: instead of writing a new
baseline it re-measures and compares the plan-cache sweep's *speedup
ratios* (machine-independent, unlike raw seconds) against the committed
baseline, failing when the mean speedup has regressed by more than
``--tolerance`` (default 25%)::

    PYTHONPATH=src python -m repro.bench.regression --check --tolerance 0.25

The JSON shape is stable: ``sweeps`` maps a sweep name to per-size rows
(``size``, ``before_s``, ``after_s``, ``speedup``) plus counter
snapshots; each sweep also records a ``metrics`` block — the
:mod:`repro.obs` registry snapshot (per-phase wall time and engine/
storage counters) of one traced run at the largest size — and ``meta``
records the interpreter so numbers from different machines are not
compared blindly.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence

from repro.bench.runner import EmptySweepError, sweep
from repro.core.compiler import compile_program, solve_program
from repro.datalog.parser import parse_program
from repro.datalog.seminaive import SeminaiveEngine
from repro.obs.export import metrics_snapshot
from repro.obs.tracer import Tracer
from repro.programs import texts
from repro.storage.database import Database
from repro.workloads import random_costed_relation

__all__ = ["run_regression", "check_against_baseline", "main"]

TC = parse_program(
    """
    path(X, Y) <- edge(X, Y).
    path(X, Y) <- path(X, Z), edge(Z, Y).
    """
)

TC_SIZES = [20, 40, 80, 160]
SORT_SIZES = [8, 16, 32]
GOVERNOR_SIZES = [32, 64, 128, 256]
SERVICE_SIZES = [32, 64, 128, 256]
#: CI gate: mean governed/ungoverned wall-time ratio must stay below this.
GOVERNOR_OVERHEAD_CEILING = 1.05
#: CI gate: serving a request in-process (admission queue + worker thread
#: + per-request governor/metrics) must cost < 10% over the direct call.
SERVICE_OVERHEAD_CEILING = 1.10
DURABLE_SIZES = [32, 64, 128, 256]
#: CI gate: a governed run with a DurableWriter attached at the default
#: (time-based) cadence must cost < 5% over the same governed run bare.
DURABLE_OVERHEAD_CEILING = 1.05
JOIN_SIZES = [64, 128, 256]
#: CI gate: the greedy join order must never lose to the written order on
#: the multi-join sweep (mean written_s / greedy_s across sizes ≥ 1.0).
JOIN_ORDER_SPEEDUP_FLOOR = 1.0
EXTREMA_SIZES = [24, 48, 96]
#: CI gate: extrema pushdown must never lose to saturate-then-filter on
#: the shortest-path sweep (mean post_s / pushdown_s across sizes ≥ 1.0);
#: in practice the gap is an order of magnitude at the largest size.
EXTREMA_SPEEDUP_FLOOR = 1.0
INCREMENTAL_SIZES = [40, 80, 160]
#: CI gate: maintaining the view through an update stream must never
#: lose to re-running ``solve_program`` after every batch (mean
#: recompute_s / incremental_s across sizes ≥ 1.0); the gap widens with
#: the model size since a localized delta costs O(affected), not O(model).
INCREMENTAL_SPEEDUP_FLOOR = 1.0
#: Batch size and shard count for the cross-process scaling sweep.
SHARDED_SCALING_REQUESTS = 64
SHARDED_SCALING_SHARDS = 4
#: CI gate: serving the batch through SHARDED_SCALING_SHARDS worker
#: processes must beat one worker process by at least this factor.  Only
#: measured (and only gated) on machines with enough cores to express
#: the parallelism — a 1-core container records the sweep as skipped.
SHARDED_SCALING_FLOOR = 1.5
#: Batch size and shard count for the replication-overhead sweep.
REPLICATION_REQUESTS = 32
REPLICATION_SHARDS = 2
#: CI gate: running every shard as a primary + warm hot standby (WAL
#: shipping over the pipe, replay in the standby process) must cost
#: < 10% over the same durable sharded service with ``replicas=0``.
#: Shipping happens post-fsync off the response path, so the tax is the
#: pipe relay plus the standby processes competing for cores — hence the
#: sweep needs enough cores to park the standbys on (skipped otherwise).
REPLICATION_OVERHEAD_CEILING = 1.10
#: Sequential requests per setting in the front-door round-trip sweep,
#: and the tie-heavy string-keyed sort each one runs.
SHARD_ROUNDTRIP_REQUESTS = 200
SHARD_ROUNDTRIP_KEYS = 24
SHARD_ROUNDTRIP_COST_CLASSES = 5
#: CI gate: one request through a one-shard front door (replicas 0, no
#: durable directory) may cost at most this many times the in-process
#: service's p50.  The two pipes and the two process hops are the only
#: extra work, so delivery must not wait on any timer.  Needs two cores
#: at most, so it is measured everywhere.
SHARD_ROUNDTRIP_CEILING = 2.0

#: Wide multi-join rules (4-6 goals per body) over skewed relation sizes.
#: The written body order leads every rule with a big relation and leaves
#: the selective goal (a 3-fact relation, a 2-fact relation, a constant
#: pattern) last, so written-order evaluation enumerates the full chain
#: before filtering; the greedy reorderer starts from the selective goal
#: and walks the joins backward through indexed lookups.
JOIN = parse_program(
    """
    jq1(A, E) <- r1(A, B), r2(B, C), r3(C, D), sel(D, E).
    jq2(A, F) <- r1(A, B), r2(B, C), r3(C, D), r4(D, E), tiny(E, F), F <= A.
    jq3(A, C) <- r2(B, C), r1(A, B), r3(C, 7).
    """
)


def _chain(n: int) -> List[tuple]:
    return [(i, i + 1) for i in range(n)]


def _tc_op(cache_plans: bool) -> Callable[[Any], Any]:
    def op(edges):
        db = Database()
        db.assert_all("edge", edges)
        engine = SeminaiveEngine(TC, cache_plans=cache_plans)
        engine.run(db)
        return engine.stats.plans_compiled

    return op


def _sorting_op(payload):
    db = solve_program(texts.SORTING, facts={"p": payload}, seed=0)
    return len(db.relation("sp", 3))


def _governed_sorting_op(governed: bool) -> Callable[[Any], Any]:
    """The sorting op with the execution governor enabled (generous
    budget: every cap present but unhittable, so the run pays the full
    per-tick bookkeeping) or the NULL_GOVERNOR fast path."""

    def op(payload):
        governor = None
        if governed:
            from repro.robust import Budget, RunGovernor

            governor = RunGovernor(
                Budget(
                    wall_clock=3600.0,
                    max_gamma_steps=10**9,
                    max_rounds=10**9,
                    max_facts=10**9,
                )
            )
        db = solve_program(
            texts.SORTING, facts={"p": list(payload)}, seed=0, governor=governor
        )
        return len(db.relation("sp", 3))

    return op


def _rows(
    before, after, before_key: str = "before_s", after_key: str = "after_s"
) -> List[Dict[str, Any]]:
    rows = []
    for b, a in zip(before.points, after.points):
        rows.append(
            {
                "size": a.size,
                before_key: round(b.seconds, 6),
                after_key: round(a.seconds, 6),
                "speedup": round(b.seconds / max(a.seconds, 1e-9), 3),
            }
        )
    return rows


def _tc_metrics(size: int) -> Dict[str, Any]:
    """Metrics snapshot of one traced cached-plans TC run at *size*."""
    db = Database()
    db.assert_all("edge", _chain(size))
    tracer = Tracer(enabled=True)
    SeminaiveEngine(TC, tracer=tracer).run(db)
    return metrics_snapshot(tracer.registry)


def _sorting_metrics(size: int) -> Dict[str, Any]:
    """Metrics snapshot of one traced greedy sorting run at *size*."""
    tracer = Tracer(enabled=True)
    compiled = compile_program(texts.SORTING)
    compiled.run(
        facts={"p": random_costed_relation(size, seed=0)}, seed=0, tracer=tracer
    )
    return metrics_snapshot(tracer.registry)


def _governor_overhead_rows(
    sizes: Sequence[int], repeats: int = 9
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* governed vs ungoverned timings, **interleaved**
    (off, on, off, on, ...) so slow clock drift and allocator state hit
    both variants equally — single-digit-millisecond runs are otherwise
    too noisy to gate a few-percent overhead on."""
    import time

    off_op = _governed_sorting_op(False)
    on_op = _governed_sorting_op(True)
    rows: List[Dict[str, Any]] = []
    for size in sizes:
        payload = random_costed_relation(size, seed=0)
        off_op(payload)  # warm both paths before timing
        on_op(payload)
        best_off = best_on = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            off_op(payload)
            best_off = min(best_off, time.perf_counter() - start)
            start = time.perf_counter()
            on_op(payload)
            best_on = min(best_on, time.perf_counter() - start)
        rows.append(
            {
                "size": size,
                "off_s": round(best_off, 6),
                "on_s": round(best_on, 6),
                "overhead": round(best_on / max(best_off, 1e-9), 3),
            }
        )
    return rows


def _service_overhead_rows(
    sizes: Sequence[int], repeats: int = 9
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* direct vs in-process-service timings for the
    sorting run, **interleaved** like the governor sweep.  The service
    path pays admission, the cross-thread handoff, a per-request governor
    and the metrics merge — the gate pins that tax below 10%."""
    import time

    from repro.serve import QueryRequest, QueryService

    rows: List[Dict[str, Any]] = []
    service = QueryService(workers=1)
    try:
        for size in sizes:
            payload = random_costed_relation(size, seed=0)

            def direct_op():
                return solve_program(texts.SORTING, facts={"p": list(payload)}, seed=0)

            def service_op():
                return service.evaluate(
                    QueryRequest(
                        program=texts.SORTING, facts={"p": payload}, seed=0
                    ),
                    timeout=60,
                )

            direct_op()  # warm both paths before timing
            service_op()
            best_direct = best_service = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                direct_op()
                best_direct = min(best_direct, time.perf_counter() - start)
                start = time.perf_counter()
                service_op()
                best_service = min(best_service, time.perf_counter() - start)
            rows.append(
                {
                    "size": size,
                    "direct_s": round(best_direct, 6),
                    "service_s": round(best_service, 6),
                    "overhead": round(best_service / max(best_direct, 1e-9), 3),
                }
            )
    finally:
        service.close()
    return rows


def _durable_overhead_rows(
    sizes: Sequence[int], repeats: int = 9
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* governed-bare vs governed-durable timings,
    **interleaved** like the governor sweep.  The durable run pays the
    per-tick cadence bookkeeping of a :class:`DurableWriter` at the
    default (time-based) policy; checkpoint serialization itself is
    self-limited by that policy to at most one write per interval, so
    what this sweep pins is the steady-state tick tax every governed
    step pays once durability is attached."""
    import tempfile
    import time

    from repro.durable import CheckpointStore, DurableWriter
    from repro.robust import Budget, RunGovernor

    budget = Budget(
        wall_clock=3600.0,
        max_gamma_steps=10**9,
        max_rounds=10**9,
        max_facts=10**9,
    )

    rows: List[Dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="bench-durable-") as root:
        store = CheckpointStore(root)
        try:
            rid = 0
            for size in sizes:
                payload = random_costed_relation(size, seed=0)

                def bare_op():
                    governor = RunGovernor(budget)
                    return solve_program(
                        texts.SORTING,
                        facts={"p": list(payload)},
                        seed=0,
                        governor=governor,
                    )

                def durable_op():
                    nonlocal rid
                    rid += 1
                    writer = DurableWriter(store, str(rid))
                    governor = RunGovernor(budget, durability=writer)
                    return solve_program(
                        texts.SORTING,
                        facts={"p": list(payload)},
                        seed=0,
                        governor=governor,
                    )

                bare_op()  # warm both paths before timing
                durable_op()
                best_bare = best_durable = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    bare_op()
                    best_bare = min(best_bare, time.perf_counter() - start)
                    start = time.perf_counter()
                    durable_op()
                    best_durable = min(best_durable, time.perf_counter() - start)
                rows.append(
                    {
                        "size": size,
                        "bare_s": round(best_bare, 6),
                        "durable_s": round(best_durable, 6),
                        "overhead": round(
                            best_durable / max(best_bare, 1e-9), 3
                        ),
                    }
                )
        finally:
            store.close()
    return rows


def _join_db(n: int) -> Database:
    """Skewed-size EDB for the multi-join sweep: three permutation-like
    chains of *n* facts, one fan-out-4 relation of ``4n`` facts, and two
    tiny selective relations."""
    db = Database()
    db.assert_all("r1", [(i, (i * 7) % n) for i in range(n)])
    db.assert_all("r2", [(i, (i * 11 + j) % n) for i in range(n) for j in range(4)])
    db.assert_all("r3", [(i, (i * 13) % n) for i in range(n)])
    db.assert_all("r4", [(i, (i * 17) % n) for i in range(n)])
    db.assert_all("sel", [(i, i) for i in range(3)])
    db.assert_all("tiny", [(0, 0), (1, 1)])
    return db


def _join_order_rows(
    sizes: Sequence[int], repeats: int = 9
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* written vs greedy timings for the multi-join
    rules, **interleaved** like the governor sweep.  Each op builds the
    database and evaluates the whole program, so the ratio understates
    the pure join-work gap (EDB loading is identical on both sides) —
    which makes the gate conservative.  Models are checked identical per
    size before anything is timed."""
    import time

    def written_op(n):
        return SeminaiveEngine(JOIN, order="written").run(_join_db(n))

    def greedy_op(n):
        return SeminaiveEngine(JOIN, order="greedy").run(_join_db(n))

    rows: List[Dict[str, Any]] = []
    for size in sizes:
        # Warm both paths and pin order-invariance of the result.
        if written_op(size).as_dict() != greedy_op(size).as_dict():
            raise AssertionError(
                f"join-order sweep: models diverged at size {size}"
            )
        best_written = best_greedy = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            written_op(size)
            best_written = min(best_written, time.perf_counter() - start)
            start = time.perf_counter()
            greedy_op(size)
            best_greedy = min(best_greedy, time.perf_counter() - start)
        rows.append(
            {
                "size": size,
                "written_s": round(best_written, 6),
                "greedy_s": round(best_greedy, 6),
                "speedup": round(best_written / max(best_greedy, 1e-9), 3),
            }
        )
    return rows


def _extrema_graph(n: int, width: int = 4) -> List[tuple]:
    """A layered DAG of *n* nodes (edges only point forward, so the
    "post" policy's un-pruned fixpoint stays finite): ``width`` nodes per
    layer, every consecutive pair of layers fully connected with
    deterministic costs in 1..9, plus one layer-skipping arc per layer.
    Path multiplicity grows with depth, so post-policy saturation derives
    many dominated distances per node where pushdown keeps one."""
    layers = max(n // width, 2)
    g: List[tuple] = []
    for li in range(layers - 1):
        for i in range(width):
            u = li * width + i
            for j in range(width):
                g.append((u, (li + 1) * width + j, (li * 7 + i * 3 + j * 5) % 9 + 1))
        if li + 2 < layers:
            g.append((li * width, (li + 2) * width + 1, li % 9 + 1))
    return g


def _extrema_rows(
    sizes: Sequence[int], repeats: int = 3
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* post vs pushdown timings for the premappable
    shortest-path program on layered DAGs, **interleaved** like the
    governor sweep.  Models are checked identical per size before
    anything is timed — the policy equivalence this repository proves in
    the cross-engine battery, re-pinned here at bench scale."""
    import time

    program = parse_program(texts.SHORTEST_PATH)

    def run(extrema: str, edges) -> Database:
        db = Database()
        db.assert_all("g", edges)
        db.assert_all("source", [(0,)])
        SeminaiveEngine(program, extrema=extrema).run(db)
        return db

    rows: List[Dict[str, Any]] = []
    for size in sizes:
        edges = _extrema_graph(size)
        # Warm both paths and pin policy-invariance of the result.
        if run("post", edges).as_dict() != run("pushdown", edges).as_dict():
            raise AssertionError(f"extrema sweep: models diverged at size {size}")
        best_post = best_push = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            run("post", edges)
            best_post = min(best_post, time.perf_counter() - start)
            start = time.perf_counter()
            run("pushdown", edges)
            best_push = min(best_push, time.perf_counter() - start)
        rows.append(
            {
                "size": size,
                "post_s": round(best_post, 6),
                "pushdown_s": round(best_push, 6),
                "speedup": round(best_post / max(best_push, 1e-9), 3),
            }
        )
    return rows


def _incremental_rows(
    sizes: Sequence[int], repeats: int = 3, updates: int = 10
) -> List[Dict[str, Any]]:
    """Best-of-*repeats* timings for an update stream applied through a
    :class:`~repro.incremental.MaterializedView` (counting + DRed
    maintenance) vs re-running ``solve_program`` from scratch after every
    batch.  The stream churns the tail of a transitive-closure chain —
    extend, retract, re-extend — so each delta is localized while the
    model stays O(n²).  The final models are checked identical before the
    row is recorded."""
    import time

    from repro.incremental import MaterializedView, UpdateBatch, UpdateOp

    tc_text = """
    path(X, Y) <- edge(X, Y).
    path(X, Y) <- path(X, Z), edge(Z, Y).
    """

    rows: List[Dict[str, Any]] = []
    for size in sizes:
        base = _chain(size)
        stream = []
        for i in range(updates):
            tail = (size + i // 2, size + i // 2 + 1)
            stream.append(("+" if i % 2 == 0 else "-", tail))

        def incremental_once():
            view = MaterializedView(tc_text, engine="seminaive", seed=0)
            view.apply(
                UpdateBatch.of(
                    [UpdateOp("+", "edge", e) for e in base], batch_id="init"
                )
            )
            start = time.perf_counter()
            for j, (op, edge) in enumerate(stream):
                view.apply(
                    UpdateBatch.of([UpdateOp(op, "edge", edge)], batch_id=f"u{j}")
                )
            return time.perf_counter() - start, view

        def scratch_once():
            edges = list(base)
            db = None
            start = time.perf_counter()
            for op, edge in stream:
                if op == "+":
                    edges.append(edge)
                else:
                    edges.remove(edge)
                db = solve_program(
                    tc_text, facts={"edge": list(edges)}, seed=0, engine="seminaive"
                )
            return time.perf_counter() - start, db

        # Pin correctness once per size before anything is gated on speed.
        _, view = incremental_once()
        _, oracle = scratch_once()
        if view.db.as_dict() != oracle.as_dict():
            raise AssertionError(
                f"incremental sweep: maintained view diverged at size {size}"
            )
        best_inc = best_scratch = float("inf")
        for _ in range(repeats):
            seconds, _ = incremental_once()
            best_inc = min(best_inc, seconds)
            seconds, _ = scratch_once()
            best_scratch = min(best_scratch, seconds)
        rows.append(
            {
                "size": size,
                "updates": updates,
                "recompute_s": round(best_scratch, 6),
                "incremental_s": round(best_inc, 6),
                "speedup": round(best_scratch / max(best_inc, 1e-9), 3),
            }
        )
    return rows


def _sharded_scaling_rows(
    requests: int = SHARDED_SCALING_REQUESTS,
    shards: int = SHARDED_SCALING_SHARDS,
    repeats: int = 3,
) -> Any:
    """Wall time for one *requests*-sized batch through 1 vs *shards*
    worker processes; returns ``None`` on machines without enough cores
    to express the parallelism (the sweep would measure context
    switching, not scaling).

    The batch spreads over ``4 × shards`` distinct program classes so
    fingerprint routing actually fans out — a single-class batch pins to
    one shard by design (ownership keeps its plan cache hot) and is the
    wrong thing to measure here.
    """
    import os as _os
    import time

    if (_os.cpu_count() or 1) < shards:
        return None

    from repro.serve import QueryRequest, ShardedQueryService

    payload = random_costed_relation(24, seed=0)

    def batch_seconds(n_shards: int) -> float:
        service = ShardedQueryService(
            shards=n_shards,
            queue_capacity=requests + 8,
            heartbeat_interval=0.05,
        )
        try:
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                tickets = [
                    service.submit(
                        QueryRequest(
                            texts.SORTING,
                            {"p": payload},
                            seed=i % 8,
                            klass=f"bench-{i % (4 * shards)}",
                        )
                    )
                    for i in range(requests)
                ]
                for ticket in tickets:
                    ticket.response(timeout=300)
                best = min(best, time.perf_counter() - start)
            return best
        finally:
            service.close()

    one_s = batch_seconds(1)
    many_s = batch_seconds(shards)
    return {
        "requests": requests,
        "shards": shards,
        "one_shard_s": round(one_s, 6),
        "sharded_s": round(many_s, 6),
        "speedup": round(one_s / max(many_s, 1e-9), 3),
    }


def _replication_overhead_rows(
    requests: int = REPLICATION_REQUESTS,
    shards: int = REPLICATION_SHARDS,
    repeats: int = 3,
) -> Any:
    """Wall time for one *requests*-sized batch through a durable
    sharded service with ``replicas=0`` vs ``replicas=1``; returns
    ``None`` on machines without a core per worker process (2 primaries
    + 2 standbys), where the sweep would measure scheduling pressure
    rather than the shipping tax.

    The replicated run is timed only after every standby reports warm,
    so the batch pays steady-state shipping — not one-off anti-entropy.
    """
    import os as _os
    import tempfile
    import time

    if (_os.cpu_count() or 1) < 2 * shards:
        return None

    from repro.serve import QueryRequest, ShardedQueryService

    payload = random_costed_relation(24, seed=0)

    def batch_seconds(replicas: int) -> float:
        with tempfile.TemporaryDirectory(prefix="bench-repl-") as root:
            service = ShardedQueryService(
                shards=shards,
                replicas=replicas,
                durable_dir=root,
                queue_capacity=requests + 8,
                heartbeat_interval=0.05,
            )
            try:
                if replicas:
                    deadline = time.monotonic() + 120
                    while time.monotonic() < deadline:
                        if all(
                            s["standby_state"] == "warm"
                            for s in service.stats()["shards"].values()
                        ):
                            break
                        time.sleep(0.02)
                best = float("inf")
                for _ in range(repeats):
                    start = time.perf_counter()
                    tickets = [
                        service.submit(
                            QueryRequest(
                                texts.SORTING,
                                {"p": payload},
                                seed=i % 8,
                                klass=f"bench-{i % (4 * shards)}",
                            )
                        )
                        for i in range(requests)
                    ]
                    for ticket in tickets:
                        ticket.response(timeout=300)
                    best = min(best, time.perf_counter() - start)
                return best
            finally:
                service.close()

    plain_s = batch_seconds(0)
    replicated_s = batch_seconds(1)
    return {
        "requests": requests,
        "shards": shards,
        "plain_s": round(plain_s, 6),
        "replicated_s": round(replicated_s, 6),
        "overhead": round(replicated_s / max(plain_s, 1e-9), 3),
    }


def _shard_roundtrip_rows(requests: int = SHARD_ROUNDTRIP_REQUESTS) -> Dict[str, Any]:
    """Client-observed p50/p99 of *requests* sequential tie-heavy string
    sorts through ``ShardedQueryService(shards=1)``: replicas 0 without
    a durable directory, and replicas 1 (durable, fsync always, warm
    standby).  Each setting is timed request by request alternately
    with an in-process ``QueryService`` of the same durability, so drift
    in the machine's speed hits both sides alike; its ``ratio`` is the
    front-door p50 over the in-process p50."""
    import tempfile
    import time

    from repro.durable import CheckpointStore
    from repro.serve import QueryRequest, QueryService, ShardedQueryService

    facts = {
        "p": [
            (f"x{i}", i % SHARD_ROUNDTRIP_COST_CLASSES)
            for i in range(SHARD_ROUNDTRIP_KEYS)
        ]
    }

    def percentiles(times: List[float]) -> Dict[str, float]:
        times = sorted(times)
        return {
            "p50_ms": round(times[len(times) // 2], 4),
            "p99_ms": round(times[min(len(times) - 1, int(0.99 * len(times)))], 4),
        }

    def alternate(sharded: Any, local: Any) -> Dict[str, Any]:
        times: Dict[Any, List[float]] = {sharded: [], local: []}
        for seed in range(-10, requests):  # ten warm-up rounds
            for service in (sharded, local):
                start = time.perf_counter()
                request = QueryRequest(texts.SORTING, facts, seed=seed % 1000)
                service.submit(request).response(60)
                if seed >= 0:
                    times[service].append((time.perf_counter() - start) * 1000.0)
        row = percentiles(times[sharded])
        reference = percentiles(times[local])
        row["inproc_p50_ms"] = reference["p50_ms"]
        row["inproc_p99_ms"] = reference["p99_ms"]
        row["ratio"] = round(row["p50_ms"] / max(reference["p50_ms"], 1e-9), 3)
        return row

    def setting(root: Any) -> Dict[str, Any]:
        store = CheckpointStore(f"{root}/inproc", fsync="always") if root else None
        local = QueryService(workers=1, store=store)
        sharded = ShardedQueryService(
            shards=1,
            replicas=1 if root else 0,
            durable_dir=f"{root}/sharded" if root else None,
        )
        try:
            deadline = time.monotonic() + 60
            while root and sharded.stats()["shards"][0]["standby_state"] != "warm":
                if time.monotonic() > deadline:
                    raise RuntimeError("standby never became warm")
                time.sleep(0.01)
            return alternate(sharded, local)
        finally:
            sharded.close()
            local.close()
            if store is not None:
                store.close()

    with tempfile.TemporaryDirectory(prefix="bench-roundtrip-") as root:
        return {
            "requests": requests,
            "replicas0": setting(None),
            "replicas1": setting(root),
        }


def run_regression(
    tc_sizes: Sequence[int] = TC_SIZES,
    sort_sizes: Sequence[int] = SORT_SIZES,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure the sweeps and return the report as a plain dict."""
    uncached = sweep("tc/per-call-plans", tc_sizes, _chain, _tc_op(False), repeats=repeats)
    cached = sweep("tc/cached-plans", tc_sizes, _chain, _tc_op(True), repeats=repeats)
    greedy = sweep(
        "sorting/rql",
        sort_sizes,
        lambda n: random_costed_relation(n, seed=0),
        _sorting_op,
        repeats=repeats,
    )
    governor_rows = _governor_overhead_rows(GOVERNOR_SIZES, repeats=max(repeats, 15))
    service_rows = _service_overhead_rows(SERVICE_SIZES, repeats=max(repeats, 15))
    durable_rows = _durable_overhead_rows(DURABLE_SIZES, repeats=max(repeats, 15))
    join_rows = _join_order_rows(JOIN_SIZES, repeats=max(repeats, 9))
    extrema_rows = _extrema_rows(EXTREMA_SIZES, repeats=max(repeats, 5))
    incremental_rows = _incremental_rows(INCREMENTAL_SIZES, repeats=repeats)
    scaling = _sharded_scaling_rows(repeats=repeats)
    replication = _replication_overhead_rows(repeats=repeats)
    roundtrip = _shard_roundtrip_rows()
    return {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "harness": "repro.bench.regression",
        },
        "sweeps": {
            "seminaive_tc": {
                "description": "E7 transitive closure on a path; before = "
                "per-call planning (cache_plans=False), after = plan cache",
                "rows": _rows(uncached, cached),
                "plans_compiled": {
                    "before": [p.payload for p in uncached.points],
                    "after": [p.payload for p in cached.points],
                },
                "exponent_before": round(uncached.exponent(), 3),
                "exponent_after": round(cached.exponent(), 3),
                "metrics": _tc_metrics(max(tc_sizes)),
            },
            "greedy_sorting": {
                "description": "(R, Q, L) engine on the Example 5 sorting "
                "program; rest_plan is compiled once per candidate atom "
                "instead of once per popped candidate",
                "rows": [
                    {"size": p.size, "seconds": round(p.seconds, 6)}
                    for p in greedy.points
                ],
                "exponent": round(greedy.exponent(), 3),
                "metrics": _sorting_metrics(max(sort_sizes)),
            },
            "governor_overhead": {
                "description": "(R, Q, L) sorting run with the execution "
                "governor armed (every cap set but unhittable) vs the "
                "NULL_GOVERNOR no-op path; overhead = on_s / off_s.  The "
                "gate uses min_overhead: scheduler noise only ever slows "
                "a run, so the smallest ratio is the cleanest estimate of "
                "the true per-tick cost, and a real regression lifts "
                "every row at once",
                "rows": governor_rows,
                "mean_overhead": round(
                    sum(row["overhead"] for row in governor_rows)
                    / len(governor_rows),
                    3,
                ),
                "min_overhead": round(
                    min(row["overhead"] for row in governor_rows), 3
                ),
            },
            "service_overhead": {
                "description": "(R, Q, L) sorting run submitted through the "
                "in-process QueryService (admission queue, worker thread, "
                "per-request governor and metrics merge) vs the direct "
                "solve_program call; overhead = service_s / direct_s.  "
                "Gated on min_overhead like the governor sweep: noise only "
                "ever inflates a ratio, so the smallest one is the "
                "cleanest estimate of the true service tax",
                "rows": service_rows,
                "mean_overhead": round(
                    sum(row["overhead"] for row in service_rows)
                    / len(service_rows),
                    3,
                ),
                "min_overhead": round(
                    min(row["overhead"] for row in service_rows), 3
                ),
            },
            "durable_overhead": {
                "description": "(R, Q, L) sorting run under a governor "
                "with a DurableWriter attached at the default time-based "
                "cadence (checkpoint store on disk) vs the same governed "
                "run bare; overhead = durable_s / bare_s.  The time "
                "cadence caps checkpoint serialization at one write per "
                "interval, so the sweep pins the per-tick durability tax. "
                "Gated on min_overhead like the governor sweep",
                "rows": durable_rows,
                "mean_overhead": round(
                    sum(row["overhead"] for row in durable_rows)
                    / len(durable_rows),
                    3,
                ),
                "min_overhead": round(
                    min(row["overhead"] for row in durable_rows), 3
                ),
            },
            "join_order": {
                "description": "wide multi-join rules (4-6 goals per "
                "body) over skewed relation sizes, seminaive with "
                "order='written' (legacy body order, selective goals "
                "last) vs order='greedy' (the reorderer starts from "
                "constants/tiny relations and walks the joins through "
                "indexed lookups); speedup = written_s / greedy_s, "
                "models checked identical before timing",
                "rows": join_rows,
                "mean_speedup": round(
                    sum(row["speedup"] for row in join_rows) / len(join_rows),
                    3,
                ),
                "min_speedup": round(
                    min(row["speedup"] for row in join_rows), 3
                ),
            },
            "extrema_pushdown": {
                "description": "premappable shortest-path program on "
                "layered DAGs, seminaive with extrema='post' (saturate "
                "the full dominated fixpoint, then filter per group) vs "
                "extrema='pushdown' (per-group best table consulted on "
                "insert, dominated facts dropped and displaced ones "
                "retracted from the delta); speedup = post_s / "
                "pushdown_s, models checked identical before timing",
                "rows": extrema_rows,
                "mean_speedup": round(
                    sum(row["speedup"] for row in extrema_rows)
                    / len(extrema_rows),
                    3,
                ),
                "min_speedup": round(
                    min(row["speedup"] for row in extrema_rows), 3
                ),
            },
            "incremental_maintenance": {
                "description": "a tail-churn update stream on the "
                "transitive-closure chain applied through a "
                "MaterializedView (counting for non-recursive strata, "
                "DRed over delta plans for recursive cliques) vs "
                "re-running solve_program from scratch after every "
                "batch; speedup = recompute_s / incremental_s, final "
                "models checked identical before timing",
                "rows": incremental_rows,
                "mean_speedup": round(
                    sum(row["speedup"] for row in incremental_rows)
                    / len(incremental_rows),
                    3,
                ),
                "min_speedup": round(
                    min(row["speedup"] for row in incremental_rows), 3
                ),
            },
            "sharded_scaling": {
                "description": "one batch of sorting requests over "
                f"{4 * SHARDED_SCALING_SHARDS} program classes served "
                "through the sharded front door with 1 vs "
                f"{SHARDED_SCALING_SHARDS} worker processes; speedup = "
                "one_shard_s / sharded_s.  Recorded as skipped (and not "
                "gated) on machines with fewer cores than shards",
                **(
                    scaling
                    if scaling is not None
                    else {"skipped": "not enough cores for the shard count"}
                ),
            },
            "replication_overhead": {
                "description": "the same durable sharded batch with "
                "replicas=0 vs replicas=1 (every shard a primary + warm "
                "hot standby; WAL records shipped post-fsync over the "
                "pipe and replayed by the standby process); overhead = "
                "replicated_s / plain_s.  Recorded as skipped (and not "
                "gated) on machines without a core per worker process",
                **(
                    replication
                    if replication is not None
                    else {"skipped": "not enough cores for primary+standby pairs"}
                ),
            },
            "shard_roundtrip": {
                "description": f"{SHARD_ROUNDTRIP_REQUESTS} sequential "
                f"sorts of {SHARD_ROUNDTRIP_KEYS} string-keyed pairs over "
                f"{SHARD_ROUNDTRIP_COST_CLASSES} cost classes, client "
                "p50/p99 through a one-shard front door: replicas 0 "
                "without a durable "
                "directory, replicas 1 durable with a warm standby, each "
                "timed alternately with an in-process QueryService of the "
                "same durability; ratio = front-door p50 / in-process "
                "p50.  Gated: replicas 0 at most "
                f"{SHARD_ROUNDTRIP_CEILING:.1f}x, replicas 1 against the "
                "committed baseline",
                **roundtrip,
            },
        },
    }


def _mean_speedup(report: Dict[str, Any]) -> float:
    rows = report["sweeps"]["seminaive_tc"]["rows"]
    return sum(row["speedup"] for row in rows) / len(rows)


def check_against_baseline(
    report: Dict[str, Any], baseline: Dict[str, Any], tolerance: float = 0.25
) -> List[str]:
    """Compare the plan-cache sweep against *baseline*; return failures.

    The gate compares the sweep's **mean speedup** (cached vs per-call
    planning), not raw seconds: the ratio cancels the machine's constant
    factor, so a committed baseline from one box is meaningful on
    another.  A regression of more than ``tolerance`` (fractional) in
    the mean speedup fails; an empty return value means the gate passed.
    """
    failures: List[str] = []
    current = _mean_speedup(report)
    expected = _mean_speedup(baseline)
    floor = expected * (1.0 - tolerance)
    if current < floor:
        failures.append(
            "plan-cache sweep regressed: mean speedup "
            f"{current:.3f}x < {floor:.3f}x "
            f"(baseline {expected:.3f}x - {tolerance:.0%} tolerance)"
        )
    # The governor gate is absolute, not baseline-relative: the on/off
    # ratio cancels the machine's constant factor already.  `.get` guards
    # keep baselines from before the governor sweep working.
    overhead_block = report["sweeps"].get("governor_overhead")
    if overhead_block is not None:
        min_overhead = overhead_block.get("min_overhead", 1.0)
        if min_overhead > GOVERNOR_OVERHEAD_CEILING:
            failures.append(
                "governor overhead regressed: governed runs cost at least "
                f"{min_overhead:.3f}x ungoverned on every size "
                f"(ceiling {GOVERNOR_OVERHEAD_CEILING:.2f}x)"
            )
    service_block = report["sweeps"].get("service_overhead")
    if service_block is not None:
        min_overhead = service_block.get("min_overhead", 1.0)
        if min_overhead > SERVICE_OVERHEAD_CEILING:
            failures.append(
                "service overhead regressed: serving a request in-process "
                f"costs at least {min_overhead:.3f}x the direct call on "
                f"every size (ceiling {SERVICE_OVERHEAD_CEILING:.2f}x)"
            )
    durable_block = report["sweeps"].get("durable_overhead")
    if durable_block is not None:
        min_overhead = durable_block.get("min_overhead", 1.0)
        if min_overhead > DURABLE_OVERHEAD_CEILING:
            failures.append(
                "durable overhead regressed: attaching a DurableWriter at "
                f"the default cadence costs at least {min_overhead:.3f}x "
                f"the bare governed run on every size "
                f"(ceiling {DURABLE_OVERHEAD_CEILING:.2f}x)"
            )
    join_block = report["sweeps"].get("join_order")
    if join_block is not None:
        mean_speedup = join_block.get("mean_speedup", 1.0)
        if mean_speedup < JOIN_ORDER_SPEEDUP_FLOOR:
            failures.append(
                "join-order sweep regressed: greedy plans average "
                f"{mean_speedup:.3f}x the written order on the multi-join "
                f"sweep (floor {JOIN_ORDER_SPEEDUP_FLOOR:.2f}x)"
            )
    # `.get` guard: baselines written before the extrema sweep existed
    # simply skip this gate.
    extrema_block = report["sweeps"].get("extrema_pushdown")
    if extrema_block is not None:
        mean_speedup = extrema_block.get("mean_speedup", 1.0)
        if mean_speedup < EXTREMA_SPEEDUP_FLOOR:
            failures.append(
                "extrema sweep regressed: pushdown averages "
                f"{mean_speedup:.3f}x the post policy on the shortest-path "
                f"sweep (floor {EXTREMA_SPEEDUP_FLOOR:.2f}x)"
            )
    # `.get` guard: baselines written before the incremental sweep
    # existed simply skip this gate.
    incremental_block = report["sweeps"].get("incremental_maintenance")
    if incremental_block is not None:
        mean_speedup = incremental_block.get("mean_speedup", 1.0)
        if mean_speedup < INCREMENTAL_SPEEDUP_FLOOR:
            failures.append(
                "incremental sweep regressed: view maintenance averages "
                f"{mean_speedup:.3f}x the from-scratch recompute on the "
                f"update-stream sweep (floor {INCREMENTAL_SPEEDUP_FLOOR:.2f}x)"
            )
    # `.get` guard twice over: old baselines lack the block entirely, and
    # core-starved machines record it as skipped (no "speedup" key) — the
    # gate only fires where the measurement is meaningful.
    scaling_block = report["sweeps"].get("sharded_scaling")
    if scaling_block is not None and "speedup" in scaling_block:
        speedup = scaling_block["speedup"]
        if speedup < SHARDED_SCALING_FLOOR:
            failures.append(
                "sharded scaling regressed: "
                f"{scaling_block['shards']} worker processes serve the "
                f"batch only {speedup:.3f}x faster than one "
                f"(floor {SHARDED_SCALING_FLOOR:.2f}x)"
            )
    # Same double `.get` guard as sharded_scaling: old baselines lack
    # the block, core-starved machines record it skipped.
    repl_block = report["sweeps"].get("replication_overhead")
    if repl_block is not None and "overhead" in repl_block:
        overhead = repl_block["overhead"]
        if overhead > REPLICATION_OVERHEAD_CEILING:
            failures.append(
                "replication overhead regressed: hot standbys cost "
                f"{overhead:.3f}x the unreplicated durable batch "
                f"(ceiling {REPLICATION_OVERHEAD_CEILING:.2f}x)"
            )
    # `.get` guards: baselines from before the round-trip sweep skip it.
    roundtrip = report["sweeps"].get("shard_roundtrip")
    if roundtrip is not None:
        ratio = roundtrip["replicas0"]["ratio"]
        if ratio > SHARD_ROUNDTRIP_CEILING:
            failures.append(
                "shard round trip regressed: a one-shard front door "
                f"answers at {ratio:.3f}x the in-process p50 "
                f"(ceiling {SHARD_ROUNDTRIP_CEILING:.2f}x)"
            )
        expected = baseline["sweeps"].get("shard_roundtrip")
        if expected is not None:
            ratio = roundtrip["replicas1"]["ratio"]
            ceiling = expected["replicas1"]["ratio"] * (1.0 + tolerance)
            if ratio > ceiling:
                failures.append(
                    "replicated round trip regressed: replicas 1 answers at "
                    f"{ratio:.3f}x the durable in-process p50 > {ceiling:.3f}x "
                    f"(baseline {expected['replicas1']['ratio']:.3f}x + "
                    f"{tolerance:.0%} tolerance)"
                )
    return failures


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="Measure the plan-cache sweeps; write or check a baseline.",
    )
    parser.add_argument(
        "out",
        nargs="?",
        default=None,
        help="output path (default: BENCH_plans.json at the repo root)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the baseline instead of overwriting it",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE.json",
        help="baseline file for --check (default: the out path)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional mean-speedup regression for --check (default 0.25)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Write ``BENCH_plans.json`` next to the repository's ``src/`` —
    or, with ``--check``, gate against the committed baseline."""
    args = _build_parser().parse_args(argv)
    default_out = Path(__file__).resolve().parents[3] / "BENCH_plans.json"
    out = Path(args.out) if args.out else default_out
    try:
        report = run_regression()
    except EmptySweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = report["sweeps"]["seminaive_tc"]["rows"]
    if args.check:
        baseline_path = Path(args.baseline) if args.baseline else out
        baseline = json.loads(baseline_path.read_text())
        failures = check_against_baseline(report, baseline, tolerance=args.tolerance)
        print(f"baseline {baseline_path}: mean speedup {_mean_speedup(baseline):.3f}x")
        print(f"current : mean speedup {_mean_speedup(report):.3f}x")
        for row in rows:
            print(
                f"  tc n={row['size']:>4}  before {row['before_s']:.4f}s  "
                f"after {row['after_s']:.4f}s  speedup {row['speedup']:.2f}x"
            )
        overhead = report["sweeps"]["governor_overhead"]
        for row in overhead["rows"]:
            print(
                f"  gov n={row['size']:>4}  off {row['off_s']:.4f}s  "
                f"on {row['on_s']:.4f}s  overhead {row['overhead']:.2f}x"
            )
        print(
            f"governor overhead: min {overhead['min_overhead']:.3f}x  "
            f"mean {overhead['mean_overhead']:.3f}x"
        )
        service = report["sweeps"]["service_overhead"]
        for row in service["rows"]:
            print(
                f"  srv n={row['size']:>4}  direct {row['direct_s']:.4f}s  "
                f"service {row['service_s']:.4f}s  overhead {row['overhead']:.2f}x"
            )
        print(
            f"service overhead: min {service['min_overhead']:.3f}x  "
            f"mean {service['mean_overhead']:.3f}x"
        )
        durable = report["sweeps"]["durable_overhead"]
        for row in durable["rows"]:
            print(
                f"  dur n={row['size']:>4}  bare {row['bare_s']:.4f}s  "
                f"durable {row['durable_s']:.4f}s  overhead {row['overhead']:.2f}x"
            )
        print(
            f"durable overhead: min {durable['min_overhead']:.3f}x  "
            f"mean {durable['mean_overhead']:.3f}x"
        )
        join = report["sweeps"]["join_order"]
        for row in join["rows"]:
            print(
                f"  join n={row['size']:>4}  written {row['written_s']:.4f}s  "
                f"greedy {row['greedy_s']:.4f}s  speedup {row['speedup']:.2f}x"
            )
        print(
            f"join-order speedup: min {join['min_speedup']:.3f}x  "
            f"mean {join['mean_speedup']:.3f}x"
        )
        extrema = report["sweeps"]["extrema_pushdown"]
        for row in extrema["rows"]:
            print(
                f"  ext n={row['size']:>4}  post {row['post_s']:.4f}s  "
                f"pushdown {row['pushdown_s']:.4f}s  speedup {row['speedup']:.2f}x"
            )
        print(
            f"extrema speedup: min {extrema['min_speedup']:.3f}x  "
            f"mean {extrema['mean_speedup']:.3f}x"
        )
        incremental = report["sweeps"]["incremental_maintenance"]
        for row in incremental["rows"]:
            print(
                f"  inc n={row['size']:>4}  recompute {row['recompute_s']:.4f}s  "
                f"incremental {row['incremental_s']:.4f}s  speedup {row['speedup']:.2f}x"
            )
        print(
            f"incremental speedup: min {incremental['min_speedup']:.3f}x  "
            f"mean {incremental['mean_speedup']:.3f}x"
        )
        scaling = report["sweeps"]["sharded_scaling"]
        if "speedup" in scaling:
            print(
                f"sharded scaling: 1 shard {scaling['one_shard_s']:.4f}s  "
                f"{scaling['shards']} shards {scaling['sharded_s']:.4f}s  "
                f"speedup {scaling['speedup']:.2f}x"
            )
        else:
            print(f"sharded scaling: skipped ({scaling['skipped']})")
        replication = report["sweeps"]["replication_overhead"]
        if "overhead" in replication:
            print(
                f"replication overhead: plain {replication['plain_s']:.4f}s  "
                f"replicated {replication['replicated_s']:.4f}s  "
                f"overhead {replication['overhead']:.2f}x"
            )
        else:
            print(f"replication overhead: skipped ({replication['skipped']})")
        roundtrip = report["sweeps"]["shard_roundtrip"]
        for name in ("replicas0", "replicas1"):
            row = roundtrip[name]
            print(
                f"  rtt {name}  p50 {row['p50_ms']:.3f}ms  "
                f"p99 {row['p99_ms']:.3f}ms  in-process p50 "
                f"{row['inproc_p50_ms']:.3f}ms  ratio {row['ratio']:.2f}x"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            "OK: plan-cache speedup, governor overhead, service overhead, "
            "durable overhead, join-order speedup, extrema speedup, "
            "incremental speedup, sharded scaling, replication "
            "overhead and shard round trip within tolerance"
        )
        return 0
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for row in rows:
        print(
            f"  tc n={row['size']:>4}  before {row['before_s']:.4f}s  "
            f"after {row['after_s']:.4f}s  speedup {row['speedup']:.2f}x"
        )
    join = report["sweeps"]["join_order"]
    for row in join["rows"]:
        print(
            f"  join n={row['size']:>4}  written {row['written_s']:.4f}s  "
            f"greedy {row['greedy_s']:.4f}s  speedup {row['speedup']:.2f}x"
        )
    extrema = report["sweeps"]["extrema_pushdown"]
    for row in extrema["rows"]:
        print(
            f"  ext n={row['size']:>4}  post {row['post_s']:.4f}s  "
            f"pushdown {row['pushdown_s']:.4f}s  speedup {row['speedup']:.2f}x"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
