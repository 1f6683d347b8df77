"""serve-sharded: small requests through one replicated, durable shard,
open loop with Poisson arrivals.

``ShardedQueryService(shards=1, replicas=1, fsync="always")`` with its
default knobs: a front door in this process, a primary worker process
and a hot standby fed by WAL shipping.  One generator thread submits
each request at its seeded Poisson due time and one collector thread
waits for the answers; every latency is counted from the due time, so a
stall also charges the requests queued behind it.  The engine work per
request is about a millisecond, so the front door, pipes, supervisor,
WAL and shipping dominate.  Poisson arrivals keep the schedule from
phase-locking to the supervisor's 50 ms tick.
"""

from __future__ import annotations

import queue
import random
import threading
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

import checks
from harness import Outcome, Spans, spec, tail

from repro.core.compiler import solve_program
from repro.durable.store import CheckpointStore
from repro.programs import texts
from repro.programs._run import symmetric_edges
from repro.serve.errors import ServiceError
from repro.serve.request import OK, QueryRequest
from repro.serve.service import QueryService
from repro.serve.supervisor import ShardedQueryService
from repro.workloads.graphs import random_connected_graph

SPEC = spec("serve-sharded")
RATE_PER_S = SPEC["rate_per_s"]
LATENCY_LIMIT_MS = SPEC["latency_limit_ms"]
#: Run validity guards.  Any disruption counter moving in the timed
#: phase means a worker died, was replaced or was routed around.
VALIDITY = SPEC["validity"]


@dataclass
class Job:
    due: float
    request: QueryRequest
    check: Any


def draw_jobs(rng: random.Random, seconds: float, sizes: Dict[str, int]) -> List[Job]:
    """A seeded Poisson schedule over *seconds*, mostly tie-heavy sorts of
    string-keyed pairs, some Prim requests on small graphs."""
    jobs: List[Job] = []
    due = rng.expovariate(RATE_PER_S)
    while due < seconds or not jobs:
        seed = rng.randrange(2**31)
        if rng.random() < SPEC["sort_share"]:
            items = [
                (f"x{i}", rng.randrange(sizes["sort_cost_classes"]))
                for i in range(sizes["sort_keys"])
            ]
            rng.shuffle(items)
            request = QueryRequest(program=texts.SORTING, facts={"p": items}, seed=seed)

            def check(db: Any, items: Any = items) -> Any:
                return checks.ordered_permutation(
                    [(f[0], f[1]) for f in checks.staged(db, "sp", 3)], items
                )

        else:
            nodes, edges = random_connected_graph(
                sizes["prim_nodes"],
                sizes["prim_extra_edges"],
                seed=rng.randrange(2**31),
                distinct_costs=False,
            )
            request = QueryRequest(
                program=texts.PRIM,
                facts={"g": symmetric_edges(edges), "source": [(nodes[0],)]},
                seed=seed,
            )

            def check(db: Any, edges: Any = edges, source: Any = nodes[0]) -> Any:
                return checks.prim_tree(db, edges, source)

        jobs.append(Job(due, request, check))
        due += rng.expovariate(RATE_PER_S)
    return jobs


def start_fleet(root: Any) -> ShardedQueryService:
    """Spawn the fleet and wait until the standby is warm."""
    service = ShardedQueryService(
        shards=1, replicas=1, durable_dir=str(root), fsync="always"
    )
    deadline = time.monotonic() + 60.0
    while service.stats()["shards"][0]["standby_state"] != "warm":
        if time.monotonic() > deadline:
            service.close(wait=False)
            raise RuntimeError("standby never became warm")
        time.sleep(0.005)
    return service


def open_loop(
    service: ShardedQueryService, jobs: List[Job], spans: Spans
) -> Tuple[List[Optional[Tuple[Any, float]]], List[float], Dict[str, Any]]:
    """Send every job at its due time; returns per-job ``(response,
    latency s)`` (``None`` when refused), the generator's lateness per
    job, and the service stats at the end of the schedule."""
    results: List[Optional[Tuple[Any, float]]] = [None] * len(jobs)
    lateness: List[float] = []
    at_end: Dict[str, Any] = {}
    handoff: "queue.Queue[Any]" = queue.Queue()
    origin = time.perf_counter() + 0.05

    def generate() -> None:
        for i, job in enumerate(jobs):
            due = origin + job.due
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(time.perf_counter() - due)
            try:
                with spans.span("serve.submit_ms", i):
                    ticket = service.submit(job.request)
            except ServiceError:
                ticket = None
            handoff.put((i, due, ticket))
        at_end.update(service.stats())
        handoff.put(None)

    def collect() -> None:
        while (item := handoff.get()) is not None:
            i, due, ticket = item
            if ticket is None:
                continue
            try:
                response = ticket.response(timeout=60.0)
            except TimeoutError:
                continue
            results[i] = (response, time.perf_counter() - due)

    # Daemon threads, so that a terminated run exits at once instead of
    # playing out the rest of the schedule.
    threads = [
        threading.Thread(target=target, daemon=True) for target in (generate, collect)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, lateness, at_end


def solve_in_process(jobs: List[Job]) -> List[float]:
    """The same mix through ``solve_program`` alone, closed loop (ms)."""
    times = []
    for job in jobs:
        start = time.perf_counter()
        solve_program(job.request.program, facts=job.request.facts, seed=job.request.seed)
        times.append((time.perf_counter() - start) * 1000.0)
    return times


def serve_in_process(jobs: List[Job], root: Any) -> List[float]:
    """The same mix through an in-process ``QueryService`` with a durable
    store, closed loop (ms)."""
    times = []
    with CheckpointStore(str(root), fsync="always") as store:
        service = QueryService(workers=1, store=store)
        try:
            for job in jobs:
                start = time.perf_counter()
                service.submit(job.request).response(timeout=60.0)
                times.append((time.perf_counter() - start) * 1000.0)
        finally:
            service.close()
    return times


def run(seed: int, seconds: float, spans: Spans, tmp: Any, smoke: bool) -> Outcome:
    sizes = SPEC["smoke_sizes" if smoke else "sizes"]
    rng = random.Random(seed)
    jobs = draw_jobs(rng, seconds, sizes)
    out = Outcome()

    service = None
    for attempt in range(1 if smoke else SPEC["setup_repeats"]):
        if service is not None:
            service.close()
        start = time.perf_counter()
        service = start_fleet(tmp / f"fleet-{attempt}")
        out.setup_s.append(time.perf_counter() - start)
    try:
        before = service.stats()["counters"]
        results, lateness, at_end = open_loop(service, jobs, spans)
        after = service.stats()["counters"]
    finally:
        service.close()

    invalid = [
        f"{name} +{after.get(name, 0) - before.get(name, 0)} in the timed phase"
        for name in VALIDITY["disruptions"]
        if after.get(name, 0) != before.get(name, 0)
    ]
    if at_end.get("pending", 0) > VALIDITY["max_backlog_at_end"]:
        invalid.append(
            f"backlog of {at_end['pending']} requests at the end of the schedule"
        )
    late_p99 = tail(lateness, beyond=len(lateness) // 100)[0] * 1000.0
    if late_p99 > VALIDITY["max_generator_late_p99_ms"]:
        invalid.append(f"generator lateness p99 {late_p99:.1f} ms")

    out.attempted = len(jobs)
    errors: List[str] = []
    for i, (job, result) in enumerate(zip(jobs, results)):
        if result is None:
            out.failed += 1
            errors.append(f"request {i}: refused or unanswered")
            continue
        response, latency = result
        out.latencies_ms.append(latency * 1000.0)
        if response.status != OK:
            out.failed += 1
            errors.append(f"request {i}: {response.status} {response.error!r}")
            continue
        reason = job.check(response.database)
        if reason is not None:
            out.failed += 1
            out.wrong += 1
            errors.append(f"request {i}: {reason}")
        elif latency * 1000.0 > LATENCY_LIMIT_MS:
            out.late += 1
        spans.add("serve.worker_ms", i, response.latency_s)
        spans.add("serve.queue_ms", i, response.queue_s)
        spans.add("serve.delivery_ms", i, latency - response.latency_s)

    out.detail.update(
        valid=not invalid,
        invalid_reasons=invalid,
        late_over_limit=out.late,
    )
    if errors:
        out.detail["errors"] = errors[:20]

    if spans.enabled:
        layers = out.layers
        for name in ("serve.submit_ms", "serve.worker_ms", "serve.queue_ms", "serve.delivery_ms"):
            layers[name] = (spans.median_ms(name), "ms")
        layers["serve.inproc_ms"] = (median(serve_in_process(jobs, tmp / "inproc")), "ms")
        layers["core.solve_ms"] = (median(solve_in_process(jobs)), "ms")
        layers["serve.late_ms"] = (late_p99, "ms")
        layers["shard.restarts"] = (after.get("restarts", 0), "count")
        layers["shard.repl_shipped"] = (after.get("repl_shipped", 0), "count")
        layers["shard.replication_lag_records"] = (
            at_end["shards"][0]["replication_lag_records"],
            "count",
        )
    return out
