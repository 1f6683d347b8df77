"""live-updates: a seeded stream of small insert/delete batches into two
durable live views, in process, closed loop.

Both views journal to one ``CheckpointStore(fsync="always")``: every
batch is appended to the WAL and fsynced before it is applied.  About
90% of the batches go to a shortest-path view (premappable extrema,
maintained by DRed) and the rest to a Prim view (a choice clique,
recomputed or replayed).  Every ``CHECK_EVERY``-th batch the receiving
view is compared with ``solve_program`` on the current EDB; that solve's
time is the batch's ``vs_oracle_x`` denominator.
"""

from __future__ import annotations

import random
import time
from statistics import fmean, median
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set, Tuple

import checks
from harness import Outcome, Spans, spec

from repro.core.compiler import solve_program
from repro.durable.store import CheckpointStore
from repro.incremental import LiveView, MaterializedView, UpdateBatch, UpdateOp
from repro.programs import texts
from repro.programs._run import symmetric_edges
from repro.workloads.graphs import random_connected_graph

SPEC = spec("live-updates")
CHECK_EVERY = SPEC["check_every"]
MAX_COST = 50
RESULT_COUNTS = ("units_recomputed", "fast_path_resumes", "invalidated", "rederived")


@dataclass
class Graph:
    """One view's program, its seed, and the EDB the stream mutates."""

    kind: str
    program: str
    seed: int
    nodes: List[str]
    base_edges: int
    edges: Set[Tuple[str, str, int]] = field(default_factory=set)

    def facts(self) -> Dict[str, List[Tuple[Any, ...]]]:
        return {"g": symmetric_edges(sorted(self.edges)), "source": [(self.nodes[0],)]}

    def initial_ops(self) -> List[UpdateOp]:
        return [UpdateOp("+", pred, row) for pred, rows in self.facts().items() for row in rows]

    def draw_ops(self, rng: random.Random, sizes: Dict[str, int]) -> List[UpdateOp]:
        """Insert or delete 1..max undirected edges (both orientations),
        holding the edge count within ``edge_drift`` of its start."""
        ops: List[UpdateOp] = []
        for _ in range(rng.randint(1, sizes["max_edges_per_batch"])):
            drift = len(self.edges) - self.base_edges
            delete = drift > -sizes["edge_drift"] and (
                drift >= sizes["edge_drift"] or rng.random() < 0.5
            )
            if delete:
                edge = rng.choice(sorted(self.edges))
                self.edges.discard(edge)
                op = "-"
            else:
                # A new fact in both orientations, so a later delete of
                # this edge cannot take facts another edge still holds.
                while True:
                    u, v = rng.sample(self.nodes, 2)
                    c = rng.randint(1, MAX_COST)
                    if (u, v, c) not in self.edges and (v, u, c) not in self.edges:
                        break
                edge = (u, v, c)
                self.edges.add(edge)
                op = "+"
            u, v, c = edge
            ops += [UpdateOp(op, "g", (u, v, c)), UpdateOp(op, "g", (v, u, c))]
        return ops

    def check(self, view_db: Any) -> Tuple[Any, float]:
        """Compare the live model with a from-scratch solve of the current
        EDB; returns ``(failure reason or None, oracle seconds)``."""
        facts = self.facts()
        start = time.perf_counter()
        oracle = solve_program(self.program, facts=facts, seed=self.seed)
        seconds = time.perf_counter() - start
        if self.kind == "extrema":
            live, scratch = set(view_db.facts("dist", 2)), set(oracle.facts("dist", 2))
            reason = None if live == scratch else "shortest-path view != from-scratch model"
        else:
            # Choice views may break cost ties differently from the
            # oracle; both must be minimum spanning trees.
            undirected = sorted(self.edges)
            reason = checks.prim_tree(view_db, undirected, self.nodes[0]) or checks.prim_tree(
                oracle, undirected, self.nodes[0]
            )
        return reason, seconds


def draw_graphs(rng: random.Random, sizes: Dict[str, int]) -> Dict[str, Graph]:
    graphs = {}
    for kind, program in (("extrema", texts.SHORTEST_PATH), ("choice", texts.PRIM)):
        nodes, edges = random_connected_graph(
            sizes[f"{kind}_nodes"],
            sizes[f"{kind}_extra_edges"],
            seed=rng.randrange(2**31),
            distinct_costs=False,
        )
        graphs[kind] = Graph(
            kind, program, rng.randrange(2**31), nodes, len(edges), set(edges)
        )
    return graphs


def open_views(root: Any, graphs: Dict[str, Graph]) -> Tuple[CheckpointStore, Dict[str, LiveView]]:
    store = CheckpointStore(str(root), fsync="always")
    views = {}
    for kind, graph in graphs.items():
        views[kind] = LiveView.open(store, kind, graph.program, seed=graph.seed)
        views[kind].apply(UpdateBatch.of(graph.initial_ops(), batch_id=f"{kind}-init"))
    return store, views


def run(seed: int, seconds: float, spans: Spans, tmp: Any, smoke: bool) -> Outcome:
    sizes = SPEC["smoke_sizes" if smoke else "sizes"]
    rng = random.Random(seed)
    graphs = draw_graphs(rng, sizes)
    out = Outcome()

    store = None
    for attempt in range(1 if smoke else SPEC["setup_repeats"]):
        if store is not None:
            store.close()
        start = time.perf_counter()
        store, views = open_views(tmp / f"views-{attempt}", graphs)
        out.setup_s.append(time.perf_counter() - start)

    twins: Dict[str, MaterializedView] = {}
    append_store = None
    if spans.enabled:
        for kind, graph in graphs.items():
            twins[kind] = MaterializedView(graph.program, seed=graph.seed)
            twins[kind].apply(UpdateBatch.of(graph.initial_ops()))
        append_store = CheckpointStore(str(tmp / "append"), fsync="always")

    ratios: List[float] = []
    counts: Dict[str, List[int]] = {name: [] for name in RESULT_COUNTS}
    errors: List[str] = []
    counters_before = store.stats()["counters"]
    try:
        deadline = time.perf_counter() + seconds
        op = 0
        while time.perf_counter() < deadline or op < CHECK_EVERY:
            kind = "extrema" if rng.random() < SPEC["extrema_share"] else "choice"
            graph = graphs[kind]
            batch = UpdateBatch.of(graph.draw_ops(rng, sizes), batch_id=f"b{op}")
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = views[kind].apply(batch)
            except Exception as exc:  # a failed apply is a failed operation
                out.failed += 1
                errors.append(f"batch {op}: {exc!r}")
                op += 1
                continue
            elapsed = time.perf_counter() - start
            out.latencies_ms.append(elapsed * 1000.0)
            for name in RESULT_COUNTS:
                counts[name].append(getattr(result, name))
            if spans.enabled:
                with spans.span(f"incremental.apply_ms.{kind}", op):
                    twins[kind].apply(batch)
                with spans.span("durable.append_ms", op):
                    append_store.journal_update(
                        "twin",
                        {"type": "batch", "seq": op, "batch_id": batch.batch_id,
                         "ops": batch.ops_payload()},
                    )
                    append_store.sync()
            if op % CHECK_EVERY == 0:
                reason, oracle_s = graph.check(views[kind].db)
                spans.add("core.scratch_ms", op, oracle_s)
                ratios.append(elapsed / oracle_s)
                if reason is not None:
                    out.failed += 1
                    out.wrong += 1
                    errors.append(f"batch {op} ({kind}): {reason}")
            op += 1
        counters_after = store.stats()["counters"]
    finally:
        store.close()
        if append_store is not None:
            append_store.close()

    out.vs_oracle_x = median(ratios)
    out.detail["checked_batches"] = len(ratios)
    if errors:
        out.detail["errors"] = errors[:20]
    if spans.enabled:
        layers = out.layers
        layers["live-updates.vs_oracle_x"] = (out.vs_oracle_x, "x")
        for name in ("incremental.apply_ms.extrema", "incremental.apply_ms.choice",
                     "durable.append_ms", "core.scratch_ms"):
            layers[name] = (spans.median_ms(name), "ms")
        for layer, counter, unit in (
            ("durable.bytes_per_batch", "bytes_written", "B"),
            ("durable.fsyncs_per_batch", "fsyncs", "count"),
        ):
            moved = counters_after.get(counter, 0) - counters_before.get(counter, 0)
            layers[layer] = (moved / out.attempted, unit)
        for name in RESULT_COUNTS:
            layers[f"incremental.{name}"] = (fmean(counts[name]), "count")
    return out
