"""solve-greedy: four of the paper's greedy programs solved from text to
model, in process, one thread, closed loop.

One operation is one round: Prim (Ex. 4), sorting (Ex. 5), min-cost
matching (Ex. 7) and Kruskal (Ex. 8), each parsed, analysed, loaded and
run on the default ``rql`` engine over inputs freshly drawn from the
workload seed.  Right after the round, the procedural baselines of
``repro.baselines`` solve the same inputs; our round time over theirs is
the round's ``vs_oracle_x`` sample.  Costs are tie-heavy and the sort
keys are strings, so the (R,Q,L) heap's tie path is exercised.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

import checks
from harness import Outcome, Spans, spec

from repro import baselines
from repro.core.compiler import compile_program
from repro.datalog.parser import parse_program
from repro.programs import texts
from repro.programs._run import symmetric_edges
from repro.storage.database import Database
from repro.workloads.graphs import random_bipartite_arcs, random_connected_graph

SPEC = spec("solve-greedy")
PROGRAMS = ("prim", "sort", "matching", "kruskal")
TEXTS = {
    "prim": texts.PRIM,
    "sort": texts.SORTING,
    "matching": texts.MATCHING,
    "kruskal": texts.KRUSKAL,
}
STAT_COUNTS = (
    "gamma_firings",
    "gamma_candidates_examined",
    "saturation_facts",
    "plan_cache_hits",
)


@dataclass
class Case:
    """One program's inputs: the facts the engine loads, the procedural
    baseline to time on the same inputs, and the output check."""

    facts: Dict[str, List[Tuple[Any, ...]]]
    baseline: Callable[[], Any]
    check: Callable[[Any], Any]


def draw_round(rng: random.Random, sizes: Dict[str, int]) -> Dict[str, Case]:
    """Fresh inputs for the four programs, drawn from *rng*."""
    nodes, edges = random_connected_graph(
        sizes["prim_nodes"],
        sizes["prim_extra_edges"],
        seed=rng.randrange(2**31),
        distinct_costs=False,
    )
    source = nodes[0]
    prim = Case(
        {"g": symmetric_edges(edges), "source": [(source,)]},
        lambda: baselines.prim_mst(edges, source),
        lambda db: checks.prim_tree(db, edges, source),
    )

    items = [
        (f"x{i}", rng.randrange(sizes["sort_cost_classes"]))
        for i in range(sizes["sort_keys"])
    ]
    rng.shuffle(items)
    sort = Case(
        {"p": items},
        lambda: baselines.heapsort((c, x) for x, c in items),
        lambda db: checks.ordered_permutation(
            [(f[0], f[1]) for f in checks.staged(db, "sp", 3)], items
        ),
    )

    side = sizes["matching_side"]
    arcs = random_bipartite_arcs(
        side, side, side, seed=rng.randrange(2**31), distinct_costs=False
    )
    matching = Case(
        {"g": arcs},
        lambda: baselines.greedy_matching(arcs),
        lambda db: checks.maximal_matching(
            [(f[0], f[1], f[2]) for f in checks.staged(db, "matching", 4)], arcs
        ),
    )

    k_nodes, k_edges = random_connected_graph(
        sizes["kruskal_nodes"],
        sizes["kruskal_extra_edges"],
        seed=rng.randrange(2**31),
        distinct_costs=False,
    )

    def check_kruskal(db: Any) -> Any:
        tree = [(f[0], f[1], f[2]) for f in checks.staged(db, "kruskal", 4)]
        _, weight = baselines.kruskal_mst(k_edges)
        return checks.spanning_tree(tree, k_edges, set(k_nodes), weight)

    kruskal = Case(
        {"g": symmetric_edges(k_edges), "node": [(n,) for n in k_nodes]},
        lambda: baselines.kruskal_mst(k_edges),
        check_kruskal,
    )
    return {"prim": prim, "sort": sort, "matching": matching, "kruskal": kruskal}


def solve(name: str, case: Case, seed: int, spans: Spans, op: int):
    """Text to model through each layer's public entry point."""
    with spans.span("datalog.parse_ms", op):
        program = parse_program(TEXTS[name])
    with spans.span("core.analysis_ms", op):
        compiled = compile_program(program)
    with spans.span("storage.load_ms", op):
        db = Database()
        for pred, rows in case.facts.items():
            db.assert_all(pred, rows)
    with spans.span(f"core.run_ms.{name}", op):
        compiled.run(db, seed=seed)
    return db, compiled.last_engine.stats


def play_round(
    cases: Dict[str, Case], seed: int, spans: Spans, op: int
) -> Tuple[float, float, Dict[str, Any]]:
    """Solve the four programs, then time their baselines on the same
    inputs.  Returns ``(our seconds, baseline seconds, {name: (db,
    stats)})``."""
    start = time.perf_counter()
    models = {name: solve(name, cases[name], seed, spans, op) for name in PROGRAMS}
    ours = time.perf_counter() - start
    start = time.perf_counter()
    for name in PROGRAMS:
        with spans.span(f"baselines.run_ms.{name}", op):
            cases[name].baseline()
    theirs = time.perf_counter() - start
    return ours, theirs, models


def round_counts(models: Dict[str, Any]) -> Dict[str, Dict[str, int]]:
    return {
        name: {count: int(getattr(stats, count)) for count in STAT_COUNTS}
        for name, (_, stats) in models.items()
    }


def counts_in_fresh_process(seed: int, sizes: Dict[str, int]) -> Dict[str, Any]:
    """One round in this (fresh) process: the engine counts and each
    model's facts.  Run in spawned processes, whose string hashes are
    randomized independently, to show what depends on the hash seed."""
    cases = draw_round(random.Random(seed), sizes)
    _, _, models = play_round(cases, seed, Spans(False), 0)
    return {
        "counts": round_counts(models),
        "models": {
            name: sorted(repr(fact) for facts in db.as_dict().values() for fact in facts)
            for name, (db, _) in models.items()
        },
    }


def hash_sensitivity(seed: int, sizes: Dict[str, int]) -> Dict[str, List[str]]:
    """Which engine counts and which models differ between two processes
    solving the same round with the same seed."""
    runs = []
    for _ in range(2):
        with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
            runs.append(pool.submit(counts_in_fresh_process, seed, sizes).result())
    first, second = runs
    return {
        "counts_differ": [
            f"core.{count}.{name}"
            for name in PROGRAMS
            for count in STAT_COUNTS
            if first["counts"][name][count] != second["counts"][name][count]
        ],
        "models_differ": [
            name for name in PROGRAMS if first["models"][name] != second["models"][name]
        ],
    }


def run(seed: int, seconds: float, spans: Spans, tmp: Any, smoke: bool) -> Outcome:
    sizes = SPEC["smoke_sizes" if smoke else "sizes"]
    rng = random.Random(seed)
    out = Outcome()

    for _ in range(1 if smoke else SPEC["setup_repeats"]):
        cases = draw_round(rng, sizes)
        round_seed = rng.randrange(2**31)
        start = time.perf_counter()
        for text in TEXTS.values():
            compile_program(text)
        play_round(cases, round_seed, Spans(False), -1)
        out.setup_s.append(time.perf_counter() - start)

    ratios: List[float] = []
    counts: List[Dict[str, Dict[str, int]]] = []
    deadline = time.perf_counter() + seconds
    op = 0
    while time.perf_counter() < deadline or op == 0:
        cases = draw_round(rng, sizes)
        round_seed = rng.randrange(2**31)
        out.attempted += 1
        try:
            ours, theirs, models = play_round(cases, round_seed, spans, op)
        except Exception as exc:  # a crashed round is a failed operation
            out.failed += 1
            out.detail.setdefault("errors", []).append(repr(exc))
            op += 1
            continue
        out.latencies_ms.append(ours * 1000.0)
        ratios.append(ours / theirs)
        reasons = [
            f"{name}: {reason}"
            for name in PROGRAMS
            if (reason := cases[name].check(models[name][0])) is not None
        ]
        if reasons:
            out.failed += 1
            out.wrong += 1
            out.detail.setdefault("errors", []).extend(reasons)
        counts.append(round_counts(models))
        op += 1

    out.vs_oracle_x = median(ratios)
    if spans.enabled:
        layers = out.layers
        layers["solve-greedy.vs_oracle_x"] = (out.vs_oracle_x, "x")
        for name in ("datalog.parse_ms", "core.analysis_ms", "storage.load_ms"):
            layers[name] = (spans.median_ms(name), "ms")
        for name in PROGRAMS:
            layers[f"core.run_ms.{name}"] = (spans.median_ms(f"core.run_ms.{name}"), "ms")
            layers[f"baselines.run_ms.{name}"] = (
                spans.median_ms(f"baselines.run_ms.{name}"),
                "ms",
            )
        for count in STAT_COUNTS:
            layers[f"core.{count}"] = (
                median(sum(c[name][count] for name in PROGRAMS) for c in counts),
                "count",
            )
        layers["core.gamma_yield"] = (
            median(
                sum(c[n]["gamma_firings"] for n in PROGRAMS)
                / max(1, sum(c[n]["gamma_candidates_examined"] for n in PROGRAMS))
                for c in counts
            ),
            "ratio",
        )
        out.detail["hash_sensitivity"] = hash_sensitivity(seed, sizes)
    return out
