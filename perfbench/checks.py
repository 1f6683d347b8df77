"""Output checks that accept any valid tie-break.

The default ``rql`` engine breaks cost ties in an order that can change
from process to process, so no check compares a model against one fixed
answer where ties allow several: a spanning tree must be spanning and as
light as the procedural baseline's, a sort must be an ordered permutation,
a matching must be valid and maximal.  Each check returns ``None`` when
the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

from typing import Any, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.baselines import prim_mst as baseline_prim
from repro.storage.unionfind import UnionFind

Edge = Tuple[Hashable, Hashable, Any]


def staged(db: Any, pred: str, arity: int) -> List[Tuple[Any, ...]]:
    """The facts of a stage program's output in stage order, without the
    stage-0 seed fact (the stage is the last argument)."""
    rows = [f for f in db.facts(pred, arity) if f[-1] > 0]
    return sorted(rows, key=lambda f: f[-1])


def _undirected(edges: Iterable[Edge]) -> set:
    out = set()
    for u, v, c in edges:
        out.add((u, v, c))
        out.add((v, u, c))
    return out


def _reachable(edges: Iterable[Edge], source: Hashable) -> set:
    adjacency: dict = {}
    for u, v, _ in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen = {source}
    stack = [source]
    while stack:
        for w in adjacency.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def spanning_tree(
    tree: Sequence[Edge], edges: Sequence[Edge], nodes: set, weight: Any
) -> Optional[str]:
    """*tree* spans *nodes* using only *edges*, has no cycle, and weighs
    *weight* (the procedural baseline's MST weight)."""
    allowed = _undirected(edges)
    if len(tree) != len(nodes) - 1:
        return f"tree has {len(tree)} edges for {len(nodes)} vertices"
    forest = UnionFind()
    for u, v, c in tree:
        if (u, v, c) not in allowed:
            return f"tree edge {(u, v, c)!r} is not in the graph"
        if u not in nodes or v not in nodes:
            return f"tree edge {(u, v, c)!r} leaves the spanned component"
        forest.add(u)
        forest.add(v)
        if not forest.union(u, v):
            return f"tree edge {(u, v, c)!r} closes a cycle"
    total = sum(c for _, _, c in tree)
    if total != weight:
        return f"tree weight {total} != baseline MST weight {weight}"
    return None


def prim_tree(db: Any, edges: Sequence[Edge], source: Hashable) -> Optional[str]:
    """Example 4's ``prm`` model is a minimum spanning tree of the
    component containing *source*."""
    tree = [(f[0], f[1], f[2]) for f in staged(db, "prm", 4)]
    _, weight = baseline_prim(edges, source)
    return spanning_tree(tree, edges, _reachable(edges, source), weight)


def ordered_permutation(
    output: Sequence[Tuple[Any, Any]], items: Sequence[Tuple[Any, Any]]
) -> Optional[str]:
    """*output* holds exactly the ``(key, cost)`` pairs of *items*, in
    non-decreasing cost order."""
    if sorted(output) != sorted(set(items)):
        return "sorted output is not a permutation of the input"
    for (_, before), (_, after) in zip(output, output[1:]):
        if after < before:
            return f"cost {after} follows {before}"
    return None


def maximal_matching(
    selected: Sequence[Edge], arcs: Sequence[Edge]
) -> Optional[str]:
    """*selected* is a set of input arcs sharing no source and no target,
    and no input arc could be added to it."""
    allowed = set(arcs)
    sources, targets = set(), set()
    for x, y, c in selected:
        if (x, y, c) not in allowed:
            return f"matched arc {(x, y, c)!r} is not an input arc"
        if x in sources or y in targets:
            return f"matched arc {(x, y, c)!r} reuses an endpoint"
        sources.add(x)
        targets.add(y)
    for x, y, c in arcs:
        if x not in sources and y not in targets:
            return f"arc {(x, y, c)!r} could still be matched"
    return None
