"""Measurement plumbing shared by the three workloads.

Spans are recorded by the benchmark's own code around its calls into the
program's public functions (never inside the program), kept in memory and
written out once the run ends.  With tracing off, :meth:`Spans.span`
returns one shared no-op context, so the untraced loop makes exactly the
same calls minus two clock reads per span.
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import resource
import statistics
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

_NULL = contextlib.nullcontext()


class _Span:
    __slots__ = ("_spans", "_name", "_op", "_start")

    def __init__(self, spans: "Spans", name: str, op: int):
        self._spans = spans
        self._name = name
        self._op = op

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc: Any) -> None:
        self._spans.records.append(
            (self._name, self._op, self._start, time.perf_counter())
        )


class Spans:
    """In-memory span recorder.

    A span is ``(name, op, start, end)``: *op* is the operation (solve
    round, request, update batch) that caused it, so every span of one
    operation shares that identifier and the operation is their parent.
    Span names are the per-layer metric names they feed.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: List[Tuple[str, int, float, float]] = []

    def span(self, name: str, op: int):
        """Time the enclosed block as a *name* span of operation *op*."""
        if not self.enabled:
            return _NULL
        return _Span(self, name, op)

    def add(self, name: str, op: int, seconds: float) -> None:
        """Record a duration measured elsewhere (a response field, or a
        difference of two spans) as a span of operation *op*."""
        if self.enabled:
            self.records.append((name, op, 0.0, seconds))

    def per_op_ms(self, name: str) -> List[float]:
        """The total time each operation spent in *name* spans, in ms."""
        totals: Dict[int, float] = {}
        for span_name, op, start, end in self.records:
            if span_name == name:
                totals[op] = totals.get(op, 0.0) + (end - start)
        return [seconds * 1000.0 for seconds in totals.values()]

    def median_ms(self, name: str) -> float:
        values = self.per_op_ms(name)
        if not values:
            raise ValueError(f"no {name!r} span was recorded")
        return statistics.median(values)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, op, start, end in self.records:
                handle.write(
                    json.dumps({"name": name, "op": op, "start": start, "end": end})
                    + "\n"
                )


@dataclass
class Outcome:
    """What one workload run measured.

    Attributes:
        setup_s: every fresh set-up's duration, in seconds.
        latencies_ms: one entry per attempted operation that produced a
            response (refused operations have none).
        attempted: operations attempted in the timed phase.
        failed: operations that were refused, raised, or whose output
            failed its check.
        wrong: operations whose output failed its check.
        late: operations that passed but missed the latency limit.
        vs_oracle_x: our time divided by the oracle's, measured
            interleaved on the same inputs (``None`` without an oracle).
        layers: per-layer metrics, ``name -> (value, unit)`` (traced runs).
        detail: anything else worth printing (validity, sizes, counts).
    """

    setup_s: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    late: int = 0
    vs_oracle_x: Optional[float] = None
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    detail: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed - self.late


def tail(values: Iterable[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile with at least *beyond* samples above it:
    ``(value, percentile, sample count)``.  With too few samples the
    maximum is returned (percentile 100)."""
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    index = max(0, count - 1 - beyond)
    if count <= beyond:
        index = count - 1
    return ordered[index], 100.0 * (index + 1) / count, count


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spec(workload: str) -> Dict[str, Any]:
    """The workload's record in ``workloads.json``: its sizes, rates,
    limits and layer map (the code reads them from there)."""
    with open(Path(__file__).with_name("workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)[workload]


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Besides the shard workers and the process pool, which the workloads
    close themselves, the ``spawn`` start method launches the
    multiprocessing resource tracker, which would otherwise outlive this
    process by a moment.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout)
    tracker = resource_tracker._resource_tracker
    if hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe, then waits for it to exit
