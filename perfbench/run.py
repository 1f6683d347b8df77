"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-sharded --seed 1 --seconds 40 --trace 0

Workloads: ``serve-sharded`` and ``live-updates`` (the two listed in
``BENCHMARK.json``) and ``solve-greedy``, which is left out of it because
its absolute times follow the host's CPU speed (see ``workloads.json``).

``--trace 0`` measures the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics instead:
it runs all three workloads with spans recorded around the calls into
each layer (per-layer metrics are defined on the workload that exercises
the layer), runs the named workload once more untraced, and reports the
difference of the two ``p50_ms`` as ``trace.overhead_ms``; each of these
four loops measures for half of ``--seconds``.  ``--smoke``
runs at tiny sizes, for the benchmark's own tests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a JSON ``detail`` object (tail percentile and sample count,
set-up samples, run validity, hash-seed sensitivity).  Workload
metadata, sizes and the layer-to-end-to-end map are in
``perfbench/workloads.json``.  The program is imported from ``src/`` of
the checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from statistics import median
from typing import Any, Dict, Tuple

from harness import Spans, peak_rss_mb, stop_children, tail

ROOT = Path(__file__).resolve().parent.parent
#: Each workload is the module of the same name (``-`` as ``_``).
WORKLOADS = ("solve-greedy", "serve-sharded", "live-updates")


def run_workload(
    name: str, args: argparse.Namespace, seconds: float, traced: bool, tmp: Path
):
    module = importlib.import_module(name.replace("-", "_"))
    spans = Spans(traced)
    workdir = tmp / f"{name}-{'traced' if traced else 'untraced'}"
    workdir.mkdir()
    outcome = module.run(args.seed, seconds, spans, workdir, args.smoke)
    if traced:
        spans.write(ROOT / ".perfbench_out" / f"spans-{name}-seed{args.seed}.jsonl")
    return outcome


def end_to_end(outcome: Any) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    value, percentile, count = tail(outcome.latencies_ms)
    metrics = {
        "setup_s": (median(outcome.setup_s), "s"),
        "p50_ms": (median(outcome.latencies_ms), "ms"),
        "tail_ms": (value, "ms"),
        "ok_ratio": (outcome.ok / outcome.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "tail_percentile": percentile,
        "samples": count,
        "setup_samples_s": outcome.setup_s,
        "vs_oracle_x": outcome.vs_oracle_x,
    }
    return metrics, detail


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tests)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    # Every process a run starts is stopped and waited for before the
    # result is printed, also when the run is terminated.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        detail: Dict[str, Any] = {"workload": args.workload, "seed": args.seed}
        if args.trace:
            # Four loops share the run: each gets half of --seconds.
            seconds = args.seconds / 2
            outcomes = {
                name: run_workload(name, args, seconds, True, tmp) for name in WORKLOADS
            }
            untraced = run_workload(args.workload, args, seconds, False, tmp)
            metrics: Dict[str, Any] = {}
            for name, outcome in outcomes.items():
                metrics.update(outcome.layers)
                detail[name] = outcome.detail
            traced_p50 = median(outcomes[args.workload].latencies_ms)
            untraced_p50 = median(untraced.latencies_ms)
            metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50, "ms")
            detail["untraced_p50_ms"] = untraced_p50
            counted = list(outcomes.values()) + [untraced]
        else:
            outcome = run_workload(args.workload, args, args.seconds, False, tmp)
            metrics, summary = end_to_end(outcome)
            detail.update(summary)
            detail.update(outcome.detail)
            counted = [outcome]
    finally:
        stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass

    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": all(o.wrong == 0 for o in counted),
                "attempted": sum(o.attempted for o in counted),
                "failed": sum(o.failed for o in counted),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
