"""Smoke tests for the benchmark: every workload at a tiny size.

Run from the root of a checkout with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every runnable workload, including solve-greedy, which BENCHMARK.json
#: leaves out (see workloads.json).
WORKLOADS = ["solve-greedy", "serve-sharded", "live-updates"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCHMARK["command"], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, declared: list) -> None:
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_with_all_outputs_ok(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    )
    assert_metrics(result, BENCHMARK["end_to_end"])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0
    assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    proc = bench("--workload", "solve-greedy", "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    result = result_of(proc)
    assert_metrics(result, BENCHMARK["per_layer"])
    assert result["correct"] is True and result["failed"] == 0
    detail = json.loads(proc.stdout.strip().splitlines()[-2])["detail"]
    assert set(detail["solve-greedy"]["hash_sensitivity"]) == {"counts_differ", "models_differ"}
    assert detail["serve-sharded"]["valid"] is True


def process_group(pgid: int) -> list:
    """Every process (zombies included) in process group *pgid*."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid:
            members.append(f"{entry.name} {fields[0]}")
    return members


def test_leaves_no_process_behind():
    # The run leads its own process group, which every process it starts
    # joins; once it has exited, nothing of that group may be left.
    proc = subprocess.Popen(
        [*BENCHMARK["command"], "--workload", "serve-sharded", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    _, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr
    assert process_group(proc.pid) == []


def test_same_seed_same_inputs():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import random

    import live_updates
    import serve_sharded
    import solve_greedy

    sizes = solve_greedy.SPEC["smoke_sizes"]
    first = solve_greedy.draw_round(random.Random(5), sizes)
    second = solve_greedy.draw_round(random.Random(5), sizes)
    assert all(first[n].facts == second[n].facts for n in solve_greedy.PROGRAMS)
    jobs = [serve_sharded.draw_jobs(random.Random(5), 2.0, serve_sharded.SPEC["smoke_sizes"]) for _ in range(2)]
    assert [(j.due, j.request.facts) for j in jobs[0]] == [(j.due, j.request.facts) for j in jobs[1]]
    graphs = [live_updates.draw_graphs(random.Random(5), live_updates.SPEC["smoke_sizes"]) for _ in range(2)]
    assert graphs[0]["extrema"].edges == graphs[1]["extrema"].edges


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
