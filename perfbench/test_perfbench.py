"""Tests of the benchmark's tracing, from outside the program.

    python3 -m pytest perfbench/test_perfbench.py

Every job of every workload runs once untraced and twice traced with one
seed, which takes several minutes; ``-k graph-large`` (or another
workload name) runs one workload.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from run import BENCH, ROOT, Runner
from tracer import EXACT_COUNTS, layer_metrics, well_formed
from workloads import WORKLOADS

SEED = 7


@pytest.fixture(scope="module", params=list(WORKLOADS))
def passes(request):
    """One untraced and two traced passes over a workload's jobs."""
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        runner = Runner(Path(tmp), time.monotonic() + 900)
        jobs = WORKLOADS[request.param]
        plain = runner.pass_(jobs, SEED)
        traced = [runner.pass_(jobs, SEED, traced=True) for _ in range(2)]
    return request.param, plain, traced


def test_traced_reports_equal_untraced_bytes(passes):
    _, plain, traced = passes
    for p, t in zip(plain, traced[0]):
        assert p.ok, (p.job.name, p.detail)
        assert t.stdout == p.stdout, p.job.name


def test_exact_counts_repeat_and_spans_are_well_formed(passes):
    name, _, traced = passes
    counts = []
    for runs in traced:
        for r in runs:
            assert r.trace is not None and well_formed(r.trace) == [], r.job.name
        metrics = layer_metrics([r.trace for r in runs])
        counts.append({c: metrics[c] for c in EXACT_COUNTS})
    assert counts[0] == counts[1]
    busy = {
        "graph-large": "graphs.bfs_calls",
        "verify-small": "graphs.diameter_bfs_calls",
        "walk-sampling": "walkers.walker_steps",
    }[name]
    assert counts[0][busy] > 0


def test_layer_metrics_are_listed_in_benchmark_json(passes):
    _, _, traced = passes
    listed = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    computed = set(layer_metrics([r.trace for r in traced[0]]))
    assert computed <= listed, sorted(computed - listed)


def test_well_formed_flags_bad_spans():
    spans = [
        [0, "a", -1, 1.0, 2.0, 0.5, {}],
        [1, "b", 0, 1.5, 2.5, 1.0, {}],  # ends after its parent
        [2, "c", 9, 1.1, 1.2, 0.1, {}],  # parent does not exist
    ]
    problems = well_formed({"spans": spans})
    assert len(problems) == 2


def test_exits_nonzero_without_sources():
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        copy = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", copy)
        shutil.copytree(
            BENCH, copy / "perfbench", ignore=shutil.ignore_patterns(".work-*", "__pycache__")
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "walk-sampling",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=copy, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
