"""Benchmark of the acgraphs CLI: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload graph-large --seed 1 --seconds 50 --trace 0

Load model: a closed loop with one client.  Each job of the workload is a
``python -m acgraphs.cli ...`` child, started only after the previous
child has exited.  The seed goes to every job's ``--seed``; the program
sees only its argv.

``--trace 0`` measures the end-to-end metrics: a warm-up child, then
the workload's set-up repeated in fresh children, then as many whole
passes over the jobs as fit in ``--seconds`` (at least one).  ``--trace 1``
runs one untimed pass and one pass under ``perfbench/tracer.py`` and
prints the per-layer metrics; traced reports must equal the untraced
ones byte for byte.

Every job's report is checked (``workloads.py``); a job fails when it
exits nonzero or its report is wrong.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Job

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the report checks use acgraphs itself
SETUP_REPEATS = 3  # at least, and more while they take under SETUP_MIN_S in all
SETUP_MIN_S = 5.0
RUN_LIMIT_S = 170.0  # every run must end within 180 s


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    returncode: int


@dataclass
class JobRun:
    job: Job
    child: Child
    ok: bool
    detail: str
    stdout: bytes
    trace: dict | None = None


class Runner:
    """Starts children one at a time and kills any that would outlive
    the run's deadline."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def child(self, cmd: list[str]) -> tuple[Child, bytes, Path]:
        """Run ``cmd`` to completion; its own peak RSS comes from wait4."""
        self.count += 1
        out_path = self.workdir / f"{self.count}.out"
        err_path = self.workdir / f"{self.count}.err"
        lock = threading.Lock()
        exited = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill():
                with lock:
                    if not exited:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(self.remaining(), 1.0), kill)
            timer.start()
            # wait without reaping, so a late kill cannot hit a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            with lock:
                exited = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(wall, usage.ru_maxrss / 1024, proc.returncode)
        return child, out_path.read_bytes(), err_path

    def job(self, job: Job, seed: int, traced: bool) -> JobRun:
        argv = [*job.argv, "--seed", str(seed)]
        job_id = self.count + 1
        spans = self.workdir / f"{job_id}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(job_id), "--",
                   *argv]
        else:
            cmd = [sys.executable, "-m", "acgraphs.cli", *argv]
        child, stdout, err_path = self.child(cmd)
        ok, detail = check(job, child, stdout, err_path)
        trace = json.loads(spans.read_text()) if traced and spans.exists() else None
        if traced and trace is None:
            ok, detail = False, "traced child wrote no spans"
        return JobRun(job, child, ok, detail, stdout, trace)

    def pass_(self, jobs, seed: int, traced: bool = False) -> list[JobRun]:
        return [self.job(job, seed, traced) for job in jobs]


def check(job: Job, child: Child, stdout: bytes, err_path: Path) -> tuple[bool, str]:
    if child.returncode != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        return False, f"exit {child.returncode}: {' '.join(tail)}"
    try:
        return job.check(json.loads(stdout))
    except Exception as exc:  # a malformed report is a failed job, not a crash
        return False, f"report check raised {type(exc).__name__}: {exc}"


def measure(runner: Runner, name: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics, with attempted and failed child counts."""
    jobs = WORKLOADS[name]
    setup_cmd = [sys.executable, str(BENCH / "workloads.py"), name, str(seed)]
    setups: list[Child] = []
    while len(setups) < SETUP_REPEATS or sum(s.wall_s for s in setups) < SETUP_MIN_S:
        setups.append(runner.child(setup_cmd)[0])
    passes: list[list[JobRun]] = []
    begin = time.monotonic()
    while True:
        passes.append(runner.pass_(jobs, seed))
        elapsed = time.monotonic() - begin
        # another pass only if one more of the same length still fits
        if min(seconds - elapsed, runner.remaining()) < elapsed / len(passes):
            break
    runs = [r for p in passes for r in p]
    report_runs(runs)
    failed = sum(not r.ok for r in runs) + sum(s.returncode != 0 for s in setups)
    attempted = len(runs) + len(setups)
    metrics = {
        "wall_s": sum(
            statistics.median(p[j].child.wall_s for p in passes) for j in range(len(jobs))
        ),
        "setup_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": max(r.child.peak_rss_mb for r in runs),
        "pass_rate": (attempted - failed) / attempted,
    }
    print(
        f"{name}: passes {len(passes)}, wall_s {metrics['wall_s']:.3f} s, "
        f"setup_s {metrics['setup_s']:.3f} s, peak_rss_mb {metrics['peak_rss_mb']:.1f} MB, "
        f"fail_rate {failed / attempted:.3f} ({failed}/{attempted})"
    )
    return metrics, attempted, failed


def trace(runner: Runner, name: str, seed: int) -> tuple[dict, int, int, float]:
    """Per-layer metrics, counts, and the tracing overhead in seconds."""
    from tracer import layer_metrics

    jobs = WORKLOADS[name]
    plain = runner.pass_(jobs, seed)
    traced = runner.pass_(jobs, seed, traced=True)
    for p, t in zip(plain, traced):
        if t.ok and t.stdout != p.stdout:
            t.ok, t.detail = False, "traced report differs from the untraced report"
    runs = plain + traced
    report_runs(runs)
    overhead = sum(t.child.wall_s for t in traced) - sum(p.child.wall_s for p in plain)
    metrics = layer_metrics([t.trace for t in traced if t.trace is not None])
    metrics["cli.report_bytes"] = sum(len(t.stdout) for t in traced)
    metrics["trace.overhead_s"] = overhead
    return metrics, len(runs), sum(not r.ok for r in runs), overhead


def report_runs(runs: list[JobRun]) -> None:
    for r in runs:
        print(json.dumps({
            "job": r.job.name, "traced": r.trace is not None, "ok": r.ok,
            "wall_s": r.child.wall_s, "peak_rss_mb": r.child.peak_rss_mb,
            "exit": r.child.returncode, "detail": r.detail,
        }))


def environment(seed: int, overhead: float | None) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
            cpu = next(models, None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "seed": seed,
        "tracing_overhead_s": overhead,
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        runner = Runner(Path(tmp), deadline)
        runner.child([sys.executable, "-c", "import acgraphs.cli"])  # warm the file cache
        if traced:
            metrics, attempted, failed, overhead = trace(runner, name, seed)
            wanted = spec["per_layer"]
        else:
            metrics, attempted, failed = measure(runner, name, seed, seconds)
            overhead = None
            wanted = spec["end_to_end"]
    print(json.dumps({"environment": environment(seed, overhead), "workload": name}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in wanted
        },
    }), flush=True)


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "acgraphs" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no acgraphs sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
