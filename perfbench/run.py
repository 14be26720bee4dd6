"""orthosym benchmark: end-to-end and per-layer measurements of the CLI.

Run from the root of a source checkout (the directory holding ``src/``)::

    python3 perfbench/run.py --workload twirl-d3K3 --seed 1 --seconds 40 --trace 0

``--trace 0`` times real ``python -m orthosym ...`` invocations, one at a
time in a closed loop, each in a fresh child process and each followed by a
set-up child that only imports ``orthosym.cli``, until one more pair would
likely end after ``--seconds`` (at least one).  It reports the lower
quartile of the invocations' wall times, their median peak RSS and the
median set-up time.  Set-up children are spread over the whole run, like the
invocations, so that both see the same mix of fast and slow stretches of a
shared host.  Why the lower quartile and not the median is in ``README.md``.

``--trace 1`` alternates one untraced invocation with one traced in-process
invocation (``perfbench/traced.py``) for ``--seconds`` and reports the
per-layer metrics: medians of the traced runs' span times and their exact
counts, plus the tracing overhead, traced minus untraced wall time.

Every invocation's output is checked against an independent reference
(``perfbench/reference.py``); a nonzero exit or a wrong output counts as
failed.  Inputs are generated from ``--seed`` (``perfbench/inputs.py``) and
their generation is not timed.  Children run with BLAS pinned to one thread.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs the workloads in turn, each ending with its own JSON
line.  ``--size toy`` shrinks every workload for the harness self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402
from traced import PER_LAYER  # noqa: E402

WORKLOADS = ("scan-d2K2", "twirl-d3K3", "verify-default")
#: Scan lattice resolution: 12,870 points for d=2, K=2.
SCAN_GRID = 8
#: Where per-run inputs and outputs live, relative to the checkout root.
WORK_ROOT = ".bench_work"
#: Every run must end within this many seconds of its start.
RUN_DEADLINE_S = 170
BLAS_THREADS = "1"


@dataclass
class Job:
    """One workload, ready to run: CLI arguments plus an output check."""

    argv: list[str]
    data_file: str | None  # file the CLI writes its data to; None means stdout
    check: Callable[[bytes], "str | None"]
    input_sizes: dict[str, int] = field(default_factory=dict)  # input file -> bytes


def prepare(workload: str, seed: int, toy: bool, work: str) -> Job:
    """Generate the workload's inputs and build its reference check.

    ``scan-d2K2`` and ``verify-default`` take no input files: the lattice
    and the verify battery (default seed 8191) are fixed, so the seed only
    varies the twirl input.
    """
    if workload == "scan-d2K2":
        d, K, grid = 2, 2, (3 if toy else SCAN_GRID)
        csv = os.path.join(work, "scan.csv")
        argv = ["scan", "--d", str(d), "--K", str(K), "--grid", str(grid), "--out", csv]
        expected = reference.scan_csv(d, K, grid)
        return Job(argv, csv, lambda data: reference.check_scan(data, expected))
    if workload == "twirl-d3K3":
        d, K = (2, 2) if toy else (3, 3)
        path = os.path.join(work, f"state_d{d}K{K}.json")
        size = inputs.write_state(path, d, K, seed)
        rho = inputs.wishart_state(d, K, seed)
        return Job(
            ["twirl", "--d", str(d), "--K", str(K), "--state", path], None,
            lambda data: reference.check_twirl(data, d, K, rho), {path: size},
        )
    if workload == "verify-default":
        combos = ((2, 1),) if toy else ((2, 1), (2, 2), (3, 1))
        argv = ["verify", "--d", "2", "--K", "1"] if toy else ["verify"]
        return Job(argv, None, lambda data: reference.check_verify(data, combos))
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Spawns children one at a time, times them and checks their outputs."""

    def __init__(self, job: Job, work: str, deadline: float) -> None:
        self.job = job
        self.work = work
        self.deadline = deadline
        self.stdout = os.path.join(work, "stdout.txt")
        self.env = dict(os.environ)
        self.env.pop("ORTHOSYM_SEED", None)
        self.env["PYTHONPATH"] = os.path.abspath("src")
        self.env["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
        self.env["OMP_NUM_THREADS"] = BLAS_THREADS
        self.env["MKL_NUM_THREADS"] = BLAS_THREADS
        self.verdicts: dict[str, str | None] = {}  # output sha256 -> check result
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def spawn(self, cmd: list[str]) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, peak RSS in MB)."""
        timeout = int(self.deadline - perf_counter())
        if timeout < 1:
            raise TimeoutError("run deadline reached")

        def on_alarm(signum, frame):
            raise TimeoutError(f"{cmd[1:4]} still running at the run deadline")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        with open(self.stdout, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, env=self.env)
            signal.alarm(timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
                wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def record(self, code: int, data_file: str) -> None:
        """Count one attempted invocation and check its output."""
        self.attempted += 1
        if code != 0:
            error = f"exit code {code}"
        else:
            with open(data_file, "rb") as fh:
                data = fh.read()
            digest = hashlib.sha256(data).hexdigest()
            if digest not in self.verdicts:
                self.verdicts[digest] = self.job.check(data)
            error = self.verdicts[digest]
        if error is not None:
            self.failed += 1
            self.errors.append(error)

    def invoke(self) -> tuple[float, float]:
        """One untraced CLI invocation: (wall seconds, peak RSS in MB)."""
        code, wall, rss = self.spawn([sys.executable, "-m", "orthosym", *self.job.argv])
        self.record(code, self.job.data_file or self.stdout)
        return wall, rss

    def invoke_traced(self) -> tuple[float, dict, list]:
        """One traced in-process invocation: (wall seconds, metrics, spans)."""
        data = os.path.join(self.work, "traced_stdout.txt")
        cmd = [sys.executable, os.path.join(HERE, "traced.py"), "--stdout", data, "--",
               *self.job.argv]
        code, wall, _ = self.spawn(cmd)
        with open(self.stdout) as fh:
            lines = fh.read().splitlines()
        result = json.loads(lines[-1]) if code == 0 and lines else {"exit": code}
        self.record(result["exit"], self.job.data_file or data)
        return wall, result.get("metrics", {}), result.get("spans", [])

    def setup(self) -> float:
        """One set-up child that only imports ``orthosym.cli``: wall seconds."""
        code, wall, _ = self.spawn([sys.executable, "-c", "import orthosym.cli"])
        if code != 0:
            raise RuntimeError(f"import orthosym.cli exited with {code}")
        return wall


def environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']}-{blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
        f"blas threads {BLAS_THREADS}, nproc {os.cpu_count()}, "
        f"affinity {len(os.sched_getaffinity(0))}, machine {platform.machine()}"
    )


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"n={len(values)}, p25={q1:.6g}, p75={q3:.6g}, min={min(values):.6g}, max={max(values):.6g}"


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def measure_untraced(runner: Runner, seconds: float) -> dict:
    runner.setup()  # untimed warm-up of the page and bytecode caches
    walls, rss, setup = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(
        w + s for w, s in zip(walls, setup)
    ) <= seconds:
        wall, peak = runner.invoke()
        walls.append(wall)
        rss.append(peak)
        setup.append(runner.setup())
    metrics = {
        "wall_p25_s": (lower_quartile(walls), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    print(f"wall_p25_s {metrics['wall_p25_s'][0]:.6f} s (median "
          f"{statistics.median(walls):.6f} s, {spread(walls)})")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.3f} MB ({spread(rss)})")
    print(f"setup_s {metrics['setup_s'][0]:.6f} s ({spread(setup)})")
    print(f"fail_frac {runner.failed / runner.attempted:.6g} ratio ({runner.failed} of "
          f"{runner.attempted} invocations)")
    return metrics


def measure_traced(runner: Runner, seconds: float) -> dict:
    plain, walls, samples, spans = [], [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start + statistics.median(
        p + w for p, w in zip(plain, walls)
    ) <= seconds:
        plain.append(runner.invoke()[0])
        wall, metrics, spans = runner.invoke_traced()
        walls.append(wall)
        samples.append(metrics)
    out = {}
    for name, (unit, _, _) in PER_LAYER.items():
        values = [s[name] for s in samples if name in s]
        out[name] = (statistics.median(values) if values else float("nan"), unit)
    out["trace.overhead_s"] = (statistics.median(walls) - statistics.median(plain), "s")
    print(f"traced wall {statistics.median(walls):.6f} s ({spread(walls)}), untraced "
          f"{statistics.median(plain):.6f} s ({spread(plain)})")
    print("spans of the last traced invocation, by self time:")
    print(f"  {'parent':34} {'name':38} {'calls':>9} {'total_s':>10} {'self_s':>10}")
    for parent, name, calls, total, self_s in sorted(spans, key=lambda s: -s[4])[:25]:
        print(f"  {parent:34} {name:38} {calls:9d} {total:10.4f} {self_s:10.4f}")
    for name, (value, unit) in out.items():
        print(f"{name} {value:.6g} {unit}")
    return out


def run_workload(workload: str, args: argparse.Namespace) -> None:
    deadline = perf_counter() + RUN_DEADLINE_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        print(f"environment: {environment()}")
        job = prepare(workload, args.seed, args.size == "toy", work)
        print(f"workload {workload} seed {args.seed} size {args.size}: "
              f"orthosym {' '.join(job.argv)}")
        for path, size in job.input_sizes.items():
            print(f"input {os.path.basename(path)} {size} bytes")
        runner = Runner(job, work, deadline)
        metrics = (measure_traced if args.trace else measure_untraced)(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in runner.errors[:5]:
        print(f"failed invocation: {error}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "orthosym", "cli.py")):
        print("error: run from the root of an orthosym checkout (no src/orthosym here)",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
