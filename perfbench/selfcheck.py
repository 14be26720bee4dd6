"""Fast self-check of the benchmark harness.

Run from the checkout root::

    python3 perfbench/selfcheck.py

It validates the shape of ``BENCHMARK.json`` (keys, name and unit syntax,
bounds), runs every workload at toy size once untraced and twice traced, and
checks that each run is correct, that it emits exactly the metric names and
units ``BENCHMARK.json`` lists, and that the traced counts repeat exactly.  Last, it checks that ``run.py`` refuses to run in a
directory holding only ``BENCHMARK.json`` and the benchmark's own files.
Takes about a minute; exits 1 and lists the problems when any check fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORK_ROOT, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")
EXACT_UNITS = ("count", "bytes", "ratio")


def check_spec(spec: dict) -> list[str]:
    """Problems with the shape of ``BENCHMARK.json``."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
    paths = spec["paths"]
    if not 1 <= len(paths) <= 16 or any(
        not PATH.fullmatch(p) or p.startswith("/") or ".." in p.split("/") for p in paths
    ):
        problems.append(f"bad paths {paths}")
    cmd = spec["command"]
    if len(cmd) > 32 or any(len(arg) > 200 or arg.startswith("/") or ".." in arg for arg in cmd):
        problems.append(f"bad command {cmd}")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append(f"run_seconds {spec['run_seconds']} is not a whole number in 1..60")
    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, want 2 to 8")
    for w in workloads:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"bad workload entry {w}")
    if [w["name"] for w in workloads] != list(WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    names = [w["name"] for w in workloads]
    for section, keys, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        if not 1 <= len(spec[section]) <= limit:
            problems.append(f"{section} has {len(spec[section])} metrics")
        for m in spec[section]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
                problems.append(f"bad {section} entry {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                problems.append(f"bound of {m['name']} outside (0, 0.25]")
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME.fullmatch(n) or names.count(n) > 1]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should have the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json is larger than 64 KiB")
    return problems


def run(spec: dict, workload: str, trace: int, cwd: str = ".") -> tuple[int, str]:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "toy"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout


def check_result(spec: dict, workload: str, trace: int, code: int, stdout: str) -> list[str]:
    """Problems with one run's exit code and final JSON line."""
    where = f"{workload} --trace {trace}"
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return [f"{where}: exit {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    return problems


def exact_counts(stdout: str) -> dict:
    metrics = json.loads(stdout.strip().splitlines()[-1])["metrics"]
    return {n: m["value"] for n, m in metrics.items() if m["unit"] in EXACT_UNITS}


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = check_spec(spec)
    for workload in WORKLOADS:
        code, out = run(spec, workload, 0)
        problems += check_result(spec, workload, 0, code, out)
        traced = []
        for _ in range(2):
            code, out = run(spec, workload, 1)
            problems += check_result(spec, workload, 1, code, out)
            traced.append(out)
        if not problems and exact_counts(traced[0]) != exact_counts(traced[1]):
            problems.append(f"{workload}: traced counts differ between two runs")
        print(f"{workload}: {'ok' if not problems else 'problems so far'}")

    os.makedirs(WORK_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=WORK_ROOT)
    try:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(spec, WORKLOADS[0], 0, cwd=bare)
        if code == 0 or out.strip():
            problems.append(f"without src/ run.py exited {code} and printed {out[-200:]!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"problem: {problem}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
