"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks BENCHMARK.json's shape, then runs every workload untraced and traced
at ``--size tiny`` (and untraced again at a second seed), and checks that each
run exits 0 and prints a result line with exactly the metrics BENCHMARK.json
names, as finite numbers with their units.  Finally it runs the benchmark in a
directory that holds only BENCHMARK.json and the benchmark's files, where it
must fail without printing a result.  Failed reference checks are reported as
they stand.  Exits 1 if anything is wrong.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUNS = [("sim", 0, 0), ("limit", 0, 0), ("lln", 0, 0),
        ("sim", 0, 1), ("limit", 0, 1), ("lln", 0, 1),
        ("sim", 1, 0), ("limit", 1, 0), ("lln", 1, 0)]  # (workload, trace, seed)


def spec_problems(spec: dict) -> list:
    problems = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                     "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    problems += [f"bad name {n!r}" for n in names if not NAME.match(n)]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"end-to-end metric {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"per-layer metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            problems.append(f"metric {m['name']} unit/better")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or (setup[0]["unit"], setup[0]["better"]) != ("s", "lower"):
        problems.append("no setup_s end-to-end metric in seconds, lower better")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}")
    return problems


def result_problems(stdout: str, units: dict) -> tuple:
    """(problems, result) for one run's standard output."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"], None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"], None
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"], None
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append("attempted/failed are not counts")
    if result["correct"] != (result["failed"] == 0):
        problems.append("correct disagrees with failed")
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(units))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if m.get("unit") != units.get(name):
            problems.append(f"{name} unit {m.get('unit')!r}")
    return problems, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = spec_problems(spec)
    units = {key: {m["name"]: m["unit"] for m in spec[key]}
             for key in ("end_to_end", "per_layer")}
    for workload, trace, seed in RUNS:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace),
                                 "--size", "tiny"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180)
        label = f"{workload} trace={trace} seed={seed}"
        if done.returncode != 0:
            problems.append(f"{label}: exit code {done.returncode}\n{done.stderr}")
            continue
        found, result = result_problems(
            done.stdout, units["per_layer" if trace else "end_to_end"])
        problems += [f"{label}: {p}" for p in found]
        if result is not None:
            print(f"{label}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            if result["failed"]:
                problems.append(f"{label}: failed checks\n{done.stderr}")

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns(
            "out", "__pycache__"))
        done = subprocess.run(spec["command"] + ["--workload", "sim", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("without the package the benchmark must fail silently")
        else:
            print(f"without the package: exit code {done.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
