"""Benchmark entry point for coagtree.

    python3 perfbench/run.py --workload {sim,limit,lln} --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/`` of the
checkout the script lives in.  Set-up (importing the package and building the
workload's inputs) is timed in fresh child processes.  The workload then runs
complete passes until ``--seconds`` have elapsed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics instead, from untraced passes alternated with traced ones
plus the microbenchmarks.  A record of the run (provenance, pass and
reference-task times, failed checks and the spans of the traced pass) is
written to ``perfbench/out/``.  ``--size tiny`` shrinks every workload for the
self-test (``perfbench/selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = {"full": 3, "tiny": 1}
LAYERS = ("bench", "kernels", "simulate", "trees", "smoluchowski", "limit", "lln", "cli")
LIMIT_CASES = ("mono_tau4", "bi_tau3", "additive_box_tau3")
# A reference round every half second of a pass costs about 11% of its time.
PROBE_EVERY_S = 0.5
# One core per run: a second BLAS thread competes with the other tenants of a
# shared 2-core host and makes pass times noisier.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("sim", "limit", "lln"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-probe", action="store_true",
                   help="time import + input building once and exit (internal)")
    return p.parse_args(argv)


def metric_spec(trace: int) -> dict:
    """Metric name -> unit, for the metrics this mode must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def setup_probe(args, workdir: Path) -> None:
    t0 = perf_counter()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](workdir, args.size, args.seed)
    print(json.dumps({"setup_s": perf_counter() - t0}))


def timed_setups(args) -> list:
    """Set-up time of the workload in fresh processes, one sample each."""
    samples = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size]
    for _ in range(SETUP_PROBES[args.size]):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def git_rev():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_rev": git_rev(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
    }


def reference_round() -> float:
    """Seconds of one round of a fixed task that does not touch coagtree.

    A round (about 0.06 s) is a float loop in the interpreter and numpy work
    (sin and an in-place sort) on arrays small enough to stay in cache, the
    two kinds of work the workloads are made of.  It allocates no fresh pages
    and no object that the cyclic garbage collector tracks, so its time does
    not depend on what the workload left on the heap, only on the host's
    speed at that moment.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 8_000)
    y = np.empty_like(x)
    t0 = perf_counter()
    acc = 0.0
    for i in range(200_000):
        acc += (i % 7) * 0.5 - (i % 3)
    for _ in range(160):
        np.multiply(x, 37.0, out=y)
        np.sin(y, out=y)
        y += x
        y.sort()
    return perf_counter() - t0


def run_passes(args, workload, checks):
    """Run passes until time is up.

    With --trace 0 every pass samples the host's speed as it runs (see
    ``ProbedTimer``) and yields the ratio of its work time to the median
    reference round taken during it.  With --trace 1 untraced and traced passes
    alternate and nothing is sampled.
    """
    from tracing import ProbedTimer, Timer, Tracer

    untraced, traced, relative = [], [], []
    start = perf_counter()
    k = 0
    while True:
        if args.trace:
            rec = Tracer() if k % 2 else Timer()
        else:
            rec = ProbedTimer(reference_round, PROBE_EVERY_S)
        index = k // 2 if args.trace else k  # a traced pass repeats its untraced twin
        t0 = perf_counter()
        if args.trace:
            with rec.span("pass", "bench"):
                workload.run(rec, checks, index)
        else:
            with rec.sampling(), rec.span("pass", "bench"):
                workload.run(rec, checks, index)
        wall = perf_counter() - t0
        if k == 0:
            # later passes only add allocator growth that depends on their number
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec.traced:
            traced.append((wall, rec))
        else:
            if not args.trace:
                wall -= rec.probe_wall
                relative.append(wall / statistics.median(rec.probes))
            untraced.append((wall, rec))
        k += 1
        if perf_counter() - start >= args.seconds and (traced or not args.trace):
            return untraced, traced, relative, peak_rss_mb


def events_per_s(recorders) -> float:
    events = sum(r.values["simulate.events"] for r in recorders)
    busy = sum(r.totals[name] for r in recorders for name in (
        "simulate.simulate", "simulate.empirical_measure", "simulate.evaluate_functional"))
    return events / busy if busy else 0.0


def end_to_end(relative, setups, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "wall_rel": statistics.median(relative),
        "peak_rss_mb": peak_rss_mb,
    }


def median_pass(passes):
    """The (wall, recorder) pair of median wall time (the lower one of two)."""
    return sorted(passes, key=lambda wr: wr[0])[(len(passes) - 1) // 2]


def per_layer(untraced, traced, replay, replay_s, checks) -> dict:
    """Per-layer metrics.

    Stage times and results come from the untraced passes (median over
    passes) plus the lln replay; self times, call counts and spans come from
    the traced pass of median length.
    """
    timers = [rec for _, rec in untraced]
    wall, tr = median_pass(traced)
    extra = [replay] if replay is not None else []

    def stage(name):
        return (statistics.median(r.totals[name] for r in timers)
                + sum(r.totals[name] for r in extra))

    def value(name):
        return (statistics.median(r.values[name] for r in timers)
                + sum(r.values[name] for r in extra))

    def count(name):
        return (statistics.median(r.counts[name] for r in timers)
                + sum(r.counts[name] for r in extra))

    self_total = sum(tr.self_s.values())
    checks.check("self times add up to the traced pass", abs(self_total - wall) <= 1e-3,
                 f"{self_total:.6f} s of self time in a {wall:.6f} s pass")

    traced_wall = statistics.median(w for w, _ in traced)
    untraced_wall = statistics.median(w for w, _ in untraced)
    out = {
        "bench.wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.wall_s": traced_wall,
        "trace.spans": len(tr.spans),
    }
    out.update({f"self_s.{layer}": tr.self_s[layer] for layer in LAYERS})

    out["kernels.evaluate.calls"] = tr.counts["kernels.evaluate"]
    out["kernels.evaluate.pairs"] = tr.pairs

    events = value("simulate.events")
    sim_s = stage("simulate.simulate")
    out.update({
        "simulate.simulate.s": sim_s,
        "simulate.events": events,
        "simulate.us_per_event": 1e6 * sim_s / events if events else 0.0,
        "simulate.events_per_s": events_per_s(timers + extra),
        "simulate.empirical_measure.s": stage("simulate.empirical_measure"),
        "simulate.empirical_measure.atoms": value("simulate.empirical_measure.atoms"),
        "simulate.evaluate_functional.s": stage("simulate.evaluate_functional"),
        "simulate.evaluate_functional.calls": count("simulate.evaluate_functional"),
        "trees.serialize.s": stage("trees.serialize"),
        "trees.parse.s": stage("trees.parse"),
        "trees.forest_bytes": value("trees.forest_bytes"),
        "smoluchowski.solve.s": stage("smoluchowski.solve"),
        "smoluchowski.lattice_points": value("smoluchowski.lattice_points"),
        "smoluchowski.mass_leak_rel": value("smoluchowski.mass_leak_rel"),
        "smoluchowski.survival_exponent.calls": tr.counts["smoluchowski.survival_exponent"],
        "limit.pushforward_check.s": stage("limit.pushforward_check"),
        "limit.pushforward_check.max_discrepancy":
            value("limit.pushforward_check.max_discrepancy"),
        "cli.main.simulate.s": stage("cli.main.simulate"),
        "cli.main.limit.s": stage("cli.main.limit"),
        "cli.bytes_written": value("cli.bytes_written"),
    })
    for case in LIMIT_CASES:
        out[f"limit.functional.{case}.s"] = stage(f"limit.functional.{case}")
        for field in ("error", "tail_bound"):
            out[f"limit.functional.{case}.{field}"] = value(f"limit.functional.{case}.{field}")

    run_lln_s = stage("lln.run_lln")
    out.update({
        "lln.run_lln.s": run_lln_s,
        "lln.survival_test.s": stage("lln.survival_test"),
        "lln.jump_density_test.s": stage("lln.jump_density_test"),
        "lln.self_s": run_lln_s - replay_s if replay else 0.0,
    })
    return out


def replica_percentiles(per_replica) -> dict:
    out = {}
    for n in (100, 300, 1000):
        times = per_replica.get(n, [])
        out[f"lln.replica_p50_ms.N{n}"] = statistics.median(times) if times else 0.0
    times = sorted(per_replica.get(100, []))
    out["lln.replica_p95_ms.N100"] = (
        statistics.quantiles(times, n=20)[-1] if len(times) >= 2 else 0.0)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coagtree" / "__init__.py").is_file():
        print(f"error: no coagtree package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREADED)  # before numpy loads, here and in set-up probes
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args, workdir)
            return 0
        setups = [] if args.trace else timed_setups(args)
        from workloads import WORKLOADS, Checks

        import coagtree

        if Path(coagtree.__file__).resolve().parent != SRC / "coagtree":
            print(f"error: imported coagtree from {coagtree.__file__}", file=sys.stderr)
            return 2
        checks = Checks()
        workload = WORKLOADS[args.workload](workdir, args.size, args.seed)
        untraced, traced, relative, peak_rss_mb = run_passes(args, workload, checks)
        record = {"provenance": provenance(args), "setup_s_samples": setups,
                  "untraced_wall_s": [w for w, _ in untraced],
                  "traced_wall_s": [w for w, _ in traced],
                  "reference_round_s": [] if args.trace else [
                      rec.probes for _, rec in untraced]}
        if args.trace:
            import micro
            from tracing import Tracer

            replay, per_replica, replay_s = None, {}, 0.0
            if args.workload == "lln":
                replay = Tracer()
                per_replica, replay_s = workload.replay(replay, checks)
                record["replay_spans"] = replay.span_records()
            metrics = per_layer(untraced, traced, replay, replay_s, checks)
            metrics.update(replica_percentiles(per_replica))
            metrics.update(micro.run(workdir, args.size == "tiny"))
            chosen = median_pass(traced)[1]
            record["spans"] = chosen.span_records()
            record["hot_calls"] = {name: {"calls": chosen.counts[name],
                                          "seconds": chosen.totals[name]}
                                   for name in ("kernels.evaluate",
                                                "smoluchowski.survival_exponent")}
        else:
            metrics = end_to_end(relative, setups, peak_rss_mb)

        units = metric_spec(args.trace)
        if set(units) != set(metrics):
            print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
                  "BENCHMARK.json", file=sys.stderr)
            return 3
        result = {
            "correct": checks.failed == 0,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units},
        }
        record.update(result, errors=dict(checks.errors), failures=checks.failures)
        out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_file.write_text(json.dumps(record, indent=1) + "\n")
        for failure in checks.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
