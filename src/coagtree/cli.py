"""Command-line entry point: simulate, solve, limit, lln, gallery.

Every run writes a JSON manifest (resolved configuration, seed, input hashes,
output paths) before computing, so outputs are reproducible from the manifest
alone.  Exit codes: 0 success, 1 FAIL verdict, 2 configuration error,
3 gelation guard.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, limit as limit_measure, lln as lln_harness
from .kernels import BUILTIN_KERNELS, GelationError, KernelError, builtin, tabulated_kernel
from .simulate import (
    ConfigError,
    ConstantOne,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    rng_for,
    simulate,
)
from .smoluchowski import MassSpectrum, solve
from .trees import LEAF, history_text, shape_node

EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GELATION = 3


def _resolve_kernel(name: str):
    if name in BUILTIN_KERNELS:
        return builtin(name)
    if Path(name).exists():
        return tabulated_kernel(name)
    raise ConfigError(f"unknown kernel {name!r} and no such grid file")


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(outdir: Path, subcommand: str, config: dict, seed: int,
                    input_files: list, output_paths: list, **extra) -> Path:
    """Write ``manifest.json``; ``extra`` adds fields known after the run."""
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "input_hashes": {f: _sha256(f) for f in input_files},
        "outputs": [str(p) for p in output_paths],
        **extra,
    }
    path = outdir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _read_mu0(path: str) -> MassSpectrum:
    pairs = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lower() == "mass":
                continue
            if len(row) < 2:
                raise ConfigError(f"{path}: row {row!r} needs two columns, mass,weight")
            pairs.append((float(row[0]), float(row[1])))
    return MassSpectrum.from_pairs(pairs)


def _write_events(log, outdir: Path) -> list:
    events_path = outdir / "events.csv"
    trees_path = outdir / "trees.txt"
    children, forest = history_text(log.config.masses, log.events)
    with open(events_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_index", "time", "left_serial", "right_serial"])
        writer.writerows([k, repr(s), a, b]
                         for k, ((s, _, _), (a, b)) in enumerate(zip(log.events, children)))
    with open(trees_path, "w") as fh:
        fh.writelines(text + "\n" for text in forest)
    return [events_path, trees_path]


def cmd_simulate(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    outdir = Path(args.out)
    cfg = SimConfig.monodisperse(args.n, kernel, args.t, mass=args.mass,
                                 allow_gelation=args.allow_gelation)
    config = {"n": args.n, "mass": args.mass, "kernel": args.kernel, "t": args.t,
              "replicas": args.replicas}
    subdirs = [outdir / f"replica-{r:04d}" for r in range(args.replicas)]
    if args.replicas == 1:
        subdirs = [outdir]
    outputs = [sub / name for sub in subdirs for name in ("events.csv", "trees.txt")]
    manifest_args = (outdir, "simulate", config, args.seed, [], outputs)
    _write_manifest(*manifest_args)
    events, proposals, simulate_s, write_s = 0, 0, 0.0, 0.0
    for r, sub in enumerate(subdirs):
        start = time.perf_counter()
        log = simulate(cfg, rng_for(args.seed, r))
        simulated = time.perf_counter()
        sub.mkdir(exist_ok=True)
        _write_events(log, sub)
        simulate_s += simulated - start
        write_s += time.perf_counter() - simulated
        events += len(log.events)
        proposals += log.proposals
    counters = {"events": events, "proposals": proposals,
                "acceptance": events / proposals if proposals else None}
    timings = {"simulate_s": simulate_s, "write_s": write_s}
    _write_manifest(*manifest_args, counters=counters, timings=timings)
    return 0


def cmd_solve(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    outdir = Path(args.out)
    inputs = []
    if args.mu0:
        mu0 = _read_mu0(args.mu0)
        inputs.append(args.mu0)
    else:
        mu0 = MassSpectrum.monodisperse()
    config = {"kernel": args.kernel, "t": args.t, "tol": args.tol,
              "k_max": args.k_max, "mu0": args.mu0 or "monodisperse"}
    out_csv = outdir / "solution.csv"
    manifest_args = (outdir, "solve", config, args.seed, inputs, [out_csv])
    _write_manifest(*manifest_args)
    start = time.perf_counter()
    path = solve(mu0, kernel, args.t, tol=args.tol, k_max=args.k_max,
                 allow_gelation=args.allow_gelation)
    solved = time.perf_counter()
    sample_times = np.linspace(0.0, args.t, args.samples)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mass", "weight"])
        for t in sample_times:
            w = path.weights_at(t)
            for m, c in zip(path.masses, w):
                if c > 0:
                    writer.writerow([repr(float(t)), repr(float(m)), repr(float(c))])
    counters = {"lattice_points": len(path.masses), "mass_leak": path.leak,
                "solver_steps": path.steps, "solver_nfev": path.nfev}
    timings = {"solve_s": solved - start, "write_s": time.perf_counter() - solved}
    _write_manifest(*manifest_args, counters=counters, timings=timings)
    return 0


def cmd_limit(args) -> int:
    kernel = _resolve_kernel(args.kernel)
    outdir = Path(args.out)
    mu0 = _read_mu0(args.mu0) if args.mu0 else MassSpectrum.monodisperse()
    config = {"kernel": args.kernel, "t": args.t, "tol": args.tol,
              "max_leaves": args.max_leaves, "mu0": args.mu0 or "monodisperse"}
    out_csv = outdir / "limit.csv"
    manifest_args = (outdir, "limit", config, args.seed,
                     [args.mu0] if args.mu0 else [], [out_csv])
    _write_manifest(*manifest_args)
    start = time.perf_counter()
    path = solve(mu0, kernel, args.t, tol=min(args.tol, 1e-8),
                 allow_gelation=args.allow_gelation)
    solved = time.perf_counter()
    n_terms, max_error, unconverged = 0, 0.0, 0
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["shape_serial", "mass_assignment", "value", "error"])
        for shape, masses, coef, integral in limit_measure.terms(
                ConstantOne(), args.max_leaves, path, kernel, mu0, args.t,
                tol=args.tol):
            writer.writerow([
                shape.serial, ";".join(repr(m) for m in masses),
                repr(coef * integral.value), repr(coef * integral.error)])
            n_terms += 1
            max_error = max(max_error, integral.error, integral.one_error)
            unconverged += not integral.converged
    # the time integrals' own errors, before the coefficient in limit.csv
    counters = {"terms": n_terms, "max_error": max_error,
                "unconverged": unconverged, "mass_leak": path.leak,
                "solver_steps": path.steps, "solver_nfev": path.nfev}
    timings = {"solve_s": solved - start, "terms_s": time.perf_counter() - solved}
    _write_manifest(*manifest_args, counters=counters, timings=timings)
    return 0


# the keys a plan file may hold
PLAN_KEYS = ("kernel", "mu0", "t", "functionals", "n_ladder", "replicas", "seed",
             "tau_max_leaves", "quad_tol")


def cmd_lln(args) -> int:
    outdir = Path(args.out)
    with open(args.plan) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"{args.plan}: a plan must be a JSON object, "
                          f"got a {type(raw).__name__}")
    unknown = [key for key in raw if key not in PLAN_KEYS]
    if unknown:
        raise ConfigError(f"{args.plan}: unknown keys "
                          + ", ".join(f'"{key}"' for key in unknown))
    kernel_name = raw.get("kernel", "constant")
    if not isinstance(kernel_name, str):
        raise ConfigError(f'{args.plan}: "kernel" must be a name or a file name, '
                          f"got {kernel_name!r}")
    kernel = _resolve_kernel(kernel_name)

    def value(key, default, read):
        got = raw.get(key, default)
        try:
            return read(got)
        except (TypeError, ValueError) as e:
            raise ConfigError(f'{args.plan}: "{key}" cannot be {got!r}: {e}') from None

    fields = dict(
        kernel=kernel, mu0=value("mu0", [[1.0, 1.0]], MassSpectrum.from_pairs),
        t=value("t", 2.0, float),
        functionals=value("functionals", [{"type": "leaf"}], _build_functionals),
        n_ladder=value("n_ladder", [100, 1000, 10000], _integers),
        replicas=value("replicas", [20000, 2000, 200], _integers),
        seed=value("seed", args.seed, _integer),
        tau_max_leaves=value("tau_max_leaves", 4, _integer),
        quad_tol=value("quad_tol", 1e-8, float),
        jobs=args.jobs,
    )
    try:
        plan = lln_harness.ExperimentPlan(**fields)
    except ValueError as e:  # the plan's own checks
        raise ConfigError(f"{args.plan}: {e}") from None
    out_json = outdir / "report.json"
    out_text = outdir / "report.txt"
    manifest_args = (outdir, "lln", raw, plan.seed, [args.plan], [out_json, out_text])
    _write_manifest(*manifest_args)
    report = lln_harness.run_lln(plan)
    out_json.write_text(report.to_json() + "\n")
    out_text.write_text(report.to_text() + "\n")
    print(report.to_text())
    _write_manifest(*manifest_args, counters=report.counters, timings=report.timings)
    return 0 if report.passed else EXIT_FAIL


def _integer(value) -> int:
    # a JSON integer: int() would take 7.5 as 7, and true as 1
    if type(value) is not int:
        raise TypeError("need an integer")
    return value


def _integers(values) -> tuple:
    if not isinstance(values, list) or not all(type(x) is int for x in values):
        raise TypeError("need a list of integers")
    return tuple(values)


def _build_functionals(specs) -> tuple:
    if not isinstance(specs, list) or not all(isinstance(x, dict) for x in specs):
        raise TypeError("need a list of objects")
    return tuple(_build_functional(spec) for spec in specs)


def _build_functional(spec: dict):
    kind = spec.get("type", "leaf")
    if kind == "leaf":
        return ("leaf", ShapeIndicator(LEAF))
    if kind == "cherry":
        return ("cherry", ShapeIndicator(shape_node(LEAF, LEAF)))
    if kind == "cherry-box":
        box = spec.get("box", [0.0, 1.0])
        if not (isinstance(box, list) and len(box) == 2
                and all(isinstance(x, (int, float)) for x in box)):
            raise ConfigError(f'cherry-box needs "box": [lo, hi], two numbers; got {box!r}')
        lo, hi = box
        return (f"cherry-box[{lo},{hi}]",
                ShapeTimeBoxIndicator(shape_node(LEAF, LEAF), ((lo, hi),)))
    raise ConfigError(f"unknown functional type {kind!r}")


GALLERY = (
    ("constant", 5.0),
    ("product", 0.9),
    ("inverse-sum", 5.0),
)


def cmd_gallery(args) -> int:
    """One N=128 monodisperse run per built-in display kernel; trees to files."""
    outdir = Path(args.out)
    config = {"n": 128, "kernels": [k for k, _ in GALLERY],
              "horizons": {k: t for k, t in GALLERY}}
    outputs = [outdir / f"gallery-{name}.txt" for name, _ in GALLERY]
    _write_manifest(outdir, "gallery", config, args.seed, [], outputs)
    for (name, horizon), out in zip(GALLERY, outputs):
        kernel = builtin(name)
        cfg = SimConfig.monodisperse(128, kernel, horizon)
        log = simulate(cfg, rng_for(args.seed))
        with open(out, "w") as fh:
            fh.writelines(text + "\n" for text in history_text(cfg.masses, log.events)[1])
    return 0


def _count(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coagtree",
        description="Coagulation simulation, mean-field solving, and limit "
                    "historical measure evaluation")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, gelation=False):
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (default 0)")
        p.add_argument("--out", default=".", help="output directory")
        if gelation:  # only where the run reads it
            p.add_argument("--allow-gelation", action="store_true",
                           help="override the gelation-horizon guard")

    p = sub.add_parser("simulate", help="run the stochastic process")
    common(p, gelation=True)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--replicas", type=_count, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="solve the mean-field equation")
    common(p, gelation=True)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--mu0", default=None, help="CSV of mass,weight rows")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--k-max", type=int, default=256)
    p.add_argument("--samples", type=_count, default=21)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("limit", help="evaluate the limit measure by shape")
    common(p, gelation=True)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--mu0", default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-leaves", type=_count, default=4)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("lln", help="run a law-of-large-numbers experiment plan")
    common(p)
    p.add_argument("plan", help="JSON plan file")
    p.add_argument("--jobs", type=_count, default=1)
    p.set_defaults(func=cmd_lln)

    p = sub.add_parser("gallery", help="N=128 merger forests for each kernel")
    common(p)
    p.set_defaults(func=cmd_gallery)
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except GelationError as e:
        override = "; pass --allow-gelation to override" if "allow_gelation" in args else ""
        print(f"error: {e}{override}", file=sys.stderr)
        return EXIT_GELATION
    except (ConfigError, KernelError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
