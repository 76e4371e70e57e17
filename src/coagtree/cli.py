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
import os
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
    empirical_measure,
    rng_for,
    simulate,
)
from .smoluchowski import MassSpectrum, solve
from .trees import LEAF, serialize, shape_node

EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_GELATION = 3


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("COAGTREE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"COAGTREE_SEED must be an integer, got {env!r}")
    return 0


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
            pairs.append((float(row[0]), float(row[1])))
    return MassSpectrum.from_pairs(pairs)


def _write_events(log, outdir: Path) -> list:
    events_path = outdir / "events.csv"
    trees_path = outdir / "trees.txt"
    from .trees import hist_leaf, hist_node

    built = {i: hist_leaf(m, label=i) for i, m in enumerate(log.config.masses)}
    with open(events_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_index", "time", "left_serial", "right_serial"])
        for k, e in enumerate(log.events):
            writer.writerow([k, repr(e.time), built[e.left].serial,
                             built[e.right].serial])
            built[e.node] = hist_node(e.time, built.pop(e.left), built.pop(e.right))
    with open(trees_path, "w") as fh:
        for tree in built.values():
            fh.write(serialize(tree) + "\n")
    return [events_path, trees_path]


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    kernel = _resolve_kernel(args.kernel)
    outdir = Path(args.out)
    cfg = SimConfig.monodisperse(args.n, kernel, args.t, mass=args.mass,
                                 seed=seed, construction=args.construction,
                                 allow_gelation=args.allow_gelation)
    config = {
        "n": args.n, "mass": args.mass, "kernel": args.kernel, "t": args.t,
        "construction": args.construction, "replicas": args.replicas,
    }
    outputs = [outdir / "events.csv", outdir / "trees.txt"]
    _write_manifest(outdir, "simulate", config, seed, [], outputs)
    if args.replicas == 1:
        log = simulate(cfg)
        _write_events(log, outdir)
    else:
        for r in range(args.replicas):
            log = simulate(cfg, rng_for(seed, r))
            sub = outdir / f"replica-{r:04d}"
            sub.mkdir(exist_ok=True)
            _write_events(log, sub)
    return 0


def cmd_solve(args) -> int:
    seed = _resolve_seed(args)
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
    _write_manifest(outdir, "solve", config, seed, inputs, [out_csv])
    path = solve(mu0, kernel, args.t, tol=args.tol, k_max=args.k_max,
                 allow_gelation=args.allow_gelation)
    sample_times = np.linspace(0.0, args.t, args.samples)
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "mass", "weight"])
        for t in sample_times:
            w = path.weights_at(t)
            for m, c in zip(path.masses, w):
                if c > 0:
                    writer.writerow([repr(float(t)), repr(float(m)), repr(float(c))])
    return 0


def cmd_limit(args) -> int:
    seed = _resolve_seed(args)
    kernel = _resolve_kernel(args.kernel)
    outdir = Path(args.out)
    mu0 = _read_mu0(args.mu0) if args.mu0 else MassSpectrum.monodisperse()
    config = {"kernel": args.kernel, "t": args.t, "tol": args.tol,
              "max_leaves": args.max_leaves, "mu0": args.mu0 or "monodisperse"}
    out_csv = outdir / "limit.csv"
    manifest_args = (outdir, "limit", config, seed,
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
        for shape, masses, coef, (val, err, _, one_err) in limit_measure.terms(
                ConstantOne(), args.max_leaves, path, kernel, mu0, args.t,
                tol=args.tol):
            writer.writerow([
                shape.serial, ";".join(repr(m) for m in masses),
                repr(coef * val), repr(coef * err)])
            n_terms += 1
            max_error = max(max_error, err, one_err)
            unconverged += max(err, one_err) > 0.1 * args.tol
    # the time integrals' own errors, before the coefficient in limit.csv
    counters = {"terms": n_terms, "max_error": max_error,
                "unconverged": unconverged}
    timings = {"solve_s": solved - start, "terms_s": time.perf_counter() - solved}
    _write_manifest(*manifest_args, counters=counters, timings=timings)
    return 0


def cmd_lln(args) -> int:
    seed = _resolve_seed(args)
    outdir = Path(args.out)
    with open(args.plan) as fh:
        raw = json.load(fh)
    kernel = _resolve_kernel(raw.get("kernel", "constant"))
    mu0 = MassSpectrum.from_pairs(raw.get("mu0", [[1.0, 1.0]]))
    functionals = []
    for spec in raw.get("functionals", [{"type": "leaf"}]):
        functionals.append(_build_functional(spec))
    plan = lln_harness.ExperimentPlan(
        kernel=kernel, mu0=mu0, t=float(raw.get("t", 2.0)),
        functionals=tuple(functionals),
        n_ladder=tuple(raw.get("n_ladder", [100, 1000, 10000])),
        replicas=tuple(raw.get("replicas", [20000, 2000, 200])),
        seed=int(raw.get("seed", seed)),
        tau_max_leaves=int(raw.get("tau_max_leaves", 4)),
        quad_tol=float(raw.get("quad_tol", 1e-8)),
        jobs=args.jobs,
    )
    out_json = outdir / "report.json"
    out_text = outdir / "report.txt"
    _write_manifest(outdir, "lln", raw, plan.seed, [args.plan],
                    [out_json, out_text])
    report = lln_harness.run_lln(plan)
    out_json.write_text(report.to_json() + "\n")
    out_text.write_text(report.to_text() + "\n")
    print(report.to_text())
    return 0 if report.passed else EXIT_FAIL


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
    seed = _resolve_seed(args)
    outdir = Path(args.out)
    config = {"n": 128, "kernels": [k for k, _ in GALLERY],
              "horizons": {k: t for k, t in GALLERY}}
    outputs = [outdir / f"gallery-{name}.txt" for name, _ in GALLERY]
    _write_manifest(outdir, "gallery", config, seed, [], outputs)
    for (name, horizon), out in zip(GALLERY, outputs):
        kernel = builtin(name)
        cfg = SimConfig.monodisperse(128, kernel, horizon, seed=seed)
        log = simulate(cfg)
        m = empirical_measure(log, horizon)
        with open(out, "w") as fh:
            for tree in m.atoms:
                fh.write(serialize(tree) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="coagtree",
        description="Coagulation simulation, mean-field solving, and limit "
                    "historical measure evaluation")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (fallback: COAGTREE_SEED env, then 0)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--allow-gelation", action="store_true",
                       help="override the gelation-horizon guard")

    p = sub.add_parser("simulate", help="run the stochastic process")
    common(p)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--n", type=int, default=128)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--construction", choices=["direct", "coupled"],
                   default="direct")
    p.add_argument("--replicas", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("solve", help="solve the mean-field equation")
    common(p)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--mu0", default=None, help="CSV of mass,weight rows")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--k-max", type=int, default=256)
    p.add_argument("--samples", type=int, default=21)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("limit", help="evaluate the limit measure by shape")
    common(p)
    p.add_argument("--kernel", default="constant")
    p.add_argument("--mu0", default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-leaves", type=int, default=4)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("lln", help="run a law-of-large-numbers experiment plan")
    common(p)
    p.add_argument("plan", help="JSON plan file")
    p.add_argument("--jobs", type=int, default=1)
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
        print(f"error: {e}", file=sys.stderr)
        return EXIT_GELATION
    except (ConfigError, KernelError, ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
