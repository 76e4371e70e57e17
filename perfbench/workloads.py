"""The benchmark's three workloads: ``sim``, ``limit`` and ``lln``.

Each workload builds its inputs once (its set-up) and then runs passes.  A
pass is one complete, checked unit of work; ``wall_rel`` is the time of one
pass relative to a fixed reference task.  Every call into the package goes
through its public names, wrapped in a span of the layer (module) it belongs
to, so the traced run can attribute time per layer.  Every pass checks its
results against a reference, and each check is one operation.
"""

from __future__ import annotations

import csv
import math
import shutil
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

import coagtree as ct
from coagtree.cli import main as cli_main
from coagtree.kernels import tabulated_kernel

CHERRY = ct.shape_node(ct.LEAF, ct.LEAF)
CONSTANT = ct.builtin("constant")
ADDITIVE = ct.builtin("additive")
PRODUCT = ct.builtin("product")
MONO = ct.MassSpectrum.monodisperse()
BIDISPERSE = ct.MassSpectrum.from_pairs([(1.0, 0.5), (2.0, 0.5)])
QUAD_TOL = 1e-8

# "full" is the measured configuration; "tiny" runs every workload, check and
# span path in seconds for the self-test.
SIZES = {
    "full": {
        "sim_n": 10_000, "sim_tab_n": 1_000, "sim_cli_n": 10_000,
        "tau_mono": 4, "tau_bi": 3, "tau_box": 3, "pushforward_n": 4,
        "cli_max_leaves": 3,
        "lln_ladder": (100, 300, 1000), "lln_replicas": (200, 60, 30),
        "survival_replicas": 2000, "jump_replicas": 2000,
    },
    "tiny": {
        "sim_n": 300, "sim_tab_n": 100, "sim_cli_n": 300,
        "tau_mono": 3, "tau_bi": 2, "tau_box": 2, "pushforward_n": 3,
        "cli_max_leaves": 2,
        "lln_ladder": (100, 300, 1000), "lln_replicas": (30, 30, 30),
        "survival_replicas": 400, "jump_replicas": 400,
    },
}

# Fixed seeds of the statistical gates on ``lln``: a FAIL verdict then means
# a defect rather than the tests' own false-alarm rate.
LLN_SEED = 1004
SURVIVAL_SEED = 1007
JUMP_SEED = 1008


class Checks:
    """Reference checks and caught failures, each counted as one operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()  # exception type -> count
        self.failures = []  # human-readable descriptions

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def run(self, name: str, fn, *args):
        """Call ``fn``; an exception is recorded by type as a failed operation."""
        try:
            return fn(*args)
        except Exception as e:  # the benchmark keeps going and reports it
            self.attempted += 1
            self.failed += 1
            self.errors[type(e).__name__] += 1
            self.failures.append(f"{name}: {type(e).__name__}: {e}")
            return None


def write_tabulated_additive(path: Path) -> None:
    """CSV of x+y on the grid 2^0 .. 2^10; bilinear interpolation is exact on it."""
    grid = [float(2 ** k) for k in range(11)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "value"])
        for x in grid:
            for y in grid:
                writer.writerow([repr(x), repr(y), repr(x + y)])


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def replica(tr, checks: Checks, kernel, n: int, horizon: float, seed: int,
            index: int, stream: int, functionals: tuple) -> float:
    """simulate -> empirical_measure -> evaluate_functional for one replica.

    Returns the seconds these stages took, checks excluded.
    """
    t0 = perf_counter()
    with tr.span("simulate.SimConfig", "simulate"):
        cfg = ct.SimConfig.monodisperse(n, kernel, horizon)
    with tr.span("simulate.rng_for", "simulate"):
        rng = ct.rng_for(seed, index, stream)
    with tr.span("simulate.simulate", "simulate"):
        log = ct.simulate(cfg, rng)
    with tr.span("simulate.empirical_measure", "simulate"):
        m = ct.empirical_measure(log, horizon)
    values = []
    for f in functionals:
        with tr.span("simulate.evaluate_functional", "simulate"):
            values.append(ct.evaluate_functional(m, f))
    seconds = perf_counter() - t0
    events = len(log.events)
    tr.note("simulate.events", events)
    tr.note("simulate.empirical_measure.atoms", len(m.atoms))

    label = f"{kernel.name} N={n} replica {index}"
    checks.check(f"atoms = N - events ({label})", len(m.atoms) == n - events,
                 f"{len(m.atoms)} atoms, {events} events")
    mass_gap = abs(n * m.total_mass() - sum(cfg.masses))
    checks.check(f"mass conserved ({label})", mass_gap <= 1e-9 * n,
                 f"|N*mass - initial| = {mass_gap:.3e}")
    checks.check(f"functionals in [0, total weight] ({label})",
                 all(0.0 <= v <= m.total_weight + 1e-12 for v in values),
                 f"values {values}")
    return seconds


def solve(tr, mu0, kernel, t: float, tol: float = QUAD_TOL):
    """``solve`` in a span, noting lattice size and relative mass leak."""
    with tr.span("smoluchowski.solve", "smoluchowski"):
        path = ct.solve(mu0, kernel, t, tol=tol)
    m1_start = path.moment(1.0, 0.0)
    tr.note("smoluchowski.lattice_points", len(path.masses))
    tr.note_max("smoluchowski.mass_leak_rel",
                (m1_start - path.moment(1.0, path.t_end)) / m1_start)
    return tr.path(path)


class Sim:
    """Large-N merger histories: sampling, kernels and history building."""

    name = "sim"
    RUNS = ((CONSTANT, 2.0), (ADDITIVE, 1.0), (PRODUCT, 0.9))  # (kernel, horizon)

    def __init__(self, workdir: Path, size: str, seed: int):
        self.workdir = workdir
        self.size = SIZES[size]
        self.seed = seed
        self.functionals = (
            ct.ShapeIndicator(ct.LEAF),
            ct.ShapeIndicator(CHERRY),
            ct.ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),)),
            ct.MassCutoff(4),
        )
        table = workdir / "additive-table.csv"
        write_tabulated_additive(table)
        self.tabulated = tabulated_kernel(str(table), name="tabulated-additive")

    def run(self, tr, checks: Checks, k: int) -> None:
        n = self.size["sim_n"]
        for stream, (kernel, horizon) in enumerate(self.RUNS):
            checks.run(f"sim {kernel.name}", replica, tr, checks, tr.kernel(kernel),
                       n, horizon, self.seed, k, stream, self.functionals)
        checks.run("sim tabulated", self._tabulated, tr, checks, k)
        checks.run("sim cli", self._cli, tr, checks, k)

    def _tabulated(self, tr, checks: Checks, k: int) -> None:
        kernel = tr.kernel(self.tabulated)
        xs = np.arange(1.0, 1001.0)
        with tr.span("kernels.tabulated_row", "kernels"):
            row = kernel.evaluate(3.0, xs)
        err = float(np.max(np.abs(row - (3.0 + xs)) / (3.0 + xs)))
        checks.check("tabulated kernel reproduces x+y", err <= 1e-12,
                     f"max relative error {err:.3e}")
        replica(tr, checks, kernel, self.size["sim_tab_n"], 1.0, self.seed, k,
                len(self.RUNS), self.functionals)

    def _cli(self, tr, checks: Checks, k: int) -> None:
        n = self.size["sim_cli_n"]
        out = self.workdir / f"cli-simulate-{k}"
        argv = ["simulate", "--kernel", "constant", "--n", str(n), "--t", "2",
                "--seed", str(self.seed * 1000 + k), "--out", str(out)]
        try:
            with tr.span("cli.main.simulate", "cli"):
                rc = cli_main(argv)
            checks.check("cli simulate exit code 0", rc == 0, f"exit code {rc}")
            tr.note("cli.bytes_written", dir_bytes(out))
            text = (out / "trees.txt").read_text()
            lines = text.splitlines()
            tr.note("trees.forest_bytes", len(text.encode()))
            with tr.span("trees.parse", "trees"):
                parsed = [ct.parse(line) for line in lines]
            with tr.span("trees.serialize", "trees"):
                back = [ct.serialize(tree) for tree in parsed]
            bad = sum(a != b for a, b in zip(back, lines))
            checks.check("trees.txt lines round-trip", bad == 0,
                         f"{bad} of {len(lines)} lines differ")
            with open(out / "events.csv", newline="") as fh:
                events = sum(1 for _ in csv.reader(fh)) - 1
            checks.check("cli atoms = N - events", len(lines) == n - events,
                         f"{len(lines)} trees, {events} events")
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Limit:
    """Mean-field solve and limit functionals; no simulation."""

    name = "limit"

    def __init__(self, workdir: Path, size: str, seed: int):
        self.workdir = workdir
        self.size = SIZES[size]
        self.seed = seed
        self.cherry = ct.ShapeIndicator(CHERRY)
        self.box = ct.ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),))
        self.mu0_csv = workdir / "bidisperse.csv"
        self.mu0_csv.write_text("mass,weight\n1.0,0.5\n2.0,0.5\n")

    def _functional(self, tr, checks: Checks, case: str, f, tau: int, path,
                    kernel, mu0, t: float, expect=None):
        with tr.span(f"limit.functional.{case}", "limit"):
            res = ct.functional(f, tau, path, kernel, mu0, t, tol=QUAD_TOL)
        tr.note(f"limit.functional.{case}.error", res.error)
        tr.note(f"limit.functional.{case}.tail_bound", res.tail_bound)
        checks.check(f"{case} quadrature error <= tol", res.error <= QUAD_TOL,
                     f"error {res.error:.3e}")
        checks.check(f"{case} tail bound >= 0", res.tail_bound >= 0.0,
                     f"tail {res.tail_bound:.3e}")
        if expect is not None:
            checks.check(f"{case} = {expect}", abs(res.value - expect) <= 1e-6,
                         f"value {res.value:.10f}")

    def run(self, tr, checks: Checks, k: int) -> None:
        checks.run("limit constant", self._constant, tr, checks)
        checks.run("limit additive", self._additive, tr, checks)
        checks.run("limit cli", self._cli, tr, checks, k)

    def _constant(self, tr, checks: Checks) -> None:
        s = self.size
        kernel = tr.kernel(CONSTANT)
        t = 2.0
        path = solve(tr, MONO, kernel, t)
        # closed form from monodisperse unit data: c_k(t) = (t/2)^(k-1) / (1+t/2)^(k+1)
        closed = {"M0": 1.0 / (1.0 + t / 2.0)}
        closed.update({f"c{j}": (t / 2.0) ** (j - 1) / (1.0 + t / 2.0) ** (j + 1)
                       for j in (1, 2)})
        spectrum = path.spectrum_at(t)
        got = {"M0": path.moment(0.0, t), "c1": spectrum.weight_of(1.0),
               "c2": spectrum.weight_of(2.0)}
        for key, want in closed.items():
            checks.check(f"constant K {key}({t:g}) closed form",
                         abs(got[key] - want) <= 1e-6, f"{got[key]:.10f} vs {want}")
        cherry = closed["c2"]  # every mass-2 cluster is a cherry
        self._functional(tr, checks, "mono_tau4", self.cherry, s["tau_mono"], path,
                         kernel, MONO, t, expect=cherry)
        with tr.span("limit.pushforward_check", "limit"):
            rep = ct.pushforward_check(path, MONO, kernel, t, s["pushforward_n"])
        tr.note("limit.pushforward_check.max_discrepancy", rep.max_discrepancy)
        checks.check("pushforward discrepancy <= 1e-5", rep.max_discrepancy <= 1e-5,
                     f"{rep.max_discrepancy:.3e}")
        # with a constant kernel the shape dynamics ignore the masses
        path_bi = solve(tr, BIDISPERSE, kernel, t)
        self._functional(tr, checks, "bi_tau3", self.cherry, s["tau_bi"], path_bi,
                         kernel, BIDISPERSE, t, expect=cherry)

    def _additive(self, tr, checks: Checks) -> None:
        kernel = tr.kernel(ADDITIVE)
        path = solve(tr, MONO, kernel, 1.0)
        self._functional(tr, checks, "additive_box_tau3", self.box,
                         self.size["tau_box"], path, kernel, MONO, 1.0)

    def _cli(self, tr, checks: Checks, k: int) -> None:
        max_leaves = self.size["cli_max_leaves"]
        out = self.workdir / f"cli-limit-{k}"
        argv = ["limit", "--kernel", "constant", "--t", "2", "--max-leaves",
                str(max_leaves), "--mu0", str(self.mu0_csv), "--seed",
                str(self.seed), "--out", str(out)]
        try:
            with tr.span("cli.main.limit", "cli"):
                rc = cli_main(argv)
            checks.check("cli limit exit code 0", rc == 0, f"exit code {rc}")
            tr.note("cli.bytes_written", dir_bytes(out))
            with open(out / "limit.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            atoms = len(BIDISPERSE.masses)
            want = sum(atoms ** shape.n_leaves for shape in ct.shapes_up_to(max_leaves))
            checks.check("limit.csv has one row per (shape, assignment)",
                         len(rows) == want, f"{len(rows)} rows, want {want}")
            worst = max((float(r["error"]) for r in rows), default=math.inf)
            checks.check("limit.csv quadrature errors <= tol", worst <= QUAD_TOL,
                         f"worst error {worst:.3e}")
        finally:
            shutil.rmtree(out, ignore_errors=True)


class Lln:
    """The statistical harness: many small replicas, fixed cost per replica."""

    name = "lln"

    def __init__(self, workdir: Path, size: str, seed: int):
        self.size = SIZES[size]
        s = self.size
        self.functionals = (
            ("leaf", ct.ShapeIndicator(ct.LEAF)),
            ("cherry", ct.ShapeIndicator(CHERRY)),
            ("cherry-box", ct.ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),))),
        )
        self.plan_args = dict(
            mu0=MONO, t=2.0, functionals=self.functionals,
            n_ladder=s["lln_ladder"], replicas=s["lln_replicas"], seed=LLN_SEED,
            tau_max_leaves=2, jobs=1)
        self.plan = ct.ExperimentPlan(kernel=CONSTANT, **self.plan_args)

    def run(self, tr, checks: Checks, k: int) -> None:
        checks.run("lln run_lln", self._ladder, tr, checks)
        checks.run("lln finite-N", self._finite_n, tr, checks)

    def _ladder(self, tr, checks: Checks) -> None:
        plan = self.plan
        if tr.traced:
            plan = ct.ExperimentPlan(kernel=tr.kernel(CONSTANT), **self.plan_args)
        with tr.span("lln.run_lln", "lln"):
            report = ct.run_lln(plan)
        for name, _ in self.functionals:
            checks.check(f"run_lln verdict {name}", report.verdicts.get(name) == "PASS",
                         f"verdict {report.verdicts.get(name)}")

    def _finite_n(self, tr, checks: Checks) -> None:
        kernel = tr.kernel(CONSTANT)
        with tr.span("lln.survival_test", "lln"):
            surv = ct.survival_test(6, 1.0, kernel,
                                    replicas=self.size["survival_replicas"],
                                    seed=SURVIVAL_SEED)
        checks.check("survival_test passes", surv.passed,
                     f"{surv.sigma_distance:.2f} sigma")
        with tr.span("lln.jump_density_test", "lln"):
            jump = ct.jump_density_test(3, (1.0, 1.0, 2.0), kernel, 1.0,
                                        replicas=self.size["jump_replicas"],
                                        seed=JUMP_SEED)
        checks.check("jump_density_test passes", jump.passed,
                     f"chi2 p={jump.chi2_pvalue:.4f}, pair p={jump.pair_pvalue:.4f}")

    def replay(self, tr, checks: Checks) -> tuple:
        """Replay run_lln's stages through the public calls it is built from.

        Same solve, limit functionals, seeds, streams and replica indices as
        ``run_lln`` (whose initial measure is monodisperse).  Returns the
        per-replica stage times in ms by ladder size, and the seconds spent in
        all replayed stages.
        """
        plan = self.plan
        t0 = perf_counter()
        path = solve(tr, plan.mu0, plan.kernel, plan.t, tol=plan.solver_tol)
        for name, f in plan.functionals:
            with tr.span(f"limit.functional.lln_{name}", "limit"):
                ct.functional(f, plan.tau_max_leaves, path, plan.kernel, plan.mu0,
                              plan.t, tol=plan.quad_tol)
        stage_s = perf_counter() - t0
        per_replica = {}
        for stream, (n, reps) in enumerate(zip(plan.n_ladder, plan.replicas)):
            per_replica[n] = [
                1e3 * replica(tr, checks, plan.kernel, n, plan.t, plan.seed, index,
                              stream, tuple(f for _, f in plan.functionals))
                for index in range(reps)]
            stage_s += sum(per_replica[n]) / 1e3
        return per_replica, stage_s


WORKLOADS = {w.name: w for w in (Sim, Limit, Lln)}
