"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Budgets are wall-clock; statistical criteria use fixed seeds so reruns are
deterministic.
"""

import math
import os
import time

import numpy as np
import pytest

from coagtree.kernels import builtin
from coagtree.limit import pushforward_check
from coagtree.lln import (
    ExperimentPlan,
    jump_density_test,
    run_lln,
    survival_test,
)
from coagtree.simulate import ShapeIndicator, ShapeTimeBoxIndicator
from coagtree.smoluchowski import MassSpectrum, solve
from coagtree.trees import LEAF, shape_node
from tests_support import construction_agreement_test, density_product, density_recursive

CONSTANT = builtin("constant")
PRODUCT = builtin("product")
MONO = MassSpectrum.monodisperse()
CHERRY = shape_node(LEAF, LEAF)
JOBS = min(4, os.cpu_count() or 1)


def report(number, name, passed, budget, elapsed, detail=""):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"criterion {number} ({name}): {status} "
          f"[{elapsed:.1f}s / {budget:.0f}s] {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < budget, f"criterion {number} over budget: {elapsed:.1f}s"


def test_criterion_1_constant_kernel_spectrum():
    t0 = time.perf_counter()
    path = solve(MONO, CONSTANT, 2.0, tol=1e-8)
    spec = path.spectrum_at(2.0)
    vals = (path.moment(0.0, 2.0), spec.weight_of(1.0), spec.weight_of(2.0))
    targets = (0.5, 0.25, 0.125)
    ok = all(abs(v - w) <= 1e-6 for v, w in zip(vals, targets))
    elapsed = time.perf_counter() - t0
    report(1, "constant-kernel spectrum", ok, 1.0, elapsed,
           f"got {tuple(round(v, 8) for v in vals)}")


def test_criterion_2_density_cross_check():
    t0 = time.perf_counter()
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    from tests_support import random_density_query

    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        tree = random_density_query(rng, MONO, 2.0)
        a = density_recursive(tree, path, 2.0)
        b = density_product(tree, path, 2.0)
        worst = max(worst, abs(a - b))
    elapsed = time.perf_counter() - t0
    report(2, "recursive vs product density", worst <= 1e-10, 10.0, elapsed,
           f"max |diff| = {worst:.2e}")


def test_criterion_3_pushforward():
    t0 = time.perf_counter()
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    rep = pushforward_check(path, MONO, CONSTANT, 2.0, 4)
    elapsed = time.perf_counter() - t0
    report(3, "pushforward consistency", rep.max_discrepancy <= 1e-5, 60.0,
           elapsed, f"max discrepancy = {rep.max_discrepancy:.2e}")


def test_criterion_4_historical_lln():
    t0 = time.perf_counter()
    plan = ExperimentPlan(
        kernel=CONSTANT, mu0=MONO, t=2.0,
        functionals=(
            ("leaf", ShapeIndicator(LEAF)),
            ("cherry", ShapeIndicator(CHERRY)),
            ("cherry-box", ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),))),
        ),
        n_ladder=(100, 1000, 10000), replicas=(20000, 2000, 200),
        seed=1004, tau_max_leaves=2, jobs=JOBS)
    rep = run_lln(plan)
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"{name}: z={[r for r in rep.rows if r.functional == name][-1].z:.2f} "
        f"slope={rep.slopes[name]:+.2f}"
        for name, _ in plan.functionals)
    report(4, "historical law of large numbers", rep.passed, 600.0, elapsed,
           detail)


def test_criterion_5_coupled_vs_direct():
    t0 = time.perf_counter()
    rep_const = construction_agreement_test(
        4, (1.0,) * 4, CONSTANT, 1.0, replicas=100000, seed=1005)
    rep_prod = construction_agreement_test(
        4, (1.0,) * 4, PRODUCT, 0.5, replicas=100000, seed=1006)
    ok = rep_const.passed and rep_prod.passed
    elapsed = time.perf_counter() - t0
    report(5, "direct vs coupled construction", ok, 120.0, elapsed,
           f"K=1: KS p={rep_const.ks_pvalue:.3f}, pair p={rep_const.pair_pvalue:.3f}; "
           f"K=xy: KS p={rep_prod.ks_pvalue:.3f}, pair p={rep_prod.pair_pvalue:.3f}")


def test_criterion_6_survival_two_estimators():
    t0 = time.perf_counter()
    rep = survival_test(6, 1.0, CONSTANT, replicas=100000, seed=1007)
    elapsed = time.perf_counter() - t0
    report(6, "two-estimator survival", rep.passed, 120.0, elapsed,
           f"direct {rep.direct_estimate:.4f} vs exponential "
           f"{rep.exponential_estimate:.4f} ({rep.sigma_distance:.2f} sigma)")


def test_criterion_7_jump_density():
    t0 = time.perf_counter()
    rep = jump_density_test(2, (1.0, 1.0), CONSTANT, 2.0, replicas=100000,
                            seed=1008)
    elapsed = time.perf_counter() - t0
    report(7, "two-particle jump density", rep.passed, 60.0, elapsed,
           f"chi2 p = {rep.chi2_pvalue:.3f}")


def test_criterion_8_combinatorics_suite():
    from coagtree.trees import (
        parse,
        serialize,
        shapes_with_leaves,
        symmetry_exponent,
    )
    from tests_support import distinct_labelings, random_history

    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 7):
        for shape in shapes_with_leaves(n):
            q = symmetry_exponent(shape)
            count = len(distinct_labelings(shape, list(range(n))))
            if count != math.factorial(n) // 2 ** q:
                ok, detail = False, f"labeling count wrong at {shape.serial}"
    rng = np.random.default_rng(1009)
    for _ in range(1000):
        xi = random_history(rng, int(rng.integers(1, 11)))
        if serialize(parse(xi.serial)) != xi.serial:
            ok, detail = False, "round trip broke"
    elapsed = time.perf_counter() - t0
    report(8, "combinatorics and round-trip suite", ok, 30.0, elapsed, detail)


def test_criterion_9_gallery(tmp_path):
    from coagtree.cli import main
    from coagtree.trees import parse

    t0 = time.perf_counter()
    rc = main(["gallery", "--seed", "1010", "--out", str(tmp_path)])
    ok = rc == 0
    sizes = {}
    for name in ("constant", "product", "inverse-sum"):
        lines = (tmp_path / f"gallery-{name}.txt").read_text().splitlines()
        total = sum(sum(parse(line)[0]) for line in lines)
        sizes[name] = len(lines)
        ok = ok and lines and total == pytest.approx(128.0)
    elapsed = time.perf_counter() - t0
    report(9, "gallery reproduction", ok, 5.0, elapsed,
           f"forest sizes {sizes}")
