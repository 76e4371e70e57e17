import json
import math

import numpy as np
import pytest

from coagtree.kernels import builtin, tabulated_kernel
from coagtree.lln import (
    ExperimentPlan,
    construction_agreement_test,
    jump_density_test,
    run_lln,
    survival_test,
    tightness_diagnostic,
)
from coagtree.simulate import (
    ShapeIndicator,
    SimConfig,
    empirical_measure,
    simulate_direct,
)
from coagtree.smoluchowski import MassSpectrum
from coagtree.trees import LEAF, shape_node
from tests_support import write_additive_table

CONSTANT = builtin("constant")
MONO = MassSpectrum.monodisperse()


def test_plan_validation():
    f = (("leaf", ShapeIndicator(LEAF)),)
    with pytest.raises(ValueError):
        ExperimentPlan(CONSTANT, MONO, 2.0, f, n_ladder=(100,), replicas=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(CONSTANT, MONO, 2.0, f, n_ladder=(100, 200),
                       replicas=(100,))
    with pytest.raises(ValueError):
        ExperimentPlan(CONSTANT, MONO, 2.0, f, n_ladder=(100, 200),
                       replicas=(100, 10))


def test_masses_for_polydisperse_composition():
    plan = ExperimentPlan(
        CONSTANT, MassSpectrum((1.0, 2.0), (0.75, 0.25)), 1.0,
        (("leaf", ShapeIndicator(LEAF)),), n_ladder=(100, 200),
        replicas=(50, 50))
    masses = plan.masses_for(100)
    assert len(masses) == 100
    assert masses.count(1.0) == 75 and masses.count(2.0) == 25


def test_run_lln_small_ladder():
    plan = ExperimentPlan(
        CONSTANT, MONO, 2.0,
        (("leaf", ShapeIndicator(LEAF)),),
        n_ladder=(50, 500), replicas=(2000, 200), seed=21, jobs=1,
        tau_max_leaves=2)
    report = run_lln(plan)
    rows = report.rows_for("leaf")
    assert [r.n for r in rows] == [50, 500]
    final = rows[-1]
    assert final.limit_value == pytest.approx(0.25, abs=1e-6)
    assert abs(final.mean - 0.25) <= 4 * (final.se + final.limit_error)
    assert rows[1].variance < rows[0].variance
    assert report.verdicts["leaf"] in ("PASS", "FAIL")
    # report formats
    payload = json.loads(report.to_json())
    assert "verdicts" in payload and "rows" in payload
    assert "leaf" in report.to_text()


def test_run_lln_deterministic():
    plan = ExperimentPlan(
        CONSTANT, MONO, 2.0, (("leaf", ShapeIndicator(LEAF)),),
        n_ladder=(30, 60), replicas=(200, 100), seed=5, tau_max_leaves=1)
    a = run_lln(plan)
    b = run_lln(plan)
    assert a.to_json() == b.to_json()


def test_jump_density_n2():
    rep = jump_density_test(2, (1.0, 1.0), CONSTANT, 2.0, replicas=20000, seed=31)
    assert rep.passed
    assert rep.chi2_pvalue > 0.001
    # merge time ~ Exp(1/2): fraction merged by 2 is 1 - e^{-1}
    assert rep.merged_fraction == pytest.approx(1 - math.exp(-1), abs=0.01)


def test_jump_density_n3_product_kernel():
    rep = jump_density_test(3, (1.0, 2.0, 3.0), builtin("product"), 0.15,
                            replicas=20000, seed=32)
    assert rep.passed
    assert rep.pair_pvalue > 0.001


@pytest.mark.parametrize("kernel_name,seed", [
    ("additive", 41), ("inverse-sum", 42), ("tabulated", 43)])
def test_jump_density_n3_thinned_kernels(tmp_path, kernel_name, seed):
    # kernels whose proposals the sampler thins; the tabulated one is x + y
    if kernel_name == "tabulated":
        kernel = tabulated_kernel(write_additive_table(tmp_path / "xy.csv"))
    else:
        kernel = builtin(kernel_name)
    rep = jump_density_test(3, (1.0, 2.0, 3.0), kernel, 0.3, replicas=20000,
                            seed=seed)
    assert rep.passed
    assert rep.pair_pvalue > 0.001


def test_jump_density_rejects_large_n():
    with pytest.raises(ValueError):
        jump_density_test(4, (1.0,) * 4, CONSTANT, 1.0)


def test_survival_trivial_t0():
    rep = survival_test(4, 0.0, CONSTANT, replicas=100, seed=1)
    assert rep.direct_estimate == 1.0
    assert rep.exponential_estimate == 1.0
    assert rep.passed


def test_survival_two_particles_analytic():
    rep = survival_test(2, 1.0, CONSTANT, replicas=20000, seed=33)
    assert rep.passed
    expected = math.exp(-0.5)
    assert rep.direct_estimate == pytest.approx(expected, abs=0.015)
    # the exponential estimator is deterministic at N=2: exp(-t/2) exactly
    assert rep.exponential_estimate == pytest.approx(expected, abs=1e-12)


def test_construction_agreement_small():
    rep = construction_agreement_test(3, (1.0, 2.0, 3.0), builtin("product"),
                                      0.15, replicas=10000, seed=34)
    assert rep.passed


def test_tightness_diagnostic():
    cfg = SimConfig.monodisperse(100, CONSTANT, 2.0, seed=35)
    log = simulate_direct(cfg)
    m = empirical_measure(log, 2.0)
    vals = [tightness_diagnostic(m, n0) for n0 in range(1, 8)]
    assert vals[0] == pytest.approx(m.total_weight)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert tightness_diagnostic(m, 101) == 0.0
