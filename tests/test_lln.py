import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from scipy import stats

from coagtree import limit, lln
from coagtree.kernels import builtin, tabulated_kernel
from coagtree.lln import (
    JUMP_TIME_BINS,
    ExperimentPlan,
    _chi2_pvalue,
    _chi2_tail,
    jump_density_test,
    run_lln,
    survival_test,
    tightness_diagnostic,
)
from coagtree.simulate import (
    ConstantOne,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    empirical_measure,
    rng_for,
    simulate,
)
from coagtree.smoluchowski import MassSpectrum
from coagtree.trees import LEAF, shape_node
from tests_support import construction_agreement_test, write_additive_table

CONSTANT = builtin("constant")
MONO = MassSpectrum.monodisperse()
CHERRY = shape_node(LEAF, LEAF)


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
    # a zero total weight was accepted, and masses_for then never returned:
    # floor(nan) cast to the int64 minimum, and its fill loop added one a turn
    for weights in ((0.0,), (0.0, 0.0)):
        mu0 = MassSpectrum((1.0, 2.0)[:len(weights)], weights)
        with pytest.raises(ValueError, match='"mu0" needs a positive total weight'):
            ExperimentPlan(CONSTANT, mu0, 2.0, f, n_ladder=(10, 20), replicas=(30, 30))


def test_plan_refuses_repeated_names_and_fractional_integers():
    leaf = ("leaf", ShapeIndicator(LEAF))
    ladder = dict(n_ladder=(20, 60), replicas=(40, 30))
    # two rows per size under one name once failed the variance check
    # against each other: a false FAIL
    for fs in ((leaf, leaf), (leaf, ("leaf", ShapeIndicator(CHERRY))), ()):
        with pytest.raises(ValueError, match='"functionals"'):
            ExperimentPlan(CONSTANT, MONO, 1.0, fs, **ladder)
    for key, value in (("seed", 7.5), ("tau_max_leaves", 2.9)):
        with pytest.raises(ValueError, match=f'"{key}"'):
            ExperimentPlan(CONSTANT, MONO, 1.0, (leaf,), **ladder, **{key: value})


def test_plan_refuses_fewer_than_one_job():
    f = (("leaf", ShapeIndicator(LEAF)),)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            ExperimentPlan(CONSTANT, MONO, 2.0, f, n_ladder=(100, 200),
                           replicas=(100, 100), jobs=jobs)
    plan = ExperimentPlan(CONSTANT, MONO, 2.0, f, n_ladder=(100, 200),
                          replicas=(100, 100), jobs=1)
    # the solve's tolerance is a constant of the harness, not a plan field
    assert plan.solver_tol == 1e-8
    assert "solver_tol" not in {field.name for field in dataclasses.fields(plan)}


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
    rows = [r for r in report.rows if r.functional == "leaf"]
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


def test_run_lln_gives_the_same_report_under_two_jobs():
    plan = ExperimentPlan(
        CONSTANT, MONO, 1.0, (("leaf", ShapeIndicator(LEAF)), ("cherry", ShapeIndicator(CHERRY))),
        n_ladder=(20, 60), replicas=(40, 30), seed=7, tau_max_leaves=2, jobs=1)
    serial = run_lln(plan)
    pooled = run_lln(dataclasses.replace(plan, jobs=2))
    assert pooled.to_json() == serial.to_json()
    for n in ("20", "60"):
        assert {k: pooled.counters[n][k] for k in ("events", "proposals")} == \
            {k: serial.counters[n][k] for k in ("events", "proposals")}


def test_a_serial_ladder_integrates_once_and_sets_up_once_per_rung(monkeypatch):
    calls = {"evaluator": 0, "SimConfig": 0}
    evaluator = limit._time_integrals

    def counted(*args):
        calls["evaluator"] += 1
        return evaluator(*args)

    class CountedConfig(SimConfig):
        def __post_init__(self):
            calls["SimConfig"] += 1
            super().__post_init__()

    monkeypatch.setattr(limit, "_time_integrals", counted)
    monkeypatch.setattr(lln, "SimConfig", CountedConfig)
    plan = ExperimentPlan(
        CONSTANT, MONO, 1.0, (("leaf", ShapeIndicator(LEAF)), ("cherry", ShapeIndicator(CHERRY)),
                              ("cherry-box", ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),)))),
        n_ladder=(20, 60), replicas=(40, 30), seed=7, tau_max_leaves=2, jobs=1)
    report = run_lln(plan)
    assert calls == {"evaluator": 1, "SimConfig": 2}
    # three functionals read two terms each, from three distinct integrals;
    # telemetry, so the hashed report leaves them out
    assert (report.counters["limit_terms"], report.counters["limit_integrals"]) == (6, 3)
    assert set(json.loads(report.to_json())) == {"rows", "variance_slopes", "verdicts",
                                                 "tail_bounds"}


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


def chi2_cases():
    """(observed, expected) count vectors of equal totals, among them the
    20-bin first-merge-time and 3-pair shapes that jump_density_test builds."""
    rng = np.random.default_rng(5)
    edges = np.linspace(0.0, 1.0, JUMP_TIME_BINS + 1)
    cdf = 1.0 - np.exp(-4.0 / 3.0 * edges)
    probs = np.diff(cdf) / cdf[-1]
    pairs = np.array([0.2, 0.3, 0.5])
    yield rng.multinomial(1461, probs), 1461 * probs
    yield rng.multinomial(20000, probs), 20000 * probs
    yield rng.multinomial(1461, pairs), 1461 * pairs
    yield np.array([381, 528, 1109]), 2018 * np.array([2.0, 3.0, 6.0]) / 11.0
    yield np.array([3, 0, 7, 2]), np.array([3.0, 1.5, 5.0, 2.5])
    yield np.array([50, 50]), np.array([50.0, 50.0])


def chi2_sweep():
    """(observed, expected) with 1 to 40 degrees of freedom and statistics
    0 to 300: unit expected counts, the first two observed moved by +-d,
    which makes the statistic 2 d^2."""
    for df in range(1, 41):
        for stat in np.linspace(0.0, 300.0, 31):
            d = math.sqrt(stat / 2.0)
            observed = np.ones(df + 1)
            observed[:2] += (d, -d)
            yield observed, np.ones(df + 1)


# the closed-form tail against scipy's, fixed before the first run; the
# largest gap seen over these cases is 2.8e-14
CHI2_RELATIVE_BOUND = 1e-12


def test_chi2_pvalue_is_scipy_stats_chisquare():
    for observed, expected in (*chi2_cases(), *chi2_sweep()):
        want = float(stats.chisquare(observed, expected).pvalue)
        got = _chi2_pvalue(observed, expected)
        assert got == pytest.approx(want, rel=CHI2_RELATIVE_BOUND, abs=0.0), observed
    for df in range(1, 41):
        assert _chi2_pvalue(np.full(df + 1, 3.0), np.full(df + 1, 3.0)) == 1.0
        assert _chi2_tail(df, 0.0) == 1.0


def test_chi2_tail_refuses_a_statistic_that_is_not_finite_or_negative():
    for stat in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="statistic"):
            _chi2_tail(19, stat)


def test_jump_density_rejects_large_n():
    with pytest.raises(ValueError):
        jump_density_test(4, (1.0,) * 4, CONSTANT, 1.0)


def test_finite_n_checks_refuse_fewer_than_two_replicas():
    # zero replicas divided by zero, and one gave a NaN standard error and a
    # failed verdict
    for replicas in (0, 1):
        with pytest.raises(ValueError, match="replicas"):
            jump_density_test(3, (1.0, 1.0, 2.0), CONSTANT, 1.0, replicas=replicas)
        with pytest.raises(ValueError, match="replicas"):
            survival_test(3, 1.0, CONSTANT, replicas=replicas)


def test_jump_density_refuses_a_horizon_that_no_replica_merges_before():
    # no merge left every expected count 0, and a NaN p-value failed quietly
    with pytest.raises(ValueError, match=r"t = 1e-09.*replicas = 50"):
        jump_density_test(2, (1.0, 1.0), CONSTANT, 1e-9, replicas=50)


def test_finite_n_checks_refuse_a_horizon_that_is_not_finite(monkeypatch):
    # an infinite horizon gave NaN bin edges and a NaN chi-square statistic
    # in the one, and in the other merged every particle, so both estimates
    # read 0.0 and it passed vacuously
    def replica(*_):
        raise AssertionError("a replica ran")

    monkeypatch.setattr("coagtree.lln.simulate", replica)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^t must be finite"):
            jump_density_test(2, (1.0, 1.0), CONSTANT, t, replicas=50)
        with pytest.raises(ValueError, match=r"^t must be finite"):
            survival_test(3, t, CONSTANT, replicas=50)


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
    cfg = SimConfig.monodisperse(100, CONSTANT, 2.0)
    log = simulate(cfg, rng_for(35))
    m = empirical_measure(log, 2.0)
    vals = [tightness_diagnostic(m, n0) for n0 in range(1, 8)]
    assert vals[0] == pytest.approx(m.total_weight)
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert tightness_diagnostic(m, 101) == 0.0


# Replica-side numbers of small plans, as float.hex, computed with the
# SeedSequence-and-jumped streams, a fresh sampler state per run and one
# HistoricalTree per atom.  Any change to a stream, to the sampler's draws
# or to how the measure sums its atoms shows here.
GOLDEN_FUNCTIONALS = (
    ("leaf", ShapeIndicator(LEAF)),
    ("cherry", ShapeIndicator(CHERRY)),
    ("cherry-box", ShapeTimeBoxIndicator(CHERRY, ((0.1, 0.4),))),
    ("mass<=2.5", MassCutoff(2.5)),
    ("one", ConstantOne()),
    ("cherry*mass<=3", FunctionalProduct((ShapeIndicator(CHERRY), MassCutoff(3.0)))),
)
GOLDEN_ROWS = {
    "constant": [
        ('leaf', 40, '0x1.4e81b4e81b4eap-1', '0x1.21d2283e1c70cp-7'),
        ('cherry', 40, '0x1.0369d0369d037p-3', '0x1.01e2d1a2f2f5dp-9'),
        ('cherry-box', 40, '0x1.162fc962fc963p-4', '0x1.69833303ce863p-10'),
        ('mass<=2.5', 40, '0x1.9555555555555p-1', '0x1.06a7320afdf9ap-8'),
        ('one', 40, '0x1.9e4b17e4b17e5p-1', '0x1.7f205cef6b573p-9'),
        ('cherry*mass<=3', 40, '0x1.0369d0369d037p-3', '0x1.01e2d1a2f2f5dp-9'),
        ('leaf', 120, '0x1.560b60b60b60bp-1', '0x1.0672894ab6cdap-9'),
        ('cherry', 120, '0x1.f0123456789acp-4', '0x1.9398396574ad9p-11'),
        ('cherry-box', 120, '0x1.2468acf13579cp-4', '0x1.36904a8899f15p-11'),
        ('mass<=2.5', 120, '0x1.9a4fa4fa4fa4ep-1', '0x1.82e591ce39ba0p-11'),
        ('one', 120, '0x1.a28f5c28f5c2ap-1', '0x1.292bff270da15p-11'),
        ('cherry*mass<=3', 120, '0x1.f0123456789acp-4', '0x1.9398396574ad9p-11'),
    ],
    "additive": [
        ('leaf', 40, '0x1.3555555555555p-2', '0x1.9b64b8e60621ep-8'),
        ('cherry', 40, '0x1.6b851eb851eb9p-4', '0x1.5ab3bcefca20ap-10'),
        ('cherry-box', 40, '0x1.b4e81b4e81b4fp-5', '0x1.12bb9b2684c30p-10'),
        ('mass<=2.5', 40, '0x1.651eb851eb853p-2', '0x1.ef3bf28823d2bp-8'),
        ('one', 40, '0x1.feb851eb851edp-2', '0x1.b8bc8e0a7ba4fp-8'),
        ('cherry*mass<=3', 40, '0x1.1111111111111p-4', '0x1.40465970df14fp-10'),
        ('leaf', 120, '0x1.30123456789acp-2', '0x1.6a2f4b8104ce1p-10'),
        ('cherry', 120, '0x1.59e26af37c04cp-4', '0x1.6665bafc3b1f7p-11'),
        ('cherry-box', 120, '0x1.a2b3c4d5e6f82p-5', '0x1.633782aea9cc4p-12'),
        ('mass<=2.5', 120, '0x1.5d70a3d70a3d9p-2', '0x1.9af72015d867dp-10'),
        ('one', 120, '0x1.f69d0369d0369p-2', '0x1.572f66f505bc2p-10'),
        ('cherry*mass<=3', 120, '0x1.048d159e26af3p-4', '0x1.b7557c2b63236p-12'),
    ],
}
# survival: direct, its SE, exponential, its SE; jump: merged fraction, chi2 p, pair p
GOLDEN_FINITE_N = {
    "constant": (
        ['0x1.051eb851eb852p-1',
         '0x1.d8dee8af5a090p-6',
         '0x1.08bde926dfcf9p-1',
         '0x1.94ea7e73fdde4p-9'],
        ['0x1.3d70a3d70a3d7p-1',
         '0x1.f5042285cf1dap-2',
         '0x1.a5e7415a692edp-1']),
    "additive": (
        ['0x1.0000000000000p-2',
         '0x1.999999999999ap-6',
         '0x1.0d49c05432a6dp-2',
         '0x1.02c56dc14a7f3p-9'],
        ['0x1.cb17e4b17e4b1p-1',
         '0x1.59f716ad34352p-5',
         '0x1.d9d7f58aba0bap-1']),
}


@pytest.mark.parametrize("kname", ["constant", "additive"])
def test_replica_numbers_are_pinned(kname):
    mu0 = MONO if kname == "constant" else MassSpectrum.from_pairs([(1.0, 0.5), (2.0, 0.5)])
    plan = ExperimentPlan(builtin(kname), mu0, 0.5, GOLDEN_FUNCTIONALS,
                          n_ladder=(40, 120), replicas=(60, 30), seed=2026,
                          tau_max_leaves=2)
    rows = [(r.functional, r.n, r.mean.hex(), r.variance.hex()) for r in run_lln(plan).rows]
    assert rows == GOLDEN_ROWS[kname]
    kernel = builtin(kname)
    s = survival_test(4, 1.0, kernel, replicas=300, seed=2027)
    j = jump_density_test(3, (1.0, 1.0, 2.0), kernel, 1.0, replicas=300, seed=2028)
    survival = [x.hex() for x in (s.direct_estimate, s.direct_se,
                                  s.exponential_estimate, s.exponential_se)]
    jump = [x.hex() for x in (j.merged_fraction, j.chi2_pvalue, j.pair_pvalue)]
    assert (survival, jump) == GOLDEN_FINITE_N[kname]


def test_lln_workload_report_is_pinned():
    # the benchmark's lln workload plan (perfbench/workloads.py, size
    # "full"): the sha256 of its report.json text
    plan = ExperimentPlan(
        CONSTANT, MONO, 2.0,
        (("leaf", ShapeIndicator(LEAF)), ("cherry", ShapeIndicator(CHERRY)),
         ("cherry-box", ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),)))),
        n_ladder=(100, 300, 1000), replicas=(200, 60, 30), seed=1004,
        tau_max_leaves=2, jobs=1)
    report = run_lln(plan).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "0d1f7f212635fd26480afbd7c4a177afbc31c76f06097ca7af4bbdf02d6d0155"
