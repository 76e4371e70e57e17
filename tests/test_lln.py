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
    # a fractional replica count failed only in run_lln, after the solve and
    # the limit integration, with a TypeError
    with pytest.raises(ValueError, match='"replicas"'):
        ExperimentPlan(CONSTANT, MONO, 1.0, (leaf,), n_ladder=(20, 60), replicas=(30.5, 40))


def test_plan_refuses_booleans_for_numbers_and_a_fractional_job_count():
    # each once ran as 1, and jobs=1.5 failed only in run_lln, after the
    # solve and the limit integration, with a TypeError
    leaf = ("leaf", ShapeIndicator(LEAF))
    ladder = dict(n_ladder=(20, 60), replicas=(40, 30))
    for key, value in (("t", True), ("quad_tol", True), ("seed", True),
                       ("tau_max_leaves", True), ("n_ladder", (True, 5)),
                       ("replicas", (True, 40)), ("jobs", True), ("jobs", 1.5)):
        fields = dict(kernel=CONSTANT, mu0=MONO, t=1.0, functionals=(leaf,), **ladder)
        fields[key] = value
        with pytest.raises(ValueError, match=f'"{key}"'):
            ExperimentPlan(**fields)


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


@pytest.mark.parametrize("ns, variances", [
    ((100, 1000), (2.5e-3, 2.4e-4)),
    ((100, 300, 1000), (1.9e-3, 6.1e-4, 2.0e-4)),
    ((100, 300, 1000), (1.9e-3, 6.1e-4, 0.0)),
])
def test_variance_slope_is_the_least_squares_slope(ns, variances):
    # np.polyfit is the oracle; a variance of 0 counts as 1e-300 on both sides
    logs_v = np.log(np.maximum(variances, 1e-300))
    expected = np.polyfit(np.log(ns), logs_v, 1)[0]
    assert lln._variance_slope(list(ns), list(variances)) == pytest.approx(expected, rel=1e-12)


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


def test_jump_density_refuses_a_mass_count_other_than_n(monkeypatch):
    # three masses simulated against the two-particle law read as a false
    # FAIL (chi-square p 1.7e-14), and two masses with n = 3 raised an
    # IndexError; both are refused before any replica runs
    def replica(*_):
        raise AssertionError("a replica ran")

    monkeypatch.setattr("coagtree.lln.simulate", replica)
    with pytest.raises(ValueError, match=r"n = 2 needs 2 masses, got 3"):
        jump_density_test(2, (1.0, 1.0, 2.0), CONSTANT, 1.0, replicas=4000, seed=3)
    with pytest.raises(ValueError, match=r"n = 3 needs 3 masses, got 2"):
        jump_density_test(3, (1.0, 1.0), CONSTANT, 1.0, replicas=4000, seed=3)


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
# sampler picking its pairs by phi class from each run's rng.random
# doubles, read in blocks (an exponential is -log1p(-U)).  The pins before
# them were checked against the SeedSequence-and-jumped streams, a fresh
# sampler state per run and one HistoricalTree per atom.
# Any change to a stream, to the sampler's draws or to how the measure
# sums its atoms shows here.
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
        ('leaf', 40, '0x1.4f5c28f5c28f7p-1', '0x1.954bb4e22eb8ep-7'),
        ('cherry', 40, '0x1.0444444444444p-3', '0x1.194824902b818p-9'),
        ('cherry-box', 40, '0x1.3bbbbbbbbbbbcp-4', '0x1.0310f37224e91p-9'),
        ('mass<=2.5', 40, '0x1.9681b4e81b4e9p-1', '0x1.7c43fd2d40b0fp-8'),
        ('one', 40, '0x1.9eeeeeeeeeef0p-1', '0x1.18e078559f62ap-8'),
        ('cherry*mass<=3', 40, '0x1.0444444444444p-3', '0x1.194824902b818p-9'),
        ('leaf', 120, '0x1.527d27d27d27dp-1', '0x1.423d55db4046ep-9'),
        ('cherry', 120, '0x1.02468acf1357ap-3', '0x1.d9e6c52595523p-11'),
        ('cherry-box', 120, '0x1.3333333333334p-4', '0x1.d309c4e9fd693p-12'),
        ('mass<=2.5', 120, '0x1.987654320fedcp-1', '0x1.2794e30044f7fp-10'),
        ('one', 120, '0x1.a0b60b60b60b5p-1', '0x1.a6ad8b36dc9fcp-11'),
        ('cherry*mass<=3', 120, '0x1.02468acf1357ap-3', '0x1.d9e6c52595523p-11'),
    ],
    "additive": [
        ('leaf', 40, '0x1.2da740da740dcp-2', '0x1.e35101840848fp-8'),
        ('cherry', 40, '0x1.681b4e81b4e83p-4', '0x1.437dceaf9e6fcp-9'),
        ('cherry-box', 40, '0x1.8888888888889p-5', '0x1.a22989dd2c247p-10'),
        ('mass<=2.5', 40, '0x1.5b17e4b17e4b2p-2', '0x1.0e12ffbbdf474p-7'),
        ('one', 40, '0x1.f5c28f5c28f5dp-2', '0x1.a23563086f5b1p-8'),
        ('cherry*mass<=3', 40, '0x1.0a3d70a3d70a4p-4', '0x1.26e978d4fdf3cp-9'),
        ('leaf', 120, '0x1.2ea61d950c83fp-2', '0x1.b998027d72d0dp-10'),
        ('cherry', 120, '0x1.6666666666669p-4', '0x1.54dcceaee7669p-11'),
        ('cherry-box', 120, '0x1.ae147ae147ae2p-5', '0x1.d3ca9c5aad4d9p-12'),
        ('mass<=2.5', 120, '0x1.5abcdf0123456p-2', '0x1.b624270e4ca44p-10'),
        ('one', 120, '0x1.f69d0369d0369p-2', '0x1.90efec09b2d5ap-10'),
        ('cherry*mass<=3', 120, '0x1.02468acf13579p-4', '0x1.b8569b6c4da96p-12'),
    ],
}
# survival: direct, its SE, exponential, its SE; jump: merged fraction, chi2 p, pair p
GOLDEN_FINITE_N = {
    "constant": (
        ['0x1.fc962fc962fc9p-2',
         '0x1.d8f46fbe337d6p-6',
         '0x1.068d65ee26f37p-1',
         '0x1.7b4b905962b8cp-9'],
        ['0x1.2740da740da74p-1',
         '0x1.f5d307d1e6c8fp-2',
         '0x1.fd0c8b3bfdd41p-1']),
    "additive": (
        ['0x1.147ae147ae148p-2',
         '0x1.a3f4727f4dc1ep-6',
         '0x1.0a7b4b4b97815p-2',
         '0x1.ebb8dd723a530p-10'],
        ['0x1.ce81b4e81b4e8p-1',
         '0x1.0a5e57b8dbe42p-2',
         '0x1.e4ba8356777bap-1']),
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
    # "full"): the sha256 of its report.json text; re-pinned when Chebyshev
    # collocation replaced the limit's refinement ladder (limit values moved
    # by at most 3.1e-16, errors from ~3e-12 to ~3e-17, z-scores by at most
    # 3.6e-9, verdicts unchanged), again when the sampler came to read its
    # uniforms in blocks and its exponentials as -log1p(-U) (new replica
    # draws; the limit side unchanged, verdicts still PASS), and again when
    # its proposals came to pick by phi class (the same draws pick other
    # ids; verdicts still PASS)
    plan = ExperimentPlan(
        CONSTANT, MONO, 2.0,
        (("leaf", ShapeIndicator(LEAF)), ("cherry", ShapeIndicator(CHERRY)),
         ("cherry-box", ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),)))),
        n_ladder=(100, 300, 1000), replicas=(200, 60, 30), seed=1004,
        tau_max_leaves=2, jobs=1)
    report = run_lln(plan).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == \
        "bbc5e5025c47e9504d84a5285ae62346f427ee54a098bca849f64d5b4193b286"
