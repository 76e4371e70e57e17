import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from coagtree.kernels import builtin, gelation_time, tabulated_kernel
from coagtree.kernels import ConfigError, Kernel, KernelError
from coagtree.smoluchowski import (
    MassSpectrum,
    SolverError,
    _dopri45,
    _lattice,
    _pair_index,
    constant_kernel_weights,
    mass_quantum,
    solve,
)
from tests_support import reference_solve, write_additive_table

CONSTANT = builtin("constant")
INVERSE_SUM = builtin("inverse-sum")
MONO = MassSpectrum.monodisperse()


# ---------------------------------------------------------------------------
# independent fixed-step RK4 oracle with its own right-hand side


def oracle_rhs(c, kmat):
    """Direct double-loop evaluation of the coagulation ODE right-hand side."""
    n = len(c)
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            k = i + j + 1  # lattice index of mass (i+1) + (j+1)
            if k < n:
                out[k] += 0.5 * kmat[i, j] * c[i] * c[j]
            out[i] -= kmat[i, j] * c[i] * c[j]
    return out


def oracle_rk4(kernel, t_end, n_masses=64, steps=2000):
    masses = np.arange(1, n_masses + 1, dtype=float)
    kmat = np.asarray(kernel.evaluate(masses[:, None], masses[None, :]), dtype=float)
    c = np.zeros(n_masses)
    c[0] = 1.0
    h = t_end / steps
    for _ in range(steps):
        k1 = oracle_rhs(c, kmat)
        k2 = oracle_rhs(c + 0.5 * h * k1, kmat)
        k3 = oracle_rhs(c + 0.5 * h * k2, kmat)
        k4 = oracle_rhs(c + h * k3, kmat)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return masses, c


def test_constant_kernel_closed_forms():
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    spec = path.spectrum_at(2.0)
    assert path.moment(0.0, 2.0) == pytest.approx(0.5, abs=1e-8)
    assert spec.weight_of(1.0) == pytest.approx(0.25, abs=1e-8)
    assert spec.weight_of(2.0) == pytest.approx(0.125, abs=1e-8)
    assert spec.weight_of(3.0) == pytest.approx(1 / 16, abs=1e-8)
    ks = np.arange(1, 9)
    expected = constant_kernel_weights(2.0, ks)
    got = np.array([spec.weight_of(float(k)) for k in ks])
    assert np.allclose(got, expected, atol=1e-8)


def test_solver_vs_rk4_oracle():
    masses, c_oracle = oracle_rk4(CONSTANT, 1.5, n_masses=40, steps=600)
    path = solve(MONO, CONSTANT, 1.5, tol=1e-10, k_max=40)
    got = path.weights_at(1.5)
    assert np.allclose(got, c_oracle, atol=1e-8)


def test_solver_vs_rk4_oracle_inverse_sum():
    masses, c_oracle = oracle_rk4(INVERSE_SUM, 2.0, n_masses=32, steps=800)
    path = solve(MONO, INVERSE_SUM, 2.0, tol=1e-10, k_max=32)
    assert np.allclose(path.weights_at(2.0), c_oracle, atol=1e-7)


def test_rk4_convergence_order():
    # halving the oracle step should shrink the error by about 2^4
    path = solve(MONO, CONSTANT, 1.0, tol=1e-12, k_max=32)
    ref = path.weights_at(1.0)
    errs = []
    for steps in (8, 16, 32):
        _, c = oracle_rk4(CONSTANT, 1.0, n_masses=32, steps=steps)
        errs.append(np.abs(c - ref).max())
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5


def test_t0_returns_mu0():
    path = solve(MONO, CONSTANT, 1.0, tol=1e-10)
    spec = path.spectrum_at(0.0)
    assert spec.weight_of(1.0) == 1.0
    assert path.moment(2.0, 0.0) == 1.0


def test_weight_of_reads_the_nearest_atom():
    # an absolute tolerance of 1e-9 once matched 2e-9 to its neighbour 1e-9
    spec = MassSpectrum((1e-9, 2e-9), (0.3, 0.7))
    assert spec.weight_of(2e-9) == 0.7
    assert spec.weight_of(1e-9) == 0.3
    assert spec.weight_of(1.5e-9) == spec.weight_of(3e-9) == spec.weight_of(5e-10) == 0.0
    assert solve(spec, CONSTANT, 1.0).spectrum_at(0.0).weight_of(2e-9) == 0.7
    # a solved lattice point's weight, as a float
    path = solve(MONO, CONSTANT, 2.0)
    weights = path.weights_at(2.0)
    for k in range(1, 9):
        assert path.spectrum_at(2.0).weight_of(float(k)) == float(weights[k - 1])



@pytest.mark.parametrize("mu0,kernel", [
    (MONO, CONSTANT),
    (MassSpectrum.from_pairs([(1.0, 0.5), (2.0, 0.5)]), CONSTANT),
    (MONO, INVERSE_SUM)], ids=["mono", "bidisperse", "inverse-sum"])
def test_spectrum_at_reads_rounding_negatives_as_zero(mu0, kernel):
    # at t = 1 the dense output leaves weights far out on the lattice a few
    # 1e-60 below zero, well inside the solver's absolute tolerance
    path = solve(mu0, kernel, 2.0)
    weights = path.weights_at(1.0)
    assert (weights < 0.0).any()
    spec = path.spectrum_at(1.0)
    assert spec.weights == tuple(np.where(weights < 0.0, 0.0, weights))
    # where every weight is nonnegative the floats are the path's own
    assert path.spectrum_at(2.0).weights == tuple(path.weights_at(2.0))
    # beyond the tolerance a negative weight is a defect, and still raises;
    # the last mass reads -tol at every time of every step
    path.y_old[:, -1] = -path.tol
    path.q[:, -1] = 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        path.spectrum_at(1.0)

def test_mass_conservation():
    for kernel in (CONSTANT, INVERSE_SUM):
        path = solve(MONO, kernel, 2.0, tol=1e-8)
        for t in (0.5, 1.0, 2.0):
            assert path.moment(1.0, t) == pytest.approx(1.0, abs=20 * 1e-8)


def test_monotone_cluster_count():
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    counts = [path.moment(0.0, t) for t in np.linspace(0, 2, 40)]
    assert all(b < a for a, b in zip(counts, counts[1:]))


def test_weak_form_residual():
    # d/dt <f, mu_t> = 1/2 int (f(x+y) - f(x) - f(y)) K mu mu for several f
    tol = 1e-8
    path = solve(MONO, CONSTANT, 2.0, tol=tol)
    masses = path.masses
    for f in (np.ones_like(masses), masses, (masses <= 5).astype(float)):
        lhs = float(f @ path.weights_at(2.0)) - float(f @ path.weights_at(0.0))
        ts = np.linspace(0, 2.0, 801)
        vals = []
        fsum = f[:, None] + f[None, :]
        fgain = np.zeros((len(masses), len(masses)))
        for i in range(len(masses)):
            for j in range(len(masses)):
                k = i + j + 1
                fgain[i, j] = (f[k] if k < len(masses) else 0.0) - fsum[i, j]
        for t in ts:
            c = path.weights_at(t)
            vals.append(0.5 * float(c @ fgain @ c))
        rhs = np.trapezoid(vals, ts)
        assert lhs == pytest.approx(rhs, abs=20 * tol + 1e-6)


def test_survival_exponent_constant_closed_form():
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    # Lambda(y; 0, t) = 2 ln(1 + t/2) for K = 1
    assert path.survival_exponent(1.0, 0.0, 2.0) == pytest.approx(
        2 * math.log(2.0), abs=1e-7)
    assert path.survival_exponent(5.0, 0.5, 1.5) == pytest.approx(
        2 * math.log(1.75 / 1.25), abs=1e-7)
    assert path.survival_exponent(1.0, 1.3, 1.3) == 0.0


def test_survival_exponent_additive_in_time():
    path = solve(MONO, INVERSE_SUM, 2.0, tol=1e-10)
    full = path.survival_exponent(2.0, 0.0, 2.0)
    split = (path.survival_exponent(2.0, 0.0, 0.7)
             + path.survival_exponent(2.0, 0.7, 2.0))
    assert split == pytest.approx(full, abs=1e-10)


@pytest.mark.parametrize("kernel_name, masses, t_end", [
    ("constant", (1.0, 2.0), 2.0), ("additive", (1.0,), 0.8),
    ("inverse-sum", (0.1, 0.7), 2.0)])
def test_survival_exponent_is_a_difference_of_cumulative_exponents(kernel_name,
                                                                  masses, t_end):
    # one rule for Lambda: G_y(t) - G_y(s), float for float, with every time
    # of the batch placed in the grid by one lookup
    mu0 = MassSpectrum(masses, (1.0,) * len(masses))
    path = solve(mu0, builtin(kernel_name), t_end)
    rng = np.random.default_rng(11)
    s, t = np.sort(rng.uniform(0.0, t_end, (2, 40)), axis=0)
    s = np.append(s, (0.0, 0.0, t_end, 0.4 * t_end))
    t = np.append(t, (0.0, t_end, t_end, 0.4 * t_end))
    for y in path.masses[:6]:
        G = path.cumulative_exponents(np.concatenate([s, t]))(y)
        got = [path.survival_exponent(y, a, b) for a, b in zip(s, t)]
        assert got == (G[len(s):] - G[:len(s)]).tolist()


@pytest.mark.parametrize("kernel_name, masses, t_end", [
    ("constant", (1.0, 2.0), 2.0), ("additive", (1.0,), 0.8),
    ("inverse-sum", (0.1, 0.7), 2.0)])
def test_cumulative_exponents_are_the_exact_integral_of_the_dense_rate(kernel_name,
                                                                      masses, t_end):
    # oracle: 4-point Gauss-Legendre, exact for the quartic rate, over each
    # step up to u, on K(y, .) . weights_at(.)
    mu0 = MassSpectrum(masses, (1.0,) * len(masses))
    kernel = builtin(kernel_name)
    path = solve(mu0, kernel, t_end)
    nodes, gl_weights = np.polynomial.legendre.leggauss(4)
    rng = np.random.default_rng(5)
    u = np.concatenate([path.ends, rng.uniform(0.0, t_end, 30)])
    for y in path.masses[[0, 1, 5]]:
        ky = np.asarray(kernel.evaluate(float(y), path.masses), dtype=float)
        oracle = []
        for b in u:
            total = 0.0
            for lo, hi in zip(path.ends[:-1], np.minimum(path.ends[1:], b)):
                if hi > lo:
                    r = lo + 0.5 * (hi - lo) * (nodes + 1.0)
                    rates = [ky @ path.weights_at(x) for x in r]
                    total += 0.5 * (hi - lo) * float(np.dot(gl_weights, rates))
            oracle.append(total)
        assert np.abs(path.cumulative_exponents(u)(y) - oracle).max() <= 1e-13


def test_survival_exponent_vs_trapezoid_oracle():
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    ts = np.linspace(0.3, 1.7, 3001)
    g = [path.moment(0.0, t) for t in ts]  # K=1: integrand is <1, mu_r>
    oracle = np.trapezoid(g, ts)
    assert path.survival_exponent(1.0, 0.3, 1.7) == pytest.approx(oracle, abs=1e-8)


def test_survival_exponent_refuses_times_past_the_solution():
    from tests_support import density_product, hist_leaf

    path = solve(MONO, CONSTANT, 1.0, tol=1e-10)
    # in range, up to the same 1e-12 slack that weights_at allows
    assert path.survival_exponent(1.0, 0.0, 1.0) == pytest.approx(
        2 * math.log(1.5), abs=1e-7)
    path.survival_exponent(1.0, 0.0, 1.0 + 1e-13)
    # Lambda(1; 0, 3) = 2 ln 2.5 is not knowable from a path solved to t = 1
    for s, t in ((0.0, 3.0), (-0.5, 0.5), (1.5, 2.0)):
        with pytest.raises(ValueError, match=r"outside \[0, 1\.0\]"):
            path.survival_exponent(1.0, s, t)
    with pytest.raises(ValueError, match="outside"):
        path.weights_at(3.0)
    with pytest.raises(ValueError, match="outside"):
        density_product(hist_leaf(1.0), path, 3.0)


def test_polydisperse_lattice_closure():
    mu0 = MassSpectrum((1.0, 1.5), (0.6, 0.4))
    path = solve(mu0, CONSTANT, 1.0, tol=1e-8, k_max=64)
    assert 2.5 in set(path.masses)  # 1.0 + 1.5
    assert 3.0 in set(path.masses)  # 1.5 + 1.5
    first_moment = sum(m * w for m, w in zip(mu0.masses, mu0.weights))
    assert path.moment(1.0, 1.0) == pytest.approx(first_moment, abs=1e-5)


def test_scaled_lattice_matches_the_unscaled_one():
    # {0.1, 0.7} is {1, 7} in units of 0.1: the same lattice and, with
    # constant K, the same equation; float keys once split 0.1 + 0.7 from
    # 0.7 + 0.1 and kept only 34 distinct masses
    scaled = solve(MassSpectrum((0.1, 0.7), (0.5, 0.5)), CONSTANT, 1.0, k_max=64)
    unscaled = solve(MassSpectrum((1.0, 7.0), (0.5, 0.5)), CONSTANT, 1.0, k_max=64)
    assert len(set(scaled.masses)) == len(set(unscaled.masses)) == 64
    assert scaled.units.tolist() == unscaled.units.tolist()
    assert scaled.masses.tolist() == [float(Fraction(int(u), 10)) for u in scaled.units]
    assert scaled.moment(0.0, 1.0) == pytest.approx(unscaled.moment(0.0, 1.0), abs=1e-9)
    assert scaled.moment(0.0, 1.0) == pytest.approx(2 / 3, abs=1e-5)


def test_mass_quantum():
    assert mass_quantum((1.0, 2.0)) == 1
    assert mass_quantum((0.1, 0.7)) == Fraction(1, 10)
    assert mass_quantum((1.0, 1.5)) == Fraction(1, 2)
    assert mass_quantum((1 / 3, 0.5)) == Fraction(1, 6)
    # 0.1 + 0.2 is 0.3 to within an ulp: it is read as 3/10
    assert mass_quantum((0.1 + 0.2,)) == Fraction(3, 10)
    # small units read as large ones do
    assert mass_quantum((1e-9, 2.5e-9)) == Fraction(1, 2 * 10**9)
    assert mass_quantum((1 / 3 * 1e-7,)) == Fraction(1, 3 * 10**7)


@pytest.mark.parametrize("mass", [math.sqrt(2.0), math.pi, math.sqrt(2.0) * 1e-9])
def test_incommensurate_masses_are_refused(mass):
    mu0 = MassSpectrum.from_pairs([(1.0, 0.5), (mass, 0.5)])
    with pytest.raises(ConfigError, match="no common quantum"):
        solve(mu0, CONSTANT, 1.0)
    assert issubclass(ConfigError, ValueError)


def test_an_initial_mass_beyond_the_lattice_is_refused():
    # the 8 smallest sums of {1, 20} are 1..8: the atom 20 is not among them
    with pytest.raises(ConfigError, match="beyond the 8-point lattice"):
        solve(MassSpectrum((1.0, 20.0), (0.5, 0.5)), CONSTANT, 1.0, k_max=8)


@pytest.mark.parametrize("masses", [(1.0,), (1.0, 2.0), (1.0, 1.5)])
def test_integer_lattice_and_pair_index_match_the_float_ones(masses):
    from tests_support import reference_lattice, reference_pair_index

    path = solve(MassSpectrum(masses, (1.0,) * len(masses)), CONSTANT, 0.5, k_max=64)
    assert path.masses.tolist() == reference_lattice(masses, 64).tolist()
    q = mass_quantum(masses)
    assert _lattice([int(m / q) for m in masses], 64).tolist() == path.units.tolist()
    for got, want in zip(_pair_index(path.units), reference_pair_index(path.masses)):
        assert got.tolist() == want.tolist()


def test_mass_leak_is_recorded_on_the_path():
    with pytest.warns(UserWarning, match="left the 16-point lattice"):
        path = solve(MONO, CONSTANT, 2.0, tol=1e-8, k_max=16)
    assert path.leak == pytest.approx(1.0 - path.moment(1.0, 2.0), rel=1e-12)
    assert path.leak > 1e-4
    assert 0.0 <= solve(MONO, CONSTANT, 2.0, tol=1e-8).leak <= 1e-7


def test_solve_rejects_gelation_horizon():
    from coagtree.kernels import GelationError

    with pytest.raises(GelationError):
        solve(MONO, builtin("product"), 0.99)


def test_solve_refuses_bad_sizes_tolerances_and_horizons():
    # each raised IndexError, SolverError or GelationError before
    for kw, match in (({"k_max": 0}, "k_max"), ({"k_max": -3}, "k_max"),
                      ({"tol": 0.0}, "tol"), ({"tol": -1e-8}, "tol"),
                      ({"tol": math.nan}, "tol")):
        with pytest.raises(ConfigError, match=match):
            solve(MONO, CONSTANT, 1.0, **kw)
    for t_end in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError, match="t_end"):
            solve(MONO, CONSTANT, t_end)


def test_mass_spectrum_validation():
    with pytest.raises(ValueError):
        MassSpectrum((2.0, 1.0), (0.5, 0.5))  # unsorted
    with pytest.raises(ValueError):
        MassSpectrum((1.0,), (-0.5,))
    with pytest.raises(ValueError):
        MassSpectrum((0.0,), (1.0,))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            MassSpectrum((1.0, bad), (0.5, 0.5))


# ---------------------------------------------------------------------------
# the solve against its solve_ivp reference, float for float

SPECTRA = {
    "mono": MassSpectrum.monodisperse(),
    "1-2": MassSpectrum((1.0, 2.0), (0.5, 0.25)),
    "0.1-0.7": MassSpectrum((0.1, 0.7), (0.5, 0.5)),
    "2-5": MassSpectrum((2.0, 5.0), (0.3, 0.1)),
    "3-7-11": MassSpectrum((3.0, 7.0, 11.0), (0.2, 0.1, 0.05)),
}
HORIZONS = {"constant": 2.0, "additive": 0.5, "product": 0.5, "inverse-sum": 2.0,
            "tabulated": 0.5}


def _assert_same_steps(got, want):
    """Every step's (t_old, t, y_old, Q) float for float, and the leak and nfev."""
    assert np.array_equal(got.ends, want.ends)
    assert np.array_equal(got.y_old, want.y_old)
    assert np.array_equal(got.q, want.q)
    assert got.leak == want.leak
    assert got.nfev == want.nfev


def _solve_both(mu0, kernel, t, **kw):
    """Both solves, with the warnings each one gave."""
    out = []
    for fn in (solve, reference_solve):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = fn(mu0, kernel, t, **kw)
        out.append((path, [str(w.message) for w in caught]))
    return out


@pytest.mark.parametrize("spectrum", sorted(SPECTRA))
@pytest.mark.parametrize("name", sorted(HORIZONS))
def test_solve_matches_the_solve_ivp_reference(name, spectrum, tmp_path):
    mu0 = SPECTRA[spectrum]
    kernel = (tabulated_kernel(write_additive_table(tmp_path / "k.csv"))
              if name == "tabulated" else builtin(name))
    t = min(HORIZONS[name], 0.5 * gelation_time(kernel, mu0.masses, mu0.weights))
    (got, got_warned), (want, want_warned) = _solve_both(mu0, kernel, t)
    _assert_same_steps(got, want)
    assert got.y_old.flags.c_contiguous and got.q.flags.c_contiguous
    assert got_warned == want_warned


# at t_end 20 and tol 1e-12, 8 of the 277 steps covered no time of the
# equally spaced 2001-point grid that the path once kept
@pytest.mark.parametrize("t_end, kw", [(2.0, {"k_max": 16}), (20.0, {"tol": 1e-12})],
                         ids=["leaking-k_max-16", "steps-between-grid-times"])
def test_solve_matches_the_solve_ivp_reference_off_the_defaults(t_end, kw):
    (got, got_warned), (want, want_warned) = _solve_both(MONO, CONSTANT, t_end, **kw)
    _assert_same_steps(got, want)
    assert got_warned == want_warned
    if "k_max" in kw:
        assert got.leak > 1e-4 and "left the 16-point lattice" in got_warned[0]


def test_a_tolerance_below_100_epsilons_is_raised_to_it():
    # as RK45 raises it, with a warning of its own
    with pytest.warns(UserWarning, match=r"tol 1e-15 is below 2\.22\d*e-14"):
        got = solve(MONO, CONSTANT, 0.5, tol=1e-15, k_max=16)
    with pytest.warns(UserWarning, match="rtol"):
        want = reference_solve(MONO, CONSTANT, 0.5, tol=1e-15, k_max=16)
    _assert_same_steps(got, want)


def test_path_counts_solver_steps():
    path = solve(MONO, CONSTANT, 2.0)
    assert path.steps > 0
    # RK45: two evaluations to start, then six per attempted step
    assert (path.nfev - 2) % 6 == 0
    assert path.nfev >= 2 + 6 * path.steps


def _nan_above_3(x, y):
    s = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    return np.where(s > 3.0, np.nan, 1.0)


def test_non_finite_kernel_is_refused():
    # a NaN rate made RK45's first step size NaN, and its rejection loop
    # never ended
    kernel = Kernel("nan-above-3", _nan_above_3, np.ones_like)
    with pytest.raises(KernelError, match=r"'nan-above-3' gives nan at masses \(1\.0, 3\.0\)"):
        solve(MONO, kernel, 1.0)
    inf = Kernel("inf", lambda x, y: np.full(np.broadcast_shapes(np.shape(x), np.shape(y)),
                                             np.inf), np.ones_like)
    with pytest.raises(KernelError, match=r"'inf' gives inf at masses \(1\.0, 1\.0\)"):
        solve(MONO, inf, 1.0)


def test_non_finite_weights_are_refused():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="weights must be finite"):
            MassSpectrum((1.0, 2.0), (0.5, bad))


def test_overflowing_solve_raises_solver_error():
    with pytest.raises(SolverError, match="blew up before t=1.0: overflow"):
        solve(MassSpectrum((1.0,), (1e200,)), CONSTANT, 1.0)


@pytest.mark.parametrize("nan_from_call", [1, 2, 40],
                         ids=["first-call", "initial-step", "partway"])
def test_stepper_fails_on_a_right_hand_side_that_turns_nan(nan_from_call):
    # a stand-in for the mean-field right-hand side: y' = -y until its
    # nan_from_call-th evaluation, NaN from there on.  Every step after that
    # is rejected and shrunk until it falls below ten float spacings, as in
    # scipy's RK45; a NaN first step, which RK45 retries forever, fails at once
    calls = 0

    def rhs(_t, y):
        nonlocal calls
        calls += 1
        return np.full_like(y, np.nan) if calls >= nan_from_call else -y

    accepted = 0
    with pytest.raises(SolverError, match=re.escape(
            "integration failed: Required step size is less than spacing "
            "between numbers.")):
        for _t_old, t, y_old, stages in _dopri45(rhs, np.ones(3), 10.0, 1e-6, 1e-8):
            assert np.isfinite(y_old).all() and np.isfinite(stages).all()
            assert 0.0 < t < 10.0
            accepted += 1
    assert accepted == (nan_from_call == 40) * ((nan_from_call - 2) // 6)
    # each rejection shrinks the step by 0.2, so a step of at most 10 falls
    # below 10 spacings of the floats even at t = 0 (5e-323) within 463 tries
    assert calls <= max(nan_from_call, 2) + 6 * 463
