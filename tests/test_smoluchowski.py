import math

import numpy as np
import pytest

from coagtree.kernels import builtin
from coagtree.smoluchowski import (
    MassSpectrum,
    SolverError,
    constant_kernel_weights,
    solve,
)

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


def test_survival_exponent_vs_trapezoid_oracle():
    path = solve(MONO, CONSTANT, 2.0, tol=1e-10)
    ts = np.linspace(0.3, 1.7, 3001)
    g = [path.moment(0.0, t) for t in ts]  # K=1: integrand is <1, mu_r>
    oracle = np.trapezoid(g, ts)
    assert path.survival_exponent(1.0, 0.3, 1.7) == pytest.approx(oracle, abs=1e-8)


def test_survival_exponent_refuses_times_past_the_solution():
    from coagtree.limit import density_product
    from coagtree.trees import hist_leaf

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
    assert path.moment(1.0, 1.0) == pytest.approx(mu0.moment(1.0), abs=1e-5)


def test_solve_rejects_gelation_horizon():
    from coagtree.kernels import GelationError

    with pytest.raises(GelationError):
        solve(MONO, builtin("product"), 0.99)


def test_mass_spectrum_validation():
    with pytest.raises(ValueError):
        MassSpectrum((2.0, 1.0), (0.5, 0.5))  # unsorted
    with pytest.raises(ValueError):
        MassSpectrum((1.0,), (-0.5,))
    with pytest.raises(ValueError):
        MassSpectrum((0.0,), (1.0,))
