import numpy as np
import pytest

from coagtree.kernels import (
    GelationError,
    KernelError,
    builtin,
    check_assumptions,
    check_gelation,
    gelation_time,
    tabulated_kernel,
)
from coagtree.smoluchowski import MassSpectrum


def test_builtin_values():
    assert builtin("constant").evaluate(3.0, 7.0) == 1.0
    assert builtin("product").evaluate(2.0, 3.0) == 6.0
    assert builtin("additive").evaluate(2.0, 3.0) == 5.0
    assert builtin("inverse-sum").evaluate(1.0, 1.0) == pytest.approx(1 / 3)


def test_unknown_kernel():
    with pytest.raises(KernelError):
        builtin("squared")


def test_constant_kernel_is_constant():
    K = builtin("constant")
    rng = np.random.default_rng(1)
    xs, ys = rng.uniform(0.1, 50, 100), rng.uniform(0.1, 50, 100)
    assert np.all(np.asarray(K.evaluate(xs, ys)) == 1.0)


@pytest.mark.parametrize("name", ["constant", "product", "additive", "inverse-sum"])
def test_symmetry_exact(name):
    K = builtin(name)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.uniform(0.1, 20, size=2)
        assert K.evaluate(x, y) == K.evaluate(y, x)


@pytest.mark.parametrize("name", ["constant", "product", "additive", "inverse-sum"])
def test_scalar_fast_path_matches_numpy(name):
    K = builtin(name)
    rng = np.random.default_rng(3)
    xs, ys = rng.uniform(0.01, 50, 200), rng.uniform(0.01, 50, 200)
    row, phis = np.asarray(K.evaluate(xs, ys)), np.asarray(K.phi(xs))
    for k, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
        value, p = K.evaluate(x, y), K.phi(x)
        assert type(value) is float and type(p) is float
        assert value == row[k] and p == phis[k]


def test_tabulated_lookup_matches_scipy(tmp_path):
    from scipy.interpolate import RegularGridInterpolator

    grid = np.array([0.5, 1.0, 1.5, 3.0, 7.0, 10.0])
    table = 1.0 + np.add.outer(grid, grid) + np.sqrt(np.multiply.outer(grid, grid))
    path = tmp_path / "smooth.csv"
    path.write_text("".join(f"{x!r},{y!r},{v!r}\n" for x, values in
                            zip(grid.tolist(), table.tolist())
                            for y, v in zip(grid.tolist(), values)))
    K = tabulated_kernel(str(path))
    oracle = RegularGridInterpolator((grid, grid), table, bounds_error=False,
                                     fill_value=None)
    rng = np.random.default_rng(4)
    xs = np.concatenate([rng.uniform(0.2, 12.0, 300), grid, [0.3, 11.5]])
    ys = np.concatenate([rng.uniform(0.2, 12.0, 300), grid[::-1], [11.9, 0.25]])
    want = oracle(np.stack([xs, ys], axis=-1))
    got = np.asarray(K.evaluate(xs, ys))
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12
    scalars = [K.evaluate(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert all(type(v) is float for v in scalars)
    assert np.array_equal(scalars, got)
    assert np.array_equal(K.matrix(grid), table)


def test_check_assumptions():
    mono = MassSpectrum.monodisperse()
    rep = check_assumptions(builtin("constant"), mono)
    assert rep.phi_second_moment == 1.0
    assert rep.symmetry_residual == 0.0
    assert rep.factorization_residual == 0.0
    assert rep.ok()

    rep = check_assumptions(builtin("product"), mono)
    assert rep.phi_second_moment == 1.0

    mixed = MassSpectrum((1.0, 2.0), (0.5, 0.5))
    rep = check_assumptions(builtin("product"), mixed)
    assert rep.phi_second_moment == pytest.approx(2.5)
    assert rep.ok()


def test_gelation_guard():
    mono = MassSpectrum.monodisperse()
    assert gelation_time(builtin("constant"), mono.masses, mono.weights) == np.inf
    assert gelation_time(builtin("product"), mono.masses, mono.weights) == 1.0
    with pytest.raises(GelationError):
        check_gelation(builtin("product"), mono.masses, mono.weights, 0.96)
    check_gelation(builtin("product"), mono.masses, mono.weights, 0.9)
    check_gelation(builtin("product"), mono.masses, mono.weights, 2.0,
                   allow_gelation=True)
    # no finite gelation time: any horizon passes
    check_gelation(builtin("constant"), mono.masses, mono.weights, np.inf)
    # the message names no override; the CLI adds its own flag's name
    with pytest.raises(GelationError) as refused:
        check_gelation(builtin("product"), mono.masses, mono.weights, 0.96)
    assert "allow" not in str(refused.value)


def test_tabulated_kernel(tmp_path):
    path = tmp_path / "grid.csv"
    path.write_text("x,y,value\n1,1,2.0\n1,2,3.0\n2,1,5.0\n2,2,8.0\n")
    K = tabulated_kernel(str(path))
    # asymmetric entries averaged
    assert K.evaluate(1.0, 2.0) == pytest.approx(4.0)
    assert K.evaluate(2.0, 1.0) == pytest.approx(4.0)
    assert K.evaluate(1.0, 1.0) == pytest.approx(2.0)
    # bilinear between grid points
    assert K.evaluate(1.5, 1.0) == pytest.approx(0.5 * (2.0 + 4.0))


def test_tabulated_kernel_rejects_nonpositive(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y,value\n1,1,0.0\n1,2,1.0\n2,2,1.0\n")
    with pytest.raises(KernelError):
        tabulated_kernel(str(path))
    path.write_text("x,y,value\n1,1,2.0\n")  # one mass is no grid
    with pytest.raises(KernelError):
        tabulated_kernel(str(path))


def test_tabulated_kernel_pickles(tmp_path):
    import pickle

    path = tmp_path / "grid.csv"
    path.write_text("x,y,value\n1,1,2.0\n1,2,3.0\n2,1,5.0\n2,2,8.0\n1,4,6.0\n"
                    "2,4,7.0\n4,4,9.0\n")
    K = tabulated_kernel(str(path))
    xs = np.array([0.5, 1.0, 1.7, 3.0, 5.0])
    before = (K.evaluate(1.5, 3.0), K.evaluate(2.5, xs), K.matrix(xs))
    back = pickle.loads(pickle.dumps(K))
    after = (back.evaluate(1.5, 3.0), back.evaluate(2.5, xs), back.matrix(xs))
    assert isinstance(after[0], float) and after[0] == before[0]
    assert np.array_equal(after[1], before[1])
    assert np.array_equal(after[2], before[2])
