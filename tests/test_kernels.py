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
