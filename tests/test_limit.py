import itertools
import math
import time

import numpy as np
import pytest

from coagtree.kernels import builtin
from coagtree.limit import (
    TreeDensityQuery,
    build_preorder,
    density,
    density_product,
    density_recursive,
    finite_n_jump_density,
    functional,
    pushforward_check,
    time_integral,
)
from coagtree.simulate import (
    ConstantOne,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
)
from coagtree.smoluchowski import MassSpectrum, solve
from coagtree.trees import (
    LEAF,
    hist_leaf,
    hist_node,
    preorder,
    shape_node,
    shapes_up_to,
    shapes_with_leaves,
)

CONSTANT = builtin("constant")
MONO = MassSpectrum.monodisperse()
CHERRY = shape_node(LEAF, LEAF)
THREE = shape_node(LEAF, CHERRY)


@pytest.fixture(scope="module")
def path():
    return solve(MONO, CONSTANT, 2.0, tol=1e-10)


@pytest.fixture(scope="module")
def path_inv():
    return solve(MassSpectrum((1.0, 2.0), (0.7, 0.3)), builtin("inverse-sum"),
                 2.0, tol=1e-10, k_max=64)


def random_query(rng, n_leaves, t, mu0):
    shape = shapes_with_leaves(n_leaves)[
        int(rng.integers(len(shapes_with_leaves(n_leaves))))]
    masses = tuple(float(mu0.masses[i])
                   for i in rng.integers(len(mu0.masses), size=n_leaves))
    # pre-order times: each node below its parent
    times = []

    def rec(s, upper):
        if s.is_leaf:
            return
        own = float(rng.uniform(0, upper))
        times.append(own)
        rec(s.left, own)
        rec(s.right, own)

    rec(shape, t)
    return TreeDensityQuery(shape, masses, tuple(times), t)


def test_leaf_density(path):
    leaf = hist_leaf(1.0)
    assert density_product(leaf, path, 2.0) == pytest.approx(0.25, abs=1e-7)
    assert density_recursive(leaf, path, 2.0) == pytest.approx(0.25, abs=1e-7)


def test_cherry_density_formula(path):
    s = 0.8
    tree = hist_node(s, hist_leaf(1.0), hist_leaf(1.0))
    lam1 = path.survival_exponent(1.0, 0.0, s)
    lam2 = path.survival_exponent(2.0, s, 2.0)
    expected = 0.5 * 1.0 * math.exp(-(2 * lam1 + lam2))
    assert density_product(tree, path, 2.0) == pytest.approx(expected, rel=1e-12)


def test_density_query_interface(path):
    q = TreeDensityQuery(CHERRY, (1.0, 1.0), (0.8,), 2.0)
    tree = hist_node(0.8, hist_leaf(1.0), hist_leaf(1.0))
    assert density(q, path) == density_product(tree, path, 2.0)


def test_recursive_vs_product_three_leaves(path):
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = random_query(rng, 3, 2.0, MONO)
        tree = q.tree()
        a = density_recursive(tree, path, 2.0)
        b = density_product(tree, path, 2.0)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_recursive_vs_product_polydisperse(path_inv):
    mu0 = path_inv.mu0
    rng = np.random.default_rng(4)
    for _ in range(50):
        q = random_query(rng, int(rng.integers(1, 5)), 2.0, mu0)
        tree = q.tree()
        a = density_recursive(tree, path_inv, 2.0)
        b = density_product(tree, path_inv, 2.0)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_density_nonnegative(path_inv):
    rng = np.random.default_rng(5)
    for _ in range(50):
        q = random_query(rng, int(rng.integers(1, 5)), 2.0, path_inv.mu0)
        assert density_product(q.tree(), path_inv, 2.0) >= 0.0


def test_leaf_density_monotone_in_t(path):
    vals = [density_product(hist_leaf(1.0), path, t)
            for t in (0.2, 0.5, 1.0, 1.5, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_functional_leaf(path):
    res = functional(ShapeIndicator(LEAF), 1, path, CONSTANT, MONO, 2.0)
    assert res.value == pytest.approx(0.25, abs=1e-6)
    assert res.error >= 0.0
    # tail: everything except singletons
    assert res.tail_bound == pytest.approx(0.25, abs=1e-6)


def test_functional_cherry_closed_form(path):
    # integral of (1/2)(1+s/2)^{-4}((1+s/2)/(1+t/2))^2 ds = (t/2)/(1+t/2)^3
    t = 2.0
    res = functional(ShapeIndicator(CHERRY), 2, path, CONSTANT, MONO, t, tol=1e-9)
    assert res.value == pytest.approx((t / 2) / (1 + t / 2) ** 3, abs=1e-6)
    assert res.value == pytest.approx(0.125, abs=1e-6)


def test_functional_three_chain(path):
    res = functional(ShapeIndicator(THREE), 3, path, CONSTANT, MONO, 2.0)
    assert res.value == pytest.approx(1 / 16, abs=1e-6)  # c_3(2)


def test_functional_zero(path):
    res = functional(lambda tree: 0.0, 3, path, CONSTANT, MONO, 2.0)
    assert res.value == 0.0
    assert res.error == 0.0


def test_functional_time_box(path):
    # closed form restricted to merge times in [a, b]
    a, b = 0.5, 1.5
    f = ShapeTimeBoxIndicator(CHERRY, ((a, b),))
    res = functional(f, 2, path, CONSTANT, MONO, 2.0, tol=1e-10)

    def antiderivative(s):
        # integral of (1/2)(1+s/2)^{-4} ((1+s/2)/2)^2 ds = (1/8)(-2/(1+s/2))'
        return -0.25 / (1 + s / 2)

    expected = antiderivative(b) - antiderivative(a)
    assert res.value == pytest.approx(expected, abs=1e-8)


def test_labeled_sum_matches_unlabeled_at_n3(path):
    # summing the labeled density over the 3 labeled trees of the 3-chain
    # shape equals 2^q = 1 times ... equivalently the unlabeled functional
    # equals (number of labelings / n!) weighted integral; at n=3 the chain
    # shape has 3 labelings and q=1, so the unlabeled integral equals the
    # per-labeling integral directly (masses identical).
    val, err, one, _ = time_integral(THREE, (1.0, 1.0, 1.0), path, 2.0,
                                     ConstantOne(), CONSTANT, tol=1e-10)
    res = functional(ShapeIndicator(THREE), 3, path, CONSTANT, MONO, 2.0)
    q = 1  # symmetry exponent of the 3-leaf chain
    assert res.value == pytest.approx(2.0 ** (-q) * one, rel=1e-9)


def test_pushforward_consistency(path):
    rep = pushforward_check(path, MONO, CONSTANT, 2.0, 4)
    assert rep.max_discrepancy <= 1e-5
    masses = [row[0] for row in rep.rows]
    assert masses == [1.0, 2.0, 3.0, 4.0]
    assert rep.rows[0][1] == pytest.approx(0.25, abs=1e-6)
    assert rep.rows[1][1] == pytest.approx(0.125, abs=1e-6)


def test_pushforward_at_t0():
    path0 = solve(MONO, CONSTANT, 0.5, tol=1e-10)
    rep = pushforward_check(path0, MONO, CONSTANT, 0.0, 2)
    # at t=0 everything is a leaf of mass 1
    assert rep.rows[0][1] == pytest.approx(1.0, abs=1e-9)
    assert rep.rows[1][1] == 0.0
    assert rep.max_discrepancy <= 1e-6


def test_finite_n_jump_density_two_particles():
    tree = hist_node(0.7, hist_leaf(1.0), hist_leaf(1.0))
    # n = N = 2, K = 1: density (1/2) exp(-s/2)
    got = finite_n_jump_density(tree, 2.0, 2, CONSTANT)
    assert got == pytest.approx(0.5 * math.exp(-0.35), rel=1e-12)


def test_finite_n_jump_density_three_particles():
    s1, s2 = 0.3, 0.9
    tree = hist_node(s2, hist_node(s1, hist_leaf(1.0), hist_leaf(1.0)),
                     hist_leaf(1.0))
    # K=1, N=3: rate 3/3=1 on (0,s1), 1/3 on (s1,s2), 0 after
    expected = (1.0 / 9.0) * math.exp(-(s1 + (s2 - s1) / 3.0))
    assert finite_n_jump_density(tree, 2.0, 3, CONSTANT) == \
        pytest.approx(expected, rel=1e-12)


def test_build_preorder_respects_order():
    tree = build_preorder(THREE, (1.0, 1.0, 1.0), (1.2, 0.4))
    assert tree.time == 1.2
    inner = tree.left if not tree.left.is_leaf else tree.right
    assert inner.time == 0.4
    with pytest.raises(Exception):
        build_preorder(THREE, (1.0, 1.0, 1.0), (0.4, 1.2))


def test_time_integral_reports_an_unconverged_order_ladder(path):
    # a jump at s = 0.7 that f does not declare as a breakpoint: Gauss-Legendre
    # converges slowly, so the last two orders still differ and say so
    def early_merge(tree):
        return 1.0 if tree.time < 0.7 else 0.0

    val, err, one, one_err = time_integral(CHERRY, (1.0, 1.0), path, 2.0,
                                           early_merge, CONSTANT, tol=1e-8)
    assert err > 1e-9
    assert one_err <= 1e-9
    # as in test_functional_time_box, without the symmetry factor 1/2
    exact = 2 * (0.25 - 0.25 / (1 + 0.7 / 2))
    assert abs(val - exact) <= err


# -- the recursive evaluator against the nested Gauss-Legendre oracle

BIDISPERSE = MassSpectrum((1.0, 2.0), (0.5, 0.5))


def gl_only(f, shape, masses):
    """``f`` as a plain callable: no ``time_boxes``, so time_integral uses GL.

    Its breakpoints are kept where f can be nonzero; elsewhere they would only
    multiply the quadrature panels.
    """
    g = lambda tree: f(tree)  # noqa: E731
    if f.time_boxes(shape, masses)[0]:
        g.time_breakpoints = getattr(f, "time_breakpoints", ())
    return g


@pytest.fixture(scope="module")
def oracle_paths(path, path_inv):
    return {
        "constant": path,
        "bidisperse": solve(BIDISPERSE, CONSTANT, 2.0, tol=1e-10),
        "inverse-sum": path_inv,
        "additive": solve(MONO, builtin("additive"), 1.0, tol=1e-10),
    }


ORACLE_CASES = {
    # name: (path, t, f, leaf masses left to right, cut to the shape)
    "constant-mono": ("constant", 2.0, ShapeIndicator, (1.0,) * 4),
    "constant-bidisperse": ("bidisperse", 2.0, ShapeIndicator, (1.0, 2.0, 2.0, 1.0)),
    "inverse-sum": ("inverse-sum", 2.0, ShapeIndicator, (2.0, 1.0, 1.0, 2.0)),
    "additive-cherry-box": ("additive", 1.0,
                            ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),)), (1.0,) * 4),
    "mass-cutoff": ("constant", 2.0, MassCutoff(2.0), (1.0,) * 4),
    # two box sets on the 3-leaf chain intersect; the ramp there is 1/2
    "product": ("additive", 1.0, FunctionalProduct((
        ShapeTimeBoxIndicator(THREE, ((0.2, 0.9), (0.1, 0.6))),
        ShapeTimeBoxIndicator(THREE, ((0.3, 1.0), (0.0, 0.5))),
        MassCutoff(2.5))), (1.0,) * 4),
}


@pytest.mark.parametrize("shape", shapes_up_to(4), ids=lambda s: s.serial)
@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_recursive_evaluator_matches_gauss_legendre(oracle_paths, case, shape):
    name, t, f, masses = ORACLE_CASES[case]
    p = oracle_paths[name]
    if f is ShapeIndicator:
        f = ShapeIndicator(shape)
    masses = masses[:shape.n_leaves]
    tol = 1e-8
    fast = time_integral(shape, masses, p, t, f, tol=tol)
    oracle = time_integral(shape, masses, p, t, gl_only(f, shape, masses), tol=1e-12)
    assert fast[0] == pytest.approx(oracle[0], abs=1e-10)
    assert fast[2] == pytest.approx(oracle[2], abs=1e-10)
    assert fast[1] <= tol and fast[3] <= tol


def test_bidisperse_cherry_to_four_leaves_is_fast():
    # the bidisperse case the nested quadrature took ~18 s for
    start = time.perf_counter()
    p = solve(BIDISPERSE, CONSTANT, 2.0)
    res = functional(ShapeIndicator(CHERRY), 4, p, CONSTANT, BIDISPERSE, 2.0)
    assert res.value == pytest.approx(0.125, abs=1e-6)
    assert time.perf_counter() - start < 5.0


def test_time_boxes_are_declared_only_where_the_children_agree():
    # a history orders two equal-sized children by its text, not by shape,
    # so different boxes on the two cherries leave the nested quadrature
    balanced = shape_node(CHERRY, CHERRY)
    masses = (1.0,) * 4
    same = ShapeTimeBoxIndicator(balanced, ((0.5, 2.0), (0.1, 0.5), (0.1, 0.5)))
    assert same.time_boxes(balanced, masses) == (1.0, same.boxes)
    assert same.time_boxes(THREE, masses[:3]) == (0.0, None)
    differ = ShapeTimeBoxIndicator(balanced, ((0.5, 2.0), (0.1, 0.5), (0.0, 0.3)))
    assert differ.time_boxes(balanced, masses) is None
    assert FunctionalProduct((differ, MassCutoff(5.0))).time_boxes(balanced, masses) is None
    assert FunctionalProduct((same, lambda tree: 1.0)).time_boxes(balanced, masses) is None
    both = FunctionalProduct((same, ShapeTimeBoxIndicator(
        balanced, ((0.0, 1.5), (0.2, 0.6), (0.2, 0.6))), MassCutoff(3.5)))
    assert both.time_boxes(balanced, masses) == \
        (0.5, ((0.5, 1.5), (0.2, 0.5), (0.2, 0.5)))
