import dataclasses
import inspect
import itertools
import math
import pickle
import time
import warnings

import numpy as np
import pytest

from coagtree import limit
from coagtree.kernels import builtin
from coagtree.limit import (
    functional,
    functionals,
    pushforward_check,
    terms,
    time_integral,
)
from coagtree.simulate import (
    ConstantOne,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    empirical_measure,
    evaluate_functional,
    rng_for,
    simulate,
)
from coagtree.smoluchowski import MassSpectrum, solve
from coagtree.trees import LEAF, shape_node, shapes_up_to, shapes_with_leaves
from tests_support import (
    build_preorder,
    density_product,
    density_recursive,
    finite_n_jump_density,
    gl_time_integral,
    hist_leaf,
    hist_node,
    mono_limit_cell,
    reference_value,
)

CONSTANT = builtin("constant")
MONO = MassSpectrum.monodisperse()
CHERRY = shape_node(LEAF, LEAF)
THREE = shape_node(LEAF, CHERRY)


@pytest.fixture(scope="module")
def path():
    return solve(MONO, CONSTANT, 2.0, tol=1e-10)


INV_MU0 = MassSpectrum((1.0, 2.0), (0.7, 0.3))


@pytest.fixture(scope="module")
def path_inv():
    return solve(INV_MU0, builtin("inverse-sum"), 2.0, tol=1e-10, k_max=64)


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
    return build_preorder(shape, masses, tuple(times))


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
    built = build_preorder(CHERRY, (1.0, 1.0), (0.8,))
    tree = hist_node(0.8, hist_leaf(1.0), hist_leaf(1.0))
    assert density_product(built, path, 2.0) == density_product(tree, path, 2.0)


def test_recursive_vs_product_three_leaves(path):
    rng = np.random.default_rng(3)
    for _ in range(100):
        tree = random_query(rng, 3, 2.0, MONO)
        a = density_recursive(tree, path, 2.0)
        b = density_product(tree, path, 2.0)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_recursive_vs_product_polydisperse(path_inv):
    rng = np.random.default_rng(4)
    for _ in range(50):
        tree = random_query(rng, int(rng.integers(1, 5)), 2.0, INV_MU0)
        a = density_recursive(tree, path_inv, 2.0)
        b = density_product(tree, path_inv, 2.0)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_density_nonnegative(path_inv):
    rng = np.random.default_rng(5)
    for _ in range(50):
        tree = random_query(rng, int(rng.integers(1, 5)), 2.0, INV_MU0)
        assert density_product(tree, path_inv, 2.0) >= 0.0


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
    # a 4-leaf shape is zero on every term up to 3 leaves
    res = functional(ShapeIndicator(shape_node(CHERRY, CHERRY)), 3, path, CONSTANT,
                     MONO, 2.0)
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
    one = time_integral(THREE, (1.0, 1.0, 1.0), path, 2.0,
                        ConstantOne(), tol=1e-10).one
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


def test_finite_n_jump_density_agrees_with_the_direct_product():
    from tests_support import internal_interaction_rate, kernel_product, random_history

    additive = builtin("additive")
    rng = np.random.default_rng(1011)
    for _ in range(50):
        tree = random_history(rng, int(rng.integers(1, 7)))
        N, n = int(rng.integers(tree.n_leaves, 40)), tree.n_leaves
        cuts = sorted({0.0, 1.0} | {v.time for v in tree.internal_nodes()})
        integral = sum(internal_interaction_rate(tree, 0.5 * (a + b), additive) * (b - a)
                       for a, b in zip(cuts[:-1], cuts[1:]))
        direct = kernel_product(tree, additive) / float(N) ** (n - 1) \
            * math.exp(-integral / N)
        assert finite_n_jump_density(tree, 1.0, N, additive) == \
            pytest.approx(direct, rel=1e-12)


def test_finite_n_jump_density_of_a_large_tree_is_finite():
    def caterpillar(n):
        tree = hist_leaf(1.0)
        for k in range(1, n):
            tree = hist_node(k / n, tree, hist_leaf(1.0))
        return tree

    # N^(n-1) alone overflows a float: 199 * log10(2000) = 657 > 308
    assert finite_n_jump_density(caterpillar(200), 1.0, 2000, CONSTANT) == 0.0
    # here 39 * log10(1e9) = 351 > 308 too, but the additive K_xi = 40! keeps
    # the density above 1e-305; exp(-I/N) is 1 - O(1e-5)
    expected = math.exp(math.lgamma(41) - 39 * math.log(1e9))
    got = finite_n_jump_density(caterpillar(40), 1.0, 10**9, builtin("additive"))
    assert got == pytest.approx(expected, rel=1e-4) and expected > 1e-305


def test_build_preorder_respects_order():
    tree = build_preorder(THREE, (1.0, 1.0, 1.0), (1.2, 0.4))
    assert tree.time == 1.2
    inner = tree.left if not tree.left.is_leaf else tree.right
    assert inner.time == 0.4
    with pytest.raises(Exception):
        build_preorder(THREE, (1.0, 1.0, 1.0), (0.4, 1.2))


def test_time_integral_reports_an_unconverged_order_ladder(path):
    # a jump at s = 0.7 that f does not declare as a breakpoint: the
    # Gauss-Legendre oracle converges slowly, so the last two orders still
    # differ and say so
    def early_merge(tree):
        return 1.0 if tree.time < 0.7 else 0.0

    res = gl_time_integral(CHERRY, (1.0, 1.0), path, 2.0, early_merge, tol=1e-8)
    val, err, one, one_err, converged = res
    assert err > 1e-9 and not converged
    assert one_err <= 1e-9
    # as in test_functional_time_box, without the symmetry factor 1/2
    exact = 2 * (0.25 - 0.25 / (1 + 0.7 / 2))
    assert abs(val - exact) <= err


# -- the recursive evaluator against the nested Gauss-Legendre oracle

BIDISPERSE = MassSpectrum((1.0, 2.0), (0.5, 0.5))


def gl_only(f, shape, masses):
    """``f`` as a plain callable for the Gauss-Legendre oracle.

    Its breakpoints are the ends of its time boxes on ``shape``, where f can
    be nonzero; elsewhere they would only multiply the quadrature panels.
    """
    g = lambda tree: reference_value(f, tree)  # noqa: E731
    c, boxes = f.time_boxes(shape, sum(masses))
    if c and boxes is not None:
        g.time_breakpoints = tuple(b for box in boxes for b in box)
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
    oracle = gl_time_integral(shape, masses, p, t, gl_only(f, shape, masses), tol=1e-12)
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
    # so the two must carry the same boxes, at every depth
    balanced = shape_node(CHERRY, CHERRY)
    same = ShapeTimeBoxIndicator(balanced, ((0.5, 2.0), (0.1, 0.5), (0.1, 0.5)))
    assert same.time_boxes(balanced, 4.0) == (1.0, same.boxes)
    assert same.time_boxes(THREE, 3.0) == (0.0, None)
    caterpillar = shape_node(LEAF, THREE)
    ShapeTimeBoxIndicator(caterpillar, ((0.5, 2.0), (0.1, 0.5), (0.0, 0.3)))
    for shape, boxes in (
            (balanced, ((0.5, 2.0), (0.1, 0.5), (0.0, 0.3))),
            # equal outer halves, unequal cherries inside them
            (shape_node(balanced, balanced), ((0.0, 2.0),) + ((0.5, 2.0), (0.1, 0.5),
                                                               (0.0, 0.3)) * 2),
            # equal leaf counts, different shapes, each half valid alone
            (shape_node(caterpillar, balanced), ((0.0, 2.0), (0.5, 2.0), (0.1, 0.5),
                                                 (0.0, 0.3), (0.5, 2.0), (0.0, 0.3),
                                                 (0.0, 0.3)))):
        with pytest.raises(ValueError, match="same boxes"):
            ShapeTimeBoxIndicator(shape, boxes)
    with pytest.raises(TypeError, match="time_boxes"):
        FunctionalProduct((same, lambda tree: 1.0)).time_boxes(balanced, 4.0)
    both = FunctionalProduct((same, ShapeTimeBoxIndicator(
        balanced, ((0.0, 1.5), (0.2, 0.6), (0.2, 0.6))), MassCutoff(3.5)))
    assert both.time_boxes(balanced, 4.0) == \
        (0.5, ((0.5, 1.5), (0.2, 0.5), (0.2, 0.5)))


# -- one batch evaluator: terms against one-term calls, and fixed floats

THREE_ATOMS = MassSpectrum((1.0, 2.0, 3.0), (0.5, 0.3, 0.2))
TERM_CASES = {
    # name: (kernel, mu0, t, f, tau)
    "mono": ("constant", MONO, 2.0, ShapeIndicator(CHERRY), 4),
    "bidisperse": ("constant", BIDISPERSE, 2.0, MassCutoff(3.5), 4),
    "three-atoms": ("additive", THREE_ATOMS, 0.5, ConstantOne(), 3),
    "two-box-product": ("additive", BIDISPERSE, 1.0, FunctionalProduct((
        ShapeTimeBoxIndicator(THREE, ((0.2, 0.9), (0.1, 0.6))),
        ShapeTimeBoxIndicator(THREE, ((0.3, 1.0), (0.0, 0.5))),
        MassCutoff(4.5))), 3),
    "time-box": ("inverse-sum", BIDISPERSE, 2.0,
                 ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),)), 3),
    "plain-lambda": ("constant", BIDISPERSE, 2.0,
                     lambda tree: float(tree.n_leaves == 2), 2),
}


@pytest.mark.parametrize("case", sorted(TERM_CASES))
def test_terms_equal_one_term_time_integrals(case):
    name, mu0, t, f, tau = TERM_CASES[case]
    kernel = builtin(name)
    p = solve(mu0, kernel, t, k_max=64)
    if not hasattr(f, "time_boxes"):
        with pytest.raises(TypeError, match="time_boxes"):
            list(terms(f, tau, p, t))
        return
    listed = list(terms(f, tau, p, t))
    assert len(listed) == sum(len(mu0.masses) ** s.n_leaves for s in shapes_up_to(tau))
    for shape, masses, _, integral in listed:
        alone = time_integral(shape, masses, p, t, f)
        assert [x.hex() for x in integral[:4]] == [x.hex() for x in alone[:4]]
        assert integral.converged is alone.converged is True
    back = pickle.loads(pickle.dumps(listed[-1][3]))
    assert back == listed[-1][3] and back.converged is True


# -- one integration for several functionals, float for float

SHARED_CASES = {
    # name: (kernel, mu0, t, functionals, tau)
    "lln-trio": ("constant", MONO, 2.0, (
        ShapeIndicator(LEAF), ShapeIndicator(CHERRY),
        ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),))), 2),
    "two-cherry-boxes": ("constant", BIDISPERSE, 2.0, (
        ShapeIndicator(CHERRY), ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),)),
        ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),))), 3),
    "cutoff-and-boxed-product": ("additive", MONO, 0.8, (
        MassCutoff(2.5), FunctionalProduct((
            ShapeTimeBoxIndicator(THREE, ((0.2, 0.7), (0.1, 0.5))), MassCutoff(3.5)))), 3),
    "listed-twice": ("constant", MONO, 2.0, (ShapeIndicator(CHERRY),) * 2, 3),
}


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_functionals_equal_one_functional_calls(case):
    name, mu0, t, fs, tau = SHARED_CASES[case]
    kernel = builtin(name)
    p = solve(mu0, kernel, t)
    together = functionals(fs, tau, p, t)
    alone = [functional(f, tau, p, kernel, mu0, t) for f in fs]
    assert len(together) == len(fs)
    for res, one in zip(together, alone):
        assert [x.hex() for x in (res.value, res.error, res.tail_bound)] == \
            [x.hex() for x in (one.value, one.error, one.tail_bound)]
        assert res.unconverged == one.unconverged == 0
        assert res.terms == one.terms
    # the call integrates each shared term once, for all of its functionals
    assert len({res.integrals for res in together}) == 1
    assert together[0].integrals < sum(one.integrals for one in alone)
    if case == "lln-trio":
        # leaf, cherry, and the cherry again in its box: 3 integrals for 6 reads
        assert [res.terms for res in together] == [2, 2, 2]
        assert together[0].integrals == 3


# float.hex of (value, error, tail_bound), computed before the batch
# evaluator and the integer lattice replaced the per-term recursion,
# re-pinned when a Romberg exit came to stop the refinement ladder (values
# moved by at most 9.2e-16, tail bounds 1.3e-15, errors to their rounding
# floor), and again when the path's dense output replaced its linear
# interpolation between 2001 grid times (the cherry's values moved from
# 6.0e-9 below their closed form 0.125 to 5.0e-11 / 5.9e-11 above it), and
# again when Chebyshev collocation replaced the refinement ladder (values
# moved by at most 5.9e-16, tail bounds 1.9e-14, errors from ~3e-12 to the
# values' rounding)
LIMIT_WORKLOAD_GOLDEN = {
    "mono_tau4": ('0x1.00000001b7ff2p-3', '0x1.00000001b7ff2p-55', '0x1.0000002733420p-5'),
    "bi_tau3": ('0x1.0000000203e49p-3', '0x1.0000000203e49p-55', '0x1.0000001bf65f8p-4'),
    "additive_box_tau3": ('0x1.cb85978c61f05p-6', '0x1.cb85978c61f05p-58', '0x1.2d65297ffccbcp-4'),
}


def test_limit_workload_functionals_keep_their_floats():
    additive = builtin("additive")
    mono = solve(MONO, CONSTANT, 2.0, tol=1e-8)
    bi = solve(BIDISPERSE, CONSTANT, 2.0, tol=1e-8)
    box = solve(MONO, additive, 1.0, tol=1e-8)
    got = {
        "mono_tau4": functional(ShapeIndicator(CHERRY), 4, mono, CONSTANT, MONO, 2.0),
        "bi_tau3": functional(ShapeIndicator(CHERRY), 3, bi, CONSTANT, BIDISPERSE, 2.0),
        "additive_box_tau3": functional(ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),)),
                                        3, box, additive, MONO, 1.0),
    }
    for case, res in got.items():
        hexed = (res.value.hex(), res.error.hex(), res.tail_bound.hex())
        assert hexed == LIMIT_WORKLOAD_GOLDEN[case], case
        assert res.unconverged == 0


def test_pushforward_rows_keep_their_floats():
    # (mass, limit weight, solver weight) rows and the worst gap, as float.hex;
    # the limit weights re-pinned with LIMIT_WORKLOAD_GOLDEN
    mono = pushforward_check(solve(MONO, CONSTANT, 2.0, tol=1e-8), MONO, CONSTANT, 2.0, 4)
    assert [tuple(x.hex() for x in row) for row in mono.rows] == list((
        ('0x1.0000000000000p+0', '0x1.000000014c52fp-2', '0x1.00000022fa64dp-2'),
        ('0x1.0000000000000p+1', '0x1.00000001b7ff2p-3', '0x1.ffffff291b990p-4'),
        ('0x1.8000000000000p+1', '0x1.0000000223ab4p-4', '0x1.0000006cc00f2p-4'),
        ('0x1.0000000000000p+2', '0x1.000000028f577p-5', '0x1.0000002c96814p-5'),
    ))
    assert mono.max_discrepancy.hex() == '0x1.b4a8ca8000000p-29'
    bi = pushforward_check(solve(BIDISPERSE, CONSTANT, 2.0, tol=1e-8), BIDISPERSE,
                           CONSTANT, 2.0, 3)
    assert [tuple(x.hex() for x in row) for row in bi.rows] == list((
        ('0x1.0000000000000p+0', '0x1.00000001746b6p-3', '0x1.0000002d4776dp-3'),
        ('0x1.0000000000000p+1', '0x1.40000001f5648p-3', '0x1.400000098b5d0p-3'),
        ('0x1.8000000000000p+1', '0x1.2000000256504p-4', '0x1.1fffff84c7274p-4'),
        ('0x1.0000000000000p+2', '0x1.c0000003f26acp-5', '0x1.cfffffe972a55p-5'),
        ('0x1.4000000000000p+2', '0x1.80000003dd0c7p-6', '0x1.0400007da43dcp-5'),
        ('0x1.8000000000000p+2', '0x1.00000002935dap-7', '0x1.6a00005d0103ap-6'),
    ))
    assert bi.max_discrepancy.hex() == '0x1.d40000b76ea9ap-7'


def test_a_kernel_or_mu0_that_is_not_the_paths_is_refused(path):
    # K, mu0 and the survival exponents all come from one solved path
    cherry = ShapeIndicator(CHERRY)
    wrong = (("kernel", builtin("additive"), MONO),
             ("mu0", CONSTANT, MassSpectrum.from_pairs([(1.0, 2.0)])),
             ("mu0", CONSTANT, BIDISPERSE))
    for what, kernel, mu0 in wrong:
        with pytest.raises(ValueError, match=what):
            functional(cherry, 2, path, kernel, mu0, 2.0)
        with pytest.raises(ValueError, match=what):
            pushforward_check(path, mu0, kernel, 2.0, 2)
    # equal copies of the path's own pass, and so does an atom of weight 0
    same = functional(cherry, 2, path, dataclasses.replace(CONSTANT),
                      MassSpectrum((1.0, 2.0), (1.0, 0.0)), 2.0)
    assert same == functional(cherry, 2, path, CONSTANT, MONO, 2.0)


def test_terms_and_functionals_read_k_and_mu0_from_the_path_alone():
    # only the two calls the benchmark makes by position keep them
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (terms, functionals, functional, pushforward_check)}
    assert params == {
        "terms": ["f", "tau_max_leaves", "path", "t", "tol"],
        "functionals": ["fs", "tau_max_leaves", "path", "t", "tol"],
        "functional": ["f", "tau_max_leaves", "path", "kernel", "mu0", "t", "tol"],
        "pushforward_check": ["path", "mu0", "kernel", "t", "n_max"],
    }


def test_terms_take_their_leaf_masses_from_the_paths_lattice():
    # mu0's mass 0.1 + 0.2 is the lattice point 0.3, which the solve steps;
    # the leaves once carried mu0's own float 0.30000000000000004, and K and
    # G were evaluated there
    mu0 = MassSpectrum((0.1 + 0.2,), (1.0,))
    additive = builtin("additive")
    path = solve(mu0, additive, 1.0)
    assert path.masses[0] == 0.3 != mu0.masses[0]
    listed = list(terms(ConstantOne(), 2, path, 1.0))
    assert [masses for _, masses, _, _ in listed] == [(0.3,), (0.3, 0.3)]
    for shape, masses, _, integral in listed:
        assert integral == time_integral(shape, masses, path, 1.0, ConstantOne())
    # the refusing calls take mu0's float as the same lattice point
    leaf = ShapeIndicator(LEAF)
    assert functional(leaf, 2, path, additive, mu0, 1.0) == functionals((leaf,), 2, path, 1.0)[0]


# |share - closed-form share| of every term in its (leaf count, total mass)
# group, for K = a + b(x + y) + cxy; the inverse-sum kernel, not of that form,
# must miss by at least SHARE_CONTROL_MISS.  Both fixed before the first run
SHARE_BOUND = 1e-13
SHARE_CONTROL_MISS = 1e-3


def _share_weight(shape, masses, kernel) -> tuple:
    """(total mass, K_xi * prod_v 1 / (n_v - 1)) of ``shape``, its leaf
    masses read in pre-order from the iterator ``masses``."""
    if shape.is_leaf:
        return next(masses), 1.0
    ml, wl = _share_weight(shape.left, masses, kernel)
    mr, wr = _share_weight(shape.right, masses, kernel)
    return ml + mr, wl * wr * kernel.evaluate(ml, mr) / (shape.n_leaves - 1)


def _worst_share_gap(kernel_name: str, t: float) -> float:
    # each term is 2^-q * prod w * K_xi * prod_v 1 / (n_v - 1) * F(n, M, t)
    kernel = builtin(kernel_name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no mass may leak off the lattice
        path = solve(INV_MU0, kernel, t, tol=1e-10)
    groups = {}
    for shape, masses, coef, integral in terms(ConstantOne(), 6, path, t, tol=1e-12):
        _, weight = _share_weight(shape, iter(masses), kernel)
        group = groups.setdefault((shape.n_leaves, sum(masses)), [])
        group.append((coef * integral.one, coef * weight))
    assert (sum(map(len, groups.values())), len(groups)) == (526, 27)
    worst = 0.0
    for group in groups.values():
        cells, weights = np.array(group).T
        worst = max(worst, float(np.max(np.abs(cells / cells.sum()
                                               - weights / weights.sum()))))
    return worst


@pytest.mark.parametrize("kernel_name, t", [("constant", 2.0), ("additive", 0.5),
                                           ("product", 0.3)])
def test_polydisperse_terms_share_their_groups_in_closed_form(kernel_name, t):
    assert _worst_share_gap(kernel_name, t) <= SHARE_BOUND


def test_polydisperse_share_check_sees_a_kernel_of_another_form():
    assert _worst_share_gap("inverse-sum", 2.0) >= SHARE_CONTROL_MISS


def test_a_nan_mass_cutoff_is_refused(path):
    # both sides once read NaN silently: the limit reported value and error
    # NaN with no unconverged term
    with pytest.raises(ValueError, match="NaN"):
        MassCutoff(math.nan)
    # an infinite cutoff keeps its meaning: f == 1 on every tree
    f = MassCutoff(math.inf)
    assert functional(f, 2, path, CONSTANT, MONO, 2.0) == \
        functional(ConstantOne(), 2, path, CONSTANT, MONO, 2.0)
    m = empirical_measure(simulate(SimConfig.monodisperse(8, CONSTANT, 2.0), rng_for(0)), 2.0)
    assert evaluate_functional(m, f) == evaluate_functional(m, ConstantOne())


def test_unconverged_terms_are_counted(path):
    # the 16- and 12-point rules of the cherry do not agree within 1e-20; the
    # leaf's A(t) = exp(-G_1(t)) is the same float on both, so it converges
    res = functional(ShapeIndicator(CHERRY), 2, path, CONSTANT, MONO, 2.0, tol=1e-20)
    assert res.unconverged == 1
    assert functional(ShapeIndicator(CHERRY), 2, path, CONSTANT, MONO, 2.0).unconverged == 0


@pytest.mark.parametrize("t", (2.0, 0.0))
def test_functionals_without_time_boxes_are_refused(path, t):
    # at t = 0 too, where every non-leaf term is 0 without integrating; the
    # empirical measure and a product's own time_boxes refuse them as well
    plain = lambda tree: 1.0  # noqa: E731
    product = FunctionalProduct((ShapeIndicator(CHERRY), MassCutoff(2.0), plain))
    for f in (plain, product):
        with pytest.raises(TypeError, match="time_boxes"):
            functional(f, 2, path, CONSTANT, MONO, t)
        with pytest.raises(TypeError, match="time_boxes"):
            list(terms(f, 2, path, t))
        with pytest.raises(TypeError, match="time_boxes"):
            time_integral(CHERRY, (1.0, 1.0), path, t, f)
    m = empirical_measure(simulate(SimConfig.monodisperse(8, CONSTANT, 2.0), rng_for(0)), t)
    with pytest.raises(TypeError, match="time_boxes"):
        evaluate_functional(m, lambda tree: tree.mass * tree.n_leaves)
    with pytest.raises(TypeError, match="time_boxes"):
        product.time_boxes(CHERRY, 2.0)


# |coef * one - closed form| for every cell to 10 leaves; fixed before the first
# run, at 6 leaves, and kept
CLOSED_FORM_BOUND = 1e-7


@pytest.mark.parametrize("kernel_name, t", [("constant", 2.0), ("additive", 0.8),
                                           ("product", 0.6)])
def test_mono_limit_cells_match_their_closed_forms(kernel_name, t):
    kernel = builtin(kernel_name)
    path = solve(MONO, kernel, t, tol=1e-10)
    cells = list(terms(ConstantOne(), 10, path, t, tol=1e-10))
    assert len(cells) == 192  # 1 + 1 + 1 + 2 + 3 + 6 + 11 + 23 + 46 + 98 shapes
    errors = {shape.serial: abs(coef * integral.one - mono_limit_cell(kernel_name, shape, t))
              for shape, _, coef, integral in cells}
    assert max(errors.values()) <= CLOSED_FORM_BOUND, errors
    assert [shape.serial for shape, _, _, integral in cells if not integral.converged] == []


# |coef * one - closed form| for every cell to 10 leaves at tol 1e-10, with
# the path's dense output as the one rule; fixed before the first run
DENSE_CLOSED_FORM_BOUND = 1e-10


@pytest.mark.parametrize("kernel_name, t", [("constant", 2.0), ("additive", 0.8),
                                           ("product", 0.6)])
def test_mono_limit_cells_meet_the_dense_bound(kernel_name, t):
    # the piecewise-linear path over a 2001-point grid left the constant
    # kernel's cells up to 7.8e-9 off while they reported at most 3.3e-12
    kernel = builtin(kernel_name)
    path = solve(MONO, kernel, t, tol=1e-10)
    errors = {shape.serial: abs(coef * integral.one - mono_limit_cell(kernel_name, shape, t))
              for shape, _, coef, integral in terms(ConstantOne(), 10, path, t, tol=1e-10)}
    assert len(errors) == 192
    assert max(errors.values()) <= DENSE_CLOSED_FORM_BOUND, errors


@pytest.mark.parametrize("kernel_name, t", [("constant", 2.0), ("additive", 0.8),
                                           ("product", 0.6)])
def test_mono_limit_cells_converge_at_every_tol(kernel_name, t):
    # the path's steps are ~100 times wider than the old grid's cells: with
    # 1 .. 32 splits of each step, tol 1e-12 left 6 / 0 / 130 cells unconverged
    kernel = builtin(kernel_name)
    path = solve(MONO, kernel, t, tol=1e-10)
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        cells = terms(ConstantOne(), 10, path, t, tol=tol)
        assert [shape.serial for shape, _, _, integral in cells
                if not integral.converged] == [], tol


@pytest.mark.parametrize("case", ("mono_tau4", "bi_tau3", "additive_box_tau3",
                                  "pushforward", "lln-plan"))
def test_workload_batches_build_the_16_and_12_point_levels(monkeypatch, case):
    # the benchmark's limit functionals, its pushforward check and the lln
    # plan's functionals call: each batch of terms, one per set of box cuts,
    # is evaluated once on the 16-point rule and then once on the 12-point
    # one, on the same grid; no level is built again
    additive = builtin("additive")
    mono = solve(MONO, CONSTANT, 2.0, tol=1e-8)
    cherry = ShapeIndicator(CHERRY)
    call, batches = {
        "mono_tau4": (lambda: functional(cherry, 4, mono, CONSTANT, MONO, 2.0), 1),
        "bi_tau3": (lambda: functional(cherry, 3, solve(BIDISPERSE, CONSTANT, 2.0, tol=1e-8),
                                       CONSTANT, BIDISPERSE, 2.0), 1),
        "additive_box_tau3": (lambda: functional(
            ShapeTimeBoxIndicator(CHERRY, ((0.2, 0.6),)), 3,
            solve(MONO, additive, 1.0, tol=1e-8), additive, MONO, 1.0), 2),
        "pushforward": (lambda: pushforward_check(mono, MONO, CONSTANT, 2.0, 4), 1),
        "lln-plan": (lambda: functionals(
            (ShapeIndicator(LEAF), cherry, ShapeTimeBoxIndicator(CHERRY, ((0.5, 1.5),))),
            2, mono, 2.0, tol=1e-8), 2),
    }[case]
    built = []

    class CountedLevel(limit._Level):
        def __init__(self, path, grid, p, keep_below):
            super().__init__(path, grid, p, keep_below)
            built.append((tuple(grid), p, len(self.x)))

    monkeypatch.setattr(limit, "_Level", CountedLevel)
    call()
    assert [p for _, p, _ in built] == [16, 12] * batches
    grids = [grid for grid, _, _ in built]
    assert grids[::2] == grids[1::2] and len(set(grids)) == batches
    # p points in each cell between the grid's times, and the end t
    assert all(n == p * (len(grid) - 1) + 1 for grid, p, n in built)


# two coarse paths on which the refinement ladder's 512 splits per solver
# step left 3 and 31 cells unconverged at tol 1e-12
COARSE_CASES = {
    # name: (kernel, mu0, t, the path's solve tol)
    "constant-mono": ("constant", MONO, 2.0, 1e-3),
    "inverse-sum": ("inverse-sum", MassSpectrum((1.0, 2.0), (0.7, 0.3)), 5.0, 1e-4),
}


@pytest.mark.parametrize("case", sorted(COARSE_CASES))
def test_terms_converge_on_a_coarse_path(case):
    name, mu0, t, solve_tol = COARSE_CASES[case]
    kernel = builtin(name)
    path = solve(mu0, kernel, t, tol=solve_tol)
    cells = list(terms(ConstantOne(), 6, path, t, tol=1e-12))
    assert [(shape.serial, masses) for shape, masses, _, integral in cells
            if not integral.converged] == []
    assert max(integral.one_error for *_, integral in cells) <= 1e-13


def test_time_integral_refuses_a_mass_count_other_than_the_leaf_count(path):
    # three masses once integrated the (1, 1) cherry, while a mass cutoff
    # read the third; one mass escaped as a bare StopIteration
    for masses in ((1.0, 1.0, 7.0), (1.0,)):
        with pytest.raises(ValueError, match=f"{len(masses)} masses .* 2 leaves"):
            time_integral(CHERRY, masses, path, 2.0, MassCutoff(2.5))


@pytest.mark.parametrize("n_max", (0, -3, 2.5, None))
def test_pushforward_check_refuses_an_n_max_below_one(path, n_max):
    # n_max 0 or -3 compared no mass and passed with a discrepancy of 0.0
    with pytest.raises(ValueError, match="n_max"):
        pushforward_check(path, MONO, CONSTANT, 2.0, n_max)


@pytest.mark.parametrize("tol", (math.nan, 0.0, -1.0))
def test_a_tol_that_is_not_positive_is_refused(path, tol):
    cherry = ShapeIndicator(CHERRY)
    calls = (
        lambda: next(terms(cherry, 2, path, 2.0, tol=tol)),
        lambda: functional(cherry, 2, path, CONSTANT, MONO, 2.0, tol=tol),
        lambda: functionals((cherry,), 2, path, 2.0, tol=tol),
        lambda: time_integral(CHERRY, (1.0, 1.0), path, 2.0, cherry, tol=tol),
    )
    for call in calls:
        with pytest.raises(ValueError, match="tol"):
            call()
