"""Limit historical measure: densities and functionals.

The limit measure lives on merger-history trees.  Its density with respect to
(time simplex) x (atom assignments) has a product form over the lifetime
intervals of the tree's sub-clusters:

    2^(-q(tau)) * K_xi * prod_edges exp(-Lambda(mass_e; birth_e, death_e))

and an equivalent recursive form built from the symmetry factor epsilon.
Functionals <f, mu~_t> are computed by enumerating shapes, summing over
ordered leaf-mass assignments, and integrating over node times.

The time integral follows the recursive form.  With G_m(u) = Lambda(m; 0, u),
a leaf of mass m carries A(u) = exp(-G_m(u)) and an internal node of mass m
with children l, r carries

    A(u) = exp(-G_m(u)) * int_0^u K(m_l, m_r) A_l(s) A_r(s) exp(G_m(s)) ds,

so the integral over all node times is A_root(t): one cumulative 1-D
trapezoid per node on the solver's time grid, refined cell by cell and
Richardson-extrapolated.  It serves every functional that declares, through
``time_boxes``, that it is a constant times per-node time-box indicators on
each shape (the built-in functionals of :mod:`coagtree.simulate`).  Any other
callable is integrated by nested Gauss-Legendre quadrature over the node-time
simplex, which also serves as the test oracle for the recursive evaluator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .kernels import Kernel
from .simulate import ConstantOne
from .smoluchowski import MassSpectrum, SolutionPath
from .trees import (
    HistoricalTree,
    TreeShape,
    build_preorder,
    edge_intervals,
    epsilon,
    internal_interaction_rate,
    kernel_product,
    preorder,
    shapes_up_to,
    symmetry_exponent,
)

# Gauss-Legendre orders tried in turn until two successive ones agree
GL_ORDERS = (8, 12, 18, 27)
# splits of every solver time cell tried in turn by the recursive evaluator
REFINEMENTS = (1, 2, 4, 8, 16, 32)


@dataclass(frozen=True)
class TreeDensityQuery:
    """A point of the density's domain: shape, leaf masses, node times, horizon.

    ``times`` are listed in pre-order over internal nodes (parent before its
    children) and must respect the tree partial order: each node's time lies
    strictly between its children's times and its parent's time, all below
    the horizon ``t``.
    """

    shape: TreeShape
    masses: tuple
    times: tuple
    t: float

    def tree(self) -> HistoricalTree:
        return build_preorder(self.shape, self.masses, self.times)


def _labeled_density(tree: HistoricalTree, path: SolutionPath, t: float,
                     kernel: Kernel) -> float:
    """K_xi * exp(-sum over lifetime intervals of Lambda): the density
    without its symmetry factor 2^(-q)."""
    exponent = 0.0
    for e in edge_intervals(tree, t):
        exponent += path.survival_exponent(e.mass, e.birth, e.death)
    return kernel_product(tree, kernel) * math.exp(-exponent)


def density_product(tree: HistoricalTree, path: SolutionPath, t: float,
                    kernel: Optional[Kernel] = None) -> float:
    """Product-form density at ``tree`` with horizon ``t``."""
    q = symmetry_exponent(tree.shape)
    return 2.0 ** (-q) * _labeled_density(tree, path, t, kernel or path.kernel)


def density_recursive(tree: HistoricalTree, path: SolutionPath, t: float,
                      kernel: Optional[Kernel] = None) -> float:
    """Recursive density: leaves carry survival exponentials, each merge
    contributes epsilon(shape) * K(mass_1, mass_2)."""
    kernel = kernel or path.kernel
    # pre-order with each node's horizon (its parent's time), checked top down
    order = []
    stack = [(tree, t)]
    while stack:
        v, horizon = stack.pop()
        order.append((v, horizon))
        if not v.is_leaf:
            if not v.time < horizon:
                raise ValueError(f"node time {v.time} not below horizon {horizon}")
            stack += ((v.right, v.time), (v.left, v.time))
    done = []  # densities of finished subtrees, children before parents
    for v, horizon in reversed(order):
        if v.is_leaf:
            done.append(math.exp(-path.survival_exponent(v.mass, 0.0, horizon)))
            continue
        left, right = done.pop(), done.pop()
        done.append(
            epsilon(v.shape)
            * kernel.evaluate(v.left.mass, v.right.mass)
            * left
            * right
            * math.exp(-path.survival_exponent(v.mass, v.time, horizon))
        )
    return done[0]


def density(query: TreeDensityQuery, path: SolutionPath,
            kernel: Optional[Kernel] = None) -> float:
    return density_product(query.tree(), path, query.t, kernel)


# ---------------------------------------------------------------------------
# quadrature over the node-time simplex


@functools.cache
def _gl(n: int):
    return np.polynomial.legendre.leggauss(n)


def _simplex_integral(shape: TreeShape, t: float, evaluate: Callable,
                      order: int, breakpoints: tuple = ()) -> np.ndarray:
    """Integrate ``evaluate(times)`` over node times respecting the tree order.

    Each internal node's time ranges over (0, parent time); the root over
    (0, t).  ``evaluate`` takes the pre-order time vector and returns a
    vector of integrand values, all accumulated together.  ``breakpoints``
    are known discontinuity locations of the integrand in any single time
    coordinate; panels are split there so Gauss-Legendre stays accurate.
    """
    parents = [parent for s, parent in preorder(shape) if not s.is_leaf]
    d = len(parents)
    if d == 0:
        return np.asarray(evaluate(()), dtype=float)
    x, w = _gl(order)
    times = [0.0] * d

    def nested(level: int) -> np.ndarray:
        upper = t if parents[level] < 0 else times[parents[level]]
        cuts = [0.0] + sorted(b for b in breakpoints if 0.0 < b < upper) + [upper]
        total = None
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            pts = lo + 0.5 * (hi - lo) * (x + 1.0)
            wts = 0.5 * (hi - lo) * w
            for pt, wt in zip(pts, wts):
                times[level] = pt
                if level + 1 == d:
                    val = np.asarray(evaluate(tuple(times)), dtype=float)
                else:
                    val = nested(level + 1)
                total = wt * val if total is None else total + wt * val
        return total

    return nested(0)


@dataclass(frozen=True)
class LimitFunctionalResult:
    value: float
    error: float
    tail_bound: float


def _gl_time_integral(shape: TreeShape, masses, path: SolutionPath, t: float,
                      f: Callable, kernel: Kernel, tol: float):
    """:func:`time_integral` by nested Gauss-Legendre over the node times.

    The errors are the change between the last two ``GL_ORDERS``: the first
    pair to agree within tol / 10, else the last.  Discontinuity locations
    declared by ``f`` through a ``time_breakpoints`` attribute split the
    quadrature panels.
    """
    def evaluate(times):
        tree = build_preorder(shape, masses, times)
        core = _labeled_density(tree, path, t, kernel)
        return np.array([core * f(tree), core])

    breakpoints = tuple(getattr(f, "time_breakpoints", ()))
    prev = _simplex_integral(shape, t, evaluate, GL_ORDERS[0], breakpoints)
    for order in GL_ORDERS[1:]:
        cur = _simplex_integral(shape, t, evaluate, order, breakpoints)
        diff = np.abs(cur - prev)
        if (diff <= 0.1 * tol).all():
            break
        prev = cur
    return float(cur[0]), float(diff[0]), float(cur[1]), float(diff[1])


def _refine(grid: np.ndarray, r: int) -> np.ndarray:
    """``grid`` with every cell split into ``r`` equal parts."""
    fine = grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(r) / r)
    return np.append(fine.ravel(), grid[-1])


def _recursive_integral(shape: TreeShape, masses, kernel: Kernel, x: np.ndarray,
                        boxes, exponent: Callable) -> float:
    """A_root(x[-1]) by cumulative trapezoids on the grid ``x``.

    ``exponent(m)`` is G_m on ``x``.  An internal node's integrand counts
    only on the cells inside its (lo, hi) box; ``boxes`` lists them in
    pre-order, or is None for no boxes.
    """
    dx = np.diff(x)
    leaf_masses = iter(masses)
    node_boxes = iter(boxes) if boxes is not None else itertools.repeat(None)
    nodes = [(s, next(leaf_masses) if s.is_leaf else next(node_boxes))
             for s, _ in preorder(shape)]
    done = []  # (mass, A on x) of finished subtrees; children before parents
    for s, item in reversed(nodes):
        if s.is_leaf:
            done.append((item, np.exp(-exponent(item))))
            continue
        (ml, al), (mr, ar) = done.pop(), done.pop()
        m = ml + mr
        gm = exponent(m)
        h = kernel.evaluate(ml, mr) * al * ar * np.exp(gm)
        cells = 0.5 * dx * (h[:-1] + h[1:])
        if item is not None:
            lo, hi = item
            cells = np.where((x[:-1] >= lo) & (x[1:] <= hi), cells, 0.0)
        done.append((m, np.exp(-gm) * np.concatenate(([0.0], np.cumsum(cells)))))
    return float(done[0][1][-1])


def _recursive_time_integral(shape: TreeShape, masses, path: SolutionPath,
                             t: float, kernel: Kernel, tol: float,
                             c: float, boxes):
    """:func:`time_integral` of f = c * (time-box indicators) by the recursion.

    The grid is the solver's time grid cut at ``t``, plus the box endpoints.
    Every cell is split into r = 1, 2, 4, ... parts until two levels T_r,
    T_2r agree within tol / 10 (or ``REFINEMENTS`` runs out); the result is
    T_2r + (T_2r - T_r) / 3 with error |T_2r - T_r| / 3.
    """
    cuts = [b for box in boxes or () for b in box if 0.0 < b < t]
    grid = np.unique(np.concatenate([path.times[path.times < t], [t], cuts]))
    # the f == 1 integral, then the boxed one when f has boxes and c != 0;
    # f's value is c times the last of them
    box_sets = [None] if boxes is None or c == 0.0 else [None, boxes]

    def level(r: int) -> np.ndarray:
        x = _refine(grid, r)
        exponent = functools.cache(lambda m: path.cumulative_exponent(m, x))
        return np.array([_recursive_integral(shape, masses, kernel, x, b, exponent)
                         for b in box_sets])

    prev = level(REFINEMENTS[0])
    for r in REFINEMENTS[1:]:
        cur = level(r)
        step = cur - prev
        if (np.abs(step) <= 0.1 * tol).all():
            break
        prev = cur
    est, err = cur + step / 3.0, np.abs(step) / 3.0
    return c * float(est[-1]), abs(c) * float(err[-1]), float(est[0]), float(err[0])


def time_integral(shape: TreeShape, masses, path: SolutionPath, t: float,
                  f: Callable, kernel: Optional[Kernel] = None,
                  tol: float = 1e-8):
    """Integral over node times of K_xi * exp(-sum Lambda) * [f(tree), 1].

    This is the labeled-tree transition functional at fixed leaf masses; no
    symmetry factor and no initial-measure weights are applied.  Returns
    (value, error, one_value, one_error) where ``one_*`` is the same integral
    with f replaced by 1, and each error is an estimate of the value's
    error, aimed at tol / 10.

    When ``f.time_boxes(shape, masses)`` gives f on this shape as a constant
    times time-box indicators, the recursive evaluator integrates it; any
    other ``f`` goes through nested Gauss-Legendre quadrature.
    """
    kernel = kernel or path.kernel
    if t <= 0.0 and not shape.is_leaf:
        # node times live in (0, t): empty domain
        return 0.0, 0.0, 0.0, 0.0
    form = getattr(f, "time_boxes", None)
    form = form(shape, masses) if form is not None else None
    if form is None:
        return _gl_time_integral(shape, masses, path, t, f, kernel, tol)
    return _recursive_time_integral(shape, masses, path, t, kernel, tol, *form)


def terms(f: Callable, tau_max_leaves: int, path: SolutionPath,
          kernel: Optional[Kernel], mu0: MassSpectrum, t: float,
          tol: float = 1e-8):
    """The terms of <f, mu~_t> over shapes with at most ``tau_max_leaves`` leaves.

    Yields ``(shape, masses, coefficient, time_integral(...))`` for every
    canonical shape and ordered assignment of mu0's atoms to its leaves,
    where coefficient = 2^(-q(shape)) * (product of the atoms' weights).
    Assignments of zero weight are skipped.
    """
    kernel = kernel or path.kernel
    atoms = list(zip(mu0.masses, mu0.weights))
    for shape in shapes_up_to(tau_max_leaves):
        sym = 2.0 ** (-symmetry_exponent(shape))
        for combo in itertools.product(atoms, repeat=shape.n_leaves):
            masses = tuple(m for m, _ in combo)
            weight = 1.0
            for _, w in combo:
                weight *= w
            if weight > 0:
                yield shape, masses, sym * weight, time_integral(
                    shape, masses, path, t, f, kernel, tol=tol)


def functional(f: Callable, tau_max_leaves: int, path: SolutionPath,
               kernel: Optional[Kernel], mu0: MassSpectrum, t: float,
               tol: float = 1e-8) -> LimitFunctionalResult:
    """<f, mu~_t> for f supported on shapes with at most ``tau_max_leaves`` leaves.

    Sums the :func:`terms`.  The tail bound is the mu~_t-mass of trees
    outside the enumerated shapes, computed from the f == 1 integrals
    against the solved total cluster density.
    """
    value = 0.0
    error = 0.0
    captured = 0.0
    for _, _, coef, (val, err, one, _) in terms(
            f, tau_max_leaves, path, kernel, mu0, t, tol):
        value += coef * val
        error += coef * err
        captured += coef * one
    tail = max(path.moment(0.0, t) - captured, 0.0)
    return LimitFunctionalResult(value, error, tail)


@dataclass(frozen=True)
class PushforwardReport:
    rows: tuple  # (mass, limit_weight, solver_weight)
    max_discrepancy: float


def pushforward_check(path: SolutionPath, mu0: MassSpectrum, kernel: Kernel,
                      t: float, n_max: int, tol: float = 1e-8) -> PushforwardReport:
    """Compare the mass pushforward of mu~_t against mu_t for small masses.

    For each total mass reachable with at most ``n_max`` atoms, sums the
    limit-measure weight of the :func:`terms` of that mass and compares with
    the solved spectrum's weight there.
    """
    sums: dict[float, float] = {}
    for _, masses, coef, (_, _, one, _) in terms(
            ConstantOne(), n_max, path, kernel, mu0, t, tol):
        key = round(sum(masses), 10)
        sums[key] = sums.get(key, 0.0) + coef * one
    spectrum = path.spectrum_at(t)
    rows = []
    worst = 0.0
    for m in sorted(sums):
        solver_w = spectrum.weight_of(m)
        rows.append((m, sums[m], solver_w))
        worst = max(worst, abs(sums[m] - solver_w))
    return PushforwardReport(tuple(rows), worst)


# ---------------------------------------------------------------------------
# finite-N jump-chain density


def finite_n_jump_density(tree: HistoricalTree, t: float, N: int,
                          kernel: Kernel) -> float:
    """Density of the realized history of an isolated n-particle system.

    (K_xi / N^(n-1)) * exp(-int_0^t K_s(xi)/N ds), where K_s is the pairwise
    interaction rate among the sub-clusters of ``tree`` alive at s.  The
    integral is exact: the rate is piecewise constant between merge times.
    """
    n = tree.n_leaves
    cuts = sorted({0.0, float(t)} | {v.time for v in tree.internal_nodes()})
    integral = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        integral += internal_interaction_rate(tree, mid, kernel) * (b - a)
    return (
        kernel_product(tree, kernel) / float(N) ** (n - 1)
        * math.exp(-integral / N)
    )
