"""Limit historical measure: functionals <f, mu~_t>.

The limit measure lives on merger-history trees.  Its density with respect to
(time simplex) x (atom assignments) has a product form over the lifetime
intervals of the tree's sub-clusters:

    2^(-q(tau)) * K_xi * prod_edges exp(-Lambda(mass_e; birth_e, death_e)).

Functionals <f, mu~_t> are computed by enumerating shapes, summing over
ordered leaf-mass assignments, and integrating over node times.

The time integral follows the density's recursive form.  With G_m(u) =
Lambda(m; 0, u), a leaf of mass m carries A(u) = exp(-G_m(u)) and an internal
node of mass m with children l, r carries

    A(u) = exp(-G_m(u)) * int_0^u K(m_l, m_r) A_l(s) A_r(s) exp(G_m(s)) ds,

so the integral over all node times is A_root(t): one cumulative integral
per node on the solver's step ends and the box cuts.  In each cell between
them the integrand, read from the steps' dense output, is analytic; it is
interpolated at p Chebyshev points of the first kind, and the interpolant
is integrated exactly to each point and to the cell's end.  The value takes
p = 16, and its error is the gap to p = 12.  :func:`terms` integrates all
terms of a functional together, one rule at a time: a rule computes G_m
once per mass and A_v once per subtree (its leaf masses and time boxes),
and every term containing that subtree reads it, so shapes of a given size
share most of their work.  A term's error covers this quadrature of the path
only, not the solver's own error, which its tolerance bounds.
:func:`functionals` does the same for several functionals at once, and
integrates a term they share once.  It serves every functional that
declares, through ``time_boxes(shape, mass)`` with the total leaf mass,
that it is a constant times per-node time-box indicators on each shape:
the built-in functionals of :mod:`coagtree.simulate`.  Any other f is
refused with ``TypeError``.

The evaluator takes K and mu0 from the solution path: ``path.kernel``, and
the nonzero ``path.y_old[0]`` at ``path.masses``.  Only :func:`functional`
and :func:`pushforward_check` take a ``kernel`` and ``mu0``, and refuse any
but the path's.  The density at one tree in its product and recursive
forms, the nested Gauss-Legendre quadrature that checks the evaluator, and the finite-N
jump-chain density are test oracles in ``tests/tests_support.py``.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import Kernel
from .simulate import ConstantOne, time_boxes_of
from .smoluchowski import MassSpectrum, SolutionPath
from .trees import TreeShape, preorder, shapes_up_to, symmetry_exponent


@dataclass(frozen=True)
class LimitFunctionalResult:
    value: float
    error: float
    tail_bound: float
    unconverged: int  # terms whose time integrals did not converge
    terms: int  # terms summed
    integrals: int  # distinct time integrals computed by the call, for all its functionals


class TimeIntegral(NamedTuple):
    """What :func:`time_integral` returns.

    ``one`` is the same integral with f replaced by 1; each error estimates
    its value's error, absolute, as the quadrature of the path's dense
    output: the gap between the 16- and 12-point rules, floored at the
    value's rounding for a term with a merge; a leaf's is 0.  ``converged``
    is False when an error is above tol / 10.
    """

    value: float
    error: float
    one: float
    one_error: float
    converged: bool = True


@functools.cache
def _collocation(p: int) -> tuple:
    """The p Chebyshev points of the first kind in (-1, 1), ascending, and
    the (p + 1) x p matrix taking an integrand's values there to the integrals
    of its interpolant from -1 to each point and to 1: c_k = (2 - [k = 0]) / p
    * sum_j h_j T_k(x_j) by discrete orthogonality, and T_k integrates to T_1,
    T_2 / 4, then T_(k+1) / (2(k+1)) - T_(k-1) / (2(k-1)).
    """
    # math.cos and the recurrence: numpy's cos pages in 0.5 MB on its first call
    x = np.array([-math.cos((2 * j + 1) * math.pi / (2 * p)) for j in range(p)])
    # T_0 .. T_p at the points, at 1 and at -1
    u = np.append(x, [1.0, -1.0])
    t = np.empty((p + 2, p + 1))
    t[:, 0], t[:, 1] = 1.0, u
    for k in range(1, p):
        t[:, k + 1] = 2.0 * u * t[:, k] - t[:, k - 1]
    coef = t[:p, :p].T * (2.0 / p)
    coef[0] *= 0.5
    k = np.arange(2, p)
    anti = np.column_stack((t[:, 1], t[:, 2] / 4,
                            t[:, k + 1] / (2 * (k + 1)) - t[:, k - 1] / (2 * (k - 1))))
    return x, (anti[:-1] - anti[-1]) @ coef


class _Level:
    """One collocation rule on a batch grid, and what terms share on it.

    ``x`` holds the rule's p points in each cell of ``grid``, cell by cell,
    then the grid's end.  Holds exp(-G_m) and exp(G_m) on ``x`` per mass m,
    and the array A_v of every subtree v with fewer than ``keep_below``
    leaves, keyed by its leaf masses and boxes: (left key, right key, box),
    a leaf's key its mass.
    """

    def __init__(self, path: SolutionPath, grid: np.ndarray, p: int, keep_below: int):
        points, self.matrix = _collocation(p)
        self.kernel, self.grid, self.p = path.kernel, grid, p
        self.half = 0.5 * np.diff(grid)
        inner = grid[:-1, None] + self.half[:, None] * (1.0 + points)
        self.x = np.append(inner.ravel(), grid[-1])
        self._exponent = path.cumulative_exponents(self.x)
        self.keep_below, self._exps, self._subtrees = keep_below, {}, {}

    def _exp(self, m: float) -> tuple:
        e = self._exps.get(m)
        if e is None:
            g = self._exponent(m)
            e = self._exps[m] = (np.exp(-g), np.exp(g))
        return e

    def integral(self, shape: TreeShape, masses, boxes) -> float:
        """A_root(x[-1]), each node's integral cumulated cell by cell.

        An internal node's integrand counts only on the cells inside its
        (lo, hi) box; ``boxes`` lists them in pre-order, or is None for none.
        """
        leaf_masses = iter(masses)
        node_boxes = iter(boxes) if boxes is not None else itertools.repeat(None)
        nodes = [(s, next(leaf_masses) if s.is_leaf else next(node_boxes))
                 for s in preorder(shape)]
        done = []  # (key, mass, A on x) of finished subtrees; children first
        for s, item in reversed(nodes):
            if s.is_leaf:
                done.append((item, item, self._exp(item)[0]))
                continue
            (kl, ml, al), (kr, mr, ar) = done.pop(), done.pop()
            key = (kl, kr, item)
            m = ml + mr
            a = self._subtrees.get(key)
            if a is None:
                exp_neg, exp_pos = self._exp(m)
                h = self.kernel.evaluate(ml, mr) * al[:-1] * ar[:-1] * exp_pos[:-1]
                # per cell: the integral to each of its points, then to its end
                cells = (h.reshape(-1, self.p) @ self.matrix.T) * self.half[:, None]
                if item is not None:
                    lo, hi = item
                    cells[(self.grid[:-1] < lo) | (self.grid[1:] > hi)] = 0.0
                ends = np.concatenate(([0.0], np.cumsum(cells[:, -1])))
                a = exp_neg * np.append((ends[:-1, None] + cells[:, :-1]).ravel(), ends[-1])
                if s.n_leaves < self.keep_below:
                    self._subtrees[key] = a
            done.append((key, m, a))
        return float(done[0][2][-1])


def _time_integrals(fs: tuple, items: list, path: SolutionPath, t: float,
                    tol: float) -> tuple:
    """:func:`time_integral` of every f in ``fs`` for every ``(shape, masses)``
    in ``items``: one list of them per f, item by item, and the number of
    distinct integrals computed.

    Each f on a shape is c * (time-box indicators), from ``time_boxes``; an
    f, or a factor of it, without one raises ``TypeError`` before anything
    is integrated.  A term's integral depends only on its group: its grid
    cuts (the box endpoints in (0, t)), shape, leaf masses and box sets.
    Each group is integrated once, and every f reads it times its own c, so
    several functionals share their common terms float for float.  Groups
    with the same cuts form a batch on the solver's step ends cut at ``t``
    and at those endpoints, evaluated on the 16-point rule and then on the
    12-point one, each a :class:`_Level` whose groups share G_m and subtree
    arrays; K is ``path.kernel``.  A group's error per column (the f == 1
    integral, and the boxed one) is the gap between the rules, floored for a
    shape with a merge at eps times the value, so a tol below the value's
    rounding is not reported as met; a leaf's is 0, as both read exp(-G_m(t)).

    A ``tol`` that is not positive (NaN, 0 or negative) raises ``ValueError``
    before anything is integrated.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    forms = [time_boxes_of(f) for f in fs]
    reads = []  # per f, per item: (c, group), or None for an empty domain
    batches = {}  # grid cuts -> {group: (shape, masses, box sets)} on that grid
    for form in forms:
        row = []
        for shape, masses in items:
            c, boxes = form(shape, sum(masses))
            if t <= 0.0 and not shape.is_leaf:
                # node times live in (0, t): empty domain
                row.append(None)
                continue
            if boxes is not None:
                boxes = tuple((lo, hi) for lo, hi in boxes)
            cuts = tuple(sorted({b for box in boxes or () for b in box if 0.0 < b < t}))
            # the f == 1 integral, then the boxed one when f has boxes and
            # c != 0; f's value is c times the last of them
            box_sets = (None,) if boxes is None or c == 0.0 else (None, boxes)
            group = (cuts, shape, masses, box_sets)
            batches.setdefault(cuts, {})[group] = (shape, masses, box_sets)
            row.append((c, group))
        reads.append(row)
    done = {}  # group -> its TimeIntegral with c = 1
    for cuts, batch in batches.items():
        grid = np.unique(np.concatenate([path.ends[path.ends < t], [t], cuts]))
        keep_below = max(shape.n_leaves for shape, _, _ in batch.values())
        # group -> its columns on the 16-point rule, then on the 12-point one
        value, check = ({group: np.array([level.integral(shape, masses, b) for b in box_sets])
                         for group, (shape, masses, box_sets) in batch.items()}
                        for level in (_Level(path, grid, p, keep_below) for p in (16, 12)))
        for group, (shape, _, _) in batch.items():
            est, floor = value[group], 0.0 if shape.is_leaf else np.finfo(float).eps
            err = np.maximum(np.abs(est - check[group]), floor * np.abs(est))
            done[group] = TimeIntegral(float(est[-1]), float(err[-1]), float(est[0]),
                                       float(err[0]), bool((err <= 0.1 * tol).all()))
    empty = TimeIntegral(0.0, 0.0, 0.0, 0.0)

    def scaled(c: float, group: tuple) -> TimeIntegral:
        g = done[group]
        return TimeIntegral(c * g.value, abs(c) * g.error, g.one, g.one_error, g.converged)

    return [[empty if read is None else scaled(*read) for read in row]
            for row in reads], len(done)


def time_integral(shape: TreeShape, masses, path: SolutionPath, t: float,
                  f: Callable, tol: float = 1e-8) -> TimeIntegral:
    """Integral over node times of K_xi * exp(-sum Lambda) * [f(tree), 1].

    This is the labeled-tree transition functional at fixed leaf masses; no
    symmetry factor and no initial-measure weights are applied.  Returns a
    :class:`TimeIntegral`; it is ``converged`` when its errors are at most
    tol / 10.  A number of ``masses`` other than the shape's leaf count
    raises ``ValueError``.

    ``f.time_boxes(shape, sum(masses))`` gives f on this shape as a constant
    times time-box indicators, and the recursive evaluator integrates it; an
    f without ``time_boxes`` raises ``TypeError``.  This is a one-term call
    of the evaluator behind :func:`terms`.
    """
    if len(masses) != shape.n_leaves:
        raise ValueError(f"{len(masses)} masses for a shape of {shape.n_leaves} leaves")
    ((integral,),), _ = _time_integrals((f,), [(shape, masses)], path, t, tol)
    return integral


def _check_mu0(path: SolutionPath, mu0: MassSpectrum) -> None:
    """``ValueError`` when ``mu0`` is not the initial measure ``path`` was
    solved from: its weights, at their lattice points, are the path's at 0."""
    given = {path.unit_of(m): w for m, w in zip(mu0.masses, mu0.weights) if w}
    if given != {u: w for u, w in zip(path.units.tolist(), path.y_old[0].tolist()) if w}:
        raise ValueError("mu0 is not the initial measure the path was solved from")


def _listed_terms(tau_max_leaves: int, path: SolutionPath) -> list:
    """``(shape, masses, coefficient)`` of every term to ``tau_max_leaves``
    leaves, as :func:`terms` yields them: the atoms are the path's own, its
    nonzero weights at time 0 on its lattice floats."""
    atoms = [(m, w) for m, w in zip(path.masses.tolist(), path.y_old[0].tolist()) if w]
    listed = []
    for shape in shapes_up_to(tau_max_leaves):
        sym = 2.0 ** (-symmetry_exponent(shape))
        for combo in itertools.product(atoms, repeat=shape.n_leaves):
            masses = tuple(m for m, _ in combo)
            weight = math.prod(w for _, w in combo)
            if weight > 0:
                listed.append((shape, masses, sym * weight))
    return listed


def terms(f: Callable, tau_max_leaves: int, path: SolutionPath, t: float,
          tol: float = 1e-8):
    """The terms of <f, mu~_t> over shapes with at most ``tau_max_leaves`` leaves.

    Yields ``(shape, masses, coefficient, time_integral(...))`` for every
    canonical shape and ordered assignment of the path's initial atoms to
    its leaves, where coefficient = 2^(-q(shape)) * (product of the atoms'
    weights).  The atoms are the nonzero ``path.y_old[0]`` at ``path.masses``,
    so every leaf mass is a lattice float the solve stepped, and K is
    ``path.kernel``.  All terms are integrated together, one rule at a time,
    so they share subtrees.
    """
    listed = _listed_terms(tau_max_leaves, path)
    (integrals,), _ = _time_integrals(
        (f,), [(shape, masses) for shape, masses, _ in listed], path, t, tol)
    for (shape, masses, coef), integral in zip(listed, integrals):
        yield shape, masses, coef, integral


def functionals(fs: tuple, tau_max_leaves: int, path: SolutionPath, t: float,
                tol: float = 1e-8) -> tuple:
    """<f, mu~_t> for every f in ``fs``, each supported on shapes with at
    most ``tau_max_leaves`` leaves: one :class:`LimitFunctionalResult` per f.

    One call of the evaluator integrates the terms of all of them, so a term
    that several functionals share, as the same group of shape, leaf masses
    and time boxes, is integrated once; each result is float for float what
    :func:`functional` gives for its f alone.  Each sums its f's terms in
    :func:`terms` order, over the path's initial atoms with K the path's.
    The tail bound is the mu~_t-mass of trees outside the enumerated shapes,
    computed from the f == 1 integrals against the solved total cluster
    density.  ``unconverged`` counts the terms whose time integrals did not
    converge, ``terms`` the terms summed and ``integrals`` the distinct time
    integrals of the whole call.
    """
    listed = _listed_terms(tau_max_leaves, path)
    per_f, n_integrals = _time_integrals(
        fs, [(shape, masses) for shape, masses, _ in listed], path, t, tol)
    total = path.moment(0.0, t)
    results = []
    for integrals in per_f:
        value = error = captured = 0.0
        unconverged = 0
        for (_, _, coef), integral in zip(listed, integrals):
            value += coef * integral.value
            error += coef * integral.error
            captured += coef * integral.one
            unconverged += not integral.converged
        tail = max(total - captured, 0.0)
        results.append(LimitFunctionalResult(value, error, tail, unconverged,
                                             len(listed), n_integrals))
    return tuple(results)


def functional(f: Callable, tau_max_leaves: int, path: SolutionPath,
               kernel: Kernel, mu0: MassSpectrum, t: float,
               tol: float = 1e-8) -> LimitFunctionalResult:
    """<f, mu~_t> for f supported on shapes with at most ``tau_max_leaves`` leaves.

    The one-element case of :func:`functionals`.  ``kernel`` and ``mu0``
    stay for the benchmark's positional calls and must be the path's:
    ``path.kernel``, and the spectrum whose weights at their lattice points
    are ``path.y_old[0]``.  Others raise ``ValueError``.
    """
    if kernel != path.kernel:
        raise ValueError(f"kernel {kernel.name!r} is not the path's {path.kernel.name!r}")
    _check_mu0(path, mu0)
    return functionals((f,), tau_max_leaves, path, t, tol)[0]


@dataclass(frozen=True)
class PushforwardReport:
    rows: tuple  # (mass, limit_weight, solver_weight)
    max_discrepancy: float


def pushforward_check(path: SolutionPath, mu0: MassSpectrum, kernel: Kernel,
                      t: float, n_max: int) -> PushforwardReport:
    """Compare the mass pushforward of mu~_t against mu_t for small masses.

    For each total mass reachable with at most ``n_max`` atoms, sums the
    limit-measure weight of the :func:`terms` of that mass, keyed by the
    lattice units of the path's own ``masses``, and compares with the solved
    weight at that lattice point (0 off the lattice).  The terms are
    integrated at their default tol, 1e-8.  ``mu0`` and ``kernel`` must be
    the path's, as in :func:`functional`, and ``n_max`` an integer of at
    least 1, or ``ValueError`` is raised.
    """
    if not isinstance(n_max, numbers.Integral) or n_max < 1:
        raise ValueError(f"n_max must be an integer of at least 1, got {n_max!r}")
    if kernel != path.kernel:
        raise ValueError(f"kernel {kernel.name!r} is not the path's {path.kernel.name!r}")
    _check_mu0(path, mu0)
    unit = dict(zip(path.masses.tolist(), path.units.tolist()))
    sums: dict[int, float] = {}
    for _, masses, coef, integral in terms(ConstantOne(), n_max, path, t):
        key = sum(unit[m] for m in masses)
        sums[key] = sums.get(key, 0.0) + coef * integral.one
    solved = dict(zip(path.units.tolist(), path.weights_at(t).tolist()))
    rows = tuple((float(u * path.quantum), sums[u], solved.get(u, 0.0)) for u in sorted(sums))
    return PushforwardReport(rows, max([0.0] + [abs(lim - sol) for _, lim, sol in rows]))
