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

so the integral over all node times is A_root(t): one cumulative 1-D
trapezoid per node on the solver's time grid, refined cell by cell and
Richardson-extrapolated.  :func:`terms` integrates all terms of a functional
together, one refinement level at a time: a level computes G_m once per mass
and A_v once per subtree (its leaf masses and time boxes), and every term
containing that subtree reads it; a term drops out once two successive levels
agree.  Shapes of a given size are built from the same subtrees, so most of
the work is shared.  :func:`functionals` does the same for several
functionals at once, and integrates a term they share once.  It serves
every functional that declares, through
``time_boxes(shape, mass)`` with the total leaf mass, that it is a constant
times per-node time-box indicators on each shape: the built-in functionals
of :mod:`coagtree.simulate`.  Any other f is refused with ``TypeError``.

The evaluator takes K from the solution path, ``path.kernel``, and
:func:`terms` refuses a ``kernel`` or ``mu0`` that is not the path's.  The
density at one tree in its product and recursive forms, the nested
Gauss-Legendre quadrature that checks the evaluator, and the finite-N
jump-chain density are test oracles in ``tests/tests_support.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .kernels import Kernel
from .simulate import ConstantOne, time_boxes_of
from .smoluchowski import MassSpectrum, SolutionPath
from .trees import TreeShape, preorder, shapes_up_to, symmetry_exponent

# splits of every solver time cell tried in turn by the recursive evaluator
REFINEMENTS = (1, 2, 4, 8, 16, 32)


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
    its value's error.  ``converged`` is False when the refinement levels
    ran out before two successive ones agreed within tol / 10.
    """

    value: float
    error: float
    one: float
    one_error: float
    converged: bool = True


def _refine(grid: np.ndarray, r: int) -> np.ndarray:
    """``grid`` with every cell split into ``r`` equal parts."""
    fine = grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(r) / r)
    return np.append(fine.ravel(), grid[-1])


class _Level:
    """One refinement level: the grid ``x`` and what terms share on it.

    Holds exp(-G_m) and exp(G_m) on ``x`` per mass m, and the array A_v of
    every subtree v with fewer than ``keep_below`` leaves, keyed by its
    leaf masses and boxes: (left key, right key, box), a leaf's key its mass.
    """

    def __init__(self, path: SolutionPath, x: np.ndarray, keep_below: int):
        self.kernel, self.x = path.kernel, x
        self.dx = np.diff(x)
        self._exponent = path.cumulative_exponents(x)
        self.keep_below = keep_below
        self._exps = {}
        self._subtrees = {}

    def _exp(self, m: float) -> tuple:
        e = self._exps.get(m)
        if e is None:
            g = self._exponent(m)
            e = self._exps[m] = (np.exp(-g), np.exp(g))
        return e

    def integral(self, shape: TreeShape, masses, boxes) -> float:
        """A_root(x[-1]) by cumulative trapezoids on ``x``.

        An internal node's integrand counts only on the cells inside its
        (lo, hi) box; ``boxes`` lists them in pre-order, or is None for none.
        """
        x, dx = self.x, self.dx
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
                h = self.kernel.evaluate(ml, mr) * al * ar * exp_pos
                cells = 0.5 * dx * (h[:-1] + h[1:])
                if item is not None:
                    lo, hi = item
                    cells = np.where((x[:-1] >= lo) & (x[1:] <= hi), cells, 0.0)
                a = exp_neg * np.concatenate(([0.0], np.cumsum(cells)))
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
    with the same cuts form a batch on the solver's time grid cut at ``t``
    and at those endpoints.  Every cell is split into r = 1, 2, 4, ...
    parts, one level at a time for the whole batch, so its groups share G_m
    and subtree arrays; K is ``path.kernel``.  A group drops out once its
    levels T_r, T_2r agree within tol / 10 (or ``REFINEMENTS`` runs out),
    with T_2r + (T_2r - T_r) / 3 and error |T_2r - T_r| / 3.
    """
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
    for cuts, pending in batches.items():
        grid = np.unique(np.concatenate([path.times[path.times < t], [t], cuts]))
        keep_below = max(shape.n_leaves for shape, _, _ in pending.values())
        prev = {}
        for r in REFINEMENTS:
            if not pending:
                break
            level = _Level(path, _refine(grid, r), keep_below)
            for group, (shape, masses, box_sets) in list(pending.items()):
                cur = np.array([level.integral(shape, masses, b) for b in box_sets])
                if group not in prev:
                    prev[group] = cur
                    continue
                step = cur - prev[group]
                converged = bool((np.abs(step) <= 0.1 * tol).all())
                if converged or r == REFINEMENTS[-1]:
                    est, err = cur + step / 3.0, np.abs(step) / 3.0
                    done[group] = TimeIntegral(float(est[-1]), float(err[-1]),
                                               float(est[0]), float(err[0]), converged)
                    del pending[group]
                else:
                    prev[group] = cur
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
    :class:`TimeIntegral`, whose errors are aimed at tol / 10.

    ``f.time_boxes(shape, sum(masses))`` gives f on this shape as a constant
    times time-box indicators, and the recursive evaluator integrates it; an
    f without ``time_boxes`` raises ``TypeError``.  This is a one-term call
    of the evaluator behind :func:`terms`.
    """
    ((integral,),), _ = _time_integrals((f,), [(shape, masses)], path, t, tol)
    return integral


def _listed_terms(tau_max_leaves: int, path: SolutionPath, mu0: MassSpectrum) -> list:
    """``(shape, masses, coefficient)`` of every term to ``tau_max_leaves``
    leaves, as :func:`terms` yields them; ``ValueError`` when ``mu0`` is not
    the path's."""
    given = {path.unit_of(m): w for m, w in zip(mu0.masses, mu0.weights) if w}
    if given != {u: w for u, w in zip(path.units.tolist(), path.weights[0].tolist()) if w}:
        raise ValueError("mu0 is not the initial measure the path was solved from")
    atoms = list(zip(mu0.masses, mu0.weights))
    listed = []
    for shape in shapes_up_to(tau_max_leaves):
        sym = 2.0 ** (-symmetry_exponent(shape))
        for combo in itertools.product(atoms, repeat=shape.n_leaves):
            masses = tuple(m for m, _ in combo)
            weight = 1.0
            for _, w in combo:
                weight *= w
            if weight > 0:
                listed.append((shape, masses, sym * weight))
    return listed


def terms(f: Callable, tau_max_leaves: int, path: SolutionPath,
          kernel: Kernel, mu0: MassSpectrum, t: float, tol: float = 1e-8):
    """The terms of <f, mu~_t> over shapes with at most ``tau_max_leaves`` leaves.

    Yields ``(shape, masses, coefficient, time_integral(...))`` for every
    canonical shape and ordered assignment of mu0's atoms to its leaves,
    where coefficient = 2^(-q(shape)) * (product of the atoms' weights).
    Assignments of zero weight are skipped.  All terms are integrated
    together, one refinement level at a time, so they share subtrees.

    ``kernel`` and ``mu0`` stay only for the benchmark's positional calls and
    must be the path's: ``path.kernel``, and the spectrum whose weights, at
    their lattice points, are ``path.weights[0]``.  Others raise
    ``ValueError`` when the first term is asked for.
    """
    if kernel != path.kernel:
        raise ValueError(f"kernel {kernel.name!r} is not the path's {path.kernel.name!r}")
    listed = _listed_terms(tau_max_leaves, path, mu0)
    (integrals,), _ = _time_integrals(
        (f,), [(shape, masses) for shape, masses, _ in listed], path, t, tol)
    for (shape, masses, coef), integral in zip(listed, integrals):
        yield shape, masses, coef, integral


def functionals(fs: tuple, tau_max_leaves: int, path: SolutionPath,
                mu0: MassSpectrum, t: float, tol: float = 1e-8) -> tuple:
    """<f, mu~_t> for every f in ``fs``, each supported on shapes with at
    most ``tau_max_leaves`` leaves: one :class:`LimitFunctionalResult` per f.

    One call of the evaluator integrates the terms of all of them, so a term
    that several functionals share, as the same group of shape, leaf masses
    and time boxes, is integrated once; each result is float for float what
    :func:`functional` gives for its f alone.  Each sums its f's terms in
    :func:`terms` order.  The tail bound is the mu~_t-mass of trees outside
    the enumerated shapes, computed from the f == 1 integrals against the
    solved total cluster density.  ``unconverged`` counts the terms whose
    time integrals did not converge, ``terms`` the terms summed and
    ``integrals`` the distinct time integrals of the whole call.  K is the
    path's; ``mu0`` must be the path's, as in :func:`terms`, or
    ``ValueError`` is raised.
    """
    listed = _listed_terms(tau_max_leaves, path, mu0)
    per_f, n_integrals = _time_integrals(
        fs, [(shape, masses) for shape, masses, _ in listed], path, t, tol)
    total = path.moment(0.0, t)
    results = []
    for integrals in per_f:
        value = 0.0
        error = 0.0
        captured = 0.0
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
    must be the path's, as in :func:`terms`, or ``ValueError`` is raised.
    """
    if kernel != path.kernel:
        raise ValueError(f"kernel {kernel.name!r} is not the path's {path.kernel.name!r}")
    return functionals((f,), tau_max_leaves, path, mu0, t, tol)[0]


@dataclass(frozen=True)
class PushforwardReport:
    rows: tuple  # (mass, limit_weight, solver_weight)
    max_discrepancy: float


def pushforward_check(path: SolutionPath, mu0: MassSpectrum, kernel: Kernel,
                      t: float, n_max: int) -> PushforwardReport:
    """Compare the mass pushforward of mu~_t against mu_t for small masses.

    For each total mass reachable with at most ``n_max`` atoms, sums the
    limit-measure weight of the :func:`terms` of that mass, keyed by its
    integer units of the solver's mass quantum, and compares with the solved
    weight at that lattice point (0 off the lattice).  The terms are
    integrated at their default tol, 1e-8.  ``mu0`` and ``kernel`` must be
    the path's, as in :func:`terms`, or ``ValueError`` is raised.
    """
    unit = {m: path.unit_of(m) for m in mu0.masses}
    sums: dict[int, float] = {}
    for _, masses, coef, integral in terms(
            ConstantOne(), n_max, path, kernel, mu0, t):
        key = sum(unit[m] for m in masses)
        sums[key] = sums.get(key, 0.0) + coef * integral.one
    weights = path.weights_at(t)
    rows = []
    worst = 0.0
    for u in sorted(sums):
        k = int(np.searchsorted(path.units, u))
        on_lattice = k < len(path.units) and path.units[k] == u
        solver_w = float(weights[k]) if on_lattice else 0.0
        rows.append((float(u * path.quantum), sums[u], solver_w))
        worst = max(worst, abs(sums[u] - solver_w))
    return PushforwardReport(tuple(rows), worst)
