"""Shared helpers for tests, and the oracles that the package is checked
against.

Generators: random trees and density points, with ``build_preorder`` to
build a tree from pre-order node times, and a tabulated kernel file.

Oracles: ``HistoricalTree``, a merger history as an immutable object tree
with its own canonical text (the package keeps a history as leaf masses
plus merge rows), with a measure's atom built as one, the lifetime
intervals of its sub-clusters, its kernel product and the limit density at
it in product and recursive form; the built-in functionals' values read
from a tree alone; nested Gauss-Legendre quadrature over node times; the
coupled exponential-clock construction and its agreement test with the
sampler; the reference jump-chain and thinning samplers and the scalar
view of a generator that they draw through; replica streams, history
building, history text writer and scanner, mass lattice, pair index and
mean-field solve; the sub-clusters of a tree alive at a time and their
interaction rates; the distinct labelings of a shape; the finite-N jump-chain
density; and the closed-form limit cells of the constant and additive
kernels from a mono start.

Nothing in the package, the demos or the benchmark reads these, so they
live here rather than in ``src/`` (``test_imports.py`` keeps it so).
"""

import csv
import functools
import heapq
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy import stats
from scipy.integrate import solve_ivp

from coagtree.kernels import ConfigError, Kernel, check_gelation
from coagtree.limit import TimeIntegral
from coagtree.simulate import (
    RATIO_ROUNDING,
    ConstantOne,
    EventLog,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    replica_stream,
    simulate,
)
from coagtree.smoluchowski import (
    ATOL_PER_TOL,
    SolutionPath,
    SolverError,
    _fraction,
    _lattice,
    _pair_index,
    _unit_masses,
    mass_quantum,
)
from coagtree.trees import (
    LEAF,
    ParseError,
    TreeError,
    TreeShape,
    preorder,
    shape_node,
    shapes_with_leaves,
    symmetry_exponent,
)


# ---------------------------------------------------------------------------
# historical trees: a history as an object tree


@dataclass(frozen=True, eq=False, slots=True)
class HistoricalTree:
    """Merger history of one cluster: leaf masses plus internal merge times.

    A leaf holds a positive ``mass_value`` (and optionally an integer particle
    ``label``); an internal node holds the merge ``time`` and two children whose
    own times do not exceed it.  Instances are immutable; build nodes through
    :func:`hist_node` so children are stored canonically.

    ``n_leaves``, the total ``mass``, the canonical text ``serial`` (no
    labels) and the ``shape`` are set at construction from the children's
    own.  Two trees are equal when their serials are equal and so are their
    leaf labels in :meth:`walk` order; the hash reads the serial only.
    """

    mass_value: Optional[float] = None
    label: Optional[int] = None
    time: Optional[float] = None
    left: Optional["HistoricalTree"] = None
    right: Optional["HistoricalTree"] = None
    n_leaves: int = field(init=False)
    mass: float = field(init=False)
    serial: str = field(init=False)
    shape: TreeShape = field(init=False)

    def __post_init__(self):
        a, b = self.left, self.right
        if a is None:
            mass = self.mass_value
            if mass is None or not 0 < mass < math.inf:
                raise TreeError("leaf mass must be positive and finite")
            n_leaves, shape, serial = 1, LEAF, repr(float(mass))
        else:
            t = self.time
            if t is None or not 0 < t < math.inf:
                raise TreeError("merge time must be positive and finite")
            for child in (a, b):
                if child.left is not None and child.time > t:
                    raise TreeError(
                        f"non-monotone times: child at {child.time} above parent at {t}"
                    )
            n_leaves, mass = a.n_leaves + b.n_leaves, a.mass + b.mass
            shape = shape_node(a.shape, b.shape)
            serial = "(%s,%s)@%r" % (a.serial, b.serial, float(t))
        put = object.__setattr__  # frozen: the derived fields are written once, here
        put(self, "n_leaves", n_leaves)
        put(self, "mass", mass)
        put(self, "serial", serial)
        put(self, "shape", shape)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def sort_key(self) -> tuple:
        return (self.n_leaves, self.serial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HistoricalTree):
            return NotImplemented
        return self.serial == other.serial and (
            [v.label for v in self.walk() if v.is_leaf]
            == [v.label for v in other.walk() if v.is_leaf])

    def __hash__(self) -> int:
        return hash(self.serial)

    def __repr__(self) -> str:
        return f"HistoricalTree({self.serial})"

    def walk(self) -> Iterator["HistoricalTree"]:
        """Post-order traversal (children before parent, left before right)."""
        out = []
        stack = [self]
        while stack:
            v = stack.pop()
            out.append(v)
            if not v.is_leaf:
                stack += (v.left, v.right)
        return reversed(out)

    def internal_nodes(self) -> list["HistoricalTree"]:
        return [v for v in self.walk() if not v.is_leaf]


def hist_leaf(mass: float, label: Optional[int] = None) -> HistoricalTree:
    return HistoricalTree(mass_value=float(mass), label=label)


def hist_node(time: float, a: HistoricalTree, b: HistoricalTree) -> HistoricalTree:
    """Internal node; children stored in canonical order."""
    if b.sort_key() < a.sort_key():
        a, b = b, a
    return HistoricalTree(time=float(time), left=a, right=b)


def measure_tree(m, node: int) -> HistoricalTree:
    """The ``HistoricalTree`` of node ``node`` of an empirical measure, from
    its flat arrays and event rows; leaf i carries label i."""
    events, n0 = m.events, m.n0
    order = []
    stack = [node]
    while stack:
        v = stack.pop()
        order.append(v)
        if v >= n0:
            stack += events[v - n0][1:]
    built = []  # finished subtrees: children before parents, left before right
    for v in reversed(order):
        if v < n0:
            built.append(hist_leaf(m.mass[v], label=v))
        else:
            b = built.pop()
            built.append(hist_node(events[v - n0][0], built.pop(), b))
    return built[0]


def epsilon(tau: TreeShape) -> float:
    """Symmetry correction: 1 if the two children differ, 1/2 if equal."""
    if tau.is_leaf:
        raise TreeError("epsilon undefined for a single leaf")
    return 0.5 if tau.left == tau.right else 1.0


@dataclass(frozen=True)
class EdgeInterval:
    mass: float
    birth: float
    death: float


def edge_intervals(xi: HistoricalTree, horizon: float) -> list[EdgeInterval]:
    """Lifetime interval of every sub-cluster of ``xi`` up to ``horizon``.

    A leaf is born at 0, a merged cluster at its merge time; each dies at its
    parent's merge time, the root at ``horizon``.  Post-order, one entry per
    node, 2*n_leaves - 1 entries in total.
    """
    if not xi.is_leaf and xi.time >= horizon:
        # child times never exceed their parent's, so the root is the latest
        raise TreeError(f"node time {xi.time} not below horizon {horizon}")
    out: list[EdgeInterval] = []
    stack = [(xi, float(horizon))]
    while stack:
        v, death = stack.pop()
        if v.is_leaf:
            out.append(EdgeInterval(v.mass, 0.0, death))
        else:
            out.append(EdgeInterval(v.mass, v.time, death))
            stack += ((v.left, v.time), (v.right, v.time))
    out.reverse()
    return out


def kernel_product(xi: HistoricalTree, kernel) -> float:
    """Product of kernel values over the merge events inside ``xi`` (1 for a leaf)."""
    out = 1.0
    for v in xi.internal_nodes():
        out *= kernel.evaluate(v.left.mass, v.right.mass)
    return out


# ---------------------------------------------------------------------------
# the limit density at one tree


def labeled_density(tree: HistoricalTree, path: SolutionPath, t: float) -> float:
    """K_xi * exp(-sum over lifetime intervals of Lambda): the density
    without its symmetry factor 2^(-q)."""
    exponent = 0.0
    for e in edge_intervals(tree, t):
        exponent += path.survival_exponent(e.mass, e.birth, e.death)
    return kernel_product(tree, path.kernel) * math.exp(-exponent)


def density_product(tree: HistoricalTree, path: SolutionPath, t: float) -> float:
    """Product-form density at ``tree`` with horizon ``t``."""
    q = symmetry_exponent(tree.shape)
    return 2.0 ** (-q) * labeled_density(tree, path, t)


def density_recursive(tree: HistoricalTree, path: SolutionPath, t: float) -> float:
    """Recursive density: leaves carry survival exponentials, each merge
    contributes epsilon(shape) * K(mass_1, mass_2)."""
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
            * path.kernel.evaluate(v.left.mass, v.right.mass)
            * left
            * right
            * math.exp(-path.survival_exponent(v.mass, v.time, horizon))
        )
    return done[0]


def reference_rng_for(seed, replica=0, stream=0):
    """The replica stream that ``rng_for`` replaced: a fresh key, then jumped."""
    key = SeedSequence((int(seed), int(stream))).generate_state(2)
    return Generator(Philox(key=int(key[0]) << 64 | int(key[1])).jumped(replica))


class ScalarView:
    """A generator read one double at a time, in the order ``simulate``
    reads the doubles of its ``rng.random`` blocks: ``random()`` is the next
    ``rng.random()``, and ``standard_exponential()`` is -log1p(-U) of the
    next one.  The reference samplers draw through it, so they read the
    same doubles as ``simulate`` and give its floats."""

    def __init__(self, rng):
        self.rng = rng

    def random(self) -> float:
        return self.rng.random()

    def standard_exponential(self) -> float:
        return -math.log1p(-self.rng.random())


def reference_atoms(log, t):
    """The live histories at ``t``, built as ``empirical_measure`` once did:
    one tree per event, live clusters kept in a dict."""
    trees = {i: hist_leaf(m, label=i) for i, m in enumerate(log.config.masses)}
    for node, (s, i, j) in enumerate(log.events, log.config.n):
        if s > t:
            break
        trees[node] = hist_node(s, trees.pop(i), trees.pop(j))
    return tuple(trees.values())


def reference_value(f, tree):
    """The built-in f on ``tree``, computed from the tree alone as each
    built-in's own ``__call__`` did before ``time_boxes`` became its one
    declaration: the oracle for that declaration."""
    if isinstance(f, ShapeIndicator):
        return 1.0 if tree.shape == f.shape else 0.0
    if isinstance(f, ShapeTimeBoxIndicator):
        if tree.shape != f.shape:
            return 0.0
        times = [v.time for v in preorder(tree) if not v.is_leaf]
        for (lo, hi), s in zip(f.boxes, times):
            if not lo <= s <= hi:
                return 0.0
        return 1.0
    if isinstance(f, MassCutoff):
        x = tree.mass
        if x <= f.M:
            return 1.0
        if x >= f.M + 1.0:
            return 0.0
        return f.M + 1.0 - x
    if isinstance(f, FunctionalProduct):
        out = 1.0
        for g in f.factors:
            out *= reference_value(g, tree)
            if out == 0.0:
                return 0.0
        return out
    if isinstance(f, ConstantOne):
        return 1.0
    raise TypeError(f"{f!r} is not a built-in functional")


def reference_write_events(log, outdir):
    """``events.csv`` and ``trees.txt`` as ``coagtree simulate`` once wrote
    them: one ``HistoricalTree`` built per node, only to read its serial."""
    events_path = outdir / "events.csv"
    trees_path = outdir / "trees.txt"
    built = {i: hist_leaf(m, label=i) for i, m in enumerate(log.config.masses)}
    with open(events_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event_index", "time", "left_serial", "right_serial"])
        for k, (s, i, j) in enumerate(log.events):
            writer.writerow([k, repr(s), built[i].serial, built[j].serial])
            built[log.config.n + k] = hist_node(s, built.pop(i), built.pop(j))
    with open(trees_path, "w") as fh:
        for tree in built.values():
            fh.write(tree.serial + "\n")
    return [events_path, trees_path]


def reference_parse(text, strict=False):
    """The character-by-character scanner that the regex ``parse`` replaced.
    It accepts no whitespace between "@" and the merge time.  Like ``parse``,
    and unlike the scanner it reproduces, it refuses a leaf mass that
    overflows to infinity (``hist_leaf`` and ``hist_node`` refuse such
    masses and times)."""
    pos = 0

    def error(msg):
        raise ParseError(msg, pos)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def number():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isdigit() or text[pos] in "+-.eE"):
            pos += 1
        if pos == start:
            error("expected a number")
        try:
            return float(text[start:pos])
        except ValueError:
            pos = start
            error(f"bad number {text[start:pos + 20]!r}")

    # One entry per open "(": False while its first child is being read,
    # True while its second is.  Finished subtrees wait on ``done``.
    open_nodes = []
    done = []
    while True:
        skip_ws()
        if pos >= len(text):
            error("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            open_nodes.append(False)
            continue
        val = number()
        if not 0 < val < math.inf:
            error("leaf mass must be positive and finite")
        done.append(hist_leaf(val))
        while open_nodes and open_nodes[-1]:
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            pos += 1
            skip_ws()
            if pos >= len(text) or text[pos] != "@":
                error("expected '@' with a merge time")
            pos += 1
            t = number()
            b = done.pop()
            a = done.pop()
            try:
                done.append(hist_node(t, a, b))
            except TreeError as e:
                error(str(e))
            open_nodes.pop()
        if not open_nodes:
            break
        skip_ws()
        if pos >= len(text) or text[pos] != ",":
            error("expected ','")
        pos += 1
        open_nodes[-1] = True

    tree = done[0]
    skip_ws()
    if pos != len(text):
        error("trailing input")
    if strict:
        times = [v.time for v in tree.walk() if not v.is_leaf]
        # this also catches a child tied with its parent
        if len(times) != len(set(times)):
            raise ParseError("duplicate merge times under strict validation", 0)
    return tree


def random_history(rng, n_leaves, horizon=1.0):
    """Random historical tree by merging at sorted uniform times."""
    nodes = [hist_leaf(float(rng.uniform(0.5, 3.0))) for _ in range(n_leaves)]
    times = np.sort(rng.uniform(0.0, horizon, size=n_leaves - 1))
    for t in times:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        a, b = nodes[max(i, j)], nodes[min(i, j)]
        nodes = [x for k, x in enumerate(nodes) if k not in (i, j)]
        nodes.append(hist_node(float(t), a, b))
    return nodes[0]


def random_density_query(rng, mu0, t, max_leaves=4):
    """Random tree with masses from mu0's atoms and order-respecting times."""
    n = int(rng.integers(1, max_leaves + 1))
    shapes = shapes_with_leaves(n)
    shape = shapes[int(rng.integers(len(shapes)))]
    masses = tuple(float(mu0.masses[i])
                   for i in rng.integers(len(mu0.masses), size=n))
    times = []

    def rec(s, upper):
        if s.is_leaf:
            return
        own = float(rng.uniform(0, upper))
        times.append(own)
        rec(s.left, own)
        rec(s.right, own)

    rec(shape, t)
    return build_preorder(shape, masses, times)


# Gauss-Legendre orders tried in turn until two successive ones agree
GL_ORDERS = (8, 12, 18, 27)


@functools.cache
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


def _internal_parents(shape) -> list:
    """Per internal node of ``shape`` in pre-order, the position of its parent
    among the internal nodes in that order (-1 for the root): the index of
    the parent's time in a pre-order time vector."""
    parents = []
    stack = [(shape, -1)]
    while stack:
        v, parent = stack.pop()
        if not v.is_leaf:
            stack += ((v.right, len(parents)), (v.left, len(parents)))
            parents.append(parent)
    return parents


def _simplex_integral(shape, t, evaluate, order, breakpoints=()):
    """Integrate ``evaluate(times)`` over node times respecting the tree order.

    Each internal node's time ranges over (0, parent time); the root over
    (0, t).  ``evaluate`` takes the pre-order time vector and returns a
    vector of integrand values, all accumulated together.  ``breakpoints``
    are known discontinuity locations of the integrand in any single time
    coordinate; panels are split there so Gauss-Legendre stays accurate.
    """
    parents = _internal_parents(shape)
    d = len(parents)
    if d == 0:
        return np.asarray(evaluate(()), dtype=float)
    x, w = _gl(order)
    times = [0.0] * d

    def nested(level):
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


def gl_time_integral(shape, masses, path, t, f, tol):
    """``limit.time_integral`` by nested Gauss-Legendre over the node times,
    for any callable f: the oracle of the recursive evaluator.

    The errors are the change between the last two ``GL_ORDERS``: the first
    pair to agree within tol / 10, else the last.  Discontinuity locations
    declared by ``f`` through a ``time_breakpoints`` attribute split the
    quadrature panels.
    """
    def evaluate(times):
        tree = build_preorder(shape, masses, times)
        core = labeled_density(tree, path, t)
        return np.array([core * f(tree), core])

    breakpoints = tuple(getattr(f, "time_breakpoints", ()))
    prev = _simplex_integral(shape, t, evaluate, GL_ORDERS[0], breakpoints)
    converged = False
    for order in GL_ORDERS[1:]:
        cur = _simplex_integral(shape, t, evaluate, order, breakpoints)
        diff = np.abs(cur - prev)
        if (diff <= 0.1 * tol).all():
            converged = True
            break
        prev = cur
    return TimeIntegral(value=float(cur[0]), error=float(diff[0]), one=float(cur[1]),
                        one_error=float(diff[1]), converged=converged)


def write_additive_table(path):
    """CSV of K = x + y on the grid 1, 2, 4, ... 1024 (bilinear is exact on it)."""
    grid = [float(2 ** k) for k in range(11)]
    rows = ["x,y,value"] + [f"{x!r},{y!r},{x + y!r}" for x in grid for y in grid]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def reference_simulate_direct(cfg, rng):
    """The O(#clusters) jump-chain sampler that the thinning ``simulate`` replaced.

    Maintains per-cluster rate sums R_i = sum_{j != i} K(m_i, m_j); total
    event rate is sum_i R_i / (2N).  The first cluster of a merging pair is
    drawn proportionally to R_i, the partner proportionally to K(m_i, m_j).
    Its cluster arrays keep ``simulate``'s one-class order: a merge
    swap-removes its two clusters, the later position first, and appends
    the merger.  Given a ``ScalarView`` of the generator ``simulate`` gets,
    it draws the doubles ``simulate`` reads.
    """
    kernel = cfg.kernel
    n0 = cfg.n
    m = np.array(cfg.masses, dtype=float)
    ids = np.arange(n0)

    # initial row sums grouped by distinct mass: O(n * #distinct)
    um, counts = np.unique(m, return_counts=True)
    rows = np.asarray(kernel.evaluate(m[:, None], um[None, :]), dtype=float)
    r = rows @ counts - np.asarray(kernel.evaluate(m, m), dtype=float)

    events = []
    t = 0.0
    next_id = n0
    while len(m) > 1:
        total = float(r.sum())
        if total <= 0:
            break
        t += rng.standard_exponential() * (2.0 * cfg.n_eff) / total
        if t > cfg.horizon:
            break
        cum = np.cumsum(r)
        i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        ki = np.asarray(kernel.evaluate(m[i], m), dtype=float)
        ki[i] = 0.0
        cum2 = np.cumsum(ki)
        j = int(np.searchsorted(cum2, rng.random() * cum2[-1], side="right"))
        a, b = min(i, j), max(i, j)
        new_mass = m[a] + m[b]
        events.append((t, *sorted((int(ids[a]), int(ids[b])))))

        # rate update: every other cluster swaps its (a, b) terms for the merger
        ka = np.asarray(kernel.evaluate(m, m[a]), dtype=float)
        kb = np.asarray(kernel.evaluate(m, m[b]), dtype=float)
        knew = np.asarray(kernel.evaluate(m, new_mass), dtype=float)
        r += knew - ka - kb
        # the sampler's order: b then a swap-removed, the merger appended
        keep = list(range(len(m)))
        _swap_remove(keep, b)
        _swap_remove(keep, a)
        m = np.append(m[keep], new_mass)
        ids = np.append(ids[keep], next_id)
        r = np.append(r[keep], 0.0)
        r[-1] = float(np.asarray(kernel.evaluate(new_mass, m[:-1]), dtype=float).sum())
        next_id += 1
    return EventLog(cfg, tuple(events))


def simulate_coupled(cfg, rng):
    """Coupled exponential-clock construction, the oracle of the sampler's law.

    Each candidate merged labeled tree {i, j} carries a clock
    S = max(S_i, S_j) + (N / K(y_i, y_j)) * U with U ~ Exp(1), keyed by the
    tree's canonical label key.  Clocks are drawn lazily: the initial pairs,
    then at each merge the new cluster's pairs, each batch in sorted key
    order, so only trees reachable from the realized trajectory get a clock.
    A batch's exponentials come from one ``standard_exponential(k)`` call,
    which gives the doubles of k scalar calls.  N / K is evaluated once per
    ordered pair of masses a run meets, and the clocks wait in a heap, from
    which the pairs of merged clusters are dropped when they reach its top.
    """
    if cfg.n > 12:
        raise ConfigError("coupled construction is limited to N <= 12")
    evaluate = cfg.kernel.evaluate
    rate_n = cfg.n_eff

    # live clusters by ascending node id: (label key, S birth time, mass)
    live = {i: (str(i), 0.0, float(m)) for i, m in enumerate(cfg.masses)}
    ids = list(live)
    new = [(a, b) for x, a in enumerate(ids) for b in ids[x + 1:]]
    scales = {}  # (mass, mass) -> N / K
    clocks = []  # heap of (S, pair key, node id, node id), smaller id first
    events = []
    next_id = cfg.n
    while new:
        keyed = []
        for a, b in new:
            ka, kb = live[a][0], live[b][0]
            keyed.append(("{%s,%s}" % ((ka, kb) if ka < kb else (kb, ka)), a, b))
        keyed.sort()
        for (key, a, b), u in zip(keyed, rng.standard_exponential(len(keyed)).tolist()):
            (_, sa, ma), (_, sb, mb) = live[a], live[b]
            scale = scales.get((ma, mb))
            if scale is None:
                scale = scales[ma, mb] = rate_n / float(evaluate(ma, mb))
            heapq.heappush(clocks, (max(sa, sb) + scale * u, key, a, b))
        while clocks[0][2] not in live or clocks[0][3] not in live:
            heapq.heappop(clocks)
        s, key, a, b = heapq.heappop(clocks)
        if s > cfg.horizon:
            break
        events.append((s, a, b))
        mass = live.pop(a)[2] + live.pop(b)[2]
        new = [(i, next_id) for i in live]
        live[next_id] = (key, s, mass)
        next_id += 1
    return EventLog(cfg, tuple(events))


@dataclass(frozen=True)
class ConstructionReport:
    n: int
    replicas: int
    ks_pvalue: float
    pair_pvalue: float
    passed: bool


def construction_agreement_test(n, masses, kernel, t, replicas=100000, seed=0):
    """The sampler vs the coupled construction: same law of (first event
    time, pair).

    Kolmogorov-Smirnov on first-event times, chi-squared contingency on the
    identity of the first merged pair; PASS at p > 0.001 for both.  The
    sampler draws from stream 17, the coupled construction from stream 19.
    """
    masses = tuple(float(m) for m in masses)
    cfg = SimConfig(masses, kernel, t)
    samples = {"direct": ([], []), "coupled": ([], [])}
    for construction, (times, pairs) in samples.items():
        sim = simulate if construction == "direct" else simulate_coupled
        stream = 17 if construction == "direct" else 19
        rng_at = replica_stream(seed, stream)
        for replica in range(replicas):
            log = sim(cfg, rng_at(replica))
            if log.events:
                s, i, j = log.events[0]
                times.append(s)
                pairs.append((min(i, j), max(i, j)))

    ks_p = float(stats.ks_2samp(samples["direct"][0], samples["coupled"][0]).pvalue)
    pair_ids = sorted(set(samples["direct"][1]) | set(samples["coupled"][1]))
    table = np.array([
        [samples[c][1].count(p) for p in pair_ids] for c in ("direct", "coupled")
    ])
    pair_p = float(stats.chi2_contingency(table).pvalue)
    passed = ks_p > 0.001 and pair_p > 0.001
    return ConstructionReport(n, replicas, ks_p, pair_p, passed)


def reference_simulate_coupled(cfg, rng):
    """``simulate_coupled`` as it was before it carried masses: a
    ``HistoricalTree`` per particle and merge, read only for its mass, and
    every live pair's key rebuilt and sorted at every event."""
    if cfg.n > 12:
        raise ConfigError("coupled construction is limited to N <= 12")
    kernel = cfg.kernel
    n0 = cfg.n

    # live entries: (label key, node id, S birth time, tree)
    live = [(str(i), i, 0.0, hist_leaf(cfg.masses[i], label=i)) for i in range(n0)]
    clocks = {}
    events = []
    next_id = n0
    while len(live) > 1:
        candidates = []
        for x in range(len(live)):
            for y in range(x + 1, len(live)):
                ka, ia, sa, ta = live[x]
                kb, ib, sb, tb = live[y]
                key = "{%s,%s}" % ((ka, kb) if ka < kb else (kb, ka))
                candidates.append((key, x, y))
        for key, x, y in sorted(candidates):
            if key not in clocks:
                _, _, sa, ta = live[x]
                _, _, sb, tb = live[y]
                rate = kernel.evaluate(ta.mass, tb.mass)
                clocks[key] = max(sa, sb) + (cfg.n_eff / float(rate)) * rng.standard_exponential()
        best = min(candidates, key=lambda c: (clocks[c[0]], c[0]))
        s = clocks[best[0]]
        if s > cfg.horizon:
            break
        _, x, y = best
        ka, ia, sa, ta = live[x]
        kb, ib, sb, tb = live[y]
        events.append((s, ia, ib))
        merged = (best[0], next_id, s, hist_node(s, ta, tb))
        live = [live[k] for k in range(len(live)) if k not in (x, y)]
        live.append(merged)
        next_id += 1
    return EventLog(cfg, tuple(events))


def reference_thinning_sampler(cfg, rng, watch=None):
    """The thinning sampler's phi-class rule, kept simple: each run builds
    its own ``_Majorant`` from scratch, paying one kernel row per mass it
    meets, and each proposal rebuilds the classes' prefix sums and scans
    them in order (``_class_pick``) where ``simulate`` keeps the sums from
    merge to merge and bisects them.  Same law, same floats, and, through a
    ``ScalarView`` of ``simulate``'s generator, the same draws.

    ``watch``, if given, is called before each target draw with the prefix
    sums, phis and class sizes that the draw's target is read against.
    """
    evaluate = cfg.kernel.evaluate
    n0 = cfg.n
    majorant = _Majorant(cfg.kernel)
    mass = [float(x) for x in cfg.masses]
    phis, members = [], []  # per phi class, in first-met order: phi, live ids
    for i, x in enumerate(mass):
        p = majorant.phi(x)
        if p not in phis:
            phis.append(p)
            members.append([])
        members[phis.index(p)].append(i)
    rate_scale = 2.0 * cfg.n_eff

    events = []
    proposals = 0
    t = 0.0
    while len(mass) < 2 * n0 - 1:  # two or more clusters alive
        sizes = [len(ids) for ids in members]
        cum = list(itertools.accumulate(k * p for k, p in zip(sizes, phis)))
        s1 = cum[-1]
        scale = majorant.c * (s1 - majorant.phi_floor)
        total = scale * s1
        if not total > 0.0:
            break
        t += rng.standard_exponential() * rate_scale / total
        if t > cfg.horizon:
            break
        proposals += 1
        if watch is not None:
            watch(cum, phis, sizes)
        # a draw that rounding carries past a class's ids is a rejection
        ci, p = _class_pick(cum, phis, sizes, rng.random() * s1)
        if p is None:
            continue
        pi = phis[ci]
        # j: phi_i off i's class and every class after it, i's position skipped
        cum_j = [s - pi if k >= ci else s for k, s in enumerate(cum)]
        sizes[ci] -= 1
        if watch is not None:
            watch(cum_j, phis, sizes)
        cj, q = _class_pick(cum_j, phis, sizes, rng.random() * (s1 - pi))
        if q is None:
            continue
        if cj == ci and q >= p:
            q += 1
        i, j = members[ci][p], members[cj][q]
        pj = phis[cj]
        rest_i, rest_j = s1 - pi, s1 - pj
        num = 2.0 * evaluate(mass[i], mass[j]) * rest_i * rest_j
        den = scale * pi * pj * (rest_i + rest_j)
        if num < den:
            if rng.random() * den >= num:
                continue
        elif not num <= den * (1.0 + RATIO_ROUNDING):
            raise ValueError(
                f"kernel {cfg.kernel.name!r} at masses ({mass[i]!r}, {mass[j]!r}) "
                f"is above the thinning majorant: acceptance ratio {num / den!r}")

        x = mass[i] + mass[j]
        events.append((t, min(i, j), max(i, j)))
        px = majorant.phi(x)
        for k, pos in sorted([(ci, p), (cj, q)], reverse=True):
            _swap_remove(members[k], pos)
        if px not in phis:
            phis.append(px)
            members.append([])
        members[phis.index(px)].append(len(mass))
        mass.append(x)
    return EventLog(cfg, tuple(events), proposals)


def _class_pick(cum: list, phis: list, sizes: list, target: float) -> tuple:
    """(class, position) of ``target``: the first class whose prefix sum
    exceeds it, and the rounded-down quotient of its residual by the class's
    phi; position None when rounding carries it past the class's size.  A
    target is u < 1 times the last prefix sum, so it is below that sum."""
    base = 0.0
    for k, s in enumerate(cum):
        if s > target:
            pos = int((target - base) / phis[k])
            return k, (pos if pos < sizes[k] else None)
        base = s
    raise AssertionError(f"target {target!r} is past the last prefix sum {cum[-1]!r}")


def _swap_remove(ids: list, pos: int) -> None:
    """Remove ``ids[pos]`` by moving the last id into its place."""
    last = ids.pop()
    if pos < len(ids):
        ids[pos] = last


class _Majorant:
    """c = max K(x, y) / (phi(x) phi(y)) and phi_floor = min phi(x) over the
    masses x, y seen so far."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self.c = 0.0
        self.phi_floor = math.inf
        self._phi = {}  # mass -> phi(mass)

    def phi(self, x: float) -> float:
        """phi(x); a mass not seen before first folds its pairs into c."""
        p = self._phi.get(x)
        if p is not None:
            return p
        p = float(self.kernel.phi(x))
        if not p > 0.0:
            raise ValueError(f"kernel {self.kernel.name!r} has phi({x!r}) = {p!r}; "
                             "the sampler needs phi > 0")
        self._phi[x] = p
        d = len(self._phi)
        masses = np.fromiter(self._phi, float, d)
        phis = np.fromiter(self._phi.values(), float, d)
        ratios = np.asarray(self.kernel.evaluate(x, masses), dtype=float) / (p * phis)
        largest = float(ratios.max())
        if not math.isfinite(largest):
            raise ValueError(f"kernel {self.kernel.name!r} gives K / (phi phi) = "
                             f"{largest!r} at mass {x!r}")
        self.c = max(self.c, largest)
        self.phi_floor = min(self.phi_floor, p)
        return p


def reference_lattice(masses, k_max):
    """The float-keyed lattice that the integer one replaced: closure of the
    masses under pairwise float sums, by rounds, capped at ``k_max`` points."""
    base = [float(m) for m in masses]
    if len(base) == 1:
        return base[0] * np.arange(1, k_max + 1, dtype=float)
    seen = set(base)
    frontier = list(base)
    while len(seen) < k_max and frontier:
        new = {a + b for a in sorted(seen) for b in base} - seen
        if not new:
            break
        for s in sorted(new):
            if len(seen) >= k_max:
                break
            seen.add(s)
        frontier = sorted(new)
    return np.array(sorted(seen)[:k_max])


def reference_pair_index(masses):
    """Index arrays (i, j, k) with x_i + x_j = x_k by float equality, i <= j:
    the double loop that the vectorised integer pair index replaced."""
    pos = {m: k for k, m in enumerate(masses)}
    ii, jj, kk = [], [], []
    n = len(masses)
    for i in range(n):
        for j in range(i, n):
            k = pos.get(masses[i] + masses[j])
            if k is not None:
                ii.append(i)
                jj.append(j)
                kk.append(k)
    return np.array(ii), np.array(jj), np.array(kk)


def reference_solve(mu0, kernel, t_end, tol=1e-8, k_max=256, allow_gelation=False):
    """The ``solve`` that a direct RK45 loop and then the numpy Dormand-Prince
    stepper replaced: ``solve_ivp`` with ``dense_output``, gathering ``c[ii]``
    and ``c[jj]`` in the right-hand side.  The path is its interpolants'
    ``(t_old, t, y_old, Q)``, and the leak reads the last one at ``t_end``."""
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    check_gelation(kernel, mu0.masses, mu0.weights, t_end, allow_gelation)

    quantum = mass_quantum(mu0.masses)
    atoms = [int(_fraction(m) / quantum) for m in mu0.masses]
    units = _lattice(atoms, k_max)
    n = len(units)
    if atoms[-1] > units[-1]:
        raise ConfigError(f"initial mass {mu0.masses[-1]!r} lies beyond the "
                          f"{k_max}-point lattice; raise k_max")
    masses = _unit_masses(units, quantum)
    c0 = np.zeros(n)
    c0[np.searchsorted(units, atoms)] = mu0.weights

    kmat = kernel.matrix(masses)
    ii, jj, kk = _pair_index(units)
    # unordered pairs; i == j counted once with 1/2
    half_k = np.where(ii == jj, 0.5, 1.0) * kmat[ii, jj]

    def rhs(_t, c):
        pair = half_k * c[ii] * c[jj]
        gain = np.bincount(kk, weights=pair, minlength=n)
        loss = c * (kmat @ c)
        return gain - loss

    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            sol = solve_ivp(rhs, (0.0, t_end), c0, method="RK45",
                            rtol=tol, atol=ATOL_PER_TOL * tol, dense_output=True)
        except (RuntimeWarning, FloatingPointError) as e:
            raise SolverError(f"integration blew up before t={t_end}: {e}") from e
    if not sol.success:
        raise SolverError(f"integration failed: {sol.message}")

    steps = sol.sol.interpolants
    path = SolutionPath(units, quantum, [s.t_old for s in steps] + [steps[-1].t],
                        [s.y_old for s in steps], [s.Q for s in steps], kernel, tol,
                        sol.nfev)
    total0 = float(np.sum(c0 * masses))
    leak = total0 - float(np.sum(steps[-1](t_end) * masses))
    if leak > 10 * tol * max(total0, 1.0):
        warnings.warn(
            f"mass {leak:.3e} left the {n}-point lattice by t={t_end}; "
            "increase k_max for tighter tails", stacklevel=2)
    path.leak = leak / total0 if total0 > 0 else 0.0
    return path


# ---------------------------------------------------------------------------
# trees from pre-order times; live sub-clusters and their interaction rates


def build_preorder(shape: TreeShape, masses, times) -> HistoricalTree:
    """Historical tree from leaf masses (left to right) and internal times in
    pre-order (each parent listed before its children)."""
    if len(masses) != shape.n_leaves:
        raise TreeError("need one mass per leaf")
    if len(times) != shape.n_leaves - 1:
        raise TreeError("need one time per internal node")
    mi = iter(masses)
    ti = iter(times)
    nodes = [(s, next(mi) if s.is_leaf else next(ti)) for s in preorder(shape)]
    built: list[HistoricalTree] = []
    for s, value in reversed(nodes):
        if s.is_leaf:
            built.append(hist_leaf(value))
        else:
            built.append(hist_node(value, built.pop(), built.pop()))
    return built[0]


def clusters_alive_at(xi: HistoricalTree, s: float) -> list[HistoricalTree]:
    """Maximal sub-clusters of ``xi`` already formed at time ``s``, left to right."""
    out = []
    stack = [xi]
    while stack:
        v = stack.pop()
        if v.is_leaf or v.time <= s:
            out.append(v)
        else:
            stack += (v.right, v.left)
    return out


def internal_interaction_rate(xi: HistoricalTree, s: float, kernel) -> float:
    """Half-sum of kernel values over ordered pairs of distinct live sub-clusters."""
    live = clusters_alive_at(xi, s)
    total = 0.0
    for i, a in enumerate(live):
        for j, b in enumerate(live):
            if i != j:
                total += kernel.evaluate(a.mass, b.mass)
    return 0.5 * total


def cross_interaction_rate(x1: HistoricalTree, x2: HistoricalTree, s: float, kernel) -> float:
    """Kernel sum over cross pairs of sub-clusters live in two disjoint trees."""
    total = 0.0
    for a in clusters_alive_at(x1, s):
        for b in clusters_alive_at(x2, s):
            total += kernel.evaluate(a.mass, b.mass)
    return total


# ---------------------------------------------------------------------------
# labeled trees


def distinct_labelings(shape: TreeShape, labels: list[int]) -> set:
    """All distinct labeled trees of the given shape over ``labels``.

    Returns canonical nested frozensets; there are n!/2^q of them.
    """
    if len(labels) != shape.n_leaves:
        raise TreeError("label count must match leaf count")
    import itertools

    def key(s: TreeShape, perm: tuple) -> object:
        # canonical labeled-tree key: leaf -> label, node -> frozenset of keys
        if s.is_leaf:
            return perm[0]
        k = s.left.n_leaves
        return frozenset({key(s.left, perm[:k]), key(s.right, perm[k:])})

    return {key(shape, p) for p in itertools.permutations(labels)}


# ---------------------------------------------------------------------------
# finite-N jump-chain density


def finite_n_jump_density(tree: HistoricalTree, t: float, N: int,
                          kernel: Kernel) -> float:
    """Density of the realized history of an isolated n-particle system.

    (K_xi / N^(n-1)) * exp(-int_0^t K_s(xi)/N ds), where K_s is the pairwise
    interaction rate among the sub-clusters of ``tree`` alive at s.  The
    integral is exact: the rate is piecewise constant between merge times,
    and is updated at each merge, in time order, from the kernel rows of the
    two merged clusters and the new one, so O(n^2) kernel values in all.
    The product is taken in log space, so a large tree underflows to 0.0
    instead of overflowing N^(n-1) or K_xi.
    """
    n = tree.n_leaves
    merges = sorted(tree.internal_nodes(), key=lambda v: v.time)
    cuts = sorted({0.0, float(t)} | {v.time for v in merges})
    live = [v.mass for v in tree.walk() if v.is_leaf]  # live sub-clusters' masses
    pairs = kernel.matrix(live)
    rate = 0.5 * float(pairs.sum() - np.trace(pairs))
    integral = 0.0
    done = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        # the merges at or before a have happened inside the cell (a, b)
        while done < len(merges) and merges[done].time <= a:
            v = merges[done]
            done += 1
            x, y = v.left.mass, v.right.mass
            live.remove(x)
            live.remove(y)
            rest = np.array(live)
            rate += float(np.sum(kernel.evaluate(v.mass, rest))
                          - np.sum(kernel.evaluate(x, rest))
                          - np.sum(kernel.evaluate(y, rest))) - float(kernel.evaluate(x, y))
            live.append(v.mass)
            if len(live) == 1:
                rate = 0.0  # no pair left; drop the rounding of the updates
        integral += rate * (b - a)
    log_density = -(n - 1) * math.log(N) - integral / N
    for v in merges:
        k = float(kernel.evaluate(v.left.mass, v.right.mass))
        if k == 0.0:
            return 0.0
        log_density += math.log(k)
    return math.exp(log_density)


# ---------------------------------------------------------------------------
# closed-form limit cells from a mono start
#
# For K = a + b(x+y) + cxy the survival exponents of a node's two children
# cancel their mass parts, so each term of the limit measure factors into a
# shape weight times a function of the leaf count n alone: c_n(t), the
# limit mass of the n-leaf trees, which has closed forms (Aldous 1999,
# "Deterministic and stochastic models for coalescence").  From unit masses
# a shape's weight is 2^-q(shape) times the product over internal nodes v of
# K(n_l, n_r) / (n_v - 1), n_l and n_r the leaf counts of v's children; for
# the constant kernel its share is the Yule-Harding law (Harding 1971, "The
# probabilities of rooted tree-shapes generated by random bifurcation").

# K on leaf counts, by kernel name
MONO_KERNELS = {"constant": lambda a, b: 1.0, "additive": lambda a, b: a + b,
                "product": lambda a, b: a * b}


def _c_n(kernel_name: str, n: int, t: float) -> float:
    if kernel_name == "constant":
        return (t / 2) ** (n - 1) / (1 + t / 2) ** (n + 1)
    if kernel_name == "additive":
        x = 1.0 - math.exp(-t)
        return (math.exp(-t) * x ** (n - 1) * n ** (n - 1) * math.exp(-n * x)
                / math.factorial(n))
    return n ** (n - 2) * t ** (n - 1) * math.exp(-n * t) / math.factorial(n)


def _shape_weight(kernel_name: str, shape: TreeShape) -> float:
    kernel = MONO_KERNELS[kernel_name]
    w = 2.0 ** -symmetry_exponent(shape)
    for v in preorder(shape):
        if not v.is_leaf:
            w *= kernel(v.left.n_leaves, v.right.n_leaves) / (v.n_leaves - 1)
    return w


def mono_limit_cell(kernel_name: str, shape: TreeShape, t: float) -> float:
    """Limit-measure mass at t of the trees of ``shape`` from unit masses,
    c_n(t) times the shape's share of the n-leaf trees, for the constant
    (K = 1), additive (K = x + y) and product (K = xy) kernels."""
    if kernel_name not in MONO_KERNELS:
        raise ValueError(f"no closed form for the {kernel_name} kernel")
    n = shape.n_leaves
    total = sum(_shape_weight(kernel_name, s) for s in shapes_with_leaves(n))
    return _c_n(kernel_name, n, t) * _shape_weight(kernel_name, shape) / total
