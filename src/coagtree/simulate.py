"""Stochastic coagulation with full merger-history recording.

``simulate(cfg, rng)`` samples the process (pairwise merge rate K(x, y)/N)
by majorant thinning: pairs proposed in proportion to phi(x) phi(y) and
accepted with probability K / majorant.  The live clusters are grouped
by phi value, one class per phi met, each a list of live ids; a proposal
bisects the classes' prefix sums of count x phi and then divides inside
the class, and a merge swap-removes its two ids.  Its initial state is
built once per ``SimConfig``, and so is every majorant state a run
reaches: each ``SimConfig`` keeps them in a trie keyed by the masses in the
order met.

Each run draws from the generator it is given, which is
``rng_for(seed, replica, stream)``: a Philox stream that depends on those
three numbers only, so replicas give the same results in any order and in
any worker process.  ``rng_for`` is one seating of ``replica_stream(seed,
stream)``, which gives the streams replica after replica from one Philox.
``numpy.random`` loads with the first stream, so the limit side, which
draws nothing, never imports it.  A run reads the stream's ``rng.random``
doubles in order, a block per Generator call: its k-th draw is the k-th
double whatever the block size, and the unread rest of its last block
stays inside its own replica stream.

A run's ``EventLog`` holds its merges as plain ``(time, left, right)`` rows,
left < right, in time order.  Merge k creates node N + k, so node ids are
implied by the row order: leaves are 0..N-1 and node v >= N is row v - N.
``empirical_measure`` adds only per-node shape ids (interned) and masses and
the live ids, and reads merge times and children from the rows; it builds no
tree.  A functional declares itself once, by ``time_boxes(shape, mass)``;
``evaluate_functional`` reads that declaration on the flat arrays, and
``coagtree.limit`` in its time integrals.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

from .kernels import ConfigError, Kernel, check_gelation
from .trees import LEAF, TreeShape, preorder, shape_node


@functools.cache
def _stream_key(seed: int, stream: int) -> int:
    """128-bit Philox key of one (seed, stream)."""
    from numpy.random import SeedSequence

    key = SeedSequence((seed, stream)).generate_state(2)
    return int(key[0]) << 64 | int(key[1])


def _index(name: str, value) -> int:
    """``value`` as an int, refusing a float or any other non-integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _replica_counter(replica: int) -> list:
    """Philox counter of replica * 2^128 as four uint64 words, low first."""
    replica = _index("replica", replica)
    if not 0 <= replica < 1 << 128:
        raise ValueError(f"replica index {replica} is outside [0, 2**128)")
    return [0, 0, replica & (1 << 64) - 1, replica >> 64]


def rng_for(seed: int, replica: int = 0, stream: int = 0) -> Generator:
    """Deterministic per-(seed, replica, stream) generator, scheduler independent.

    (seed, stream) fixes a Philox key; ``replica``, in [0, 2^128), starts
    the counter at replica * 2^128, which is ``Philox(key).jumped(replica)``.
    Replica streams start 2^128 Philox blocks apart, so they never overlap,
    and each depends only on these three numbers.  All three must be
    integers: a float such as 1.5 is refused with a ``TypeError``, not
    truncated.  It is one seating of a fresh ``replica_stream(seed,
    stream)``, so no later call reseats it.
    """
    return replica_stream(seed, stream)(replica)


def replica_stream(seed: int, stream: int) -> Callable[[int], Generator]:
    """``replica -> `` that replica's generator, from one reseated Philox.

    Each call reseats the one generator: counter replica * 2^128 and an empty
    buffer, as a fresh ``Philox`` starts.  That is a few times cheaper than
    building one, but a returned generator is valid only until the next call.
    """
    from numpy.random import Generator, Philox

    bitgen = Philox(key=_stream_key(_index("seed", seed), _index("stream", stream)))
    generator = Generator(bitgen)
    key = bitgen.state["state"]["key"].tolist()

    def at(replica: int) -> Generator:
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": _replica_counter(replica), "key": key},
                        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                        "has_uint32": 0, "uinteger": 0}
        return generator

    return at


@dataclass(frozen=True)
class SimConfig:
    masses: tuple  # initial masses; the particle count is their number
    kernel: Kernel
    horizon: float
    allow_gelation: bool = False
    rate_n: Optional[int] = None  # N in the K/N rate scaling if not len(masses)

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def n_eff(self) -> int:
        return self.rate_n if self.rate_n is not None else self.n

    @functools.cached_property
    def _sampler_start(self) -> tuple:
        """``simulate``'s initial state: the majorant state over the initial
        masses (a node of this config's majorant trie), the phi class of
        each mass met and of each phi value, and per class, in first-met
        order, its phi, its live ids (ascending) and the prefix sums of
        count x phi; then the mass of each node id, 0 past the leaves.
        Built once; runs copy the dicts and lists, and share the trie."""
        state = _MajorantState()
        seen, by_phi, phis, members = {}, {}, [], []
        mass = [float(x) for x in self.masses]
        for i, x in enumerate(mass):
            k = seen.get(x)
            if k is None:
                state = state.step(self.kernel, x)
                k = seen[x] = by_phi.setdefault(state.phi, len(phis))
                if k == len(phis):
                    phis.append(state.phi)
                    members.append([])
            members[k].append(i)
        cum = list(itertools.accumulate(map(operator.mul, map(len, members), phis)))
        return state, seen, by_phi, phis, members, cum, mass + [0.0] * (self.n - 1)

    @functools.cached_property
    def _shape_table(self) -> tuple:
        """``empirical_measure``'s interned shapes: the dict (child id,
        child id), smaller first -> shape id, and the list of ``TreeShape``s
        by id, the leaf's id 0.  Shared by this config's runs, so each shape
        is built once."""
        return {}, [LEAF]

    def __getstate__(self) -> dict:
        # the sampler start and the shape table are rebuilt on demand:
        # pickles leave them out
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_sampler_start", "_shape_table")}

    @classmethod
    def monodisperse(cls, n: int, kernel: Kernel, horizon: float, mass: float = 1.0,
                     **kw) -> "SimConfig":
        return cls((float(mass),) * n, kernel, horizon, **kw)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one particle")
        if not all(0.0 < m < math.inf for m in self.masses):
            raise ConfigError("masses must be positive and finite")
        if self.rate_n is not None and not 0 < self.rate_n < math.inf:
            raise ConfigError(f"rate_n must be positive and finite, got {self.rate_n!r}")
        if not self.horizon >= 0:
            raise ConfigError("horizon must be nonnegative")
        weights = np.full(self.n, 1.0 / self.n)
        check_gelation(self.kernel, np.asarray(self.masses), weights,
                       self.horizon, self.allow_gelation)


@dataclass(frozen=True)
class EventLog:
    config: SimConfig
    events: tuple  # (time, left, right) per merge; merge k creates node config.n + k
    proposals: Optional[int] = None  # thinning proposals; None for a log built by hand

    def __post_init__(self):
        times = list(map(operator.itemgetter(0), self.events))
        if any(map(operator.le, times[1:], times)):
            raise ValueError("event times must be strictly increasing")


# acceptance ratios at most this far above 1 are rounding in c * phi * phi,
# not a kernel above its majorant
RATIO_ROUNDING = 1e-12


def simulate(cfg: SimConfig, rng: Generator) -> EventLog:
    """Thinning sampler.

    Pairs are proposed from a majorant of the merge rates and each proposal
    is accepted with probability (true rate) / (majorant rate), so accepted
    pairs and times have exactly the law of the process.  With phi =
    ``kernel.phi``, S1 = sum of phi over the live clusters and phi_floor the
    least phi of any mass seen so far, proposals arrive at rate
    c * S1 * (S1 - phi_floor) / (2N).  A proposal draws its first cluster i
    with probability phi_i / S1 and its partner j with phi_j / (S1 - phi_i),
    and is accepted with probability

        2 K (S1 - phi_i) (S1 - phi_j)
        / [c phi_i phi_j (S1 - phi_floor) (2 S1 - phi_i - phi_j)].

    c is the running maximum of K(x, y) / (phi(x) phi(y)) over the pairs of
    masses seen so far, updated when a mass first appears, so the ratio is
    at most 1; a ratio above 1 (a kernel that disagrees with its own earlier
    values) raises ``ValueError``.  The acceptance uniform is read only when
    the ratio is below 1.  With the constant kernel every proposal is
    accepted, and each event reads three uniforms.

    Every uniform is the next double of ``rng.random``, read from a block
    that one ``rng.random(k)`` call fills, with k = min(max(16, 4N), 256);
    when fewer than 4 (the most a proposal reads) are left unread, they go
    before a new block.  The waiting time is Exp(1) as -log1p(-U), at most
    53 ln 2.  So the k-th uniform a run reads is the k-th double of
    ``rng.random`` whatever the block size, and a scalar view that draws
    one double per uniform reproduces the run bit for bit.

    The proposal reads only phi, so the live clusters are grouped by phi
    value: one class per distinct phi met, in first-met order, each with
    its live ids in a list.  cum[k] is the prefix sum of count x phi over
    classes 0..k, and S1 = cum[-1].  i's class is the first k with cum[k] >
    U S1, and its position in the class (target - cum[k - 1]) / phi_k,
    rounded down.  j is picked the same way from U' (S1 - phi_i), with phi_i
    taken off i's class and off every class after it, and i's position
    skipped inside i's class.  A position that rounding carries past its
    class's length is a rejection; a target never passes the last class,
    since U < 1 and fl(U s) < s for s > 0.  A merge swap-removes i and j
    from their lists (the larger position first in a shared class), appends
    the new id to its class and recomputes cum from the lowest class
    touched.  With one phi for every mass (the constant and inverse-sum
    kernels) there is one class; that refresh is the one cost that grows
    with the class count, so a run that meets thousands of distinct phi
    values pays up to thousands of steps per merge.

    The state at time 0 (the majorant over the initial masses and the
    classes) is built once per ``cfg``.  Each run works on its own copy of
    the classes and the masses.  The majorant state (c and phi_floor) after
    each sequence of masses met is memoised per ``cfg``: a trie keyed by
    the masses in the order met, whose nodes are built from the same kernel
    row as when each run built its own.  So a run never sees masses that
    another run created, and draws what it would have drawn alone.
    """
    kernel = cfg.kernel
    evaluate = kernel.evaluate
    log1p = math.log1p
    n0 = cfg.n
    size = 2 * n0 - 1  # merged clusters get new ids, up to size - 1
    state, seen, by_phi, phis, members, cum, mass = cfg._sampler_start
    seen, by_phi, phis, cum = seen.copy(), by_phi.copy(), phis.copy(), cum.copy()
    members, mass = [ids.copy() for ids in members], mass.copy()
    classes = len(phis)
    c, phi_floor = state.c, state.phi_floor
    rate_scale = 2.0 * cfg.n_eff
    horizon = cfg.horizon
    # the uniforms, read in order from blocks of rng.random; buf[pos] is the
    # next one, and a proposal reads at most 4.  Past 256 a larger block
    # saves under 5 ns a draw, and holds more memory and more unread draws
    block = min(max(16, 4 * n0), 256)
    buf, pos, end = [], 0, -4

    times, lefts, rights = [], [], []
    proposals = 0
    t = 0.0
    next_id = n0
    while next_id < size:  # two or more clusters alive
        s1 = cum[-1]
        scale = c * (s1 - phi_floor)
        total = scale * s1
        if not total > 0.0:
            break
        if pos > end:  # fewer than 4 unread: they go before a new block
            buf = buf[pos:] + rng.random(block).tolist()
            pos, end = 0, len(buf) - 4
        # Exp(1) as -log1p(-U), U < 1
        t += -log1p(-buf[pos]) * rate_scale / total
        if t > horizon:
            break
        proposals += 1
        # i: position p of class ci, the first class whose prefix sum
        # exceeds the target (some class does: the target is below s1)
        target = buf[pos + 1] * s1
        pos += 2
        ci = 0 if target < cum[0] else bisect_right(cum, target)
        below = cum[ci - 1] if ci else 0.0
        pi = phis[ci]
        ids = members[ci]
        p = int((target - below) / pi)
        if p >= len(ids):
            continue
        rest_i = s1 - pi
        # j: the same with phi_i off cum[ci:] and position p skipped
        target = buf[pos] * rest_i
        pos += 1
        if target < below:  # a class below i's
            cj = bisect_right(cum, target, 0, ci)
            base = cum[cj - 1] if cj else 0.0
        elif cum[ci] - pi > target:  # i's class
            cj, base = ci, below
        else:  # a class above i's
            cj = bisect_right(cum, target, ci + 1, key=lambda s: s - pi)
            base = cum[cj - 1] - pi
        pj = phis[cj]
        ids_j = members[cj]
        q = int((target - base) / pj)
        if cj == ci and q >= p:
            q += 1
        if q >= len(ids_j):
            continue
        i, j = ids[p], ids_j[q]
        mi, mj = mass[i], mass[j]
        rest_j = s1 - pj
        num = 2.0 * evaluate(mi, mj) * rest_i * rest_j
        den = scale * pi * pj * (rest_i + rest_j)
        if num < den:
            u = buf[pos]
            pos += 1
            if u * den >= num:
                continue
        elif not num <= den * (1.0 + RATIO_ROUNDING):
            raise ValueError(
                f"kernel {cfg.kernel.name!r} at masses ({mi!r}, {mj!r}) "
                f"is above the thinning majorant: acceptance ratio {num / den!r}")

        x = mi + mj
        cx = seen.get(x)
        if cx is None:  # a mass new to this run moves the majorant
            state = state.step(kernel, x)
            c, phi_floor = state.c, state.phi_floor
            cx = by_phi.get(state.phi)
            if cx is None:
                cx = by_phi[state.phi] = classes
                phis.append(state.phi)
                members.append([])
                cum.append(0.0)
                classes += 1
            seen[x] = cx
        # swap-remove i and j, in a shared class the larger position first
        if cj == ci and p < q:
            p, q = q, p
        ids[p] = ids[-1]
        ids.pop()
        ids_j[q] = ids_j[-1]
        ids_j.pop()
        members[cx].append(next_id)
        # cum again from the lowest class touched
        lo = ci if ci < cj else cj
        if cx < lo:
            lo = cx
        acc = cum[lo - 1] if lo else 0.0
        while lo < classes:
            acc += len(members[lo]) * phis[lo]
            cum[lo] = acc
            lo += 1
        times.append(t)
        if i < j:
            lefts.append(i)
            rights.append(j)
        else:
            lefts.append(j)
            rights.append(i)
        mass[next_id] = x
        next_id += 1
    return EventLog(cfg, tuple(zip(times, lefts, rights)), proposals)


class _MajorantState:
    """The thinning majorant after a run has met some masses, in some order.

    c = max K(x, y) / (phi(x) phi(y)) and phi_floor = min phi(x) over the
    masses x, y met so far.  ``mass`` is the last of them and ``phi`` its
    phi; the earlier ones are read back through ``parent``, so a state holds
    O(1) memory.  ``step(kernel, x)`` gives the state after a mass x not yet
    met, built on first use and kept in ``children``: the states of one
    config form a trie, shared by its runs.  Each state built costs one
    kernel row, so a trie never holds more states than the kernel rows its
    runs would have computed each on their own.
    """

    __slots__ = ("c", "phi_floor", "mass", "phi", "parent", "children")

    def __init__(self, c: float = 0.0, phi_floor: float = math.inf, mass=None,
                 phi=None, parent: Optional["_MajorantState"] = None):
        self.c, self.phi_floor = c, phi_floor
        self.mass, self.phi, self.parent = mass, phi, parent
        self.children = {}  # next new mass -> state

    def step(self, kernel: Kernel, x: float) -> "_MajorantState":
        child = self.children.get(x)
        if child is not None:
            return child
        p = float(kernel.phi(x))
        if not p > 0.0:
            raise ValueError(f"kernel {kernel.name!r} has phi({x!r}) = {p!r}; "
                             "the sampler needs phi > 0")
        masses, phis = [], []
        node = self
        while node.parent is not None:
            masses.append(node.mass)
            phis.append(node.phi)
            node = node.parent
        # the masses met, in that order, then x
        masses = np.array(masses[::-1] + [x], dtype=float)
        phis = np.array(phis[::-1] + [p], dtype=float)
        ratios = np.asarray(kernel.evaluate(x, masses), dtype=float) / (p * phis)
        largest = float(ratios.max())
        if not math.isfinite(largest):
            raise ValueError(f"kernel {kernel.name!r} gives K / (phi phi) = "
                             f"{largest!r} at mass {x!r}")
        child = _MajorantState(max(self.c, largest), min(self.phi_floor, p), x, p, self)
        self.children[x] = child
        return child


# ---------------------------------------------------------------------------
# empirical historical measure


@dataclass(frozen=True, eq=False, repr=False)
class EmpiricalHistoricalMeasure:
    """mu~_t^N: one atom per live cluster at time t, weight 1/N each.

    Stored flat, one entry per node id (leaves 0..N-1, then one node per
    event up to t): ``shape`` is an interned shape id (0 for a leaf; an
    internal node's id stands for the unordered pair of its children's ids,
    so equal ids are equal shapes, and ``shapes[id]`` is that
    ``TreeShape``) and ``mass`` the total mass.  Node v >= N is the merge
    in row v - N of the log's ``events``, which gives its time and
    children.  ``atoms`` lists the live clusters' node ids in ascending
    order.
    """

    weight: float  # 1/N
    atoms: tuple
    shape: list
    shapes: list  # TreeShape per shape id, shared by the runs of one SimConfig
    mass: list
    events: tuple  # the log's (time, left, right) rows
    n0: int  # N: the first internal node's id

    @property
    def total_weight(self) -> float:
        return self.weight * len(self.atoms)

    def total_mass(self) -> float:
        mass = self.mass
        return self.weight * sum(mass[i] for i in self.atoms)

    @functools.cached_property
    def _cells(self) -> tuple:
        """The distinct (shape id, mass) cells of the live atoms, in order of
        first appearance, each live atom's index among them, and each
        cell's atom positions (indices into ``atoms``), ascending."""
        index = {}
        atoms = self.atoms
        cells = zip(map(self.shape.__getitem__, atoms), map(self.mass.__getitem__, atoms))
        cell_of = [index.setdefault(cell, len(index)) for cell in cells]
        members = [[] for _ in index]
        for pos, k in enumerate(cell_of):
            members[k].append(pos)
        return tuple(index), cell_of, members

    def preorder_times(self, node: int) -> list:
        """Merge times under ``node`` in pre-order, the child with fewer
        leaves first: the order in which ``time_boxes`` lists its boxes.

        Of two children with equal leaf count, the canonical text (see
        ``trees.history_text``) writes first the one whose text sorts first;
        this takes the one with the smaller node id first.  A
        ``ShapeTimeBoxIndicator`` gives such siblings equal boxes, so either
        order gives it the same value.
        """
        events, n0, shapes, shape = self.events, self.n0, self.shapes, self.shape
        times = []
        stack = [node] if node >= n0 else []
        while stack:  # internal nodes only: a leaf child has no merge time
            time, a, b = events[stack.pop() - n0]
            times.append(time)
            if a < n0:
                if b >= n0:
                    stack.append(b)
            elif b < n0:
                stack.append(a)
            elif shapes[shape[a]].n_leaves > shapes[shape[b]].n_leaves:
                stack += (a, b)
            else:
                stack += (b, a)
        return times


def empirical_measure(log: EventLog, t: float) -> EmpiricalHistoricalMeasure:
    """mu~_t^N: the live clusters' histories at time ``t``, weight 1/N each.

    One pass over the events up to ``t``.
    """
    cfg = log.config
    if not t >= 0.0:
        raise ValueError(f"time {t} is not a nonnegative number")
    if t > cfg.horizon:
        raise ValueError(f"time {t} beyond simulated horizon {cfg.horizon}")
    n0 = cfg.n
    shape_ids, shapes = cfg._shape_table
    shape = [0] * n0
    mass = [float(x) for x in cfg.masses]
    alive = [True] * n0
    for time, i, j in log.events:
        if time > t:
            break
        a, b = shape[i], shape[j]
        key = (a, b) if a <= b else (b, a)
        s = shape_ids.get(key)
        if s is None:
            s = shape_ids[key] = len(shapes)
            shapes.append(shape_node(shapes[a], shapes[b]))
        shape.append(s)
        mass.append(mass[i] + mass[j])
        alive[i] = alive[j] = False
        alive.append(True)
    atoms = tuple(itertools.compress(range(len(alive)), alive))
    return EmpiricalHistoricalMeasure(1.0 / n0, atoms, shape, shapes, mass, log.events, n0)


def evaluate_functional(m: EmpiricalHistoricalMeasure, f: Callable) -> float:
    """<f, mu~_t^N> = (1/N) sum over atoms of f.

    ``f.time_boxes(shape, mass)`` is called once per distinct (shape id,
    mass) cell of the live atoms, and only the atoms of the cells with time
    boxes and c != 0 are visited, to read their merge times; no tree is
    built.  The values are summed with ``sum`` in live-id order.  An f
    without ``time_boxes`` raises ``TypeError``.
    """
    form = time_boxes_of(f)
    cells, cell_of, members = m._cells
    shapes, atoms, preorder_times = m.shapes, m.atoms, m.preorder_times
    forms = [form(shapes[s], x) for s, x in cells]
    values = list(map([c for c, _ in forms].__getitem__, cell_of))
    for k, (c, boxes) in enumerate(forms):
        if boxes is not None and c != 0.0:
            for pos in members[k]:
                if not _in_boxes(boxes, preorder_times(atoms[pos])):
                    values[pos] = 0.0
    return m.weight * sum(values)


# ---------------------------------------------------------------------------
# built-in tree functionals (picklable, usable with worker pools)
#
# A functional f declares itself by ``time_boxes(shape, mass)``: on the
# trees of ``shape`` with total mass ``mass``, f = c * prod_v 1[lo_v <= s_v
# <= hi_v] over the internal nodes v.  It returns ``(c, boxes)``, with one
# (lo, hi) per internal node in the shape's pre-order, or ``boxes`` None
# when f ignores the merge times.  Every built-in is of that form on every
# shape, and that declaration is all it defines: its value on the empirical
# measure and under the limit measure are both read from it.


def time_boxes_of(f: Callable) -> Callable:
    """``f.time_boxes``, or ``TypeError`` when f does not declare it."""
    try:
        return f.time_boxes
    except AttributeError:
        raise TypeError(f"{f!r} has no time_boxes(shape, mass): coagtree evaluates only "
                        "functionals of that protocol, such as the built-ins of "
                        "coagtree.simulate") from None


def _in_boxes(boxes: tuple, times) -> bool:
    for (lo, hi), s in zip(boxes, times):
        if not lo <= s <= hi:
            return False
    return True


@dataclass(frozen=True)
class ShapeIndicator:
    shape: TreeShape

    def time_boxes(self, shape: TreeShape, mass: float) -> tuple:
        return (1.0 if shape == self.shape else 0.0), None


@dataclass(frozen=True)
class ShapeTimeBoxIndicator:
    """Indicator of a shape with every merge time inside its box.

    Boxes are matched to internal nodes in pre-order over the canonical tree
    (parent before children, canonical child order).  A history orders two
    children of equal leaf count by its text, so by masses and times, not by
    shape; such sibling subtrees must carry the same boxes, or ``ValueError``.
    """

    shape: TreeShape
    boxes: tuple  # ((lo, hi), ...) per internal node

    def __post_init__(self):
        if len(self.boxes) != self.shape.n_leaves - 1:
            raise ValueError(
                f"need one (lo, hi) box per internal node: {self.shape!r} has "
                f"{self.shape.n_leaves - 1}, got {len(self.boxes)}")
        for lo, hi in self.boxes:
            if not lo <= hi:
                raise ValueError(f"time box ({lo}, {hi}) needs lo <= hi")
        boxes = self.boxes
        nodes = [v for v in preorder(self.shape) if not v.is_leaf]
        for i, v in enumerate(nodes):
            k = v.left.n_leaves - 1
            left, right = boxes[i + 1:i + 1 + k], boxes[i + 1 + k:i + 1 + 2 * k]
            if v.left.n_leaves == v.right.n_leaves and left != right:
                raise ValueError(f"internal node {i} has two {k + 1}-leaf subtrees, "
                                 f"which need the same boxes: got {left} and {right}")

    def time_boxes(self, shape: TreeShape, mass: float) -> tuple:
        return (1.0, self.boxes) if shape == self.shape else (0.0, None)


@dataclass(frozen=True)
class MassCutoff:
    """Ramp cutoff of the total mass: 1 on m <= M, linear to 0 on [M, M+1]."""

    M: float

    def __post_init__(self):
        if math.isnan(self.M):  # NaN fails both comparisons below: f read NaN on every tree
            raise ValueError(f"mass cutoff M must not be NaN, got {self.M!r}")

    def time_boxes(self, shape: TreeShape, mass: float) -> tuple:
        if mass <= self.M:
            return 1.0, None
        if mass >= self.M + 1.0:
            return 0.0, None
        return self.M + 1.0 - mass, None


@dataclass(frozen=True)
class FunctionalProduct:
    factors: tuple

    def time_boxes(self, shape: TreeShape, mass: float) -> tuple:
        c, boxes = 1.0, None
        for f in self.factors:
            fc, fboxes = time_boxes_of(f)(shape, mass)
            c *= fc
            if boxes is None:
                boxes = fboxes
            elif fboxes is not None:
                boxes = tuple((max(lo1, lo2), min(hi1, hi2))
                              for (lo1, hi1), (lo2, hi2) in zip(boxes, fboxes))
        return c, boxes


@dataclass(frozen=True)
class ConstantOne:
    def time_boxes(self, shape: TreeShape, mass: float) -> tuple:
        return 1.0, None
