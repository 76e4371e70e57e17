"""Stochastic coagulation with full merger-history recording.

Two constructions of the same process (pairwise merge rate K(x, y)/N):

* ``simulate_direct`` - jump-chain sampling with incrementally maintained
  per-cluster rate sums, O(#clusters) work per event, usable to N ~ 10^5.
* ``simulate_coupled`` - the exponential-clock family S_{i,j} =
  max(S_i, S_j) + (N / K(y_i, y_j)) U with i.i.d. unit exponentials U
  attached to labeled trees, materialized lazily; tiny N only.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

from .kernels import Kernel, check_gelation
from .trees import (
    HistoricalTree,
    TreeShape,
    hist_leaf,
    hist_node,
    preorder,
)


def rng_for(seed: int, replica: int = 0, stream: int = 0) -> Generator:
    """Deterministic per-(seed, replica, stream) generator, scheduler independent."""
    key = SeedSequence((int(seed), int(stream))).generate_state(2)
    return Generator(Philox(key=int(key[0]) << 64 | int(key[1])).jumped(replica))


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    n: int
    masses: tuple
    kernel: Kernel
    horizon: float
    seed: int = 0
    construction: str = "direct"
    replica: int = 0
    allow_gelation: bool = False
    rate_n: Optional[int] = None  # N in the K/N rate scaling if not len(masses)

    @property
    def n_eff(self) -> int:
        return self.rate_n if self.rate_n is not None else self.n

    @classmethod
    def monodisperse(cls, n: int, kernel: Kernel, horizon: float, mass: float = 1.0,
                     **kw) -> "SimConfig":
        return cls(n, (float(mass),) * n, kernel, horizon, **kw)

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError("need at least one particle")
        if len(self.masses) != self.n:
            raise ConfigError(f"expected {self.n} masses, got {len(self.masses)}")
        if any(m <= 0 for m in self.masses):
            raise ConfigError("masses must be positive")
        if self.construction not in ("direct", "coupled"):
            raise ConfigError(f"unknown construction {self.construction!r}")
        if self.construction == "coupled" and self.n > 12:
            raise ConfigError("coupled construction is limited to N <= 12")
        if not self.horizon >= 0:
            raise ConfigError("horizon must be nonnegative")
        weights = np.full(self.n, 1.0 / self.n)
        check_gelation(self.kernel, np.asarray(self.masses), weights,
                       self.horizon, self.allow_gelation)


@dataclass(frozen=True)
class Event:
    time: float
    left: int   # node id consumed
    right: int  # node id consumed
    node: int   # node id created


@dataclass(frozen=True)
class EventLog:
    config: SimConfig
    events: tuple

    def __post_init__(self):
        times = [e.time for e in self.events]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("event times must be strictly increasing")

    def n_events(self, t: Optional[float] = None) -> int:
        if t is None:
            return len(self.events)
        return bisect.bisect_right([e.time for e in self.events], t)


def simulate(cfg: SimConfig, rng: Optional[Generator] = None) -> EventLog:
    if cfg.construction == "coupled":
        return simulate_coupled(cfg, rng)
    return simulate_direct(cfg, rng)


def simulate_direct(cfg: SimConfig, rng: Optional[Generator] = None) -> EventLog:
    """Jump-chain sampler.

    Maintains per-cluster rate sums R_i = sum_{j != i} K(m_i, m_j); total
    event rate is sum_i R_i / (2N).  The first cluster of a merging pair is
    drawn proportionally to R_i, the partner proportionally to K(m_i, m_j).
    """
    if rng is None:
        rng = rng_for(cfg.seed, cfg.replica)
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
        events.append(Event(t, int(ids[a]), int(ids[b]), next_id))

        # rate update: every other cluster swaps its (a, b) terms for the merger
        ka = np.asarray(kernel.evaluate(m, m[a]), dtype=float)
        kb = np.asarray(kernel.evaluate(m, m[b]), dtype=float)
        knew = np.asarray(kernel.evaluate(m, new_mass), dtype=float)
        r += knew - ka - kb
        keep = np.ones(len(m), dtype=bool)
        keep[a] = keep[b] = False
        m = np.append(m[keep], new_mass)
        ids = np.append(ids[keep], next_id)
        r = np.append(r[keep], 0.0)
        r[-1] = float(np.asarray(kernel.evaluate(new_mass, m[:-1]), dtype=float).sum())
        next_id += 1
    return EventLog(cfg, tuple(events))


def simulate_coupled(cfg: SimConfig, rng: Optional[Generator] = None) -> EventLog:
    """Coupled exponential-clock construction.

    Each candidate merged labeled tree {i, j} carries a clock
    S = max(S_i, S_j) + (N / K(y_i, y_j)) * U with U ~ Exp(1), memoized by the
    tree's canonical label key.  Clocks are drawn lazily, in sorted key order,
    so only trees reachable from the realized trajectory are materialized.
    """
    if rng is None:
        rng = rng_for(cfg.seed, cfg.replica)
    if cfg.n > 12:
        raise ConfigError("coupled construction is limited to N <= 12")
    kernel = cfg.kernel
    n0 = cfg.n

    # live entries: (label key, node id, S birth time, tree)
    live = [(str(i), i, 0.0, hist_leaf(cfg.masses[i], label=i)) for i in range(n0)]
    clocks: dict[str, float] = {}
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
        events.append(Event(s, ia, ib, next_id))
        merged = (best[0], next_id, s, hist_node(s, ta, tb))
        live = [live[k] for k in range(len(live)) if k not in (x, y)]
        live.append(merged)
        next_id += 1
    return EventLog(cfg, tuple(events))


# ---------------------------------------------------------------------------
# empirical historical measure


@dataclass(frozen=True)
class EmpiricalHistoricalMeasure:
    atoms: tuple  # HistoricalTree per live cluster
    weight: float  # 1/N

    @property
    def total_weight(self) -> float:
        return self.weight * len(self.atoms)

    def total_mass(self) -> float:
        return self.weight * sum(tree.mass for tree in self.atoms)


def empirical_measure(log: EventLog, t: float) -> EmpiricalHistoricalMeasure:
    """mu~_t^N: the live clusters' histories at time ``t``, weight 1/N each."""
    if t > log.config.horizon:
        raise ValueError(f"time {t} beyond simulated horizon {log.config.horizon}")
    trees = {i: hist_leaf(m, label=i) for i, m in enumerate(log.config.masses)}
    for e in log.events:
        if e.time > t:
            break
        trees[e.node] = hist_node(e.time, trees.pop(e.left), trees.pop(e.right))
    return EmpiricalHistoricalMeasure(tuple(trees.values()), 1.0 / log.config.n)


def evaluate_functional(m: EmpiricalHistoricalMeasure, f: Callable) -> float:
    """<f, mu~_t^N> = (1/N) sum over atoms of f."""
    return m.weight * sum(f(tree) for tree in m.atoms)


# ---------------------------------------------------------------------------
# built-in tree functionals (picklable, usable with worker pools)
#
# Each also has ``time_boxes(shape, masses)``: on the trees of ``shape`` with
# these leaf masses (left to right), f = c * prod_v 1[lo_v <= s_v <= hi_v]
# over the internal nodes v.  It returns ``(c, boxes)``, with one (lo, hi) per
# internal node in the shape's pre-order, or ``boxes`` None when f ignores the
# merge times; or None when f is not of that form there.  The limit measure
# integrates such f recursively.


@dataclass(frozen=True)
class ShapeIndicator:
    shape: TreeShape

    def __call__(self, tree: HistoricalTree) -> float:
        return 1.0 if tree.shape == self.shape else 0.0

    def time_boxes(self, shape: TreeShape, masses) -> tuple:
        return (1.0 if shape == self.shape else 0.0), None


@dataclass(frozen=True)
class ShapeTimeBoxIndicator:
    """Indicator of a shape with every merge time inside its box.

    Boxes are matched to internal nodes in pre-order over the canonical tree
    (parent before children, canonical child order).
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

    @property
    def time_breakpoints(self) -> tuple:
        # discontinuity locations, used by the limit quadrature
        return tuple(b for box in self.boxes for b in box)

    def __call__(self, tree: HistoricalTree) -> float:
        if tree.shape != self.shape:
            return 0.0
        times = [v.time for v, _ in preorder(tree) if not v.is_leaf]
        for (lo, hi), s in zip(self.boxes, times):
            if not lo <= s <= hi:
                return 0.0
        return 1.0

    def time_boxes(self, shape: TreeShape, masses):
        if shape != self.shape:
            return 0.0, None
        # A history orders two children of equal leaf count by its text, so
        # by masses and times, not by shape.  The boxes belong to the shape's
        # nodes only when both such children carry the same boxes.
        boxes = self.boxes
        nodes = [v for v, _ in preorder(shape) if not v.is_leaf]
        for i, v in enumerate(nodes):
            k = v.left.n_leaves - 1
            if v.left.n_leaves == v.right.n_leaves and \
                    boxes[i + 1:i + 1 + k] != boxes[i + 1 + k:i + 1 + 2 * k]:
                return None
        return 1.0, boxes


@dataclass(frozen=True)
class MassCutoff:
    """Ramp cutoff of the total mass: 1 on m <= M, linear to 0 on [M, M+1]."""

    M: float

    def __call__(self, tree: HistoricalTree) -> float:
        return self._ramp(tree.mass)

    def _ramp(self, x: float) -> float:
        if x <= self.M:
            return 1.0
        if x >= self.M + 1.0:
            return 0.0
        return self.M + 1.0 - x

    def time_boxes(self, shape: TreeShape, masses) -> tuple:
        return self._ramp(sum(masses)), None


@dataclass(frozen=True)
class FunctionalProduct:
    factors: tuple

    @property
    def time_breakpoints(self) -> tuple:
        return tuple(b for f in self.factors for b in getattr(f, "time_breakpoints", ()))

    def __call__(self, tree: HistoricalTree) -> float:
        out = 1.0
        for f in self.factors:
            out *= f(tree)
            if out == 0.0:
                return 0.0
        return out

    def time_boxes(self, shape: TreeShape, masses):
        c, boxes = 1.0, None
        for f in self.factors:
            form = getattr(f, "time_boxes", None)
            form = form(shape, masses) if form is not None else None
            if form is None:
                return None
            c *= form[0]
            if boxes is None:
                boxes = form[1]
            elif form[1] is not None:
                boxes = tuple((max(lo1, lo2), min(hi1, hi2))
                              for (lo1, hi1), (lo2, hi2) in zip(boxes, form[1]))
        return c, boxes


@dataclass(frozen=True)
class ConstantOne:
    def __call__(self, tree: HistoricalTree) -> float:
        return 1.0

    def time_boxes(self, shape: TreeShape, masses) -> tuple:
        return 1.0, None
