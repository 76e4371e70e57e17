"""Mean-field coagulation equation on a discrete mass lattice.

Solves dc_k/dt = 1/2 sum_{i+j->k} K(x_i, x_j) c_i c_j - c_k sum_j K(x_k, x_j) c_j
for a finitely supported initial measure, and exposes the survival exponent
Lambda(y; s, t) = int_s^t sum_j K(y, x_j) c_j(r) dr used by the limit measure.

The lattice is exact.  Every initial mass is read as the closest fraction
p/d with d <= ``MAX_DENOMINATOR`` (times 10^k for a mass in [10^-k, 10^(1-k))
below 1, so small units read alike), which must give the mass back to within
``MASS_RTOL`` relative; the largest q with every mass an integer multiple of
q is the mass quantum.  Masses with no such fraction (say 1 and sqrt 2) are
refused with :class:`ConfigError`.  The lattice holds the ``k_max`` smallest
sums of initial masses as integer units of q, and its float masses are the
correctly rounded units * q, so 0.1 + 0.7 and 0.7 + 0.1 are one point.
"""

from __future__ import annotations

import bisect
import heapq
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.integrate import RK45

from .kernels import ConfigError, Kernel, KernelError, check_gelation

# largest denominator of a mass read as a fraction, and how closely that
# fraction must give the float mass back
MAX_DENOMINATOR = 10**6
MASS_RTOL = 1e-14


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class MassSpectrum:
    """Finitely supported mass measure: sorted distinct masses with weights."""

    masses: tuple
    weights: tuple

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if m.size == 0 or m.size != w.size:
            raise ValueError("need matching nonempty masses and weights")
        if not (np.isfinite(m) & (m > 0)).all():
            raise ValueError("masses must be positive and finite")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        if (np.diff(m) <= 0).any():
            raise ValueError("masses must be sorted and distinct")

    @classmethod
    def monodisperse(cls, mass: float = 1.0, weight: float = 1.0) -> "MassSpectrum":
        return cls((float(mass),), (float(weight),))

    @classmethod
    def from_pairs(cls, pairs) -> "MassSpectrum":
        pairs = sorted((float(m), float(w)) for m, w in pairs)
        ms = tuple(m for m, _ in pairs)
        ws = tuple(w for _, w in pairs)
        return cls(ms, ws)

    def moment(self, p: float = 0.0) -> float:
        m = np.asarray(self.masses)
        w = np.asarray(self.weights)
        return float(np.sum(w * m ** p))

    def weight_of(self, mass: float) -> float:
        """Weight of the atom nearest ``mass``, if within ``MASS_RTOL`` of it
        relative; else 0.0."""
        m = self.masses
        k = bisect.bisect_left(m, mass)
        near = min((j for j in (k - 1, k) if 0 <= j < len(m)),
                   key=lambda j: abs(m[j] - mass))
        if abs(m[near] - mass) > MASS_RTOL * m[near]:
            return 0.0
        return float(self.weights[near])


def _fraction(mass: float) -> Fraction:
    """``mass`` read as a fraction (see the module), or ConfigError."""
    scale = 10 ** max(0, -math.floor(math.log10(mass)))
    f = (Fraction(float(mass)) * scale).limit_denominator(MAX_DENOMINATOR) / scale
    if not f > 0 or abs(float(f) - mass) > MASS_RTOL * mass:
        raise ConfigError(
            f"mass {mass!r} is no fraction p/d with d <= {MAX_DENOMINATOR * scale} "
            f"(within {MASS_RTOL:g} relative), so the masses have no common quantum")
    return f


def mass_quantum(masses) -> Fraction:
    """The largest q with every mass an integer multiple of q (see the module)."""
    fracs = [_fraction(m) for m in masses]
    den = math.lcm(*(f.denominator for f in fracs))
    return Fraction(math.gcd(*(f.numerator * (den // f.denominator) for f in fracs)), den)


def _lattice(atoms: list, k_max: int) -> np.ndarray:
    """The ``k_max`` smallest sums of one or more ``atoms`` (integers), ascending."""
    heap = sorted(set(atoms))
    seen = set(heap)
    out = []
    while heap and len(out) < k_max:
        s = heapq.heappop(heap)
        out.append(s)
        for a in atoms:
            if s + a not in seen:
                seen.add(s + a)
                heapq.heappush(heap, s + a)
    if out[-1] >= 1 << 62:
        raise ConfigError("mass lattice units overflow 64-bit integers")
    return np.array(out, dtype=np.int64)


def _unit_masses(units: np.ndarray, quantum: Fraction) -> np.ndarray:
    """The correctly rounded floats units * quantum."""
    num, den = quantum.numerator, quantum.denominator
    return np.array([u * num / den for u in units.tolist()])


# the solver's absolute tolerance, per unit of its relative tolerance ``tol``
ATOL_PER_TOL = 1e-2


class SolutionPath:
    """Dense-in-time solution of the mean-field equation on a fixed mass lattice.

    Values between grid times are piecewise linear; survival exponents are
    integrated exactly against that interpolation and cached per mass.
    """

    def __init__(self, units: np.ndarray, quantum: Fraction, times: np.ndarray,
                 weights: np.ndarray, kernel: Kernel, mu0: MassSpectrum, tol: float,
                 leak: float, steps: int, nfev: int):
        self.units = np.asarray(units, dtype=np.int64)  # lattice masses / quantum
        self.quantum = quantum
        self.masses = _unit_masses(self.units, quantum)
        self.times = np.asarray(times, dtype=float)
        self._grid = self.times.tolist()  # bisect on floats: cheap scalar lookups
        self.weights = np.asarray(weights, dtype=float)  # shape (n_times, n_masses)
        self.kernel = kernel
        self.mu0 = mu0
        self.tol = tol
        self.leak = leak  # mass off the lattice at t_end, relative to the start
        self.steps = steps  # accepted solver steps
        self.nfev = nfev  # right-hand side evaluations
        self._lambda_cache: dict[float, np.ndarray] = {}

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def _locate(self, t: float) -> tuple:
        """Grid interval (k, a) holding ``t``: t = (1 - a) * times[k] + a * times[k + 1]."""
        grid = self._grid
        if not 0.0 <= t <= grid[-1] + 1e-12:
            raise ValueError(f"time {t} outside [0, {self.t_end}]")
        k = min(max(bisect.bisect_right(grid, t) - 1, 0), len(grid) - 2)
        t0, t1 = grid[k], grid[k + 1]
        return k, 0.0 if t1 == t0 else (t - t0) / (t1 - t0)

    def unit_of(self, mass: float) -> int:
        """``mass`` in integer units of the quantum; ValueError when not a multiple."""
        u = _fraction(mass) / self.quantum
        if u.denominator != 1:
            raise ValueError(f"mass {mass!r} is not a multiple of the quantum {self.quantum}")
        return u.numerator

    def weights_at(self, t: float) -> np.ndarray:
        k, a = self._locate(float(t))
        return (1 - a) * self.weights[k] + a * self.weights[k + 1]

    def spectrum_at(self, t: float) -> MassSpectrum:
        """The weights at ``t`` as a spectrum.  The solver keeps each weight
        only to within its absolute tolerance, so far out on the lattice it
        can leave tiny negatives: those no larger than that tolerance read as
        0.0, and anything more negative still raises ``ValueError``."""
        w = self.weights_at(t)
        w[(w < 0.0) & (w >= -ATOL_PER_TOL * self.tol)] = 0.0
        return MassSpectrum(tuple(self.masses), tuple(w))

    def moment(self, p: float, t: float) -> float:
        return float(np.sum(self.weights_at(t) * self.masses ** p))

    def _g_cumulative(self, y: float) -> np.ndarray:
        """Cumulative integral of g(r) = sum_j K(y, x_j) c_j(r) on the time grid."""
        y = float(y)
        cum = self._lambda_cache.get(y)
        if cum is None:
            ky = np.asarray(self.kernel.evaluate(y, self.masses), dtype=float)
            g = self.weights @ ky
            dt = np.diff(self.times)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (g[:-1] + g[1:]) * dt)])
            self._lambda_cache[y] = (cum, g)
        return self._lambda_cache[y]

    def survival_exponent(self, y: float, s: float, t: float) -> float:
        """Lambda(y; s, t) = int_s^t sum_j K(y, x_j) c_j(r) dr, 0 <= s <= t <= t_end."""
        if t < s:
            raise ValueError("need s <= t")
        cum, g = self._g_cumulative(y)

        def upto(u: float) -> float:
            k, a = self._locate(u)
            gu = (1 - a) * g[k] + a * g[k + 1]
            return float(cum[k] + 0.5 * (g[k] + gu) * (u - self._grid[k]))

        return upto(float(t)) - upto(float(s))

    def cumulative_exponents(self, u: np.ndarray) -> Callable:
        """The function y -> G_y(u) = Lambda(y; 0, u) at every time of ``u``.

        The same exact integral of the interpolated g as
        :meth:`survival_exponent`: G_y is quadratic between grid times.
        Every mass shares the grid lookup of ``u``.
        """
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() >= 0.0 and u.max() <= self._grid[-1] + 1e-12):
            raise ValueError(f"times outside [0, {self.t_end}]")
        times = self.times
        k = np.clip(np.searchsorted(times, u, side="right") - 1, 0, len(times) - 2)
        t0 = times[k]
        a = (u - t0) / (times[k + 1] - t0)
        offset = u - t0

        def exponent(y: float) -> np.ndarray:
            cum, g = self._g_cumulative(y)
            gk = g[k]
            gu = (1 - a) * gk + a * g[k + 1]
            return cum[k] + 0.5 * (gk + gu) * offset

        return exponent


def _pair_index(units: np.ndarray):
    """Index arrays (i, j, k) with u_i + u_j = u_k on the lattice, i <= j, in
    row-major (i, j) order."""
    n = len(units)
    # row i holds the j in [i, stop_i) whose sums stay within the lattice's range
    counts = np.maximum(np.searchsorted(units, units[-1] - units, side="right")
                        - np.arange(n), 0)
    ii = np.repeat(np.arange(n), counts)
    jj = ii + np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts, counts)
    sums = units[ii] + units[jj]
    kk = np.searchsorted(units, sums)
    hit = units[kk] == sums
    return ii[hit], jj[hit], kk[hit]


def solve(mu0: MassSpectrum, kernel: Kernel, t_end: float, tol: float = 1e-8,
          k_max: int = 256, allow_gelation: bool = False,
          n_grid: int = 2001) -> SolutionPath:
    """Integrate the coagulation equation up to ``t_end``.

    Truncates to the lattice of the ``k_max`` smallest sums of initial masses
    (see the module), and raises :class:`ConfigError` for masses with no common
    quantum or an initial mass beyond that lattice.  The mass that leaks past
    the lattice by ``t_end`` is kept on the path as ``leak``, relative to the
    initial mass, and warned about when it exceeds 10 * tol. Refuses horizons
    inside the gelation window unless overridden, and a kernel with a
    non-finite entry on the lattice with :class:`KernelError`.  A horizon
    that is not positive and finite, ``k_max < 1`` and ``tol <= 0`` are
    refused with :class:`ConfigError`.

    RK45 (rtol ``tol``, atol ``ATOL_PER_TOL * tol``) steps to ``t_end``; after
    each accepted step, the ``n_grid`` equally spaced times that the step
    covers are read from its interpolant into their rows of the weights, as
    ``solve_ivp`` with ``t_eval`` would.  The path keeps the accepted steps
    and right-hand-side evaluations as ``steps`` and ``nfev``.
    """
    if not 0 < t_end < math.inf:
        raise ConfigError(f"t_end must be positive and finite, got {t_end!r}")
    if k_max < 1:
        raise ConfigError(f"k_max must be at least 1, got {k_max!r}")
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol!r}")
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
    bad = np.argwhere(~np.isfinite(kmat))
    if len(bad):
        i, j = bad[0]
        raise KernelError(f"kernel {kernel.name!r} gives {float(kmat[i, j])!r} at "
                          f"masses ({float(masses[i])!r}, {float(masses[j])!r})")
    ii, jj, kk = _pair_index(units)
    # unordered pairs; i == j counted once with 1/2
    half_k = np.where(ii == jj, 0.5, 1.0) * kmat[ii, jj]
    # the pairs are in row-major order, so c[ii] is c repeated per row
    per_row = np.bincount(ii, minlength=n)
    pair = np.empty(len(ii))

    def rhs(_t, c):
        np.multiply(half_k, np.repeat(c, per_row), out=pair)
        np.multiply(pair, c.take(jj), out=pair)
        gain = np.bincount(kk, weights=pair, minlength=n)
        loss = c * (kmat @ c)
        return gain - loss

    times = np.linspace(0.0, t_end, n_grid)
    weights = np.empty((n_grid, n))
    filled = steps = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            solver = RK45(rhs, 0.0, c0, float(t_end), rtol=tol, atol=ATOL_PER_TOL * tol)
            while solver.status == "running":
                message = solver.step()
                if solver.status == "failed":
                    raise SolverError(f"integration failed: {message}")
                steps += 1
                # the grid times this step covers, read from its interpolant
                upto = int(np.searchsorted(times, solver.t, side="right"))
                if upto > filled:
                    weights[filled:upto] = solver.dense_output()(times[filled:upto]).T
                    filled = upto
        except (RuntimeWarning, FloatingPointError) as e:
            raise SolverError(f"integration blew up before t={t_end}: {e}") from e
    assert filled == n_grid, "the solver stopped short of the last grid time"

    total0 = float(np.sum(c0 * masses))
    total_end = float(np.sum(weights[-1] * masses))
    leak = total0 - total_end
    if leak > 10 * tol * max(total0, 1.0):
        warnings.warn(
            f"mass {leak:.3e} left the {n}-point lattice by t={t_end}; "
            "increase k_max for tighter tails", stacklevel=2)
    return SolutionPath(units, quantum, times, weights, kernel, mu0, tol,
                        leak / total0 if total0 > 0 else 0.0, steps, solver.nfev)


def constant_kernel_weights(t: float, k: np.ndarray) -> np.ndarray:
    """Closed form for the constant kernel from monodisperse unit data:
    c_k(t) = (t/2)^(k-1) / (1 + t/2)^(k+1)."""
    k = np.asarray(k)
    return (t / 2.0) ** (k - 1) / (1.0 + t / 2.0) ** (k + 1)
