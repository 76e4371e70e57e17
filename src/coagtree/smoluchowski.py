"""Mean-field coagulation equation on a discrete mass lattice.

Solves dc_k/dt = 1/2 sum_{i+j->k} K(x_i, x_j) c_i c_j - c_k sum_j K(x_k, x_j) c_j
for a finitely supported initial measure, and exposes the survival exponent
Lambda(y; s, t) = int_s^t sum_j K(y, x_j) c_j(r) dr used by the limit measure.
"""

from __future__ import annotations

import bisect
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .kernels import Kernel, check_gelation


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
        if (m <= 0).any():
            raise ValueError("masses must be positive")
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

    def weight_of(self, mass: float, atol: float = 1e-9) -> float:
        m = np.asarray(self.masses)
        hit = np.nonzero(np.isclose(m, mass, atol=atol, rtol=0.0))[0]
        if hit.size == 0:
            return 0.0
        return float(self.weights[hit[0]])


def _lattice(mu0: MassSpectrum, k_max: int) -> np.ndarray:
    """Closure of the initial masses under pairwise sums, capped at ``k_max`` points."""
    base = [float(m) for m in mu0.masses]
    if len(base) == 1:
        return base[0] * np.arange(1, k_max + 1, dtype=float)
    seen = set(base)
    frontier = list(base)
    while len(seen) < k_max and frontier:
        cur = sorted(seen)
        new = set()
        for a in cur:
            for b in base:
                s = a + b
                if s not in seen:
                    new.add(s)
        if not new:
            break
        for s in sorted(new):
            if len(seen) >= k_max:
                break
            seen.add(s)
        frontier = sorted(new)
    return np.array(sorted(seen)[:k_max])


class SolutionPath:
    """Dense-in-time solution of the mean-field equation on a fixed mass lattice.

    Values between grid times are piecewise linear; survival exponents are
    integrated exactly against that interpolation and cached per mass.
    """

    def __init__(self, masses: np.ndarray, times: np.ndarray, weights: np.ndarray,
                 kernel: Kernel, mu0: MassSpectrum, tol: float):
        self.masses = np.asarray(masses, dtype=float)
        self.times = np.asarray(times, dtype=float)
        self._grid = self.times.tolist()  # bisect on floats: cheap scalar lookups
        self.weights = np.asarray(weights, dtype=float)  # shape (n_times, n_masses)
        self.kernel = kernel
        self.mu0 = mu0
        self.tol = tol
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

    def weights_at(self, t: float) -> np.ndarray:
        k, a = self._locate(float(t))
        return (1 - a) * self.weights[k] + a * self.weights[k + 1]

    def spectrum_at(self, t: float) -> MassSpectrum:
        return MassSpectrum(tuple(self.masses), tuple(self.weights_at(t)))

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

    def cumulative_exponent(self, y: float, u: np.ndarray) -> np.ndarray:
        """G_y(u) = Lambda(y; 0, u) at every time of the array ``u``.

        The same exact integral of the interpolated g as
        :meth:`survival_exponent`: G_y is quadratic between grid times.
        """
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() >= 0.0 and u.max() <= self._grid[-1] + 1e-12):
            raise ValueError(f"times outside [0, {self.t_end}]")
        cum, g = self._g_cumulative(y)
        times = self.times
        k = np.clip(np.searchsorted(times, u, side="right") - 1, 0, len(times) - 2)
        t0 = times[k]
        a = (u - t0) / (times[k + 1] - t0)
        gu = (1 - a) * g[k] + a * g[k + 1]
        return cum[k] + 0.5 * (g[k] + gu) * (u - t0)


def _pair_index(masses: np.ndarray):
    """Index arrays (i, j, k) with x_i + x_j = x_k on the lattice, i <= j."""
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


def solve(mu0: MassSpectrum, kernel: Kernel, t_end: float, tol: float = 1e-8,
          k_max: int = 256, allow_gelation: bool = False,
          n_grid: int = 2001) -> SolutionPath:
    """Integrate the coagulation equation up to ``t_end``.

    Truncates to a ``k_max``-point sum-closed lattice; mass leaking past the
    lattice boundary is monitored and reported as a warning when it exceeds
    10 * tol. Refuses horizons inside the gelation window unless overridden.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    check_gelation(kernel, mu0.masses, mu0.weights, t_end, allow_gelation)

    masses = _lattice(mu0, k_max)
    n = len(masses)
    c0 = np.zeros(n)
    for m, w in zip(mu0.masses, mu0.weights):
        c0[np.searchsorted(masses, m)] = w

    kmat = kernel.matrix(masses)
    ii, jj, kk = _pair_index(masses)
    kij = kmat[ii, jj]
    half = np.where(ii == jj, 0.5, 1.0)  # unordered pairs; i == j counted once with 1/2

    def rhs(_t, c):
        pair = half * kij * c[ii] * c[jj]
        gain = np.bincount(kk, weights=pair, minlength=n)
        loss = c * (kmat @ c)
        return gain - loss

    times = np.linspace(0.0, t_end, n_grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            sol = solve_ivp(rhs, (0.0, t_end), c0, method="RK45", t_eval=times,
                            rtol=tol, atol=tol * 1e-2, dense_output=False)
        except (RuntimeWarning, FloatingPointError) as e:
            raise SolverError(f"integration blew up before t={t_end}: {e}") from e
    if not sol.success:
        raise SolverError(f"integration failed: {sol.message}")

    weights = sol.y.T.copy()
    total0 = float(np.sum(c0 * masses))
    total_end = float(np.sum(weights[-1] * masses))
    leak = total0 - total_end
    if leak > 10 * tol * max(total0, 1.0):
        warnings.warn(
            f"mass {leak:.3e} left the {n}-point lattice by t={t_end}; "
            "increase k_max for tighter tails", stacklevel=2)
    return SolutionPath(masses, times, weights, kernel, mu0, tol)


def constant_kernel_weights(t: float, k: np.ndarray) -> np.ndarray:
    """Closed form for the constant kernel from monodisperse unit data:
    c_k(t) = (t/2)^(k-1) / (1 + t/2)^(k+1)."""
    k = np.asarray(k)
    return (t / 2.0) ** (k - 1) / (1.0 + t / 2.0) ** (k + 1)
