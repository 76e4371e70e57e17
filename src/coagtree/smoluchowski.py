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

The time stepper is the Dormand-Prince 5(4) pair with Shampine's quartic
dense output and the step control of Hairer, Norsett & Wanner (Solving
ODEs I, II.4), in numpy: it takes scipy's ``RK45`` steps float for float,
so the module, like the package, imports numpy and no scipy.
"""

from __future__ import annotations

import bisect
import heapq
import math
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

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
    def monodisperse(cls) -> "MassSpectrum":
        """Unit mass with unit weight."""
        return cls((1.0,), (1.0,))

    @classmethod
    def from_pairs(cls, pairs) -> "MassSpectrum":
        pairs = sorted((float(m), float(w)) for m, w in pairs)
        ms = tuple(m for m, _ in pairs)
        ws = tuple(w for _, w in pairs)
        return cls(ms, ws)

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
    """Solution of the mean-field equation on a fixed mass lattice: the
    solver's accepted steps with their quartic dense output, the one rule
    for the weights at a time.

    Step i runs from ``ends[i]`` to ``ends[i + 1]``, and at x = (t - ends[i])
    / h its weights are y_old[i] + h * q[i] @ (x, x^2, x^3, x^4), as scipy's
    ``RkDenseOutput`` holds them.  The survival exponent G_y(u) = Lambda(y;
    0, u) is that rule's exact integral, a quintic per step, cumulated at
    the step ends and cached per mass; Lambda(y; s, t) is G_y(t) - G_y(s).
    Every time is placed in its step by :meth:`_locate`.
    """

    def __init__(self, units: np.ndarray, quantum: Fraction, ends: np.ndarray,
                 y_old: np.ndarray, q: np.ndarray, kernel: Kernel, tol: float,
                 nfev: int):
        self.units = np.asarray(units, dtype=np.int64)  # lattice masses / quantum
        self.quantum = quantum
        self.masses = _unit_masses(self.units, quantum)
        self.ends = np.asarray(ends, dtype=float)  # shape (n_steps + 1,)
        self.y_old = np.asarray(y_old, dtype=float)  # shape (n_steps, n_masses)
        self.q = np.asarray(q, dtype=float)  # shape (n_steps, n_masses, 4)
        self.steps = len(self.y_old)  # accepted solver steps
        self.t_end = float(self.ends[-1])
        self.kernel = kernel
        self.tol = tol
        self.leak = 0.0  # mass off the lattice at t_end relative to the start; solve sets it
        self.nfev = nfev  # right-hand side evaluations
        self._rates: dict[float, tuple] = {}

    def _locate(self, u) -> tuple:
        """Steps (k, x, u - ends[k]) of the times ``u``, an array:
        u = ends[k] + x * (ends[k + 1] - ends[k]).  A time outside [0, t_end]
        (up to 1e-12 past the end) or NaN raises ``ValueError``."""
        u = np.asarray(u, dtype=float)
        ends = self.ends
        inside = (u >= 0.0) & (u <= ends[-1] + 1e-12)
        if not inside.all():
            raise ValueError(f"time {u[~inside].flat[0]} outside [0, {self.t_end}]")
        k = np.clip(np.searchsorted(ends, u, side="right") - 1, 0, len(ends) - 2)
        t0 = ends[k]
        offset = u - t0
        return k, offset / (ends[k + 1] - t0), offset

    def unit_of(self, mass: float) -> int:
        """``mass`` in integer units of the quantum; ValueError when not a multiple."""
        u = _fraction(mass) / self.quantum
        if u.denominator != 1:
            raise ValueError(f"mass {mass!r} is not a multiple of the quantum {self.quantum}")
        return u.numerator

    def weights_at(self, t: float) -> np.ndarray:
        """The weights at ``t``, from its step's interpolant op for op as
        ``RkDenseOutput`` evaluates it."""
        k, x, _ = self._locate(float(t))
        p = np.cumprod(np.tile(x, self.q.shape[2]))
        return (self.ends[k + 1] - self.ends[k]) * np.dot(self.q[k], p) + self.y_old[k]

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

    def _rate(self, y: float) -> tuple:
        """``(cum, coef)``: G_y at the step ends, and per step G_y(ends[k] + x h)
        - cum[k] = x h * coef[k] @ (1, x, x^2, x^3, x^4)."""
        y = float(y)
        got = self._rates.get(y)
        if got is None:
            ky = np.asarray(self.kernel.evaluate(y, self.masses), dtype=float)
            h = np.diff(self.ends)
            # the rate's h * x^j term integrates to h^2 x^(j+1) / (j+1)
            coef = np.column_stack([self.y_old @ ky, (ky @ self.q) * (
                h[:, None] / np.arange(2, self.q.shape[2] + 2))])
            cum = np.concatenate(([0.0], np.cumsum(h * coef.sum(axis=1))))
            got = self._rates[y] = (cum, coef)
        return got

    def survival_exponent(self, y: float, s: float, t: float) -> float:
        """Lambda(y; s, t) = int_s^t sum_j K(y, x_j) c_j(r) dr, 0 <= s <= t <= t_end,
        as G_y(t) - G_y(s) from :meth:`cumulative_exponents`."""
        if t < s:
            raise ValueError("need s <= t")
        G = self.cumulative_exponents((s, t))(y)
        return float(G[1] - G[0])

    def cumulative_exponents(self, u: np.ndarray) -> Callable:
        """The function y -> G_y(u) = Lambda(y; 0, u) at every time of ``u``.

        G_y is the exact integral of the rate that the interpolated weights
        give, a quintic in each step.  Every mass shares the step lookup of
        ``u``.
        """
        k, x, offset = self._locate(u)
        powers = x[..., None] ** np.arange(self.q.shape[2] + 1)

        def exponent(y: float) -> np.ndarray:
            cum, coef = self._rate(y)
            return cum[k] + offset * np.sum(coef[k] * powers, axis=-1)

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


# The Dormand-Prince 5(4) pair (Dormand & Prince 1980): nodes C, stages A,
# fifth-order weights B, error weights E (fifth minus fourth order, with the
# FSAL stage last), and Shampine's (1986) quartic dense output P, as
# scipy.integrate.RK45 holds them
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# step-size control (Hairer, Norsett & Wanner, Solving ODEs I, II.4): the
# new step is h * SAFETY * err^(-1/5), the factor kept within [MIN, MAX]
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / 5
# smallest relative tolerance the stepper takes, as RK45 clamps it
_RTOL_FLOOR = 100 * sys.float_info.epsilon


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, rtol, atol) -> float:
    """Hairer, Norsett & Wanner's starting step from t = 0 (Solving ODEs I, II.4)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    d2 = _rms((fun(h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, t_bound)


def _dopri45(fun, y, t_bound, rtol, atol):
    """Dormand-Prince 5(4) steps of y' = fun(t, y) from t = 0 to ``t_bound``.

    Takes scipy 1.17's RK45 steps op for op: the same starting step, stage
    sums, error norm and step factors, so the same floats.  Yields
    ``(t_old, t, y_old, K)`` after each accepted step, K its stages (a buffer
    the next step overwrites).  Raises :class:`SolverError` when a step
    would fall below ten spacings of the floats at t, also when it is NaN.
    A relative tolerance below 100 float epsilons is raised to that, with a
    warning.
    """
    if rtol < _RTOL_FLOOR:
        warnings.warn(f"tol {rtol!r} is below {_RTOL_FLOOR!r}, which the stepper "
                      "uses instead", stacklevel=3)
        rtol = _RTOL_FLOOR
    f = fun(0.0, y)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    K = np.empty((len(_C) + 1, len(y)))
    t = 0.0
    while t < t_bound:
        min_step = 10 * abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:
                raise SolverError("integration failed: Required step size is less "
                                  "than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            K[0] = f
            for s in range(1, len(_C)):
                K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, _E) * h / scale)
            if error < 1:
                factor = _MAX_FACTOR if error == 0 else min(
                    _MAX_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _ERROR_EXPONENT)
            rejected = True
        yield t, t_new, y, K
        t, y, f = t_new, y_new, f_new


def solve(mu0: MassSpectrum, kernel: Kernel, t_end: float, tol: float = 1e-8,
          k_max: int = 256, allow_gelation: bool = False) -> SolutionPath:
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

    The Dormand-Prince stepper (rtol ``tol``, atol ``ATOL_PER_TOL * tol``;
    see the module) steps to ``t_end``, and the path keeps each accepted
    step with its dense output, as ``solve_ivp`` with ``dense_output`` would
    (see :class:`SolutionPath`).  A step that falls below ten float
    spacings, and a right-hand side that overflows, raise
    :class:`SolverError`.  The path keeps the right-hand-side evaluations as
    ``nfev``.
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

    nfev = 0

    def rhs(_t, c):
        nonlocal nfev
        nfev += 1
        np.multiply(half_k, np.repeat(c, per_row), out=pair)
        np.multiply(pair, c.take(jj), out=pair)
        gain = np.bincount(kk, weights=pair, minlength=n)
        loss = c * (kmat @ c)
        return gain - loss

    with warnings.catch_warnings():
        warnings.simplefilter("error", category=RuntimeWarning)
        try:
            steps = [(t, c_old, stages.T.dot(_P)) for _, t, c_old, stages
                     in _dopri45(rhs, c0, float(t_end), tol, ATOL_PER_TOL * tol)]
        except (RuntimeWarning, FloatingPointError) as e:
            raise SolverError(f"integration blew up before t={t_end}: {e}") from e
    ends, y_old, q = zip(*steps)
    path = SolutionPath(units, quantum, (0.0,) + ends, y_old, q, kernel, tol, nfev)

    total0 = float(np.sum(c0 * masses))
    leak = total0 - float(np.sum(path.weights_at(t_end) * masses))
    if leak > 10 * tol * max(total0, 1.0):
        warnings.warn(
            f"mass {leak:.3e} left the {n}-point lattice by t={t_end}; "
            "increase k_max for tighter tails", stacklevel=2)
    path.leak = leak / total0 if total0 > 0 else 0.0
    return path


def constant_kernel_weights(t: float, k: np.ndarray) -> np.ndarray:
    """Closed form for the constant kernel from monodisperse unit data:
    c_k(t) = (t/2)^(k-1) / (1 + t/2)^(k+1)."""
    k = np.asarray(k)
    return (t / 2.0) ** (k - 1) / (1.0 + t / 2.0) ** (k + 1)
