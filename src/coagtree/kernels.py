"""Coagulation kernels: built-ins, tabulated grids, and assumption checks."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class KernelError(ValueError):
    pass


def _eval_constant(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.ones(np.broadcast_shapes(x.shape, y.shape))


def _eval_product(x, y):
    return np.asarray(x, dtype=float) * np.asarray(y, dtype=float)


def _eval_additive(x, y):
    return np.asarray(x, dtype=float) + np.asarray(y, dtype=float)


def _eval_inverse_sum(x, y):
    return 1.0 / (np.asarray(x, dtype=float) + np.asarray(y, dtype=float) + 1.0)


def _phi_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _phi_identity(x):
    return np.asarray(x, dtype=float)


def _phi_one_plus(x):
    return 1.0 + np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Kernel:
    """Symmetric rate kernel K(x, y) with a dominating profile.

    ``phi`` is a sublinear profile with K(x, y) <= ktilde_bound * phi(x) * phi(y);
    it controls moment bounds and the gelation guard for the product kernel.
    """

    name: str
    evaluate: Callable
    phi: Callable
    ktilde_bound: float = 1.0

    def __call__(self, x, y):
        return self.evaluate(x, y)

    def matrix(self, masses: np.ndarray) -> np.ndarray:
        m = np.asarray(masses, dtype=float)
        return np.asarray(self.evaluate(m[:, None], m[None, :]), dtype=float)


CONSTANT = Kernel("constant", _eval_constant, _phi_one, 1.0)
PRODUCT = Kernel("product", _eval_product, _phi_identity, 1.0)
ADDITIVE = Kernel("additive", _eval_additive, _phi_one_plus, 1.0)
INVERSE_SUM = Kernel("inverse-sum", _eval_inverse_sum, _phi_one, 1.0)

BUILTIN_KERNELS = {
    k.name: k for k in (CONSTANT, PRODUCT, ADDITIVE, INVERSE_SUM)
}


def builtin(name: str) -> Kernel:
    try:
        return BUILTIN_KERNELS[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; choose from {sorted(BUILTIN_KERNELS)}"
        ) from None


# ---------------------------------------------------------------------------
# tabulated kernels


class _GridEval:
    """Bilinear interpolation on a symmetric rectangular grid (picklable)."""

    def __init__(self, grid_masses: np.ndarray, values: np.ndarray):
        self.grid = grid_masses
        self.values = values

    def __call__(self, x, y):
        from scipy.interpolate import RegularGridInterpolator

        interp = RegularGridInterpolator(
            (self.grid, self.grid), self.values, bounds_error=False, fill_value=None
        )
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xb, yb = np.broadcast_arrays(x, y)
        pts = np.stack([xb.ravel(), yb.ravel()], axis=-1)
        out = interp(pts).reshape(xb.shape)
        if out.ndim == 0:
            return float(out)
        return out


def tabulated_kernel(path: str, name: Optional[str] = None) -> Kernel:
    """Kernel from a CSV table with columns x, y, value.

    The table is symmetrized by averaging; masses must form a complete grid
    and values must be strictly positive.
    """
    xs, ys, vs = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # header row
    for r in rows[start:]:
        xs.append(float(r[0]))
        ys.append(float(r[1]))
        vs.append(float(r[2]))
    grid = np.unique(np.array(xs + ys))
    n = len(grid)
    idx = {m: i for i, m in enumerate(grid)}
    table = np.full((n, n), np.nan)
    for x, y, v in zip(xs, ys, vs):
        table[idx[x], idx[y]] = v
    # mirror missing entries, then average to enforce symmetry
    missing = np.isnan(table)
    table[missing] = table.T[missing]
    if np.isnan(table).any():
        raise KernelError(f"incomplete kernel table in {path}")
    table = 0.5 * (table + table.T)
    if not (table > 0).all():
        raise KernelError(f"kernel table in {path} has nonpositive entries")
    return Kernel(name or f"tabulated:{path}", _GridEval(grid, table), _phi_one_plus,
                  float(table.max()))


# ---------------------------------------------------------------------------
# assumption checks and the gelation guard


@dataclass(frozen=True)
class AssumptionReport:
    kernel: str
    phi_second_moment: float
    symmetry_residual: float
    factorization_residual: float

    def ok(self, tol: float = 1e-9) -> bool:
        return (
            np.isfinite(self.phi_second_moment)
            and self.symmetry_residual <= tol
            and self.factorization_residual <= tol
        )


def check_assumptions(kernel: Kernel, mu0) -> AssumptionReport:
    """Report on symmetry, the K <= ktilde_bound*phi*phi bound, and <phi^2, mu0>."""
    m = np.asarray(mu0.masses, dtype=float)
    w = np.asarray(mu0.weights, dtype=float)
    kmat = kernel.matrix(m)
    sym = float(np.abs(kmat - kmat.T).max()) if kmat.size else 0.0
    phim = np.asarray(kernel.phi(m), dtype=float)
    bound = kernel.ktilde_bound * phim[:, None] * phim[None, :]
    fact = float(np.maximum(kmat - bound, 0.0).max()) if kmat.size else 0.0
    second = float(np.sum(w * phim ** 2))
    return AssumptionReport(kernel.name, second, sym, fact)


def gelation_time(kernel: Kernel, masses, weights) -> float:
    """Gelation horizon: 1/<x^2, mu0> for the product kernel, else infinity."""
    if kernel.name != "product":
        return float("inf")
    m2 = float(np.sum(np.asarray(weights, float) * np.asarray(masses, float) ** 2))
    if m2 <= 0:
        return float("inf")
    return 1.0 / m2


class GelationError(RuntimeError):
    pass


# horizons from this fraction of the gelation time on are refused
GELATION_FRACTION = 0.95


def check_gelation(kernel: Kernel, masses, weights, t_end: float,
                   allow_gelation: bool = False) -> None:
    tgel = gelation_time(kernel, masses, weights)
    if t_end >= GELATION_FRACTION * tgel and not allow_gelation:
        raise GelationError(
            f"horizon {t_end} is at or beyond {GELATION_FRACTION:g} of the gelation time "
            f"{tgel:g}; pass allow_gelation to override"
        )
