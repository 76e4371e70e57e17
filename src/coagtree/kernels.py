"""Coagulation kernels: built-ins, tabulated grids, and assumption checks."""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class KernelError(ValueError):
    pass


class ConfigError(ValueError):
    """An input the package refuses: bad sizes, masses, seeds or plans."""


# Each built-in takes a fast path for two Python floats (or numpy float
# scalars) and returns the IEEE value its numpy path would; anything else
# goes through numpy and broadcasts.


def _scalars(x, y) -> bool:
    return isinstance(x, float) and isinstance(y, float)


def _eval_constant(x, y):
    if _scalars(x, y):
        return 1.0
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.ones(np.broadcast_shapes(x.shape, y.shape))


def _eval_product(x, y):
    if _scalars(x, y):
        return x * y
    return np.asarray(x, dtype=float) * np.asarray(y, dtype=float)


def _eval_additive(x, y):
    if _scalars(x, y):
        return x + y
    return np.asarray(x, dtype=float) + np.asarray(y, dtype=float)


def _eval_inverse_sum(x, y):
    if _scalars(x, y):
        return 1.0 / (x + y + 1.0)
    return 1.0 / (np.asarray(x, dtype=float) + np.asarray(y, dtype=float) + 1.0)


def _phi_one(x):
    if isinstance(x, float):
        return 1.0
    return np.ones_like(np.asarray(x, dtype=float))


def _phi_identity(x):
    if isinstance(x, float):
        return x
    return np.asarray(x, dtype=float)


def _phi_one_plus(x):
    if isinstance(x, float):
        return 1.0 + x
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
    """Bilinear interpolation on a symmetric rectangular grid (picklable).

    Past the grid's ends the nearest cell's bilinear form is extended
    linearly, as ``RegularGridInterpolator`` does with ``fill_value=None``.
    """

    def __init__(self, grid_masses: np.ndarray, values: np.ndarray):
        self.grid = np.asarray(grid_masses, dtype=float)
        self.values = np.asarray(values, dtype=float)
        # cell k is [grid[k], grid[k + 1]]; searching the interior grid
        # points gives the cell, with the end cells reaching past the grid
        self._inner = self.grid[1:-1]
        self._grid = self.grid.tolist()  # the scalar path's copies
        self._rows = self.values.tolist()

    def _cell(self, x):
        i = np.searchsorted(self._inner, x)
        lo = self.grid[i]
        return i, (x - lo) / (self.grid[i + 1] - lo)

    def __call__(self, x, y):
        if _scalars(x, y):
            return self._scalar(x, y)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        (i, u), (j, v) = self._cell(x), self._cell(y)
        vals = self.values
        return ((vals[i, j] * (1.0 - u) + vals[i + 1, j] * u) * (1.0 - v)
                + (vals[i, j + 1] * (1.0 - u) + vals[i + 1, j + 1] * u) * v)

    def _scalar(self, x: float, y: float) -> float:
        grid = self._grid
        i = bisect.bisect_left(grid, x, 1, len(grid) - 1) - 1
        j = bisect.bisect_left(grid, y, 1, len(grid) - 1) - 1
        u = (x - grid[i]) / (grid[i + 1] - grid[i])
        v = (y - grid[j]) / (grid[j + 1] - grid[j])
        row, up = self._rows[i], self._rows[i + 1]
        return ((row[j] * (1.0 - u) + up[j] * u) * (1.0 - v)
                + (row[j + 1] * (1.0 - u) + up[j + 1] * u) * v)


def tabulated_kernel(path: str, name: Optional[str] = None) -> Kernel:
    """Kernel from a CSV table with columns x, y, value.

    The table is symmetrized by averaging; masses must form a complete grid
    and values must be strictly positive.
    """
    xs, ys, vs = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    if not rows:
        raise KernelError(f"kernel table in {path} is empty")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1  # header row
    for r in rows[start:]:
        if len(r) < 3:
            raise KernelError(f"kernel table in {path}: row {r!r} needs three "
                              "columns, x,y,value")
        xs.append(float(r[0]))
        ys.append(float(r[1]))
        vs.append(float(r[2]))
    grid = np.unique(np.array(xs + ys))
    n = len(grid)
    if n < 2:
        raise KernelError(f"kernel table in {path} needs at least two masses")
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
    """Refuse a horizon at or beyond ``GELATION_FRACTION`` of a finite
    gelation time, unless ``allow_gelation``."""
    tgel = gelation_time(kernel, masses, weights)
    if np.isfinite(tgel) and t_end >= GELATION_FRACTION * tgel and not allow_gelation:
        raise GelationError(
            f"horizon {t_end} is at or beyond {GELATION_FRACTION:g} of the gelation time "
            f"{tgel:g}"
        )
