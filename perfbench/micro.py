"""Microbenchmarks of the inner calls the planned optimisations target.

Kernel evaluation (scalar, a row of 10^4 masses, a 256x256 matrix) for every
built-in kernel and for a tabulated kernel, and ``survival_exponent`` on a
solved path.  Each call is warmed up first; the reported figure is the median
over batches of the time per call.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

import coagtree as ct
from coagtree.kernels import tabulated_kernel

from workloads import write_tabulated_additive

BUILTINS = ("constant", "additive", "product", "inverse-sum")


def per_call(fn, calls: int, batches: int = 5) -> float:
    """Median seconds per call of ``fn()`` over ``batches`` batches, after a warm-up."""
    for _ in range(max(1, calls // 10)):
        fn()
    samples = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - t0) / calls)
    return statistics.median(samples)


def run(workdir: Path, tiny: bool) -> dict:
    scale = 10 if tiny else 1
    row = np.arange(1.0, 10_001.0)
    lattice = np.arange(1.0, 257.0)
    out = {}
    for name in BUILTINS:
        kernel = ct.builtin(name)
        out[f"kernels.evaluate.scalar_us.{name}"] = 1e6 * per_call(
            lambda: kernel.evaluate(1.0, 2.0), 2000 // scale)
        out[f"kernels.evaluate.row_us.{name}"] = 1e6 * per_call(
            lambda: kernel.evaluate(3.0, row), 200 // scale)
        out[f"kernels.matrix_ms.{name}"] = 1e3 * per_call(
            lambda: kernel.matrix(lattice), 40 // scale)

    table = workdir / "micro-additive-table.csv"
    write_tabulated_additive(table)
    tab = tabulated_kernel(str(table))
    tab_row = np.linspace(1.0, 1024.0, 10_000)
    out["kernels.tabulated.row_us"] = 1e6 * per_call(
        lambda: tab.evaluate(3.0, tab_row), 40 // scale)

    # survival exponents on a solved constant-kernel path, cache warm
    path = ct.solve(ct.MassSpectrum.monodisperse(), ct.builtin("constant"), 2.0)
    queries = [(float(y), 0.25 * s, 0.25 * s + 0.3 * u)
               for y in path.masses[:8] for s in range(4) for u in range(1, 4)]

    def sweep():
        for y, s, t in queries:
            path.survival_exponent(y, s, t)

    out["smoluchowski.survival_exponent.us"] = 1e6 * per_call(
        sweep, 100 // scale) / len(queries)
    return out
