"""Evaluate the limit historical measure: one term and functionals.

Integrates the cherry term over its merge time, evaluates shape functionals
with the recursive evaluator (one cumulative integral per tree node on the
solver's time grid), and verifies the mass pushforward against the
mean-field spectrum.
"""

import coagtree as ct
from coagtree.limit import functionals, time_integral
from coagtree.trees import LEAF, shape_node


def main():
    mu0 = ct.MassSpectrum.monodisperse()
    kernel = ct.builtin("constant")
    t = 2.0
    path = ct.solve(mu0, kernel, t, tol=1e-10)

    # the cherry term at unit masses: the density without its symmetry
    # factor 1/2, integrated over the merge time
    cherry = shape_node(LEAF, LEAF)
    for name, f in (("any merge time", ct.ShapeIndicator(cherry)),
                    ("merged before 0.8", ct.ShapeTimeBoxIndicator(cherry, ((0.0, 0.8),)))):
        term = time_integral(cherry, (1.0, 1.0), path, t, f)
        print(f"cherry term, {name}: {term.value:.10f} (error {term.error:.1e})")
    print("expected: 0.25 and 1/7 = 0.1428571429 (constant-kernel closed forms)\n")

    # one integration for the three functionals; K and mu0 are the path's
    names = ("leaf", "cherry", "three-chain")
    fs = tuple(ct.ShapeIndicator(s) for s in (LEAF, cherry, shape_node(LEAF, cherry)))
    for name, res in zip(names, functionals(fs, 3, path, t)):
        print(f"<{name} indicator, mu~_t> = {res.value:.8f} "
              f"(quadrature error {res.error:.1e}, tail {res.tail_bound:.4f})")
    print("expected: 0.25, 0.125, 0.0625 (constant-kernel closed forms)")

    rep = ct.pushforward_check(path, mu0, kernel, t, n_max=4)
    print("\nmass pushforward vs solved spectrum:")
    for m, lim, sol in rep.rows:
        print(f"  mass {m:.0f}: limit {lim:.8f}, solver {sol:.8f}")
    print(f"max discrepancy {rep.max_discrepancy:.2e}")

if __name__ == "__main__":
    main()
