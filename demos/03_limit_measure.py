"""Evaluate the limit historical measure: densities and functionals.

Checks that the recursive and product-form densities agree, evaluates shape
functionals with the recursive evaluator (one cumulative integral per tree
node on the solver's time grid), and verifies the mass pushforward against
the mean-field spectrum.
"""

import coagtree as ct
from coagtree.trees import LEAF, shape_node


def main():
    mu0 = ct.MassSpectrum.monodisperse()
    kernel = ct.builtin("constant")
    t = 2.0
    path = ct.solve(mu0, kernel, t, tol=1e-10)

    cherry_tree = ct.hist_node(0.8, ct.hist_leaf(1.0), ct.hist_leaf(1.0))
    a = ct.density_recursive(cherry_tree, path, t)
    b = ct.density_product(cherry_tree, path, t)
    print(f"cherry density at merge time 0.8: recursive {a:.10f}, "
          f"product form {b:.10f}")

    cherry = shape_node(LEAF, LEAF)
    for name, shape in (("leaf", LEAF), ("cherry", cherry),
                        ("three-chain", shape_node(LEAF, cherry))):
        res = ct.functional(ct.ShapeIndicator(shape), 3, path, kernel, mu0, t)
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
