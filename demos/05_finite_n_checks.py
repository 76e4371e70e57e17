"""Finite-N distributional checks on small isolated systems.

Tests simulated event times against the analytic jump-chain density, and
cross-checks the two survival-probability estimators.
"""

import coagtree as ct
from coagtree.lln import jump_density_test, survival_test


def main():
    K1 = ct.builtin("constant")
    Kxy = ct.builtin("product")

    rep = jump_density_test(2, (1.0, 1.0), K1, 2.0, replicas=20000, seed=2)
    print(f"jump density (n=2, K=1): chi2 p={rep.chi2_pvalue:.3f}, "
          f"passed={rep.passed}")

    rep = jump_density_test(3, (1.0, 2.0, 3.0), Kxy, 0.15,
                            replicas=20000, seed=3)
    print(f"jump density (n=3, K=xy): time p={rep.chi2_pvalue:.3f}, "
          f"first-pair p={rep.pair_pvalue:.3f} (expected odds 2:3:6), "
          f"passed={rep.passed}")

    rep = survival_test(6, 1.0, K1, replicas=20000, seed=4)
    print(f"survival (N=6, t=1): direct {rep.direct_estimate:.4f} vs "
          f"exponential {rep.exponential_estimate:.4f} "
          f"({rep.sigma_distance:.2f} sigma), passed={rep.passed}")


if __name__ == "__main__":
    main()
