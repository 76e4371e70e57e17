"""Simulate the coagulation process and inspect merger histories.

Runs a single N=500 constant-kernel system, prints the empirical historical
measure's composition at a few times, and shows the tree text format.
"""

import numpy as np

import coagtree as ct


def main():
    kernel = ct.builtin("constant")
    cfg = ct.SimConfig.monodisperse(500, kernel, horizon=2.0)
    log = ct.simulate(cfg, ct.rng_for(42))
    print(f"{len(log.events)} merge events by t = {cfg.horizon}")

    for t in (0.5, 1.0, 2.0):
        m = ct.empirical_measure(log, t)
        sizes = np.array([tree.n_leaves for tree in m.atoms])
        print(f"t = {t}: {len(m.atoms)} clusters, "
              f"mean size {sizes.mean():.2f}, max size {sizes.max()}")

    m = ct.empirical_measure(log, 2.0)
    biggest = max(m.atoms, key=lambda tree: tree.n_leaves)
    print("\nlargest cluster's history (leaf mass / merge-time format):")
    print(ct.serialize(biggest))
    # the text format carries masses and times but not particle labels
    assert ct.parse(ct.serialize(biggest)) == ct.forget_labels(biggest)

    print("\nlifetime intervals of its sub-clusters:")
    for e in ct.edge_intervals(biggest, 2.0)[:8]:
        print(f"  mass {e.mass:4.1f} alive on [{e.birth:.3f}, {e.death:.3f})")


if __name__ == "__main__":
    main()
