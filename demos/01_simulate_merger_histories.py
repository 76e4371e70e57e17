"""Simulate the coagulation process and inspect merger histories.

Runs a single N=500 constant-kernel system, prints the empirical historical
measure's composition at a few times, and shows the tree text format.
"""

import numpy as np

import coagtree as ct
from coagtree.trees import history_text


def main():
    kernel = ct.builtin("constant")
    cfg = ct.SimConfig.monodisperse(500, kernel, horizon=2.0)
    log = ct.simulate(cfg, ct.rng_for(42))
    print(f"{len(log.events)} merge events by t = {cfg.horizon}")

    for t in (0.5, 1.0, 2.0):
        m = ct.empirical_measure(log, t)
        sizes = np.array([m.shapes[m.shape[i]].n_leaves for i in m.atoms])
        print(f"t = {t}: {len(m.atoms)} clusters, "
              f"mean size {sizes.mean():.2f}, max size {sizes.max()}")

    # at the horizon the live clusters are the histories alive after the
    # last merge, which history_text lists by ascending node id, as m.atoms
    m = ct.empirical_measure(log, cfg.horizon)
    texts = history_text(cfg.masses, log.events)[1]
    sizes = [m.shapes[m.shape[i]].n_leaves for i in m.atoms]
    text = texts[sizes.index(max(sizes))]
    print("\nlargest cluster's history (leaf mass / merge-time format):")
    print(text)
    # the text carries masses and merge times; parse numbers the leaves in
    # text order, so the particles' own ids are not in it
    assert ct.serialize(ct.parse(text)) == text


if __name__ == "__main__":
    main()
