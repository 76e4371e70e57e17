import math
import pickle

import numpy as np
import pytest
from scipy.linalg import expm

from coagtree.kernels import builtin
from coagtree.simulate import (
    ConfigError,
    ConstantOne,
    EmpiricalHistoricalMeasure,
    FunctionalProduct,
    MassCutoff,
    ShapeIndicator,
    ShapeTimeBoxIndicator,
    SimConfig,
    empirical_measure,
    evaluate_functional,
    rng_for,
    simulate_coupled,
    simulate_direct,
)
from coagtree.trees import LEAF, shape_node

CONSTANT = builtin("constant")
PRODUCT = builtin("product")


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig(0, (), CONSTANT, 1.0)
    with pytest.raises(ConfigError):
        SimConfig(2, (1.0,), CONSTANT, 1.0)
    with pytest.raises(ConfigError):
        SimConfig(2, (1.0, -1.0), CONSTANT, 1.0)
    with pytest.raises(ConfigError):
        SimConfig(2, (1.0, 1.0), CONSTANT, 1.0, construction="magic")
    with pytest.raises(ConfigError):
        SimConfig.monodisperse(13, CONSTANT, 1.0, construction="coupled")


def test_single_particle_empty_log():
    log = simulate_direct(SimConfig(1, (1.0,), CONSTANT, 5.0, seed=1))
    assert log.events == ()
    m = empirical_measure(log, 5.0)
    assert len(m.atoms) == 1
    assert m.atoms[0].is_leaf


def test_two_particle_exponential_law():
    # merge time ~ Exponential(K/N) = Exponential(1/2)
    cfg = SimConfig(2, (1.0, 1.0), CONSTANT, 1.0, seed=3)
    replicas = 40000
    alive = sum(
        not simulate_direct(cfg, rng_for(3, r)).events for r in range(replicas))
    p = alive / replicas
    expected = math.exp(-0.5)
    se = math.sqrt(expected * (1 - expected) / replicas)
    assert abs(p - expected) <= 4 * se


def test_three_particle_mean_events_vs_matrix_exponential():
    # 3-state pure-death chain: rates 3 pairs/3 = 1, then 1 pair/3
    t = 1.0
    q = np.array([[-1.0, 1.0, 0.0],
                  [0.0, -1 / 3, 1 / 3],
                  [0.0, 0.0, 0.0]])
    probs = expm(q * t)[0]
    expected_events = probs[1] + 2 * probs[2]
    cfg = SimConfig.monodisperse(3, CONSTANT, t, seed=4)
    replicas = 40000
    counts = [len(simulate_direct(cfg, rng_for(4, r)).events)
              for r in range(replicas)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(replicas)
    assert abs(mean - expected_events) <= 4 * se


def test_determinism_bit_identical():
    cfg = SimConfig.monodisperse(50, CONSTANT, 2.0, seed=77, replica=3)
    a = simulate_direct(cfg)
    b = simulate_direct(cfg)
    assert a.events == b.events
    cfgc = SimConfig.monodisperse(6, CONSTANT, 2.0, seed=77, replica=3,
                                  construction="coupled")
    assert simulate_coupled(cfgc).events == simulate_coupled(cfgc).events


def test_distinct_replicas_differ():
    cfg = SimConfig.monodisperse(50, CONSTANT, 2.0, seed=77)
    a = simulate_direct(cfg, rng_for(77, 0))
    b = simulate_direct(cfg, rng_for(77, 1))
    assert a.events != b.events


def test_mass_conservation_and_event_count():
    cfg = SimConfig.monodisperse(200, CONSTANT, 2.0, seed=5)
    log = simulate_direct(cfg)
    for t in (0.0, 0.5, 1.0, 2.0):
        m = empirical_measure(log, t)
        assert m.total_mass() == pytest.approx(1.0, rel=1e-12)
        assert len(m.atoms) == 200 - log.n_events(t)
        assert m.total_weight == pytest.approx(len(m.atoms) / 200)


def test_event_times_strictly_increasing():
    log = simulate_direct(SimConfig.monodisperse(100, PRODUCT, 0.5, seed=6))
    times = [e.time for e in log.events]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_empirical_measure_structure():
    cfg = SimConfig.monodisperse(10, CONSTANT, 3.0, seed=8)
    log = simulate_direct(cfg)
    m0 = empirical_measure(log, 0.0)
    assert len(m0.atoms) == 10 and all(a.is_leaf for a in m0.atoms)
    if log.events:
        t1 = log.events[0].time
        m1 = empirical_measure(log, t1)
        cherries = [a for a in m1.atoms if not a.is_leaf]
        assert len(m1.atoms) == 9
        assert len(cherries) == 1
        assert cherries[0].time == t1
    with pytest.raises(ValueError):
        empirical_measure(log, 4.0)


def test_coupled_two_particles_law():
    # N=2 coupled and direct share the same single-exponential law
    replicas = 20000
    cfg = SimConfig(2, (1.0, 1.0), CONSTANT, 1.0, seed=9, construction="coupled")
    alive = sum(
        not simulate_coupled(cfg, rng_for(9, r)).events for r in range(replicas))
    expected = math.exp(-0.5)
    se = math.sqrt(expected * (1 - expected) / replicas)
    assert abs(alive / replicas - expected) <= 4 * se


def test_coupled_runs_to_completion():
    cfg = SimConfig.monodisperse(8, CONSTANT, 1000.0, seed=10,
                                 construction="coupled")
    log = simulate_coupled(cfg)
    assert len(log.events) == 7
    m = empirical_measure(log, 1000.0)
    assert len(m.atoms) == 1
    assert m.atoms[0].mass == 8.0


def test_exchangeability_mass_relabeling():
    # permuting the initial mass vector leaves functional laws unchanged
    from scipy.stats import ks_2samp

    masses = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
    perm = (3.0, 2.0, 1.0, 3.0, 2.0, 1.0)
    f = MassCutoff(2.0)
    samples = []
    for ms, stream in ((masses, 31), (perm, 37)):
        cfg = SimConfig(6, ms, builtin("additive"), 0.5, seed=12)
        vals = []
        for r in range(4000):
            log = simulate_direct(cfg, rng_for(12, r, stream))
            vals.append(evaluate_functional(empirical_measure(log, 0.5), f))
        samples.append(vals)
    assert ks_2samp(samples[0], samples[1]).pvalue > 0.001


def test_functionals():
    cherry = shape_node(LEAF, LEAF)
    from coagtree.trees import hist_leaf, hist_node

    leaf = hist_leaf(1.0)
    node = hist_node(0.5, hist_leaf(1.0), hist_leaf(1.0))
    assert ShapeIndicator(LEAF)(leaf) == 1.0
    assert ShapeIndicator(LEAF)(node) == 0.0
    assert ShapeIndicator(cherry)(node) == 1.0
    box = ShapeTimeBoxIndicator(cherry, ((0.2, 0.7),))
    assert box(node) == 1.0
    assert ShapeTimeBoxIndicator(cherry, ((0.6, 0.7),))(node) == 0.0
    assert box.time_breakpoints == (0.2, 0.7)
    assert MassCutoff(3.0)(node) == 1.0
    assert MassCutoff(1.5)(node) == 0.5
    assert MassCutoff(0.5)(node) == 0.0
    prod = FunctionalProduct((ShapeIndicator(cherry), MassCutoff(1.5)))
    assert prod(node) == 0.5
    assert prod(leaf) == 0.0
    assert ConstantOne()(node) == 1.0
    # worker pools receive functionals pickled: equality must survive it
    assert pickle.loads(pickle.dumps(ShapeIndicator(cherry)))(node) == 1.0
    for x in (cherry, node):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x)


def test_time_box_indicator_validates_its_boxes():
    cherry = shape_node(LEAF, LEAF)
    three = shape_node(LEAF, cherry)
    ShapeTimeBoxIndicator(three, ((0.5, 1.0), (0.0, 0.5)))
    ShapeTimeBoxIndicator(cherry, ((0.5, 0.5),))  # a single time is a box
    for shape, boxes in (
            (cherry, ()),  # no box
            (three, ((0.5, 1.0),)),  # second internal node left out
            (cherry, ((0.1, 0.2), (0.3, 0.4))),  # one box too many
            (cherry, ((0.6, 0.2),)),  # lo > hi
            (LEAF, ((0.0, 1.0),))):  # a leaf has no merge time
        with pytest.raises(ValueError):
            ShapeTimeBoxIndicator(shape, boxes)


def test_mass_cutoff_inactive_above_total_mass():
    cfg = SimConfig.monodisperse(30, CONSTANT, 1.0, seed=13)
    log = simulate_direct(cfg)
    m = empirical_measure(log, 1.0)
    assert evaluate_functional(m, MassCutoff(30.0)) == \
        evaluate_functional(m, ConstantOne())


def test_rng_streams_are_reproducible_and_distinct():
    a = rng_for(1, 2, 3).random(4)
    b = rng_for(1, 2, 3).random(4)
    c = rng_for(1, 3, 3).random(4)
    d = rng_for(1, 2, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_gelation_guard_in_config():
    from coagtree.kernels import GelationError

    with pytest.raises(GelationError):
        SimConfig.monodisperse(16, PRODUCT, 5.0)
    SimConfig.monodisperse(16, PRODUCT, 5.0, allow_gelation=True)
