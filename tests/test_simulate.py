import bisect
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.linalg import expm

from coagtree.kernels import Kernel, builtin, tabulated_kernel
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
    replica_stream,
    rng_for,
    simulate,
)
from coagtree.trees import LEAF, preorder, shape_node, shapes_with_leaves
from tests_support import (
    ScalarView,
    _shape_weight,
    hist_leaf,
    hist_node,
    measure_tree,
    reference_atoms,
    reference_rng_for,
    reference_simulate_coupled,
    reference_simulate_direct,
    reference_thinning_sampler,
    reference_value,
    simulate_coupled,
    write_additive_table,
)

CONSTANT = builtin("constant")
PRODUCT = builtin("product")


def test_config_validation():
    with pytest.raises(ConfigError):
        SimConfig((), CONSTANT, 1.0)
    with pytest.raises(ConfigError):
        SimConfig((1.0, -1.0), CONSTANT, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="positive and finite"):
            SimConfig((bad, 1.0, 1.0), CONSTANT, 1.0)
    for bad in (0, -3, math.nan, math.inf):
        with pytest.raises(ConfigError, match="rate_n"):
            SimConfig((1.0,) * 4, CONSTANT, 1.0, rate_n=bad)
    with pytest.raises(ConfigError):
        simulate_coupled(SimConfig.monodisperse(13, CONSTANT, 1.0), rng_for(0))


def test_single_particle_empty_log():
    log = simulate(SimConfig((1.0,), CONSTANT, 5.0), rng_for(1))
    assert log.events == ()
    m = empirical_measure(log, 5.0)
    assert m.atoms == (0,)
    assert measure_tree(m, 0).is_leaf


def test_two_particle_exponential_law():
    # merge time ~ Exponential(K/N) = Exponential(1/2)
    cfg = SimConfig((1.0, 1.0), CONSTANT, 1.0)
    replicas = 40000
    alive = sum(
        not simulate(cfg, rng_for(3, r)).events for r in range(replicas))
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
    cfg = SimConfig.monodisperse(3, CONSTANT, t)
    replicas = 40000
    counts = [len(simulate(cfg, rng_for(4, r)).events)
              for r in range(replicas)]
    mean = np.mean(counts)
    se = np.std(counts, ddof=1) / math.sqrt(replicas)
    assert abs(mean - expected_events) <= 4 * se


def event_keys(log):
    n0 = log.config.n
    return [(s.hex(), i, j, n0 + k) for k, (s, i, j) in enumerate(log.events)]


@pytest.mark.parametrize("n,replicas,rate_n", [
    (2, 400, None), (3, 400, None), (6, 200, None), (6, 200, 7),
    (100, 20, None), (100, 20, 150), (1000, 3, None)])
def test_constant_kernel_matches_the_reference_sampler(n, replicas, rate_n):
    # thinning with K = 1 accepts every proposal and reads the doubles that
    # the O(#clusters) jump chain draws one at a time through the scalar
    # view, so the two logs agree bit for bit
    cfg = SimConfig.monodisperse(n, CONSTANT, 3.0, rate_n=rate_n)
    for r in range(replicas):
        log = simulate(cfg, rng_for(14, r))
        want = reference_simulate_direct(cfg, ScalarView(rng_for(14, r)))
        assert event_keys(log) == event_keys(want)
        assert log.proposals == len(log.events)


class _CountingDraws:
    """A generator that counts what ``simulate`` asks of it: the size of
    each ``random(k)`` block, and the name of every other call."""

    def __init__(self, rng):
        self.rng, self.blocks, self.other = rng, [], []

    def random(self, size=None):
        if size is None:
            self.other.append("random()")
        else:
            self.blocks.append(size)
        return self.rng.random(size)

    def __getattr__(self, name):
        self.other.append(name)
        return getattr(self.rng, name)


def test_the_sampler_reads_its_uniforms_in_blocks():
    # a scalar Generator call costs about as much as 20 doubles of a block:
    # no draw may fall back to standard_exponential() or a scalar random(),
    # and a proposal reads at most 4 doubles, so the blocks cover them
    cfg = SimConfig.monodisperse(1000, CONSTANT, 2.0)
    draws = _CountingDraws(rng_for(30))
    log = simulate(cfg, draws)
    assert draws.other == []
    assert log.events == simulate(cfg, rng_for(30)).events
    assert log.proposals > 400
    block = draws.blocks[0]
    assert set(draws.blocks) == {block}
    assert len(draws.blocks) <= math.ceil(4 * log.proposals / block) + 1


def counting(kernel):
    """``kernel`` with a count of its array (kernel row) evaluations."""
    rows = []

    def evaluate(x, y):
        if np.ndim(x) or np.ndim(y):
            rows.append(np.size(y))
        return kernel.evaluate(x, y)

    return Kernel(kernel.name, evaluate, kernel.phi, kernel.ktilde_bound), rows


def _step_phi(x):
    return np.maximum(2.0, np.asarray(x, dtype=float) / 2.0)


def _eval_step_phi(x, y):
    return 0.5 * (_step_phi(x) + _step_phi(y))


# phi is 2 up to mass 4, so masses 1 to 4 share one class, and each mass
# above 4 that a merge makes opens a class of its own
STEP_PHI = Kernel("step-phi", _eval_step_phi, _step_phi)

# kernel, initial masses, horizon, rate_n
THINNING_CASES = {
    "constant": ("constant", (1.0,) * 60, 3.0, None),
    "additive": ("additive", (1.0,) * 60, 1.0, None),
    "product": ("product", (1.0,) * 60, 0.9, None),
    "inverse-sum": ("inverse-sum", (1.0,) * 60, 3.0, None),
    "tabulated": ("tabulated", (1.0,) * 60, 1.0, None),
    "additive-bidisperse": ("additive", (0.1, 0.7) * 30, 1.0, None),
    "additive-rate_n": ("additive", (1.0,) * 60, 1.0, 90),
    "constant-bidisperse": ("constant", (1.0, 2.0) * 30, 3.0, None),
    "product-bidisperse": ("product", (1.0, 2.0) * 30, 0.3, None),
    "inverse-sum-rate_n": ("inverse-sum", (1.0,) * 60, 3.0, 90),
    "constant-short": ("constant", (1.0,) * 60, 0.02, None),
    "constant-pair": ("constant", (1.0, 1.0), 3.0, None),
    "step-phi": ("step-phi", (1.0,) * 60, 2.0, None),
}


@pytest.mark.parametrize("case", THINNING_CASES)
def test_sampler_matches_the_reference_thinning_sampler(case, tmp_path):
    # 60 runs of one config re-enter the memoised majorant states that
    # earlier runs built; every run must still draw what the sampler drew
    # when each run built its own majorant from scratch
    name, masses, horizon, rate_n = THINNING_CASES[case]
    if name == "tabulated":
        kernel = tabulated_kernel(write_additive_table(tmp_path / "xy.csv"))
    elif name == "step-phi":
        kernel = STEP_PHI
    else:
        kernel = builtin(name)
    oracle, oracle_rows = counting(kernel)
    kernel, rows = counting(kernel)
    cfg = SimConfig(masses, kernel, horizon, rate_n=rate_n)
    ref = SimConfig(masses, oracle, horizon, rate_n=rate_n)
    merged = 0
    for r in range(60):
        log = simulate(cfg, rng_for(18, r))
        want = reference_thinning_sampler(ref, ScalarView(rng_for(18, r)))
        assert event_keys(log) == event_keys(want), r
        assert log.proposals == want.proposals, r
        assert all(type(row) is tuple and len(row) == 3 for row in log.events)
        merged += len(log.events)
    assert merged > 0
    # each memoised state cost one kernel row, and the runs shared them
    assert 0 < len(rows) < len(oracle_rows)


def _largest_draw(bound, total, strict):
    """The largest u < 1 with fl(u * total) <= bound, or < bound if strict."""
    if strict and bound == 0.0:
        return 0.0
    fits = (lambda u: u * total < bound) if strict else (lambda u: u * total <= bound)
    u = min(bound / total, math.nextafter(1.0, 0.0))
    while not fits(u):
        u = math.nextafter(u, 0.0)
    while u < math.nextafter(1.0, 0.0) and fits(math.nextafter(u, 1.0)):
        u = math.nextafter(u, 1.0)
    return u


class _BoundaryDraws:
    """Stands in for a Generator, with every proposal's targets on a class
    or in-class position boundary, or one float below it.

    The reference sampler calls ``watch`` with the prefix sums, phis and
    sizes of the classes that its next target is read against; the
    boundaries are each prefix sum and, inside each class, base + p phi for
    p = 1 .. size - 1.  The next ``random()`` puts the target, u times the
    last prefix sum, in turn on a class boundary, one float below one, on
    a position boundary and one float below one; an acceptance uniform,
    read with no ``watch`` before it, is 0.  The exponential is -log1p(-U)
    of a fixed U.

    Every double handed out is recorded, and ``random(k)`` gives
    ``simulate`` the next k in stream order, 0.5 past the last: so
    ``simulate`` reads each proposal's draws in their roles too."""

    def __init__(self):
        self.stream, self.read, self.bounds, self.targets = [], 0, None, 0

    def watch(self, cum, phis, sizes):
        base, inside = 0.0, []
        for s, phi, size in zip(cum, phis, sizes):
            inside += [base + p * phi for p in range(1, size)]
            base = s
        self.bounds = cum, inside or cum

    def standard_exponential(self) -> float:
        u = -math.expm1(-1e-3)
        self.stream.append(u)
        return -math.log1p(-u)

    def random(self, size=None):
        if size is not None:
            block = self.stream[self.read:self.read + size]
            self.read += size
            return np.array(block + [0.5] * (size - len(block)))
        u = 0.0
        if self.bounds is not None:
            k = self.targets
            cum, bounds = self.bounds[0], self.bounds[k % 4 // 2]
            u = _largest_draw(bounds[(7 * k) % len(bounds)], cum[-1], k % 2 == 1)
            self.targets, self.bounds = k + 1, None
        self.stream.append(u)
        return u


def _phi_three(x):
    return np.full(np.shape(x), 3.0)


# kernel, initial masses, proposals whose position rounding carries past
# its class's size
BOUNDARY_CASES = {
    "i-past": (builtin("additive"), (938.1, 0.72, 7.11) * 24, 1),
    "j-past-below-i": (PRODUCT, (8.2, 952.44) * 25, 1),
    "j-past-in-and-above-i": (builtin("additive"), (3.0, 0.4, 303.43) * 28, 4),
    "inverse-sum": (builtin("inverse-sum"), (1.0,) * 120, 0),
    "phi-three": (Kernel("phi-three", CONSTANT.evaluate, _phi_three), (1.0,) * 120, 0),
}


@pytest.mark.parametrize("kernel,masses,rejected", BOUNDARY_CASES.values(),
                         ids=BOUNDARY_CASES)
def test_class_pick_on_boundaries(kernel, masses, rejected):
    # targets on, and one float below, each class and position boundary:
    # simulate must pick what the reference's scan picks, never a dead id or
    # a position past its class, and reject what rounding carries past
    cfg = SimConfig(masses, kernel, 10.0, allow_gelation=True)
    draws = _BoundaryDraws()
    want = reference_thinning_sampler(cfg, draws, draws.watch)
    log = simulate(cfg, draws)
    assert len(log.events) == len(masses) - 1
    assert log.proposals == len(log.events) + rejected
    assert event_keys(log) == event_keys(want)
    assert log.proposals == want.proposals
    live = set(range(len(masses)))
    for node, (_, i, j) in enumerate(log.events, len(masses)):
        assert i < j and i in live and j in live
        live -= {i, j}
        live.add(node)


def test_tabulated_kernel_thins_little(tmp_path):
    # the table's ktilde_bound is 2048, but the running majorant follows the
    # largest K / (phi phi) actually met, 0.5
    kernel = tabulated_kernel(write_additive_table(tmp_path / "xy.csv"))
    log = simulate(SimConfig.monodisperse(1000, kernel, 1.0), rng_for(15))
    assert len(log.events) > 300
    assert log.proposals <= 4 * len(log.events)


def test_bidisperse_additive_run_merges_only_live_clusters():
    n = 10_000
    masses = (0.1, 0.7) * (n // 2)
    log = simulate(SimConfig(masses, builtin("additive"), 1.0), rng_for(16))
    live = set(range(n))
    for node, (_, i, j) in enumerate(log.events, n):
        assert i < j
        assert i in live and j in live
        live -= {i, j}
        live.add(node)
    m = empirical_measure(log, 1.0)
    assert len(m.atoms) == len(live) == n - len(log.events)
    assert m.total_mass() * n == pytest.approx(sum(masses), rel=1e-12)
    assert len(log.events) < log.proposals


def test_kernel_above_its_majorant_raises():
    # scalar values twice the vectorised ones: the majorant, built from the
    # latter, is exceeded at the first proposal
    def evaluate(x, y):
        if np.ndim(x) or np.ndim(y):
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return 2.0

    liar = Kernel("liar", evaluate, CONSTANT.phi)
    with pytest.raises(ValueError, match="majorant"):
        simulate(SimConfig.monodisperse(10, liar, 1.0), rng_for(17))


def test_determinism_bit_identical():
    cfg = SimConfig.monodisperse(50, CONSTANT, 2.0)
    a = simulate(cfg, rng_for(77, 3))
    b = simulate(cfg, rng_for(77, 3))
    assert a.events == b.events
    cfgc = SimConfig.monodisperse(6, CONSTANT, 2.0)
    assert simulate_coupled(cfgc, rng_for(77, 3)).events == \
        simulate_coupled(cfgc, rng_for(77, 3)).events


def test_distinct_replicas_differ():
    cfg = SimConfig.monodisperse(50, CONSTANT, 2.0)
    a = simulate(cfg, rng_for(77, 0))
    b = simulate(cfg, rng_for(77, 1))
    assert a.events != b.events


def test_mass_conservation_and_event_count():
    cfg = SimConfig.monodisperse(200, CONSTANT, 2.0)
    log = simulate(cfg, rng_for(5))
    for t in (0.0, 0.5, 1.0, 2.0):
        m = empirical_measure(log, t)
        assert m.total_mass() == pytest.approx(1.0, rel=1e-12)
        assert len(m.atoms) == 200 - bisect.bisect_right(log.events, t, key=lambda row: row[0])
        assert m.total_weight == pytest.approx(len(m.atoms) / 200)


def test_event_times_strictly_increasing():
    log = simulate(SimConfig.monodisperse(100, PRODUCT, 0.5), rng_for(6))
    times = [s for s, _, _ in log.events]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_empirical_measure_structure():
    cfg = SimConfig.monodisperse(10, CONSTANT, 3.0)
    log = simulate(cfg, rng_for(8))
    m0 = empirical_measure(log, 0.0)
    assert m0.atoms == tuple(range(10))
    if log.events:
        t1 = log.events[0][0]
        m1 = empirical_measure(log, t1)
        trees = [measure_tree(m1, i) for i in m1.atoms]
        cherries = [a for a in trees if not a.is_leaf]
        assert len(m1.atoms) == 9
        assert len(cherries) == 1
        assert cherries[0].time == t1
    with pytest.raises(ValueError):
        empirical_measure(log, 4.0)
    for bad in (math.nan, -0.5):
        with pytest.raises(ValueError, match="nonnegative"):
            empirical_measure(log, bad)


def test_constant_kernel_cluster_shapes_follow_yule_harding():
    # under K = 1 the merging pair is uniform over the live clusters, so given
    # its leaf count n a cluster's shape follows the Yule-Harding law at every
    # N (Harding 1971): P(tau) = 2^(n-1-q(tau)) / prod_v (n_v - 1), the
    # normalised shape weight of the constant kernel's limit cells
    cfg = SimConfig.monodisperse(10_000, CONSTANT, 2.0)
    rng_at = replica_stream(77, 0)
    counts = Counter()
    for replica in range(40):
        m = empirical_measure(simulate(cfg, rng_at(replica)), 2.0)
        counts.update(m.shapes[m.shape[i]] for i in m.atoms)
    for n in (4, 5, 6, 7):
        shapes = shapes_with_leaves(n)
        observed = np.array([counts[s] for s in shapes])
        weights = np.array([_shape_weight("constant", s) for s in shapes])
        p = stats.chisquare(observed, observed.sum() * weights / weights.sum()).pvalue
        assert p > 0.001, (n, observed.tolist(), p)


def test_coupled_two_particles_law():
    # N=2 coupled and direct share the same single-exponential law
    replicas = 20000
    cfg = SimConfig((1.0, 1.0), CONSTANT, 1.0)
    alive = sum(
        not simulate_coupled(cfg, rng_for(9, r)).events for r in range(replicas))
    expected = math.exp(-0.5)
    se = math.sqrt(expected * (1 - expected) / replicas)
    assert abs(alive / replicas - expected) <= 4 * se


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("name, horizon", [("constant", 2.0), ("product", 0.5),
                                           ("additive", 0.8)])
def test_coupled_construction_matches_the_reference(name, horizon, n):
    kernel = builtin(name)
    configs = (SimConfig.monodisperse(n, kernel, horizon),
               SimConfig(tuple(1.0 + k % 3 for k in range(n)), kernel, horizon / 3))
    merged = 0
    for cfg in configs:
        for r in range(1000):
            log = simulate_coupled(cfg, rng_for(21, r))
            assert log.events == reference_simulate_coupled(cfg, rng_for(21, r)).events
            merged += len(log.events)
    assert merged > 1000


def test_coupled_runs_to_completion():
    cfg = SimConfig.monodisperse(8, CONSTANT, 1000.0)
    log = simulate_coupled(cfg, rng_for(10))
    assert len(log.events) == 7
    m = empirical_measure(log, 1000.0)
    assert m.atoms == (14,)
    assert m.mass[14] == measure_tree(m, 14).mass == 8.0


@pytest.mark.parametrize("name", ["additive", "product"])
def test_first_two_merges_follow_the_coupled_construction(name):
    # the law past the first event, across several phi classes: the labelled
    # pairs of the first two merges (a run with fewer merges is its own,
    # shorter sequence) by a chi-square contingency, and the second merge
    # time by KS, against the exact coupled construction.  The horizon,
    # seed, streams, replica count and p > 0.001 were fixed before the
    # first run.  t = 0.3 is past the product kernel's mean-field gelation
    # time, 0.26, which does not bound N = 5
    cfg = SimConfig((1.0, 1.0, 2.0, 2.0, 3.0), builtin(name), 0.3, allow_gelation=True)
    replicas = 20000
    samples = []
    for sim, stream in ((simulate, 17), (simulate_coupled, 19)):
        rng_at = replica_stream(32, stream)
        firsts = [sim(cfg, rng_at(r)).events[:2] for r in range(replicas)]
        samples.append((Counter(tuple((i, j) for _, i, j in rows) for rows in firsts),
                        [rows[1][0] for rows in firsts if len(rows) == 2]))
    (pairs, times), (want_pairs, want_times) = samples
    keys = sorted(pairs.keys() | want_pairs.keys())
    table = [[pairs[k] for k in keys], [want_pairs[k] for k in keys]]
    assert len(keys) > 40
    assert stats.chi2_contingency(table).pvalue > 0.001
    assert stats.ks_2samp(times, want_times).pvalue > 0.001


def test_exchangeability_mass_relabeling():
    # permuting the initial mass vector leaves functional laws unchanged
    from scipy.stats import ks_2samp

    masses = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
    perm = (3.0, 2.0, 1.0, 3.0, 2.0, 1.0)
    f = MassCutoff(2.0)
    samples = []
    for ms, stream in ((masses, 31), (perm, 37)):
        cfg = SimConfig(ms, builtin("additive"), 0.5)
        vals = []
        for r in range(4000):
            log = simulate(cfg, rng_for(12, r, stream))
            vals.append(evaluate_functional(empirical_measure(log, 0.5), f))
        samples.append(vals)
    assert ks_2samp(samples[0], samples[1]).pvalue > 0.001


def test_functionals():
    cherry = shape_node(LEAF, LEAF)

    def value(f, tree):
        # f on one tree, read from its time_boxes declaration
        c, boxes = f.time_boxes(tree.shape, tree.mass)
        times = [v.time for v in preorder(tree) if not v.is_leaf]
        inside = boxes is None or all(lo <= s <= hi for (lo, hi), s in zip(boxes, times))
        got = c if inside else 0.0
        assert got == reference_value(f, tree), f
        return got

    leaf = hist_leaf(1.0)
    node = hist_node(0.5, hist_leaf(1.0), hist_leaf(1.0))
    assert value(ShapeIndicator(LEAF), leaf) == 1.0
    assert value(ShapeIndicator(LEAF), node) == 0.0
    assert value(ShapeIndicator(cherry), node) == 1.0
    box = ShapeTimeBoxIndicator(cherry, ((0.2, 0.7),))
    assert value(box, node) == 1.0
    assert value(ShapeTimeBoxIndicator(cherry, ((0.6, 0.7),)), node) == 0.0
    assert value(MassCutoff(3.0), node) == 1.0
    assert value(MassCutoff(1.5), node) == 0.5
    assert value(MassCutoff(0.5), node) == 0.0
    prod = FunctionalProduct((ShapeIndicator(cherry), MassCutoff(1.5)))
    assert value(prod, node) == 0.5
    assert value(prod, leaf) == 0.0
    assert value(ConstantOne(), node) == 1.0
    # worker pools receive functionals pickled: equality must survive it
    assert value(pickle.loads(pickle.dumps(ShapeIndicator(cherry))), node) == 1.0
    back = pickle.loads(pickle.dumps(cherry))
    assert back == cherry and hash(back) == hash(cherry)


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
    cfg = SimConfig.monodisperse(30, CONSTANT, 1.0)
    log = simulate(cfg, rng_for(13))
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


# replica indices that cross the 64-bit words of Philox's counter
REPLICAS = (0, 7, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 3 * 2 ** 64 + 9)


def test_rng_for_matches_the_jumped_reference():
    for seed in (0, 1, 1004, 2 ** 40):
        for stream in (0, 7, 11, 13):
            for replica in REPLICAS:
                got = rng_for(seed, replica, stream)
                want = reference_rng_for(seed, replica, stream)
                assert np.array_equal(got.bit_generator.random_raw(8),
                                      want.bit_generator.random_raw(8)), \
                    (seed, stream, replica)
                assert got.random() == want.random()


def test_reseated_replica_stream_matches_rng_for():
    # one Philox, reseated per replica, draws what a fresh rng_for draws:
    # also when the replica before it left a partial block of four words
    # (random_raw(3)) or half a word pending for a 32-bit draw
    leftovers = (lambda g: None,
                 lambda g: g.bit_generator.random_raw(3),
                 lambda g: g.integers(2 ** 32, dtype=np.uint32))
    for seed in (0, 1, 1004, 2 ** 40):
        for stream in (0, 7, 11, 13):
            at = replica_stream(seed, stream)
            for replica in REPLICAS:
                for leave in leftovers:
                    leave(at(replica + 1))
                    got, want = at(replica), rng_for(seed, replica, stream)
                    assert np.array_equal(got.bit_generator.random_raw(8),
                                          want.bit_generator.random_raw(8)), \
                        (seed, stream, replica)
                    assert np.array_equal(got.integers(2 ** 32, size=3, dtype=np.uint32),
                                          want.integers(2 ** 32, size=3, dtype=np.uint32))
                    assert got.random() == want.random()
    at = replica_stream(3, 0)
    for replica in (-1, 2 ** 128):
        with pytest.raises(ValueError, match="replica"):
            at(replica)


def test_rng_for_refuses_replicas_outside_its_range():
    # Philox.jumped wraps mod 2^128: 2^128 would alias replica 0, -1 the last
    last = 2 ** 128 - 1
    assert rng_for(3, last).random() == reference_rng_for(3, last).random()
    for replica in (-1, 2 ** 128):
        with pytest.raises(ValueError, match="replica"):
            rng_for(3, replica)


def test_rng_for_refuses_arguments_that_are_not_integers():
    # int() truncated them: rng_for(1.5, 2.7) drew what rng_for(1, 2) draws
    for name, args in (("seed", (1.5, 2)), ("replica", (1, 2.7)),
                       ("stream", (1, 2, 3.0)), ("seed", ("1", 2))):
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            rng_for(*args)
    with pytest.raises(TypeError, match="^seed must be an integer"):
        replica_stream(1.0, 0)
    with pytest.raises(TypeError, match="^stream must be an integer"):
        replica_stream(1, 0.5)
    at = replica_stream(1, 0)
    with pytest.raises(TypeError, match="^replica must be an integer"):
        at(2.0)
    # integers of any integer type still seat the same stream
    assert rng_for(np.int64(1), np.uint8(2), True).random() == rng_for(1, 2, 1).random()


def test_replica_draws_do_not_depend_on_earlier_replicas():
    # bidisperse additive: merged masses raise the majorant constant c, so a
    # run that saw another run's masses would draw differently
    cfg = SimConfig((0.1, 0.7) * 100, builtin("additive"), 1.0)
    first = simulate(cfg, rng_for(23, 37))
    for r in range(37):
        simulate(cfg, rng_for(23, r))
    again = simulate(cfg, rng_for(23, 37))
    assert first.events == again.events and first.proposals == again.proposals
    fresh = SimConfig((0.1, 0.7) * 100, builtin("additive"), 1.0)
    assert simulate(fresh, rng_for(23, 37)).events == first.events


def test_config_pickles_without_its_sampler_start():
    cfg = SimConfig.monodisperse(1000, CONSTANT, 0.5)
    size = len(pickle.dumps(cfg))
    log = simulate(cfg, rng_for(24))
    empirical_measure(log, 0.5)
    assert len(pickle.dumps(cfg)) == size
    back = pickle.loads(pickle.dumps(log))
    assert back.config == cfg and back.events == log.events
    assert simulate(back.config, rng_for(24)).events == log.events


CHERRY = shape_node(LEAF, LEAF)
BALANCED4 = shape_node(CHERRY, CHERRY)
CATERPILLAR4 = shape_node(LEAF, shape_node(LEAF, CHERRY))
BUILTINS = (
    ShapeIndicator(LEAF),
    ShapeIndicator(CHERRY),
    ShapeIndicator(BALANCED4),
    ShapeTimeBoxIndicator(CHERRY, ((0.3, 1.2),)),
    # equal-size internal children, which must share their boxes
    ShapeTimeBoxIndicator(BALANCED4, ((0.5, 3.0), (0.2, 0.9), (0.2, 0.9))),
    ShapeTimeBoxIndicator(CATERPILLAR4, ((0.6, 3.0), (0.2, 2.5), (0.0, 1.5))),
    MassCutoff(1.5),
    MassCutoff(2.5),
    ConstantOne(),
    FunctionalProduct((ShapeIndicator(CHERRY), MassCutoff(1.2))),
    FunctionalProduct((MassCutoff(3.0), ShapeTimeBoxIndicator(BALANCED4, (
        (0.0, 3.0), (0.3, 1.0), (0.3, 1.0))))),
    FunctionalProduct(()),
)


@given(st.sampled_from(("additive-bidisperse", "constant-mono")),
       st.integers(min_value=2, max_value=60),
       st.integers(min_value=0, max_value=2 ** 20),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_flat_functionals_match_the_trees(case, n, replica, fraction):
    if case == "additive-bidisperse":
        cfg = SimConfig((0.1, 0.7) * (n // 2) + (0.1,) * (n % 2),
                        builtin("additive"), 2.0)
    else:
        cfg = SimConfig.monodisperse(n, CONSTANT, 3.0)
    log = simulate(cfg, rng_for(29, replica))
    t = fraction * cfg.horizon
    m = empirical_measure(log, t)
    assert len(m.atoms) == n - bisect.bisect_right(log.events, t, key=lambda row: row[0])
    trees = reference_atoms(log, t)
    assert tuple(measure_tree(m, i) for i in m.atoms) == trees
    for f in BUILTINS:
        values = [reference_value(f, tree) for tree in trees]
        assert evaluate_functional(m, f).hex() == (m.weight * sum(values)).hex(), f


def test_time_boxes_on_equal_size_subtrees_follow_the_history():
    # node 4 = (2.0, 2.0) at 0.1, node 5 = (1.0, 1.0) at 0.2: the history's
    # text puts node 5 first, against the id order that the flat arrays read;
    # with equal boxes on the two cherries both orders give the same value
    from coagtree.simulate import EventLog

    cfg = SimConfig((2.0, 2.0, 1.0, 1.0), CONSTANT, 1.0)
    log = EventLog(cfg, ((0.1, 0, 1), (0.2, 2, 3), (0.5, 4, 5)))
    m = empirical_measure(log, 1.0)
    tree = measure_tree(m, 6)
    tree_times = [v.time for v in preorder(tree) if not v.is_leaf]
    assert tree_times == [0.5, 0.2, 0.1] and m.preorder_times(6) == [0.5, 0.1, 0.2]
    both = ShapeTimeBoxIndicator(BALANCED4, ((0.0, 1.0), (0.0, 0.3), (0.0, 0.3)))
    late = ShapeTimeBoxIndicator(BALANCED4, ((0.0, 1.0), (0.15, 0.3), (0.15, 0.3)))
    assert evaluate_functional(m, both) == 0.25 == reference_value(both, tree) / 4
    assert evaluate_functional(m, late) == 0.0 == reference_value(late, tree)
    with pytest.raises(ValueError, match="same boxes"):
        ShapeTimeBoxIndicator(BALANCED4, ((0.0, 1.0), (0.15, 0.3), (0.0, 0.15)))


def test_builtins_read_no_trees():
    # the package has no tree object to build (test_imports.py keeps it so):
    # the runs read the flat arrays only
    from coagtree.lln import _replica_values, tightness_diagnostic

    functionals = tuple((str(k), f) for k, f in enumerate(BUILTINS))
    values, events, proposals = _replica_values(
        CONSTANT, (1.0,) * 50, 3.0, 31, 0, 0, 5, functionals)
    assert values.shape == (5, len(functionals)) and 0 < events <= proposals
    log = simulate(SimConfig.monodisperse(50, CONSTANT, 3.0), rng_for(0))
    m = empirical_measure(log, 3.0)
    assert 0.0 < tightness_diagnostic(m, 2) < 1.0
    assert all(type(i) is int for i in m.atoms)
