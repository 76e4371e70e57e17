import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from coagtree.trees import (
    LEAF,
    HistoricalTree,
    ParseError,
    TreeError,
    TreeShape,
    clusters_alive_at,
    count_leaves,
    cross_interaction_rate,
    distinct_labelings,
    edge_intervals,
    epsilon,
    forget_labels,
    forget_times,
    hist_leaf,
    hist_node,
    internal_interaction_rate,
    kernel_product,
    mass,
    parse,
    serialize,
    shape_node,
    shape_of,
    shapes_up_to,
    shapes_with_leaves,
    symmetry_exponent,
)
from coagtree.kernels import builtin

CONSTANT = builtin("constant")
ADDITIVE = builtin("additive")


def cherry_shape():
    return shape_node(LEAF, LEAF)


def random_tree(rng, n_leaves, horizon=1.0):
    """Uniform-ish random historical tree by sequential merging."""
    import numpy as np

    nodes = [hist_leaf(float(rng.uniform(0.5, 3.0))) for _ in range(n_leaves)]
    times = np.sort(rng.uniform(0.0, horizon, size=n_leaves - 1))
    for t in times:
        i, j = rng.choice(len(nodes), size=2, replace=False)
        a, b = nodes[max(i, j)], nodes[min(i, j)]
        nodes = [x for k, x in enumerate(nodes) if k not in (i, j)]
        nodes.append(hist_node(float(t), a, b))
    return nodes[0]


# ---------------------------------------------------------------------------
# shapes and counting


def test_leaf_counts():
    assert count_leaves(LEAF) == 1
    three = shape_node(LEAF, cherry_shape())
    assert count_leaves(three) == 3
    deep = LEAF
    for _ in range(3):
        deep = shape_node(deep, deep)
    assert count_leaves(deep) == 8


def test_shape_enumeration_counts():
    # Wedderburn-Etherington numbers
    assert [len(shapes_with_leaves(n)) for n in range(1, 7)] == [1, 1, 1, 2, 3, 6]


def test_symmetry_exponent():
    assert symmetry_exponent(LEAF) == 0
    assert symmetry_exponent(cherry_shape()) == 1
    assert symmetry_exponent(shape_node(LEAF, cherry_shape())) == 1
    two_cherries = shape_node(cherry_shape(), cherry_shape())
    assert symmetry_exponent(two_cherries) == 3


def test_epsilon():
    assert epsilon(cherry_shape()) == 0.5
    assert epsilon(shape_node(LEAF, cherry_shape())) == 1.0
    assert epsilon(shape_node(cherry_shape(), cherry_shape())) == 0.5
    with pytest.raises(TreeError):
        epsilon(LEAF)


@pytest.mark.parametrize("n", range(1, 7))
def test_labeling_counts_and_fibers(n):
    # labelings of each n-leaf shape come in fibers of size 2^q; total over
    # shapes of n!/2^q labeled trees
    total = 0
    for shape in shapes_with_leaves(n):
        q = symmetry_exponent(shape)
        labelings = distinct_labelings(shape, list(range(n)))
        assert len(labelings) == math.factorial(n) // 2 ** q
        total += len(labelings)
    if n <= 4:
        # total labeled tree count: (2n-3)!! for n >= 2
        expected = 1 if n == 1 else math.prod(range(1, 2 * n - 2, 2))
        assert total == expected


def test_shape_canonicalization_is_order_free():
    a = shape_node(LEAF, shape_node(LEAF, LEAF))
    b = shape_node(shape_node(LEAF, LEAF), LEAF)
    assert a == b
    assert a.serial == b.serial


# ---------------------------------------------------------------------------
# historical trees


def test_mass_additivity():
    assert mass(hist_leaf(1.0)) == 1.0
    node = hist_node(0.3, hist_leaf(1.0), hist_leaf(2.0))
    assert mass(node) == 3.0
    chain = hist_node(0.6, node, hist_leaf(1.0))
    assert mass(chain) == 4.0


def test_time_monotonicity_enforced():
    inner = hist_node(0.5, hist_leaf(1.0), hist_leaf(1.0))
    with pytest.raises(TreeError):
        hist_node(0.3, inner, hist_leaf(1.0))
    with pytest.raises(TreeError):
        hist_leaf(-1.0)


def test_shape_of():
    assert shape_of(hist_leaf(5.0)) == LEAF
    cherry = hist_node(0.3, hist_leaf(1.0), hist_leaf(1.0))
    assert shape_of(cherry) == cherry_shape()
    three = hist_node(0.6, cherry, hist_leaf(1.0))
    assert shape_of(three) == shape_node(LEAF, cherry_shape())


def test_forget_times():
    assert forget_times(hist_leaf(2.5)) == 2.5
    node = hist_node(0.3, hist_leaf(1.0), hist_leaf(2.0))
    assert forget_times(node) == (1.0, 2.0)
    three = hist_node(0.7, hist_node(0.2, hist_leaf(1.0), hist_leaf(1.0)),
                      hist_leaf(1.0))
    assert forget_times(three) == (1.0, (1.0, 1.0))


def test_forget_labels_drops_labels_only():
    labeled = hist_node(0.4, hist_leaf(1.0, label=3), hist_leaf(2.0, label=7))
    plain = forget_labels(labeled)
    assert plain == hist_node(0.4, hist_leaf(1.0), hist_leaf(2.0))
    assert all(v.label is None for v in plain.walk() if v.is_leaf)


# ---------------------------------------------------------------------------
# edge intervals


def test_edge_intervals_leaf():
    (e,) = edge_intervals(hist_leaf(2.0), 1.0)
    assert (e.mass, e.birth, e.death) == (2.0, 0.0, 1.0)


def test_edge_intervals_cherry():
    cherry = hist_node(0.4, hist_leaf(1.0), hist_leaf(1.0))
    ivs = edge_intervals(cherry, 1.0)
    assert len(ivs) == 3
    assert sorted((e.mass, e.birth, e.death) for e in ivs) == [
        (1.0, 0.0, 0.4), (1.0, 0.0, 0.4), (2.0, 0.4, 1.0)]


def test_edge_intervals_two_level():
    xi = hist_node(0.7, hist_node(0.2, hist_leaf(1.0), hist_leaf(1.0)),
                   hist_leaf(1.0))
    ivs = edge_intervals(xi, 1.0)
    assert len(ivs) == 5
    # children of the later node die exactly at its time
    deaths = sorted(e.death for e in ivs)
    assert deaths == [0.2, 0.2, 0.7, 0.7, 1.0]
    with pytest.raises(TreeError):
        edge_intervals(xi, 0.5)


def test_edge_intervals_mass_time_identity():
    import numpy as np

    rng = np.random.default_rng(0)
    for _ in range(20):
        xi = random_tree(rng, int(rng.integers(2, 8)))
        ivs = edge_intervals(xi, 1.0)
        assert len(ivs) == 2 * xi.n_leaves - 1
        lhs = sum(e.mass * (e.death - e.birth) for e in ivs)
        # integral of total live mass over (0, 1): piecewise constant = mass * 1
        assert lhs == pytest.approx(xi.mass * 1.0, rel=1e-12)
        for s in rng.uniform(0, 1, size=5):
            covering = sum(1 for e in ivs if e.birth <= s < e.death)
            assert covering == len(clusters_alive_at(xi, s))


# ---------------------------------------------------------------------------
# kernel products and interaction rates


def test_kernel_product():
    assert kernel_product(hist_leaf(3.0), ADDITIVE) == 1.0
    cherry = hist_node(0.3, hist_leaf(1.0), hist_leaf(1.0))
    assert kernel_product(cherry, builtin("product")) == 1.0
    chain = hist_node(0.6, hist_node(0.2, hist_leaf(1.0), hist_leaf(1.0)),
                      hist_leaf(1.0))
    assert kernel_product(chain, ADDITIVE) == (1 + 1) * (2 + 1)


def test_internal_interaction_rate():
    assert internal_interaction_rate(hist_leaf(1.0), 0.5, CONSTANT) == 0.0
    cherry = hist_node(0.4, hist_leaf(1.0), hist_leaf(1.0))
    assert internal_interaction_rate(cherry, 0.2, CONSTANT) == 1.0
    assert internal_interaction_rate(cherry, 0.6, CONSTANT) == 0.0


def test_cross_interaction_rate():
    cherry = hist_node(0.4, hist_leaf(1.0), hist_leaf(1.0))
    leaf = hist_leaf(2.0)
    # before the merge: two crossing pairs; after: one
    assert cross_interaction_rate(cherry, leaf, 0.2, CONSTANT) == 2.0
    assert cross_interaction_rate(cherry, leaf, 0.6, CONSTANT) == 1.0


# ---------------------------------------------------------------------------
# serialization


def test_serialize_examples():
    assert serialize(hist_leaf(1.0)) == "1.0"
    node = hist_node(0.4, hist_leaf(1.0), hist_leaf(2.0))
    assert serialize(node) == "(1.0,2.0)@0.4"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse("(1.0,2.0")
    with pytest.raises(ParseError):
        parse("(1.0,2.0)")
    with pytest.raises(ParseError):
        parse("1.0 junk")
    with pytest.raises(ParseError):
        parse("(-1.0,2.0)@0.4")
    # non-monotone times rejected
    with pytest.raises(ParseError):
        parse("((1.0,1.0)@0.9,1.0)@0.4")


def test_parse_strict_rejects_ties():
    text = "((1.0,1.0)@0.4,1.0)@0.4"
    parse(text)
    with pytest.raises(ParseError):
        parse(text, strict=True)


def test_deep_caterpillar_round_trips():
    # deeper than the interpreter's default recursion limit of 1000
    n = 1500
    tree = hist_leaf(1.0)
    for k in range(1, n):
        tree = hist_node(k / 1000.0, tree, hist_leaf(1.0 + k % 3))
    text = serialize(tree)
    assert serialize(parse(text)) == text
    assert serialize(parse(text, strict=True)) == text
    assert len(tree.internal_nodes()) == n - 1
    assert tree.n_leaves == n
    assert tree.mass == sum(1.0 + k % 3 for k in range(n))
    assert shape_of(tree).n_leaves == n
    assert parse(text) == tree
    assert hash(parse(text)) == hash(tree)
    assert len(edge_intervals(tree, 2.0)) == 2 * n - 1
    assert forget_labels(tree) == tree
    # forget_times: the leaf sorts first at every level (nested tuples compare
    # recursively, so walk down instead of using ==)
    pairs = forget_times(tree)
    for k in range(n - 1, 1, -1):
        assert pairs[0] == 1.0 + k % 3
        pairs = pairs[1]
    assert pairs == (1.0, 2.0)  # the first merge: equal leaf counts, by repr
    # between the last two merges: the leaf and the subtree below the root
    s = (n - 1.5) / 1000.0
    live = clusters_alive_at(tree, s)
    assert [v.n_leaves for v in live] == [1, n - 1]
    K = builtin("constant")
    assert internal_interaction_rate(tree, s, K) == 1.0
    assert cross_interaction_rate(tree, hist_leaf(1.0), s, K) == 2.0
    # the recursive density agrees with the product form; early merges keep
    # the leaves' survival factors from underflowing
    from coagtree.limit import density_product, density_recursive
    from coagtree.smoluchowski import MassSpectrum, solve

    early = hist_leaf(1.0)
    for k in range(1, n):
        early = hist_node(k * 1e-6, early, hist_leaf(1.0 + k % 3))
    path = solve(MassSpectrum.monodisperse(), K, 0.01)
    d = density_recursive(early, path, 0.01)
    assert d > 0.1
    assert d == pytest.approx(density_product(early, path, 0.01), rel=1e-9)


def test_round_trip_random_trees():
    import numpy as np

    rng = np.random.default_rng(42)
    for _ in range(1000):
        xi = random_tree(rng, int(rng.integers(1, 11)))
        assert parse(serialize(xi)) == xi


@st.composite
def shape_strategy(draw, max_leaves=8):
    n = draw(st.integers(min_value=1, max_value=max_leaves))
    shape = LEAF
    for _ in range(n - 1):
        shape = shape_node(shape, LEAF) if draw(st.booleans()) \
            else shape_node(LEAF, shape)
    return shape


@given(shape_strategy())
@settings(max_examples=100, deadline=None)
def test_canonicalization_idempotent(shape):
    rebuilt = shape
    if not shape.is_leaf:
        rebuilt = shape_node(shape.right, shape.left)  # swap at the root
    assert rebuilt == shape
    assert rebuilt.serial == shape.serial


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=100, deadline=None)
def test_round_trip_property(seed, n):
    import numpy as np

    xi = random_tree(np.random.default_rng(seed), n)
    back = parse(serialize(xi))
    assert back == xi
    assert [v.mass_value for v in back.walk() if v.is_leaf] == \
        [v.mass_value for v in xi.walk() if v.is_leaf]
    assert [v.time for v in back.walk() if not v.is_leaf] == \
        [v.time for v in xi.walk() if not v.is_leaf]
