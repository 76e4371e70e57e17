"""Binary merger trees: shapes, historical trees, symmetry counts, and a text format.

A *shape* is an unlabeled binary tree; a *historical tree* additionally carries
leaf masses and internal coagulation times.  Both are immutable and kept in a
canonical form (children sorted under a fixed total order) so that structural
equality is insensitive to child order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional


class TreeError(ValueError):
    pass


class ParseError(TreeError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True, eq=False)
class TreeShape:
    """Unlabeled binary tree; ``LEAF`` or an internal node with two children.

    Construct internal nodes through :func:`shape_node`, which sorts the
    children into canonical order.  ``n_leaves`` and the canonical text
    ``serial`` are set at construction from the children's own.  Two shapes
    are equal, and hash alike, when their serials are equal.
    """

    left: Optional["TreeShape"] = None
    right: Optional["TreeShape"] = None
    n_leaves: int = field(init=False)
    serial: str = field(init=False)

    def __post_init__(self):
        a, b = self.left, self.right
        leaf = a is None
        # frozen: the derived fields are written once, here
        object.__setattr__(self, "n_leaves", 1 if leaf else a.n_leaves + b.n_leaves)
        object.__setattr__(self, "serial", "1" if leaf else "{%s,%s}" % (a.serial, b.serial))

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def sort_key(self) -> tuple:
        return (self.n_leaves, self.serial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeShape):
            return NotImplemented
        return self.serial == other.serial

    def __hash__(self) -> int:
        return hash(self.serial)

    def __repr__(self) -> str:
        return f"TreeShape({self.serial})"


LEAF = TreeShape()


def shape_node(a: TreeShape, b: TreeShape) -> TreeShape:
    """Internal node with children in canonical order."""
    if b.sort_key() < a.sort_key():
        a, b = b, a
    return TreeShape(a, b)


def shapes_with_leaves(n: int) -> list[TreeShape]:
    """All canonical shapes with exactly ``n`` leaves."""
    if n < 1:
        return []
    if n == 1:
        return [LEAF]
    out = set()
    for k in range(1, n // 2 + 1):
        for a in shapes_with_leaves(k):
            for b in shapes_with_leaves(n - k):
                out.add(shape_node(a, b))
    return sorted(out, key=TreeShape.sort_key)


def shapes_up_to(n_max: int) -> list[TreeShape]:
    out: list[TreeShape] = []
    for n in range(1, n_max + 1):
        out.extend(shapes_with_leaves(n))
    return out


# ---------------------------------------------------------------------------
# historical trees


@dataclass(frozen=True, eq=False)
class HistoricalTree:
    """Merger history of one cluster: leaf masses plus internal merge times.

    A leaf holds a positive ``mass_value`` (and optionally an integer particle
    ``label``); an internal node holds the merge ``time`` and two children whose
    own times do not exceed it.  Instances are immutable; build nodes through
    :func:`hist_node` so children are stored canonically.

    ``n_leaves``, the total ``mass``, the canonical text ``serial`` (no
    labels) and the ``shape`` are set at construction from the children's
    own.  Two trees are equal when their serials are equal and so are their
    leaf labels in :meth:`walk` order; the hash reads the serial only.
    """

    mass_value: Optional[float] = None
    label: Optional[int] = None
    time: Optional[float] = None
    left: Optional["HistoricalTree"] = None
    right: Optional["HistoricalTree"] = None
    n_leaves: int = field(init=False)
    mass: float = field(init=False)
    serial: str = field(init=False)
    shape: TreeShape = field(init=False)

    def __post_init__(self):
        a, b = self.left, self.right
        if a is None:
            if self.mass_value is None or not self.mass_value > 0:
                raise TreeError("leaf mass must be positive")
            n_leaves, mass, shape = 1, self.mass_value, LEAF
            serial = repr(float(self.mass_value))
        else:
            if self.time is None or not self.time > 0:
                raise TreeError("merge time must be positive")
            for child in (a, b):
                if not child.is_leaf and child.time > self.time:
                    raise TreeError(
                        f"non-monotone times: child at {child.time} above parent at {self.time}"
                    )
            n_leaves, mass = a.n_leaves + b.n_leaves, a.mass + b.mass
            shape = shape_node(a.shape, b.shape)
            serial = f"({a.serial},{b.serial})@{float(self.time)!r}"
        put = object.__setattr__  # frozen: the derived fields are written once, here
        put(self, "n_leaves", n_leaves)
        put(self, "mass", mass)
        put(self, "serial", serial)
        put(self, "shape", shape)

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def sort_key(self) -> tuple:
        return (self.n_leaves, self.serial)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HistoricalTree):
            return NotImplemented
        return self.serial == other.serial and (
            [v.label for v in self.walk() if v.is_leaf]
            == [v.label for v in other.walk() if v.is_leaf])

    def __hash__(self) -> int:
        return hash(self.serial)

    def __repr__(self) -> str:
        return f"HistoricalTree({self.serial})"

    def walk(self) -> Iterator["HistoricalTree"]:
        """Post-order traversal (children before parent, left before right)."""
        out = []
        stack = [self]
        while stack:
            v = stack.pop()
            out.append(v)
            if not v.is_leaf:
                stack += (v.left, v.right)
        return reversed(out)

    def internal_nodes(self) -> list["HistoricalTree"]:
        return [v for v in self.walk() if not v.is_leaf]


def hist_leaf(mass: float, label: Optional[int] = None) -> HistoricalTree:
    return HistoricalTree(mass_value=float(mass), label=label)


def hist_node(time: float, a: HistoricalTree, b: HistoricalTree) -> HistoricalTree:
    """Internal node; children stored in canonical order."""
    if b.sort_key() < a.sort_key():
        a, b = b, a
    return HistoricalTree(time=float(time), left=a, right=b)


# ---------------------------------------------------------------------------
# basic functionals on trees


def count_leaves(x) -> int:
    return x.n_leaves


def mass(xi: HistoricalTree) -> float:
    return xi.mass


def symmetry_exponent(tau: TreeShape) -> int:
    """Number of internal nodes whose two child subtrees are equal shapes."""
    return sum(1 for v, _ in preorder(tau) if not v.is_leaf and v.left == v.right)


def epsilon(tau: TreeShape) -> float:
    """Symmetry correction: 1 if the two children differ, 1/2 if equal."""
    if tau.is_leaf:
        raise TreeError("epsilon undefined for a single leaf")
    return 0.5 if tau.left == tau.right else 1.0


def shape_of(xi: HistoricalTree) -> TreeShape:
    return xi.shape


def forget_times(xi: HistoricalTree):
    """Nested unordered pairs of masses (times and labels erased).

    Leaves map to a float; internal nodes map to a 2-tuple in canonical order:
    by leaf count, then by ``repr``.
    """
    done = []  # (value, its repr) of finished subtrees, children before parents
    for v in xi.walk():
        if v.is_leaf:
            value = float(v.mass_value)
            done.append((value, repr(value)))
            continue
        (b, rb), (a, ra) = done.pop(), done.pop()  # walk() yields left, right, parent
        if (v.right.n_leaves, rb) < (v.left.n_leaves, ra):
            a, ra, b, rb = b, rb, a, ra
        # repr of a nested tuple recurses, so the text is built here
        done.append(((a, b), f"({ra}, {rb})"))
    return done[0][0]


def forget_labels(xi: HistoricalTree) -> HistoricalTree:
    """Drop leaf labels; preserves masses and times, re-canonicalizes.

    The text format carries no labels, so a round trip through it drops them.
    """
    return parse(serialize(xi))


# ---------------------------------------------------------------------------
# lifetime intervals


@dataclass(frozen=True)
class EdgeInterval:
    mass: float
    birth: float
    death: float


def edge_intervals(xi: HistoricalTree, horizon: float) -> list[EdgeInterval]:
    """Lifetime interval of every sub-cluster of ``xi`` up to ``horizon``.

    A leaf is born at 0, a merged cluster at its merge time; each dies at its
    parent's merge time, the root at ``horizon``.  Post-order, one entry per
    node, 2*n_leaves - 1 entries in total.
    """
    if not xi.is_leaf and xi.time >= horizon:
        # child times never exceed their parent's, so the root is the latest
        raise TreeError(f"node time {xi.time} not below horizon {horizon}")
    out: list[EdgeInterval] = []
    stack = [(xi, float(horizon))]
    while stack:
        v, death = stack.pop()
        if v.is_leaf:
            out.append(EdgeInterval(v.mass, 0.0, death))
        else:
            out.append(EdgeInterval(v.mass, v.time, death))
            stack += ((v.left, v.time), (v.right, v.time))
    out.reverse()
    return out


def clusters_alive_at(xi: HistoricalTree, s: float) -> list[HistoricalTree]:
    """Maximal sub-clusters of ``xi`` already formed at time ``s``, left to right."""
    out = []
    stack = [xi]
    while stack:
        v = stack.pop()
        if v.is_leaf or v.time <= s:
            out.append(v)
        else:
            stack += (v.right, v.left)
    return out


def internal_interaction_rate(xi: HistoricalTree, s: float, kernel) -> float:
    """Half-sum of kernel values over ordered pairs of distinct live sub-clusters."""
    live = clusters_alive_at(xi, s)
    total = 0.0
    for i, a in enumerate(live):
        for j, b in enumerate(live):
            if i != j:
                total += kernel.evaluate(a.mass, b.mass)
    return 0.5 * total


def cross_interaction_rate(x1: HistoricalTree, x2: HistoricalTree, s: float, kernel) -> float:
    """Kernel sum over cross pairs of sub-clusters live in two disjoint trees."""
    total = 0.0
    for a in clusters_alive_at(x1, s):
        for b in clusters_alive_at(x2, s):
            total += kernel.evaluate(a.mass, b.mass)
    return total


def kernel_product(xi: HistoricalTree, kernel) -> float:
    """Product of kernel values over the merge events inside ``xi`` (1 for a leaf)."""
    out = 1.0
    for v in xi.internal_nodes():
        out *= kernel.evaluate(v.left.mass, v.right.mass)
    return out


# ---------------------------------------------------------------------------
# pre-order: node times and time boxes are listed parent before children


def preorder(node) -> Iterator[tuple]:
    """Nodes of a shape or historical tree, parent before children and left
    before right, as ``(node, parent)`` pairs.

    ``parent`` is the position of the node's parent among the internal nodes
    in this order (-1 for the root): the index of its time in a pre-order
    time vector.
    """
    stack = [(node, -1)]
    internal = 0
    while stack:
        v, parent = stack.pop()
        yield v, parent
        if not v.is_leaf:
            stack += ((v.right, internal), (v.left, internal))
            internal += 1


def build_preorder(shape: TreeShape, masses, times) -> HistoricalTree:
    """Historical tree from leaf masses (left to right) and internal times in
    pre-order (each parent listed before its children)."""
    if len(masses) != shape.n_leaves:
        raise TreeError("need one mass per leaf")
    if len(times) != shape.n_leaves - 1:
        raise TreeError("need one time per internal node")
    mi = iter(masses)
    ti = iter(times)
    nodes = [(s, next(mi) if s.is_leaf else next(ti)) for s, _ in preorder(shape)]
    built: list[HistoricalTree] = []
    for s, value in reversed(nodes):
        if s.is_leaf:
            built.append(hist_leaf(value))
        else:
            built.append(hist_node(value, built.pop(), built.pop()))
    return built[0]


# ---------------------------------------------------------------------------
# labeled trees


def distinct_labelings(shape: TreeShape, labels: list[int]) -> set:
    """All distinct labeled trees of the given shape over ``labels``.

    Returns canonical nested frozensets; there are n!/2^q of them.
    """
    if len(labels) != shape.n_leaves:
        raise TreeError("label count must match leaf count")
    import itertools

    def key(s: TreeShape, perm: tuple) -> object:
        # canonical labeled-tree key: leaf -> label, node -> frozenset of keys
        if s.is_leaf:
            return perm[0]
        k = s.left.n_leaves
        return frozenset({key(s.left, perm[:k]), key(s.right, perm[k:])})

    return {key(shape, p) for p in itertools.permutations(labels)}


# ---------------------------------------------------------------------------
# text format: leaf = decimal mass, node = "(" child "," child ")" "@" time


def serialize(xi: HistoricalTree) -> str:
    return xi.serial


def parse(text: str, strict: bool = False) -> HistoricalTree:
    """Parse the tree text format; inverse of :func:`serialize` on canonical forms.

    With ``strict=True``, equal times anywhere in the tree are rejected
    (simulation output never produces ties).
    """
    pos = 0

    def error(msg: str):
        raise ParseError(msg, pos)

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def number() -> float:
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isdigit() or text[pos] in "+-.eE"):
            pos += 1
        if pos == start:
            error("expected a number")
        try:
            return float(text[start:pos])
        except ValueError:
            pos = start
            error(f"bad number {text[start:pos + 20]!r}")

    # One entry per open "(": False while its first child is being read,
    # True while its second is.  Finished subtrees wait on ``done``.
    open_nodes: list[bool] = []
    done: list[HistoricalTree] = []
    while True:
        skip_ws()
        if pos >= len(text):
            error("unexpected end of input")
        if text[pos] == "(":
            pos += 1
            open_nodes.append(False)
            continue
        val = number()
        if not val > 0:
            error("leaf mass must be positive")
        done.append(hist_leaf(val))
        while open_nodes and open_nodes[-1]:
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            pos += 1
            skip_ws()
            if pos >= len(text) or text[pos] != "@":
                error("expected '@' with a merge time")
            pos += 1
            t = number()
            b = done.pop()
            a = done.pop()
            try:
                done.append(hist_node(t, a, b))
            except TreeError as e:
                error(str(e))
            open_nodes.pop()
        if not open_nodes:
            break
        skip_ws()
        if pos >= len(text) or text[pos] != ",":
            error("expected ','")
        pos += 1
        open_nodes[-1] = True

    tree = done[0]
    skip_ws()
    if pos != len(text):
        error("trailing input")
    if strict:
        times = [v.time for v in tree.walk() if not v.is_leaf]
        # this also catches a child tied with its parent
        if len(times) != len(set(times)):
            raise ParseError("duplicate merge times under strict validation", 0)
    return tree
