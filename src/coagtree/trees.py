"""Binary merger trees: shapes, historical trees, symmetry counts, and a text format.

A *shape* is an unlabeled binary tree; a *historical tree* additionally carries
leaf masses and internal coagulation times.  Both are immutable and kept in a
canonical form (children sorted under a fixed total order) so that structural
equality is insensitive to child order.
"""

from __future__ import annotations

import math
import re
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


@dataclass(frozen=True, eq=False, slots=True)
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

    def __reduce__(self):
        # flat, so pickling a deep shape does not recurse once per level
        return _shape_from_preorder, ([v.is_leaf for v, _ in preorder(self)],)


LEAF = TreeShape()


def _shape_from_preorder(is_leaf: list) -> TreeShape:
    """Inverse of ``TreeShape.__reduce__``: leaf flags in pre-order."""
    done = []
    for leaf in reversed(is_leaf):  # children before parents, right before left
        done.append(LEAF if leaf else TreeShape(done.pop(), done.pop()))
    return done[0]


def shape_node(a: TreeShape, b: TreeShape) -> TreeShape:
    """Internal node with children in canonical order."""
    if (b.n_leaves, b.serial) < (a.n_leaves, a.serial):  # sort_key, inlined
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


@dataclass(frozen=True, eq=False, slots=True)
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
            mass = self.mass_value
            if mass is None or not 0 < mass < math.inf:
                raise TreeError("leaf mass must be positive and finite")
            n_leaves, shape, serial = 1, LEAF, repr(float(mass))
        else:
            t = self.time
            if t is None or not 0 < t < math.inf:
                raise TreeError("merge time must be positive and finite")
            for child in (a, b):
                if child.left is not None and child.time > t:
                    raise TreeError(
                        f"non-monotone times: child at {child.time} above parent at {t}"
                    )
            n_leaves, mass = a.n_leaves + b.n_leaves, a.mass + b.mass
            shape = shape_node(a.shape, b.shape)
            serial = _NODE_TEXT % (a.serial, b.serial, float(t))
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

    def __reduce__(self):
        # flat, so pickling a deep history does not recurse once per level
        tokens = [(v.mass_value, v.label) if v.is_leaf else v.time for v in self.walk()]
        return _history_from_postorder, (tokens,)

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


def _history_from_postorder(tokens: list) -> HistoricalTree:
    """Inverse of ``HistoricalTree.__reduce__``: a (mass, label) pair per leaf
    and a merge time per internal node, in :meth:`HistoricalTree.walk` order."""
    done = []
    for token in tokens:
        if isinstance(token, tuple):
            done.append(HistoricalTree(mass_value=token[0], label=token[1]))
        else:
            b = done.pop()
            done.append(HistoricalTree(time=token, left=done.pop(), right=b))
    return done[0]


def hist_leaf(mass: float, label: Optional[int] = None) -> HistoricalTree:
    return HistoricalTree(mass_value=float(mass), label=label)


def hist_node(time: float, a: HistoricalTree, b: HistoricalTree) -> HistoricalTree:
    """Internal node; children stored in canonical order."""
    if b.sort_key() < a.sort_key():
        a, b = b, a
    return HistoricalTree(time=float(time), left=a, right=b)


# ---------------------------------------------------------------------------
# basic functionals on trees


def symmetry_exponent(tau: TreeShape) -> int:
    """Number of internal nodes whose two child subtrees are equal shapes."""
    return sum(1 for v, _ in preorder(tau) if not v.is_leaf and v.left == v.right)


def epsilon(tau: TreeShape) -> float:
    """Symmetry correction: 1 if the two children differ, 1/2 if equal."""
    if tau.is_leaf:
        raise TreeError("epsilon undefined for a single leaf")
    return 0.5 if tau.left == tau.right else 1.0


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


# ---------------------------------------------------------------------------
# text format: leaf = decimal mass, node = "(" child "," child ")" "@" time;
# whitespace is allowed before and after every token

_NODE_TEXT = "(%s,%s)@%r"  # left text, right text, merge time


def serialize(xi: HistoricalTree) -> str:
    return xi.serial


def history_text(masses, events) -> tuple:
    """The text of a merger forest from its leaf masses and its merges, no
    tree built.

    ``events`` are ``(time, left, right)`` rows in time order, and row k
    creates node ``len(masses) + k``.  Returns, per row, its two children's
    text in the row's order, and the text of each history alive after the
    last row, by ascending node id.  Each text is the ``serial`` of that
    node's ``HistoricalTree``: a live node carries (leaf count, text), the
    tree's ``sort_key``, and the smaller of two children is written first.
    """
    live = {i: (1, repr(float(m))) for i, m in enumerate(masses)}
    children = []
    for node, (t, i, j) in enumerate(events, len(masses)):
        a, b = live.pop(i), live.pop(j)
        children.append((a[1], b[1]))
        if b < a:
            a, b = b, a
        live[node] = (a[0] + b[0], _NODE_TEXT % (a[1], b[1], float(t)))
    return children, [text for _, text in live.values()]


# a token is a run of number characters or any other single character; the
# group leaves out the whitespace before it
_NUMBER = re.compile(r"[\d+\-.eE]+")
_TOKEN = re.compile(r"\s*(%s|\S)" % _NUMBER.pattern)


def parse(text: str, strict: bool = False) -> HistoricalTree:
    """Parse the tree text format; inverse of :func:`serialize` on canonical forms.

    With ``strict=True``, equal times anywhere in the tree are rejected
    (simulation output never produces ties).
    """
    tokens = _TOKEN.findall(text)
    n = len(tokens)
    k = 0  # the next token
    # One entry per open "(": False while its first child is being read,
    # True while its second is.  Finished subtrees wait on ``done``.
    open_nodes: list[bool] = []
    done: list[HistoricalTree] = []
    times: list[float] = []
    while True:
        if k == n:
            raise ParseError("unexpected end of input", _position(text, k))
        tok = tokens[k]
        if tok == "(":
            k += 1
            open_nodes.append(False)
            continue
        try:
            val = float(tok)
        except ValueError:
            _not_a_number(text, tokens, k)
        k += 1
        if not 0 < val < math.inf:
            raise ParseError("leaf mass must be positive and finite",
                             _position(text, k - 1, end=True))
        done.append(HistoricalTree(mass_value=val))
        while open_nodes and open_nodes[-1]:
            if k == n or tokens[k] != ")":
                raise ParseError("expected ')'", _position(text, k))
            if k + 1 == n or tokens[k + 1] != "@":
                raise ParseError("expected '@' with a merge time", _position(text, k + 1))
            k += 3
            try:
                t = float(tokens[k - 1])
            except (IndexError, ValueError):
                _not_a_number(text, tokens, k - 1)
            b = done.pop()
            a = done.pop()
            if (b.n_leaves, b.serial) < (a.n_leaves, a.serial):
                a, b = b, a
            try:
                done.append(HistoricalTree(time=t, left=a, right=b))
            except TreeError as e:
                raise ParseError(str(e), _position(text, k - 1, end=True))
            times.append(t)
            open_nodes.pop()
        if not open_nodes:
            break
        if k == n or tokens[k] != ",":
            raise ParseError("expected ','", _position(text, k))
        k += 1
        open_nodes[-1] = True

    if k != n:
        raise ParseError("trailing input", _position(text, k))
    # this also catches a child tied with its parent
    if strict and len(times) != len(set(times)):
        raise ParseError("duplicate merge times under strict validation", 0)
    return done[0]


def _not_a_number(text: str, tokens: list, k: int):
    """``ParseError`` at the start of token ``k``, which ``float`` refused."""
    if k < len(tokens) and _NUMBER.fullmatch(tokens[k]):
        start = _position(text, k)
        raise ParseError(f"bad number {text[start:start + 20]!r}", start)
    raise ParseError("expected a number", _position(text, k))


def _position(text: str, k: int, end: bool = False) -> int:
    """Where token ``k`` starts (ends, with ``end``) in ``text``, or the end
    of the text when there are only ``k`` tokens."""
    for i, match in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return match.end(1) if end else match.start(1)
    return len(text)
