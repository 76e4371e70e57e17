"""Binary merger trees: shapes, symmetry counts, and the history text format.

A *shape* is an unlabeled binary tree, immutable and kept in a canonical form
(children sorted under a fixed total order) so that structural equality is
insensitive to child order.  A merger history is no object here: it is its
leaf masses plus ``(time, left, right)`` merge rows, row k creating node
``len(masses) + k``, the form that :mod:`coagtree.simulate` records.
:func:`history_text` writes that form as canonical text and :func:`parse`
reads text back into it.
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
        return _shape_from_preorder, ([v.is_leaf for v in preorder(self)],)


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
# basic functionals on trees


def symmetry_exponent(tau: TreeShape) -> int:
    """Number of internal nodes whose two child subtrees are equal shapes."""
    return sum(1 for v in preorder(tau) if not v.is_leaf and v.left == v.right)


# ---------------------------------------------------------------------------
# pre-order: node times and time boxes are listed parent before children


def preorder(node) -> Iterator:
    """Nodes of a shape, parent before children and left before right."""
    stack = [node]
    while stack:
        v = stack.pop()
        yield v
        if not v.is_leaf:
            stack += (v.right, v.left)


# ---------------------------------------------------------------------------
# text format: leaf = decimal mass, node = "(" child "," child ")" "@" time;
# whitespace is allowed before and after every token

_NODE_TEXT = "(%s,%s)@%r"  # left text, right text, merge time


def history_text(masses, events) -> tuple:
    """The text of a merger forest from its leaf masses and its merges.

    ``events`` are ``(time, left, right)`` rows, children before parents (as
    time order is), and row k creates node ``len(masses) + k``.  Returns, per
    row, its two children's text in the row's order, and the text of each
    history alive after the last row, by ascending node id.  Each text is
    canonical: a live node carries (leaf count, text), and the smaller of
    two children is written first.
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


def serialize(history) -> str:
    """The canonical text of one history, ``(masses, events)`` as
    :func:`parse` returns it; ``TreeError`` unless the merges leave exactly
    one tree."""
    texts = history_text(*history)[1]
    if len(texts) != 1:
        raise TreeError(f"serialize takes one history, not a forest of {len(texts)}")
    return texts[0]


# a token is a run of number characters or any other single character; the
# group leaves out the whitespace before it
_NUMBER = re.compile(r"[\d+\-.eE]+")
_TOKEN = re.compile(r"\s*(%s|\S)" % _NUMBER.pattern)


def parse(text: str, strict: bool = False) -> tuple:
    """Read the history text format into ``(masses, events)``; the inverse of
    :func:`serialize` on canonical text.

    ``masses`` lists the leaf masses in text order.  ``events`` lists the
    merges as ``(time, left, right)`` rows, children before parents and
    ``left`` the child written first; row k creates node ``len(masses) + k``.
    Masses and times must be positive and finite, and no child may merge
    after its parent.  With ``strict=True``, equal times anywhere in the
    tree are rejected (simulation output never produces ties).
    """
    tokens = _TOKEN.findall(text)
    n = len(tokens)
    k = 0  # the next token
    # each internal node has its own "(", so in accepted text this is the
    # leaf count, and the first internal node's id
    n_leaves = tokens.count("(") + 1
    # One entry per open "(": False while its first child is being read,
    # True while its second is.  Finished subtrees wait on ``done`` as
    # (node id, merge time), a leaf's time 0.0.
    open_nodes: list[bool] = []
    done: list[tuple] = []
    masses: list[float] = []
    events: list[tuple] = []
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
        done.append((len(masses), 0.0))
        masses.append(val)
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
            if not 0 < t < math.inf or a[1] > t or b[1] > t:
                raise ParseError(_bad_merge(masses, events, n_leaves, a, b, t),
                                 _position(text, k - 1, end=True))
            done.append((n_leaves + len(events), t))
            events.append((t, a[0], b[0]))
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
    if strict and len({row[0] for row in events}) != len(events):
        raise ParseError("duplicate merge times under strict validation", 0)
    return masses, events


def _bad_merge(masses: list, events: list, n_leaves: int, a: tuple, b: tuple,
               t: float) -> str:
    """Why children ``a`` and ``b``, (node id, merge time), cannot merge at
    ``t``: a time that is not positive and finite, or a child merged later.
    Of two later children, the one first in canonical order is named."""
    if not 0 < t < math.inf:
        return "merge time must be positive and finite"
    late = [child for child in (a, b) if child[1] > t]
    if len(late) == 2:
        # both children's text, from the rows so far and this merge; leaves
        # not read yet get a stand-in mass, as no row reads them
        pad = [1.0] * (n_leaves - len(masses))
        texts = history_text(masses + pad, events + [(t, a[0], b[0])])[0][-1]
        # canonical order: (leaf count, text), a text having one "," per merge
        if (texts[1].count(","), texts[1]) < (texts[0].count(","), texts[0]):
            late.reverse()
    return f"non-monotone times: child at {late[0][1]} above parent at {t}"


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
