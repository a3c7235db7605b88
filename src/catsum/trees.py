"""Rooted plain and decorated trees, parsers and structural operations.

Trees are stored as parent arrays: index 0 is the root and every parent
precedes its children, so a pass in reverse index order visits every child
before its parent.  Any such layout is accepted, not only preorder.  Both
tree types share one base that checks the array and lists the children.  A
decorated tree attaches to each vertex a triple (color, relation, shift):

  color     white (+1), gray (0) or black (-1); white/black vertices carry
            a summation variable, gray ones only a condition
  relation  one of "eq", "le", "ge", "none"
  shift     a signed integer added to the right-hand side of the condition

The sum attached to a decorated tree does not depend on the order of
siblings, so the memoization key encodes each vertex as its decoration
followed by the sorted encodings of its children, built bottom-up in one
reverse-index pass (the AHU tree-isomorphism encoding).  Trees are
immutable; every structural edit returns a new tree, laid out in preorder.
One preorder walk (`_preorder`) lays out every tree built from child lists,
and one breadth-first walk (`_rooted`) roots every adjacency graph for
rerooting, centroids and free-tree enumeration.  A free tree's canonical
form is its parenthesis text from the canonical centroid with sorted
children, and its canonical layout is that text read back by `parse_plain`.
Every walk over a tree is a loop, so deep trees need no recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

WHITE, GRAY, BLACK = 1, 0, -1

REL_EQ, REL_LE, REL_GE, REL_NONE = "eq", "le", "ge", "none"
RELATIONS = (REL_EQ, REL_LE, REL_GE, REL_NONE)

COLOR_NAMES = {WHITE: "white", GRAY: "gray", BLACK: "black"}
COLOR_VALUES = {name: value for value, name in COLOR_NAMES.items()}

_FLIP_REL = {REL_EQ: REL_EQ, REL_NONE: REL_NONE, REL_LE: REL_GE, REL_GE: REL_LE}


class TreeSyntaxError(ValueError):
    """Malformed tree text; carries the offending index in the text as given."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TreeSchemaError(ValueError):
    """Malformed decorated-tree JSON."""


class NotHeightTwoError(ValueError):
    """The fringe subtree does not have height exactly 2."""


class PatternMismatchError(ValueError):
    """A height-2 fringe does not match any long-star pattern."""


@dataclass(frozen=True)
class Decoration:
    color: int
    rel: str
    shift: int

    def __post_init__(self):
        if self.color not in (WHITE, GRAY, BLACK):
            raise ValueError(f"invalid color {self.color}")
        if self.rel not in RELATIONS:
            raise ValueError(f"invalid relation {self.rel!r}")
        # The bytes that open this vertex's encoding in `canonical_key`.  Not
        # a field, so equality, hashing and repr are unaffected.
        object.__setattr__(self, "key_head", f"({self.color}{self.rel}{self.shift}".encode())

    def flipped(self) -> "Decoration":
        return Decoration(-self.color, _FLIP_REL[self.rel], -self.shift)


NULL_DECO_BLACK = Decoration(BLACK, REL_NONE, 0)
# The middles of long-star branches of each kind i, j, k (see `with_replaced_fringe`).
_BRANCH_MIDDLES = tuple(Decoration(WHITE, rel, 0) for rel in (REL_GE, REL_LE, REL_NONE))


class _lazy:
    """A value computed on first read and stored in the instance `__dict__`,
    where later reads find it before this non-data descriptor.  Unlike
    `functools.cached_property` before Python 3.12 it takes no lock: two
    threads racing on a first read both compute the same value."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class _RootedTree:
    """The parent array that both tree types share, checked on construction."""

    parents: tuple[int, ...]

    def __post_init__(self):
        parents = self.parents
        if not parents:
            raise ValueError("a tree needs at least one vertex")
        if parents[0] != -1:
            raise ValueError("vertex 0 must be the root (parent -1)")
        for v, p in enumerate(parents):
            if v and not 0 <= p < v:
                raise ValueError(f"vertex {v} has invalid parent {p}; parents must precede children")

    def __len__(self):
        return len(self.parents)

    @_lazy
    def children(self) -> tuple[tuple[int, ...], ...]:
        parents = self.parents
        out: list[list[int]] = [[] for _ in parents]
        for v in range(1, len(parents)):
            out[parents[v]].append(v)
        return tuple(tuple(c) for c in out)


@dataclass(frozen=True)
class PlainTree(_RootedTree):
    """Undecorated rooted tree, optionally carrying one half-edge at the root."""

    half_edge: bool = False


@dataclass(frozen=True)
class DecoratedTree(_RootedTree):
    decos: tuple[Decoration, ...]

    def __post_init__(self):
        super().__post_init__()
        if len(self.decos) != len(self.parents):
            raise ValueError("decoration count does not match vertex count")

    @_lazy
    def fringe_heights(self) -> tuple[int, ...]:
        """For each vertex, the height of its fringe subtree."""
        parents = self.parents
        out = [0] * len(parents)
        for v in range(len(parents) - 1, 0, -1):
            h = out[v] + 1
            if h > out[parents[v]]:
                out[parents[v]] = h
        return tuple(out)

    @_lazy
    def height(self) -> int:
        return self.fringe_heights[0]

    @_lazy
    def nongray_count(self) -> int:
        return sum(1 for d in self.decos if d.color != GRAY)

    @_lazy
    def leaves(self) -> tuple[int, ...]:
        """The nonroot vertices without children, in index order."""
        children = self.children
        return tuple(v for v in range(1, len(children)) if not children[v])

    def shift_sums(self) -> tuple[int, ...]:
        """For each vertex, the sum of the shifts over its fringe subtree."""
        out = [d.shift for d in self.decos]
        for v in reversed(range(len(self.parents))):
            if self.parents[v] >= 0:
                out[self.parents[v]] += out[v]
        return tuple(out)


# ---------------------------------------------------------------------------
# Parsing and rendering
# ---------------------------------------------------------------------------

HALF_EDGE_PREFIX = "halfedge:"


def parse_plain(text: str) -> PlainTree:
    """Parse the grammar `tree := "(" tree* ")"`, optional `halfedge:` prefix.

    Whitespace may precede the prefix and fill the tree, not split the prefix.
    """
    body = text.lstrip()
    half_edge = body.startswith(HALF_EDGE_PREFIX)
    offset = len(HALF_EDGE_PREFIX) if half_edge else 0
    stripped = "".join(body[offset:].split())
    parents: list[int] = []
    stack: list[int] = []
    for i, ch in enumerate(stripped):
        if ch == "(":
            parents.append(stack[-1] if stack else -1)
            if len(parents) > 1 and not stack:
                raise _syntax_error(text, "more than one root", offset + i)
            stack.append(len(parents) - 1)
        elif ch == ")":
            if not stack:
                raise _syntax_error(text, "unmatched ')'", offset + i)
            stack.pop()
        else:
            raise _syntax_error(text, f"unexpected character {ch!r}", offset + i)
    if stack:
        raise _syntax_error(text, "unclosed '('", offset + len(stripped))
    if not parents:
        raise _syntax_error(text, "empty tree", offset)
    return PlainTree(tuple(parents), half_edge)


def _syntax_error(text: str, message: str, i: int) -> TreeSyntaxError:
    """The error at index i of `text` with its whitespace removed, placed in `text`."""
    kept = [pos for pos, ch in enumerate(text) if not ch.isspace()]
    return TreeSyntaxError(message, kept[i] if i < len(kept) else len(text))


def plain_to_text(tree: PlainTree) -> str:
    parts: list[str] = []
    stack = [0]  # a vertex v to open, or ~v to close
    while stack:
        v = stack.pop()
        if v < 0:
            parts.append(")")
            continue
        parts.append("(")
        stack.append(~v)
        stack.extend(reversed(tree.children[v]))
    body = "".join(parts)
    return HALF_EDGE_PREFIX + body if tree.half_edge else body


def parse_decorated(data) -> DecoratedTree:
    """Validate the decorated-tree JSON schema (a string, bytes or parsed dict)."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TreeSchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "vertices" not in data:
        raise TreeSchemaError("expected an object with a 'vertices' array")
    vertices = data["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise TreeSchemaError("'vertices' must be a nonempty array")
    parents: list[int] = []
    decos: list[Decoration] = []
    for i, entry in enumerate(vertices):
        if not isinstance(entry, dict):
            raise TreeSchemaError(f"vertex {i} is not an object")
        try:
            parent = entry["parent"]
            color = entry["color"]
            rel = entry["rel"]
            shift = entry["k"]
        except KeyError as exc:
            raise TreeSchemaError(f"vertex {i} is missing field {exc}") from exc
        if not isinstance(parent, int) or isinstance(parent, bool):
            raise TreeSchemaError(f"vertex {i}: parent must be an integer")
        if i == 0:
            if parent != -1:
                raise TreeSchemaError("vertex 0 must have parent -1")
        elif not 0 <= parent < i:
            raise TreeSchemaError(
                f"vertex {i}: parent {parent} must be a smaller index (children after parents)"
            )
        if not isinstance(color, str) or color not in COLOR_VALUES:
            raise TreeSchemaError(f"vertex {i}: unknown color {color!r}")
        if rel not in RELATIONS:
            raise TreeSchemaError(f"vertex {i}: unknown relation {rel!r}")
        if isinstance(shift, str):
            try:
                shift = int(shift)
            except ValueError as exc:
                raise TreeSchemaError(f"vertex {i}: k is not an integer: {shift!r}") from exc
        if not isinstance(shift, int) or isinstance(shift, bool):
            raise TreeSchemaError(f"vertex {i}: k must be an integer or decimal string")
        parents.append(parent)
        decos.append(Decoration(COLOR_VALUES[color], rel, shift))
    return DecoratedTree(tuple(parents), tuple(decos))


# ---------------------------------------------------------------------------
# Canonical decoration, keys, involutions
# ---------------------------------------------------------------------------


def canonical_decorate(tree: PlainTree) -> DecoratedTree:
    """Proper 2-coloring by depth parity plus the standard decorations.

    The root gets ("eq", 0), or ("ge", 0) when the tree carries a half-edge;
    every other white vertex gets ("ge", 0) and every black vertex ("le", 0).
    """
    depths = [0] * len(tree)
    for v in range(1, len(tree)):
        depths[v] = depths[tree.parents[v]] + 1
    decos = []
    for v in range(len(tree)):
        color = WHITE if depths[v] % 2 == 0 else BLACK
        if v == 0:
            rel = REL_GE if tree.half_edge else REL_EQ
        else:
            rel = REL_GE if color == WHITE else REL_LE
        decos.append(Decoration(color, rel, 0))
    return DecoratedTree(tuple(tree.parents), tuple(decos))


def canonical_key(tree: DecoratedTree) -> bytes:
    """Memoization key, invariant under sibling permutation.

    A vertex encodes as its decoration's `key_head`, the sorted encodings of
    its children and b")"; the key is the root's encoding.  One pass in
    reverse index order finishes each vertex after all its children and
    hands its encoding to its parent's list.  `Engine` also keys its
    in-progress bookkeeping on it, and compares whole trees only when two
    on the reduction stack share a key (a color-symmetric tree and its swap).
    """
    parents = tree.parents
    decos = tree.decos
    pending: list[list[bytes] | None] = [None] * len(parents)
    for v in range(len(parents) - 1, 0, -1):
        kids = pending[v]
        if kids is None:
            enc = decos[v].key_head + b")"
        else:
            pending[v] = None  # release the children's encodings
            kids.sort()
            enc = decos[v].key_head + b"".join(kids) + b")"
        siblings = pending[parents[v]]
        if siblings is None:
            pending[parents[v]] = [enc]
        else:
            siblings.append(enc)
    kids = pending[0]
    if kids is None:
        return decos[0].key_head + b")"
    kids.sort()
    return decos[0].key_head + b"".join(kids) + b")"


def swap_colors(tree: DecoratedTree) -> DecoratedTree:
    """Exchange white and black everywhere, flipping relations and negating shifts.

    This renames the two families of summation variables into each other, so
    the associated sum is unchanged.  It is an involution.
    """
    return DecoratedTree(tree.parents, tuple(d.flipped() for d in tree.decos))


# ---------------------------------------------------------------------------
# Structural edits (all return new trees; indices refer to the input tree)
# ---------------------------------------------------------------------------


def _preorder(kids, root: int) -> tuple[list[int], list[int]]:
    """The vertices reachable from `root` through the child lists `kids`, in
    preorder with children in list order, and the parent of each as an index
    into that order (-1 for the root)."""
    order: list[int] = []
    parents: list[int] = []
    stack = [(root, -1)]  # (vertex, index of its parent in the order)
    while stack:
        v, p = stack.pop()
        idx = len(order)
        order.append(v)
        parents.append(p)
        for c in reversed(kids[v]):
            stack.append((c, idx))
    return order, parents


def _rebuild(kids, decos, root: int = 0) -> DecoratedTree:
    """The tree reachable from `root` through the child lists `kids`, with
    decorations `decos` (both indexed by vertex), in the layout of
    `_preorder`.  Every structural edit returns this layout, whatever the
    layout of its input."""
    order, parents = _preorder(kids, root)
    # From a list: tuples grown from an iterator raised peak RSS on `sum-cold`.
    return DecoratedTree(tuple(parents), tuple([decos[v] for v in order]))


def _without(kids, gone) -> list[int]:
    """A copy of the child list `kids` without the vertices `gone`, in one
    pass; ValueError if one of them is absent or named twice."""
    drop = set(gone)
    out = [c for c in kids if c not in drop]
    if len(out) + len(gone) != len(kids):
        raise ValueError(f"{list(gone)} are not distinct vertices of the child list")
    return out


def _dropped(tree: DecoratedTree, gone: dict, decos) -> DecoratedTree:
    """`tree` without the subtrees of the children that `gone` lists under
    each parent, with decorations `decos`; ValueError if a child is not under
    its parent.  Each parent's child list is filtered once."""
    kids = list(tree.children)
    for p, vs in gone.items():
        kids[p] = _without(kids[p], vs)
    return _rebuild(kids, decos)


def with_decoration(tree: DecoratedTree, v: int, deco: Decoration) -> DecoratedTree:
    decos = list(tree.decos)
    decos[v] = deco
    return DecoratedTree(tree.parents, tuple(decos))


def with_relation(tree: DecoratedTree, v: int, rel: str) -> DecoratedTree:
    d = tree.decos[v]
    return with_decoration(tree, v, Decoration(d.color, rel, d.shift))


def with_shift(tree: DecoratedTree, v: int, shift: int) -> DecoratedTree:
    d = tree.decos[v]
    return with_decoration(tree, v, Decoration(d.color, d.rel, shift))


def with_shift_added(tree: DecoratedTree, v: int, delta: int) -> DecoratedTree:
    return with_shift(tree, v, tree.decos[v].shift + delta)


def subtree_at(tree: DecoratedTree, v: int) -> DecoratedTree:
    """The fringe subtree at v as a tree of its own."""
    return _rebuild(tree.children, tree.decos, v)


def without_subtree(tree: DecoratedTree, v: int) -> DecoratedTree:
    """Remove v together with all its descendants (v must not be the root)."""
    if v == 0:
        raise ValueError("cannot remove the root subtree")
    return _dropped(tree, {tree.parents[v]: (v,)}, tree.decos)


def without_leaves(tree: DecoratedTree, leaves: tuple[int, ...]) -> DecoratedTree:
    """Remove the given leaves of `tree`."""
    gone: dict[int, list[int]] = {}
    for v in leaves:
        if tree.children[v]:
            raise ValueError(f"vertex {v} is not a leaf")
        gone.setdefault(tree.parents[v], []).append(v)
    return _dropped(tree, gone, tree.decos)


def with_children_reattached(tree: DecoratedTree, v: int) -> DecoratedTree:
    """Move all children of the nonroot vertex v to v's parent; v becomes a leaf."""
    if v == 0:
        raise ValueError("the root has no parent to reattach to")
    kids = list(tree.children)
    p = tree.parents[v]
    siblings = list(kids[p])
    pos = siblings.index(v)
    siblings[pos + 1 : pos + 1] = kids[v]
    kids[p] = siblings
    kids[v] = ()
    return _rebuild(kids, tree.decos)


def with_absorbed_leaf(tree: DecoratedTree, parent: int, leaf: int) -> DecoratedTree:
    """Delete a relation-free leaf and give its color to its gray parent."""
    pd = tree.decos[parent]
    decos = list(tree.decos)
    decos[parent] = Decoration(tree.decos[leaf].color, pd.rel, pd.shift)
    return _dropped(tree, {parent: (leaf,)}, decos)


def with_pulled_down_variable(tree: DecoratedTree, v: int, leaf: int) -> DecoratedTree:
    """Inverse of leaf absorption: v turns gray and its variable moves into a
    fresh relation-free middle vertex that adopts the given leaf child."""
    d = tree.decos[v]
    if d.color == GRAY:
        raise ValueError("vertex is already gray")
    kids = list(tree.children)
    decos = list(tree.decos)
    middle = len(decos)
    kids[v] = _without(kids[v], (leaf,)) + [middle]
    kids.append((leaf,))
    decos.append(Decoration(d.color, REL_NONE, 0))
    decos[v] = Decoration(GRAY, d.rel, d.shift)
    return _rebuild(kids, decos)


def with_branch_colors_swapped(tree: DecoratedTree, pairs) -> DecoratedTree:
    """Swap the colors of each (middle, leaf) pair of a vertex and its single
    child, decorations otherwise unchanged, in one tree."""
    decos = list(tree.decos)
    for middle, leaf in pairs:
        md, ld = decos[middle], decos[leaf]
        decos[middle] = Decoration(ld.color, md.rel, md.shift)
        decos[leaf] = Decoration(md.color, ld.rel, ld.shift)
    return DecoratedTree(tree.parents, tuple(decos))


def with_merged_twins(tree: DecoratedTree, parent: int, deco: Decoration, leaves) -> DecoratedTree:
    """The parent takes `deco` and the given leaves under it go."""
    decos = list(tree.decos)
    decos[parent] = deco
    return _dropped(tree, {parent: leaves}, decos)


def with_replaced_fringe(
    tree: DecoratedTree,
    v: int,
    center: Decoration,
    branches: tuple[int, int, int],
) -> DecoratedTree:
    """Replace the fringe at v by a long star: center decoration plus
    i/j/k branches whose white middles carry (ge,0)/(le,0)/(none,0) over a
    relation-free black leaf."""
    i, j, k = branches
    kids = list(tree.children)
    decos = list(tree.decos)
    decos[v] = center
    star: list[int] = []
    for middle, count in zip(_BRANCH_MIDDLES, (i, j, k)):
        for _ in range(count):
            m = len(decos)  # the branch is vertices m (middle) and m + 1 (leaf)
            star.append(m)
            kids += [(m + 1,), ()]
            decos += [middle, NULL_DECO_BLACK]
    kids[v] = star
    return _rebuild(kids, decos)


# ---------------------------------------------------------------------------
# Long-star classification
# ---------------------------------------------------------------------------


def classify_fringe(tree: DecoratedTree, v: int) -> tuple[int, int, int, int | None]:
    """The height-2 fringe at v as a long star (i, j, k, extra_leaf): the
    counts of branch middles carrying (ge,0), (le,0) and (none,0), and the
    one leaf directly under a white or black center, else None.  `tree`
    must be one on which no generic rule of `Engine` applies (a good tree),
    and v must have fringe height 2; only the fringe's O(deg v) shape is
    checked.  Branch middles are counted by their relation, which the local
    color swap putting the white vertex on top of each pair leaves alone."""
    if tree.fringe_heights[v] != 2:
        raise NotHeightTwoError(f"fringe at vertex {v} does not have height 2")
    children = tree.children
    counts = {REL_GE: 0, REL_LE: 0, REL_NONE: 0}
    extra_leaf = None
    for c in children[v]:
        if not children[c]:
            extra_leaf = c  # goodness permits at most one
            continue
        kids = children[c]
        if len(kids) != 1 or children[kids[0]]:
            raise PatternMismatchError(f"child {c} is not a two-vertex branch")
        d = tree.decos[c]
        if d.rel == REL_EQ or d.shift != 0:
            raise PatternMismatchError(f"branch middle {c} carries {d.rel},{d.shift}")
        counts[d.rel] += 1
    if extra_leaf is not None and tree.decos[v].color == GRAY:
        raise PatternMismatchError("gray center with a direct leaf child")
    return counts[REL_GE], counts[REL_LE], counts[REL_NONE], extra_leaf


# ---------------------------------------------------------------------------
# Enumeration of small free trees (the exhaustive sweeps of the tests)
# ---------------------------------------------------------------------------


def _rooted(adj: list[list[int]], root: int) -> tuple[list[int], list]:
    """The tree spanned by the adjacency lists from `root`: its vertices in
    breadth-first order and each one's children in adjacency order (fresh
    lists; None for vertices not reached).  `adj` must hold no cycle, so
    the neighbours of v that have no children list yet are its children."""
    kids: list = [None] * len(adj)
    order = [root]
    for v in order:
        kids[v] = below = [c for c in adj[v] if kids[c] is None]
        order += below
    return order, kids


def _canonical_text(order: list[int], kids: list) -> str:
    """The text of the tree that `_rooted` walked as (order, kids), with each
    vertex's children in canonical order: a vertex is "(", its children's
    texts sorted, then ")" (the AHU encoding).  `parse_plain` reads it back
    as the canonical layout."""
    text: dict[int, str] = {}  # finished subtrees, until their parent takes them
    for v in reversed(order):
        text[v] = "(" + "".join(sorted([text.pop(c) for c in kids[v]])) + ")" if kids[v] else "()"
    return text[order[0]]


def _canonical_centroid(adj: list[list[int]], order: list[int], kids: list) -> str:
    """The canonical text of the free tree that `_rooted` walked in `adj` as
    (order, kids): the least over its centroids."""
    return min(_canonical_text(*_rooted(adj, root)) for root in _centroids(order, kids))


def _centroids(order: list[int], kids: list) -> list[int]:
    """The vertices of the tree that `_rooted` walked as (order, kids) whose
    heaviest component, once removed, is smallest: those that leave no
    component of more than half the vertices.  Stepping from the root into
    the child of more than half while there is one reaches the first; the
    second, if any, is its child of exactly half."""
    n = len(order)
    size = [1] * len(kids)
    for v in reversed(order):
        for c in kids[v]:
            size[v] += size[c]
    v = order[0]
    while heavy := [c for c in kids[v] if 2 * size[c] > n]:
        v = heavy[0]
    return [v] + [c for c in kids[v] if 2 * size[c] == n]


def _adjacency(tree: PlainTree) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(len(tree))]
    for v in range(1, len(tree)):
        adj[v].append(tree.parents[v])
        adj[tree.parents[v]].append(v)
    return adj


def enumerate_free_trees(n: int) -> list[PlainTree]:
    """All free trees on n vertices up to isomorphism, rooted at a canonical
    centroid with children in canonical order, sorted by their canonical text.

    The trees on n vertices are those on n - 1 with one leaf attached to
    some vertex; each candidate is kept once per canonical text."""
    if n < 1:
        raise ValueError("need at least one vertex")
    trees = [PlainTree((-1,))]
    for size in range(2, n + 1):
        texts: set[str] = set()
        for tree in trees:
            for v in range(size - 1):
                adj = _adjacency(tree)
                adj[v].append(size - 1)
                adj.append([v])
                texts.add(_canonical_centroid(adj, *_rooted(adj, 0)))
        trees = [parse_plain(text) for text in sorted(texts)]
    return trees


def reroot(tree: PlainTree, new_root: int, half_edge: bool = False) -> PlainTree:
    """The same free tree rooted at the given vertex; `tree` has no half-edge."""
    if tree.half_edge:
        raise ValueError("half-edge trees are rooted at the half-edge extremity")
    if not 0 <= new_root < len(tree):
        raise ValueError(f"root {new_root} is not a vertex of a tree on {len(tree)} vertices")
    kids = _rooted(_adjacency(tree), new_root)[1]
    return PlainTree(tuple(_preorder(kids, new_root)[1]), half_edge)
