"""Meanders, their face structure, the associated forest and exact shape
probabilities.

A meander of size k is a single closed curve crossing the horizontal line
at the points 0..2k-1, encoded by the pair of non-crossing perfect
matchings its arcs draw above and below the line.  The bounded regions of
the picture (the faces) each own the set of unit segments [i, i+1] on
their boundary; faces and shared segments form a forest of trees with
half-edges, and the probability that the component of 0 in the arrow
percolation model has this exact shape is

    2^(1-4k) * k * prod over trees of the forest of S(T)(1/4),

an exact polynomial in 1/pi.

One walk along the curve tests for a single loop, so enumeration builds a
`Meander`, without checking its own matchings again, only for the pairs
that pass.  One stack walk per matching, `_side`, finds the face owning
each segment and is cached per matching, so a sweep walks each matching
once, whichever side and however many meanders it serves.  `faces` reads
it alone; `forest` and `probability` share `_components`, which joins the
two sides of one meander and walks each component once with the
breadth-first walk of `trees`, which also gives its canonical text.  Each
distinct tree's value at t = 1/4 is computed once per `Engine`, in
`Engine.at_quarter`, and each distinct forest's probability once, in
`Engine.forests`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import PiPoly
from .engine import Engine
from .trees import (
    HALF_EDGE_PREFIX,
    PlainTree,
    _canonical_centroid,
    _canonical_text,
    _preorder,
    _rooted,
    canonical_decorate,
    parse_plain,
)

UPPER, LOWER = "upper", "lower"


class MeanderError(ValueError):
    pass


class NotAMatching(MeanderError):
    pass


class CrossingArcs(MeanderError):
    pass


class MultipleLoops(MeanderError):
    pass


class MeanderSyntaxError(MeanderError):
    pass


class MeanderSizeError(MeanderError):
    pass


Matching = tuple[tuple[int, int], ...]


def _partners(matching: Matching) -> list[int]:
    """Each point's partner under a perfect matching of 0..2n-1."""
    partner = [0] * (2 * len(matching))
    for a, b in matching:
        partner[a], partner[b] = b, a
    return partner


def _single_loop(up: list[int], low: list[int]) -> bool:
    """Whether the arcs of two perfect matchings of the same points, given
    by `_partners`, close into one loop; two empty matchings pass."""
    point, length = 0, 0
    while length < len(up):
        point, length = low[up[point]], length + 2
        if point == 0:
            break
    return length == len(up)


def _check_size(size: int) -> None:
    if size < 1:
        raise MeanderSizeError(f"a meander has size at least 1, got {size}")


def _normalize_matching(pairs, n: int, side: str) -> Matching:
    """The arcs of a perfect matching of 0..n-1, each as (a, b) with a < b,
    sorted.  One pass over the points finds a crossing: the arcs open at a
    point form a stack, and an arc closing below the top crosses the top.
    Of several crossings, the one named has the arc (a, b) with the least b
    among arcs that cross another, with the arc crossing it whose left end
    is greatest."""
    seen: set[int] = set()
    out = []
    for a, b in pairs:
        if a == b:
            raise NotAMatching(f"{side} arc {a}-{b} joins a point to itself")
        a, b = min(a, b), max(a, b)
        out.append((a, b))
        for p in (a, b):
            if not 0 <= p < n:
                raise NotAMatching(f"{side} point {p} out of range 0..{n - 1}")
            if p in seen:
                raise NotAMatching(f"{side} point {p} used twice")
            seen.add(p)
    if len(seen) != n:
        raise NotAMatching(f"{side} matching misses points {sorted(set(range(n)) - seen)}")
    partner, open_points = _partners(out), []
    for p, q in enumerate(partner):
        if p < q:
            open_points.append(p)
        elif (top := open_points.pop()) != q:
            raise CrossingArcs(f"{side} arcs {(q, p)} and {(top, partner[top])} cross")
    return tuple(sorted(out))


@dataclass(frozen=True)
class Meander:
    size: int
    upper: Matching
    lower: Matching

    def __post_init__(self):
        _check_size(self.size)
        n = 2 * self.size
        object.__setattr__(self, "upper", _normalize_matching(self.upper, n, UPPER))
        object.__setattr__(self, "lower", _normalize_matching(self.lower, n, LOWER))
        if not _single_loop(_partners(self.upper), _partners(self.lower)):
            raise MultipleLoops("the two matchings do not form a single loop")

    @classmethod
    def _trusted(cls, size: int, upper: Matching, lower: Matching) -> "Meander":
        """The meander of two matchings with sorted arcs known to form one
        loop, built without the checks of `__post_init__`."""
        meander = object.__new__(cls)
        meander.__dict__.update(size=size, upper=upper, lower=lower)
        return meander

    def reflected(self) -> "Meander":
        """Left-right mirror image: relabel i -> 2k-1-i."""
        n = 2 * self.size - 1
        return Meander(
            self.size,
            tuple((n - b, n - a) for a, b in self.upper),
            tuple((n - b, n - a) for a, b in self.lower),
        )


_ARC_RE = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*$")


def _parse_side(text: str, side: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(","):
        if not chunk.strip():
            continue
        m = _ARC_RE.match(chunk)
        if not m:
            raise MeanderSyntaxError(f"bad {side} arc {chunk.strip()!r}; expected 'a-b'")
        pairs.append((int(m.group(1)), int(m.group(2))))
    if not pairs:
        raise MeanderSyntaxError(f"empty {side} matching")
    return pairs


def parse_meander(text: str) -> Meander:
    """Parse `upper: a-b, c-d, ...; lower: ...` into a validated meander."""
    parts = text.split(";")
    if len(parts) != 2:
        raise MeanderSyntaxError("expected 'upper: ...; lower: ...'")
    sides = {}
    for part in parts:
        name, _, arcs = part.partition(":")
        name = name.strip().lower()
        if name not in (UPPER, LOWER) or not _:
            raise MeanderSyntaxError(f"expected side name 'upper' or 'lower', got {name!r}")
        sides[name] = _parse_side(arcs, name)
    if set(sides) != {UPPER, LOWER}:
        raise MeanderSyntaxError("need exactly one upper and one lower matching")
    return Meander(len(sides[UPPER]), tuple(sides[UPPER]), tuple(sides[LOWER]))


@dataclass(frozen=True)
class Face:
    """A bounded region: the arc that bounds it and its segment index set.

    Segment i is [i, i+1] for 0 <= i <= 2k-2; the owning arc of segment i on
    one side of the line is the innermost arc of that side covering the
    midpoint i + 1/2.  Interior faces touch only even-indexed segments,
    exterior faces only odd-indexed ones.
    """

    side: str
    arc: tuple[int, int]
    indices: tuple[int, ...]
    interior: bool


@lru_cache(maxsize=None)
def _side(matching: Matching):
    """The faces of one side of the line, one per arc of `matching` in arc
    order, as (owner, owned, interior): `owner[i]` is the face owning
    segment i (None where no arc covers it), `owned[f]` the segments face f
    owns, and `interior[f]` whether they are even.  Cached per matching: a
    sweep meets each matching on both sides of many meanders."""
    face_at = {a: f for f, (a, _) in enumerate(matching)}
    owner: list = [None] * (2 * len(matching) - 1)
    owned: list[list[int]] = [[] for _ in matching]
    # The arcs open over segment i form a stack, the innermost on top.
    open_faces: list[int] = []
    for i in range(len(owner)):
        if i in face_at:
            open_faces.append(face_at[i])
        else:
            open_faces.pop()
        if open_faces:
            owner[i] = open_faces[-1]
            owned[open_faces[-1]].append(i)
    for arc, indices in zip(matching, owned):
        assert indices, f"face of arc {arc} owns no segment"
        assert len({i % 2 for i in indices}) == 1, f"face of arc {arc} mixes parities"
    return tuple(owner), tuple(map(tuple, owned)), tuple(indices[0] % 2 == 0 for indices in owned)


def _components(meander: Meander) -> list[tuple[list[int], list, str]]:
    """The checked components of the face graph of `meander`, each as
    (order, kids, text).  Face f < k bounds the f-th upper arc and face
    k + f the f-th lower arc; each segment joins its two faces, or gives
    its one face a half-edge.  `_rooted` walked each component once, in
    `order` from its root `order[0]` with children lists `kids`: an exterior
    component from its half-edge face, with `text` its canonical text from
    there after `halfedge:`, and the interior one, with `text` the least over
    its centroids."""
    k = meander.size
    up, _, interior = _side(meander.upper)
    low, _, low_interior = _side(meander.lower)
    interior += low_interior
    adjacency: list[list[int]] = [[] for _ in range(2 * k)]
    half_edges = []  # the faces with a half-edge, one entry per half-edge
    for i, (u, low_face) in enumerate(zip(up, low)):
        if low_face is None:
            assert u is not None, f"segment {i} touches no bounded face"
            half_edges.append(u)
        elif u is None:
            half_edges.append(low_face + k)
        else:
            adjacency[u].append(low_face + k)
            adjacency[low_face + k].append(u)

    components = []
    seen: set[int] = set()
    for start in half_edges:
        assert start not in seen, "exterior component without exactly one half-edge"
        assert not interior[start], "interior component with a half-edge"
        order, kids = _rooted(adjacency, start)
        seen.update(order)
        components.append((order, kids, HALF_EDGE_PREFIX + _canonical_text(order, kids)))
    # face 0, over segment 0, is interior; edges join faces of one parity
    order, kids = _rooted(adjacency, 0)
    assert len(order) == interior.count(True), "interior faces split into several trees"
    assert len(seen) + len(order) == 2 * k, "exterior component without exactly one half-edge"
    components.append((order, kids, _canonical_centroid(adjacency, order, kids)))
    # trees on 2k faces in c components have 2k - c edges
    edges = sum(map(len, adjacency)) // 2
    assert edges == 2 * k - len(components), "a component of the face graph has a cycle"
    return components


def faces(meander: Meander) -> list[Face]:
    """One face per arc; every unit segment belongs to at most one face per side."""
    out = []
    for side, matching in ((UPPER, meander.upper), (LOWER, meander.lower)):
        _, owned, interior = _side(matching)
        out += [Face(side, *face) for face in zip(matching, owned, interior)]
    return out


def forest(meander: Meander) -> list[PlainTree]:
    """Faces become vertices; each segment joins its two incident faces, or
    contributes a half-edge when one side of it is unbounded.

    The interior faces always form a single tree without half-edge, rooted
    at its canonical centroid with children in canonical order; every other
    component carries exactly one half-edge and is rooted at its
    extremity, children in the order of the segments.  Trees come in the
    order of their least face.
    """
    return [
        PlainTree(tuple(_preorder(kids, order[0])[1]), half_edge=True)
        if text.startswith(HALF_EDGE_PREFIX)
        else parse_plain(text)
        for order, kids, text in sorted(_components(meander), key=lambda c: min(c[0]))
    ]


def probability(meander: Meander, engine: Engine | None = None) -> PiPoly:
    """Exact P(component of 0 has this shape) = 2^(1-4k) k prod S(T_i)(1/4).

    The value is looked up by the sorted canonical texts of the T_i, which
    hold 2k vertices in all, in `engine.forests`; on a miss each S(T_i)(1/4)
    is looked up by its text in `engine.at_quarter`, and reduced only on a
    miss there."""
    engine = engine or Engine()
    texts = tuple(sorted(text for *_, text in _components(meander)))
    value = engine.forests.get(texts)
    if value is None:
        k = meander.size
        value = PiPoly.const(Fraction(2) ** (1 - 4 * k) * k)
        at_quarter = engine.at_quarter
        for text in texts:
            if text not in at_quarter:
                tree = canonical_decorate(parse_plain(text))
                at_quarter[text] = engine.reduce(tree).eval_quarter()
            value = value * at_quarter[text]
        engine.forests[texts] = value
    return value


def enumerate_meanders(k: int) -> list[Meander]:
    """All meanders of size k (pairs of non-crossing matchings forming one loop)."""
    _check_size(k)
    matchings = noncrossing_matchings(2 * k)
    partners = [_partners(m) for m in matchings]
    return [
        Meander._trusted(k, up, low)
        for up, up_partners in zip(matchings, partners)
        for low, low_partners in zip(matchings, partners)
        if _single_loop(up_partners, low_partners)
    ]


def noncrossing_matchings(n: int) -> list[Matching]:
    """All non-crossing perfect matchings of 0..n-1 (Catalan(n/2) of them)."""
    return [] if n % 2 else _matchings(0, n)


def _matchings(lo: int, hi: int) -> list[Matching]:
    """The non-crossing perfect matchings of lo..hi-1, each with its arcs sorted."""
    if lo >= hi:
        return [()]
    return [
        ((lo, partner),) + inside + outside
        for partner in range(lo + 1, hi, 2)
        for inside in _matchings(lo + 1, partner)
        for outside in _matchings(partner + 1, hi)
    ]
