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
that pass.  `faces`, `forest` and `probability` share one function for
the face graph, `_face_graph`, which each of them runs on its own call:
one stack walk per side finds the face owning each segment, and one
breadth-first walk of `trees` per component finds the components and
their canonical texts.  Each distinct tree's value at t = 1/4 is
computed once per `Engine`, in `Engine.at_quarter`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

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
    for (a, b), (c, d) in combinations(out, 2):
        lo, hi = sorted([(a, b), (c, d)])
        if lo[0] < hi[0] < lo[1] < hi[1]:
            raise CrossingArcs(f"{side} arcs {lo} and {hi} cross")
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


def _face_graph(meander: Meander):
    """The checked face graph of `meander` as (arcs, owned, interior,
    components).  Face f bounds the arc `arcs[f]` = (side, arc), upper arcs
    first, each side in arc order; it owns the segment indices `owned[f]`,
    and `interior[f]` tells their parity.  Each component of the face graph
    is (least face, root, kids, text): `_rooted` walked it once from `root`,
    its half-edge face if it has one, with children lists `kids`, and
    `text` is its canonical text, the least over its centroids for the
    interior component and from the root, after `halfedge:`, for the others.
    Components are ordered by their least face.
    """
    segments = 2 * meander.size - 1
    arcs: list[tuple[str, tuple[int, int]]] = []
    owned: list[list[int]] = []
    owner = {}  # side -> the face owning each segment on that side, or None
    for side, matching in ((UPPER, meander.upper), (LOWER, meander.lower)):
        face_at = {a: len(arcs) + j for j, (a, _) in enumerate(matching)}
        arcs += [(side, arc) for arc in matching]
        owned += [[] for _ in matching]
        owner[side] = by_segment = [None] * segments
        # The arcs open over segment i form a stack, the innermost on top.
        open_faces: list[int] = []
        for i in range(segments):
            if i in face_at:
                open_faces.append(face_at[i])
            else:
                open_faces.pop()
            if open_faces:
                by_segment[i] = open_faces[-1]
                owned[open_faces[-1]].append(i)
    interior = []
    for (_, arc), indices in zip(arcs, owned):
        assert indices, f"face of arc {arc} owns no segment"
        assert len({i % 2 for i in indices}) == 1, f"face of arc {arc} mixes parities"
        interior.append(indices[0] % 2 == 0)

    n = len(arcs)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    half_edges = [0] * n
    for i, (up, low) in enumerate(zip(owner[UPPER], owner[LOWER])):
        assert up is not None or low is not None, f"segment {i} touches no bounded face"
        if up is not None and low is not None:
            adjacency[up].append(low)
            adjacency[low].append(up)
        else:
            half_edges[up if up is not None else low] += 1

    components = []
    seen: set[int] = set()
    interior_components = 0
    # the half-edge faces first, so that each exterior component is walked
    # from its half-edge face
    for start in [v for v in range(n) if half_edges[v]] + list(range(n)):
        if start in seen:
            continue
        # a cycle would repeat a vertex in the walk, which still fails the
        # edge count below
        order, kids = _rooted(adjacency, start)
        seen.update(order)
        n_half = sum(half_edges[v] for v in order)
        n_edges = sum(len(adjacency[v]) for v in order) // 2
        assert n_edges == len(order) - 1, "a component of the face graph has a cycle"
        if interior[start]:
            assert n_half == 0, "interior component with a half-edge"
            assert all(interior[v] for v in order)
            interior_components += 1
            text = _canonical_centroid(adjacency, order, kids)
        else:
            assert n_half == 1, "exterior component without exactly one half-edge"
            text = HALF_EDGE_PREFIX + _canonical_text(order, kids)
        components.append((min(order), start, kids, text))
    assert interior_components == 1, "interior faces split into several trees"
    components.sort()
    return arcs, owned, interior, components


def faces(meander: Meander) -> list[Face]:
    """One face per arc; every unit segment belongs to at most one face per side."""
    arcs, owned, interior, _ = _face_graph(meander)
    return [
        Face(side, arc, tuple(indices), inside)
        for (side, arc), indices, inside in zip(arcs, owned, interior)
    ]


def forest(meander: Meander) -> list[PlainTree]:
    """Faces become vertices; each segment joins its two incident faces, or
    contributes a half-edge when one side of it is unbounded.

    The interior faces always form a single tree without half-edge, rooted
    at its canonical centroid with children in canonical order; every other
    component carries exactly one half-edge and is rooted at its
    extremity, children in the order of the segments.
    """
    return [
        PlainTree(tuple(_preorder(kids, root)[1]), half_edge=True)
        if text.startswith(HALF_EDGE_PREFIX)
        else parse_plain(text)
        for _, root, kids, text in _face_graph(meander)[3]
    ]


def probability(meander: Meander, engine: Engine | None = None) -> PiPoly:
    """Exact P(component of 0 has this shape) = 2^(1-4k) k prod S(T_i)(1/4).

    Each S(T_i)(1/4) is looked up by the canonical text of T_i in
    `engine.at_quarter`, and reduced only on a miss."""
    engine = engine or Engine()
    k = meander.size
    value = PiPoly.const(Fraction(2) ** (1 - 4 * k) * k)
    at_quarter = engine.at_quarter
    for *_, text in _face_graph(meander)[3]:
        if text not in at_quarter:
            tree = canonical_decorate(parse_plain(text))
            at_quarter[text] = engine.reduce(tree).eval_quarter()
        value = value * at_quarter[text]
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
