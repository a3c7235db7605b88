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
`Meander` only for the pairs of matchings that pass; one stack walk per side
finds the face owning each segment, and the breadth-first walk of `trees`
finds the components of the face graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import PiPoly
from .engine import Engine
from .trees import PlainTree, _rooted, canonical_decorate, centroid_rooted, plain_from_adjacency

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


def _single_loop(upper: Matching, lower: Matching) -> bool:
    """Whether the arcs of two perfect matchings of the same points close
    into one loop; two empty matchings pass."""
    up, low = [0] * (2 * len(upper)), [0] * (2 * len(lower))
    for partner, matching in ((up, upper), (low, lower)):
        for a, b in matching:
            partner[a], partner[b] = b, a
    point, length = 0, 0
    while length < len(up):
        point, length = low[up[point]], length + 2
        if point == 0:
            break
    return length == len(up)


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
        if self.size < 1:
            raise MeanderSizeError(f"a meander has size at least 1, got {self.size}")
        n = 2 * self.size
        object.__setattr__(self, "upper", _normalize_matching(self.upper, n, UPPER))
        object.__setattr__(self, "lower", _normalize_matching(self.lower, n, LOWER))
        if not _single_loop(self.upper, self.lower):
            raise MultipleLoops("the two matchings do not form a single loop")

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


def faces(meander: Meander) -> list[Face]:
    """One face per arc; every unit segment belongs to at most one face per side."""
    out = []
    for side, matching in ((UPPER, meander.upper), (LOWER, meander.lower)):
        owner: dict[tuple[int, int], list[int]] = {arc: [] for arc in matching}
        right = dict(matching)
        # The arcs open over segment i form a stack, the innermost on top.
        open_arcs: list[tuple[int, int]] = []
        for i in range(2 * meander.size - 1):
            if i in right:
                open_arcs.append((i, right[i]))
            else:
                open_arcs.pop()
            if open_arcs:
                owner[open_arcs[-1]].append(i)
        for arc in matching:
            indices = tuple(owner[arc])
            assert indices, f"face of arc {arc} owns no segment"
            parities = {i % 2 for i in indices}
            assert len(parities) == 1, f"face of arc {arc} mixes parities"
            out.append(Face(side, arc, indices, interior=(indices[0] % 2 == 0)))
    uncovered = set(range(2 * meander.size - 1))
    for face in out:
        uncovered -= set(face.indices)
    assert not uncovered, f"segments {sorted(uncovered)} touch no bounded face"
    return out


def forest(meander: Meander) -> list[PlainTree]:
    """Faces become vertices; each segment joins its two incident faces, or
    contributes a half-edge when one side of it is unbounded.

    The interior faces always form a single tree without half-edge; every
    other component carries exactly one half-edge and is rooted at its
    extremity.
    """
    all_faces = faces(meander)
    by_side_segment: dict[tuple[str, int], int] = {}
    for idx, face in enumerate(all_faces):
        for i in face.indices:
            by_side_segment[(face.side, i)] = idx

    n = len(all_faces)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    half_edges = [0] * n
    for i in range(2 * meander.size - 1):
        up = by_side_segment.get((UPPER, i))
        low = by_side_segment.get((LOWER, i))
        assert up is not None or low is not None
        if up is not None and low is not None:
            adjacency[up].append(low)
            adjacency[low].append(up)
        else:
            half_edges[up if up is not None else low] += 1

    components: list[PlainTree] = []
    seen: set[int] = set()
    interior_components = 0
    for start in range(n):
        if start in seen:
            continue
        # the component breadth-first; a cycle would repeat a vertex in it,
        # which still fails the edge count below
        comp = _rooted(adjacency, start)[0]
        seen.update(comp)
        n_half = sum(half_edges[v] for v in comp)
        n_edges = sum(len(adjacency[v]) for v in comp) // 2
        assert n_edges == len(comp) - 1, "a component of the face graph has a cycle"
        is_interior = all_faces[comp[0]].interior
        if is_interior:
            assert n_half == 0, "interior component with a half-edge"
            assert all(all_faces[v].interior for v in comp)
            interior_components += 1
            # rooted at a canonical centroid for reproducible output
            components.append(centroid_rooted(plain_from_adjacency(adjacency, comp[0])))
        else:
            assert n_half == 1, "exterior component without exactly one half-edge"
            root = next(v for v in comp if half_edges[v])
            components.append(plain_from_adjacency(adjacency, root, half_edge=True))
    assert interior_components == 1, "interior faces split into several trees"
    return components


def probability(meander: Meander, engine: Engine | None = None) -> PiPoly:
    """Exact P(component of 0 has this shape) = 2^(1-4k) k prod S(T_i)(1/4)."""
    engine = engine or Engine()
    k = meander.size
    value = PiPoly.const(Fraction(2) ** (1 - 4 * k) * k)
    for tree in forest(meander):
        value = value * engine.reduce(canonical_decorate(tree)).eval_quarter()
    return value


def enumerate_meanders(k: int) -> list[Meander]:
    """All meanders of size k (pairs of non-crossing matchings forming one loop)."""
    matchings = noncrossing_matchings(2 * k)
    return [Meander(k, up, low) for up in matchings for low in matchings if _single_loop(up, low)]


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
