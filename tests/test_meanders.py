"""Meanders: parsing, faces, the face forest, exact probabilities.

`data/meander_totals.json` records, for each size, the meander count, the
exact sum of the probabilities and its 12-place truncation.  Record sizes
1..N again with

    PYTHONPATH=src python tests/test_meanders.py N
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from catsum.algebra import PiPoly
from catsum.engine import Engine
from catsum.meanders import (
    CrossingArcs,
    Meander,
    MeanderSizeError,
    MeanderSyntaxError,
    MultipleLoops,
    NotAMatching,
    _side,
    enumerate_meanders,
    faces,
    forest,
    noncrossing_matchings,
    parse_meander,
    probability,
)
from catsum.series import catalan
from catsum.trees import canonical_decorate, plain_to_text

TOTALS = Path(__file__).parent / "data" / "meander_totals.json"


def reference_probability(meander, engine=None):
    """The forest product, one reduction and one `eval_quarter` per tree."""
    engine = engine or Engine()
    k = meander.size
    value = PiPoly.const(Fraction(2) ** (1 - 4 * k) * k)
    for tree in forest(meander):
        value = value * engine.reduce(canonical_decorate(tree)).eval_quarter()
    return value


def sweep_total(meanders, engine):
    total = PiPoly()
    for m in meanders:
        total = total + probability(m, engine)
    return total


def test_parse_and_validate():
    m = parse_meander("upper: 0-1; lower: 0-1")
    assert m.size == 1 and m.upper == ((0, 1),) and m.lower == ((0, 1),)
    with pytest.raises(MultipleLoops):
        parse_meander("upper: 0-1, 2-3; lower: 0-1, 2-3")
    with pytest.raises(CrossingArcs):
        parse_meander("upper: 0-2, 1-3; lower: 0-1, 2-3")
    with pytest.raises(NotAMatching):
        parse_meander("upper: 0-1, 1-2; lower: 0-1, 2-3")
    with pytest.raises(NotAMatching):
        parse_meander("upper: 0-5, 1-2; lower: 0-1, 2-3")
    with pytest.raises(MeanderSyntaxError):
        parse_meander("upper: 0-1")
    with pytest.raises(MeanderSyntaxError):
        parse_meander("upper: 0+1; lower: 0-1")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("upper: 0-0; lower: 0-1", NotAMatching, "upper arc 0-0 joins a point to itself"),
        ("upper: 0-1, 2-3; lower: 0-1", NotAMatching, "lower matching misses points [2, 3]"),
        ("upper: ; lower: 0-1", MeanderSyntaxError, "empty upper matching"),
        (
            "upper: 0-1; upper: 0-1",
            MeanderSyntaxError,
            "need exactly one upper and one lower matching",
        ),
        (
            "top: 0-1; lower: 0-1",
            MeanderSyntaxError,
            "expected side name 'upper' or 'lower', got 'top'",
        ),
    ],
)
def test_parse_errors(text, error, message):
    with pytest.raises(error) as caught:
        parse_meander(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_crossing_pair_named():
    """Of several crossings, the message names the arc with the least right
    end among arcs that cross another, with the arc crossing it whose left
    end is greatest: checked against that rule on every perfect matching of
    at most 8 points."""
    with pytest.raises(CrossingArcs) as caught:
        parse_meander("upper: 1-6, 2-7, 0-4, 3-5; lower: 0-1, 2-3, 4-5, 6-7")
    assert str(caught.value) == "upper arcs (0, 4) and (3, 5) cross"
    for n in (2, 4, 6, 8):
        for matching in _perfect_matchings(list(range(n))):
            crossing = [
                ((a, b), (c, d))
                for a, b in matching
                for c, d in matching
                if a < c < b < d or c < a < d < b
            ]
            if not crossing:  # accepted: test_enumeration_builds_the_checked_meanders
                continue
            first, _ = min(crossing, key=lambda pair: pair[0][1])
            second = max((c, d) for (a, b), (c, d) in crossing if (a, b) == first)
            with pytest.raises(CrossingArcs) as caught:
                Meander(n // 2, matching, matching)
            assert str(caught.value) == f"upper arcs {first} and {second} cross", matching


def _perfect_matchings(points):
    """Every perfect matching of `points`, crossing or not, as a list of arcs."""
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    return [
        [(first, partner)] + others
        for i, partner in enumerate(rest)
        for others in _perfect_matchings(rest[:i] + rest[i + 1 :])
    ]


def test_side_owner_is_innermost_covering_arc():
    """`_side` against the `Face` docstring, on every non-crossing matching of
    2k points, k <= 6: the owner of segment i is the innermost arc covering
    i + 1/2, each face owns the segments it is owner of, and interior faces
    own even segments."""
    for k in range(1, 7):
        for matching in noncrossing_matchings(2 * k):
            owner, owned, interior = _side(matching)
            expected = []
            for i in range(2 * k - 1):
                covering = [f for f, (a, b) in enumerate(matching) if a <= i < b]
                expected.append(max(covering, key=lambda f: matching[f][0], default=None))
            assert owner == tuple(expected), matching
            assert owned == tuple(tuple(i for i, f in enumerate(expected) if f == g) for g in range(k))
            assert interior == tuple(indices[0] % 2 == 0 for indices in owned)


def test_size_below_one_rejected():
    for size in (0, -1):
        with pytest.raises(MeanderSizeError, match=f"got {size}"):
            Meander(size, (), ())
        with pytest.raises(MeanderSizeError, match=f"got {size}"):
            enumerate_meanders(size)


def test_faces_circle():
    m = parse_meander("upper: 0-1; lower: 0-1")
    fs = faces(m)
    assert len(fs) == 2
    assert all(f.indices == (0,) and f.interior for f in fs)


def test_faces_spiral():
    m = parse_meander("upper: 0-1, 2-3; lower: 1-2, 0-3")
    fs = {(f.side, f.arc): f for f in faces(m)}
    assert fs[("upper", (0, 1))].indices == (0,) and fs[("upper", (0, 1))].interior
    assert fs[("upper", (2, 3))].indices == (2,) and fs[("upper", (2, 3))].interior
    assert fs[("lower", (1, 2))].indices == (1,) and not fs[("lower", (1, 2))].interior
    assert fs[("lower", (0, 3))].indices == (0, 2) and fs[("lower", (0, 3))].interior


def test_face_count_random():
    rng = random.Random(21)
    found = 0
    while found < 50:
        k = rng.randint(1, 6)
        upper = _random_matching(rng, 2 * k)
        lower = _random_matching(rng, 2 * k)
        try:
            m = Meander(k, upper, lower)
        except MultipleLoops:
            continue
        found += 1
        fs = faces(m)
        assert len(fs) == 2 * k
        covered = set()
        for f in fs:
            covered |= set(f.indices)
        assert covered == set(range(2 * k - 1))


def _random_matching(rng, n):
    pool = list(range(n))
    out = []

    def rec(points):
        if not points:
            return
        first = points[0]
        idx = rng.randrange(1, len(points), 2)
        out.append((first, points[idx]))
        inside = points[1:idx]
        outside = points[idx + 1 :]
        rec(inside)
        rec(outside)

    rec(pool)
    return tuple(out)


def test_forest_examples():
    m = parse_meander("upper: 0-1; lower: 0-1")
    trees = forest(m)
    assert len(trees) == 1
    assert plain_to_text(trees[0]) == "(())" and not trees[0].half_edge

    spiral = parse_meander("upper: 0-1, 2-3; lower: 1-2, 0-3")
    trees = forest(spiral)
    texts = sorted((plain_to_text(t), t.half_edge) for t in trees)
    assert texts == [("(()())", False), ("halfedge:()", True)]


def test_forest_edge_count_random():
    rng = random.Random(22)
    found = 0
    while found < 30:
        k = rng.randint(1, 5)
        try:
            m = Meander(k, _random_matching(rng, 2 * k), _random_matching(rng, 2 * k))
        except MultipleLoops:
            continue
        found += 1
        trees = forest(m)
        edges = sum(len(t) - 1 for t in trees)
        halves = sum(1 for t in trees if t.half_edge)
        assert edges + halves == 2 * k - 1
        assert sum(1 for t in trees if not t.half_edge) == 1


def test_probability_exact_values():
    m = parse_meander("upper: 0-1; lower: 0-1")
    assert probability(m) == PiPoly({1: 2, 0: Fraction(-1, 2)})
    assert probability(m).to_decimal(5) == "0.13661"

    spiral = parse_meander("upper: 0-1, 2-3; lower: 1-2, 0-3")
    assert probability(spiral) == PiPoly({1: Fraction(-2, 3), 0: Fraction(1, 4)})


def test_probability_reflection_invariance():
    """Invariant under the left-right mirror and under swapping the upper
    and lower matchings, for every meander of size at most 5."""
    engine = Engine()
    for k in range(1, 6):
        for m in enumerate_meanders(k):
            p = probability(m, engine)
            assert p == probability(m.reflected(), engine), m
            assert p == probability(Meander(k, m.lower, m.upper), engine), m


def test_probability_matches_forest_reference():
    engine, reference_engine = Engine(), Engine()
    for k in range(1, 6):
        for m in enumerate_meanders(k):
            assert probability(m, engine) == reference_probability(m, reference_engine), m


def test_shared_and_fresh_engine_agree():
    shared = Engine()
    meanders = enumerate_meanders(5)
    values = [probability(m, shared) for m in meanders]
    # trees and forests recur across the 262 meanders
    assert len(shared.at_quarter) == 14 and len(shared.forests) == 34
    for i in random.Random(24).sample(range(len(meanders)), 20):
        assert probability(meanders[i], Engine()) == values[i], meanders[i]


def test_enumeration_builds_the_checked_meanders():
    """The meanders enumeration builds without checks are those the
    checked constructor accepts, in the order of their matchings."""
    for k in range(1, 5):
        matchings = noncrossing_matchings(2 * k)
        checked = []
        for up in matchings:
            for low in matchings:
                try:
                    checked.append(Meander(k, up, low))
                except MultipleLoops:
                    pass
        assert enumerate_meanders(k) == checked
    assert [len(enumerate_meanders(k)) for k in range(1, 6)] == [1, 2, 8, 42, 262]


def test_running_total_below_one():
    """Sizes 1..6 have the recorded totals, and the sum over them of the
    shape probabilities stays below 1 (certified by the truncation)."""
    recorded = json.loads(TOTALS.read_text())
    for record in recorded.values():
        total = PiPoly({d: Fraction(c) for d, c in record["total"]})
        assert total.to_decimal(12) == record["decimal"]
    engine, running = Engine(), PiPoly()
    for k in range(1, 7):
        meanders = enumerate_meanders(k)
        total = sweep_total(meanders, engine)
        assert len(meanders) == recorded[str(k)]["meanders"], k
        assert total.to_json() == recorded[str(k)]["total"], k
        running = running + total
    assert Fraction(running.to_decimal(12)) + Fraction(1, 10**12) <= 1


def test_noncrossing_matching_counts():
    for k in range(1, 6):
        assert len(noncrossing_matchings(2 * k)) == catalan(k)
    assert noncrossing_matchings(3) == []


def test_exhaustive_sweep_small_sizes():
    engine = Engine()
    for k in (1, 2, 3):
        meanders = enumerate_meanders(k)
        assert meanders, k
        total = Fraction(0)
        for m in meanders:
            p = probability(m, engine)
            assert isinstance(p, PiPoly)  # exact element of Q[1/pi]
            total += p.to_fraction()
            assert len(faces(m)) == 2 * k
        assert 0 < total < 1


if __name__ == "__main__":
    engine, totals = Engine(), {}
    for k in range(1, int(sys.argv[1]) + 1):
        start = time.process_time()
        meanders = enumerate_meanders(k)
        total = sweep_total(meanders, engine)
        cpu = time.process_time() - start
        decimal = total.to_decimal(12)
        totals[k] = {"meanders": len(meanders), "total": total.to_json(), "decimal": decimal}
        print(f"size {k}: {len(meanders)} meanders, {cpu:.1f} s CPU, total {total}")
    lines = [f" {json.dumps(str(k))}: {json.dumps(record)}" for k, record in totals.items()]
    TOTALS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
