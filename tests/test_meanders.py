"""Meanders: parsing, faces, the face forest, exact probabilities."""

import random
from fractions import Fraction

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
    enumerate_meanders,
    faces,
    forest,
    noncrossing_matchings,
    parse_meander,
    probability,
)
from catsum.series import catalan
from catsum.trees import plain_to_text


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
    rng = random.Random(23)
    engine = Engine()
    found = 0
    while found < 15:
        k = rng.randint(1, 4)
        try:
            m = Meander(k, _random_matching(rng, 2 * k), _random_matching(rng, 2 * k))
        except MultipleLoops:
            continue
        found += 1
        assert probability(m, engine) == probability(m.reflected(), engine)


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
