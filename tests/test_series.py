"""Series through t^N, each a `Laurent` with exponents in 0..N: the
truncating product and check, the two CLI renderers, the generator series,
`series_expand`, and the tree-sum oracles."""

import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from catsum.algebra import H1, ONE, AlgebraElement, Laurent
from catsum.series import (
    BudgetExceededError,
    NegativePowerResidue,
    _product,
    _truncated,
    brute_force_decorated,
    catalan,
    catalan_power_coeff,
    generator_series,
    series_expand,
    series_json,
    series_text,
)
from catsum.table_data import LINE_EXAMPLE_8, TABLE
from catsum.trees import (
    BLACK,
    GRAY,
    RELATIONS,
    WHITE,
    Decoration,
    DecoratedTree,
    PlainTree,
    REL_EQ,
    REL_NONE,
    canonical_decorate,
    enumerate_free_trees,
    parse_plain,
    reroot,
)

from conftest import (
    brute_force_edge,
    dense,
    enumerate_decorated,
    hypergeom_series,
    long_star_tree,
    random_decorated_tree,
    series_of,
    two_vertex,
)


def test_catalan_numbers():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_generator_series_values():
    h1 = generator_series("H1", 4)
    assert dense(h1, 4) == [1, 0, 4, 0, 4]  # 4 Cat_0^2 t^2 + 4 Cat_1^2 t^4
    assert dense(generator_series("C", 3), 3) == [1, 1, 2, 5]
    assert dense(generator_series("s", 2), 2) == [1, -2, -2]
    h2 = generator_series("H2", 4)
    assert dense(h2, 4) == [1, 0, -2, 0, -4]  # -2 Cat_{n-1} Cat_n t^{2n}
    with pytest.raises(ValueError):
        generator_series("H3", 4)


def test_generator_series_against_hypergeometric_formula():
    # raw 2F1 coefficient formula, z = 16 t^2, through order 16
    for name, b in (("H1", Fraction(-1, 2)), ("H2", Fraction(1, 2))):
        c = Fraction(1) if name == "H1" else Fraction(2)
        direct = dense(hypergeom_series(Fraction(-1, 2), b, c, 8), 8)
        ours = dense(generator_series(name, 16), 16)
        for n in range(9):
            assert ours[2 * n] == direct[n] * 16**n
        assert all(ours[m] == 0 for m in range(1, 17, 2))


# The reference for the series kernel: dense Fraction-list arithmetic, in
# which a list of n + 1 coefficients is a series truncated at order n.


def _ref_mul(a, b):
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        for j in range(order + 1 - i):
            out[i + j] += x * b[j]
    return out


def _ref_pow(a, n):
    result = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for _ in range(n):
        result = _ref_mul(result, a)
    return result


def test_product_matches_truncated_full_product():
    rng = random.Random(8)

    def random_coeffs():
        lead = [Fraction(0)] * rng.randint(0, 3)
        return lead + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < 0.7 else Fraction(0)
            for _ in range(rng.randint(1, 8))
        ]

    for _ in range(300):
        a, b = random_coeffs(), random_coeffs()
        pa, pb = series_of(a), series_of(b)
        order = min(len(a), len(b)) - 1
        got = _product(pa, pb, order)
        assert got == _truncated(pa * pb, order)
        assert dense(got, order) == _ref_mul(a, b)
        # A negative exponent, as in a coefficient of `series_expand`, pairs too.
        k = rng.randint(1, 3)
        full = (pa.shift(-k) * pb).terms
        assert _product(pa.shift(-k), pb, order).terms == {
            e: v for e, v in full.items() if e <= order
        }
        n = rng.randint(0, 4)
        power = series_of([1])
        for _ in range(n):
            power = _product(power, pa, len(a) - 1)
        assert dense(power, len(a) - 1) == _ref_pow(a, n)
    assert _product(Laurent(), series_of([1, 2]), 3) == Laurent()
    assert _product(series_of([1, 2]), series_of([3, 4]), 0) == series_of([3])


def test_truncated_checks_negative_powers_then_order():
    assert _truncated(series_of([1, 2, 3, 4]), 1) == series_of([1, 2])
    assert _truncated(series_of([0, 0, 5]), 7) == series_of([0, 0, 5])
    assert _truncated(Laurent(), 0) == Laurent()
    low = Laurent({-2: 1, -1: 3, 0: 1})
    with pytest.raises(NegativePowerResidue, match=r"^uncancelled negative powers at t\^\[-2, -1\]$"):
        _truncated(low, 4)
    # the negative power is reported first, whatever the order
    with pytest.raises(NegativePowerResidue):
        _truncated(low, -1)
    with pytest.raises(ValueError, match="^order must be nonnegative$") as info:
        _truncated(series_of([1]), -1)
    assert type(info.value) is ValueError


def test_series_renderers():
    half = Fraction(1, 2)
    cases = [
        (Laurent(), 0, "0", ["0"]),
        (Laurent(), 2, "0", ["0", "0", "0"]),
        (series_of([1, 2, 0, 0]), 3, "1 + 2*t", ["1", "2", "0", "0"]),
        (series_of([1, -1, 0, half]), 3, "1 - t + 1/2*t^3", ["1", "-1", "0", "1/2"]),
        (series_of([0, -half, 0, -3]), 4, "-1/2*t - 3*t^3", ["0", "-1/2", "0", "-3", "0"]),
        (series_of([Fraction(-7, 3)]), 1, "-7/3", ["-7/3", "0"]),
    ]
    for poly, order, text, blob in cases:
        assert series_text(poly) == text
        assert series_json(poly, order) == blob


def test_series_coefficients_are_exact():
    for bad in (0.1, 1.0, "1", "1/2"):
        with pytest.raises(TypeError):
            series_of([1, bad])
        with pytest.raises(TypeError):
            series_of([1, 2]).scale(bad)
    s = series_of([1, Fraction(1, 3)])
    s.terms[0] = Fraction(7)
    assert dense(s, 3) == [1, Fraction(1, 3), 0, 0] and s == Laurent({0: 1, 1: Fraction(1, 3)})


def test_series_expand_examples():
    s_eq0 = (H1 - ONE).shift_t(-2).scale(Fraction(1, 4))
    assert dense(series_expand(s_eq0, 6), 6) == [1, 0, 1, 0, 4, 0, 25]
    from catsum.algebra import catalan_gf

    assert dense(series_expand(catalan_gf(), 3), 3) == [1, 1, 2, 5]
    with pytest.raises(NegativePowerResidue):
        series_expand(AlgebraElement.from_laurent(Laurent.t_power(-1)), 4)


def _two_vertex(rel=REL_NONE, shift=0):
    return DecoratedTree(
        (-1, 0), (Decoration(WHITE, rel, shift), Decoration(BLACK, REL_NONE, 0))
    )


def test_brute_force_decorated_examples():
    p2 = canonical_decorate(parse_plain("(())"))
    assert dense(brute_force_decorated(p2, 6), 6) == [1, 0, 1, 0, 4, 0, 25]
    p3 = canonical_decorate(parse_plain("(()())"))
    assert dense(brute_force_decorated(p3, 6), 6) == [1, 0, 2, 0, 10, 0, 70]
    lone = DecoratedTree((-1,), (Decoration(WHITE, REL_EQ, 1),))
    assert dense(brute_force_decorated(lone, 3), 3) == [0, 1, 0, 0]


def test_brute_force_decorated_gray_and_shifts():
    # gray root conditions constrain the variables below: here l = 1
    t = DecoratedTree(
        (-1, 0),
        (Decoration(GRAY, REL_EQ, 1), Decoration(WHITE, REL_NONE, 0)),
    )
    assert dense(brute_force_decorated(t, 4), 4) == [0, 1, 0, 0, 0]
    # an unsatisfiable one kills the sum
    t = DecoratedTree(
        (-1, 0),
        (Decoration(GRAY, REL_EQ, -1), Decoration(WHITE, REL_NONE, 0)),
    )
    assert brute_force_decorated(t, 4).is_zero()
    # two-vertex sum with equality shift: S_{eq,1} = sum Cat_x Cat_{x+1} t^{2x+1}
    t = _two_vertex(REL_EQ, 1)
    assert dense(brute_force_decorated(t, 5), 5) == [0, 1, 0, 2, 0, 10]


def test_brute_force_edge_examples():
    p2 = parse_plain("(())")
    assert dense(brute_force_edge(p2, 4), 4) == [1, 0, 1, 0, 4]
    p1h = parse_plain("halfedge:()")
    assert dense(brute_force_edge(p1h, 3), 3) == [1, 1, 2, 5]
    big = parse_plain("((()())(()())())")
    series = brute_force_edge(big, 10)
    assert dense(series, 10)[::2] == [1, 7, 58, 542, 5508, 59508]


def test_cross_oracle_small_trees():
    for n in range(1, 7):
        for tree in enumerate_free_trees(n):
            assert brute_force_edge(tree, 8) == brute_force_decorated(
                canonical_decorate(tree), 8
            ), tree
            for root in range(n):
                half = reroot(tree, root, half_edge=True)
                assert brute_force_edge(half, 8) == brute_force_decorated(
                    canonical_decorate(half), 8
                ), (tree, root)


def test_catalan_power_identity():
    c, power = generator_series("C", 12), series_of([1])
    for s in range(1, 9):
        power = _product(power, c, 12)
        assert dense(power, 12) == [catalan_power_coeff(s, n) for n in range(13)], s


def test_budget_guard():
    tree = canonical_decorate(parse_plain("((())(())())"))
    with pytest.raises(BudgetExceededError):
        brute_force_decorated(tree, 10, budget=50)
    with pytest.raises(BudgetExceededError):
        brute_force_edge(parse_plain("((())(())())"), 10, budget=10)
    # One unit per pair of table entries merged within the order (vertex
    # oracle) or per visited node (edge oracle): exact totals, and a budget
    # one unit short raises.
    # The work depends on the sibling order, so E_8 is pinned in two layouts.
    plain = parse_plain("((())(())())")
    half = parse_plain("halfedge:((())())")
    e8 = parse_plain(LINE_EXAMPLE_8.tree_text)
    e8_relaid = PlainTree((-1, 0, 0, 2, 2, 0, 5, 5))
    for oracle, tree, order, total in (
        (brute_force_decorated, canonical_decorate(plain), 10, 1160),
        (brute_force_decorated, canonical_decorate(half), 9, 400),
        (brute_force_decorated, canonical_decorate(e8), 8, 975),
        (brute_force_decorated, canonical_decorate(e8_relaid), 8, 1055),
        (brute_force_edge, plain, 10, 462),
        (brute_force_edge, half, 9, 196),
    ):
        oracle(tree, order, budget=total)
        with pytest.raises(BudgetExceededError):
            oracle(tree, order, budget=total - 1)


def test_oracles_walk_long_paths_without_recursion():
    n = sys.getrecursionlimit() + 100
    all_eq = DecoratedTree(
        tuple(range(-1, n - 1)), tuple(Decoration(WHITE, REL_EQ, 0) for _ in range(n))
    )
    assert dense(brute_force_decorated(all_eq, 2), 2) == [1, 0, 0]
    path = PlainTree(tuple(range(-1, n - 1)))
    assert dense(brute_force_edge(path, 0), 0) == [1]


@pytest.mark.parametrize(
    "oracle, tree",
    [
        (brute_force_decorated, DecoratedTree((-1,), (Decoration(GRAY, REL_NONE, 0),))),
        (brute_force_decorated, DecoratedTree((-1,), (Decoration(WHITE, REL_NONE, 0),))),
        (brute_force_edge, PlainTree((-1,))),
        (brute_force_edge, PlainTree((-1, 0))),
    ],
)
def test_oracles_reject_negative_order(oracle, tree):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        oracle(tree, -1)
    assert dense(oracle(tree, 0), 0) == [1]


def test_decorated_oracle_is_linear_on_long_paths():
    """On the all-`eq` white path at order 2 each vertex keeps only the
    entry (0, 0), so every edge merges 3 pairs: 3 * 3,999 units in all."""
    n = 4000
    all_eq = DecoratedTree(
        tuple(range(-1, n - 1)), tuple(Decoration(WHITE, REL_EQ, 0) for _ in range(n))
    )
    assert dense(brute_force_decorated(all_eq, 2, budget=11997), 2) == [1, 0, 0]
    with pytest.raises(BudgetExceededError):
        brute_force_decorated(all_eq, 2, budget=11996)


def test_decorated_oracle_matches_enumeration_on_random_trees():
    rng = random.Random(11)
    for trial in range(400):
        tree = random_decorated_tree(rng, max_vertices=7, kmin=-3, kmax=3)
        for order in (0, 1, 10):
            expected = enumerate_decorated(tree, order)
            assert brute_force_decorated(tree, order) == expected, (trial, order)


def test_decorated_oracle_matches_enumeration_on_golden_trees():
    for entry in TABLE + [LINE_EXAMPLE_8]:
        for text in (entry.tree_text, "halfedge:" + entry.tree_text):
            tree = canonical_decorate(parse_plain(text))
            assert brute_force_decorated(tree, 12) == enumerate_decorated(tree, 12), text


def test_decorated_oracle_matches_enumeration_on_two_vertex_trees():
    for rel, k, root_color in product(RELATIONS, range(-5, 6), (WHITE, BLACK, GRAY)):
        tree = two_vertex(rel, k, root_color)
        assert brute_force_decorated(tree, 8) == enumerate_decorated(tree, 8), (rel, k, root_color)


def test_decorated_oracle_matches_enumeration_on_long_stars():
    branches = [(i, j, k) for i in range(4) for j in range(4 - i) for k in range(4 - i - j)]
    colors = (GRAY, WHITE, BLACK)
    for (i, j, k), rel, shift, center in product(branches, RELATIONS, (-1, 0, 2), colors):
        tree = long_star_tree(i, j, k, rel, shift, center)
        expected = enumerate_decorated(tree, 6)
        assert brute_force_decorated(tree, 6) == expected, (i, j, k, rel, shift, center)


def test_oracle_root_choice_irrelevant():
    rng = random.Random(5)
    for n in (4, 5, 6):
        for tree in enumerate_free_trees(n):
            reference = brute_force_edge(tree, 8)
            root = rng.randrange(n)
            assert brute_force_edge(reroot(tree, root), 8) == reference


def test_decorated_oracle_matches_edge_on_random_reroots():
    rng = random.Random(6)
    for _ in range(20):
        tree = random_decorated_tree(rng, max_vertices=5)
        # sanity: the oracle is deterministic and exact
        assert brute_force_decorated(tree, 6) == brute_force_decorated(tree, 6)
