"""The reduction engine: base cases, rewrite rules, long stars, soundness."""

import random
import sys
from fractions import Fraction

import pytest

from catsum.algebra import H1, H2, ONE, ZERO, AlgebraElement, Laurent, PiPoly, catalan_gf
from catsum.engine import (
    DepthGuardExceeded,
    Engine,
    _merge_terms,
    base_sum,
    height_zero_sum,
    tridiagonal_inverse_row,
)
from catsum.series import (
    _product,
    _truncated,
    brute_force_decorated,
    catalan,
    catalan_power_coeff,
    generator_series,
    series_expand,
)
from catsum.table_data import TABLE
from catsum.trees import (
    BLACK,
    GRAY,
    REL_EQ,
    REL_GE,
    REL_LE,
    REL_NONE,
    WHITE,
    Decoration,
    DecoratedTree,
    canonical_decorate,
    canonical_key,
    parse_plain,
)

from conftest import (
    brute_force_edge,
    centroid_rooted,
    dense,
    long_star_tree,
    random_decorated_tree,
    series_of,
    sumexpr_series,
    two_vertex,
)

S0 = base_sum(REL_EQ, 0)


# -- base cases ----------------------------------------------------------------


def test_base_sum_closed_forms():
    assert S0 == (H1 - ONE).shift_t(-2).scale(Fraction(1, 4))
    assert base_sum(REL_EQ, 1) == (ONE - H2).shift_t(-1).scale(Fraction(1, 2))
    assert base_sum(REL_EQ, -1) == base_sum(REL_EQ, 1)
    assert base_sum(REL_GE, 0).eval_quarter() == PiPoly({1: 8})
    free = base_sum(REL_NONE, 0)
    assert free == base_sum(REL_NONE, 7)  # independent of the shift
    assert free == catalan_gf() ** 2
    assert base_sum(REL_LE, 2) == base_sum(REL_GE, -2)


def test_base_sums_match_oracle():
    """Shifts up to +-5 check the equality layers that `_peel` takes off."""
    for rel in (REL_EQ, REL_LE, REL_GE, REL_NONE):
        for k in range(-5, 6):
            series = series_expand(base_sum(rel, k), 8)
            assert series == brute_force_decorated(two_vertex(rel, k), 8), (rel, k)
            # black-rooted orientation gives the same sums
            assert series == brute_force_decorated(
                two_vertex(rel, k, root_color=BLACK), 8
            ), (rel, k)


def test_base_sum_degree_bound():
    for rel in (REL_EQ, REL_LE, REL_GE, REL_NONE):
        for k in range(-3, 4):
            value = base_sum(rel, k)
            assert value.degree() is not None and value.degree() <= 2


def test_height_zero_table():
    assert height_zero_sum(Decoration(WHITE, REL_NONE, 0)) == catalan_gf()
    assert height_zero_sum(Decoration(WHITE, REL_LE, 2)) == AlgebraElement.from_laurent(
        Laurent({0: 1, 1: 1, 2: 2})
    )
    assert height_zero_sum(Decoration(GRAY, REL_EQ, 1)).is_zero()
    assert height_zero_sum(Decoration(GRAY, REL_GE, -2)) == ONE
    assert height_zero_sum(Decoration(WHITE, REL_EQ, 2)) == AlgebraElement.from_laurent(
        Laurent.t_power(2, 2)
    )
    assert height_zero_sum(Decoration(WHITE, REL_EQ, -1)).is_zero()
    assert height_zero_sum(Decoration(BLACK, REL_EQ, -2)) == AlgebraElement.from_laurent(
        Laurent.t_power(2, 2)
    )
    assert height_zero_sum(Decoration(BLACK, REL_GE, 1)).is_zero()
    assert height_zero_sum(Decoration(BLACK, REL_LE, 0)) == catalan_gf()
    # oracle comparison across the full table
    for color in (WHITE, BLACK, GRAY):
        for rel in (REL_EQ, REL_LE, REL_GE, REL_NONE):
            for k in range(-3, 4):
                tree = DecoratedTree((-1,), (Decoration(color, rel, k),))
                assert series_expand(height_zero_sum(tree.decos[0]), 7) == (
                    brute_force_decorated(tree, 7)
                ), (color, rel, k)


# -- named reductions ------------------------------------------------------------


def test_reduce_golden_small_trees(shared_engine):
    p2 = shared_engine.reduce(canonical_decorate(parse_plain("(())")))
    assert p2 == S0
    assert p2.eval_quarter() == PiPoly({1: 16, 0: -4})
    assert p2.eval_quarter().to_decimal(6) == "1.092958"

    p4 = shared_engine.reduce(canonical_decorate(parse_plain("((())())")))
    expected = (H1 * H1 + 2 * H1 - 16 * AlgebraElement.from_laurent(Laurent.t_power(2)) - 3) / (
        32 * AlgebraElement.from_laurent(Laurent.t_power(4))
    )
    assert p4 == expected
    assert p4.eval_quarter() == PiPoly({2: 128, 1: 64, 0: -32})

    p1h = shared_engine.reduce(canonical_decorate(parse_plain("halfedge:()")))
    assert p1h == catalan_gf()
    assert p1h.eval_quarter() == PiPoly({0: 2})


def test_reduce_eight_vertex_example(shared_engine):
    tree = canonical_decorate(parse_plain("((()())(()())())"))
    value = shared_engine.reduce(tree)
    assert value.eval_quarter() == PiPoly(
        {
            3: Fraction(2**16, 9),
            2: Fraction(2**16, 9),
            1: Fraction(-(2**13), 35),
            0: -7 * 2**7,
        }
    )
    series = series_expand(value, 10)
    assert dense(series, 10)[::2] == [1, 7, 58, 542, 5508, 59508]


def test_step_equality_factor():
    tree = DecoratedTree(
        (-1, 0, 1),
        (
            Decoration(WHITE, REL_EQ, 0),
            Decoration(BLACK, REL_EQ, 0),
            Decoration(WHITE, REL_NONE, 0),
        ),
    )
    rule, site, expr = Engine().step(tree)
    assert rule == "factor-equality" and site == 1
    (coeff, parts), = expr
    assert coeff == ONE and len(parts) == 2
    assert len(parts[0]) == 1 and len(parts[1]) == 2


def test_step_leaf_rules():
    tree = DecoratedTree(
        (-1, 0),
        (Decoration(WHITE, REL_NONE, 0), Decoration(BLACK, REL_GE, 0)),
    )
    rule, _, expr = Engine().step(tree)
    assert rule == "relax-leaf"
    ((_, (after,)),) = expr
    assert after.decos[1].rel == REL_EQ  # black (ge,0) forces the variable to 0

    tree = DecoratedTree(
        (-1, 0),
        (Decoration(WHITE, REL_NONE, 0), Decoration(BLACK, REL_LE, 0)),
    )
    rule, _, expr = Engine().step(tree)
    assert rule == "relax-leaf"
    ((_, (after,)),) = expr
    assert after.decos[1].rel == REL_NONE


def test_step_twin_merge():
    white = Decoration(WHITE, REL_NONE, 0)
    tree = DecoratedTree((-1, 0, 0), (Decoration(BLACK, REL_EQ, 0), white, white))
    rule, _, expr = Engine().step(tree)
    assert rule == "merge-twin-leaves"
    (c1, (merged,)), (c2, (dropped,)) = expr
    assert c1 == ONE.shift_t(-1) and c2 == ONE.shift_t(-1).scale(-1)
    # The parent takes the +1 once; the merged leaf keeps (none, 0).
    assert len(merged) == 2 and merged.decos == (Decoration(BLACK, REL_EQ, 1), white)
    assert len(dropped) == 1 and dropped.decos[0] == Decoration(BLACK, REL_EQ, 1)
    # A parent of the twins' color joins them: C^3 = -1/t^2 + (-1/t + 1/t^2) C,
    # so the Q terms keep the parent's variable and the P term turns it gray.
    tree = DecoratedTree((-1, 0, 0), (Decoration(WHITE, REL_EQ, 0), white, white))
    rule, _, expr = Engine().step(tree)
    assert rule == "merge-twin-leaves"
    assert expr == [
        (ONE.shift_t(-1).scale(-1), (DecoratedTree((-1,), (Decoration(WHITE, REL_EQ, 1),)),)),
        (ONE.shift_t(-2), (DecoratedTree((-1,), (Decoration(WHITE, REL_EQ, 2),)),)),
        (ONE.shift_t(-2).scale(-1), (DecoratedTree((-1,), (Decoration(GRAY, REL_EQ, 2),)),)),
    ]
    # Two twin pairs: the merge takes the lowest leaf that has a twin, here
    # 1 (twin 5), although the pair 3, 4 is complete first in index order.
    black, white = Decoration(BLACK, REL_NONE, 0), Decoration(WHITE, REL_NONE, 0)
    tree = DecoratedTree(
        (-1, 0, 0, 2, 2, 0), (Decoration(WHITE, REL_EQ, 0), black, black, white, white, black)
    )
    rule, site, ((_, (merged,)), _) = Engine().step(tree)
    assert (rule, site) == ("merge-twin-leaves", 1)
    assert merged.parents == (-1, 0, 0, 2, 2)
    assert merged.decos[:2] == (Decoration(WHITE, REL_EQ, -1), black)


def test_merge_terms_are_the_catalan_powers():
    """P_m(1/t) + Q_m(1/t) C, from the terms (c/t^j, j, keeps) of
    `_merge_terms(m)`, equals C^m through t^30: its coefficients are the
    ballot numbers.  Q's terms (keeps) come first, each part in increasing j."""
    c = generator_series("C", 42)  # Q_m has powers down to t^(1 - m)
    for m in range(1, 13):
        terms = _merge_terms(m)
        flags = [keeps for _, _, keeps in terms]
        assert flags == sorted(flags, reverse=True)
        for part in (True, False):
            js = [j for _, j, keeps in terms if keeps == part]
            assert js == sorted(set(js))
        p, q = Laurent(), Laurent()
        for coeff, j, keeps in terms:
            ((key, poly),) = coeff.terms.items()
            assert key == (0, 0, 0) and list(poly.terms) == [-j]
            if keeps:
                q = q + poly
            else:
                p = p + poly
        power = series_of([catalan_power_coeff(m, n) for n in range(31)])
        assert _truncated(p + _product(q, c, 30), 30) == power, m
    assert _merge_terms(2) == (
        (ONE.shift_t(-1), 1, True),
        (ONE.shift_t(-1).scale(-1), 1, False),
    )


def test_step_no_rule():
    """Trees without a generic rewrite: a good tree takes a long-star step, a
    single vertex its closed form; both steps are locally sound."""
    good = long_star_tree(1, 1, 0, REL_LE, 0)
    single = DecoratedTree((-1,), (Decoration(WHITE, REL_NONE, 0),))
    for tree, expected in ((good, LONG_STAR_RULES), (single, {"height-zero"})):
        rule, site, expr = Engine().step(tree)
        assert rule in expected and site == 0
        assert brute_force_decorated(tree, 8) == sumexpr_series(expr, 8), rule


RULES_TO_COVER = {
    "factor-equality",
    "shift-toward-zero",
    "drop-gray-leaf",
    "relax-leaf",
    "push-free-shift",
    "merge-twin-leaves",
    "merge-leaf-into-parent",
    "absorb-leaf-into-gray",
}


def _twin_leaf_tree(color, extra=()):
    decos = (Decoration(WHITE if color == BLACK else BLACK, REL_EQ, 0),) + (
        Decoration(color, REL_NONE, 0),
    ) * 2 + extra
    return DecoratedTree((-1, 0, 0) + (0,) * len(extra), decos)


def test_generic_rules_locally_sound():
    """For every step, generic rewrites included: the oracle series of the
    input equals the oracle evaluation of the produced expression (order 8)."""
    rng = random.Random(42)
    engine = Engine()
    covered = set()
    crafted = [
        _twin_leaf_tree(WHITE),
        _twin_leaf_tree(BLACK),
        _twin_leaf_tree(BLACK, extra=(Decoration(WHITE, REL_GE, 0),)),
        # relation-free leaf under a same-colored parent
        DecoratedTree(
            (-1, 0), (Decoration(WHITE, REL_EQ, 0), Decoration(WHITE, REL_NONE, 0))
        ),
        DecoratedTree(
            (-1, 0, 0),
            (
                Decoration(BLACK, REL_GE, 0),
                Decoration(BLACK, REL_NONE, 0),
                Decoration(WHITE, REL_NONE, 0),
            ),
        ),
        # relation-free leaf under a gray parent
        DecoratedTree(
            (-1, 0), (Decoration(GRAY, REL_LE, 0), Decoration(WHITE, REL_NONE, 0))
        ),
        DecoratedTree(
            (-1, 0, 1),
            (
                Decoration(WHITE, REL_EQ, 0),
                Decoration(GRAY, REL_GE, 0),
                Decoration(BLACK, REL_NONE, 0),
            ),
        ),
    ]
    # groups of 3-5 same-colored leaves merge in one rewrite, at a root with
    # a nonzero shift and below it, under a parent of the other color, a gray
    # parent and a parent of their color (which joins the group)
    for m, rel, k in ((3, REL_LE, -1), (4, REL_GE, 2), (5, REL_NONE, 1)):
        for color in (WHITE, BLACK):
            leaf = Decoration(color, REL_NONE, 0)
            for parent_color in (WHITE if color == BLACK else BLACK, GRAY, color):
                crafted.append(
                    DecoratedTree(
                        (-1,) + (0,) * m, (Decoration(parent_color, REL_EQ, k),) + (leaf,) * m
                    )
                )
                crafted.append(
                    DecoratedTree(
                        (-1, 0) + (1,) * m + (0,),
                        (Decoration(WHITE, REL_EQ, -k), Decoration(parent_color, rel, 0))
                        + (leaf,) * m
                        + (Decoration(BLACK, REL_NONE, 0),),
                    )
                )
    # inequality shifts up to +-5 peel to zero in one rewrite, at the root
    # and below it (where the parent compensates every changed shift)
    for color in (WHITE, BLACK, GRAY):
        for rel in (REL_GE, REL_LE):
            for k in (-5, -2, 2, 5):
                crafted.append(DecoratedTree((-1,), (Decoration(color, rel, k),)))
                crafted.append(
                    DecoratedTree(
                        (-1, 0, 1),
                        (
                            Decoration(WHITE, REL_EQ, 1),
                            Decoration(color, rel, k),
                            Decoration(BLACK, REL_NONE, 0),
                        ),
                    )
                )
    trees = crafted + [
        random_decorated_tree(rng, max_vertices=6, max_nongray=5) for _ in range(400)
    ]
    for tree in trees:
        rule, _, expr = engine.step(tree)
        covered.add(rule)
        lhs = brute_force_decorated(tree, 8)
        rhs = sumexpr_series(expr, 8)
        assert lhs == rhs, (rule, tree)
    assert RULES_TO_COVER <= covered, RULES_TO_COVER - covered


LONG_STAR_RULES = {
    "ustar-merge-free-branch",
    "ustar-reverse-branch",
    "ustar-drop-implied-center",
    "ustar-forced-equalities",
    "ustar-finite-enumeration",
    "vstar-double-merge",
    "vstar-reverse-free-branch",
    "vstar-linear-system",
    "vstar-drop-implied-center",
    "vstar-forced-equalities",
    "vstar-finite-enumeration",
}


def _is_good(tree):
    """Reference predicate for the good class, written out clause by clause
    apart from the engine's rule scan."""
    decos, parents = tree.decos, tree.parents
    leaves = [v for v in range(1, len(tree)) if not tree.children[v]]
    leaf_sites = [(parents[v], decos[v].color) for v in leaves]
    return (
        all(d.rel != REL_EQ for d in decos[1:])  # (i) no nonroot equality
        and all(d.shift == 0 for d in decos if d.rel in (REL_LE, REL_GE))  # (ii)
        # (iii) every nonroot leaf is non-gray with decoration (none, 0)
        and all(
            decos[v].color != GRAY and (decos[v].rel, decos[v].shift) == (REL_NONE, 0)
            for v in leaves
        )
        and len(set(leaf_sites)) == len(leaf_sites)  # (iv) no same-colored leaf twins
        and all(decos[parents[v]].color != decos[v].color for v in leaves)  # (v)
        and all(decos[parents[v]].color != GRAY for v in leaves)  # (vi)
    )


def test_non_generic_steps_see_only_good_trees():
    """Goodness has no check in the engine: a tree on which no generic rule
    fires must be good.  Over every subproblem of the golden trees and of
    500 random trees, each step past the generic rules sees a good tree, and
    each generic rule but push-free-shift (which also fires on inner
    vertices) sees a tree that is not good."""
    rng = random.Random(2026)
    stack = [canonical_decorate(parse_plain(entry.tree_text)) for entry in TABLE]
    stack += [random_decorated_tree(rng) for _ in range(500)]
    engine = Engine()
    seen = set()
    checked = set()
    while stack:
        tree = stack.pop()
        key = canonical_key(tree)
        if key in seen:
            continue
        seen.add(key)
        rule, _, expr = engine.step(tree)
        if rule in RULES_TO_COVER:
            assert rule == "push-free-shift" or not _is_good(tree), (rule, tree)
        elif rule != "height-zero":
            assert _is_good(tree), (rule, tree)
            checked.add(rule)
        stack += [factor for _, factors in expr for factor in factors]
    assert checked == LONG_STAR_RULES | {
        "two-vertex-base",
        "factor-free-root",
        "dissolve-free-center",
        "swap-colors",
        "pull-down-center-variable",
    }


def test_long_star_rules_locally_sound():
    engine = Engine()
    covered = set()
    cases = []
    for rel in (REL_GE, REL_LE):
        for color in (GRAY, WHITE):
            cases += [
                (2, 0, 0, rel, 0, color),
                (0, 2, 0, rel, 0, color),
                (1, 1, 0, rel, 0, color),
                (1, 0, 1, rel, 0, color),
                (1, 1, 2, rel, 0, color),
            ]
    for k_shift in (-1, 0, 2):
        for color in (GRAY, WHITE):
            cases += [(2, 0, 0, REL_EQ, k_shift, color), (1, 1, 1, REL_EQ, k_shift, color)]
    for i, j, k, rel, shift, color in cases:
        tree = long_star_tree(i, j, k, rel, shift, center_color=color)
        expr = engine.step(tree)[2]
        lhs = brute_force_decorated(tree, 8)
        assert lhs == sumexpr_series(expr, 8), (i, j, k, rel, shift, color)
    # collect rule names through traces for coverage
    lines = []
    traced = Engine(trace=lines.append)
    for i, j, k, rel, shift, color in cases:
        traced.reduce(long_star_tree(i, j, k, rel, shift, center_color=color))
    for line in lines:
        name = line.split()[1]
        covered.add(name)
    assert LONG_STAR_RULES <= covered, LONG_STAR_RULES - covered


def test_step_long_star_preconditions():
    """A relation-free center is no long star: the root factorizes instead."""
    free_center = long_star_tree(1, 0, 1, REL_NONE, 0)
    rule, site, expr = Engine().step(free_center)
    assert (rule, site) == ("factor-free-root", 0)
    assert brute_force_decorated(free_center, 8) == sumexpr_series(expr, 8)


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _enumerated_eq_star(d, total):
    """Sum over d nonnegative branch differences adding up to `total` of the
    product of their two-vertex equality sums, by explicit enumeration."""
    value = ZERO
    if total < 0:
        return value
    for comp in _compositions(total, d):
        term = ONE
        for x in comp:
            term = term * base_sum(REL_EQ, x)
        value = value + term
    return value


def test_finite_enumeration_matches_compositions():
    """Equality-rooted one-sided stars against the composition walk: gray
    centers over d ge- or le-branches, white centers whose own variable r
    adds Cat_r t^r toward the total; and le-rooted ones, forced equalities,
    against the walk at total 0."""
    engine = Engine()
    for d in range(1, 5):
        for total in range(-3, 6):
            gray = ("vstar-finite-enumeration", 0, [(_enumerated_eq_star(d, total), ())])
            assert engine.step(long_star_tree(d, 0, 0, REL_EQ, total)) == gray
            assert engine.step(long_star_tree(0, d, 0, REL_EQ, -total)) == gray
            white = ZERO
            for r in range(total + 1):
                white = white + _enumerated_eq_star(d, total - r).mul_laurent(
                    Laurent.t_power(r, catalan(r))
                )
            tree = long_star_tree(d, 0, 0, REL_EQ, total, center_color=WHITE)
            assert engine.step(tree) == ("ustar-finite-enumeration", 0, [(white, ())])
        # A le root over ge-branches (ge over le-branches) pinches every branch
        # to equality: the enumeration at total 0, where a white center's
        # variable is 0 too.
        forced = [(_enumerated_eq_star(d, 0), ())]
        for prefix, color in (("vstar", GRAY), ("ustar", WHITE)):
            tree = long_star_tree(d, 0, 0, REL_LE, 0, center_color=color)
            assert engine.step(tree) == (f"{prefix}-forced-equalities", 0, forced)
        tree = long_star_tree(0, d, 0, REL_GE, 0)
        assert engine.step(tree) == ("vstar-forced-equalities", 0, forced)


def test_long_star_examples(shared_engine):
    # gray eq 0 star over two ge-branches: a finite enumeration at total 0,
    # every branch difference 0
    assert shared_engine.reduce(long_star_tree(2, 0, 0, REL_EQ, 0)) == S0 * S0
    # white (ge,0) star over d branches: free root times one ge-branch each
    for d in (1, 2, 3):
        value = shared_engine.reduce(long_star_tree(d, 0, 0, REL_GE, 0, center_color=WHITE))
        assert value == catalan_gf() * base_sum(REL_GE, 0) ** d
    # the 6-vertex worked example
    t6c = shared_engine.reduce(canonical_decorate(parse_plain("((())(())())")))
    assert t6c.eval_quarter() == PiPoly(
        {3: Fraction(4096, 3), 2: 1024, 1: Fraction(-512, 9), 0: -128}
    )


def test_long_star_solve_small_systems():
    """The linear-system step rewrites a mixed gray star into the stars on
    the right-hand side of its tridiagonal system, in one step."""
    for tree in (
        long_star_tree(1, 1, 0, REL_LE, 0),
        long_star_tree(2, 1, 0, REL_EQ, 0),
        long_star_tree(1, 2, 0, REL_EQ, 0),
    ):
        rule, site, expr = Engine().step(tree)
        assert (rule, site) == ("vstar-linear-system", 0)
        oracle = brute_force_decorated(tree, 8)
        assert sumexpr_series(expr, 8) == oracle
        assert series_expand(Engine().reduce(tree), 8) == oracle


def test_tridiagonal_solver_exact():
    for n in range(1, 13):
        inv = [tridiagonal_inverse_row(n, r) for r in range(n)]
        # check M * inv = I
        for r in range(n):
            for c in range(n):
                entry = sum(
                    (2 if r == m else 1 if abs(r - m) == 1 else 0) * inv[m][c] for m in range(n)
                )
                assert entry == (1 if r == c else 0)
        # determinant via elimination: d_n = 2 d_{n-1} - d_{n-2}, d_1 = 2, gives n + 1
        det = Fraction(1)
        matrix = [
            [Fraction(2 if r == c else 1 if abs(r - c) == 1 else 0) for c in range(n)]
            for r in range(n)
        ]
        for col in range(n):
            det *= matrix[col][col]
            for r in range(col + 1, n):
                if matrix[r][col]:
                    f = matrix[r][col] / matrix[col][col]
                    matrix[r] = [a - f * b for a, b in zip(matrix[r], matrix[col])]
        assert det == n + 1


# -- global soundness and structure ---------------------------------------------


def test_oracle_soundness_randomized():
    rng = random.Random(99)
    for _ in range(120):
        tree = random_decorated_tree(rng, max_vertices=7, max_nongray=6)
        value = Engine().reduce(tree)
        assert series_expand(value, 8) == brute_force_decorated(tree, 8)


def test_engine_on_all_small_half_edge_trees(shared_engine):
    """Every rooting of every free tree with <= 6 vertices, with the
    half-edge at the root: engine equals the edge-variable oracle, and the
    root inequality keeps the value inside the extended algebra."""
    from catsum.trees import enumerate_free_trees, reroot

    for n in range(1, 7):
        for tree in enumerate_free_trees(n):
            for root in range(n):
                half = reroot(tree, root, half_edge=True)
                decorated = canonical_decorate(half)
                value = shared_engine.reduce(decorated)
                assert series_expand(value, 8) == brute_force_edge(half, 8), (n, root)
                if not value.is_zero():
                    assert value.degree() <= n


def test_equality_root_stays_in_base_algebra():
    rng = random.Random(100)
    checked = 0
    while checked < 60:
        tree = random_decorated_tree(rng)
        if tree.decos[0].rel != REL_EQ:
            continue
        checked += 1
        value = Engine().reduce(tree)
        assert all(c == 0 for _, _, c in value.terms), tree


def test_degree_bounds_randomized():
    rng = random.Random(101)
    for _ in range(100):
        tree = random_decorated_tree(rng)
        value = Engine().reduce(tree)
        if value.is_zero():
            continue
        assert value.degree() <= tree.nongray_count
        evaluation = value.eval_quarter()
        if not evaluation.is_zero():
            assert evaluation.degree() <= tree.nongray_count // 2


def test_degree_tightness_witnesses():
    engine = Engine()
    for d in range(1, 6):
        gray = engine.reduce(long_star_tree(d, 0, 0, REL_LE, 0))
        assert gray == S0**d
        assert gray.degree() == 2 * d
        assert gray.eval_quarter().degree() == d
        white = engine.reduce(long_star_tree(d, 0, 0, REL_GE, 0, center_color=WHITE))
        assert white.degree() == 2 * d + 1
        assert white.eval_quarter().degree() == d


class _Forgetful(dict):
    """An engine memo that stores nothing, so every subtree is reduced again."""

    def __setitem__(self, key, value):
        pass


def test_memo_transparency():
    rng = random.Random(102)
    for _ in range(25):
        tree = random_decorated_tree(rng, max_vertices=6)
        forgetful = Engine()
        forgetful.memo = _Forgetful()
        assert Engine().reduce(tree) == forgetful.reduce(tree)


def test_memo_reuse_and_determinism():
    engine = Engine()
    tree = canonical_decorate(parse_plain("((())(())())"))
    first = engine.reduce(tree)
    cycles_after_first = engine.cycles
    assert engine.reduce(tree) == first
    assert engine.cycles == cycles_after_first  # memo hit, no extra work
    assert canonical_key(tree) in engine.memo


def test_large_shifts_peel_in_one_rewrite():
    """A shift of 1500 peels to zero in one rewrite, so the reduction stays
    shallow under the default recursion limit and matches the oracle.  Both
    sums are zero through t^8, so this compares zero with zero; the shift
    rules meet a nonzero oracle in `test_shift_rules_match_a_nonzero_oracle`."""
    leaf_shift = DecoratedTree(
        (-1, 0), (Decoration(WHITE, REL_EQ, 0), Decoration(WHITE, REL_GE, 1500))
    )
    gray_middle = DecoratedTree(
        (-1, 0, 1),
        (
            Decoration(WHITE, REL_GE, 0),
            Decoration(GRAY, REL_LE, -1500),
            Decoration(WHITE, REL_NONE, 0),
        ),
    )
    for tree in (leaf_shift, gray_middle):
        value = Engine().reduce(tree)
        assert series_expand(value, 8) == brute_force_decorated(tree, 8)


def _over_two_black_leaves(rel, shift) -> DecoratedTree:
    leaf = Decoration(BLACK, REL_NONE, 0)
    return DecoratedTree((-1, 0, 0), (Decoration(WHITE, rel, shift), leaf, leaf))


@pytest.mark.parametrize(
    "tree, shift",
    [
        (_over_two_black_leaves(REL_GE, 40), 40),
        (_over_two_black_leaves(REL_LE, -40), 40),
        (_over_two_black_leaves(REL_GE, -40), 40),
        (_over_two_black_leaves(REL_EQ, 40), 40),
        (
            DecoratedTree((-1, 0), (Decoration(WHITE, REL_NONE, 0), Decoration(BLACK, REL_GE, -40))),
            40,
        ),
        (
            DecoratedTree(
                (-1, 0, 1),
                (
                    Decoration(WHITE, REL_GE, 30),
                    Decoration(GRAY, REL_NONE, 0),
                    Decoration(BLACK, REL_NONE, 0),
                ),
            ),
            30,
        ),
    ],
    ids=[
        "white-ge-40",
        "white-le-minus-40",
        "white-ge-minus-40",
        "white-eq-40",
        "leaf-ge-minus-40",
        "gray-middle-ge-30",
    ],
)
def test_shift_rules_match_a_nonzero_oracle(tree, shift):
    """Shifts of 30 and 40, peeled or resolved at a leaf, against the oracle
    at order 2K + 8, where its series is not zero.  (A gray `ge 40` root over
    black leaves is zero at every order, so it is no such case.)"""
    order = 2 * shift + 8
    oracle = brute_force_decorated(tree, order)
    assert not oracle.is_zero()
    assert series_expand(Engine().reduce(tree), order) == oracle


def test_shift_peeling_identity_in_the_algebra():
    """S(ge K) = S(ge 0) - sum_{r<K} S(eq r) as algebra elements, for a black
    `ge K` vertex between a free white root and a white leaf, with a black
    leaf under the root."""
    engine = Engine()

    def closed_form(rel, k):
        decos = (
            Decoration(WHITE, REL_NONE, 0),
            Decoration(BLACK, rel, k),
            Decoration(WHITE, REL_NONE, 0),
            Decoration(BLACK, REL_NONE, 0),
        )
        return engine.reduce(DecoratedTree((-1, 0, 1, 0), decos))

    k = 100
    peeled = closed_form(REL_GE, 0)
    for r in range(k):
        peeled = peeled - closed_form(REL_EQ, r)
    assert closed_form(REL_GE, k) == peeled


@pytest.mark.parametrize(
    "color, d, shift",
    [(c, d, k) for c in (WHITE, GRAY) for d in (2, 3) for k in (10, 20)] + [(WHITE, 3, 40)],
)
def test_finite_enumeration_past_small_root_shifts(color, d, shift):
    """An equality root with shift K over d `ge` branches is a finite
    enumeration; the engine matches the oracle at order 2K + 8, where the
    oracle series is not zero.  The white `eq 40` case over three branches
    is the one whose engine time shows when the enumeration builds more
    than the one coefficient it reads."""
    tree = long_star_tree(d, 0, 0, REL_EQ, shift, center_color=color)
    lines = []
    value = Engine(trace=lines.append).reduce(tree)
    prefix = "ustar" if color == WHITE else "vstar"
    assert lines == [f"RULE {prefix}-finite-enumeration AT 0 -> 1 subproblems"]
    order = 2 * shift + 8
    oracle = brute_force_decorated(tree, order)
    assert not oracle.is_zero()
    assert series_expand(value, order) == oracle


def test_depth_guard():
    tree = canonical_decorate(parse_plain("((())(())())"))
    with pytest.raises(DepthGuardExceeded):
        Engine(max_cycles=5).reduce(tree)


def test_engine_recovers_after_cycle_budget():
    """A budget failure leaves no tree marked as in progress: the same
    engine, given a larger budget, then reduces the tree correctly, and
    reduces it again from the memo, or without one in as many cycles."""
    tree = canonical_decorate(parse_plain("((())(())())"))
    for memoize in (True, False):
        engine = Engine(max_cycles=5)
        if not memoize:
            engine.memo = _Forgetful()
        with pytest.raises(DepthGuardExceeded, match="driver cycles"):
            engine.reduce(tree)
        assert engine.cycles == 6
        engine.max_cycles = 10**5
        value = engine.reduce(tree)
        assert series_expand(value, 8) == brute_force_decorated(tree, 8)
        cycles = engine.cycles - 6
        assert engine.reduce(tree) == value
        assert engine.cycles == 6 + cycles + (0 if memoize else cycles)


def test_cycle_budget_is_per_reduction():
    """`max_cycles` bounds each `reduce` call, not the running total in
    `cycles`: a long-lived engine still reduces a small tree after earlier
    calls have used most of the budget, and a call over it still fails."""
    engine = Engine(max_cycles=600)
    engine.reduce(canonical_decorate(parse_plain("(" * 8 + ")" * 8)))
    assert engine.cycles == 577
    half = canonical_decorate(parse_plain("halfedge:" + "(" * 5 + ")" * 5))
    value = engine.reduce(half)
    assert engine.cycles == 687
    assert series_expand(value, 8) == brute_force_decorated(half, 8)
    with pytest.raises(DepthGuardExceeded, match="more than 600 driver cycles"):
        engine.reduce(canonical_decorate(parse_plain("(" * 12 + ")" * 12)))


def test_deep_path_needs_no_recursion():
    """The driver keeps its own stack: on the canonically decorated
    400-vertex path the cycle budget runs out, under the default recursion
    limit, before any recursion limit could."""
    limit = sys.getrecursionlimit()
    tree = canonical_decorate(centroid_rooted(parse_plain("(" * 400 + ")" * 400)))
    with pytest.raises(DepthGuardExceeded, match="driver cycles"):
        Engine(max_cycles=2000).reduce(tree)
    assert sys.getrecursionlimit() == limit


def test_revisit_guard():
    """A rewrite that leads back to a tree still being reduced is reported,
    and the failed reduction leaves no tree marked as in progress."""

    class Looping(Engine):
        def step(self, tree):
            return "identity", 0, [(ONE, (tree,))]

    tree = canonical_decorate(parse_plain("(()())"))
    engine = Looping()
    with pytest.raises(DepthGuardExceeded, match="revisited a tree already on the stack"):
        engine.reduce(tree)
    assert engine.cycles == 1
    with pytest.raises(DepthGuardExceeded, match="revisited a tree already on the stack"):
        engine.reduce(tree)
    assert engine.cycles == 2


def test_color_symmetric_tree_survives_swap():
    """A tree isomorphic to its own color swap shares the swap's canonical
    key; the driver's black-center swap must not be mistaken for a cycle."""
    from catsum.trees import canonical_key, swap_colors

    tree = DecoratedTree(
        (-1, 0, 1, 2, 0, 4, 5),
        (
            Decoration(GRAY, REL_NONE, 0),
            Decoration(BLACK, REL_LE, 0),
            Decoration(WHITE, REL_GE, 0),
            Decoration(BLACK, REL_NONE, 0),
            Decoration(WHITE, REL_GE, 0),
            Decoration(BLACK, REL_LE, 0),
            Decoration(WHITE, REL_NONE, 0),
        ),
    )
    assert canonical_key(tree) == canonical_key(swap_colors(tree))
    value = Engine().reduce(tree)
    assert series_expand(value, 8) == brute_force_decorated(tree, 8)


def test_trace_walkthrough_of_six_vertex_example():
    """The classic 6-vertex reduction pulls the root variable down into a
    fresh branch and then solves the mixed-star linear system."""
    lines = []
    Engine(trace=lines.append).reduce(canonical_decorate(parse_plain("((())(())())")))
    text = "\n".join(lines)
    assert "pull-down-center-variable" in text
    assert "vstar-linear-system" in text
    assert "vstar-reverse-free-branch" in text


def test_trace_format():
    lines = []
    Engine(trace=lines.append).reduce(canonical_decorate(parse_plain("(())")))
    assert lines, "no trace emitted"
    for line in lines:
        parts = line.split()
        assert parts[0] == "RULE" and parts[2] == "AT" and parts[4] == "->"
        assert parts[6] == "subproblems"
