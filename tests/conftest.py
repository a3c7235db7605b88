"""Shared helpers: random decorated trees, two-vertex and star builders,
sum-expression evaluation through the oracle, the exhaustive enumerations of
the vertex and of the edge variables, the raw 2F1 series and its value at 1,
the (B_s, C_s) star cross-check and the decorated-tree JSON writer."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from catsum.algebra import PiPoly
from catsum.series import (
    DEFAULT_BUDGET,
    TruncatedSeries,
    _Budget,
    _holds,
    brute_force_decorated,
    catalan,
    series_expand,
)
from catsum.trees import (
    BLACK,
    COLOR_NAMES,
    GRAY,
    RELATIONS,
    REL_GE,
    REL_LE,
    REL_NONE,
    WHITE,
    Decoration,
    DecoratedTree,
    PlainTree,
)


def random_decorated_tree(rng, max_vertices=7, max_nongray=6, kmin=-2, kmax=2):
    """Arbitrary decorated tree with a bounded number of non-gray vertices."""
    n = rng.randint(1, max_vertices)
    parents = [-1] + [rng.randrange(v) for v in range(1, n)]
    decos = []
    nongray = 0
    for _ in range(n):
        if nongray < max_nongray and rng.random() < 0.8:
            color = rng.choice((WHITE, BLACK))
            nongray += 1
        else:
            color = GRAY
        decos.append(Decoration(color, rng.choice(RELATIONS), rng.randint(kmin, kmax)))
    return DecoratedTree(tuple(parents), tuple(decos))


def two_vertex(rel, shift, root_color=WHITE) -> DecoratedTree:
    """A root with the given condition over one relation-free leaf of the
    other colour (white under a gray root)."""
    leaf_color = BLACK if root_color == WHITE else WHITE
    return DecoratedTree(
        (-1, 0), (Decoration(root_color, rel, shift), Decoration(leaf_color, REL_NONE, 0))
    )


def long_star_tree(i, j, k, rel, shift, center_color=GRAY) -> DecoratedTree:
    """A standalone long star: center plus i/j/k two-vertex branches whose
    white middles carry (ge,0)/(le,0)/(none,0) over relation-free black leaves."""
    parents = [-1]
    decos = [Decoration(center_color, rel, shift)]
    for branch_rel, count in ((REL_GE, i), (REL_LE, j), (REL_NONE, k)):
        for _ in range(count):
            mid = len(parents)
            parents.append(0)
            decos.append(Decoration(WHITE, branch_rel, 0))
            parents.append(mid)
            decos.append(Decoration(BLACK, REL_NONE, 0))
    return DecoratedTree(tuple(parents), tuple(decos))


def sumexpr_series(expr, order: int) -> TruncatedSeries:
    """Evaluate a sum expression through the oracle: every tree handle is
    expanded by brute force, coefficients exactly; negative powers in the
    coefficients must cancel across the whole expression."""
    shift = 0
    for coeff, _ in expr:
        low = coeff.min_t_exponent()
        if low is not None and low < 0:
            shift = max(shift, -low)
    acc = TruncatedSeries([], order + shift)
    for coeff, factors in expr:
        term = series_expand(coeff.shift_t(shift), order + shift)
        for tree in factors:
            term = term * brute_force_decorated(tree, order + shift)
        acc = acc + term
    return acc.shift(-shift)  # NegativePowerResidue if negative powers stay


def hypergeom_series(a: Fraction, b: Fraction, c: Fraction, order: int) -> TruncatedSeries:
    """Raw 2F1(a, b; c; z) series in z, truncated: sum a^(n) b^(n) / (c^(n) n!) z^n.
    An independent reference for the generator series and `hypergeom_hk`."""
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(order):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1))
        coeffs.append(term)
    return TruncatedSeries(coeffs, order)


def gauss_value_hk(k: int) -> PiPoly:
    """Exact value of 2F1(-1/2, K-1/2; K+1; 1) as a rational multiple of 1/pi.

    Gamma(K+1)Gamma(2)/(Gamma(K+3/2)Gamma(3/2)) = 4^(K+1) (K!)^2 / (2K+1)! * (1/pi).
    """
    if k < 0:
        raise ValueError("K must be nonnegative")
    coeff = Fraction(4 ** (k + 1) * factorial(k) ** 2, factorial(2 * k + 1))
    return PiPoly({1: coeff})


def star_eval_crosscheck_bc(s: int) -> PiPoly:
    """Value of the star with s+3 leaves through the explicit pair (B_s, C_s)
    with A_{s+3} = B_s * (4/pi) - C_s * (8/(3 pi)).

    Validated at t = 1/4 only; the (B_s, C_s) pair does not describe the full
    power series (its value at t = 0 is off), so this module never uses it
    away from 1/4.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    sum_b = sum(
        Fraction((k + 1) * (4 * k + 9) * comb(2 * k + 2, k + 1), 2**k) for k in range(s + 1)
    )
    sum_c = sum(
        Fraction((k + 1) * (4 * k + 13) * comb(2 * k + 2, k + 1), 2**k) for k in range(s + 1)
    )
    shared = Fraction(4**s * (s * s + 5 * s + 7), (s + 1) * (s + 2) * (s + 3) * comb(2 * s + 5, s + 2))
    b = Fraction((5 * s + 11) * 2 ** (s + 1), 2 * s + 5) + 4 * shared * sum_b
    c = Fraction(3 * (s - 1) * 2**s, 2 * s + 5) + 6 * shared * sum_c
    return PiPoly({1: b * 4 - c * Fraction(8, 3)})


def decorated_to_json(tree: DecoratedTree) -> dict:
    return {
        "vertices": [
            {
                "parent": tree.parents[v],
                "color": COLOR_NAMES[tree.decos[v].color],
                "rel": tree.decos[v].rel,
                "k": str(tree.decos[v].shift),
            }
            for v in range(len(tree))
        ]
    }


@pytest.fixture(scope="session")
def shared_engine():
    from catsum.engine import Engine

    return Engine()


def enumerate_decorated(tree: DecoratedTree, order: int) -> TruncatedSeries:
    """Tree sum by exhaustive enumeration of the vertex variables: the
    reference for `brute_force_decorated`, exponential in the number of
    non-gray vertices.

    Conditions are checked as soon as all variables under them are assigned,
    walking the non-gray vertices in postorder.
    """
    post = [v for v in tree.postorder() if tree.decos[v].color != GRAY]
    kappa = tree.shift_sums()
    # The (variable index, colour) pairs of the non-gray vertices under each
    # vertex, itself included.
    signed_under = [[] for _ in tree.parents]
    for i, u in enumerate(post):
        a = u
        while a >= 0:
            signed_under[a].append((i, tree.decos[u].color))
            a = tree.parents[a]

    # Schedule each condition at the step where its last non-gray descendant
    # gets a value; conditions over gray-only subtrees are constant.
    checks_at = [[] for _ in range(len(post) + 1)]
    for v, deco in enumerate(tree.decos):
        if deco.rel == REL_NONE:
            continue
        signed = signed_under[v]
        if not signed:
            if not _holds(0, deco.rel, kappa[v]):
                return TruncatedSeries([0] * (order + 1), order)
            continue
        slot = max(i for i, _ in signed) + 1
        checks_at[slot].append((signed, deco.rel, kappa[v]))

    coeffs = [0] * (order + 1)
    if not post:
        coeffs[0] = 1
        return TruncatedSeries(coeffs, order)
    # Depth-first over the weights.  A stack entry is (variable, weight left,
    # product of the Catalan numbers so far, weight to try next); the last
    # variable's weights are summed in place.
    weights = [0] * len(post)
    last = len(post) - 1
    stack = [(0, order, 1, 0)]
    while stack:
        idx, remaining, product, start = stack.pop()
        checks = checks_at[idx + 1]
        for w in range(start, remaining + 1):
            weights[idx] = w
            if all(
                _holds(sum(sign * weights[i] for i, sign in signed), rel, k)
                for signed, rel, k in checks
            ):
                if idx == last:
                    coeffs[order - remaining + w] += product * catalan(w)
                else:
                    stack.append((idx, remaining, product, w + 1))
                    stack.append((idx + 1, remaining - w, product * catalan(w), 0))
                    break
    return TruncatedSeries(coeffs, order)


def brute_force_edge(tree: PlainTree, order: int, budget: int = DEFAULT_BUDGET) -> TruncatedSeries:
    """Tree sum by direct enumeration of the edge variables.

    One nonnegative weight per edge (plus one for the half-edge when
    present); each vertex contributes Cat_{X_v} t^{X_v} with X_v the sum of
    the weights of its incident edges.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    counter = _Budget(budget)
    n = len(tree.parents)
    # Edge list: (child vertex) encodes the edge to its parent; the half-edge
    # is an extra variable incident only to the root.
    edges = [(tree.parents[v], v) for v in range(1, n)]
    incidence: list[list[int]] = [[] for _ in range(n)]
    for e, (p, v) in enumerate(edges):
        incidence[p].append(e)
        incidence[v].append(e)
    half_index = None
    if tree.half_edge:
        half_index = len(edges)
        incidence[0].append(half_index)
    n_edges = len(edges) + (1 if tree.half_edge else 0)

    coeffs = [0] * (order + 1)
    if n_edges == 0:
        coeffs[0] = 1
        return TruncatedSeries(coeffs, order)

    # Depth-first over the edge weights, one budget unit per visited node.  A
    # stack entry is (edge, degree left, weight to try next); the last edge's
    # weights are summed in place.
    x = [0] * n_edges
    counter.spend()
    stack = [(0, order, 0)]
    while stack:
        e, degree_left, start = stack.pop()
        # A normal edge adds 2x to the total degree, the half-edge adds x.
        step = 1 if e == half_index else 2
        for w in range(start, degree_left // step + 1):
            x[e] = w
            counter.spend()
            if e == n_edges - 1:
                degrees = [sum(x[i] for i in incidence[v]) for v in range(n)]
                coeffs[sum(degrees)] += prod(catalan(d) for d in degrees)
            else:
                stack.append((e, degree_left, w + 1))
                stack.append((e + 1, degree_left - step * w, 0))
                break
    return TruncatedSeries(coeffs, order)
