"""Shared helpers: random decorated trees, star builders, sum-expression
evaluation through the brute-force oracle, the raw 2F1 series."""

from __future__ import annotations

from fractions import Fraction

import pytest

from catsum.series import TruncatedSeries, brute_force_decorated, series_expand
from catsum.trees import (
    BLACK,
    GRAY,
    RELATIONS,
    REL_GE,
    REL_LE,
    REL_NONE,
    WHITE,
    Decoration,
    DecoratedTree,
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


@pytest.fixture(scope="session")
def shared_engine():
    from catsum.engine import Engine

    return Engine()
