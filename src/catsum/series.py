"""Truncated power series over Q and the summation oracle.

A series through t^N is a plain `algebra.Laurent` whose exponents lie in
0..N, the exact coefficients of t^0 .. t^N.  `_truncated` cuts a Laurent
there, `_product` multiplies only the exponent pairs that land at or below
N, and `series_text` and `series_json` render a series for the CLI.  The
module expands algebra elements into series (each term's coefficient times
truncated products with the generator series of H1, H2 and s, which like
the Catalan series C have explicit coefficient formulas) and computes tree
sums directly from their defining summation over the vertex variables, the
independent ground truth everything else is checked against: a tree DP over
the vertices in reverse index order, so children before parents,
O(n * N^4) on n vertices at order N.  It shares with the engine only the
relation predicate `_holds`, which `engine.height_zero_sum` also reads.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import comb

from .algebra import (
    L_ZERO,
    AlgebraElement,
    Laurent,
    _fraction_text,
    _joined,
    _normal,
    _stored,
    _term,
)
from .trees import GRAY, DecoratedTree

DEFAULT_BUDGET = 10**8


class NegativePowerResidue(ValueError):
    """A t^-k term survived expansion: the element is not a power series."""


class BudgetExceededError(RuntimeError):
    """A summation oracle exceeded its work budget."""


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n)/(n + 1)."""
    if n < 0:
        raise ValueError("negative Catalan index")
    return comb(2 * n, n) // (n + 1)


def catalan_power_coeff(s: int, n: int) -> int:
    """Coefficient of t^n in C(t)^s, equal to s/(n+s) * binom(2n+s-1, n)."""
    if s == 0:
        return 1 if n == 0 else 0
    return s * comb(2 * n + s - 1, n) // (n + s)


def _truncated(poly: Laurent, order: int) -> Laurent:
    """poly through t^order.  A negative exponent raises NegativePowerResidue,
    then a negative order raises ValueError."""
    negative = sorted(k for k in poly.nums if k < 0)
    if negative:
        raise NegativePowerResidue(f"uncancelled negative powers at t^{negative}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if poly.nums and max(poly.nums) > order:
        poly = _stored(*_normal({k: n for k, n in poly.nums.items() if k <= order}, poly.den))
    return poly


def _product(p: Laurent, q: Laurent, order: int) -> Laurent:
    """p * q through t^order: only the exponent pairs with k1 + k2 <= order
    multiply (FLINT's fmpq_poly_mullow)."""
    out: dict[int, int] = {}
    right = sorted(q.nums.items())
    for k1, n1 in p.nums.items():
        for k2, n2 in right:
            k = k1 + k2
            if k > order:
                break
            out[k] = out.get(k, 0) + n1 * n2
    return _stored(*_normal({k: n for k, n in out.items() if n}, p.den * q.den))


def series_text(poly: Laurent) -> str:
    """A series as text, in ascending powers of t: "1 - t + 1/2*t^3", "0"."""
    return _joined(_term(c, n) for n, c in sorted(poly.terms.items()))


def series_json(poly: Laurent, order: int) -> list[str]:
    """The coefficients of t^0..t^order as exact text, zeros included."""
    terms = poly.terms
    return [_fraction_text(terms.get(n, 0)) for n in range(order + 1)]


def _catalans(order: int) -> list[int]:
    """Cat_0..Cat_order by Cat_{n+1} = Cat_n 2(2n+1)/(n+2), one small product
    each: a binomial per index took 17 s at order 7,200."""
    cat = [1]
    for n in range(order):
        cat.append(cat[n] * (4 * n + 2) // (n + 2))
    return cat


def generator_series(which: str, order: int) -> Laurent:
    """Series of a named generator, H1, H2, s or the Catalan series C.

    H1 = 1 + sum_{n>=1} 4 Cat_{n-1}^2 t^{2n}
    H2 = 1 - sum_{n>=1} 2 Cat_{n-1} Cat_n t^{2n}
    C  = sum_n Cat_n t^n
    s  = 1 - 2 t C(t)
    """
    cat = _catalans(order)
    if which == "C":
        terms = dict(enumerate(cat))
    elif which == "s":
        terms = {0: 1} | {n: -2 * cat[n - 1] for n in range(1, order + 1)}
    elif which == "H1":
        terms = {0: 1} | {2 * n: 4 * cat[n - 1] ** 2 for n in range(1, order // 2 + 1)}
    elif which == "H2":
        terms = {0: 1} | {2 * n: -2 * cat[n - 1] * cat[n] for n in range(1, order // 2 + 1)}
    else:
        raise ValueError(f"unknown generator {which!r}")
    return _truncated(_stored(terms, 1), order)  # every coefficient is a nonzero int


def series_expand(x: AlgebraElement, order: int) -> Laurent:
    """Exact expansion of an algebra element through t^order: the sum over
    its terms of coeff * H1^a H2^b s^c, as a + b + c truncated products of
    coeff with the generator series.  Those are taken through t^(order +
    shift), where t^-shift is the lowest power of t; no factor lowers a
    power, so every product stops at t^order.  Raises NegativePowerResidue
    if a genuinely negative power survives.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = order + max([0] + [-p.min_exp() for p in x.terms.values()])
    gens = [generator_series(name, work) for name in ("H1", "H2", "s")]
    total = L_ZERO
    for key, coeff in x.terms.items():
        for gen, n in zip(gens, key):
            for _ in range(n):
                coeff = _product(coeff, gen, order)
        total += coeff
    return _truncated(total, order)


def brute_force_decorated(tree: DecoratedTree, order: int, budget: int = DEFAULT_BUDGET) -> Laurent:
    """Tree sum from its defining summation over the vertex variables.

    The coefficient of t^n is the sum, over assignments of nonnegative
    weights to the non-gray vertices with total n that satisfy every vertex
    condition, of the product of the Catalan numbers of the weights.  A
    tree DP over the vertices in reverse index order, children before
    parents, computes it: each vertex holds the table
    {(signed subtree sum, degree): count} of its subtree's assignments, a
    white or black vertex starting from {(±w, w): Cat_w} and a gray one from
    {(0, 0): 1}.  Children merge by convolution truncated at `order` (one
    budget unit per pair of entries merged), and the vertex condition then
    keeps the signed sums that satisfy it against the subtree's shift sum.
    Tables have O(order^2) entries, so the cost is O(n * order^4) on n
    vertices.  Of the engine's code it shares only `_holds`, the relation
    predicate.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    left = budget
    kappa = tree.shift_sums()
    cat = _catalans(order)
    tables: dict[int, dict[tuple[int, int], int]] = {}
    for v in reversed(range(len(tree))):
        deco = tree.decos[v]
        if deco.color == GRAY:
            table = {(0, 0): 1}
        else:
            table = {(deco.color * w, w): cat[w] for w in range(order + 1)}
        for child in tree.children[v]:
            # The child's entries by degree, so each of ours pairs with a prefix.
            below = sorted(tables.pop(child).items(), key=lambda item: item[0][1])
            degrees = [degree for (_, degree), _ in below]
            merged: dict[tuple[int, int], int] = {}
            for (lsum, ldeg), lcount in table.items():
                fits = bisect_right(degrees, order - ldeg)
                left -= fits
                if left < 0:
                    raise BudgetExceededError("oracle work budget exhausted")
                for (rsum, rdeg), rcount in below[:fits]:
                    key = (lsum + rsum, ldeg + rdeg)
                    merged[key] = merged.get(key, 0) + lcount * rcount
            table = merged
        tables[v] = {key: n for key, n in table.items() if _holds(key[0], deco.rel, kappa[v])}
    coeffs: dict[int, int] = {}
    for (_, degree), count in tables[0].items():
        coeffs[degree] = coeffs.get(degree, 0) + count
    return _stored(coeffs, 1)  # every count is positive


def _holds(lhs: int, rel: str, rhs: int) -> bool:
    if rel == "eq":
        return lhs == rhs
    if rel == "le":
        return lhs <= rhs
    if rel == "ge":
        return lhs >= rhs
    return True
