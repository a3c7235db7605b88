"""Truncated power series over Q and the summation oracle.

A `TruncatedSeries` holds one `algebra.Laurent` with exponents in 0..N,
the exact coefficients of t^0 .. t^N, so its arithmetic is that of
`Laurent`, truncated once per result.  The module also expands algebra
elements into series (one truncated sum over the generator series of H1,
H2 and s, which like the Catalan series C have explicit coefficient
formulas) and computes tree sums directly from their defining summation
over the vertex variables, the independent ground truth everything else is
checked against: a postorder tree DP, O(n * N^4) on n vertices at order N,
that shares no code with the engine.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import (
    L_ONE,
    L_ZERO,
    AlgebraElement,
    Laurent,
    _fraction_text,
    _joined,
    _power,
    _reduced,
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


class TruncatedSeries:
    """Exact power series in t truncated at a fixed order.

    `poly` is one `Laurent` whose exponents lie in 0..order, so arithmetic
    is that of `Laurent`, truncated once per result.  `coeffs` is the
    read-only dense view, the list of `Fraction` coefficients of t^0..t^order.
    """

    __slots__ = ("order", "poly")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = list(coeffs)
        order = len(coeffs) - 1 if order is None else order
        built = _series(Laurent(dict(enumerate(coeffs))), order)
        self.order, self.poly = built.order, built.poly

    @property
    def coeffs(self) -> list[Fraction]:
        terms, zero = self.poly.terms, Fraction(0)
        return [terms.get(n, zero) for n in range(self.order + 1)]

    def __eq__(self, other):
        same_type = isinstance(other, TruncatedSeries)
        return same_type and (self.order, self.poly) == (other.order, other.poly)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _series(self.poly + other.poly, min(self.order, other.order))

    def __neg__(self) -> "TruncatedSeries":
        return _series(-self.poly, self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _series(self.poly - other.poly, min(self.order, other.order))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return _series(self.poly * other.poly, min(self.order, other.order))

    def scale(self, q) -> "TruncatedSeries":
        return _series(self.poly.scale(q), self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; negative k requires the low coefficients to vanish."""
        residue = f"t^{k} shift hits nonzero low-order coefficients"
        return _series(self.poly.shift(k), self.order + k, residue)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers of a truncated series are not defined")
        return _power(self, n, _series(L_ONE, self.order))

    def __str__(self):
        return _joined(_term(c, n) for n, c in sorted(self.poly.terms.items()))

    __repr__ = __str__

    def to_json(self):
        return [_fraction_text(c) for c in self.coeffs]


def _series(poly: Laurent, order: int, residue: str | None = None) -> TruncatedSeries:
    """The series of poly through t^order, dropping the exponents above order.

    A negative exponent raises NegativePowerResidue (with the message
    `residue`, if given), then a negative order raises ValueError.
    """
    negative = sorted(k for k in poly.nums if k < 0)
    if negative:
        raise NegativePowerResidue(residue or f"uncancelled negative powers at t^{negative}")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if poly.nums and max(poly.nums) > order:
        poly = _reduced({k: n for k, n in poly.nums.items() if k <= order}, poly.den)
    res = TruncatedSeries.__new__(TruncatedSeries)
    res.order, res.poly = order, poly
    return res


def generator_series(which: str, order: int) -> TruncatedSeries:
    """Series of a named generator: H1, H2, s or the Catalan series C.

    H1 = 1 + sum_{n>=1} 4 Cat_{n-1}^2 t^{2n}
    H2 = 1 - sum_{n>=1} 2 Cat_{n-1} Cat_n t^{2n}
    C  = sum_n Cat_n t^n
    s  = 1 - 2 t C(t)
    """
    # Cat_0..Cat_order by Cat_{n+1} = Cat_n 2(2n+1)/(n+2), one small product
    # each: a binomial per index took 17 s at order 7,200
    cat = [1]
    for n in range(order):
        cat.append(cat[n] * (4 * n + 2) // (n + 2))
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
    return _series(Laurent(terms), order)


def series_expand(x: AlgebraElement, order: int) -> TruncatedSeries:
    """Exact expansion of an algebra element through t^order: the sum of
    coeff * H1^a H2^b s^c over its terms, with the generator series taken
    through t^(order + shift), where t^-shift is its lowest power of t.

    Raises NegativePowerResidue if a genuinely negative power survives.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    work = order + max([0] + [-p.min_exp() for p in x.terms.values()])
    h1, h2, s = (generator_series(name, work) for name in ("H1", "H2", "s"))
    total = sum(
        (coeff * (h1**a * h2**b * s**c).poly for (a, b, c), coeff in x.terms.items()), L_ZERO
    )
    return _series(total, order)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise BudgetExceededError("oracle work budget exhausted")


def brute_force_decorated(
    tree: DecoratedTree, order: int, budget: int = DEFAULT_BUDGET
) -> TruncatedSeries:
    """Tree sum from its defining summation over the vertex variables.

    The coefficient of t^n is the sum, over assignments of nonnegative
    weights to the non-gray vertices with total n that satisfy every vertex
    condition, of the product of the Catalan numbers of the weights.  A
    postorder tree DP computes it: each vertex holds the table
    {(signed subtree sum, degree): count} of its subtree's assignments, a
    white or black vertex starting from {(±w, w): Cat_w} and a gray one from
    {(0, 0): 1}.  Children merge by convolution truncated at `order` (one
    budget unit per pair of entries merged), and the vertex condition then
    keeps the signed sums that satisfy it against the subtree's shift sum.
    Tables have O(order^2) entries, so the cost is O(n * order^4) on n
    vertices.  Shares no code with the engine.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    counter = _Budget(budget)
    kappa = tree.shift_sums()
    tables: dict[int, dict[tuple[int, int], int]] = {}
    for v in tree.postorder():
        deco = tree.decos[v]
        if deco.color == GRAY:
            table = {(0, 0): 1}
        else:
            table = {(deco.color * w, w): catalan(w) for w in range(order + 1)}
        for child in tree.children[v]:
            # The child's entries by degree, so each of ours pairs with a prefix.
            below = sorted(tables.pop(child).items(), key=lambda item: item[0][1])
            degrees = [degree for (_, degree), _ in below]
            merged: dict[tuple[int, int], int] = {}
            for (lsum, ldeg), lcount in table.items():
                fits = bisect_right(degrees, order - ldeg)
                counter.spend(fits)
                for (rsum, rdeg), rcount in below[:fits]:
                    key = (lsum + rsum, ldeg + rdeg)
                    merged[key] = merged.get(key, 0) + lcount * rcount
            table = merged
        tables[v] = {key: n for key, n in table.items() if _holds(key[0], deco.rel, kappa[v])}
    coeffs = [0] * (order + 1)
    for (_, degree), count in tables[0].items():
        coeffs[degree] += count
    return TruncatedSeries(coeffs, order)


def _holds(lhs: int, rel: str, rhs: int) -> bool:
    if rel == "eq":
        return lhs == rhs
    if rel == "le":
        return lhs <= rhs
    if rel == "ge":
        return lhs >= rhs
    return True
