"""Star trees: exact evaluations, recurrences and independent cross-checks.

A_s denotes the sum over a star with s leaves, evaluated at 1/4:

    A_s = sum_{m_1..m_s >= 0} Cat_{m_1} ... Cat_{m_s} Cat_{m_1+...+m_s} 16^{-(m_1+...+m_s)}

For s >= 3 it collapses to a single rational multiple of 1/pi:

    A_{s+3} = (64/pi) * sum_{k=0}^{s} binom(s,k) / ((2k+1)(2k+3)(2k+5))

The small cases s <= 2 are not covered by that formula and come from the
reduction engine.  Two independent recurrences and a hypergeometric
partial-sum representation (A_s as the Hadamard product C . C^s at 1/16)
serve as cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import PiPoly
from .engine import Engine
from .series import catalan, catalan_power_coeff
from .trees import PlainTree, canonical_decorate


def star_plain(s: int) -> PlainTree:
    """The star with a central vertex and s leaves, rooted at the center."""
    return PlainTree((-1,) + (0,) * s)


@lru_cache(maxsize=None)
def star_eval(s: int) -> PiPoly:
    """Exact value of the star sum A_s as a polynomial in 1/pi."""
    if s < 0:
        raise ValueError("s must be nonnegative")
    if s <= 2:
        engine = Engine()
        return engine.reduce(canonical_decorate(star_plain(s))).eval_quarter()
    total = Fraction(0)
    for k in range(s - 2):
        total += Fraction(comb(s - 3, k), (2 * k + 1) * (2 * k + 3) * (2 * k + 5))
    return PiPoly({1: 64 * total})


def star_recurrence_residual(s: int) -> tuple[PiPoly, PiPoly]:
    """Residuals of the two exact recurrences at index s (both must be zero):

      (2s+3) A_{s+2} - 2(3s-2) A_{s+1} + 4(s-2) A_s = 0
      (2s+1)(s^2-s+1) A_{s+1} - 2(s-2)(s^2+s+1) A_s = (16/pi) 2^s
    """
    if s < 1:
        raise ValueError("the recurrences hold for s >= 1")
    a_s, a_s1, a_s2 = star_eval(s), star_eval(s + 1), star_eval(s + 2)
    homogeneous = (
        a_s2.scale(2 * s + 3) - a_s1.scale(2 * (3 * s - 2)) + a_s.scale(4 * (s - 2))
    )
    inhomogeneous = (
        a_s1.scale((2 * s + 1) * (s * s - s + 1))
        - a_s.scale(2 * (s - 2) * (s * s + s + 1))
        - PiPoly({1: Fraction(16 * 2**s)})
    )
    return homogeneous, inhomogeneous


def star_3f2_partial(s: int, terms: int) -> Fraction:
    """Exact partial sum of sum_n Cat_n [t^n]C(t)^s 16^(-n), the hypergeometric
    series converging (monotonically from below) to A_s.

    The running term c_n = Cat_n * [t^n]C^s is an integer updated by exact
    small-factor ratios, and the partial sum is accumulated over the common
    denominator 16^n, so arbitrarily many terms stay exact and fast.
    """
    if s < 1 or terms < 1:
        raise ValueError("need s >= 1 and terms >= 1")
    accumulated = 0  # sum_{n<N} c_n 16^(N-1-n)
    c = 1  # c_0 = Cat_0 * [t^0]C^s
    for n in range(terms):
        accumulated = 16 * accumulated + c if n else c
        # c_{n+1}/c_n = [2(2n+1)/(n+2)] * [(2n+s)(2n+s+1)/((n+1)(n+1+s))]
        c = c * 2 * (2 * n + 1) * (2 * n + s) * (2 * n + s + 1)
        c //= (n + 2) * (n + 1) * (n + 1 + s)
    return Fraction(accumulated, 16 ** (terms - 1))


def star_term(s: int, n: int) -> Fraction:
    """The n-th term of the partial-sum series, for direct verification."""
    return Fraction(catalan(n) * catalan_power_coeff(s, n), 16**n)
