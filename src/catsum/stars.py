"""Star trees: exact evaluations, recurrences and independent cross-checks.

A_s denotes the sum over a star with s leaves, evaluated at 1/4:

    A_s = sum_{m_1..m_s >= 0} Cat_{m_1} ... Cat_{m_s} Cat_{m_1+...+m_s} 16^{-(m_1+...+m_s)}

For s >= 3 it collapses to a single rational multiple of 1/pi:

    A_{s+3} = (64/pi) * sum_{k=0}^{s} binom(s,k) / ((2k+1)(2k+3)(2k+5))

The small cases s <= 2 are not covered by that formula and come from the
reduction engine.  Two independent recurrences and a hypergeometric
partial-sum representation (A_s as the Hadamard product C . C^s at 1/16)
serve as cross-checks.

The partial sums S_N of that series telescope: for each s, Gosper's
algorithm gives a rational certificate g_s with S_N = g_s(N) t_N - g_s(0),
t_N the N-th term.  It is found with one unknown, proved by a polynomial
identity before use and cached per s, so S_N costs a few binomials at any
N >= 1: `catsum star --s 3 --partial 100000` takes about 2 s, where adding
the terms one by one took 19 s (CPython 3.11, one Xeon core).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb, gcd, lcm

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


def _scaled_terms(s: int):
    """Yield (c_n, e_n) = (16^n t_n, 16^n S_n) for n = 0, 1, 2, ..., where
    t_n = Cat_n [t^n]C^s / 16^n and S_n = sum_{k<n} t_k; both are integers."""
    c, e, n = 1, 0, 0
    while True:
        yield c, e
        # c_{n+1}/c_n = [2(2n+1)/(n+2)] * [(2n+s)(2n+s+1)/((n+1)(n+1+s))]
        ratio_num = 2 * (2 * n + 1) * (2 * n + s) * (2 * n + s + 1)
        c, e = c * ratio_num // ((n + 1) * (n + 2) * (n + s + 1)), 16 * (e + c)
        n += 1


@lru_cache(maxsize=None)
def _certificate(s: int) -> tuple[tuple[int, ...], int]:
    """Gosper's certificate for the partial sums of A_s.

    The term ratio is r(n) = t_{n+1}/t_n =
    (2n+1)(2n+s)(2n+s+1) / (8(n+1)(n+2)(n+s+1)).  With
    D(n) = binom(n+s-1, s-1) = (n+1)...(n+s-1)/(s-1)!, the certificate is
    g(n) = P(n)/D(n) with deg P <= s+2 and g(n+1) r(n) - g(n) = 1, so that
    S_N = g(N) t_N - g(0).  It is returned as (newton, scale), meaning
    P(n) = sum_j newton[j] binom(n, j) / scale.

    g(n+1) = (g(n) + 1)/r(n) makes g(n) = (S_n + gamma)/t_n affine in
    gamma = g(0).  The (s+3)-rd difference of D(n) g(n) over n = 0..s+3
    must vanish, which fixes gamma; the values at 0..s+2 then give P.  All
    of it is integer arithmetic over one common denominator.  Before use,
    P is checked against the identity, of degree <= s+5 in n,
      P(n+1)(2n+1)(2n+s)(2n+s+1) - 8P(n)(n+s)(n+2)(n+s+1)
        = 8(n+1)(n+2)(n+s+1)D(n+1)
    at the s+6 points n = 0..s+5, which proves it.  A vanishing slope for
    gamma or a failed identity raises ArithmeticError.
    """
    m = s + 3
    c, e = zip(*islice(_scaled_terms(s), m + 1))
    d = [1]  # D(0..s+6)
    for n in range(m + 3):
        d.append(d[n] * (n + s) // (n + 1))
    common = lcm(*c)
    # g(n) = (e_n + gamma 16^n) / c_n, so common D(n) g(n) = fixed[n] + gamma per_gamma[n]
    weights = [d[n] * (common // c[n]) for n in range(m + 1)]
    fixed = [w * e[n] for n, w in enumerate(weights)]
    per_gamma = [w << 4 * n for n, w in enumerate(weights)]
    signs = [(-1) ** (m - n) * comb(m, n) for n in range(m + 1)]
    slope = sum(w * v for w, v in zip(signs, per_gamma))
    if not slope:
        raise ArithmeticError(f"no Gosper certificate for s={s}: gamma is not determined")
    gamma = Fraction(-sum(w * v for w, v in zip(signs, fixed)), slope)
    values = [gamma.denominator * f + gamma.numerator * g for f, g in zip(fixed[:m], per_gamma)]
    scale = gamma.denominator * common
    content = gcd(scale, *values)
    scale, values = scale // content, [v // content for v in values]
    newton, row = [], values  # scale * P(0..s+2), differenced down to Newton form
    while row:
        newton.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    p = values + [_newton_value(newton, n) for n in range(m, m + 4)]
    for n in range(m + 3):
        lhs = p[n + 1] * (2 * n + 1) * (2 * n + s) * (2 * n + s + 1)
        lhs -= 8 * p[n] * (n + s) * (n + 2) * (n + s + 1)
        if lhs != 8 * scale * (n + 1) * (n + 2) * (n + s + 1) * d[n + 1]:
            raise ArithmeticError(f"the Gosper certificate for s={s} fails at n={n}")
    return tuple(newton), scale


def _newton_value(newton: list[int] | tuple[int, ...], n: int) -> int:
    """sum_j newton[j] * binom(n, j)."""
    total, binom = 0, 1
    for j, coeff in enumerate(newton):
        total += coeff * binom
        binom = binom * (n - j) // (j + 1)
    return total


def star_3f2_partial(s: int, terms: int) -> Fraction:
    """Exact partial sum S_N = sum_{n<N} Cat_n [t^n]C(t)^s 16^(-n), N = terms,
    of the hypergeometric series converging (monotonically from below) to A_s.

    The sum telescopes through Gosper's certificate g_s (`_certificate`,
    built and proved once per s): S_N = g_s(N) t_N - g_s(0).  One N then
    costs three binomials and O(s) multiplications:
    `catsum star --s 3 --partial 100000` takes about 2 s, where adding the
    terms took 19 s, and its binomials (`math.comb`) are now the largest
    part.
    """
    if s < 1 or terms < 1:
        raise ValueError("need s >= 1 and terms >= 1")
    newton, scale = _certificate(s)
    # S_N = g(N) t_N - g(0), with t_N = c_N / 16^N and D(0) = 1, so
    # 16^(N-1) S_N = (P(N) c_N - P(0) D(N) 16^N) / (16 D(N)), P(n) over scale
    c_n = catalan(terms) * catalan_power_coeff(s, terms)
    d_n = comb(terms + s - 1, s - 1)
    numerator = _newton_value(newton, terms) * c_n - (newton[0] * d_n << 4 * terms)
    accumulated, remainder = divmod(numerator, 16 * scale * d_n)
    if remainder:
        raise ArithmeticError(f"certificate sum for s={s}, N={terms} leaves a remainder")
    return Fraction(accumulated, 16 ** (terms - 1))


def star_term(s: int, n: int) -> Fraction:
    """The n-th term of the partial-sum series, for direct verification."""
    return Fraction(catalan(n) * catalan_power_coeff(s, n), 16**n)
