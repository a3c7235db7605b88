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
identity before use and cached per s, so S_N costs one central binomial,
a balanced product of prime powers, and O(s) multiplications at any N >= 1,
and its power-of-two denominator is reduced by a shift, not a gcd.  No step
is quadratic in the digits of N: `catsum star --s 3 --partial N` takes
0.14 s wall at N = 10^5, 0.24 s at 3*10^5 and 0.94 s at 10^6 in text mode,
and 0.22, 0.55 and 1.5 s under --json, whose exact decimal text
`algebra._fraction_text` writes in subquadratic time (CPython 3.11, one
core, interpreter start included).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress, islice
from math import comb, factorial, gcd, isqrt, lcm, prod

from .algebra import PiPoly, _coprime
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


@lru_cache(maxsize=None)
def star_recurrence_residual(s: int) -> tuple[PiPoly, PiPoly]:
    """Residuals of the two exact recurrences at index s (both must be zero),
    cached per s like `star_eval`:

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


def _product(factors) -> int:
    """The product of an iterable of positive ints in a balanced tree: runs
    of 32 factors by `math.prod`, then the partial products pairwise, level
    by level, so that big operands meet operands of their own size and
    Karatsuba multiplication pays off."""
    factors = iter(factors)
    level = [prod(run) for run in iter(lambda: list(islice(factors, 32)), [])] or [1]
    while len(level) > 1:
        level = [prod(level[i : i + 2]) for i in range(0, len(level), 2)]
    return level[0]


def _central_binomial(n: int) -> int:
    """binom(2n, n) as a balanced product of prime powers p^e, p <= 2n, with
    e = sum_k (floor(2n/p^k) - 2 floor(n/p^k)) by Legendre's formula (the
    prime-swing idea of P. Luschny, "Fast factorial functions").  A prime
    p > sqrt(2n) has e = floor(2n/p) mod 2, and every prime in (n, 2n] has
    e = 1, so only the primes up to sqrt(2n) run the full sum.

    `math.comb` is quadratic here on CPython 3.11 (4.8 s at n = 3*10^5,
    against 0.06 s for this product, and 0.35 s at n = 10^6).  The sieve is
    one bytearray; primes are generated from it and never listed.
    """
    top, root = 2 * n, isqrt(2 * n)
    sieve = bytearray([0, 0]) + bytearray([1]) * (top - 1)
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))

    def prime_powers():
        for p in compress(range(root + 1), sieve):
            e, q = 0, p
            while q <= top:
                e += top // q - 2 * (n // q)
                q *= p
            yield p**e
        for p in compress(range(root + 1, n + 1), sieve[root + 1 : n + 1]):
            if top // p % 2:
                yield p
        yield from compress(range(n + 1, top + 1), sieve[n + 1 :])

    return _product(prime_powers())


def star_3f2_partial(s: int, terms: int) -> Fraction:
    """Exact partial sum S_N = sum_{n<N} Cat_n [t^n]C(t)^s 16^(-n), N = terms,
    of the hypergeometric series converging (monotonically from below) to A_s.

    The sum telescopes through Gosper's certificate g_s (`_certificate`,
    built and proved once per s): S_N = g_s(N) t_N - g_s(0).  One N then
    costs one central binomial B = binom(2N, N) (`_central_binomial`) and
    O(s) multiplications, since
      16^N t_N = Cat_N [t^N]C^s = B^2 s prod_{0<j<s} (2N+j) / ((N+1)(N+s) prod_{0<j<s} (N+j)).
    The result's denominator is a power of two, so it is brought to lowest
    terms by a shift instead of a gcd; timings are in the module docstring.
    """
    if s < 1 or terms < 1:
        raise ValueError("need s >= 1 and terms >= 1")
    newton, scale = _certificate(s)
    binom = _central_binomial(terms)
    upper, lower = prod(range(2 * terms + 1, 2 * terms + s)), prod(range(terms + 1, terms + s))
    c_n = binom * binom * s * upper // ((terms + 1) * (terms + s) * lower)
    d_n = lower // factorial(s - 1)
    # S_N = g(N) t_N - g(0), with t_N = c_N / 16^N and D(0) = 1, so
    # 16^(N-1) S_N = (P(N) c_N - P(0) D(N) 16^N) / (16 D(N)), P(n) over scale
    numerator = _newton_value(newton, terms) * c_n - (newton[0] * d_n << 4 * terms)
    accumulated, remainder = divmod(numerator, 16 * scale * d_n)
    if remainder or accumulated <= 0:
        raise ArithmeticError(f"certificate sum for s={s}, N={terms} is not a positive integer over 16^(N-1)")
    # over 2^(4(N-1)): strip the common factors of two, no more than the denominator has
    shift = min((accumulated & -accumulated).bit_length() - 1, 4 * (terms - 1))
    return _coprime(accumulated >> shift, 1 << 4 * (terms - 1) - shift)


def star_term(s: int, n: int) -> Fraction:
    """The n-th term of the partial-sum series, for direct verification."""
    return Fraction(catalan(n) * catalan_power_coeff(s, n), 16**n)
