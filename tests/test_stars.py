"""Star values, recurrences, hypergeometric partial sums, asymptotics."""

from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd

import pytest

from catsum import stars
from catsum.algebra import PiPoly
from catsum.engine import Engine
from catsum.stars import (
    _certificate,
    star_3f2_partial,
    star_eval,
    star_plain,
    star_recurrence_residual,
    star_term,
)
from catsum.trees import canonical_decorate

from conftest import star_eval_crosscheck_bc


def test_star_values():
    assert star_eval(0) == PiPoly({0: 1})
    assert star_eval(1) == PiPoly({1: 16, 0: -4})
    assert star_eval(2) == PiPoly({1: Fraction(-64, 3), 0: 8})
    assert star_eval(3) == PiPoly({1: Fraction(64, 15)})
    assert star_eval(4) == PiPoly({1: Fraction(512, 105)})
    assert star_eval(6) == PiPoly({1: Fraction(23552, 3465)})
    with pytest.raises(ValueError):
        star_eval(-1)


def test_star_values_linear_in_inverse_pi():
    for s in range(3, 12):
        value = star_eval(s)
        assert value.degree() == 1 and 0 not in value.coeffs


def test_star_engine_agreement():
    engine = Engine()
    for s in range(9):
        direct = engine.reduce(canonical_decorate(star_plain(s))).eval_quarter()
        assert direct == star_eval(s), s


def test_recurrence_residuals():
    for s in (1, 2, 3, 7, 10, 25):
        hom, inhom = star_recurrence_residual(s)
        assert hom.is_zero() and inhom.is_zero(), s
        assert star_recurrence_residual(s) is star_recurrence_residual(s)  # cached per s
    # spelled-out s=1 instances
    a1, a2, a3 = star_eval(1), star_eval(2), star_eval(3)
    assert a3.scale(5) - a2.scale(2) - a1.scale(4) == PiPoly()
    assert a2.scale(3) + a1.scale(6) == PiPoly({1: 32})
    with pytest.raises(ValueError):
        star_recurrence_residual(0)


def test_bc_crosscheck():
    assert star_eval_crosscheck_bc(0) == PiPoly({1: Fraction(64, 15)})
    for s in range(11):
        assert star_eval_crosscheck_bc(s) == star_eval(s + 3), s


def test_partial_sums():
    assert star_3f2_partial(1, 1) == 1
    # monotone increasing toward the limit
    values = [star_3f2_partial(3, n) for n in (1, 5, 10, 50)]
    assert all(a < b for a, b in zip(values, values[1:]))
    target = star_eval(1).to_fraction()
    assert abs(star_3f2_partial(1, 50) - target) < Fraction(1, 1000)
    # incremental accumulation equals the term-by-term definition
    for s in (1, 2, 5):
        for terms in (1, 2, 7, 20):
            assert star_3f2_partial(s, terms) == sum(
                (star_term(s, n) for n in range(terms)), Fraction(0)
            )
    with pytest.raises(ValueError):
        star_3f2_partial(0, 5)


def _added_up(s, terms):
    """S_N with its terms added one by one, as integers over 16^N: the
    reference for the certificate at an N where a sum of star_term is slow."""
    _, e = next(islice(stars._scaled_terms(s), terms, None))
    return Fraction(e // 16, 16 ** (terms - 1))


def _ratio(s, n):
    """t_{n+1} / t_n of the partial-sum series, written out."""
    return Fraction(
        (2 * n + 1) * (2 * n + s) * (2 * n + s + 1), 8 * (n + 1) * (n + 2) * (n + s + 1)
    )


def _certificate_value(s, n):
    """g_s(n) = P(n) / binom(n+s-1, s-1), from the certificate's Newton form."""
    newton, scale = _certificate(s)
    p = sum(coeff * comb(n, j) for j, coeff in enumerate(newton))
    return Fraction(p, scale * comb(n + s - 1, s - 1))


def test_certificate_found_and_telescopes_for_s_up_to_64():
    for n in range(4):
        assert _ratio(7, n) == star_term(7, n + 1) / star_term(7, n)
    for s in range(1, 65):
        assert len(_certificate(s)[0]) == s + 3, s  # deg P = s + 2
        # g(n+1) r(n) - g(n) = 1, here also far past the points the builder checked
        for n in (0, 1, s + 5, s + 6, 2 * s + 11, 1000):
            g, g_next = _certificate_value(s, n), _certificate_value(s, n + 1)
            assert g_next * _ratio(s, n) - g == 1, (s, n)


def test_certificate_limit_derives_star_eval():
    """S_N = g(N) t_N - g(0) with t_N ~ s 2^(s-1) / (pi N^3) and g(N) ~ c N^3,
    c the leading coefficient of P(n) over (n+1)...(n+s-1), so
    A_s = c s 2^(s-1) / pi - g(0): derived from the term ratio alone."""
    gammas = []
    for s in range(1, 65):
        newton, scale = _certificate(s)
        leading = Fraction(newton[-1] * factorial(s - 1), factorial(s + 2) * scale)
        gamma = Fraction(newton[0], scale)
        value = star_eval(s)
        assert leading * s * 2 ** (s - 1) == value.coeffs[1], s
        assert -gamma == value.coeffs.get(0, 0), s
        gammas.append(gamma)
    assert gammas[:3] == [4, -8, 0] and not any(gammas[2:])


def test_partial_sums_equal_term_sums_at_small_n():
    # the certificate is built from the terms at n <= s + 3, and serves every N
    for s in range(1, 13):
        for terms in [*range(1, s + 5), 10 * s, 10 * s + 1]:
            assert star_3f2_partial(s, terms) == sum(
                (star_term(s, n) for n in range(terms)), Fraction(0)
            ), (s, terms)


def test_partial_sums_at_large_n_and_without_certificate(monkeypatch):
    by_certificate = {(5, 1000): star_3f2_partial(5, 1000), (40, 3000): star_3f2_partial(40, 3000)}
    assert by_certificate[5, 1000] == sum((star_term(5, n) for n in range(1000)), Fraction(0))
    # the terms added one by one give the same values; at N = 3,000 that
    # loop is the reference (a sum of star_term takes seconds)
    for (s, terms), value in by_certificate.items():
        assert _added_up(s, terms) == value and _lowest_dyadic(value), (s, terms)
    # a false certificate, P(n) = (1 + n)/7 here, can leave a remainder over
    # 16^(N-1): that is an error, never a rounded sum
    monkeypatch.setattr(stars, "_certificate", lambda s: ((1, 1), 7))
    with pytest.raises(ArithmeticError):
        star_3f2_partial(5, 1000)


def _lowest_dyadic(value):
    """value is in lowest terms over a power of two, as the normalising
    constructor would leave it."""
    num, den = value.numerator, value.denominator
    return gcd(num, den) == 1 and den & (den - 1) == 0 and value == Fraction(num, den)


def test_central_binomial_is_comb():
    for n in [*range(501), 30_000]:
        assert stars._central_binomial(n) == comb(2 * n, n), n


def test_partial_sums_are_dyadic_in_lowest_terms():
    # at s = 16, S_2 = 1 + 16/16 = 2: more factors of two than 16^(N-1) has
    for s in (1, 2, 3, 7, 16):
        for terms in range(1, 51):
            value = star_3f2_partial(s, terms)
            assert _lowest_dyadic(value) and value == _added_up(s, terms), (s, terms)


def test_certificate_of_wrong_terms_fails_its_identity(monkeypatch):
    terms = stars._scaled_terms

    def off_by_one_at_2(s):
        for n, (c, e) in enumerate(terms(s)):
            yield (c + 1 if n == 2 else c), e

    monkeypatch.setattr(stars, "_scaled_terms", off_by_one_at_2)
    for s in (1, 3, 7):
        with pytest.raises(ArithmeticError, match=f"s={s} fails"):
            _certificate.__wrapped__(s)  # past the cache of true certificates


def test_asymptotic_ratio():
    value = star_eval(200)
    ratio = value.coeffs[1] * Fraction(200**3) / Fraction(2**200)
    assert abs(ratio / 8 - 1) < Fraction(6, 100)
