"""Star values, recurrences, hypergeometric partial sums, asymptotics."""

from fractions import Fraction

import pytest

from catsum.algebra import PiPoly
from catsum.engine import Engine
from catsum.stars import (
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


def test_asymptotic_ratio():
    value = star_eval(200)
    ratio = value.coeffs[1] * Fraction(200**3) / Fraction(2**200)
    assert abs(ratio / 8 - 1) < Fraction(6, 100)
