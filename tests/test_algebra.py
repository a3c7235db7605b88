"""Exact-algebra arithmetic, normal forms, hypergeometric elements, evaluation."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest

from catsum import algebra
from catsum.algebra import (
    H1,
    H2,
    ONE,
    SQRT_1_4T,
    ZERO,
    AlgebraElement,
    Laurent,
    PiPoly,
    _coprime,
    _fraction_text,
    catalan_gf,
    hypergeom_hk,
)
from catsum.series import generator_series, series_expand
from catsum.table_data import LINE_EXAMPLE_8, TABLE, evaluation_pipoly

from conftest import dense, gauss_value_hk, hypergeom_series

S_EQ0_NUM = H1 - ONE  # numerator of the two-vertex equality sum


def quarter_t2(k):
    return AlgebraElement.from_laurent(Laurent.t_power(k, Fraction(1, 4)))


def test_additive_inverse_and_identity():
    assert H1 + (-H1) == ZERO
    assert (H1 - ONE).shift_t(-2).scale(Fraction(1, 4)) + (ONE - H1).shift_t(-2).scale(
        Fraction(1, 4)
    ) == ZERO
    assert ONE + (H1 - ONE) == H1


def test_mul_reduces_square_root():
    assert SQRT_1_4T * SQRT_1_4T == AlgebraElement.from_laurent(Laurent({0: 1, 1: -4}))
    assert H1 * ONE == H1


def test_catalan_gf_square_matches_expanded_form():
    c = catalan_gf()
    expected = AlgebraElement(
        {
            (0, 0, 0): Laurent({-2: Fraction(1, 2), -1: -1}),
            (0, 0, 1): Laurent({-2: Fraction(-1, 2)}),
        }
    )
    assert c * c == expected  # (2 - 4t - 2s)/(4 t^2)


def test_degree():
    assert H1.degree() == 2
    assert SQRT_1_4T.degree() == 1
    assert (H1 - ONE).shift_t(-2).degree() == 2
    assert ZERO.degree() is None
    assert (H1 * H2 * SQRT_1_4T).degree() == 5


def test_hypergeom_hk_base_cases_and_contiguity():
    assert hypergeom_hk(0) == H1
    assert hypergeom_hk(1) == H2
    z = Laurent({2: 16})
    one_plus_z = Laurent({0: 1, 2: 16})
    expected = (H2.mul_laurent(one_plus_z) - H1).scale(Fraction(8, 5)).shift_t(-2).scale(
        Fraction(1, 16)
    )
    assert hypergeom_hk(2) == expected
    with pytest.raises(ValueError):
        hypergeom_hk(-1)
    # the three-term relation holds as an exact identity for all computed K
    for k in range(19):
        lhs = hypergeom_hk(k + 2).mul_laurent(z).scale(
            Fraction(2 * k + 1, 2) * Fraction(2 * k + 5, 2) / (k + 2)
        )
        rhs = hypergeom_hk(k + 1).mul_laurent(one_plus_z).scale(k + 1) - hypergeom_hk(k).scale(
            k + 1
        )
        assert lhs == rhs, k


def test_hypergeom_hk_series_against_direct_formula():
    for k in range(21):
        via_algebra = series_expand(hypergeom_hk(k), 16)
        direct_z = hypergeom_series(Fraction(-1, 2), Fraction(2 * k - 1, 2), Fraction(k + 1), 8)
        # substitute z = 16 t^2
        coeffs = [Fraction(0)] * 17
        for n, c in enumerate(dense(direct_z, 8)):
            if 2 * n <= 16:
                coeffs[2 * n] = c * 16**n
        assert dense(via_algebra, 16) == coeffs, k


def test_gauss_values():
    assert H1.eval_quarter() == PiPoly({1: 4})
    assert H2.eval_quarter() == PiPoly({1: Fraction(8, 3)})
    for k in range(21):
        assert hypergeom_hk(k).eval_quarter() == gauss_value_hk(k), k


def test_eval_quarter_examples():
    s_eq0 = S_EQ0_NUM.shift_t(-2).scale(Fraction(1, 4))
    assert s_eq0.eval_quarter() == PiPoly({1: 16, 0: -4})
    assert SQRT_1_4T.eval_quarter() == PiPoly()
    assert catalan_gf().eval_quarter() == PiPoly({0: 2})


def _random_laurent(rng):
    return Laurent(
        {rng.randint(-3, 3): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)}
    )


def _random_element(rng):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))
        terms[key] = _random_laurent(rng)
    return AlgebraElement(terms)


def test_ring_axioms_randomized():
    rng = random.Random(1)
    for _ in range(60):
        x, y, z = (_random_element(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x * y).degree() is None or (x * y).degree() <= (x.degree() + y.degree())


def test_normalization_idempotent_randomized():
    rng = random.Random(2)
    for _ in range(40):
        x = _random_element(rng) * _random_element(rng)
        # re-normalizing the stored association changes nothing
        assert AlgebraElement(dict(x.terms)) == x
        assert all(c in (0, 1) for (_, _, c) in x.terms)
        assert not any(p.is_zero() for p in x.terms.values())


def test_eval_quarter_is_ring_morphism():
    rng = random.Random(3)
    for _ in range(40):
        x, y = _random_element(rng), _random_element(rng)
        assert (x * y).eval_quarter() == x.eval_quarter() * y.eval_quarter()
        assert (x + y).eval_quarter() == x.eval_quarter() + y.eval_quarter()


# -- differential test of the integer kernel against {exp: Fraction} dicts --


def _ref_add(x, y):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


def _ref_mul(x, y):
    out = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            out = _ref_add(out, {k1 + k2: v1 * v2})
    return out


def _ref_eval(x, point):
    return sum((v * point**k for k, v in x.items()), Fraction(0))


def _ref_element_mul(x, y):
    out = {}
    for (a1, b1, c1), p1 in x.items():
        for (a2, b2, c2), p2 in y.items():
            p, c = _ref_mul(p1, p2), c1 + c2
            if c == 2:
                p, c = _ref_mul(p, {0: Fraction(1), 1: Fraction(-4)}), 0
            key = (a1 + a2, b1 + b2, c)
            out[key] = _ref_add(out.get(key, {}), p)
    return {k: v for k, v in out.items() if v}


def _ref_element_add(x, y):
    out = {k: _ref_add(x.get(k, {}), y.get(k, {})) for k in set(x) | set(y)}
    return {k: v for k, v in out.items() if v}


def _ref_eval_quarter(x):
    out = {}
    for (a, b, c), p in x.items():
        if c == 0:
            d = a + b
            out[d] = out.get(d, Fraction(0)) + _ref_eval(p, Fraction(1, 4)) * 4**a * Fraction(8, 3) ** b
    return {d: v for d, v in out.items() if v}


def _assert_stored_form(p):
    """The kernel invariants: no zero numerator, den > 0, gcd(den, *nums) == 1,
    and the zero polynomial over den == 1."""
    assert isinstance(p.den, int) and p.den > 0
    assert all(isinstance(n, int) and n for n in p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    assert p.nums or p.den == 1


def _as_ref(x):
    for p in x.terms.values():
        _assert_stored_form(p)
    return {k: p.terms for k, p in x.terms.items()}


def _random_ref_laurent(rng):
    if rng.random() < 0.1:
        return {}
    return {
        k: v
        for k, v in (
            (rng.randint(-6, 6), Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 4, 6, 9, 35])))
            for _ in range(rng.randint(1, 5))
        )
        if v
    }


def _random_ref_element(rng):
    if rng.random() < 0.1:
        return {}
    out = {}
    for _ in range(rng.randint(1, 4)):
        p = _random_ref_laurent(rng)
        if p:
            out[(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1))] = p
    return out


def test_laurent_kernel_matches_fraction_reference():
    rng = random.Random(11)
    points = [Fraction(1, 4), Fraction(-2, 3), Fraction(5), Fraction(-1), Fraction(7, 10)]
    for _ in range(400):
        x, y = _random_ref_laurent(rng), _random_ref_laurent(rng)
        lx, ly = Laurent(x), Laurent(y)
        q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        k = rng.randint(-5, 5)
        results = {
            "+": (lx + ly, _ref_add(x, y)),
            "-": (lx - ly, _ref_add(x, {e: -v for e, v in y.items()})),
            "*": (lx * ly, _ref_mul(x, y)),
            "neg": (-lx, {e: -v for e, v in x.items()}),
            "scale": (lx.scale(q), {e: v * q for e, v in x.items() if q}),
            "scale int": (lx.scale(-3), {e: -3 * v for e, v in x.items()}),
            "shift": (lx.shift(k), {e + k: v for e, v in x.items()}),
        }
        for op, (got, expected) in results.items():
            _assert_stored_form(got)
            assert got.terms == expected, (op, x, y, q, k)
            # equal values built another way have the same stored form and hash
            assert got == Laurent(expected) and hash(got) == hash(Laurent(expected)), op
        for point in points:
            assert lx.eval_at(point) == _ref_eval(x, point)
        if all(e >= 0 for e in x):
            assert lx.eval_at(Fraction(0)) == x.get(0, 0)
    assert Laurent({2: Fraction(3, 6), -1: 2, 4: 0}).terms == {2: Fraction(1, 2), -1: 2}
    assert Laurent({1: Fraction(1, 2)}) + Laurent({1: Fraction(1, 2)}) == Laurent.t_power(1)
    assert (Laurent({0: Fraction(1, 2)}) - Laurent({0: Fraction(1, 2)})).den == 1
    with pytest.raises(TypeError):
        Laurent({0: 0.5})


def _element(ref):
    return AlgebraElement({key: Laurent(p) for key, p in ref.items()})


def _ref_negated(x):
    return {key: {e: -v for e, v in p.items()} for key, p in x.items()}


def test_element_kernel_matches_fraction_reference():
    from catsum.engine import MINUS_ONE, T_INV, T_INV2

    rng = random.Random(12)
    # the driver's coefficients, s, and a few other monomials, each with its
    # value written out as a reference
    monomials = [
        (ONE, {(0, 0, 0): {0: 1}}),
        (MINUS_ONE, {(0, 0, 0): {0: -1}}),
        (T_INV, {(0, 0, 0): {-1: 1}}),
        (T_INV.scale(-1), {(0, 0, 0): {-1: -1}}),
        (T_INV2, {(0, 0, 0): {-2: 1}}),
        (T_INV2.scale(-1), {(0, 0, 0): {-2: -1}}),
        (SQRT_1_4T, {(0, 0, 1): {0: 1}}),
        (SQRT_1_4T.scale(Fraction(-3, 7)).shift_t(-2), {(0, 0, 1): {-2: Fraction(-3, 7)}}),
        (H1.scale(Fraction(5, 2)).shift_t(3), {(1, 0, 0): {3: Fraction(5, 2)}}),
        (H2 * SQRT_1_4T, {(0, 1, 1): {0: 1}}),
    ]
    for m, rm in monomials:
        assert _as_ref(m) == rm
    for i in range(300):
        x, y = _random_ref_element(rng), _random_ref_element(rng)
        ex, ey = _element(x), _element(y)
        m, rm = monomials[i % len(monomials)]
        m2, rm2 = monomials[(i // len(monomials)) % len(monomials)]
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        k = rng.randint(-4, 4)
        y0 = {(0, 0, 0): y[(0, 0, 0)]} if (0, 0, 0) in y else {}
        results = {
            "+": (ex + ey, _ref_element_add(x, y)),
            "-": (ex - ey, _ref_element_add(x, _ref_negated(y))),
            "neg": (-ex, _ref_negated(x)),
            "*": (ex * ey, _ref_element_mul(x, y)),
            "monomial * x": (m * ex, _ref_element_mul(rm, x)),
            "x * monomial": (ex * m, _ref_element_mul(x, rm)),
            "monomial * monomial": (m * m2, _ref_element_mul(rm, rm2)),
            "scale": (ex.scale(q), {key: {e: v * q for e, v in p.items()} for key, p in x.items()} if q else {}),
            "shift_t": (ex.shift_t(k), {key: {e + k: v for e, v in p.items()} for key, p in x.items()}),
            "mul_laurent": (ex.mul_laurent(Laurent(y0.get((0, 0, 0)))), _ref_element_mul(x, y0)),
        }
        for op, (got, expected) in results.items():
            assert _as_ref(got) == expected, (op, x, y)
            rebuilt = _element(expected)
            assert got == rebuilt and hash(got) == hash(rebuilt), op
        assert ex.eval_quarter() == PiPoly(_ref_eval_quarter(x))
    # products whose parts cancel across the keys of the smaller operand
    cancelling = [
        # (H1 + s)(H1 - s) = H1^2 - 1 + 4t
        ({(1, 0, 0): {0: 1}, (0, 0, 1): {0: 1}}, {(1, 0, 0): {0: 1}, (0, 0, 1): {0: -1}},
         {(2, 0, 0): {0: 1}, (0, 0, 0): {0: -1, 1: 4}}),
        # (1 + s)(1 - s) = 4t
        ({(0, 0, 0): {0: 1}, (0, 0, 1): {0: 1}}, {(0, 0, 0): {0: 1}, (0, 0, 1): {0: -1}},
         {(0, 0, 0): {1: 4}}),
        # (H1^2 + H1 H2 + H2^2)(H1 - H2) = H1^3 - H2^3
        ({(2, 0, 0): {0: 1}, (1, 1, 0): {0: 1}, (0, 2, 0): {0: 1}},
         {(1, 0, 0): {0: 1}, (0, 1, 0): {0: -1}},
         {(3, 0, 0): {0: 1}, (0, 3, 0): {0: -1}}),
        # (t H1 + (1 + t) s)(t H1 - (1 + t) s) = t^2 H1^2 - (1 + t)^2 (1 - 4t)
        ({(1, 0, 0): {1: 1}, (0, 0, 1): {0: 1, 1: 1}},
         {(1, 0, 0): {1: 1}, (0, 0, 1): {0: -1, 1: -1}},
         {(2, 0, 0): {2: 1}, (0, 0, 0): {0: -1, 1: 2, 2: 7, 3: 4}}),
    ]
    for x, y, expected in cancelling:
        assert _ref_element_mul(x, y) == expected
        for a, b in ((x, y), (y, x)):
            got = _element(a) * _element(b)
            assert _as_ref(got) == expected and got == _element(expected), (a, b)
    # s * s through the monomial path: s^2 = 1 - 4t
    assert _as_ref(SQRT_1_4T * SQRT_1_4T) == {(0, 0, 0): {0: 1, 1: -4}}
    assert _as_ref(SQRT_1_4T.shift_t(-1) * SQRT_1_4T.scale(2)) == {(0, 0, 0): {-1: 2, 0: -8}}
    assert ONE * H1 is H1 and H1 * ONE is H1
    assert (ZERO * H1).is_zero() and (H1 * ZERO).is_zero()


def test_division():
    third = AlgebraElement.from_laurent(Laurent.t_power(2, 3))
    assert (H1 * third) / third == H1
    assert (H1.scale(6)) / 3 == H1.scale(2)
    with pytest.raises(ValueError):
        H1 / (H1 + ONE)
    with pytest.raises(ZeroDivisionError):
        H1 / 0
    # negative powers are undefined for algebra elements and 1/pi polynomials alike
    for x in (H1, PiPoly({1: 2})):
        with pytest.raises(ValueError, match="negative powers"):
            x ** -1


def test_catalan_gf_series_and_value():
    c = catalan_gf()
    assert dense(series_expand(c, 4), 4) == [1, 1, 2, 5, 14]
    assert c.eval_quarter() == PiPoly({0: 2})


def test_substitute_sqrt_t():
    x = (H1 - ONE).shift_t(-2)
    assert x.substitute_sqrt_t() == (H1 - ONE).shift_t(-1)
    with pytest.raises(ValueError):
        catalan_gf().substitute_sqrt_t()


def test_rendering():
    s_eq0 = (H1 - ONE).shift_t(-2).scale(Fraction(1, 4))
    assert str(s_eq0) == "1/4*t^-2*H1 - 1/4*t^-2"
    assert s_eq0.pretty() == "(H1 - 1)/(4*t^2)"
    assert catalan_gf().pretty() == "(-s + 1)/(2*t)"
    value = PiPoly({1: 16, 0: -4})
    assert str(value) == "-4 + 16*pi^-1"
    assert value.pretty() == "16/pi - 4"
    assert value.to_decimal(6) == "1.092958"
    assert PiPoly({1: Fraction(-2, 3), 0: Fraction(1, 4)}).pretty() == "-2/(3*pi) + 1/4"
    assert ZERO.pretty() == "0"


def test_json_shapes():
    s_eq0 = (H1 - ONE).shift_t(-2).scale(Fraction(1, 4))
    blob = s_eq0.to_json()
    assert blob == {
        "terms": [
            {"h1": 1, "h2": 0, "s": 0, "coeff": {"-2": "1/4"}},
            {"h1": 0, "h2": 0, "s": 0, "coeff": {"-2": "-1/4"}},
        ]
    }
    assert PiPoly({1: 16, 0: -4}).to_json() == [[1, "16"], [0, "-4"]]


def test_rendering_beyond_int_digit_limit():
    """Integers of more than 4,300 digits, which CPython's str() refuses by
    default, render exactly in every text form."""
    big, den = 10**4400, 3**9300
    value = PiPoly({1: Fraction(big + 1, den), 0: big})
    top, low, denominator = "1" + "0" * 4399 + "1", "1" + "0" * 4400, str(Decimal(den))
    assert str(value) == f"{low} + {top}/{denominator}*pi^-1"
    assert value.pretty() == f"{top}/({denominator}*pi) + {low}"
    assert value.to_json() == [[1, f"{top}/{denominator}"], [0, low]]
    assert value.to_decimal(3) == low + ".000"
    x = AlgebraElement.from_rational(Fraction(1, den)) + H1.scale(big)
    assert str(x) == f"{low}*H1 + 1/{denominator}"
    assert x.pretty() == f"({Decimal(den * big)}*H1 + 1)/({denominator})"
    assert x.to_json()["terms"][1]["coeff"] == {"0": f"1/{denominator}"}


def test_coprime_wraps_a_fraction_in_lowest_terms():
    for num, den in [(0, 1), (1, 1), (-1, 1), (3, 4), (-3, 4), (7, 12), (2**70 + 1, 2**65)]:
        q, expected = _coprime(num, den), Fraction(num, den)
        assert type(q) is Fraction and q == expected and hash(q) == hash(expected)
        assert (q.numerator, q.denominator) == (num, den) and str(q) == str(expected)
        assert q + 1 == expected + 1 and q * q == expected**2 and q < expected + 1


def test_int_text_is_str_of_decimal_at_every_size():
    """`_fraction_text` equals str(Decimal(.)) below, at and above the size
    where it stops calling Decimal, and never raises CPython's
    int-to-string ValueError."""
    rng = random.Random(18)
    base = algebra._DECIMAL_BITS
    values = [0, 1, -1, 10, -10**4400, 2**base, 2**base - 1, 2**base + 1, 2**(2 * base)]
    values += [10**k for k in (4299, 4300, 9864, 9865, 10**5 - 1)] + [-(2 ** (3 * base + 7))]
    for bits in (base - 1, base, base + 1, 2 * base + 3, 5 * base + 1):
        values += [rng.getrandbits(bits) | 1 << (bits - 1), -rng.getrandbits(bits)]
    values.append(-rng.randrange(10**99_999, 10**100_000))  # 10^5 digits
    for n in values:
        assert _fraction_text(n) == str(Decimal(n)), n.bit_length()
    for num, den in [(values[-1], 3**209_590 + 2), (-3, 7)]:
        q = Fraction(num, den)
        assert _fraction_text(q) == f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


# pi to 100 places, as printed in reference tables.
PI_100 = (
    "3."
    "1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679"
)


def _pi_times_power_of_ten(places):
    """pi * 10^places to within a few units, from Gauss's formula
    pi = 48 arctan(1/18) + 32 arctan(1/57) - 20 arctan(1/239) on integers with
    guard digits (the package uses Machin's formula, so this stays independent)."""
    guard = 10
    unit = 10 ** (places + guard)

    def arctan_inverse(x):
        total = term = unit // x
        n, sign = 1, 1
        while term:
            term //= x * x
            n += 2
            sign = -sign
            total += sign * (term // n)
        return total

    scaled = 48 * arctan_inverse(18) + 32 * arctan_inverse(57) - 20 * arctan_inverse(239)
    return scaled // 10**guard


def test_pipoly_decimal_truncates():
    # 1/pi = 0.3183098861837906..., truncation keeps 12 exact digits
    assert PiPoly({1: 1}).to_decimal(12) == "0.318309886183"
    assert PiPoly({0: Fraction(-1, 8)}).to_decimal(3) == "-0.125"
    # the printed 100 places of pi, against the pi that to_fraction uses
    assert _pi_times_power_of_ten(100) == int(PI_100.replace(".", ""))
    assert PiPoly({1: 1}).to_fraction() == 1 / Fraction(PI_100)
    # 90 and 120 places of 1/pi and 90 of 16/pi - 4, against digits from
    # Gauss's formula (its error of a few units in 10^-150 cannot reach the
    # 120th place); 120 places need pi beyond its first 100 places
    pi_scaled = _pi_times_power_of_ten(150)
    for places in (90, 120):
        inverse = 10 ** (places + 150) // pi_scaled
        assert PiPoly({1: 1}).to_decimal(places) == f"0.{inverse:0{places}d}"
    s_eq0 = 16 * 10 ** (90 + 150) // pi_scaled - 4 * 10**90
    digits = f"{s_eq0 // 10**90}.{s_eq0 % 10**90:090d}"
    assert PiPoly({1: 16, 0: -4}).to_decimal(90) == digits
    assert PiPoly({1: -16, 0: 4}).to_decimal(90) == "-" + digits


def test_golden_approx_decimals():
    for entry in TABLE + [LINE_EXAMPLE_8]:
        places = len(entry.approx.partition(".")[2])
        assert evaluation_pipoly(entry).to_decimal(places) == entry.approx, entry.label


def test_generator_series_match_algebra_generators():
    for name, elt in (("H1", H1), ("H2", H2), ("s", SQRT_1_4T), ("C", catalan_gf())):
        assert generator_series(name, 12) == series_expand(elt, 12)
