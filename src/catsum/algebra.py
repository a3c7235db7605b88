"""Exact arithmetic in the algebra Q[t, t^-1][H1, H2, s].

Generators:

  H1 = 2F1(-1/2, -1/2; 1; 16 t^2)
  H2 = 2F1(-1/2,  1/2; 2; 16 t^2)
  s  = sqrt(1 - 4t),  reduced through s^2 = 1 - 4t, so s-exponents stay in {0, 1}

An element is stored in normal form as a finite association

  (a, b, c)  ->  Laurent polynomial in t over Q        (c in {0, 1})

meaning  sum coeff * H1^a * H2^b * s^c.  Equality is equality of normal
forms, which is a faithful test because the three generators are
algebraically independent over Q(t).  The filtration degree assigns 2 to
H1 and H2 and 1 to s.

A Laurent coefficient is stored as integer numerators over one common
denominator, the content-times-primitive-part layout of FLINT's fmpq_poly:
`nums` maps exponent -> nonzero int and `den` > 0 is an int, with
gcd(den, *nums) == 1 and den == 1 for the zero polynomial.  That stored
form is unique, so equality and hashing compare it directly, and each
operation does integer arithmetic followed by one gcd normalisation.
A product multiplies the operand with more generator keys by each key of
the other (`_times_monomial`), takes the first part as the result and adds
the others into it with `_merge`, the one add-in-and-drop-zero loop, which
`+` uses too.  A one-term coefficient, such as 1, -1, 1/t or 1/t^2, scales
and shifts instead of convolving.

Evaluation at t = 1/4 sends s -> 0, H1 -> 4/pi, H2 -> 8/(3 pi) and every
Laurent coefficient to its exact rational value, landing in Q[1/pi]
(`PiPoly`).  A `PiPoly` holds one `Laurent` in the variable 1/pi, and a
truncated series (module `series`) is a `Laurent` in t with exponents in
0..order, so `Laurent` is the only polynomial arithmetic over Q in the
package, and one term renderer (`_term`, `_joined`) prints `Laurent`,
`AlgebraElement` and truncated series alike, writing every rational through `_fraction_text`, exact at
any size and subquadratic in it.  `_stored`, `_element` and `_pipoly`
wrap values already in normal form unchecked, as `_coprime` wraps a
Fraction already in lowest terms, one square-and-multiply (`_power`)
serves every `**`, and decimals bound pi by Machin's formula on integers
to as many places as they need.  No floating point is used
anywhere in this module, which needs only the standard library.

All values are immutable once constructed and every operation is pure, so
elements can be shared freely between threads.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


# Integers up to this many bits are written by str(Decimal(n)), whose
# conversion is quadratic; splitting starts to win between 2*10^4 and
# 5*10^4 bits (CPython 3.11).
_DECIMAL_BITS = 1 << 15


def _int_text(n: int) -> str:
    """str(n) at any size, not subject to CPython's limit on int-to-string
    digits.

    Up to `_DECIMAL_BITS` bits it is str(Decimal(n)).  A larger n is split
    on a power of two, n = hi 2^k + lo with k half its bits, and the halves'
    decimals are joined by one exact fma; libmpdec multiplies big operands
    in subquadratic time, so the conversion is too (the method of CPython
    3.12's `_pylong`): 0.5 s at 4*10^6 bits, where str(Decimal(n)) takes
    2.4 s at 1.2*10^6.
    """
    if n.bit_length() <= _DECIMAL_BITS:
        return str(Decimal(n))
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])
    powers: dict[int, Decimal] = {}  # 2^k for the few k of one conversion

    def joined(m: int, bits: int) -> Decimal:
        if bits <= _DECIMAL_BITS:
            return Decimal(m)
        k = bits >> 1
        if k not in powers:
            powers[k] = exact.power(2, k)
        hi = m >> k
        return exact.fma(joined(hi, bits - k), powers[k], joined(m - (hi << k), k))

    return ("-" if n < 0 else "") + str(joined(abs(n), n.bit_length()))


def _fraction_text(q: Fraction | int) -> str:
    """str(q) at any size, exactly (`_int_text` for each part)."""
    num = _int_text(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_text(q.denominator)}"


def _term(v: Fraction, e: int, gens: str = "") -> str:
    """The term v * t^e * gens, with a coefficient of 1 or -1 written as its sign."""
    t = "" if e == 0 else "t" if e == 1 else f"t^{e}"
    mono = f"{t}*{gens}" if t and gens else t or gens
    if not mono:
        return _fraction_text(v)
    if v == 1:
        return mono
    return "-" + mono if v == -1 else f"{_fraction_text(v)}*{mono}"


def _joined(terms) -> str:
    """Terms joined by " + ", or by " - " before a term with a leading minus;
    "0" for no terms.  No term contains a space, so only joints are rewritten."""
    return " + ".join(terms).replace(" + -", " - ") or "0"


def _stored(nums: dict[int, int], den: int) -> "Laurent":
    """A Laurent from numerators and denominator already in stored form."""
    res = Laurent.__new__(Laurent)
    res.nums = nums
    res.den = den
    return res


def _coprime(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for a pair already in lowest terms,
    denominator > 0, without the gcd (quadratic on huge ints) that the
    constructor runs.  It sets the two slots every CPython Fraction has
    (3.10-3.13), since the private shortcuts differ between versions."""
    res = object.__new__(Fraction)
    res._numerator = numerator
    res._denominator = denominator
    return res


def _reduced(nums: dict[int, int], den: int) -> "Laurent":
    """A Laurent from nonzero numerators over den > 0, divided by their common gcd."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    return _stored(nums, den)


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply from the identity `one`,
    skipping the squaring after the last bit."""
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base


class Laurent:
    """Sparse Laurent polynomial over Q, as integer numerators over one denominator.

    `nums` maps exponent -> nonzero int numerator and `den` > 0 is the common
    denominator, with gcd(den, *nums) == 1; the zero polynomial has no
    numerators and den == 1.  Each value has exactly one stored form, so
    equality and hashing compare it directly.  `terms` is the read-only
    {exponent: Fraction} view, for rendering and series expansion.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        fracs = {}
        if terms:
            for k, v in terms.items():
                v = _frac(v)
                if v:
                    fracs[int(k)] = v
        den = lcm(*(v.denominator for v in fracs.values()))
        self.nums = {k: v.numerator * (den // v.denominator) for k, v in fracs.items()}
        self.den = den

    @classmethod
    def const(cls, value) -> "Laurent":
        return cls({0: _frac(value)})

    @classmethod
    def t_power(cls, k: int, coeff=1) -> "Laurent":
        return cls({k: _frac(coeff)})

    @property
    def terms(self) -> dict[int, Fraction]:
        den = self.den
        return {k: Fraction(n, den) for k, n in self.nums.items()}

    def is_zero(self) -> bool:
        return not self.nums

    def min_exp(self) -> int:
        return min(self.nums)

    def max_exp(self) -> int:
        return max(self.nums)

    def __eq__(self, other):
        return isinstance(other, Laurent) and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __add__(self, other: "Laurent") -> "Laurent":
        den = self.den
        if den == other.den:
            out, m = dict(self.nums), 1
        else:
            den = lcm(den, other.den)
            m1, m = den // self.den, den // other.den
            out = {k: n * m1 for k, n in self.nums.items()}
        for k, n in other.nums.items():
            w = out.get(k, 0) + n * m
            if w:
                out[k] = w
            else:
                del out[k]
        return _reduced(out, den)

    def __neg__(self) -> "Laurent":
        return _stored({k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        a, b = self.nums, other.nums
        if not a or not b:
            return L_ZERO
        if len(b) == 1:
            ((e, n),) = b.items()
            return self._times_term(e, n, other.den)
        if len(a) == 1:
            ((e, n),) = a.items()
            return other._times_term(e, n, self.den)
        out: dict[int, int] = {}
        for k1, n1 in a.items():
            for k2, n2 in b.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + n1 * n2
        return _reduced({k: n for k, n in out.items() if n}, self.den * other.den)

    def _times_term(self, e: int, p: int, r: int) -> "Laurent":
        """self * (p/r) t^e for p != 0 and r > 0 coprime.

        As gcd(den, *nums) == 1 and gcd(p, r) == 1, the product's common
        factor is gcd(p, den) * gcd(r, *nums), so no gcd runs over the
        product's numerators."""
        g1 = gcd(p, self.den)
        g2 = gcd(r, *self.nums.values()) if r != 1 else 1
        f = p // g1
        if g2 == 1:
            out = {k + e: n * f for k, n in self.nums.items()}
        else:
            out = {k + e: n // g2 * f for k, n in self.nums.items()}
        return _stored(out, self.den // g1 * (r // g2))

    def scale(self, q) -> "Laurent":
        q = _frac(q)
        if not q or not self.nums:
            return L_ZERO
        return self._times_term(0, q.numerator, q.denominator)

    def shift(self, k: int) -> "Laurent":
        """Multiply by t^k."""
        return _stored({e + k: n for e, n in self.nums.items()}, self.den)

    def eval_at(self, point) -> Fraction:
        """Exact value at a rational point p/q: one integer sum
        sum n_k p^(k-lo) q^(hi-k) over the exponents lo..hi, one Fraction."""
        if not self.nums:
            return Fraction(0)
        point = _frac(point)
        p, q = point.numerator, point.denominator
        lo, hi = min(self.nums), max(self.nums)
        total = sum(n * p ** (k - lo) * q ** (hi - k) for k, n in self.nums.items())
        num, den = total, self.den
        if lo > 0:
            num *= p**lo
        else:
            den *= p**-lo
        if hi > 0:
            den *= q**hi
        else:
            num *= q**-hi
        return Fraction(num, den)

    def __str__(self):
        return _joined(_term(v, k) for k, v in sorted(self.terms.items(), reverse=True))

    __repr__ = __str__


L_ZERO = Laurent()
L_ONE = Laurent.const(1)
# s^2 reduces to this polynomial.
L_S_SQUARED = Laurent({0: 1, 1: -4})
QUARTER = Fraction(1, 4)


def _element(terms: dict[tuple[int, int, int], Laurent]) -> "AlgebraElement":
    """An AlgebraElement around terms already in normal form: valid
    generator exponents and no zero coefficient."""
    res = AlgebraElement.__new__(AlgebraElement)
    res.terms = terms
    return res


def _merge(out: dict[tuple[int, int, int], Laurent], terms: dict[tuple[int, int, int], Laurent]):
    """Add the nonzero coefficients of `terms` into `out`, dropping zero sums."""
    for key, coeff in terms.items():
        if key in out:
            coeff = out[key] + coeff
            if coeff.is_zero():
                del out[key]
                continue
        out[key] = coeff


class AlgebraElement:
    """Normal form of an element of Q[t,t^-1][H1,H2,s], s-exponent in {0,1}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict[tuple[int, int, int], Laurent] = {}
        if terms:
            for key, coeff in terms.items():
                a, b, c = key
                if a < 0 or b < 0 or c not in (0, 1):
                    raise ValueError(f"invalid generator exponents {key}")
                if not coeff.is_zero():
                    clean[(a, b, c)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_laurent(cls, p: Laurent) -> "AlgebraElement":
        return cls({(0, 0, 0): p})

    @classmethod
    def from_rational(cls, q) -> "AlgebraElement":
        return cls({(0, 0, 0): Laurent.const(q)})

    @classmethod
    def monomial(cls, a: int, b: int, c: int) -> "AlgebraElement":
        return cls({(a, b, c): L_ONE})

    # -- ring structure -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((k, hash(v)) for k, v in self.terms.items()))

    @staticmethod
    def _coerce(value):
        if isinstance(value, AlgebraElement):
            return value
        if isinstance(value, (int, Fraction)):
            return AlgebraElement.from_rational(value)
        return None

    def __add__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        _merge(out, other.terms)
        return _element(out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return _element({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "AlgebraElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return ZERO
        if other == ONE:
            return self
        if self == ONE:
            return other
        small, big = (self, other) if len(self.terms) < len(other.terms) else (other, self)
        out, *rest = [big._times_monomial(key, p) for key, p in small.terms.items()]
        for part in rest:  # `out` is a fresh dict, so the rest merge into it
            _merge(out, part)
        return _element(out)

    __rmul__ = __mul__

    def _times_monomial(self, key: tuple[int, int, int], p: Laurent) -> dict:
        """The terms of self * p * H1^a H2^b s^c for any nonzero Laurent p:
        distinct keys stay distinct and Q[t, 1/t] has no zero divisors, so
        nothing is merged or dropped."""
        ma, mb, mc = key
        out = {}
        for (a, b, c), coeff in self.terms.items():
            coeff = coeff * p
            if c and mc:
                out[(a + ma, b + mb, 0)] = coeff * L_S_SQUARED  # s^2 = 1 - 4t
            else:
                out[(a + ma, b + mb, c + mc)] = coeff
        return out

    def __pow__(self, n: int) -> "AlgebraElement":
        if n < 0:
            raise ValueError("negative powers are not defined in the algebra")
        return _power(self, n, ONE)

    def scale(self, q) -> "AlgebraElement":
        q = _frac(q)
        if q == 0:
            return ZERO
        return _element({k: v.scale(q) for k, v in self.terms.items()})

    def shift_t(self, k: int) -> "AlgebraElement":
        """Multiply by t^k (k may be negative)."""
        return _element({key: v.shift(k) for key, v in self.terms.items()})

    def mul_laurent(self, p: Laurent) -> "AlgebraElement":
        return ZERO if p.is_zero() else _element(self._times_monomial((0, 0, 0), p))

    def __truediv__(self, other) -> "AlgebraElement":
        """Division by a nonzero rational or a rational multiple of t^k."""
        if isinstance(other, (int, Fraction)):
            q = _frac(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return self.scale(1 / q)
        if isinstance(other, AlgebraElement):
            if list(other.terms) == [(0, 0, 0)] and len(other.terms[(0, 0, 0)].nums) == 1:
                p = other.terms[(0, 0, 0)]
                ((k, n),) = p.nums.items()
                return self.scale(Fraction(p.den, n)).shift_t(-k)
            raise ValueError("division only by rational multiples of t^k")
        return NotImplemented

    # -- structure queries ----------------------------------------------

    def degree(self):
        """Filtration degree max(2a + 2b + c), or None for the zero element.

        This is the degree of the stored normal form.  Algebraic
        independence of H1 and H2 over Q(t) makes it the minimum over all
        polynomial representations when no s-term is present; with an
        s-term that minimality additionally needs s to be transcendental
        over Q(t)(H1, H2), which we do not prove, so callers should read
        this as the normal-form degree.
        """
        if not self.terms:
            return None
        return max(2 * a + 2 * b + c for (a, b, c) in self.terms)

    def min_t_exponent(self):
        if not self.terms:
            return None
        return min(v.min_exp() for v in self.terms.values())

    def substitute_sqrt_t(self) -> "AlgebraElement":
        """Rewrite in the variable u = t^2, i.e. halve every t-exponent.

        Only valid when every stored exponent is even (true for sums of trees
        without half-edge, whose series live in Q[[t^2]]).
        """
        out = {}
        for key, coeff in self.terms.items():
            halved = {}
            for e, n in coeff.nums.items():
                if e % 2:
                    raise ValueError(f"odd t-exponent {e}: no sqrt-t form")
                halved[e // 2] = n
            out[key] = _stored(halved, coeff.den)
        return _element(out)

    # -- evaluation -----------------------------------------------------

    def eval_quarter(self) -> "PiPoly":
        """Exact substitution t -> 1/4, H1 -> 4/pi, H2 -> 8/(3 pi), s -> 0."""
        out: dict[int, Fraction] = {}
        for (a, b, c), coeff in self.terms.items():
            if c == 1:
                continue  # s(1/4) = 0
            value = coeff.eval_at(QUARTER)
            value = Fraction(value.numerator * 4**a * 8**b, value.denominator * 3**b)
            out[a + b] = out.get(a + b, 0) + value
        return PiPoly(out)

    # -- rendering -------------------------------------------------------

    def _sorted_keys(self):
        return sorted(self.terms, reverse=True)

    def __str__(self):
        """Canonical flat rendering, decreasing (a,b,c) then decreasing exponent."""
        parts = []
        for key in self._sorted_keys():
            a, b, c = key
            gens = "*".join(
                ([f"H1^{a}"] if a > 1 else ["H1"] if a == 1 else [])
                + ([f"H2^{b}"] if b > 1 else ["H2"] if b == 1 else [])
                + (["s"] if c else [])
            )
            for e, v in sorted(self.terms[key].terms.items(), reverse=True):
                parts.append(_term(v, e, gens))
        return _joined(parts)

    __repr__ = __str__

    def pretty(self) -> str:
        """Render as (integer-coefficient sum)/(D*t^m), e.g. `(H1 - 1)/(4*t^2)`."""
        if not self.terms:
            return "0"
        m = min(0, self.min_t_exponent())
        lead = lcm(*(p.den for p in self.terms.values()))
        num = self.scale(lead).shift_t(-m)
        num_str = str(num)
        if lead == 1 and m == 0:
            return num_str
        den_factors = [] if lead == 1 else [_fraction_text(lead)]
        if m:
            den_factors.append("t" if m == -1 else f"t^{-m}")
        return f"({num_str})/({'*'.join(den_factors)})"

    def to_json(self):
        out = []
        for key in self._sorted_keys():
            a, b, c = key
            items = sorted(self.terms[key].terms.items(), reverse=True)
            coeff = {str(e): _fraction_text(v) for e, v in items}
            out.append({"h1": a, "h2": b, "s": c, "coeff": coeff})
        return {"terms": out}


ZERO = _element({})
ONE = AlgebraElement.from_rational(1)
H1 = AlgebraElement.monomial(1, 0, 0)
H2 = AlgebraElement.monomial(0, 1, 0)
SQRT_1_4T = AlgebraElement.monomial(0, 0, 1)


def catalan_gf() -> AlgebraElement:
    """The Catalan generating function (1 - s)/(2t)."""
    return (ONE - SQRT_1_4T).scale(Fraction(1, 2)).shift_t(-1)


@lru_cache(maxsize=None)
def hypergeom_hk(k: int) -> AlgebraElement:
    """2F1(-1/2, K-1/2; K+1; 16 t^2) in normal form, via the contiguity recurrence.

    For K >= 2 the three-term relation
      (K+1/2)(K+5/2)/(K+2) * z * H(K+2) = (K+1)(1+z) H(K+1) - (K+1) H(K)
    with z = 16 t^2 expresses everything over H(0) = H1 and H(1) = H2.
    """
    if k < 0:
        raise ValueError("K must be nonnegative")
    if k < 2:
        return (H1, H2)[k]
    for m in range(2, k):  # on a miss, fill the cache bottom-up so this recurses one level at most
        hypergeom_hk(m)
    m = k - 2  # computing H(m+2)
    rhs = hypergeom_hk(m + 1).mul_laurent(Laurent({0: 1, 2: 16})) - hypergeom_hk(m)
    # divide by (m+1/2)(m+5/2)/((m+1)(m+2)) and by z = 16 t^2
    factor = Fraction(m + 1) * (m + 2) / (Fraction(2 * m + 1, 2) * Fraction(2 * m + 5, 2))
    return rhs.scale(factor * Fraction(1, 16)).shift_t(-2)


_PI_PLACES = 100  # places of pi behind `to_fraction`, and the first `to_decimal` tries


@lru_cache(maxsize=None)
def _pi_bounds(places: int) -> tuple[Fraction, Fraction]:
    """pi truncated to `places` decimal places, and that plus 10^-places.

    Machin's formula pi = 16 arctan(1/5) - 4 arctan(1/239) is summed in units
    of 10^-D, D = places + guard digits, each arctan(1/x) by its Taylor series
    until the floored x^-k reaches 0.  Each floored term, and each dropped
    tail, is off by under one unit times its weight; the series take under
    0.72 D + 1 and 0.21 D + 1 terms, so the sum is off by under
    12.4 D + 40 <= 20 D units.  The guard doubles until both ends of that
    interval truncate alike."""
    guard = 10
    while True:
        digits = places + guard
        scaled = 0
        for weight, x in ((16, 5), (-4, 239)):
            power, k = 10**digits // x, 1
            while power:
                scaled += weight * (-1) ** (k // 2) * (power // k)
                power //= x * x
                k += 2
        low, high = ((scaled + e) // 10**guard for e in (-20 * digits, 20 * digits))
        if low == high:
            return Fraction(low, 10**places), Fraction(low + 1, 10**places)
        guard *= 2


def _truncated(value: Fraction, digits: int) -> str:
    sign = "-" if value < 0 else ""
    value = abs(value)
    int_part, frac_part = divmod(value.numerator * 10**digits // value.denominator, 10**digits)
    return f"{sign}{_fraction_text(int_part)}.{frac_part:0{digits}d}"


def _pipoly(poly: Laurent) -> "PiPoly":
    """A PiPoly around a Laurent polynomial with no negative exponent."""
    res = PiPoly.__new__(PiPoly)
    res.poly = poly
    return res


class PiPoly:
    """Polynomial in the formal symbol 1/pi with exact rational coefficients.

    `poly` is a `Laurent` polynomial in the variable 1/pi with no negative
    exponent, so arithmetic, equality and hashing are those of `Laurent`.
    `coeffs` is the read-only {degree: Fraction} view.
    """

    __slots__ = ("poly",)

    def __init__(self, coeffs=None):
        if coeffs and min(map(int, coeffs)) < 0:
            raise ValueError("negative 1/pi exponent")
        self.poly = Laurent(coeffs)

    @classmethod
    def const(cls, q) -> "PiPoly":
        return cls({0: _frac(q)})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return self.poly.terms

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def degree(self):
        return None if self.poly.is_zero() else self.poly.max_exp()

    def __eq__(self, other):
        return isinstance(other, PiPoly) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __add__(self, other: "PiPoly") -> "PiPoly":
        return _pipoly(self.poly + other.poly)

    def __neg__(self) -> "PiPoly":
        return _pipoly(-self.poly)

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return _pipoly(self.poly - other.poly)

    def __mul__(self, other: "PiPoly") -> "PiPoly":
        return _pipoly(self.poly * other.poly)

    def scale(self, q) -> "PiPoly":
        return _pipoly(self.poly.scale(q))

    def __pow__(self, n: int) -> "PiPoly":
        if n < 0:
            raise ValueError("negative powers are not defined in the algebra")
        return _power(self, n, PiPoly.const(1))

    def __str__(self):
        """Canonical ascending rendering: c0 + c1*pi^-1 + c2*pi^-2 + ..."""
        terms = (
            _fraction_text(v) if d == 0 else f"{_fraction_text(v)}*pi^-{d}"
            for d, v in sorted(self.coeffs.items())
        )
        return " + ".join(terms) or "0"

    __repr__ = __str__

    def pretty(self) -> str:
        """Human form, highest 1/pi power first, e.g. `16/pi - 4`."""
        parts = []
        for d, v in sorted(self.coeffs.items(), reverse=True):
            if d == 0:
                parts.append(_fraction_text(v))
                continue
            pi_part = "pi" if d == 1 else f"pi^{d}"
            den = pi_part if v.denominator == 1 else f"({_fraction_text(v.denominator)}*{pi_part})"
            parts.append(f"{_fraction_text(v.numerator)}/{den}")
        return _joined(parts)

    def to_fraction(self) -> Fraction:
        """Approximate rational value, with pi truncated to 100 places (display only)."""
        return self.poly.eval_at(1 / _pi_bounds(_PI_PLACES)[0])

    def to_decimal(self, digits: int = 12) -> str:
        """Truncated decimal expansion with `digits` places after the point.

        Each term v/pi^d is bounded with pi between its truncation to P
        places and that plus 10^-P, for P = 100, 200, 400, ..., and the
        truncation is returned once both ends of the resulting interval
        truncate to the same text.
        """
        places = _PI_PLACES
        while True:
            pi_low, pi_high = _pi_bounds(places)
            ends = [(v / pi_high**d, v / pi_low**d) for d, v in self.coeffs.items()]
            text = _truncated(sum(map(min, ends)), digits)
            if _truncated(sum(map(max, ends)), digits) == text:
                return text
            places *= 2

    def to_json(self):
        return [[d, _fraction_text(v)] for d, v in sorted(self.coeffs.items(), reverse=True)]
