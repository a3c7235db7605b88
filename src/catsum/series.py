"""Truncated power series over Q and the brute-force summation oracle.

A `TruncatedSeries` stores exact coefficients for t^0 .. t^N.  The module
also expands algebra elements into series (the generators H1, H2, s and
the Catalan series C all have explicit coefficient formulas) and computes
tree sums directly from their defining summations by exhaustive
enumeration.  The enumeration is exponential in the tree size and is the
independent ground truth everything else is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import AlgebraElement, _joined, _term
from .trees import GRAY, DecoratedTree, PlainTree, REL_NONE

DEFAULT_BUDGET = 10**8


class NegativePowerResidue(ValueError):
    """A t^-k term survived expansion: the element is not a power series."""


class BudgetExceededError(RuntimeError):
    """The brute-force enumeration exceeded its work budget."""


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
    """Exact power series in t truncated at a fixed order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    def coefficient(self, n: int) -> Fraction:
        if n > self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        return TruncatedSeries(
            [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)], order
        )

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries([-c for c in self.coeffs], self.order)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if not a:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, order)

    def scale(self, q) -> "TruncatedSeries":
        q = Fraction(q)
        return TruncatedSeries([c * q for c in self.coeffs], self.order)

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k; negative k requires the low coefficients to vanish."""
        if k >= 0:
            return TruncatedSeries([Fraction(0)] * k + self.coeffs, self.order + k)
        if any(self.coeffs[:-k]):
            raise NegativePowerResidue(f"t^{k} shift hits nonzero low-order coefficients")
        return TruncatedSeries(self.coeffs[-k:], self.order + k)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative powers of a truncated series are not defined")
        result = TruncatedSeries.one(self.order)
        for _ in range(n):
            result = result * self
        return result

    def __str__(self):
        return _joined(_term(c, n) for n, c in enumerate(self.coeffs) if c)

    __repr__ = __str__

    def to_json(self):
        return [str(c) for c in self.coeffs]


def generator_series(which: str, order: int) -> TruncatedSeries:
    """Series of a named generator: H1, H2, s or the Catalan series C.

    H1 = 1 + sum_{n>=1} 4 Cat_{n-1}^2 t^{2n}
    H2 = 1 - sum_{n>=1} 2 Cat_{n-1} Cat_n t^{2n}
    C  = sum_n Cat_n t^n
    s  = 1 - 2 t C(t)
    """
    coeffs = [Fraction(0)] * (order + 1)
    if which == "C":
        for n in range(order + 1):
            coeffs[n] = Fraction(catalan(n))
    elif which == "s":
        coeffs[0] = Fraction(1)
        for n in range(1, order + 1):
            coeffs[n] = Fraction(-2 * catalan(n - 1))
    elif which == "H1":
        coeffs[0] = Fraction(1)
        for n in range(1, order // 2 + 1):
            coeffs[2 * n] = Fraction(4 * catalan(n - 1) ** 2)
    elif which == "H2":
        coeffs[0] = Fraction(1)
        for n in range(1, order // 2 + 1):
            coeffs[2 * n] = Fraction(-2 * catalan(n - 1) * catalan(n))
    else:
        raise ValueError(f"unknown generator {which!r}")
    return TruncatedSeries(coeffs, order)


def hypergeom_series(a: Fraction, b: Fraction, c: Fraction, order: int) -> TruncatedSeries:
    """Raw 2F1(a, b; c; z) series in z, truncated: sum a^(n) b^(n) / (c^(n) n!) z^n."""
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for n in range(order):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1))
        coeffs.append(term)
    return TruncatedSeries(coeffs, order)


def series_expand(x: AlgebraElement, order: int) -> TruncatedSeries:
    """Exact expansion of an algebra element through t^order.

    Raises NegativePowerResidue if a genuinely negative power survives.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    shift = max((0,) + tuple(-p.min_exp() for p in x.terms.values()))
    work = order + shift
    gens = {name: generator_series(name, work) for name in ("H1", "H2", "s")}
    acc: dict[int, Fraction] = {}
    pow_cache: dict[tuple[int, int, int], TruncatedSeries] = {}
    for (a, b, c), coeff in x.terms.items():
        key = (a, b, c)
        if key not in pow_cache:
            pow_cache[key] = gens["H1"] ** a * gens["H2"] ** b * gens["s"] ** c
        base = pow_cache[key]
        for e, v in coeff.terms.items():
            for n, g in enumerate(base.coeffs):
                if not g:
                    continue
                m = n + e
                if m > order:
                    continue
                w = acc.get(m, Fraction(0)) + v * g
                if w:
                    acc[m] = w
                else:
                    acc.pop(m, None)
    negative = sorted(m for m in acc if m < 0)
    if negative:
        raise NegativePowerResidue(f"uncancelled negative powers at t^{negative}")
    return TruncatedSeries([acc.get(n, Fraction(0)) for n in range(order + 1)], order)


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
    """Tree sum by direct enumeration of the vertex variables.

    The coefficient of t^n is the sum, over assignments of nonnegative
    weights to the non-gray vertices with total n that satisfy every vertex
    condition, of the product of the Catalan numbers of the weights.
    Conditions are checked as soon as all variables under them are assigned,
    walking the non-gray vertices in postorder.
    """
    counter = _Budget(budget)
    n_vertices = len(tree.parents)
    nongray = [v for v in range(n_vertices) if tree.decos[v].color != GRAY]
    post = [v for v in tree.postorder() if tree.decos[v].color != GRAY]
    position = {v: i for i, v in enumerate(post)}
    kappa = tree.shift_sums()

    # Schedule each non-void condition at the step where its last non-gray
    # descendant gets a value; conditions over gray-only subtrees are constant.
    checks_at: list[list[tuple[list[tuple[int, int]], str, int]]] = [
        [] for _ in range(len(post) + 1)
    ]
    constant_factor = 1
    for v in range(n_vertices):
        deco = tree.decos[v]
        if deco.rel == REL_NONE:
            continue
        signed = [
            (position[u], tree.decos[u].color)
            for u in tree.subtree(v)
            if tree.decos[u].color != GRAY
        ]
        if not signed:
            if not _holds(0, deco.rel, kappa[v]):
                constant_factor = 0
            continue
        slot = max(i for i, _ in signed) + 1
        checks_at[slot].append((signed, deco.rel, kappa[v]))

    coeffs = [Fraction(0)] * (order + 1)
    if constant_factor == 0 or not nongray:
        if constant_factor and not nongray:
            coeffs[0] = Fraction(1)
        return TruncatedSeries(coeffs, order)

    weights = [0] * len(post)

    def assign(idx: int, remaining: int, product: int):
        counter.spend()
        if idx == len(post):
            coeffs[order - remaining] += product
            return
        for w in range(remaining + 1):
            weights[idx] = w
            ok = True
            for signed, rel, k in checks_at[idx + 1]:
                counter.spend()
                lhs = sum(sign * weights[i] for i, sign in signed)
                if not _holds(lhs, rel, k):
                    ok = False
                    break
            if ok:
                assign(idx + 1, remaining - w, product * catalan(w))

    assign(0, order, 1)
    return TruncatedSeries(coeffs, order)


def _holds(lhs: int, rel: str, rhs: int) -> bool:
    if rel == "eq":
        return lhs == rhs
    if rel == "le":
        return lhs <= rhs
    if rel == "ge":
        return lhs >= rhs
    return True


def brute_force_edge(
    tree: PlainTree, order: int, budget: int = DEFAULT_BUDGET, halfedge: bool | None = None
) -> TruncatedSeries:
    """Tree sum by direct enumeration of the edge variables.

    One nonnegative weight per edge (plus one for the half-edge when
    present); each vertex contributes Cat_{X_v} t^{X_v} with X_v the sum of
    the weights of its incident edges.
    """
    counter = _Budget(budget)
    if halfedge is None:
        halfedge = tree.half_edge
    n = len(tree.parents)
    # Edge list: (child vertex) encodes the edge to its parent; the half-edge
    # is an extra variable incident only to the root.
    edges = [(tree.parents[v], v) for v in range(1, n)]
    incidence: list[list[int]] = [[] for _ in range(n)]
    for e, (p, v) in enumerate(edges):
        incidence[p].append(e)
        incidence[v].append(e)
    half_index = None
    if halfedge:
        half_index = len(edges)
        incidence[0].append(half_index)
    n_edges = len(edges) + (1 if halfedge else 0)

    coeffs = [Fraction(0)] * (order + 1)
    x = [0] * n_edges

    def vertex_weight(v: int) -> int:
        return sum(x[e] for e in incidence[v])

    def assign(e: int, degree_left: int):
        counter.spend()
        if e == n_edges:
            total = sum(vertex_weight(v) for v in range(n))
            product = 1
            for v in range(n):
                product *= catalan(vertex_weight(v))
            coeffs[total] += product
            return
        # A normal edge adds 2x to the total degree, the half-edge adds x.
        step = 1 if e == half_index else 2
        for w in range(degree_left // step + 1):
            x[e] = w
            assign(e + 1, degree_left - step * w)
        x[e] = 0

    if n == 1 and not halfedge:
        coeffs[0] = Fraction(1)
        return TruncatedSeries(coeffs, order)
    assign(0, order)
    return TruncatedSeries(coeffs, order)
