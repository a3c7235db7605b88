"""Exact reduction of decorated-tree sums to algebra normal forms.

The driver turns an arbitrary decorated tree into its sum S(T) by
repeatedly rewriting it into combinations of strictly simpler trees:

  1. trees of height 0 have closed forms;
  2. a fixed priority list of local ("generic") rewrites makes the tree
     good: (i) no nonroot vertex carries "eq"; (ii) "le"/"ge" vertices
     have shift 0; (iii) every nonroot leaf is non-gray with decoration
     (none, 0); (iv) no two same-colored leaf siblings; (v) no leaf shares
     its parent's color; (vi) no leaf has a gray parent.  (iv) and (v) take
     one merge: the m same-colored leaves of a parent, with the parent when
     it has their color, enter every condition only through their sum, and
     C^m = P_m(1/t) + Q_m(1/t) C rewrites them in one step.  A tree on which
     no generic rule fires is good; goodness has no check of its own;
  3. good trees of height 1 are the two-vertex base sums;
  4. taller good trees are attacked at a height-2 fringe, which is always
     a long star; the star relations, a tridiagonal linear system (one
     rewrite into its right-hand-side stars) and, for equality-decorated
     roots, a finite enumeration (the one coefficient it needs, read after
     truncated convolutions) finish the job.

Every rewrite identity used here is an exact equality of formal sums, so
the result is the exact normal form of S(T).  `Engine.step` is the single
rewrite entry point: it picks the first applicable step of that priority
list and returns it as (rule, site, expression), and reduces nothing
itself.  `Engine.reduce` is one loop over an explicit stack of those
expressions; it owns the memo, the cycle budget, the revisit check and the
trace.  Reductions are memoized on the sibling-order-invariant canonical
key.  Black-centered stars are routed through the global color swap and
the white-center code path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebra import (
    ONE,
    ZERO,
    AlgebraElement,
    Laurent,
    PiPoly,
    catalan_gf,
    hypergeom_hk,
)
from .series import _holds, catalan
from .trees import (
    BLACK,
    GRAY,
    WHITE,
    Decoration,
    DecoratedTree,
    LongStarPattern,
    REL_EQ,
    REL_GE,
    REL_LE,
    REL_NONE,
    canonical_key,
    classify_fringe,
    subtree_at,
    swap_colors,
    with_absorbed_leaf,
    with_branch_colors_swapped,
    with_children_reattached,
    with_decoration,
    with_merged_twins,
    with_pulled_down_variable,
    with_relation,
    with_replaced_fringe,
    with_shift,
    with_shift_added,
    without_leaves,
    without_subtree,
)

# A sum expression: list of (coefficient, tree factors); its value is
# sum(coeff * prod(S(tree) for tree in factors)).
SumExpr = list[tuple[AlgebraElement, tuple[DecoratedTree, ...]]]

T_INV2 = ONE.shift_t(-2)
MINUS_ONE = ONE.scale(-1)
MINUS_T_INV2 = T_INV2.scale(-1)


class DepthGuardExceeded(RuntimeError):
    """The reduction used up its cycle budget (`Engine.max_cycles` cycles for
    each `reduce` call, whatever earlier calls used) or revisited a tree
    already on the reduction stack.  The stack is tracked per canonical key,
    and a revisit is a tree equal, vertex for vertex, to one on the stack
    under the same key.  The stack is the driver's own, not Python's, so deep
    trees end here and never in a RecursionError.  Large trees can exhaust
    the default budget: the canonically decorated path on 32 vertices needs
    more than 10^5 reduction cycles."""


def _partial_catalan(m: int) -> AlgebraElement:
    """sum_{l=0}^{m} Cat_l t^l (zero for m < 0)."""
    if m < 0:
        return ZERO
    return AlgebraElement.from_laurent(Laurent({l: catalan(l) for l in range(m + 1)}))


def height_zero_sum(deco: Decoration) -> AlgebraElement:
    """Closed form for a single-vertex tree.

    A gray vertex is just the indicator of its own condition.  A white
    vertex sums Cat_l t^l over the l satisfying `l rel K`; a black vertex
    is the mirror image (its variable enters the condition negated).
    """
    rel, k = deco.rel, deco.shift
    if deco.color == GRAY:
        return ONE if _holds(0, rel, k) else ZERO
    if deco.color == BLACK:
        flipped = deco.flipped()
        rel, k = flipped.rel, flipped.shift
    if rel == REL_NONE:
        return catalan_gf()
    if rel == REL_EQ:
        if k < 0:
            return ZERO
        return AlgebraElement.from_laurent(Laurent.t_power(k, catalan(k)))
    if rel == REL_GE:
        return catalan_gf() - _partial_catalan(k - 1)
    return _partial_catalan(k)  # le


def _peel(rel: str, k: int) -> list[tuple[int, int]]:
    """The signed equality layers (sign, r) with
    [x rel k] = [x rel 0] + sum sign * [x eq r], for rel ge or le."""
    lo, hi = min(k, 0), max(k, 0)
    if rel == REL_GE:
        return [(-1 if k > 0 else 1, r) for r in range(lo, hi)]
    return [(1 if k > 0 else -1, r) for r in range(lo + 1, hi + 1)]


@lru_cache(maxsize=None)
def base_sum(rel: str, k: int) -> AlgebraElement:
    """The two-vertex sum S_{rel,K} = sum_{a,b>=0} Cat_a Cat_b t^{a+b} [a rel b+K].

    S_{none,K} = C(t)^2;  S_{eq,K} = (H^(|K|) - 1)/alpha_|K| with
    alpha_M = -4(2M-1) t^{2-M} / ((M+1) Cat_M);  S_{ge,0} = S_{le,0} is the
    average of the two, and general shifts peel off the equality layers of
    `_peel`: S_{rel,K} = S_{ge,0} + sum sign * S_{eq,r}.
    """
    if rel == REL_NONE:
        c = catalan_gf()
        return c * c
    if rel == REL_EQ:
        m = abs(k)
        inv_alpha = Fraction((m + 1) * catalan(m), -4 * (2 * m - 1))
        return (hypergeom_hk(m) - ONE).scale(inv_alpha).shift_t(m - 2)
    if rel not in (REL_GE, REL_LE):
        raise ValueError(f"unknown relation {rel!r}")
    total = (base_sum(REL_NONE, 0) + base_sum(REL_EQ, 0)).scale(Fraction(1, 2))
    for sign, r in _peel(rel, k):
        total = total + base_sum(REL_EQ, r).scale(sign)
    return total


S0 = base_sum(REL_EQ, 0)
MINUS_S0 = S0.scale(-1)
S0_SQUARED = S0 * S0


@lru_cache(maxsize=None)
def _enumerated(d: int, k: int, color: int) -> AlgebraElement:
    """[z^k] G(z)^d W(z) with G(z) = sum_{x>=0} S_{eq,x} z^x and W(z) =
    sum_r S(center alone, eq r) z^r: the sum over d nonnegative branch
    differences and the center's own variable adding up to k (W = 1 for a
    gray center, sum_r Cat_r t^r z^r for a white one).  Starts from W,
    convolves d - 1 times with G truncated at z^k and reads z^k off one dot
    product with G (zero for k < 0)."""
    g = [base_sum(REL_EQ, x) for x in range(k + 1)]
    acc = [height_zero_sum(Decoration(color, REL_EQ, r)) for r in range(k + 1)]
    for _ in range(d - 1):
        acc = [sum((acc[a] * g[m - a] for a in range(m + 1)), ZERO) for m in range(k + 1)]
    return sum((acc[a] * g[k - a] for a in range(k + 1)), ZERO)


@lru_cache(maxsize=None)
def _merge_terms(m: int) -> tuple[tuple[AlgebraElement, int, bool], ...]:
    """The terms (c/t^j, j, keeps a variable) of C^m = P_m(1/t) + Q_m(1/t) C,
    by t C^2 = C - 1: P_1 = 0, Q_1 = 1, P_{m+1} = -Q_m/t, Q_{m+1} = P_m + Q_m/t
    (coefficient lists in 1/t).  Q's terms come first, each in increasing j."""
    p, q = [0], [1]
    for _ in range(m - 1):
        p, q = [0] + [-c for c in q], [a + b for a, b in zip(p + [0], [0] + q)]
    return tuple(
        (AlgebraElement.from_laurent(Laurent.t_power(-j, c)), j, keeps)
        for keeps, poly in ((True, q), (False, p))
        for j, c in enumerate(poly)
        if c
    )


def tridiagonal_inverse_row(n: int, r: int) -> list[Fraction]:
    """Row r of the exact inverse of the n x n tridiagonal matrix with 2 on
    the diagonal and 1 beside it: entry c is
    (-1)^(r+c) (min(r,c)+1) (n-max(r,c)) / (n+1)."""
    return [Fraction((-1) ** (r + c) * (min(r, c) + 1) * (n - max(r, c)), n + 1) for c in range(n)]


class Engine:
    """Reduces decorated trees to exact normal forms, memoized per instance.

    An instance owns a mutable memo cache and cycle counter, so it is a
    single-owner object; distinct instances are fully independent and the
    rule functions themselves are pure.  `cycles` counts the trees that
    `reduce` rewrote with `step`, over all calls; a memo hit costs none.
    Each call may add at most `max_cycles` to it.
    `at_quarter` maps the canonical text of a plain tree (the text that
    `trees.parse_plain` reads back, `halfedge:` prefix included) to
    S(T)(1/4) of its canonical decoration, and `forests` maps the sorted
    texts of a meander's forest to its finished shape probability;
    `meanders.probability` fills both on a miss.  Like the memo they belong
    to this instance alone and are not locked, so an engine must not be
    shared between threads.
    """

    def __init__(self, max_cycles: int = 10**5, trace=None):
        self.max_cycles = max_cycles
        self.trace = trace
        self.memo: dict[bytes, AlgebraElement] = {}
        self.at_quarter: dict[str, PiPoly] = {}
        self.forests: dict[tuple[str, ...], PiPoly] = {}
        self.cycles = 0

    # -- public entry points ----------------------------------------------

    def reduce(self, tree: DecoratedTree) -> AlgebraElement:
        memo = self.memo
        limit = self.cycles + self.max_cycles
        # The trees on the reduction stack, by canonical key.  Cycle detection
        # compares exact indexed trees: a color-symmetric tree shares its
        # canonical key with its own color swap, which the driver may
        # legitimately visit while the original is on the stack.
        on_stack: dict[bytes, list[DecoratedTree]] = {}
        # One frame per tree being rewritten: its key, its SumExpr, the factors
        # still to reduce (last first) and the values of those already
        # reduced.  The bottom frame holds just `tree` as its one factor.
        frames = [(b"", [], [tree], [])]
        while True:
            key, expr, todo, values = frames[-1]
            if todo:
                tree = todo.pop()
                key = canonical_key(tree)
                if key in memo:
                    values.append(memo[key])
                    continue
                trees = on_stack.setdefault(key, [])
                if tree in trees:
                    raise DepthGuardExceeded("reduction revisited a tree already on the stack")
                self.cycles += 1
                if self.cycles > limit:
                    raise DepthGuardExceeded(f"more than {self.max_cycles} driver cycles")
                trees.append(tree)
                rule, site, expr = self.step(tree)
                if self.trace is not None:
                    self.trace(f"RULE {rule} AT {site} -> {len(expr)} subproblems")
                todo = [f for _, factors in reversed(expr) for f in reversed(factors)]
                frames.append((key, expr, todo, []))
                continue
            frames.pop()
            if not frames:
                return values[0]
            total = ZERO
            reduced = iter(values)
            for coeff, factors in expr:
                term = coeff
                for _ in factors:
                    term = term * next(reduced)
                total = total + term
            on_stack[key].pop()
            memo[key] = total
            frames[-1][3].append(total)

    def step(self, tree: DecoratedTree) -> tuple[str, int, SumExpr]:
        """The highest-priority rewrite of `tree` as (rule, site, expr): `expr`
        is a SumExpr whose value is S(tree)."""
        if tree.height == 0:
            return "height-zero", 0, [(height_zero_sum(tree.decos[0]), ())]
        found = self._find_generic_rewrite(tree)
        if found is not None:
            return found
        if tree.height == 1:
            deco = tree.decos[0]
            return "two-vertex-base", 0, [(base_sum(deco.rel, deco.shift), ())]
        v = tree.fringe_heights.index(2)
        tree = self._normalize_branches(tree, v)
        deco = tree.decos[v]
        if deco.rel == REL_NONE:
            if v == 0:
                gen = ONE if deco.color == GRAY else catalan_gf()
                parts = tuple(subtree_at(tree, c) for c in tree.children[0])
                return "factor-free-root", 0, [(gen, parts)]
            return "dissolve-free-center", v, [(ONE, (with_children_reattached(tree, v),))]
        pattern = classify_fringe(tree, v)
        if pattern.center_color == BLACK:
            return "swap-colors", v, [(ONE, (swap_colors(tree),))]
        if pattern.extra_leaf is not None:
            pulled = with_pulled_down_variable(tree, v, pattern.extra_leaf)
            return "pull-down-center-variable", v, [(ONE, (pulled,))]
        return self._long_star_step(tree, v, pattern)

    # -- driver --------------------------------------------------------------

    def _normalize_branches(self, tree: DecoratedTree, v: int) -> DecoratedTree:
        """Put the white vertex on top of every two-vertex branch under v."""
        kids = tree.children
        pairs = [(c, kids[c][0]) for c in kids[v] if kids[c] and tree.decos[c].color == BLACK]
        return with_branch_colors_swapped(tree, pairs) if pairs else tree

    # -- generic rewrites, in driver priority order ---------------------------

    def _find_generic_rewrite(self, tree: DecoratedTree):
        """The first generic rewrite, or None, and then the tree is good: each
        rule below is marked with the goodness clause whose failures it takes."""
        n = len(tree)
        decos, parents = tree.decos, tree.parents
        # (i) Factor at a nonroot equality: the fringe splits off as an
        # independent factor and its shift sum replaces the variables above.
        for v in range(1, n):
            if decos[v].rel == REL_EQ:
                parts = (without_subtree(tree, v), subtree_at(tree, v))
                return "factor-equality", v, [(ONE, parts)]
        # (ii) Move a nonzero shift on an inequality to zero, peeling off its
        # equality layers.
        for v, deco in enumerate(decos):
            if deco.shift != 0 and deco.rel in (REL_LE, REL_GE):
                return "shift-toward-zero", v, self._shift_step(tree, v)
        leaves = tree.leaves
        # (iii) A gray leaf is a bare indicator on its shift that holds here:
        # the rules above took every nonroot `eq` and every `le`/`ge` shift.
        for v in leaves:
            deco = decos[v]
            if deco.color == GRAY:
                smaller = without_leaves(with_shift_added(tree, parents[v], deco.shift), (v,))
                return "drop-gray-leaf", v, [(ONE, (smaller,))]
        # (iii) A leaf inequality is void or forces the variable to zero.
        for v in leaves:
            deco = decos[v]
            if deco.color != GRAY and deco.rel in (REL_LE, REL_GE):
                void = (deco.color == WHITE) == (deco.rel == REL_GE)
                new_rel = REL_NONE if void else REL_EQ
                return "relax-leaf", v, [(ONE, (with_relation(tree, v, new_rel),))]
        # (iii) Shifts under a void relation transfer to the parent.
        for v, deco in enumerate(decos):
            if deco.shift != 0 and deco.rel == REL_NONE:
                if v == 0:
                    smaller = with_shift(tree, 0, 0)
                else:
                    smaller = with_shift(with_shift_added(tree, parents[v], deco.shift), v, 0)
                return "push-free-shift", v, [(ONE, (smaller,))]
        # (iv) The lowest leaf with a same-colored sibling leaf merges with all
        # of them (and with their parent when it has their color).
        first_twin: dict[tuple[int, int], int] = {}
        best = None
        for w in leaves:
            v = first_twin.setdefault((parents[w], decos[w].color), w)
            if v != w and (best is None or v < best):
                best = v
        if best is not None:
            p, color = parents[best], decos[best].color
            twins = tuple(w for w in leaves if parents[w] == p and decos[w].color == color)
            return "merge-twin-leaves", best, self._merge_step(tree, twins)
        # (v) A relation-free leaf under a same-colored parent merges with it.
        for v in leaves:
            color = decos[v].color
            if color != GRAY and color == decos[parents[v]].color:
                return "merge-leaf-into-parent", v, self._merge_step(tree, (v,))
        # (vi) A relation-free leaf under a gray parent hands it its variable.
        for v in leaves:
            if decos[parents[v]].color == GRAY:
                merged = with_absorbed_leaf(tree, parents[v], v)
                return "absorb-leaf-into-gray", v, [(ONE, (merged,))]
        return None

    def _shift_step(self, tree: DecoratedTree, v: int) -> SumExpr:
        """Split `x rel kappa` into the same relation with shift zero plus the
        signed equality layers of `_peel`, in one rewrite.  Each changed
        stored shift is compensated at the parent so all other conditions keep
        their right-hand sides."""
        deco = tree.decos[v]
        k = deco.shift

        def variant(rel: str, new_k: int) -> DecoratedTree:
            out = with_decoration(tree, v, Decoration(deco.color, rel, new_k))
            if v != 0 and new_k != k:
                out = with_shift_added(out, tree.parents[v], k - new_k)
            return out

        return [(ONE, (variant(deco.rel, 0),))] + [
            (ONE if sign > 0 else MINUS_ONE, (variant(REL_EQ, r),)) for sign, r in _peel(deco.rel, k)
        ]

    def _merge_step(self, tree: DecoratedTree, twins: tuple[int, ...]) -> SumExpr:
        """The merge of the leaves `twins` (and their parent, when it has their
        color) by `_merge_terms`: each term moves the parent's shift by j (-j
        for black), a Q term keeps one variable (the parent's, else twins[0])
        and a P term none (a same-colored parent turns gray)."""
        p, color = tree.parents[twins[0]], tree.decos[twins[0]].color
        pd = tree.decos[p]
        joins = pd.color == color
        sign = 1 if color == WHITE else -1
        expr = []
        for coeff, j, keeps in _merge_terms(len(twins) + joins):
            after = Decoration(GRAY if joins and not keeps else pd.color, pd.rel, pd.shift + sign * j)
            gone = twins[1:] if keeps and not joins else twins
            expr.append((coeff, (with_merged_twins(tree, p, after, gone),)))
        return expr

    # -- long stars ------------------------------------------------------------

    def _long_star_step(self, tree: DecoratedTree, v: int, pattern: LongStarPattern):
        assert pattern.center_color in (WHITE, GRAY) and pattern.extra_leaf is None
        deco = tree.decos[v]
        rel, k_shift = deco.rel, deco.shift
        i, j, k = pattern.i, pattern.j, pattern.k

        def graft(color: int, new_rel: str, new_shift: int, bi: int, bj: int, bk: int):
            return with_replaced_fringe(tree, v, Decoration(color, new_rel, new_shift), (bi, bj, bk))

        if pattern.center_color == WHITE:
            if k >= 1:
                # Catalan merge of the center with a free branch middle: the Q
                # term keeps one variable, on the middle; the P term none.
                (q, _, _), (p, _, _) = _merge_terms(2)
                merged = graft(GRAY, rel, k_shift + 1, i, j, k)
                dropped = graft(BLACK, rel, k_shift + 1, i, j, k - 1)
                return "ustar-merge-free-branch", v, [(q, (merged,)), (p, (dropped,))]
            if j >= 1:
                # Reverse one le-branch: le + ge = free + equality.
                return (
                    "ustar-reverse-branch",
                    v,
                    [
                        (ONE, (graft(WHITE, rel, k_shift, i, j - 1, 1),)),
                        (S0, (graft(WHITE, rel, k_shift, i, j - 1, 0),)),
                        (MINUS_ONE, (graft(WHITE, rel, k_shift, i + 1, j - 1, 0),)),
                    ],
                )
            return self._one_sided_star_step(tree, v, i, lowered=False)

        # gray center
        if k >= 2:
            return (
                "vstar-double-merge",
                v,
                [
                    (T_INV2, (graft(GRAY, rel, k_shift, i, j, k - 1),)),
                    (T_INV2, (graft(GRAY, rel, k_shift, i, j, k - 2),)),
                    (MINUS_T_INV2, (graft(WHITE, rel, k_shift, i, j, k - 2),)),
                    (MINUS_T_INV2, (graft(BLACK, rel, k_shift, i, j, k - 2),)),
                ],
            )
        if k == 1:
            return (
                "vstar-reverse-free-branch",
                v,
                [
                    (ONE, (graft(GRAY, rel, k_shift, i + 1, j, 0),)),
                    (ONE, (graft(GRAY, rel, k_shift, i, j + 1, 0),)),
                    (MINUS_S0, (graft(GRAY, rel, k_shift, i, j, 0),)),
                ],
            )
        if i > 0 and j > 0:
            # The mixed stars V_{r,d-r,0}, r = 1..d-1, solve a tridiagonal
            # system (2 on the diagonal, 1 beside it) whose right-hand sides
            # are stars with fewer ge/le branches and the one-sided V_{0,d,0},
            # V_{d,0,0}: this star is row i of its inverse applied to them.
            d = i + j
            row = tridiagonal_inverse_row(d - 1, i - 1)
            expr = []
            for r, entry in enumerate(row, 1):
                expr += [
                    (ONE.scale(entry), (graft(GRAY, rel, k_shift, r - 1, d - 1 - r, 2),)),
                    (S0.scale(2 * entry), (graft(GRAY, rel, k_shift, r - 1, d - 1 - r, 1),)),
                    (S0_SQUARED.scale(entry), (graft(GRAY, rel, k_shift, r - 1, d - 1 - r, 0),)),
                ]
            expr.append((ONE.scale(-row[0]), (graft(GRAY, rel, k_shift, 0, d, 0),)))
            expr.append((ONE.scale(-row[d - 2]), (graft(GRAY, rel, k_shift, d, 0, 0),)))
            return "vstar-linear-system", v, expr
        return self._one_sided_star_step(tree, v, i + j, lowered=j > 0)

    def _one_sided_star_step(self, tree: DecoratedTree, v: int, d: int, lowered: bool):
        """A star whose d branches are all `ge`, or all `le` when `lowered`.
        Read from the `ge` side (flipped when lowered), the center condition
        is implied by the branches (ge), pinches every branch to equality
        (le: the enumeration at total 0), or, at an equality root, bounds
        the branch differences by the root shift: a finite enumeration, where
        a white center's variable r >= 0 contributes Cat_r t^r toward that
        total."""
        deco = tree.decos[v]
        prefix = "ustar" if deco.color == WHITE else "vstar"
        seen = deco.flipped() if lowered else deco
        rel, k = seen.rel, seen.shift
        if rel == REL_GE:
            return f"{prefix}-drop-implied-center", v, [(ONE, (with_relation(tree, v, REL_NONE),))]
        if rel == REL_LE:
            assert k == 0
            rest = (without_subtree(tree, v),) if v else ()
            return f"{prefix}-forced-equalities", v, [(_enumerated(d, 0, deco.color), rest)]
        assert rel == REL_EQ and v == 0
        return f"{prefix}-finite-enumeration", v, [(_enumerated(d, k, deco.color), ())]
