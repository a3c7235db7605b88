"""Acceptance suite: one test per criterion, each printing a PASS line.

All comparisons are exact (rational/normal-form equality) except the two
explicitly tolerance-based checks in the star criterion (partial-sum gap
below 1e-6 and the asymptotic ratio within 6%).
"""

import ast
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import catsum
from catsum.algebra import H1, H2, ONE, PiPoly, hypergeom_hk
from catsum.algebra import Laurent
from catsum.engine import Engine, base_sum
from catsum.meanders import enumerate_meanders, faces, forest, parse_meander, probability
from catsum.series import brute_force_decorated, series_expand
from catsum.stars import star_3f2_partial, star_eval, star_plain, star_recurrence_residual
from catsum.table_data import LINE_EXAMPLE_8, TABLE, closed_form_element, evaluation_pipoly
from catsum.trees import (
    REL_EQ,
    REL_GE,
    REL_LE,
    canonical_decorate,
    enumerate_free_trees,
    parse_plain,
    reroot,
)

from conftest import (
    brute_force_edge,
    dense,
    gauss_value_hk,
    long_star_tree,
    random_decorated_tree,
    star_eval_crosscheck_bc,
)

ENGINE = Engine()


def _tracked_trees():
    """Trees exercised by criteria 1-5, reused for the bound checks."""
    for entry in TABLE + [LINE_EXAMPLE_8]:
        yield canonical_decorate(parse_plain(entry.tree_text))
    rng = random.Random(2024)
    for _ in range(300):
        yield random_decorated_tree(rng, max_vertices=7, max_nongray=6, kmin=-2, kmax=2)


def test_criterion_1_golden_closed_forms_and_evaluations():
    for entry in TABLE:
        value = ENGINE.reduce(canonical_decorate(parse_plain(entry.tree_text)))
        assert value == closed_form_element(entry), entry.label
        assert value.eval_quarter() == evaluation_pipoly(entry), entry.label
    spot = {
        "T_{2,a}": PiPoly({1: 16, 0: -4}),
        "T_{6,c}": PiPoly({3: Fraction(4096, 3), 2: 1024, 1: Fraction(-512, 9), 0: -128}),
        "T_{7,k}": PiPoly({1: Fraction(23552, 3465)}),
    }
    by_label = {e.label: e for e in TABLE}
    for label, expected in spot.items():
        assert evaluation_pipoly(by_label[label]) == expected
    print("ACCEPTANCE 1: PASS - 24 golden closed forms and evaluations exact")


def test_criterion_2_golden_series_prefixes():
    for entry in TABLE:
        tree = canonical_decorate(parse_plain(entry.tree_text))
        value = ENGINE.reduce(tree)
        engine_series = series_expand(value, 12)
        oracle = brute_force_decorated(tree, 12)
        assert engine_series == oracle, entry.label
        for i, coeff in enumerate(entry.series):
            assert dense(engine_series, 12)[2 * i] == coeff, (entry.label, i)
    print("ACCEPTANCE 2: PASS - 24 series prefixes match print and oracle")


def test_criterion_3_eight_vertex_example():
    entry = LINE_EXAMPLE_8
    tree = canonical_decorate(parse_plain(entry.tree_text))
    value = ENGINE.reduce(tree)
    assert value == closed_form_element(entry)
    assert value.eval_quarter() == PiPoly(
        {3: Fraction(2**16, 9), 2: Fraction(2**16, 9), 1: Fraction(-(2**13), 35), 0: -896}
    )
    series = series_expand(value, 10)
    assert dense(series, 10)[::2] == [1, 7, 58, 542, 5508, 59508]
    print("ACCEPTANCE 3: PASS - 8-vertex example closed form, value, prefix")


def test_criterion_4_base_cases_and_contiguity():
    assert base_sum(REL_EQ, 0) == (H1 - ONE).shift_t(-2).scale(Fraction(1, 4))
    assert base_sum(REL_GE, 0).eval_quarter() == PiPoly({1: 8})
    assert base_sum(REL_EQ, 1) == (ONE - H2).shift_t(-1).scale(Fraction(1, 2))
    z = Laurent({2: 16})
    one_plus_z = Laurent({0: 1, 2: 16})
    for k in range(19):  # H^(K) up to K = 20
        lhs = hypergeom_hk(k + 2).mul_laurent(z).scale(
            Fraction(2 * k + 1, 2) * Fraction(2 * k + 5, 2) / (k + 2)
        )
        rhs = (hypergeom_hk(k + 1).mul_laurent(one_plus_z) - hypergeom_hk(k)).scale(k + 1)
        assert (lhs - rhs).is_zero(), k
    for k in range(21):
        assert hypergeom_hk(k).eval_quarter() == gauss_value_hk(k), k
    print("ACCEPTANCE 4: PASS - base sums, contiguity residuals, Gauss values")


def test_criterion_5_randomized_oracle_sweep():
    rng = random.Random(2024)
    for trial in range(300):
        tree = random_decorated_tree(rng, max_vertices=7, max_nongray=6, kmin=-2, kmax=2)
        value = ENGINE.reduce(tree)
        assert series_expand(value, 8) == brute_force_decorated(tree, 8), trial
    print("ACCEPTANCE 5: PASS - 300 randomized decorated trees match the oracle")


def test_criterion_6_degree_bounds_and_membership():
    for tree in _tracked_trees():
        value = ENGINE.reduce(tree)
        if not value.is_zero():
            assert value.degree() <= tree.nongray_count
            evaluation = value.eval_quarter()
            if not evaluation.is_zero():
                assert evaluation.degree() <= tree.nongray_count // 2
        if tree.decos[0].rel == REL_EQ:
            assert all(c == 0 for _, _, c in value.terms)
    print("ACCEPTANCE 6: PASS - degree bounds and equality-root membership")


def test_criterion_7_degree_tightness():
    for d in range(1, 6):
        gray = ENGINE.reduce(long_star_tree(d, 0, 0, REL_LE, 0))
        assert gray == base_sum(REL_EQ, 0) ** d
        assert gray.degree() == 2 * d
        assert gray.eval_quarter().degree() == d
        from catsum.trees import WHITE

        white = ENGINE.reduce(long_star_tree(d, 0, 0, REL_GE, 0, center_color=WHITE))
        assert white.degree() == 2 * d + 1
        assert white.eval_quarter().degree() == d
    print("ACCEPTANCE 7: PASS - long stars reach degrees 2d / 2d+1, value degree d")


def test_criterion_8_stars():
    for s in range(9):
        direct = ENGINE.reduce(canonical_decorate(star_plain(s))).eval_quarter()
        assert direct == star_eval(s), s
    for s in range(1, 51):
        hom, inhom = star_recurrence_residual(s)
        assert hom.is_zero() and inhom.is_zero(), s
    for s in range(11):
        assert star_eval_crosscheck_bc(s) == star_eval(s + 3), s
    partial = star_3f2_partial(3, 10**5)
    gap = abs(partial - star_eval(3).to_fraction())
    assert gap < Fraction(1, 10**6), float(gap)
    ratio = star_eval(200).coeffs[1] * Fraction(200**3) / Fraction(2**200)
    assert abs(ratio / 8 - 1) < Fraction(6, 100)
    print("ACCEPTANCE 8: PASS - star values, recurrences, partial sums, asymptotics")


def test_criterion_9_meanders():
    circle = parse_meander("upper: 0-1; lower: 0-1")
    assert probability(circle, ENGINE) == PiPoly({1: 2, 0: Fraction(-1, 2)})
    spiral = parse_meander("upper: 0-1, 2-3; lower: 1-2, 0-3")
    assert probability(spiral, ENGINE) == PiPoly({1: Fraction(-2, 3), 0: Fraction(1, 4)})
    for k in (1, 2, 3):
        total = Fraction(0)
        for meander in enumerate_meanders(k):
            prob = probability(meander, ENGINE)
            assert isinstance(prob, PiPoly)
            total += prob.to_fraction()
            assert len(faces(meander)) == 2 * k
            trees = forest(meander)
            no_half = [t for t in trees if not t.half_edge]
            assert len(no_half) == 1
        assert 0 < total < 1, k
    print("ACCEPTANCE 9: PASS - meander probabilities exact, sweeps consistent")


def test_criterion_10_edge_vs_vertex_oracles():
    for n in range(1, 8):
        for tree in enumerate_free_trees(n):
            assert brute_force_edge(tree, 10) == brute_force_decorated(
                canonical_decorate(tree), 10
            ), tree
            for root in range(n):
                half = reroot(tree, root, half_edge=True)
                assert brute_force_edge(half, 10) == brute_force_decorated(
                    canonical_decorate(half), 10
                ), (tree, root)
    print("ACCEPTANCE 10: PASS - edge and vertex oracles agree on all small trees")


def test_criterion_11_exhaustive_free_tree_sweep():
    """Every free tree up to 8 vertices at every root, with and without the
    half-edge (368 rooted trees at n = 8): engine == oracle, the closed form
    has degree a + b at most nongray // 2 in H1^a H2^b (the paper's bound on
    the lifted degree, met on 193 of the 652), and the value at t = 1/4 has
    degree at most nongray // 2 in 1/pi."""
    count = tight = 0
    for n in range(1, 9):
        for plain in enumerate_free_trees(n):
            for root in range(n):
                for half_edge in (False, True):
                    tree = canonical_decorate(reroot(plain, root, half_edge=half_edge))
                    value = ENGINE.reduce(tree)
                    assert series_expand(value, 12) == brute_force_decorated(tree, 12), tree
                    lifted = max((a + b for a, b, _ in value.terms), default=0)
                    assert lifted <= tree.nongray_count // 2, tree
                    tight += lifted == tree.nongray_count // 2
                    evaluation = value.eval_quarter()
                    assert evaluation.is_zero() or evaluation.degree() <= tree.nongray_count // 2
                    count += 1
    assert (count, tight) == (652, 193)
    print(f"ACCEPTANCE 11: PASS - {count} rooted free trees up to 8 vertices match the oracle")


def test_north_star_no_eval_and_stdlib_only():
    modules = sorted(Path(catsum.__file__).parent.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("eval", "exec"), (path.name, node.lineno)
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    print("NORTH STAR: PASS - no eval or exec, standard-library imports only")


def _names(tree) -> Counter:
    """How often each name and attribute is read in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_north_star_no_unused_imports_and_pinned_exports():
    package = Path(catsum.__file__).parent
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(package.glob("*.py"))
    }
    # The module-level functions that no module references outside their own
    # def: never a private one, and only these public ones, each kept for a reason.
    everywhere = sum((_names(tree) for tree in modules.values()), Counter())
    uncalled = {
        node.name
        for tree in modules.values()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        if everywhere[node.name] == _names(node)[node.name]
    }
    assert uncalled == {
        # the meander-sweep benchmark and criterion 9 run every meander of a size
        "enumerate_meanders",
        # the direct term of the star partial sums, the reference for star_3f2_partial
        "star_term",
        # ROADMAP item 2's `catsum sweep` reroots every free tree of a size
        "enumerate_free_trees",
        "reroot",
    }
    for name, tree in modules.items():
        if name == "__init__.py":  # its imports are the re-exports
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = {alias: line for alias, line in imported.items() if alias not in used}
        assert not unused, (name, unused)
    assert catsum.__all__ == [
        "AlgebraElement",
        "DecoratedTree",
        "Engine",
        "H1",
        "H2",
        "Laurent",
        "ONE",
        "PiPoly",
        "PlainTree",
        "SQRT_1_4T",
        "ZERO",
        "brute_force_decorated",
        "canonical_decorate",
        "canonical_key",
        "catalan",
        "catalan_gf",
        "hypergeom_hk",
        "parse_decorated",
        "parse_plain",
        "series_expand",
        "swap_colors",
    ]
    assert all(hasattr(catsum, name) for name in catsum.__all__)
    print("NORTH STAR: PASS - no unused imports, public surface pinned")


def test_north_star_recursion_pinned():
    """Every function that calls itself, directly or as `self.name`, has a
    depth bounded independently of the input tree's size; anything that walks
    a tree or an enumeration uses an explicit stack instead."""
    package = Path(catsum.__file__).parent
    recursive = set()
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                callee = getattr(node, "func", None)
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    name = callee.attr if callee.value.id in ("self", "cls") else None
                else:
                    name = getattr(callee, "id", None)
                if name == fn.name:
                    recursive.add((path.name, fn.name))
    assert recursive == {
        # ge/le call eq and none, which return without recursing: depth 2
        ("engine.py", "base_sum"),
        # hypergeom_hk fills its cache bottom-up on a miss, so one level at most
        ("algebra.py", "hypergeom_hk"),
        # halves the bits of its int per level: depth log2(bits / 2^15), under
        # 40 for any int that fits in memory
        ("algebra.py", "joined"),
        # depth n/2 on n points; the Catalan(n/2) matchings exhaust memory
        # long before that nears the recursion limit
        ("meanders.py", "_matchings"),
    }
    print("NORTH STAR: PASS - self-recursion pinned to bounded-depth functions")
