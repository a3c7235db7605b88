"""Tree parsing, canonical decoration, keys, color swap, classification."""

import itertools
import json
import random
import sys

import pytest

from catsum.engine import Engine
from catsum.series import brute_force_decorated
from catsum.trees import (
    BLACK,
    GRAY,
    RELATIONS,
    REL_EQ,
    REL_GE,
    REL_LE,
    REL_NONE,
    WHITE,
    Decoration,
    DecoratedTree,
    NotHeightTwoError,
    PatternMismatchError,
    TreeSchemaError,
    TreeSyntaxError,
    canonical_decorate,
    PlainTree,
    canonical_key,
    classify_fringe,
    enumerate_free_trees,
    parse_decorated,
    parse_plain,
    plain_to_text,
    reroot,
    subtree_at,
    swap_colors,
    with_absorbed_leaf,
    with_children_reattached,
    with_merged_twins,
    with_pulled_down_variable,
    with_replaced_fringe,
    without_leaves,
    without_subtree,
)

from conftest import centroid_rooted, decorated_to_json, long_star_tree, random_decorated_tree


def test_parse_plain():
    p2 = parse_plain("(())")
    assert p2.parents == (-1, 0) and not p2.half_edge
    p1h = parse_plain("halfedge:()")
    assert p1h.parents == (-1,) and p1h.half_edge
    assert parse_plain(" ( ( ) ( ) ) ").parents == (-1, 0, 0)
    assert parse_plain(" halfedge: ( ( ) ) ") == PlainTree((-1, 0), True)
    with pytest.raises(TreeSyntaxError) as split_prefix:
        parse_plain(" half edge : ( ( ) ) ")
    assert split_prefix.value.position == 1
    with pytest.raises(TreeSyntaxError):
        parse_plain("(()(")
    with pytest.raises(TreeSyntaxError):
        parse_plain("())(")
    with pytest.raises(TreeSyntaxError):
        parse_plain("(())()")
    with pytest.raises(TreeSyntaxError):
        parse_plain("")
    try:
        parse_plain("(()(")
    except TreeSyntaxError as exc:
        assert exc.position == 4


def test_plain_text_roundtrip():
    for text in ("(())", "halfedge:(()())", "((())(())())"):
        assert plain_to_text(parse_plain(text)) == text


def test_canonical_decorate():
    p2 = canonical_decorate(parse_plain("(())"))
    assert p2.decos == (
        Decoration(WHITE, REL_EQ, 0),
        Decoration(BLACK, REL_LE, 0),
    )
    p1h = canonical_decorate(parse_plain("halfedge:()"))
    assert p1h.decos == (Decoration(WHITE, REL_GE, 0),)
    p3 = canonical_decorate(parse_plain("(()())"))
    assert p3.decos[0] == Decoration(WHITE, REL_EQ, 0)
    assert p3.decos[1] == p3.decos[2] == Decoration(BLACK, REL_LE, 0)
    p4 = canonical_decorate(parse_plain("(((())))"))
    # depth parity alternates white/black
    assert [d.color for d in p4.decos] == [WHITE, BLACK, WHITE, BLACK]


def test_canonical_key_sibling_invariance():
    a = parse_decorated(
        json.dumps(
            {
                "vertices": [
                    {"parent": -1, "color": "white", "rel": "eq", "k": 0},
                    {"parent": 0, "color": "black", "rel": "le", "k": 0},
                    {"parent": 0, "color": "black", "rel": "none", "k": 1},
                    {"parent": 1, "color": "white", "rel": "ge", "k": 0},
                ]
            }
        )
    )
    b = parse_decorated(
        json.dumps(
            {
                "vertices": [
                    {"parent": -1, "color": "white", "rel": "eq", "k": 0},
                    {"parent": 0, "color": "black", "rel": "none", "k": 1},
                    {"parent": 0, "color": "black", "rel": "le", "k": 0},
                    {"parent": 2, "color": "white", "rel": "ge", "k": 0},
                ]
            }
        )
    )
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_separates():
    p2 = canonical_decorate(parse_plain("(())"))
    p3 = canonical_decorate(parse_plain("(()())"))
    assert canonical_key(p2) != canonical_key(p3)
    shifted = DecoratedTree(p2.parents, (Decoration(WHITE, REL_EQ, 1), p2.decos[1]))
    assert canonical_key(p2) != canonical_key(shifted)


def _all_decorations(ks=(-1, 0, 1)):
    return [
        Decoration(color, rel, k)
        for color in (WHITE, GRAY, BLACK)
        for rel in RELATIONS
        for k in ks
    ]


def test_canonical_key_injective_small():
    """Exhaustive collision check on trees with up to 3 vertices; random
    sampling at 5 vertices (the full 5-vertex sweep is astronomically large)."""
    shapes = [(-1,), (-1, 0), (-1, 0, 0), (-1, 0, 1)]
    decos = _all_decorations()
    seen = {}
    for parents in shapes:
        for combo in itertools.product(decos, repeat=len(parents)):
            tree = DecoratedTree(parents, combo)
            key = canonical_key(tree)
            if key in seen:
                other = seen[key]
                assert _isomorphic(tree, other), (tree, other)
            else:
                seen[key] = tree
    # random 5-vertex sample
    rng = random.Random(11)
    buckets = {}
    for _ in range(4000):
        tree = random_decorated_tree(rng, max_vertices=5, max_nongray=5)
        buckets.setdefault(canonical_key(tree), []).append(tree)
    for trees in buckets.values():
        for other in trees[1:]:
            assert _isomorphic(trees[0], other)


def _isomorphic(a: DecoratedTree, b: DecoratedTree) -> bool:
    def encode(tree, v):
        kids = sorted(encode(tree, c) for c in tree.children[v])
        d = tree.decos[v]
        return (d.color, d.rel, d.shift, tuple(kids))

    return encode(a, 0) == encode(b, 0)


def test_swap_colors_involution_and_rules():
    rng = random.Random(12)
    for _ in range(50):
        tree = random_decorated_tree(rng)
        assert swap_colors(swap_colors(tree)) == tree
    leaf = DecoratedTree((-1,), (Decoration(WHITE, REL_GE, 3),))
    assert swap_colors(leaf).decos[0] == Decoration(BLACK, REL_LE, -3)


def test_swap_colors_preserves_sums():
    rng = random.Random(13)
    for _ in range(200):
        tree = random_decorated_tree(rng, max_vertices=6, max_nongray=6)
        assert brute_force_decorated(tree, 8) == brute_force_decorated(swap_colors(tree), 8)


def test_classify_fringe():
    star = long_star_tree(3, 0, 0, REL_LE, 0)
    free = DecoratedTree(
        star.parents,
        tuple(
            Decoration(d.color, REL_NONE if d.rel == REL_GE else d.rel, d.shift)
            for d in star.decos
        ),
    )
    pattern = classify_fringe(free, 0)
    assert (pattern.center_color, pattern.extra_leaf) == (GRAY, None)
    assert (pattern.i, pattern.j, pattern.k) == (0, 0, 3)

    mixed = long_star_tree(1, 2, 1, REL_GE, 0, center_color=WHITE)
    pattern = classify_fringe(mixed, 0)
    assert (pattern.center_color, pattern.extra_leaf) == (WHITE, None)
    assert (pattern.i, pattern.j, pattern.k) == (1, 2, 1)

    with_leaf = DecoratedTree(
        mixed.parents + (0,), mixed.decos + (Decoration(BLACK, REL_NONE, 0),)
    )
    pattern = classify_fringe(with_leaf, 0)
    assert (pattern.center_color, pattern.extra_leaf) == (WHITE, len(with_leaf) - 1)

    deep = DecoratedTree(
        (-1, 0, 1, 2),
        (
            Decoration(WHITE, REL_EQ, 0),
            Decoration(BLACK, REL_LE, 0),
            Decoration(WHITE, REL_GE, 0),
            Decoration(BLACK, REL_NONE, 0),
        ),
    )
    with pytest.raises(NotHeightTwoError):
        classify_fringe(deep, 0)
    # a free middle with nonzero shift fits no long-star pattern
    odd = DecoratedTree(
        long_star_tree(0, 0, 1, REL_LE, 0).parents,
        (
            Decoration(GRAY, REL_LE, 0),
            Decoration(WHITE, REL_NONE, 2),
            Decoration(BLACK, REL_NONE, 0),
        ),
    )
    with pytest.raises(PatternMismatchError):
        classify_fringe(odd, 0)


def test_is_good_tree():
    """A good tree takes a long-star step; a tree failing a clause of
    goodness takes the generic rewrite of that clause."""
    engine = Engine()
    assert engine.step(long_star_tree(2, 1, 0, REL_EQ, 0))[0] == "vstar-linear-system"
    # (iii): the leaves still carry inequalities
    assert engine.step(canonical_decorate(parse_plain("((())())")))[0] == "relax-leaf"
    twin = DecoratedTree(
        (-1, 0, 0),
        (
            Decoration(WHITE, REL_EQ, 0),
            Decoration(BLACK, REL_NONE, 0),
            Decoration(BLACK, REL_NONE, 0),
        ),
    )
    assert engine.step(twin)[0] == "merge-twin-leaves"  # (iv)


def test_parse_decorated():
    blob = {
        "vertices": [
            {"parent": -1, "color": "white", "rel": "eq", "k": 0},
            {"parent": 0, "color": "black", "rel": "none", "k": 0},
        ]
    }
    tree = parse_decorated(json.dumps(blob))
    assert tree.decos[0] == Decoration(WHITE, REL_EQ, 0)
    assert tree.decos[1] == Decoration(BLACK, REL_NONE, 0)
    # string shifts are accepted (unbounded integers)
    blob["vertices"][0]["k"] = "-123456789123456789123456789"
    assert parse_decorated(json.dumps(blob)).decos[0].shift == -123456789123456789123456789

    bad = {"vertices": [{"parent": -1, "color": "blue", "rel": "eq", "k": 0}]}
    with pytest.raises(TreeSchemaError):
        parse_decorated(json.dumps(bad))
    bad = {
        "vertices": [
            {"parent": 1, "color": "white", "rel": "eq", "k": 0},
            {"parent": -1, "color": "black", "rel": "none", "k": 0},
        ]
    }
    with pytest.raises(TreeSchemaError):
        parse_decorated(json.dumps(bad))
    with pytest.raises(TreeSchemaError):
        parse_decorated('{"vertices": []}')
    with pytest.raises(TreeSchemaError):
        parse_decorated("not json at all")
    bad = {"vertices": [{"parent": -1, "color": "white", "rel": "between", "k": 0}]}
    with pytest.raises(TreeSchemaError):
        parse_decorated(json.dumps(bad))
    # JSON booleans are not parent indices, though Python reads them as 0 and 1
    for parents in ([-1, False], [-1, 0, True]):
        bad = {"vertices": [{"parent": p, "color": "white", "rel": "none", "k": 0} for p in parents]}
        with pytest.raises(TreeSchemaError, match="parent must be an integer"):
            parse_decorated(json.dumps(bad))


def _vertex(parent=-1, **fields):
    return {"parent": parent, "color": "white", "rel": "none", "k": 0} | fields


@pytest.mark.parametrize(
    "build, error, message",
    [
        (
            lambda: parse_decorated("[]"),
            TreeSchemaError,
            "expected an object with a 'vertices' array",
        ),
        (lambda: parse_decorated({"vertices": [7]}), TreeSchemaError, "vertex 0 is not an object"),
        (
            lambda: parse_decorated({"vertices": [{"parent": -1, "color": "white", "rel": "eq"}]}),
            TreeSchemaError,
            "vertex 0 is missing field 'k'",
        ),
        (
            lambda: parse_decorated({"vertices": [_vertex(), _vertex(1)]}),
            TreeSchemaError,
            "vertex 1: parent 1 must be a smaller index (children after parents)",
        ),
        (
            lambda: parse_decorated({"vertices": [_vertex(k="two")]}),
            TreeSchemaError,
            "vertex 0: k is not an integer: 'two'",
        ),
        (
            lambda: parse_decorated({"vertices": [_vertex(k=1.5)]}),
            TreeSchemaError,
            "vertex 0: k must be an integer or decimal string",
        ),
        # unhashable colors are unknown colors, not a TypeError
        (
            lambda: parse_decorated({"vertices": [_vertex(color=[])]}),
            TreeSchemaError,
            "vertex 0: unknown color []",
        ),
        (
            lambda: parse_decorated({"vertices": [_vertex(color={})]}),
            TreeSchemaError,
            "vertex 0: unknown color {}",
        ),
        (lambda: PlainTree(()), ValueError, "a tree needs at least one vertex"),
        (lambda: PlainTree((0,)), ValueError, "vertex 0 must be the root (parent -1)"),
        (
            lambda: PlainTree((-1, 1)),
            ValueError,
            "vertex 1 has invalid parent 1; parents must precede children",
        ),
        (lambda: Decoration(2, REL_EQ, 0), ValueError, "invalid color 2"),
        (lambda: Decoration(WHITE, "lt", 0), ValueError, "invalid relation 'lt'"),
        (
            lambda: DecoratedTree((-1, 0), (Decoration(WHITE, REL_EQ, 0),)),
            ValueError,
            "decoration count does not match vertex count",
        ),
        (lambda: parse_plain("(x)"), TreeSyntaxError, "unexpected character 'x' (at position 1)"),
        # positions index the text as given, whitespace included
        (lambda: parse_plain("( ) )"), TreeSyntaxError, "unmatched ')' (at position 4)"),
        (
            lambda: parse_plain("halfedge: (()) x"),
            TreeSyntaxError,
            "unexpected character 'x' (at position 15)",
        ),
        (lambda: parse_plain("(()) (())"), TreeSyntaxError, "more than one root (at position 5)"),
        (lambda: parse_plain(" (() "), TreeSyntaxError, "unclosed '(' (at position 5)"),
        (lambda: parse_plain("halfedge:  "), TreeSyntaxError, "empty tree (at position 11)"),
        (
            lambda: reroot(parse_plain("((()))"), -1),
            ValueError,
            "root -1 is not a vertex of a tree on 3 vertices",
        ),
        (
            lambda: reroot(parse_plain("((()))"), 3),
            ValueError,
            "root 3 is not a vertex of a tree on 3 vertices",
        ),
        (
            lambda: reroot(parse_plain("halfedge:((()))"), 0),
            ValueError,
            "half-edge trees are rooted at the half-edge extremity",
        ),
    ],
)
def test_input_errors(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and str(caught.value) == message


def test_decorated_json_roundtrip():
    rng = random.Random(14)
    for _ in range(30):
        tree = random_decorated_tree(rng)
        assert parse_decorated(json.dumps(decorated_to_json(tree))) == tree


def test_enumerate_free_trees_counts():
    counts = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # OEIS A000055
    assert [len(enumerate_free_trees(n)) for n in range(1, 13)] == counts


def test_enumerate_free_trees_matches_pruefer_walk():
    for n in range(1, 8):
        assert enumerate_free_trees(n) == _reference_free_trees(n), n


def test_centroid_rooted_is_the_enumerated_canonical_layout():
    """Rooting any free tree at any vertex and then at its canonical
    centroid gives back the enumerated layout, in which every vertex's
    children come in non-decreasing order of their subtree texts."""
    for n in range(1, 10):
        for tree in enumerate_free_trees(n):
            for root in range(n):
                assert centroid_rooted(reroot(tree, root)) == tree, (tree, root)
            texts = [""] * n
            for v in reversed(range(n)):
                kids = [texts[c] for c in tree.children[v]]
                assert kids == sorted(kids), (tree, v)
                texts[v] = "(" + "".join(kids) + ")"


def test_derived_metrics():
    tree = canonical_decorate(parse_plain("((())())"))
    assert tree.height == 2
    assert tree.nongray_count == 4
    assert tree.fringe_heights == (2, 1, 0, 0)
    assert tree.leaves == (2, 3)
    assert tree.children is tree.children  # computed once, then read from the instance


# -- reference implementations: recursive, one object per vertex ------------------


def _reference_children(parents):
    kids = [[] for _ in parents]
    for v in range(1, len(parents)):
        kids[parents[v]].append(v)
    return kids


def _reference_key(tree: DecoratedTree) -> bytes:
    kids = _reference_children(tree.parents)

    def encode(v: int) -> bytes:
        d = tree.decos[v]
        head = f"({d.color}{d.rel}{d.shift}".encode()
        return head + b"".join(sorted(encode(c) for c in kids[v])) + b")"

    return encode(0)


def _reference_pruefer_tree(seq, n):
    """Adjacency lists of the labelled tree with Pruefer sequence `seq`."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    adj = [[] for _ in range(n)]
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        adj[leaf].append(x)
        adj[x].append(leaf)
        degree[leaf] -= 1
        degree[x] -= 1
    u, w = (v for v in range(n) if degree[v] == 1)
    adj[u].append(w)
    adj[w].append(u)
    return adj


def _reference_size(adj, v, parent):
    return 1 + sum(_reference_size(adj, u, v) for u in adj[v] if u != parent)


def _reference_encoding(adj, v, parent):
    return "(" + "".join(sorted(_reference_encoding(adj, u, v) for u in adj[v] if u != parent)) + ")"


def _reference_free_trees(n):
    """Every labelled tree on n vertices, one per Pruefer sequence, keyed by
    its least rooted encoding over its centroids (the vertices whose largest
    remaining component is smallest); one tree per key, in key order."""
    if n == 1:
        return [PlainTree((-1,))]
    keys = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        adj = _reference_pruefer_tree(seq, n)
        weight = [max(_reference_size(adj, u, v) for u in adj[v]) for v in range(n)]
        centroids = [v for v in range(n) if weight[v] == min(weight)]
        keys.add(min(_reference_encoding(adj, v, -1) for v in centroids))
    return [parse_plain(key) for key in sorted(keys)]


class _RefNode:
    def __init__(self, deco):
        self.deco = deco
        self.kids = []


def _ref_nodes(tree):
    nodes = [_RefNode(d) for d in tree.decos]
    for v in range(1, len(tree)):
        nodes[tree.parents[v]].kids.append(nodes[v])
    return nodes


def _ref_tree(root) -> DecoratedTree:
    parents, decos = [], []

    def walk(node, parent):
        idx = len(parents)
        parents.append(parent)
        decos.append(node.deco)
        for kid in node.kids:
            walk(kid, idx)

    walk(root, -1)
    return DecoratedTree(tuple(parents), tuple(decos))


def _ref_edit(name, tree, *args) -> DecoratedTree:
    nodes = _ref_nodes(tree)
    if name == "subtree_at":
        return _ref_tree(nodes[args[0]])
    if name == "without_subtree":
        (v,) = args
        nodes[tree.parents[v]].kids.remove(nodes[v])
    elif name == "without_leaves":
        for v in args[0]:
            assert not nodes[v].kids
            nodes[tree.parents[v]].kids.remove(nodes[v])
    elif name == "with_children_reattached":
        (v,) = args
        parent = nodes[tree.parents[v]]
        pos = parent.kids.index(nodes[v])
        parent.kids[pos + 1 : pos + 1] = nodes[v].kids
        nodes[v].kids = []
    elif name == "with_absorbed_leaf":
        parent, leaf = args
        pd = tree.decos[parent]
        nodes[parent].kids.remove(nodes[leaf])
        nodes[parent].deco = Decoration(tree.decos[leaf].color, pd.rel, pd.shift)
    elif name == "with_pulled_down_variable":
        v, leaf = args
        d = tree.decos[v]
        middle = _RefNode(Decoration(d.color, REL_NONE, 0))
        nodes[v].kids.remove(nodes[leaf])
        middle.kids.append(nodes[leaf])
        nodes[v].kids.append(middle)
        nodes[v].deco = Decoration(GRAY, d.rel, d.shift)
    elif name == "with_merged_twins":
        w1, w2, merged = args
        nodes[tree.parents[w1]].kids.remove(nodes[w2])
        nodes[w1].deco = merged
    elif name == "with_replaced_fringe":
        v, center, branches = args
        nodes[v].deco = center
        nodes[v].kids = []
        for rel, count in zip((REL_GE, REL_LE, REL_NONE), branches):
            for _ in range(count):
                mid = _RefNode(Decoration(WHITE, rel, 0))
                mid.kids.append(_RefNode(Decoration(BLACK, REL_NONE, 0)))
                nodes[v].kids.append(mid)
    else:
        raise AssertionError(name)
    return _ref_tree(nodes[0])


EDITS = {
    "subtree_at": subtree_at,
    "without_subtree": without_subtree,
    "without_leaves": without_leaves,
    "with_children_reattached": with_children_reattached,
    "with_absorbed_leaf": with_absorbed_leaf,
    "with_pulled_down_variable": with_pulled_down_variable,
    "with_merged_twins": with_merged_twins,
    "with_replaced_fringe": with_replaced_fringe,
}


def _edit_sites(tree: DecoratedTree):
    """Every valid call of every structural edit on `tree`."""
    n = len(tree)
    kids = _reference_children(tree.parents)
    leaves = [v for v in range(1, n) if not kids[v]]
    twins = [(a, b) for a in leaves for b in leaves if a != b and tree.parents[a] == tree.parents[b]]
    yield from (("subtree_at", v) for v in range(n))
    yield from (("without_subtree", v) for v in range(1, n))
    yield from (("without_leaves", (v,)) for v in leaves)
    yield from (("without_leaves", pair) for pair in twins)
    yield from (("with_children_reattached", v) for v in range(1, n))
    yield from (("with_absorbed_leaf", tree.parents[v], v) for v in leaves)
    yield from (
        ("with_pulled_down_variable", tree.parents[v], v)
        for v in range(1, n)
        if tree.decos[tree.parents[v]].color != GRAY
    )
    merged = Decoration(WHITE, REL_NONE, 1)
    yield from (("with_merged_twins", a, b, merged) for a, b in twins)
    center = Decoration(GRAY, REL_LE, -1)
    for v in range(n):
        for branches in ((0, 0, 0), (1, 0, 2), (2, 3, 1)):
            yield ("with_replaced_fringe", v, center, branches)


def _shuffled_layout(tree: DecoratedTree, rng) -> DecoratedTree:
    """The same tree with its siblings permuted and its vertices numbered in
    a random topological order (parents before children, rarely preorder)."""
    kids = _reference_children(tree.parents)
    for k in kids:
        rng.shuffle(k)
    order, frontier, above = [], [0], {0: -1}
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        order.append(v)
        for c in kids[v]:
            above[c] = v
        frontier.extend(kids[v])
    index = {v: i for i, v in enumerate(order)}
    parents = tuple(index[above[v]] if above[v] >= 0 else -1 for v in order)
    return DecoratedTree(parents, tuple(tree.decos[v] for v in order))


def _random_layout_trees(seed: int, count: int):
    """Random decorated trees in random layouts, some in breadth-first order
    and some read back through the JSON schema."""
    rng = random.Random(seed)
    for i in range(count):
        tree = _shuffled_layout(random_decorated_tree(rng, max_vertices=12, kmin=-12, kmax=12), rng)
        if i % 3 == 1:
            depths = [0] * len(tree)
            for v in range(1, len(tree)):
                depths[v] = depths[tree.parents[v]] + 1
            order = sorted(range(len(tree)), key=lambda v: depths[v])
            index = {v: j for j, v in enumerate(order)}
            tree = DecoratedTree(
                tuple(index[tree.parents[v]] if v else -1 for v in order),
                tuple(tree.decos[v] for v in order),
            )
        if i % 3 == 2:
            tree = parse_decorated(json.dumps(decorated_to_json(tree)))
        yield rng, tree


def test_canonical_key_matches_recursive_reference():
    trees = 0
    for rng, tree in _random_layout_trees(401, 400):
        key = canonical_key(tree)
        assert key == _reference_key(tree)
        for _ in range(3):
            other = _shuffled_layout(tree, rng)
            assert canonical_key(other) == key == _reference_key(other)
        trees += 1
    assert trees == 400


def test_structural_edits_match_node_rebuild_reference():
    calls = {name: 0 for name in EDITS}
    for _, tree in _random_layout_trees(402, 300):
        for name, *args in _edit_sites(tree):
            assert EDITS[name](tree, *args) == _ref_edit(name, tree, *args), (name, args, tree)
            calls[name] += 1
    assert min(calls.values()) > 100, calls


def test_oracle_reads_any_layout():
    """The DP oracle visits children before parents by reverse index, so every
    layout with parents before children gives the same series."""
    rng = random.Random(403)
    e8 = canonical_decorate(parse_plain("((()())(()())())"))
    expected = brute_force_decorated(e8, 8)
    relaid = canonical_decorate(PlainTree((-1, 0, 0, 2, 2, 0, 5, 5)))
    layouts = [relaid] + [_shuffled_layout(e8, rng) for _ in range(3)]
    assert len(set(layouts)) == 4
    for tree in layouts:
        assert brute_force_decorated(tree, 8) == expected, tree.parents


def test_drop_edits_reject_a_child_not_under_its_parent():
    tree = canonical_decorate(parse_plain("((()())(()())())"))  # leaves 2, 3, 5, 6, 7
    merged = Decoration(WHITE, REL_NONE, 1)
    with pytest.raises(ValueError):
        with_merged_twins(tree, 2, 5, merged)  # 5 is a cousin of 2
    with pytest.raises(ValueError):
        with_absorbed_leaf(tree, 1, 5)  # 5 hangs under 4
    with pytest.raises(ValueError, match="vertex 1 is not a leaf"):
        without_leaves(tree, (2, 1))
    assert without_leaves(tree, (2, 3, 7)) == canonical_decorate(parse_plain("(()(()()))"))


def test_deep_path_walks_need_no_recursion():
    """A 5,000-vertex path goes through every tree walk under the default
    recursion limit."""
    limit = sys.getrecursionlimit()
    assert limit < 5000
    n = 5000
    text = "(" * n + ")" * n
    plain = parse_plain(text)
    assert plain_to_text(plain) == text
    tree = canonical_decorate(plain)
    heads = b"".join(f"({d.color}{d.rel}{d.shift}".encode() for d in tree.decos)
    assert canonical_key(tree) == heads + b")" * n
    assert subtree_at(tree, 2500) == DecoratedTree(tuple(range(-1, 2499)), tree.decos[2500:])
    assert reroot(plain, n - 1) == PlainTree(tuple(range(-1, n - 1)))
    half, rest = "(" * 2500 + ")" * 2500, "(" * 2499 + ")" * 2499
    assert plain_to_text(centroid_rooted(plain)) == "(" + half + rest + ")"
    assert sys.getrecursionlimit() == limit
