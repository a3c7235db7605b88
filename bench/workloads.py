"""The four catsum workloads: seeded inputs, one item at a time through a
public entry point, and output checks against independent references.

Inputs are drawn by stratified sampling: every seed gives the same multiset
of item sizes, and the seed only picks shapes, shifts and order.  Costly
and cheap items are spread evenly through a pass, so that a run which ends
inside a pass has measured the same mix on every seed.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

# Bounds on pi, independent of the 100-digit constant inside catsum.
PI_LOW = Fraction("3.1415926535897932384626433832795028841")
PI_HIGH = Fraction("3.1415926535897932384626433832795028842")


def run_cli(cs, argv: list[str]) -> tuple[int, str]:
    """`catsum.cli.main(argv)` in-process, with stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cs.cli.main(argv)
    return code, out.getvalue()


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` integers from lo..hi, one drawn from each of `count` equal strata."""
    width = hi - lo + 1
    out = []
    for i in range(count):
        a = lo + i * width // count
        b = lo + (i + 1) * width // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


# -- plain trees as nested parentheses ---------------------------------------


def _encode(adj: list[list[int]], root: int) -> str:
    def enc(v: int, parent: int) -> str:
        return "(" + "".join(sorted(enc(u, v) for u in adj[v] if u != parent)) + ")"

    return enc(root, -1)


def _centroid(adj: list[list[int]]) -> int:
    n = len(adj)
    order, parent = [0], [-1] * n
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    best = min(
        range(n),
        key=lambda v: (max([n - size[v]] + [size[u] for u in adj[v] if u != parent[v]]), v),
    )
    return best


def _adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def path_text(n: int) -> str:
    adj = _adjacency(n, ((v, v + 1) for v in range(n - 1)))
    return _encode(adj, _centroid(adj))


def star_text(s: int) -> str:
    return "(" + "()" * s + ")"


def free_tree_text(rng: random.Random, n: int) -> str:
    """A uniformly random free tree on n vertices (a random Pruefer
    sequence), rooted at its centroid."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    adj = _adjacency(n, edges)
    return _encode(adj, _centroid(adj))


FREE_TREE_CANDIDATES = 4


def free_trees(rng: random.Random, sizes: list[int]) -> list[str]:
    """A random free tree for each entry of `sizes`.  The trees of one size
    are stratified by their number of leaves, which tracks their cost (few
    leaves, long chains, many reduction cycles): FREE_TREE_CANDIDATES
    uniform draws per tree are sorted by leaves and one is taken from each
    block, so every seed gets nearly the same spread of shapes.  Each pick
    is still a uniformly random tree."""
    pools = {}
    for n in sorted(set(sizes)):
        count, m = sizes.count(n), FREE_TREE_CANDIDATES
        drawn = sorted((free_tree_text(rng, n) for _ in range(count * m)), key=lambda t: t.count("()"))
        picks = [rng.choice(drawn[i * m : (i + 1) * m]) for i in range(count)]
        rng.shuffle(picks)
        pools[n] = picks
    return [pools[n].pop() for n in sizes]


# -- references ----------------------------------------------------------------


def reference_star(cs, s: int):
    """A_s from the O(s) closed form of `catsum.stars`, not from the engine."""
    return cs.stars.star_eval(s)


def reference_direct_partial(cs, s: int, terms: int) -> Fraction:
    return sum((cs.stars.star_term(s, n) for n in range(terms)), Fraction(0))


def _json_form(value):
    return json.loads(json.dumps(value))


def _pipoly_bounds(coeffs: list) -> tuple[Fraction, Fraction]:
    """Exact lower and upper bounds of sum_d c_d / pi^d from the pi bounds."""
    low = high = Fraction(0)
    for d, c in coeffs:
        c = Fraction(c)
        a, b = c / PI_HIGH**d, c / PI_LOW**d
        low += min(a, b)
        high += max(a, b)
    return low, high


def _passes(check, *args) -> bool:
    """`check(*args)`, with an exception (malformed output, a missing key)
    counted as a failed check instead of ending the run."""
    try:
        return bool(check(*args))
    except Exception:
        return False


def _verified(records, verdicts: dict, check_one) -> list[bool]:
    """Check each distinct item once; a repeated item must print the same output."""
    ok = []
    for r in records:
        if r.code != 0:
            ok.append(False)
            continue
        if r.item not in verdicts:
            verdicts[r.item] = r.output if _passes(check_one, r) else None
        ok.append(verdicts[r.item] == r.output)
    return ok


@dataclass(frozen=True)
class Record:
    """One completed item: its input, output and latency."""

    item: object
    code: int
    output: object
    seconds: float


# -- workloads -------------------------------------------------------------------


@dataclass(frozen=True)
class SumItem:
    family: str
    size: int
    halfedge: bool
    text: str

    def argv(self) -> list[str]:
        return ["--json", "sum", ("halfedge:" if self.halfedge else "") + self.text]


@dataclass
class SumCold:
    """`catsum sum` on plain trees, a fresh Engine per item (the CLI makes one)."""

    name: ClassVar[str] = "sum-cold"
    rounds: int = 8
    per_round: int = 5
    paths: tuple[int, int] = (6, 10)
    stars: tuple[int, int] = (6, 24)
    free: tuple[int, int] = (7, 11)
    oracle_order: int = 6

    @property
    def round_size(self) -> int:
        return 3 * self.per_round

    def inputs(self, cs, rng: random.Random) -> list[SumItem]:
        """Rounds of equal size make-up: per family, one item from each of
        `per_round` strata of its size range, in seeded order.  A quarter of
        the paths and free trees carry the half-edge."""
        k = self.per_round
        star_sizes = sorted(stratified(rng, *self.stars, k * self.rounds))
        free_sizes = [n for _ in range(self.rounds) for n in stratified(rng, *self.free, k)]
        free = free_trees(rng, free_sizes)
        out = []
        for r in range(self.rounds):
            items = [SumItem("path", n, (r + j) % 4 == 0, path_text(n)) for j, n in enumerate(stratified(rng, *self.paths, k))]
            items += [SumItem("star", s, False, star_text(s)) for s in star_sizes[r :: self.rounds]]
            items += [
                SumItem("free", free_sizes[i], (r + j) % 4 == 2, free[i])
                for j, i in enumerate(range(r * k, (r + 1) * k))
            ]
            rng.shuffle(items)
            out.extend(items)
        # check state for this run: verdicts per item, one shared library Engine
        self._verdicts, self._golden, self._engine = {}, None, cs.engine.Engine()
        return out

    def warmup(self, cs):
        for argv in (["--json", "sum", "(()())"], ["--json", "sum", "halfedge:((())())"]):
            run_cli(cs, argv)

    def begin_pass(self, cs, inputs):
        return inputs

    def call(self, cs, item: SumItem):
        return run_cli(cs, item.argv())

    def check(self, cs, records: list[Record]) -> list[bool]:
        if self._golden is None:
            self._golden = {}
            for entry in cs.table_data.TABLE:
                tree = cs.trees.canonical_decorate(cs.trees.parse_plain(entry.tree_text))
                self._golden[cs.trees.canonical_key(tree)] = entry
        return _verified(records, self._verdicts, lambda r: self._check_one(cs, r))

    def _check_one(self, cs, r: Record) -> bool:
        payload = json.loads(r.output)
        item = r.item
        plain = cs.trees.parse_plain(("halfedge:" if item.halfedge else "") + item.text)
        tree = cs.trees.canonical_decorate(plain)
        if item.family == "star" and item.size >= 3:
            return payload["value_at_quarter"] == _json_form(reference_star(cs, item.size).to_json())
        entry = None if item.halfedge else self._golden.get(cs.trees.canonical_key(tree))
        if entry is not None:
            expected = cs.table_data.closed_form_element(entry).to_json()
            return payload["closed_form_json"] == _json_form(expected)
        value = self._engine.reduce(tree)
        order = self.oracle_order
        return cs.series.series_expand(value, order) == cs.series.brute_force_decorated(
            tree, order
        ) and payload["closed_form_json"] == _json_form(value.to_json())


def random_decorated(rng: random.Random, n: int, max_nongray=6, kmin=-2, kmax=2) -> dict:
    """A decorated tree on n vertices in the CLI's JSON schema, drawn like
    the test-suite generator: at most 6 non-gray vertices, shifts in -2..2."""
    vertices = []
    nongray = 0
    for v in range(n):
        if nongray < max_nongray and rng.random() < 0.8:
            color = rng.choice(("white", "black"))
            nongray += 1
        else:
            color = "gray"
        vertices.append(
            {
                "parent": -1 if v == 0 else rng.randrange(v),
                "color": color,
                "rel": rng.choice(("eq", "le", "ge", "none")),
                "k": rng.randint(kmin, kmax),
            }
        )
    return {"vertices": vertices}


@dataclass
class Verify:
    """`catsum verify` at order 16: engine against the brute-force oracle."""

    name: ClassVar[str] = "verify"
    MAX_VERTICES: ClassVar[int] = 7
    rounds: int = 4
    random_per_round: int = 4
    order: int = 16
    golden_limit: int | None = None

    @property
    def round_size(self) -> int:
        return self.random_per_round + len(self._golden)

    def inputs(self, cs, rng: random.Random) -> list[str]:
        """Rounds of every golden tree plus random decorated trees with
        stratified vertex counts, in seeded order."""
        entries = list(cs.table_data.TABLE) + [cs.table_data.LINE_EXAMPLE_8]
        self._golden = [e.tree_text for e in entries[: self.golden_limit]]
        sizes = stratified(rng, 1, self.MAX_VERTICES, self.random_per_round * self.rounds)
        rng.shuffle(sizes)
        out = []
        for r in range(self.rounds):
            items = list(self._golden)
            items += [
                json.dumps(random_decorated(rng, n), separators=(",", ":"))
                for n in sizes[r * self.random_per_round : (r + 1) * self.random_per_round]
            ]
            rng.shuffle(items)
            out.extend(items)
        return out

    def warmup(self, cs):
        run_cli(cs, ["--json", "verify", "(())", "--order", str(self.order)])

    def begin_pass(self, cs, inputs):
        return inputs

    def call(self, cs, tree: str):
        return run_cli(cs, ["--json", "verify", tree, "--order", str(self.order)])

    def check(self, cs, records: list[Record]) -> list[bool]:
        return [r.code == 0 and _passes(self._check_one, r) for r in records]

    def _check_one(self, r: Record) -> bool:
        payload = json.loads(r.output)
        return payload["match"] is True and payload["order"] == self.order and payload["engine"] == payload["oracle"]


@dataclass
class MeanderSweep:
    """`probability` of every meander of one size through one shared Engine;
    the enumeration is part of every pass."""

    name: ClassVar[str] = "meander-sweep"
    round_size: ClassVar[int] = 0  # measured in whole passes
    size: int = 6
    fresh_sample: int = 16

    def inputs(self, cs, rng: random.Random) -> list[int]:
        # the sweep order and the fresh-engine sample come from the seed
        self._sample_seed = rng.randrange(2**31)
        # check state for this run: first value per meander, sweep-level verdict
        self._first, self._sweep_ok, self._engine = {}, None, cs.engine.Engine()
        return [rng.randrange(2**31)]

    def warmup(self, cs):
        engine = cs.engine.Engine()
        for meander in cs.meanders.enumerate_meanders(3):
            cs.meanders.probability(meander, engine)

    def begin_pass(self, cs, inputs):
        meanders = cs.meanders.enumerate_meanders(self.size)
        random.Random(inputs[0]).shuffle(meanders)
        engine = cs.engine.Engine()
        return [(m, engine) for m in meanders]

    def call(self, cs, item):
        meander, engine = item
        return 0, cs.meanders.probability(meander, engine)

    def check(self, cs, records: list[Record]) -> list[bool]:
        """`records` is one whole pass.  The first pass is checked against
        reflections and a fresh-engine sample; later passes must equal it.
        A pass with a failed item fails as a whole, since its sum is unknown."""
        ok = []
        for r in records:
            meander = r.item[0]
            if meander in self._first:
                ok.append(self._first[meander] == r.output)
            elif r.code == 0:
                self._first[meander] = r.output
                ok.append(_passes(self._reflection_ok, cs, r))
            else:
                ok.append(False)
        if self._sweep_ok is None:
            self._sweep_ok = all(ok) and _passes(self._check_sweep, cs)
        return ok if self._sweep_ok else [False] * len(records)

    def _reflection_ok(self, cs, r: Record) -> bool:
        return cs.meanders.probability(r.item[0].reflected(), self._engine) == r.output

    def _check_sweep(self, cs) -> bool:
        total = cs.algebra.PiPoly()
        for value in self._first.values():
            total = total + value
        low, high = _pipoly_bounds(total.to_json())
        meanders = sorted(self._first, key=repr)
        sample = random.Random(self._sample_seed).sample(meanders, min(self.fresh_sample, len(meanders)))
        fresh_ok = all(cs.meanders.probability(m, cs.engine.Engine()) == self._first[m] for m in sample)
        return 0 < low and high < 1 and fresh_ok


@dataclass(frozen=True)
class StarItem:
    s: int
    terms: int

    def argv(self) -> list[str]:
        return ["--json", "star", "--s", str(self.s), "--partial", str(self.terms)]


@dataclass
class StarPartial:
    """`catsum star --s S --partial N`: closed form, recurrences, partial sum."""

    name: ClassVar[str] = "star-partial"
    S_RANGE: ClassVar[tuple[int, int]] = (3, 64)
    rounds: int = 10
    per_round: int = 12
    terms: tuple[int, int] = (1000, 3000)
    small_sample: int = 8
    small_terms: tuple[int, int] = (20, 300)
    direct_sample: int = 4

    @property
    def round_size(self) -> int:
        return self.per_round

    def inputs(self, cs, rng: random.Random) -> list[StarItem]:
        """Rounds of equal make-up: one term count from each of `per_round`
        strata of the range, paired with stratified s in seeded order."""
        k = self.per_round
        s_values = stratified(rng, *self.S_RANGE, k * self.rounds)
        rng.shuffle(s_values)
        items = []
        for r in range(self.rounds):
            round_items = [StarItem(s, n) for s, n in zip(s_values[r * k : (r + 1) * k], stratified(rng, *self.terms, k))]
            rng.shuffle(round_items)
            items += round_items
        self._small = [
            StarItem(rng.randint(*self.S_RANGE), rng.randint(*self.small_terms))
            for _ in range(self.small_sample)
        ]
        # timed items whose partial sum is also checked term by term; a direct
        # sum takes up to 3 s at N = 3,000, too long for every item
        self._direct = set(rng.sample(items[:k], self.direct_sample))
        # check state for this run
        self._verdicts, self._small_ok = {}, None
        return items

    def warmup(self, cs):
        run_cli(cs, StarItem(3, 10).argv())

    def begin_pass(self, cs, inputs):
        return inputs

    def call(self, cs, item: StarItem):
        return run_cli(cs, item.argv())

    def check(self, cs, records: list[Record]) -> list[bool]:
        if self._small_ok is None:
            self._small_ok = all(self._check_small(cs, item) for item in self._small)
        ok = _verified(records, self._verdicts, lambda r: self._check_one(cs, r))
        return ok if self._small_ok else [False] * len(records)

    def _check_small(self, cs, item: StarItem) -> bool:
        code, out = run_cli(cs, item.argv())
        return code == 0 and _passes(self._direct_ok, cs, Record(item, code, out, 0.0))

    @staticmethod
    def _direct_ok(cs, r: Record) -> bool:
        expected = reference_direct_partial(cs, r.item.s, r.item.terms)
        return Fraction(json.loads(r.output)["partial_sum"]) == expected

    def _check_one(self, cs, r: Record) -> bool:
        payload = json.loads(r.output)
        residuals = payload["residuals"]
        low, _ = _pipoly_bounds(payload["value"])
        return (
            residuals["homogeneous"] == []
            and residuals["inhomogeneous"] == []
            and low - Fraction(payload["partial_sum"]) > 0
            and (r.item not in self._direct or self._direct_ok(cs, r))
        )


WORKLOADS = {w.name: w for w in (SumCold, Verify, MeanderSweep, StarPartial)}
