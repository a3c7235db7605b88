"""catsum benchmark: one workload in one process, one item at a time (a
closed loop with one client), every output checked after the clock stops.

    python3 bench/run.py --workload sum-cold --seed 1 --seconds 15 --trace 0

--trace 0 times items for --seconds and prints the end-to-end metrics.
--trace 1 runs one fixed pass of the workload, each round first untraced
and then with spans around every layer's public functions, and prints
per-layer counts and self times; the pass is the same for a given seed, so
its counts repeat exactly.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import TopLevel, Tracer
from workloads import WORKLOADS, Record

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MODULES = ("algebra", "series", "trees", "engine", "meanders", "stars", "table_data", "cli")
SETUP_REPEATS = 30

TREE_EDITS = (
    "subtree_at",
    "swap_colors",
    "classify_fringe",
    "with_absorbed_leaf",
    "with_branch_colors_swapped",
    "with_children_reattached",
    "with_decoration",
    "with_merged_twins",
    "with_pulled_down_variable",
    "with_relation",
    "with_replaced_fringe",
    "with_shift",
    "with_shift_added",
    "without_leaves",
    "without_subtree",
)


def load_catsum() -> SimpleNamespace:
    """A fresh import of catsum from this checkout: module code and module
    caches start from scratch, so set-up time includes them."""
    for name in [m for m in sys.modules if m == "catsum" or m.startswith("catsum.")]:
        del sys.modules[name]
    package = importlib.import_module("catsum")
    if Path(package.__file__).resolve().parent != SRC / "catsum":
        raise ImportError(f"catsum was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"catsum.{m}") for m in MODULES})


def setup(workload, seed: int):
    """Import, input generation and warm-up, repeated; the last one is kept.
    Garbage from the previous repetition is collected before the clock starts."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = perf_counter()
        cs = load_catsum()
        inputs = workload.inputs(cs, random.Random(seed))
        workload.warmup(cs)
        times.append(perf_counter() - t0)
    return cs, inputs, statistics.median(times)


def _run_item(workload, cs, item) -> Record:
    t0 = perf_counter()
    try:
        code, output = workload.call(cs, item)
    except Exception:
        traceback.print_exc()
        code, output = -1, None
    return Record(item, code, output, perf_counter() - t0)


def timed(workload, cs, inputs, seconds: float):
    """Items in pass order, repeating the pass, until `seconds` of timed wall
    time have passed and a round has ended.  Rounds have the same make-up on
    every seed, so the measured mix does not depend on where the clock ran
    out; a round size of 0 means the whole pass.  The clock stops while each
    pass is checked, and outputs are dropped once checked, so memory does
    not grow with the number of passes.  Peak memory is read before the
    first check: every pass runs the same items, so the first one reaches
    the program's peak."""
    latencies: list[float] = []
    failed = 0
    wall = 0.0
    peak_rss_mb = None
    while True:
        records: list[Record] = []
        start = perf_counter()
        for item in workload.begin_pass(cs, inputs):
            records.append(_run_item(workload, cs, item))
            if workload.round_size and len(records) % workload.round_size == 0:
                if wall + perf_counter() - start >= seconds:
                    break
        wall += perf_counter() - start
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        latencies += [r.seconds for r in records]
        failed += count_failed(workload, cs, records)
        if wall >= seconds:
            return latencies, failed, wall, peak_rss_mb


def run_unit(workload, cs, inputs, unit: int, tracer: Tracer | None = None) -> tuple[list[Record], float]:
    """One round of the pass, or the whole pass when the round size is 0."""
    records: list[Record] = []
    start = perf_counter()
    items = workload.begin_pass(cs, inputs)
    size = workload.round_size or len(items)
    for i in range(unit * size, (unit + 1) * size):
        if tracer is not None:
            tracer.set_item(i)
        records.append(_run_item(workload, cs, items[i]))
        if tracer is not None:
            tracer.set_item(-1)
    return records, perf_counter() - start


def install_spans(tracer: Tracer, cs, top: TopLevel):
    """Wrap each layer's public names where their callers look them up:
    `from .trees import canonical_key` binds the name in catsum.engine, so
    that binding is the one replaced."""
    a, p = cs.algebra.AlgebraElement, cs.algebra.PiPoly
    tracer.wrap(cs.cli, ["main"], "cli.main")
    tracer.wrap_reduce(cs.engine.Engine, top)
    tracer.wrap(a, ["__mul__", "__rmul__"], "algebra.mul")
    tracer.wrap(a, ["__add__", "__radd__"], "algebra.add")
    tracer.wrap(a, ["eval_quarter"], "algebra.eval_quarter")
    tracer.wrap(p, ["__mul__"], "algebra.pipoly_mul")
    tracer.wrap(a, ["pretty", "to_json", "substitute_sqrt_t"], "algebra.render")
    tracer.wrap(p, ["pretty", "to_json", "to_decimal"], "algebra.render")
    tracer.wrap(a, ["scale", "shift_t", "mul_laurent", "__neg__", "__sub__", "__rsub__", "__pow__"], "algebra.other")
    tracer.wrap(p, ["__add__", "__sub__", "scale"], "algebra.other")
    tracer.wrap(cs.engine, ["catalan_gf", "hypergeom_hk"], "algebra.other")
    tracer.wrap(cs.engine, ["canonical_key"], "trees.canonical_key")
    tracer.wrap(cs.engine, TREE_EDITS, "trees.edit")
    for module in (cs.cli, cs.meanders, cs.stars):
        tracer.wrap(module, ["canonical_decorate"], "trees.decorate")
    tracer.wrap(cs.cli, ["parse_plain", "parse_decorated", "plain_to_text"], "trees.parse")
    tracer.wrap(cs.cli, ["series_expand"], "series.expand")
    tracer.wrap(cs.cli, ["brute_force_decorated"], "series.oracle")
    tracer.wrap(cs.meanders, ["enumerate_meanders"], "meanders.enumerate")
    tracer.wrap_forest(cs.meanders)
    tracer.wrap(cs.meanders, ["probability"], "meanders.probability")
    tracer.wrap(cs.cli, ["star_eval"], "stars.eval")
    tracer.wrap(cs.cli, ["star_recurrence_residual"], "stars.residual")
    tracer.wrap(cs.cli, ["star_3f2_partial"], "stars.partial")


def max_coeff_bits(values) -> int:
    """Largest numerator or denominator bit length among the coefficients."""
    bits = 0
    for value in {id(v): v for v in values}.values():
        for laurent in value.terms.values():
            for c in laurent.terms.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def count_failed(workload, cs, records: list[Record]) -> int:
    return sum(not ok for ok in workload.check(cs, records))


def end_to_end(workload, cs, inputs, seconds: float, setup_s: float):
    latencies, failed, wall, peak_rss_mb = timed(workload, cs, inputs, seconds)
    ms = [x * 1e3 for x in latencies]
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(ms) / wall, "1/s"),
        "item_ms_p50": (statistics.median(ms), "ms"),
        "item_ms_p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return len(ms), failed, metrics


def per_layer(workload, cs, inputs, seed: int):
    """One pass, every round run both untraced and traced, back to back, so
    that both see the same machine state.  The order alternates between
    rounds, because a second run of the same items is faster; a workload
    measured in whole passes first runs one discarded untraced pass.  The
    untraced runs still carry the top-level `Engine.reduce` wrapper, which
    times reductions for `engine.us_per_cycle`."""
    tracer, top, untraced_top = Tracer(), TopLevel(), TopLevel()
    units = len(inputs) // workload.round_size if workload.round_size else 1
    base_wall = wall = 0.0
    attempted = failed = 0

    def untraced(unit):
        try:
            tracer.wrap_reduce(cs.engine.Engine, untraced_top, span=False)
            return run_unit(workload, cs, inputs, unit)
        finally:
            tracer.restore()

    def traced(unit):
        try:
            install_spans(tracer, cs, top)
            return run_unit(workload, cs, inputs, unit, tracer)
        finally:
            tracer.restore()

    if units == 1:
        records, _ = run_unit(workload, cs, inputs, 0)
        attempted, failed = len(records), count_failed(workload, cs, records)
    for unit in range(units):
        for traced_run in (False, True) if unit % 2 == 0 else (True, False):
            records, seconds = traced(unit) if traced_run else untraced(unit)
            if traced_run:
                wall += seconds
            else:
                base_wall += seconds
            attempted += len(records)
            failed += count_failed(workload, cs, records)
    calls, self_s = tracer.totals()

    def total(name):
        return self_s.get(name, 0.0)

    def layer(prefix):
        return sum((v for k, v in self_s.items() if k.startswith(prefix + ".")), 0.0)

    reduce_calls = calls.get("engine.reduce", 0)
    metrics = {
        "failed_ratio": (failed / attempted, "ratio"),
        "engine.cycles": (top.cycles, "count"),
        "engine.reduce_calls": (reduce_calls, "count"),
        "engine.memo_hit_ratio": ((reduce_calls - top.cycles) / reduce_calls if reduce_calls else 0.0, "ratio"),
        "engine.top_hit_ratio": (top.hits / top.calls if top.calls else 0.0, "ratio"),
        "engine.self_s": (layer("engine"), "s"),
        "engine.us_per_cycle": (untraced_top.seconds * 1e6 / untraced_top.cycles if untraced_top.cycles else 0.0, "us"),
        "algebra.mul_calls": (calls.get("algebra.mul", 0), "count"),
        "algebra.mul_s": (total("algebra.mul"), "s"),
        "algebra.add_calls": (calls.get("algebra.add", 0), "count"),
        "algebra.add_s": (total("algebra.add"), "s"),
        "algebra.eval_quarter_calls": (calls.get("algebra.eval_quarter", 0), "count"),
        "algebra.eval_quarter_s": (total("algebra.eval_quarter"), "s"),
        "algebra.pipoly_mul_s": (total("algebra.pipoly_mul"), "s"),
        "algebra.render_s": (total("algebra.render"), "s"),
        "algebra.other_s": (total("algebra.other"), "s"),
        "algebra.max_coeff_bits": (max_coeff_bits(top.results), "bits"),
        "algebra.self_s": (layer("algebra"), "s"),
        "trees.canonical_key_calls": (calls.get("trees.canonical_key", 0), "count"),
        "trees.canonical_key_s": (total("trees.canonical_key"), "s"),
        "trees.edit_s": (total("trees.edit"), "s"),
        "trees.decorate_s": (total("trees.decorate"), "s"),
        "trees.parse_s": (total("trees.parse"), "s"),
        "trees.self_s": (layer("trees"), "s"),
        "series.expand_s": (total("series.expand"), "s"),
        "series.oracle_s": (total("series.oracle"), "s"),
        "series.self_s": (layer("series"), "s"),
        "meanders.enumerate_s": (total("meanders.enumerate"), "s"),
        "meanders.forest_s": (total("meanders.forest"), "s"),
        "meanders.forest_trees": (tracer.forest_trees, "count"),
        "meanders.probability_s": (total("meanders.probability"), "s"),
        "meanders.self_s": (layer("meanders"), "s"),
        "stars.partial_s": (total("stars.partial"), "s"),
        "stars.eval_s": (total("stars.eval"), "s"),
        "stars.residual_s": (total("stars.residual"), "s"),
        "stars.self_s": (layer("stars"), "s"),
        "cli.self_s": (layer("cli"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (base_wall, "s"),
        "trace.overhead_s": (wall - base_wall, "s"),
        "trace.accounted_ratio": (sum(self_s.values()) / wall, "ratio"),
    }
    tracer.write(HERE / "out" / f"spans-{workload.name}-seed{seed}.tsv.gz")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "catsum" / "__init__.py").is_file():
        print(f"error: no catsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:28s} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run(workload, seed: int, seconds: float, trace: int) -> dict:
    cs, inputs, setup_s = setup(workload, seed)
    if trace:
        attempted, failed, metrics = per_layer(workload, cs, inputs, seed)
    else:
        attempted, failed, metrics = end_to_end(workload, cs, inputs, seconds, setup_s)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
