"""Command-line front end.

Subcommands:

  sum <tree>                    closed form and exact value at 1/4
  series <tree> --order N      engine expansion, optionally checked against
                                the summation oracle
  verify <tree> --order N       exit 0 iff engine and oracle agree
  meander --upper .. --lower .. faces, face forest and exact shape probability
  star --s S [--partial N]      star values, recurrence residuals, partial sums
  table [--max-vertices 7]      recompute the golden table and diff it

<tree> is plain tree text such as "(()())" (optionally prefixed with
"halfedge:"), the path of a decorated-tree JSON file, or inline JSON.

Exit codes: 0 success, 1 verification/table mismatch or an exhausted oracle
or cycle budget, 2 parse errors.
`--json` switches every subcommand to machine-readable output.  The
environment variable CATSUM_ORACLE_BUDGET overrides the oracle work budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import _fraction_text
from .engine import DepthGuardExceeded, Engine
from .meanders import faces, forest, parse_meander, probability
from .series import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    brute_force_decorated,
    series_expand,
    series_json,
    series_text,
)
from .stars import star_3f2_partial, star_eval, star_recurrence_residual
from .table_data import TABLE, closed_form_element, evaluation_pipoly
from .trees import (
    DecoratedTree,
    canonical_decorate,
    parse_decorated,
    parse_plain,
    plain_to_text,
)

PARSE_ERROR, MISMATCH, OK = 2, 1, 0
# The errors `main` reports as `error: ...` (or {"error", "kind"} under
# --json): an exhausted budget exits MISMATCH, bad input PARSE_ERROR.  The
# parse errors of trees and meanders are all ValueErrors.
_INPUT_ERRORS = (OSError, ValueError)
_BUDGET_ERRORS = (BudgetExceededError, DepthGuardExceeded)


def _oracle_budget() -> int:
    raw = os.environ.get("CATSUM_ORACLE_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


def _load_tree(argument: str) -> tuple[DecoratedTree, str]:
    """A plain-tree string, a decorated JSON file path, or inline JSON."""
    stripped = argument.strip()
    if stripped.startswith("{"):
        return parse_decorated(stripped), "decorated"
    if stripped.endswith(".json") or os.path.exists(stripped):
        with open(stripped, "r", encoding="utf-8") as fh:
            return parse_decorated(fh.read()), "decorated"
    plain = parse_plain(stripped)
    return canonical_decorate(plain), plain_to_text(plain)


def _engine(args) -> Engine:
    trace = (lambda line: print(line, file=sys.stderr)) if args.trace else None
    return Engine(trace=trace)


def _emit(args, payload: dict, text_lines: list[str]):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_sum(args) -> int:
    tree, source = _load_tree(args.tree)
    value = _engine(args).reduce(tree)
    evaluation = value.eval_quarter()
    closed = value.substitute_sqrt_t().pretty() if args.sqrt_t else value.pretty()
    pretty, decimal = evaluation.pretty(), evaluation.to_decimal(12)
    payload = {
        "tree": source,
        "closed_form": closed,
        "closed_form_json": value.to_json(),
        "value_at_quarter": evaluation.to_json(),
        "value_pretty": pretty,
        "decimal": decimal,
    }
    lines = [f"closed form: {closed}", f"value at 1/4: {pretty} ~ {decimal}"]
    _emit(args, payload, lines)
    return OK


def _cmd_series(args) -> int:
    tree, source = _load_tree(args.tree)
    value = _engine(args).reduce(tree)
    engine_series = series_expand(value, args.order)
    payload = {"tree": source, "order": args.order, "series": series_json(engine_series, args.order)}
    lines = [f"series: {series_text(engine_series)}"]
    code = OK
    if args.oracle:
        oracle = brute_force_decorated(tree, args.order, budget=_oracle_budget())
        match = engine_series == oracle
        payload["oracle"] = series_json(oracle, args.order)
        payload["match"] = match
        lines.append(f"oracle: {'match' if match else 'MISMATCH: ' + series_text(oracle)}")
        if not match:
            code = MISMATCH
    _emit(args, payload, lines)
    return code


def _cmd_verify(args) -> int:
    tree, source = _load_tree(args.tree)
    value = _engine(args).reduce(tree)
    engine_series = series_expand(value, args.order)
    oracle = brute_force_decorated(tree, args.order, budget=_oracle_budget())
    match = engine_series == oracle
    payload = {
        "tree": source,
        "order": args.order,
        "engine": series_json(engine_series, args.order),
        "oracle": series_json(oracle, args.order),
        "match": match,
    }
    lines = [f"{'OK' if match else 'MISMATCH'}: engine vs oracle at order {args.order}"]
    if not match:
        lines += [f"engine: {series_text(engine_series)}", f"oracle: {series_text(oracle)}"]
    _emit(args, payload, lines)
    return OK if match else MISMATCH


def _cmd_meander(args) -> int:
    meander = parse_meander(f"upper: {args.upper}; lower: {args.lower}")
    face_list = faces(meander)
    trees = forest(meander)
    prob = probability(meander, _engine(args))
    forest_text = [plain_to_text(t) for t in trees]
    pretty, decimal = prob.pretty(), prob.to_decimal(12)
    payload = {
        "size": meander.size,
        "faces": [
            {
                "side": f.side,
                "arc": list(f.arc),
                "indices": list(f.indices),
                "interior": f.interior,
            }
            for f in face_list
        ],
        "forest": forest_text,
        "probability": prob.to_json(),
        "probability_pretty": pretty,
        "decimal": decimal,
    }
    lines = [f"size: {meander.size}", "faces:"]
    for f in face_list:
        kind = "interior" if f.interior else "exterior"
        lines.append(f"  {f.side} arc {f.arc[0]}-{f.arc[1]}: segments {list(f.indices)} ({kind})")
    lines.append("forest: " + "  ".join(forest_text))
    lines.append(f"probability: {pretty} ~ {decimal}")
    _emit(args, payload, lines)
    return OK


def _cmd_star(args) -> int:
    value = star_eval(args.s)
    pretty, decimal = value.pretty(), value.to_decimal(12)
    payload = {"s": args.s, "value": value.to_json(), "value_pretty": pretty, "decimal": decimal}
    lines = [f"A_{args.s} = {pretty} ~ {decimal}"]
    if args.s >= 1:
        hom, inhom = star_recurrence_residual(args.s)
        payload["residuals"] = {"homogeneous": hom.to_json(), "inhomogeneous": inhom.to_json()}
        lines.append(f"recurrence residuals at s={args.s}: {hom.pretty()}, {inhom.pretty()}")
    if args.partial is not None:
        partial = star_3f2_partial(args.s, args.partial)
        gap = abs(partial - value.to_fraction())
        if args.json:  # the exact decimal text is long, and text mode never prints it
            payload["partial_sum"] = _fraction_text(partial)
        payload["partial_gap"] = f"{float(gap):.3e}"
        lines.append(f"partial sum ({args.partial} terms): off by ~{float(gap):.3e}")
    _emit(args, payload, lines)
    return OK


def _cmd_table(args) -> int:
    engine = _engine(args)
    results = []
    failures = 0
    for entry in TABLE:
        plain = parse_plain(entry.tree_text)
        if len(plain) > args.max_vertices:
            continue
        tree = canonical_decorate(plain)
        value = engine.reduce(tree)
        ok_closed = value == closed_form_element(entry)
        ok_eval = value.eval_quarter() == evaluation_pipoly(entry)
        order = 2 * (len(entry.series) - 1)
        engine_series = series_expand(value, order)
        terms = engine_series.terms
        ok_series = [terms.get(n, 0) for n in range(0, order + 1, 2)] == list(entry.series)
        oracle = brute_force_decorated(tree, order, budget=_oracle_budget())
        ok_oracle = engine_series == oracle
        ok = ok_closed and ok_eval and ok_series and ok_oracle
        failures += not ok
        results.append(
            {
                "label": entry.label,
                "tree": entry.tree_text,
                "closed_form": ok_closed,
                "evaluation": ok_eval,
                "series": ok_series,
                "oracle": ok_oracle,
                "ok": ok,
            }
        )
    lines = [
        f"{r['label']:8s} {r['tree']:18s} "
        + ("OK" if r["ok"] else f"FAIL {r}")
        for r in results
    ]
    lines.append(f"{len(results) - failures}/{len(results)} entries match")
    _emit(args, {"entries": results, "failures": failures}, lines)
    return OK if failures == 0 else MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catsum",
        description="Exact Catalan tree sums, decorated trees, stars and meanders.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--trace", action="store_true", help="emit derivation trace to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sum", help="closed form and value at 1/4")
    p.add_argument("tree", help="plain tree text, decorated JSON file, or inline JSON")
    p.add_argument("--sqrt-t", action="store_true", help="render in the squared variable")
    p.set_defaults(func=_cmd_sum)

    p = sub.add_parser("series", help="series expansion")
    p.add_argument("tree")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--oracle", action="store_true", help="also run the brute-force oracle")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("verify", help="engine vs oracle equality")
    p.add_argument("tree")
    p.add_argument("--order", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("meander", help="faces, forest and exact shape probability")
    p.add_argument("--upper", required=True, help="e.g. '0-1, 2-3'")
    p.add_argument("--lower", required=True)
    p.set_defaults(func=_cmd_meander)

    p = sub.add_parser("star", help="star values and recurrence checks")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--partial", type=int, help="partial-sum term count, N >= 1")
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("table", help="recompute the golden table of small trees")
    p.add_argument("--max-vertices", type=int, default=7)
    p.set_defaults(func=_cmd_table)

    return parser


# Built once, at import.  parse_args only reads a parser: argparse writes
# what it parses into a new Namespace and keeps its working state in locals
# (ArgumentParser.parse_known_args and _SubParsersAction.__call__), so one
# parser serves every call of `main`, from any thread, without a lock.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS + _BUDGET_ERRORS as exc:
        if args.json:
            print(json.dumps({"error": str(exc), "kind": type(exc).__name__}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return MISMATCH if isinstance(exc, _BUDGET_ERRORS) else PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
