"""Command-line interface: outputs, exit codes, JSON mode."""

import json
from decimal import Decimal
from fractions import Fraction

from catsum.cli import main
from catsum.algebra import Laurent
from catsum.series import catalan
from catsum.stars import star_3f2_partial
from catsum.trees import canonical_decorate, canonical_key, parse_plain
from catsum.table_data import TABLE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sum_plain(capsys):
    code, out, _ = run(capsys, "sum", "(())")
    assert code == 0
    assert "(H1 - 1)/(4*t^2)" in out
    assert "16/pi - 4" in out
    assert "1.092958" in out


def test_sum_sqrt_t(capsys):
    code, out, _ = run(capsys, "sum", "(())", "--sqrt-t")
    assert code == 0 and "(H1 - 1)/(4*t)" in out


def test_sum_json(capsys):
    code, out, _ = run(capsys, "--json", "sum", "(())")
    blob = json.loads(out)
    assert code == 0
    assert blob["value_at_quarter"] == [[1, "16"], [0, "-4"]]
    assert blob["decimal"].startswith("1.092958")


def test_series_with_oracle(capsys):
    code, out, _ = run(capsys, "series", "(()())", "--order", "6", "--oracle")
    assert code == 0
    assert "1 + 2*t^2 + 10*t^4 + 70*t^6" in out
    assert "oracle: match" in out


def test_verify_ok_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "((())())", "--order", "8")
    assert code == 0 and out.startswith("OK")


def test_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "sum", "(()(")
    assert code == 2 and "error" in err
    code, out, _ = run(capsys, "--json", "sum", "(()(")
    assert code == 2
    assert json.loads(out)["kind"] == "TreeSyntaxError"


def test_unreadable_tree_path_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "sum", str(tmp_path))
    assert code == 2 and not out and err.startswith("error: ")
    code, out, _ = run(capsys, "--json", "sum", str(tmp_path))
    assert code == 2
    assert json.loads(out)["kind"] == "IsADirectoryError"


def test_star_partial_below_one_exit_2(capsys):
    """--partial 0 is an error like every N below 1, not an omitted option."""
    for n in ("0", "-5"):
        code, out, err = run(capsys, "star", "--s", "3", "--partial", n)
        assert code == 2 and not out and err.startswith("error: "), n
        code, out, _ = run(capsys, "--json", "star", "--s", "3", "--partial", n)
        assert code == 2 and json.loads(out)["kind"] == "ValueError", n
    code, out, _ = run(capsys, "star", "--s", "3")
    assert code == 0 and "partial sum" not in out


def test_negative_order_exit_2(capsys):
    for verb in ("verify", "series"):
        code, out, err = run(capsys, verb, "(())", "--order", "-3")
        assert code == 2 and not out
        assert err == "error: order must be nonnegative\n"


def test_decorated_file_verbs(tmp_path, capsys):
    blob = {
        "vertices": [
            {"parent": -1, "color": "white", "rel": "eq", "k": 0},
            {"parent": 0, "color": "black", "rel": "none", "k": 0},
        ]
    }
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "sum", str(path))
    assert code == 0 and "(H1 - 1)/(4*t^2)" in out
    code, out, _ = run(capsys, "verify", str(path), "--order", "6")
    assert code == 0
    code, out, _ = run(capsys, "series", str(path), "--order", "4", "--oracle")
    assert code == 0 and "oracle: match" in out
    path.write_text('{"vertices": [{"parent": -1, "color": "blue", "rel": "eq", "k": 0}]}')
    code, _, err = run(capsys, "sum", str(path))
    assert code == 2


def test_verify_accepts_inline_decorated_json(capsys):
    blob = json.dumps(
        {
            "vertices": [
                {"parent": -1, "color": "white", "rel": "ge", "k": 0},
                {"parent": 0, "color": "black", "rel": "none", "k": 0},
            ]
        }
    )
    code, out, _ = run(capsys, "verify", blob, "--order", "6")
    assert code == 0


def test_meander_command(capsys):
    code, out, _ = run(capsys, "meander", "--upper", "0-1", "--lower", "0-1")
    assert code == 0
    assert "probability: 2/pi - 1/2" in out
    assert "0.136619772367" in out
    code, out, _ = run(
        capsys, "--json", "meander", "--upper", "0-1, 2-3", "--lower", "1-2, 0-3"
    )
    blob = json.loads(out)
    assert code == 0
    assert sorted(blob["forest"]) == ["(()())", "halfedge:()"]
    assert blob["probability"] == [[1, "-2/3"], [0, "1/4"]]
    code, _, err = run(capsys, "meander", "--upper", "0-1, 2-3", "--lower", "0-1, 2-3")
    assert code == 2


def test_star_command(capsys):
    code, out, _ = run(capsys, "star", "--s", "3", "--partial", "50")
    assert code == 0
    assert "64/(15*pi)" in out
    assert "residuals at s=3: 0, 0" in out
    assert "partial sum (50 terms)" in out


def test_star_partial_beyond_int_digit_limit(capsys):
    """At N = 4000 the denominator 16^3999 has more digits than CPython
    converts between int and str by default; the JSON stays exact."""
    code, out, _ = run(capsys, "--json", "star", "--s", "3", "--partial", "4000")
    assert code == 0
    num, _, den = json.loads(out)["partial_sum"].partition("/")
    assert len(den) > 4300
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == star_3f2_partial(3, 4000)


def test_star_text_mode_builds_no_exact_partial_sum(monkeypatch, capsys):
    import catsum.cli

    monkeypatch.setattr(catsum.cli, "_fraction_text", None)  # a call would raise
    code, out, _ = run(capsys, "star", "--s", "3", "--partial", "50")
    assert code == 0 and "partial sum (50 terms)" in out


def test_coefficients_beyond_int_digit_limit(capsys):
    """Cat_7200 has more digits than CPython converts between int and str
    by default; a tree whose sum is Cat_7200 t^7200 still prints exactly."""
    tree = '{"vertices":[{"parent":-1,"color":"white","rel":"eq","k":7200}]}'
    expected = str(Decimal(catalan(7200)))
    code, out, _ = run(capsys, "--json", "sum", tree)
    assert code == 0
    [term] = json.loads(out)["closed_form_json"]["terms"]
    assert term["coeff"] == {"7200": expected}
    code, out, _ = run(capsys, "--json", "series", tree, "--order", "7200")
    assert code == 0
    assert json.loads(out)["series"][7200] == expected
    code, out, _ = run(capsys, "series", tree, "--order", "7200")
    assert code == 0 and out == f"series: {expected}*t^7200\n"


def test_star_needs_pi_beyond_100_places(capsys):
    """A_400 exceeds 10^100, so its 12 printed decimals need pi to more
    than 100 places."""
    code, out, _ = run(capsys, "star", "--s", "400")
    assert code == 0
    assert out.startswith("A_400 = ") and out.splitlines()[0].rpartition(".")[2].isdigit()


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--max-vertices", "5")
    assert code == 0
    assert "7/7 entries match" in out


def test_table_json(capsys):
    code, out, _ = run(capsys, "--json", "table", "--max-vertices", "4")
    blob = json.loads(out)
    assert code == 0 and blob["failures"] == 0
    assert all(entry["ok"] for entry in blob["entries"])


def test_table_trees_reparse_to_same_tree():
    for entry in TABLE:
        tree = parse_plain(entry.tree_text)
        again = parse_plain(entry.tree_text)
        assert canonical_key(canonical_decorate(tree)) == canonical_key(
            canonical_decorate(again)
        )


def test_oracle_budget_env(monkeypatch, capsys):
    monkeypatch.setenv("CATSUM_ORACLE_BUDGET", "10")
    code, out, err = run(capsys, "verify", "((())())", "--order", "8")
    assert code == 1
    monkeypatch.delenv("CATSUM_ORACLE_BUDGET")
    code, _, _ = run(capsys, "verify", "((())())", "--order", "8")
    assert code == 0


def test_oracle_mismatch_exits_1(monkeypatch, capsys):
    import catsum.cli

    wrong = Laurent({0: 1, 2: 3})
    monkeypatch.setattr(catsum.cli, "brute_force_decorated", lambda *args, **kwargs: wrong)
    code, out, _ = run(capsys, "verify", "(())", "--order", "2")
    assert code == 1
    assert out == "MISMATCH: engine vs oracle at order 2\nengine: 1 + t^2\noracle: 1 + 3*t^2\n"
    code, out, _ = run(capsys, "series", "(())", "--order", "2", "--oracle")
    assert code == 1
    assert out == "series: 1 + t^2\noracle: MISMATCH: 1 + 3*t^2\n"
    for verb in ("verify", "series --oracle"):
        code, out, _ = run(capsys, "--json", *verb.split(), "(())", "--order", "2")
        assert code == 1
        blob = json.loads(out)
        assert blob["match"] is False and blob["oracle"] == ["1", "0", "3"]


def test_cycle_budget_exhausted_is_a_typed_error(monkeypatch, capsys):
    import functools

    import catsum.cli
    from catsum.engine import Engine

    # a 7-vertex tree, and the 400-vertex path deeper than the recursion limit
    path_400 = "(" + "(" * 200 + ")" * 200 + "(" * 199 + ")" * 199 + ")"
    for tree, max_cycles in (("((()())(()())())", 5), (path_400, 2000)):
        monkeypatch.setattr(catsum.cli, "Engine", functools.partial(Engine, max_cycles=max_cycles))
        code, out, _ = run(capsys, "--json", "sum", tree)
        assert code == 1
        blob = json.loads(out)
        assert blob["kind"] == "DepthGuardExceeded" and "driver cycles" in blob["error"]
        code, out, err = run(capsys, "sum", tree)
        assert code == 1 and not out
        assert err.startswith("error: ") and "driver cycles" in err


def test_trace_goes_to_stderr(capsys):
    code, out, err = run(capsys, "--trace", "sum", "(())")
    assert code == 0
    assert "RULE" in err and "RULE" not in out
