"""CLI output snapshot: exit code, stdout and stderr of each command, byte for byte.

`data/cli_snapshot.json` holds the recorded outputs.  After a deliberate
change of output, record them again with

    PYTHONPATH=src python tests/test_cli_snapshot.py
"""

import contextlib
import io
import json
from pathlib import Path

from catsum.cli import main
from catsum.meanders import enumerate_meanders
from catsum.table_data import LINE_EXAMPLE_8, TABLE

SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"

# README's decorated tree, and one with negative shifts and a gray vertex.
README_TREE = {
    "vertices": [
        {"parent": -1, "color": "white", "rel": "eq", "k": 0},
        {"parent": 0, "color": "black", "rel": "none", "k": 0},
    ]
}
NEGATIVE_SHIFT_TREE = {
    "vertices": [
        {"parent": -1, "color": "white", "rel": "ge", "k": -2},
        {"parent": 0, "color": "gray", "rel": "le", "k": -1},
        {"parent": 1, "color": "black", "rel": "none", "k": 0},
        {"parent": 0, "color": "black", "rel": "eq", "k": -1},
        {"parent": 3, "color": "white", "rel": "none", "k": 0},
    ]
}


def _arcs(matching) -> str:
    return ", ".join(f"{a}-{b}" for a, b in matching)


def cases() -> list[list[str]]:
    golden = [entry.tree_text for entry in TABLE + [LINE_EXAMPLE_8]]
    checked = golden[::3] + [json.dumps(README_TREE), json.dumps(NEGATIVE_SHIFT_TREE)]
    out = [["--json", "sum", tree] for tree in golden]
    out += [["--json", "sum", "halfedge:" + tree] for tree in golden]
    for tree in checked:
        out.append(["--json", "series", tree, "--order", "10", "--oracle"])
        out.append(["--json", "verify", tree, "--order", "10"])
    out += [["series", tree, "--order", "10"] for tree in ("(())", "halfedge:(()())", golden[8])]
    out.append(["--json", "table"])
    for size in (1, 2, 3):
        for m in enumerate_meanders(size):
            out.append(["--json", "meander", "--upper", _arcs(m.upper), "--lower", _arcs(m.lower)])
    out.append(["--json", "star", "--s", "3", "--partial", "100"])
    # partial sums at large s and N, with N both below and above 10 s
    out.append(["--json", "star", "--s", "64", "--partial", "3000"])
    out.append(["--json", "star", "--s", "200", "--partial", "300"])
    out.append(["--json", "star", "--s", "200", "--partial", "2001"])
    out.append(["--trace", "sum", LINE_EXAMPLE_8.tree_text])
    out += [["--json", "sum", "--sqrt-t", tree] for tree in golden[::12]]
    # text mode of each subcommand
    out.append(["sum", golden[4]])
    out.append(["verify", golden[5], "--order", "8"])
    out.append(["meander", "--upper", "0-1, 2-3", "--lower", "0-3, 1-2"])
    out.append(["star", "--s", "2", "--partial", "50"])
    out.append(["star", "--s", "5", "--partial", "8"])
    out.append(["table", "--max-vertices", "5"])
    # malformed input exits 2
    out.append(["sum", "(()"])
    out.append(["--json", "sum", '{"vertices": ['])
    out.append(["meander", "--upper", "0-2, 1-3", "--lower", "0-1, 2-3"])
    unhashable_color = '{"vertices":[{"parent":-1,"color":[],"rel":"eq","k":0}]}'
    out += [["sum", unhashable_color], ["--json", "sum", unhashable_color]]
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_cli_output_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in expected] == cases()
    for entry in expected:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    records = [run(argv) for argv in cases()]
    SNAPSHOT.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
