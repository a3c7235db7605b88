"""Self-test of the benchmark on tiny passes of every workload.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = ("engine.cycles", "engine.reduce_calls", "algebra.mul_calls", "meanders.forest_trees")


def tiny(name: str):
    return {
        "sum-cold": workloads.SumCold(rounds=2, per_round=3, paths=(4, 6), stars=(3, 8), free=(5, 7), oracle_order=4),
        "verify": workloads.Verify(rounds=2, random_per_round=2, order=6, golden_limit=3),
        "meander-sweep": workloads.MeanderSweep(size=3, fresh_sample=3),
        "star-partial": workloads.StarPartial(
            rounds=2, per_round=3, terms=(10, 60), small_sample=2, small_terms=(5, 20), direct_sample=2
        ),
    }[name]


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_pass_emits_every_metric(name, trace):
    result = run.run(tiny(name), seed=1, seconds=0.2, trace=trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"]


@pytest.mark.parametrize("name", ["sum-cold", "meander-sweep"])
def test_counts_repeat_for_one_seed(name):
    first, second = (run.run(tiny(name), seed=7, seconds=0.2, trace=1)["metrics"] for _ in range(2))
    assert first["engine.cycles"]["value"] > 0
    for key in COUNTS:
        assert first[key] == second[key], key


def test_wrong_star_value_is_a_failure(monkeypatch):
    real = workloads.reference_star
    monkeypatch.setattr(workloads, "reference_star", lambda cs, s: real(cs, s).scale(2))
    result = run.run(tiny("sum-cold"), seed=1, seconds=0.2, trace=1)
    assert result["metrics"]["failed_ratio"]["value"] > 0 and not result["correct"]


def test_failed_meander_item_is_a_failure():
    """An item that raises is counted, and fails its whole sweep, without ending the run."""
    workload, calls = tiny("meander-sweep"), []

    def call(cs, item):
        calls.append(item)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return workloads.MeanderSweep.call(workload, cs, item)

    workload.call = call
    result = run.run(workload, seed=1, seconds=0.2, trace=0)
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]


def test_wrong_direct_partial_sum_is_a_failure(monkeypatch):
    real = workloads.reference_direct_partial
    monkeypatch.setattr(workloads, "reference_direct_partial", lambda cs, s, n: real(cs, s, n) + Fraction(1, 16**n))
    result = run.run(tiny("star-partial"), seed=1, seconds=0.2, trace=0)
    assert result["failed"] == result["attempted"] > 0


def test_second_seed_keeps_item_sizes():
    cs = run.load_catsum()
    a, b = (workloads.SumCold().inputs(cs, random.Random(seed)) for seed in (1, 2))
    assert sorted((i.family, i.size, i.halfedge) for i in a) == sorted((i.family, i.size, i.halfedge) for i in b)
    assert a != b
    star = workloads.StarPartial()
    a, b = (star.inputs(cs, random.Random(seed)) for seed in (1, 2))
    width = (star.terms[1] - star.terms[0] + 1) // star.per_round + 1
    assert all(abs(x - y) < width for x, y in zip(sorted(i.terms for i in a), sorted(i.terms for i in b)))
    assert sorted(i.s for i in a) == sorted(i.s for i in b)
