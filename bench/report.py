"""Run the benchmark many times and summarise it.

    python3 bench/report.py baseline --seeds 1-10 --out bench/results/baseline.json
    python3 bench/report.py compare --parent ../parent --change . --workload sum-cold --pairs 10

`baseline` runs every workload once per seed untraced and once traced, and
writes medians, quartiles and spreads with an environment block.  `compare`
alternates runs of two checkouts (same benchmark code in both, seed i for
pair i) and applies the win rule of the README to every end-to-end metric.
Each run is its own `bench/run.py` process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(root: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True)
        return done.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def baseline(args) -> int:
    root = HERE.parent
    out = {
        "environment": {
            "cpus": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "commit": _commit(root),
            "run_seconds": SPEC["run_seconds"],
            "seeds": args.seeds,
            "timers": "time.perf_counter and getrusage(RUSAGE_SELF) inside each benchmark process; "
            "nothing traced the machine, other tenants of the host add noise",
        },
        "workloads": {},
    }
    for workload in [w["name"] for w in SPEC["workloads"]]:
        runs = [run_once(root, workload, seed, 0) for seed in _seeds(args.seeds)]
        traced = run_once(root, workload, _seeds(args.seeds)[0], 1)
        metrics = {}
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = summary(values)
            s.update(unit=m["unit"], bound=m["bound"], values=values)
            metrics[m["name"]] = s
            flag = "" if s["spread"] < m["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"{workload:14s} {m['name']:12s} median {s['median']:10.4g} {m['unit']:4s} spread {s['spread']:.3f}{flag}")
        out["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "end_to_end": metrics,
            "traced_seed": _seeds(args.seeds)[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0


def compare(args) -> int:
    """A gain needs the change to win 9 of 10 pairs and a median gap wider
    than the parent's own quartile spread; a loss beyond the bound is a
    regression; anything else is unresolved or unchanged."""
    parent, change = Path(args.parent).resolve(), Path(args.change).resolve()
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = (parent, change) if i % 2 == 0 else (change, parent)
        results = {side: run_once(side, args.workload, seed, 0) for side in order}
        pairs.append((results[parent], results[change]))
    worst = 0
    for m in SPEC["end_to_end"]:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        p = [a["metrics"][name]["value"] for a, _ in pairs]
        c = [b["metrics"][name]["value"] for _, b in pairs]
        wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
        ps, cs = summary(p), summary(c)
        gap = sign * (cs["median"] - ps["median"])
        if wins >= 0.9 * len(pairs) and gap > ps["q3"] - ps["q1"]:
            verdict = "gain"
        elif -gap > m["bound"] * ps["median"]:
            verdict, worst = "regression", 1
        elif ps["spread"] > m["bound"] and not min(sign * v for v in c) > max(sign * v for v in p):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        print(
            f"{args.workload:14s} {name:12s} parent {ps['median']:.4g} [{ps['q1']:.4g}, {ps['q3']:.4g}]"
            f"  change {cs['median']:.4g} [{cs['q1']:.4g}, {cs['q3']:.4g}]  wins {wins}/{len(pairs)}  {verdict}"
        )
    failed = sum(b["failed"] for _, b in pairs) - sum(a["failed"] for a, _ in pairs)
    print(f"{args.workload:14s} failed items, change minus parent: {failed}")
    return worst or int(failed > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("baseline")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", default=str(HERE / "results" / "baseline.json"))
    p.set_defaults(func=baseline)
    p = sub.add_parser("compare")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.set_defaults(func=compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
