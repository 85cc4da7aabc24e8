"""Run perfbench on two checkouts in alternating pairs and collect a BENCH file.

Usage, from anywhere, with two checkouts of the repository (``git clone``
of the parent commit and of the change)::

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --runs runs.jsonl --out BENCH_N.json --trace-seed 5 \\
        snark-m500-tamper:1001-1010,1099 mock-m1000:1001-1003 ledger-m1000:1001-1003

Each ``workload:seeds`` argument runs ``perfbench/run.py --seconds 20
--trace 0`` once per seed in each checkout, one right after the other,
alternating which side goes first.  ``--trace-seed`` adds one ``--trace 1``
run per side and workload.  Every run's result object and metadata (the
record perfbench writes under ``perfbench/results/``) is appended to
``--runs`` as it ends; ``--out`` then gets all of them together with, per
workload and end-to-end metric, each side's median and quartiles, the
number of pairs the change won and a ``verdict`` under the acceptance rule
(``gain``, ``worse``, ``unresolved`` or ``no worse``; see ``verdict``).  A
pair enters the summary only when both runs exited 0 and passed the
correctness gate; the others are counted under ``dropped``.  With no ``workload:seeds`` argument and no ``--trace-seed`` the
command runs nothing and only rebuilds ``--out`` from the ``--runs`` file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SECONDS = "20"


def seeds(spec: str):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    if not path.exists():
        raise RuntimeError(f"{checkout}: {workload} seed {seed} wrote no result "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return {"returncode": proc.returncode, "record": json.loads(path.read_text())}


def ok(r) -> bool:
    return r["returncode"] == 0 and r["record"]["result"]["correct"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def verdict(parent, change, better: str, bound: float) -> str:
    """The acceptance rule for one metric over paired runs (same order).

    ``gain``: the change wins at least 9 of 10 pairs and the medians differ,
    in its favour, by more than the parent's interquartile range.
    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median.  ``unresolved``: the
    parent's IQR exceeds ``bound`` times its median, and not every change
    run beats every parent run.  ``no worse``: anything else.
    """
    if len(parent) < 2:
        return "unresolved"
    sign = 1 if better == "lower" else -1
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gained = sign * (p["median"] - c["median"])  # > 0 when the change is better
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and gained > iqr:
        return "gain"
    if -gained > bound * abs(p["median"]):
        return "worse"
    apart = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if iqr > bound * abs(p["median"]) and not apart:
        return "unresolved"
    return "no worse"


def summary(runs, better, bounds):
    """Per workload and end-to-end metric: both sides' quartiles, the pairs
    won and the ``verdict``.

    Pairs where either run failed or failed the correctness gate are left out
    and counted as ``dropped``.
    """
    pairs = {}
    for r in runs:
        if r["trace"] == 0:
            pairs.setdefault(r["workload"], {}).setdefault(r["seed"], {})[r["side"]] = r
    out = {}
    for workload, by_seed in pairs.items():
        both = [p for p in by_seed.values() if {"parent", "change"} <= p.keys()]
        done = [p for p in both if ok(p["parent"]) and ok(p["change"])]
        for metric, direction in better.items():
            vals = {side: [p[side]["record"]["result"]["metrics"][metric]["value"] for p in done]
                    for side in ("parent", "change")}
            sign = 1 if direction == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            ties = sum(c == p for p, c in zip(vals["parent"], vals["change"]))
            out.setdefault(workload, {})[metric] = {
                "pairs": len(done), "dropped": len(both) - len(done),
                "change_wins": wins, "ties": ties,
                "verdict": verdict(vals["parent"], vals["change"], direction, bounds[metric]),
                **{side: {"values": v, **quartiles(v)} for side, v in vals.items() if len(v) > 1},
            }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--runs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("plan", nargs="*", help="workload:seeds, seeds as 1-3,7")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    plan = [(w, s, 0) for w, _, spec in (p.partition(":") for p in args.plan)
            for s in seeds(spec)]
    if args.trace_seed is not None:
        plan += [(w, args.trace_seed, 1) for w in dict.fromkeys(p.split(":")[0] for p in args.plan)]
    for i, (workload, seed, trace) in enumerate(plan):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            t0 = time.time()
            result = run(sides[side], workload, seed, trace)
            with args.runs.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed, "trace": trace,
                                    "side": side, "first": order[0],
                                    "wall_s": time.time() - t0, **result}) + "\n")
            print(workload, seed, trace, side, result["returncode"], flush=True)
    runs = [json.loads(line) for line in args.runs.read_text().splitlines()]
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    args.out.write_text(json.dumps({
        "command": [*spec["command"], "--seconds", SECONDS],
        "commits": {side: next((r["record"]["metadata"]["commit"] for r in runs
                                if r["side"] == side), None) for side in sides},
        "summary": summary(runs, better, bounds),
        "runs": runs,
    }, indent=1) + "\n")
    return 0 if all(ok(r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
