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
``--runs`` as it ends, together with its minor page faults (``minflt``,
the ``RUSAGE_CHILDREN`` ``ru_minflt`` delta around the run, so its set-up
probes count too); ``--out`` then gets all of them together with, per
workload and end-to-end metric, each side's median and quartiles, the
number of pairs the change won and a ``verdict`` under the acceptance rule
(``gain``, ``worse``, ``unresolved`` or ``no worse``; see ``verdict``),
per workload each side's median number of rounds completed, median
fastest set-up sample (``setup_min_s``) and median ``minflt``, and under
``traced`` the per-layer metrics of each side's ``--trace 1`` run, side by
side and with no verdict.  A pair enters the summary only when both runs
exited 0 and passed the correctness gate; the others are counted under
``dropped``.  A run that writes no record is appended to ``--runs`` with
its exit code and the tail of its stderr, and the session goes on.  Once
``--out`` is written, one ``workload metric verdict wins/pairs`` line per
workload and end-to-end metric goes to stdout, and after them one
``workload medians rounds parent=P change=C minflt parent=P change=C``
line per workload, since metrics such as ``peak_rss_mb`` and
``evidence_bytes_per_round`` grow with the rounds a run completes; a
``minflt`` of ``-`` means the runs recorded none.  With no ``workload:seeds``
argument and no ``--trace-seed`` the command runs nothing and only rebuilds
``--out`` from the ``--runs`` file.

Each side must be a git checkout with a commit: ``--out`` names each
side's ``git rev-parse HEAD`` under ``commits``, and under ``dirty``
whether its ``git status --porcelain`` listed anything, both read before
any run starts.  A side with no commit is refused, with exit code 2,
before anything runs.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

SECONDS = "20"
# the fewest pairs a ``gain`` verdict may rest on
GAIN_PAIRS = 10
STDERR_TAIL = 2000  # characters of a failed run's stderr kept in --runs


def seeds(spec: str):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def child_minflt() -> int:
    """Minor page faults of every finished child process so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt


def run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """The run's exit code, minor page faults and record; a run that wrote
    no record gets ``record`` None and the tail of its stderr instead."""
    path = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    faults = child_minflt()
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
                          cwd=checkout, capture_output=True, text=True)
    out = {"returncode": proc.returncode, "minflt": child_minflt() - faults}
    if not path.exists():
        return {**out, "record": None, "stderr_tail": proc.stderr[-STDERR_TAIL:]}
    return {**out, "record": json.loads(path.read_text())}


def git(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)


def commit(checkout: Path):
    """The checkout's HEAD commit and whether its tree is dirty, or None
    when it has no commit."""
    head = git(checkout, "rev-parse", "--verify", "HEAD")
    if head.returncode:
        return None
    return head.stdout.strip(), bool(git(checkout, "status", "--porcelain").stdout)


def ok(r) -> bool:
    return r["returncode"] == 0 and r["record"] is not None and r["record"]["result"]["correct"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def verdict(parent, change, better: str, bound: float) -> str:
    """The acceptance rule for one metric over paired runs (same order).

    ``gain``: over at least GAIN_PAIRS pairs, the change wins at least 9 of
    10 and the medians differ, in its favour, by more than the parent's
    interquartile range.
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
    if len(parent) >= GAIN_PAIRS and 10 * wins >= 9 * len(parent) and gained > iqr:
        return "gain"
    if -gained > bound * abs(p["median"]):
        return "worse"
    apart = max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    if iqr > bound * abs(p["median"]) and not apart:
        return "unresolved"
    return "no worse"


def traced(runs, better):
    """Per workload and trace seed, every metric of the traced runs that is
    not an end-to-end one, as {metric: {"parent": value, "change": value}}."""
    by_seed = {}
    for r in runs:
        if r["trace"] == 1 and r["record"] is not None:
            by_seed.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r
    out = {}
    for (workload, seed), sides in by_seed.items():
        if {"parent", "change"} <= sides.keys():
            metrics = {side: sides[side]["record"]["result"]["metrics"] for side in sides}
            out.setdefault(workload, {})[str(seed)] = {
                name: {side: metrics[side][name]["value"] for side in ("parent", "change")}
                for name in sorted(metrics["parent"].keys() & metrics["change"].keys())
                if name not in better}
    return out


def side_medians(done, value):
    """Each side's median of ``value(run)`` over the kept pairs ``done``."""
    return {side: statistics.median(value(p[side]) for p in done)
            for side in ("parent", "change")}


def summary(runs, better, bounds):
    """Per workload and end-to-end metric: both sides' quartiles, the pairs
    won and the ``verdict``; per workload also each side's median ``rounds``
    (the rounds a run completed, so that a metric which grows with them,
    such as ``peak_rss_mb``, can be read against them), each side's median
    ``setup_min_s``, the fastest of a run's ``setup_samples_s``, to read
    beside ``setup_s``, their median, whose verdict it leaves alone, each
    side's median ``minflt``, the minor page faults of a whole run, and,
    under ``traced``, the per-layer metrics of the traced runs (see
    ``traced``).

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
        if done:
            out[workload] = {"rounds": side_medians(done, lambda r: r["record"]["rounds"])}
            if all("setup_samples_s" in p[side]["record"] for p in done for side in p):
                out[workload]["setup_min_s"] = side_medians(
                    done, lambda r: min(r["record"]["setup_samples_s"]))
            # runs recorded before minflt was kept have none
            if all("minflt" in p[side] for p in done for side in p):
                out[workload]["minflt"] = side_medians(done, lambda r: r["minflt"])
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
    for workload, layers in traced(runs, better).items():
        out.setdefault(workload, {})["traced"] = layers
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
    commits = {side: commit(path) for side, path in sides.items()}
    for side, found in commits.items():
        if found is None:
            print(f"bench_pairs: the {side} side, {sides[side]}, has no git commit",
                  file=sys.stderr)
            return 2
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
    table = summary(runs, better, bounds)
    args.out.write_text(json.dumps({
        "command": [*spec["command"], "--seconds", SECONDS],
        "commits": {side: head for side, (head, _) in commits.items()},
        "dirty": {side: dirty for side, (_, dirty) in commits.items()},
        "summary": table,
        "runs": runs,
    }, indent=1) + "\n")
    for workload, cells in table.items():
        for metric in better:
            if metric in cells:
                cell = cells[metric]
                print(workload, metric, cell["verdict"], f"{cell['change_wins']}/{cell['pairs']}")
    for workload, cells in table.items():
        if "rounds" in cells:
            print(workload, "medians", *(
                f"{key} parent={cells[key]['parent']:.10g} change={cells[key]['change']:.10g}"
                if key in cells else f"{key} -" for key in ("rounds", "minflt")))
    return 0 if all(ok(r) for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
