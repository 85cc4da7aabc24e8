"""The per-metric verdict and the summary of tools/bench_pairs.py on
synthetic paired runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

# ten parent runs with median 10.0 and an IQR of 0.5 (5% of the median)
PARENT = [9.6, 9.7, 9.8, 9.9, 10.0, 10.0, 10.1, 10.2, 10.3, 10.4]


def shifted(by, losers=()):
    """The parent runs moved by ``by``, except pairs in ``losers``, which
    the change loses by 0.1."""
    return [p + 0.1 if i in losers else p + by for i, p in enumerate(PARENT)]


@pytest.mark.parametrize("change, better, expected", [
    (shifted(-1.0), "lower", "gain"),
    (shifted(-1.0, losers={3}), "lower", "gain"),  # 9 of 10 pairs
    (shifted(-1.0, losers={3, 7}), "lower", "no worse"),  # 8 of 10 pairs
    (shifted(-0.3), "lower", "no worse"),  # every pair won, but within the IQR
    (shifted(+1.0), "higher", "gain"),
    (shifted(+0.2), "lower", "no worse"),  # 2% worse, under the 10% bound
    (shifted(+1.5), "lower", "worse"),  # 15% worse
    (shifted(-1.5), "higher", "worse"),
])
def test_verdicts(change, better, expected):
    assert verdict(PARENT, change, better, 0.10) == expected


def test_a_gain_needs_ten_pairs():
    """Three pairs that the change wins by far do not make a gain; ten do."""
    assert verdict(PARENT[:3], shifted(-1.0)[:3], "lower", 0.10) == "no worse"
    assert verdict(PARENT[:9], shifted(-1.0)[:9], "lower", 0.10) == "no worse"
    assert verdict(PARENT, shifted(-1.0), "lower", 0.10) == "gain"
    assert verdict(PARENT[:3], shifted(+1.0)[:3], "higher", 0.10) == "no worse"
    assert verdict(PARENT[:3], shifted(+1.5)[:3], "lower", 0.10) == "worse"


def test_noisy_parent_is_unresolved_unless_the_sides_separate():
    noisy = [6.0, 7.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 13.0, 14.0]  # IQR/median 0.35
    overlapping = [v - 0.5 for v in noisy]
    assert verdict(noisy, overlapping, "lower", 0.25) == "unresolved"
    assert verdict(noisy, [v + 20 for v in noisy], "higher", 0.25) == "gain"
    assert verdict(noisy, [5.0] * 10, "lower", 0.25) == "gain"
    assert verdict(noisy, list(noisy), "lower", 0.25) == "unresolved"
    # a spread inside the bound resolves, however the sides overlap
    assert verdict(noisy, overlapping, "lower", 0.40) == "no worse"


def test_identical_runs_are_no_worse():
    assert verdict([810.0] * 10, [810.0] * 10, "lower", 0.02) == "no worse"
    assert verdict([1.0] * 10, [1.0] * 10, "higher", 0.01) == "no worse"


def paired_runs(parent, change, rounds=(0, 0), ok_pairs=None):
    """Synthetic run records, one pair per seed; ``rounds`` is each side's
    rounds completed, plus the seed; pairs outside ``ok_pairs`` fail."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, v, n in (("parent", p, rounds[0]), ("change", c, rounds[1])):
            runs.append({"workload": "w", "seed": seed, "trace": 0, "side": side,
                         "returncode": 0 if ok_pairs is None or seed in ok_pairs else 1,
                         "record": {"rounds": n + seed, "result": {
                             "correct": True, "metrics": {"round_ms.p90": {"value": v}}}}})
    return runs


def test_summary_carries_the_verdict():
    runs = paired_runs(PARENT, shifted(-1.0))
    out = bench_pairs.summary(runs, {"round_ms.p90": "lower"}, {"round_ms.p90": 0.25})
    cell = out["w"]["round_ms.p90"]
    assert cell["pairs"] == 10 and cell["change_wins"] == 10
    assert cell["verdict"] == "gain"


def test_summary_carries_each_sides_median_rounds_over_the_kept_pairs():
    runs = paired_runs(PARENT, shifted(-1.0), rounds=(1000, 1200), ok_pairs={0, 1, 2, 9})
    out = bench_pairs.summary(runs, {"round_ms.p90": "lower"}, {"round_ms.p90": 0.25})
    # seeds 0, 1, 2 and 9 are kept: medians of 1000 + (0, 1, 2, 9) and 1200 + ...
    assert out["w"]["rounds"] == {"parent": 1001.5, "change": 1201.5}
    assert out["w"]["round_ms.p90"]["pairs"] == 4
    assert out["w"]["round_ms.p90"]["dropped"] == 6


def test_summary_carries_each_sides_median_fastest_setup_sample():
    runs = paired_runs(PARENT, shifted(-1.0), ok_pairs={0, 1, 2})
    for r in runs:
        base = 0.4 if r["side"] == "parent" else 0.2
        # five samples per run, the fastest being base + seed / 100
        r["record"]["setup_samples_s"] = [base + 0.3, base + r["seed"] / 100, base + 0.1,
                                          base + 0.5, base + 0.2]
    bounds = {"round_ms.p90": 0.25}
    out = bench_pairs.summary(runs, {"round_ms.p90": "lower"}, bounds)
    # kept seeds 0, 1, 2: the medians of base + (0.00, 0.01, 0.02)
    assert out["w"]["setup_min_s"] == pytest.approx({"parent": 0.41, "change": 0.21})
    # runs without set-up samples get no such entry
    assert "setup_min_s" not in bench_pairs.summary(
        paired_runs(PARENT, PARENT), {"round_ms.p90": "lower"}, bounds)["w"]


def traced_run(side, seed, metrics):
    return {"workload": "w", "seed": seed, "trace": 1, "side": side, "returncode": 0,
            "record": {"rounds": 40, "result": {"correct": True, "metrics": {
                name: {"value": v} for name, v in metrics.items()}}}}


def test_summary_lists_the_traced_layers_side_by_side():
    runs = paired_runs(PARENT, shifted(-1.0)) + [
        traced_run("parent", 5, {"round_ms.p90": 11.0, "setup.circuit_build_s": 0.08,
                                 "circuit.witness.ms_per_round": 0.7}),
        traced_run("change", 5, {"round_ms.p90": 10.0, "setup.circuit_build_s": 0.07,
                                 "circuit.witness.ms_per_round": 0.6, "nn.ms_per_round": 2.0}),
        traced_run("parent", 6, {"setup.circuit_build_s": 0.09}),  # no change side: left out
    ]
    out = bench_pairs.summary(runs, {"round_ms.p90": "lower"}, {"round_ms.p90": 0.25})
    # end-to-end metrics keep their verdict from the untraced pairs only
    assert out["w"]["round_ms.p90"]["pairs"] == 10
    assert out["w"]["traced"] == {"5": {
        "circuit.witness.ms_per_round": {"parent": 0.7, "change": 0.6},
        "setup.circuit_build_s": {"parent": 0.08, "change": 0.07},
    }}
    json.dumps(out)


STUB_RUN = '''import json, sys
from pathlib import Path
touched = b"\\x01" * (TOUCH_MB << 20)  # written, so every page faults in
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if int(args["--seed"]) in FAIL_SEEDS:
    sys.exit("stub: no result for seed " + args["--seed"])
out = Path("perfbench/results")
out.mkdir(exist_ok=True)
name = f"{args['--workload']}-seed{args['--seed']}-trace{args['--trace']}.json"
(out / name).write_text(json.dumps({"rounds": 10, "metadata": {"commit": "stub"},
    "result": {"correct": True, "metrics": {"round_ms.p90": {"value": VALUE}}}}))
'''


def git(path: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(path), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def commit_all(path: Path) -> None:
    """Make path a git repository, if it is none, and commit all it holds."""
    git(path, "init", "-q")
    git(path, "add", "-A")
    git(path, "-c", "user.name=bench", "-c", "user.email=bench@example.com",
        "-c", "commit.gpgsign=false", "commit", "-q", "-m", "stub")


def stub_checkout(path: Path, fail_seeds, touch_mb=0, value=5.0, commit=True) -> Path:
    """A checkout whose perfbench/run.py writes ``touch_mb`` MiB and then a
    record with ``round_ms.p90`` at ``value``, or, for a seed in
    ``fail_seeds``, exits 1 without one; all of it committed to a git
    repository, unless ``commit`` is false."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(
        f"FAIL_SEEDS = {set(fail_seeds)!r}\nTOUCH_MB = {touch_mb}\nVALUE = {value}\n"
        + STUB_RUN)
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "end_to_end": [{"name": "round_ms.p90", "better": "lower", "bound": 0.25}]}))
    if commit:
        commit_all(path)
    return path


def test_the_bench_file_names_each_sides_commit_and_whether_it_was_dirty(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail_seeds=())
    change = stub_checkout(tmp_path / "change", fail_seeds=())
    (change / "uncommitted.txt").write_text("edit\n")
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--runs", str(runs), "--out", str(out), "w:1"]) == 0
    bench = json.loads(out.read_text())
    assert bench["commits"] == {"parent": git(parent, "rev-parse", "HEAD"),
                                "change": git(change, "rev-parse", "HEAD")}
    assert bench["dirty"] == {"parent": False, "change": True}


@pytest.mark.parametrize("init", [False, True])
def test_a_side_with_no_commit_is_refused_before_anything_runs(tmp_path, capsys, init):
    """A side that is no git repository, or one with no commit yet, is
    named on stderr, and nothing runs or is written."""
    parent = stub_checkout(tmp_path / "parent", fail_seeds=())
    change = stub_checkout(tmp_path / "change", fail_seeds=(), commit=False)
    if init:
        git(change, "init", "-q")
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--runs", str(runs), "--out", str(out), "w:1-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"bench_pairs: the change side, {change}, has no git commit\n"
    assert not runs.exists() and not out.exists()
    assert not (parent / "perfbench" / "results").exists()


def test_a_run_that_writes_no_result_is_kept_and_its_pair_dropped(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail_seeds=())
    change = stub_checkout(tmp_path / "change", fail_seeds={2})
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    code = bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--runs", str(runs), "--out", str(out), "w:1-3"])
    assert code == 1
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    assert len(records) == 6
    (failed,) = [r for r in records if r["record"] is None]
    assert (failed["side"], failed["seed"], failed["returncode"]) == ("change", 2, 1)
    assert "stub: no result for seed 2" in failed["stderr_tail"]
    summary = json.loads(out.read_text())["summary"]["w"]["round_ms.p90"]
    assert (summary["pairs"], summary["dropped"]) == (2, 1)


def test_each_run_keeps_its_minor_faults_and_each_side_their_median(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail_seeds=())
    change = stub_checkout(tmp_path / "change", fail_seeds=(), touch_mb=16)
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--runs", str(runs), "--out", str(out), "w:1-3"]) == 0
    records = [json.loads(line) for line in runs.read_text().splitlines()]
    assert all(type(r["minflt"]) is int and r["minflt"] > 0 for r in records)
    medians = json.loads(out.read_text())["summary"]["w"]["minflt"]
    assert medians == {side: sorted(r["minflt"] for r in records if r["side"] == side)[1]
                       for side in ("parent", "change")}
    # the 16 MiB written are 4096 pages of 4 KiB, each faulted in
    assert medians["change"] - medians["parent"] > 3000


def test_each_end_to_end_verdict_is_printed_after_the_file(tmp_path, capsys):
    parent = stub_checkout(tmp_path / "parent", fail_seeds=())
    change = stub_checkout(tmp_path / "change", fail_seeds={3}, value=4.0)
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--runs", str(runs), "--out", str(out), "w:1-3"])
    lines = capsys.readouterr().out.splitlines()
    # six run lines, one verdict line for the one end-to-end metric, and
    # one line of the workload's medians
    assert len(lines) == 8
    # two pairs won are too few for a gain
    assert lines[-2] == "w round_ms.p90 no worse 2/2"
    assert lines[-1].startswith("w medians rounds parent=10 change=10 minflt parent=")
    assert json.loads(out.read_text())["summary"]["w"]["round_ms.p90"]["verdict"] == "no worse"


def test_each_workloads_median_rounds_and_minflt_are_printed_last(tmp_path, capsys):
    runs, out = tmp_path / "runs.jsonl", tmp_path / "bench.json"
    records = paired_runs(PARENT, shifted(-1.0), rounds=(1000, 1200), ok_pairs={0, 1, 2})
    for r in records:
        r["minflt"] = (30_000 if r["side"] == "parent" else 125_000) + r["seed"]
        r["record"]["metadata"] = {"commit": r["side"]}
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"],
        "end_to_end": [{"name": "round_ms.p90", "better": "lower", "bound": 0.25}]}))
    commit_all(tmp_path)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path), "--runs", str(runs),
            "--out", str(out)]
    bench_pairs.main(argv)
    # only the kept seeds 0, 1 and 2 count, too few for a gain
    assert capsys.readouterr().out.splitlines() == [
        "w round_ms.p90 no worse 3/3",
        "w medians rounds parent=1001 change=1201 minflt parent=30001 change=125001"]
    # runs recorded before minflt was kept print none
    for r in records:
        del r["minflt"]
    runs.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(argv)
    assert capsys.readouterr().out.splitlines()[-1] == (
        "w medians rounds parent=1001 change=1201 minflt -")
