"""The per-metric verdict of tools/bench_pairs.py on synthetic paired runs."""

import importlib.util
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


def test_summary_carries_the_verdict():
    runs = []
    for seed, (p, c) in enumerate(zip(PARENT, shifted(-1.0))):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "seed": seed, "trace": 0, "side": side,
                         "returncode": 0, "record": {"result": {
                             "correct": True, "metrics": {"round_ms.p90": {"value": v}}}}})
    out = bench_pairs.summary(runs, {"round_ms.p90": "lower"}, {"round_ms.p90": 0.25})
    cell = out["w"]["round_ms.p90"]
    assert cell["pairs"] == 10 and cell["change_wins"] == 10
    assert cell["verdict"] == "gain"
