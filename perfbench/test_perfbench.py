"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

import json
import shutil
import subprocess
import sys

import pin
import pytest

import run
import spans
import workloads
from zksplit import SimConfig, Trainer, protocol

TINY = dict(mode="zk-mock", m=8, num_clients=3, tamper_clients=[2])


def test_self_time_is_span_minus_direct_children():
    s = [
        spans.Span("round", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 2.0, 3.0, parent=1),
        spans.Span("c", 5.0, 6.5, parent=0),
    ]
    assert spans.self_times(s) == [10.0 - 3.0 - 1.5, 3.0 - 1.0, 1.0, 1.5]


def traced_rounds(cfg: SimConfig, rounds: int) -> spans.Tracer:
    tracer = spans.Tracer()
    trainer = Trainer(cfg)
    for r in range(rounds):
        with spans.patched(tracer, spans.round_hooks()), tracer.span(spans.ROUND):
            trainer.run_round(r)
    return tracer


def test_spans_and_other_add_up_to_round_wall():
    tracer = traced_rounds(SimConfig(seed=3, **TINY), 3)
    metrics = spans.layer_metrics(tracer.spans)
    wall = sum(s.duration for s in tracer.spans if s.name == spans.ROUND)
    assert sum(spans.self_times(tracer.spans)) == pytest.approx(wall, abs=1e-9)
    other = metrics["protocol.other.ms_per_round"] * 3 / 1e3
    top = metrics["trace.coverage"] * wall
    assert top + other == pytest.approx(wall, abs=1e-9)
    assert metrics["backend.verify.reject_share"] == pytest.approx(1 / 5)
    assert metrics["protocol.proof_useful_share"] == pytest.approx(4 / 5)
    # 5 proofs, and 4 verifies: the tampered statement fails its digest check first
    assert metrics["circuit.check.calls_per_round"] == 9


def test_patched_restores_every_hook():
    before = [vars(owner)[attr] for owner, attr, _, _ in spans.round_hooks()]
    traced_rounds(SimConfig(seed=3, **TINY), 1)
    after = [vars(owner)[attr] for owner, attr, _, _ in spans.round_hooks()]
    assert before == after
    assert protocol.generate_witness is vars(protocol)["generate_witness"]
    assert not hasattr(protocol.generate_witness, "__wrapped__")


def run_tiny(monkeypatch, tmp_path, capsys, trace: int) -> dict:
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "MIN_ROUNDS", 3)
    monkeypatch.setattr(run, "MIN_TRACE_ROUNDS", 2)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)  # a probe process would not know "tiny"
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    code = run.main(["--workload", "tiny", "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert (tmp_path / f"tiny-seed5-trace{trace}.json").is_file()
    return line


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_those_of_benchmark_json(monkeypatch, tmp_path, capsys, trace, kind):
    spec = json.loads((pin.ROOT / "BENCHMARK.json").read_text())
    line = run_tiny(monkeypatch, tmp_path, capsys, trace)
    assert sorted(line["metrics"]) == sorted(m["name"] for m in spec[kind])
    units = {m["name"]: m["unit"] for m in spec[kind]}
    assert all(v["unit"] == units[n] for n, v in line["metrics"].items())


def test_gate_passes_on_same_seed_and_trips_on_another():
    cfg = SimConfig(seed=7, **TINY)
    trainer = Trainer(cfg)
    for r in range(3):
        trainer.run_round(r)
    ok = workloads.gate(trainer, workloads.run_reference(cfg, 3))
    assert ok.correct and ok.attempted == 9 and ok.failed == 0

    other = SimConfig(seed=8, **TINY)
    bad = workloads.gate(trainer, workloads.run_reference(other, 3))
    assert not bad.correct
    assert bad.failed == bad.attempted == 9


def test_gate_counts_a_wrong_verdict_as_a_failed_turn():
    cfg = SimConfig(seed=7, **TINY)
    trainer = Trainer(cfg)
    for r in range(2):
        trainer.run_round(r)
    trainer.reports[1].verdicts[2] = protocol.VERDICT_ACCEPTED
    res = workloads.gate(trainer, workloads.run_reference(cfg, 2))
    assert not res.correct and res.failed == 1


def test_runner_fails_without_the_source_tree(tmp_path):
    shutil.copy(pin.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(pin.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ledger-m1000", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
