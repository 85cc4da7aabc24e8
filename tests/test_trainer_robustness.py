"""Trainer behaviour that does not depend on proofs: which modes build the
protocol circuit, the saved blockchain ledger, clients whose turn fails
numerically, the round timings, the model digests in the run log, and the
quantized trajectory at benchmark scale."""

import dataclasses
import hashlib
import json
import time
import warnings

import numpy as np
import pytest

from zksplit import cli
from zksplit.config import SimConfig
from zksplit.ledger import Chain
from zksplit.nn import Batch, SplitModel
from zksplit.protocol import VERDICT_ACCEPTED, VERDICT_MISSING, Trainer

M = 16


def model_digest(trainer):
    h = hashlib.sha256()
    for stack in (trainer.model.client, trainer.model.server):
        for a in stack.weights + stack.biases:
            h.update(a.tobytes())
    return h.hexdigest()


# model_digest after Trainer(SimConfig(mode="blockchain", num_clients=3,
# m=16, rounds=4, seed=11)).train(), taken when every mode still built
# the protocol circuit
PINNED_BLOCKCHAIN_MODEL = "232237fc2d1696e57b930c29fdaf247609fb56c0b10d5a18e79902c36d9f2308"


def test_blockchain_trainer_has_no_circuit_and_trains_as_before():
    tr = Trainer(SimConfig(mode="blockchain", num_clients=3, m=M, rounds=4, seed=11))
    assert tr.circuit is None and tr.pe is None and tr.ve is None
    tr.train()
    assert model_digest(tr) == PINNED_BLOCKCHAIN_MODEL


def test_run_log_records_each_rounds_model_digest(tmp_path, monkeypatch):
    """Each run_log.jsonl line names the model after its round, and a run
    that writes no log computes no digest."""
    calls = []
    digest = SplitModel.digest
    monkeypatch.setattr(SplitModel, "digest", lambda self: calls.append(1) or digest(self))
    cfg = SimConfig(mode="blockchain", num_clients=3, m=M, rounds=4, seed=11)
    Trainer(cfg).train()
    assert calls == []
    tr = Trainer(dataclasses.replace(cfg, out_dir=str(tmp_path)))
    tr.train()
    logged = [json.loads(line) for line in (tmp_path / "run_log.jsonl").read_text().splitlines()]
    assert len(calls) == 4 and len({r["model_digest"] for r in logged}) == 4
    assert logged[-1]["model_digest"] == model_digest(tr) == PINNED_BLOCKCHAIN_MODEL


@pytest.mark.parametrize("mode", ["none", "blockchain"])
def test_modes_without_proofs_build_no_circuit(mode, monkeypatch):
    from zksplit import protocol

    def refuse(*_args):
        raise AssertionError("circuit built in a mode that proves nothing")

    monkeypatch.setattr(protocol, "build_protocol_circuit", refuse)
    monkeypatch.setattr(protocol, "_CIRCUIT_CACHE", {})
    assert Trainer(SimConfig(mode=mode, m=M, rounds=1)).circuit is None


def test_blockchain_run_saves_a_verifiable_chain(tmp_path, capsys):
    out = tmp_path / "run"
    turns = 2 * 3  # clients x rounds
    rc = cli.main(["train", "--mode", "blockchain", "--clients", "2", "--m", str(M),
                   "--rounds", "3", "--seed", "1", "--out", str(out), "--json"])
    assert rc == 0
    chain = Chain.load(out / "chain.jsonl")
    assert len(chain) == 1 + 2 * turns
    capsys.readouterr()
    assert cli.main(["ledger", "verify", str(out / "chain.jsonl"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"blocks": 1 + 2 * turns, "valid": True}


def test_zk_run_saves_no_chain(tmp_path):
    Trainer(SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=1, out_dir=str(tmp_path))).train()
    assert not (tmp_path / "chain.jsonl").exists()


def nan_batches(trainer):
    cfg = trainer.config
    x = np.full((cfg.batch_size, cfg.input_dim), np.nan)
    y = np.zeros(cfg.batch_size, dtype=np.int64)
    while True:
        yield Batch(x=x, y=y)


@pytest.mark.parametrize("mode", ["none", "blockchain", "zk-mock", "zk-snark"])
def test_numeric_blowup_sits_the_client_out(mode):
    rounds = 3
    tr = Trainer(SimConfig(mode=mode, num_clients=3, m=M, rounds=rounds, seed=5))
    tr.clients[-1].stream = nan_batches(tr)
    reports = tr.train()
    assert len(reports) == rounds
    for r in reports:
        assert r.verdicts == {0: VERDICT_ACCEPTED, 1: VERDICT_ACCEPTED, 2: VERDICT_MISSING}
    assert tr.clients[-1].rejection_count == rounds
    assert 2 in reports[-1].suspects

    ref = Trainer(SimConfig(mode="none", num_clients=2, data_partitions=3, m=M,
                            rounds=rounds, seed=5))
    ref.train()
    assert model_digest(tr) == model_digest(ref)


@pytest.mark.parametrize("mode", ["none", "blockchain", "zk-mock", "zk-snark"])
def test_witness_time_is_reported_in_every_mode(mode):
    tr = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=2, seed=3))
    for report in tr.train():
        witness = report.timings["witness"]
        if tr.zk:
            assert 0.0 < witness < sum(report.timings.values())
        else:
            assert witness == 0.0


@pytest.mark.parametrize("mode", ["none", "blockchain", "zk-mock", "zk-snark"])
def test_round_timings_add_up_to_the_round(mode):
    tr = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=2, seed=3))
    for round_id in range(2):
        t0 = time.perf_counter()
        report = tr.run_round(round_id)
        wall = time.perf_counter() - t0
        assert report.timings["other"] >= 0.0
        assert sum(report.timings.values()) <= wall


# SHA-256 of wq_cur (little-endian int64) and model_digest after 3 rounds
# at the benchmark's m = 1000, seed 1, taken before the quantized
# arithmetic ran on arrays
PINNED_TRAJECTORIES = {
    ("blockchain", 4): ("fcaf6d726ccf18e8e92ac640fb94b687385509f326ce3fe4619a338118ef10ae",
                        "2b68677d6b5666ce3cca1afe90d69161b44f04d59fba8aa536846dc969db1fd2"),
    ("zk-mock", 1): ("191043b7d897171b7b5997ed0cd1ce8abada70c0b77325d86aaa95c08b9a30c0",
                     "16b9568f3407d6dc53f487a3187a516c00ab8280f186b1c02870bdb0dcf5e54e"),
}


@pytest.mark.parametrize("mode,clients", sorted(PINNED_TRAJECTORIES))
def test_trajectory_at_benchmark_scale_is_pinned(mode, clients):
    tr = Trainer(SimConfig(mode=mode, m=1000, num_clients=clients, seed=1))
    for r in range(3):
        report = tr.run_round(r)
        assert set(report.verdicts.values()) == {VERDICT_ACCEPTED}
    wq = hashlib.sha256(np.array(tr.wq_cur, dtype="<i8").tobytes()).hexdigest()
    assert (wq, model_digest(tr)) == PINNED_TRAJECTORIES[mode, clients]


# model_digest and the last round's eval_loss (float hex) after 3 rounds of
# SimConfig(mode=mode, m=1000, rounds=3, seed=0), two honest clients.  The
# model was pinned before the client's forward pass was recorded for its
# backward pass and each layer wrote into one buffer; the eval loss since
# the eval batch was drawn from the training task's class means.  Every mode
# trains the same model here.
PINNED_MODEL_M1000 = "294c3d2d8ee8ac3cb48635d5a478e30816dd45fedbcd94bbc032e808a4738ccf"
PINNED_EVAL_LOSS_M1000 = "0x1.0209a39233389p-5"


@pytest.mark.parametrize("mode", ["none", "blockchain", "zk-mock"])
def test_model_and_eval_loss_at_benchmark_scale_are_pinned(mode):
    tr = Trainer(SimConfig(mode=mode, m=1000, rounds=3, seed=0))
    reports = tr.train()
    assert all(set(r.verdicts.values()) == {VERDICT_ACCEPTED} for r in reports)
    assert model_digest(tr) == PINNED_MODEL_M1000
    assert reports[-1].eval_loss.hex() == PINNED_EVAL_LOSS_M1000


def test_quantization_overflow_from_a_huge_step_sits_the_client_out():
    # u = -lr/B * sum(g_z) is far beyond int64 at lr = 1e30; the range is
    # checked on the floats, so no invalid-cast warning escapes the round
    tr = Trainer(SimConfig(mode="blockchain", num_clients=1, m=M, seed=0, lr=1e30))
    before = model_digest(tr)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = tr.run_round(0)
    assert report.verdicts == {0: VERDICT_MISSING}
    assert model_digest(tr) == before
