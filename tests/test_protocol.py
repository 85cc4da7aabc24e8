import hashlib
import json

import numpy as np
import pytest

from zksplit import circuit, protocol
from zksplit.backend import Statement, Verdict
from zksplit.circuit import Witness, generate_witness
from zksplit.config import ConfigError, SimConfig
from zksplit.nn import client_forward, server_loss, server_step
from zksplit.protocol import ProverEntity, RoundMessage, Trainer, VerifierEntity

from oracle import element_reads

M = 16  # small cut width keeps proof work cheap in unit tests


def model_arrays(trainer):
    model = trainer.model
    for stack in (model.client, model.server):
        yield from stack.weights
        yield from stack.biases


def models_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(model_arrays(a), model_arrays(b)))


def private_u(trainer):
    """The private U of the last accepted update, from its stored witness:
    the m wires that follow the constant and the public wires."""
    witness = trainer.last_update[1]
    start = 1 + trainer.circuit.num_public
    return witness.signed[start : start + trainer.config.m]


class TestHonestRun:
    @pytest.mark.parametrize("mode", ["zk-mock", "zk-snark"])
    def test_zk_run_never_derives_circuit_rows(self, monkeypatch, mode):
        """Set-up names the circuit by its digest and snark key set-up fills
        its tables from the element template, so of the circuit's rows they
        make only element 0's and 1's; every check goes gadget by gadget,
        so the rounds of a zk run with a tampering client make none."""
        monkeypatch.setattr(protocol, "_CIRCUIT_CACHE", {})
        monkeypatch.setattr(protocol, "_KEYPAIR_CACHE", {})
        with element_reads() as reads:
            trainer = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=3, seed=0,
                                        tamper_clients=[1]))
            assert reads == {0, 1}
            reads.clear()
            reports = trainer.train()
            assert not reads
        assert [r.verdicts[0] for r in reports] == ["Accepted"] * 3
        assert all(r.verdicts[1] != "Accepted" for r in reports)
        (cs,) = protocol._CIRCUIT_CACHE.values()
        assert cs.gadgets

    @pytest.mark.parametrize("mode", ["zk-mock", "zk-snark"])
    def test_zk_run_never_reads_wire_names(self, monkeypatch, mode):
        """A circuit derives its wire names from its banks when they are
        read, and only error messages read them, so a zk run with a
        tampering client never reads them."""
        monkeypatch.setattr(protocol, "_CIRCUIT_CACHE", {})
        monkeypatch.setattr(protocol, "_KEYPAIR_CACHE", {})
        names, reads = circuit.ConstraintSystem.var_names, []

        def guarded(cs):
            reads.append(cs.kind)
            return names.fget(cs)

        monkeypatch.setattr(circuit.ConstraintSystem, "var_names", property(guarded))
        reports = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=3, seed=0,
                                    tamper_clients=[1])).train()
        assert [r.verdicts[0] for r in reports] == ["Accepted"] * 3
        assert all(r.verdicts[1] != "Accepted" for r in reports)
        assert reads == []

    @pytest.mark.parametrize("mode", ["zk-mock", "none"])
    def test_eval_loss_is_the_server_step_loss(self, mode):
        tr = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=1, seed=3))
        for r in range(3):
            report = tr.run_round(r)
            smashed = client_forward(tr.model.client, tr.eval_batch).smashed
            loss, _, _ = server_step(tr.model.server, smashed, tr.eval_batch.y)
            assert report.eval_loss == loss

    def test_two_clients_five_rounds_all_accept_loss_decreases(self):
        # fixed one-batch shards: full-batch descent, monotone by construction
        cfg = SimConfig(mode="zk-mock", num_clients=2, m=M, rounds=5, seed=0,
                        lr=0.05, samples_per_client=32, batch_size=32,
                        blob_spread=2.0, blob_noise=1.0)
        reports = Trainer(cfg).train()
        assert len(reports) == 5
        assert all(v == "Accepted" for r in reports for v in r.verdicts.values())
        losses = [r.loss for r in reports]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        evals = [r.eval_loss for r in reports]
        assert all(e is not None for e in evals)

    def test_every_applied_update_has_accept_verdict(self, monkeypatch):
        verdicts = []
        orig = VerifierEntity.verify

        def counted(self, statement, proof):
            verdicts.append(orig(self, statement, proof))
            return verdicts[-1]

        monkeypatch.setattr(VerifierEntity, "verify", counted)
        cfg = SimConfig(mode="zk-mock", num_clients=3, m=M, rounds=3, seed=4)
        reports = Trainer(cfg).train()
        applied = sum(1 for r in reports for v in r.verdicts.values() if v == "Accepted")
        # two verified messages per applied client turn
        assert len(verdicts) == 2 * applied
        assert all(v is Verdict.ACCEPT for v in verdicts)

    def test_eval_loss_falls_under_the_default_config(self):
        reports = Trainer(SimConfig()).train()
        evals = [r.eval_loss for r in reports]
        assert evals[-1] < evals[0] / 10

    def test_eval_accuracy_reaches_one_within_five_rounds_under_the_default_config(self):
        tr = Trainer(SimConfig())
        accuracies = []
        for r in range(5):
            report = tr.run_round(r)
            smashed = client_forward(tr.model.client, tr.eval_batch).smashed
            _, probs, _ = server_loss(tr.model.server, smashed, tr.eval_batch.y)
            assert report.eval_accuracy == np.mean(probs.argmax(axis=1) == tr.eval_batch.y)
            accuracies.append(report.eval_accuracy)
        assert 1.0 in accuracies

    def test_statement_digests_deterministic(self):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=2, seed=9)
        t1, t2 = Trainer(cfg), Trainer(cfg)
        t1.run_round(0)
        t2.run_round(0)
        assert t1.last_update[0].digest() == t2.last_update[0].digest()

    def test_snark_mode_round(self):
        cfg = SimConfig(mode="zk-snark", num_clients=2, m=M, rounds=2, seed=0)
        reports = Trainer(cfg).train()
        assert all(v == "Accepted" for r in reports for v in r.verdicts.values())

    def test_proven_transition_matches_quantized_addition(self):
        # with n = 1 and K dequantizing to 1, W' = quantized W + U elementwise
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=3, seed=2)
        tr = Trainer(cfg)
        tr.train()
        c = tr.constants
        assert (tr.k_q - c.z_k) * 2 ** -c.f_k == 1.0
        s = tr.last_update[0].signed
        w_new, w_old = s[:M], s[M : 2 * M]
        assert np.array_equal(w_new, tr.wq_cur)
        u = private_u(tr) - c.z_u
        assert np.array_equal(w_old - c.z_w + u + c.z_wp, w_new)  # equal scales: exact addition


class TestTamperHandling:
    def test_tampering_client_rejected_other_applied(self):
        cfg = SimConfig(mode="zk-mock", num_clients=2, m=M, rounds=4, seed=0,
                        tamper_clients=[1])
        reports = Trainer(cfg).train()
        for r in reports:
            assert r.verdicts[1] == "RejectedProof"
            assert r.verdicts[0] == "Accepted"
            assert not r.stalled

    def test_byzantine_containment_bit_exact(self):
        tampered = Trainer(SimConfig(mode="zk-mock", num_clients=2, m=M, rounds=5,
                                     seed=0, tamper_clients=[1]))
        tampered.train()
        honest = Trainer(SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=5,
                                   seed=0, data_partitions=2))
        honest.train()
        assert models_equal(tampered, honest)

    def test_sole_client_rejection_stalls_round(self):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=2, seed=0,
                        tamper_clients=[0])
        reports = Trainer(cfg).train()
        assert all(r.stalled for r in reports)
        assert all(r.loss is None for r in reports)

    def test_one_of_three_excluded_two_contribute(self):
        cfg = SimConfig(mode="zk-mock", num_clients=3, m=M, rounds=2, seed=1,
                        tamper_clients=[1])
        reports = Trainer(cfg).train()
        for r in reports:
            accepted = [cid for cid, v in r.verdicts.items() if v == "Accepted"]
            assert sorted(accepted) == [0, 2]

    def test_suspect_flag_after_threshold(self):
        cfg = SimConfig(mode="zk-mock", num_clients=2, m=M, rounds=4, seed=0,
                        tamper_clients=[1], suspect_threshold=3)
        reports = Trainer(cfg).train()
        assert 1 not in reports[1].suspects  # only two rejections so far
        assert 1 in reports[2].suspects
        assert 1 in reports[3].suspects

    def test_excluded_client_rejoins_and_recovers(self):
        # client 2 tampers in round 1 only
        cfg = SimConfig(mode="zk-mock", num_clients=3, m=M, rounds=3, seed=5)
        tr = Trainer(cfg)
        verdicts, counts = [], []
        for r in range(3):
            tr.clients[2].tamper = r == 1
            report = tr.run_round(r)
            verdicts.append(report.verdicts[2])
            counts.append(tr.clients[2].rejection_count)
            assert 2 not in report.suspects
        assert verdicts == ["Accepted", "RejectedProof", "Accepted"]
        assert counts == [0, 1, 0]


class TestBaselineModes:
    def test_none_mode_applies_everything_marks_skipped(self):
        cfg = SimConfig(mode="none", num_clients=2, m=M, rounds=3, seed=0)
        tr = Trainer(cfg)
        reports = tr.train()
        assert all(r.verification_skipped for r in reports)
        assert all(v == "Accepted" for r in reports for v in r.verdicts.values())
        assert tr.pe is None and tr.ve is None

    def test_blockchain_mode_records_two_blocks_per_turn(self):
        cfg = SimConfig(mode="blockchain", num_clients=2, m=M, rounds=3, seed=0)
        tr = Trainer(cfg)
        tr.train()
        assert len(tr.chain) == 1 + 2 * 2 * 3  # genesis + 2 msgs per client turn
        assert tr.chain.verify()

    def test_zk_and_none_reach_similar_loss(self):
        zk = Trainer(SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=5, seed=0))
        zk.train()
        plain = Trainer(SimConfig(mode="none", num_clients=1, m=M, rounds=5, seed=0))
        plain.train()
        # cut-layer quantization snap perturbs the trajectory only slightly
        assert abs(zk.reports[-1].loss - plain.reports[-1].loss) < 0.05


class TestWideEta:
    """eta = 60 puts the quantized arithmetic on Python ints (ca * d**2 is
    past int64), so the trainer must still build int64 statements from it."""

    # pinned from the list-returning arithmetic the array forms replaced
    PINS = {
        "zk-mock": ("RejectedProof",
                    "3e05bec8fb819c6ca0827756297ed02a0db9ba3a03c4c483692476f2f7c1f1f0"),
        "blockchain": ("Accepted",
                       "43ca4d02e5151324f3348ed7ad4a214990e2d98a27fbb342be6def1ed72cd209"),
    }

    @pytest.mark.parametrize("mode", list(PINS))
    def test_verdicts_and_model_match_the_pins(self, mode):
        cfg = SimConfig(mode=mode, m=8, eta=60, num_clients=3, tamper_clients=[2], seed=4,
                        rounds=3)
        tr = Trainer(cfg)
        reports = tr.train()
        tampered, digest = self.PINS[mode]
        assert [r.verdicts for r in reports] == [
            {0: "Accepted", 1: "Accepted", 2: tampered}] * 3
        h = hashlib.sha256()
        for a in model_arrays(tr):
            h.update(a.tobytes())
        assert h.hexdigest() == digest
        assert tr.wq_cur.dtype == np.int64
        if tr.zk:
            assert tr.last_update[0].signed.dtype == np.int64


class TestMessages:
    def test_wire_form_round_trip_fields(self):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=1, seed=0)
        tr = Trainer(cfg)
        from zksplit.nn import client_forward

        batch = next(tr.clients[0].stream)

        smashed = client_forward(tr.model.client, batch).smashed
        msg = tr._message("SmashedForward", tr.clients[0].sender, 0,
                          smashed.z.astype("<f8").tobytes(), tr.last_update)
        env = msg.envelope()
        assert env["kind"] == "SmashedForward"
        assert env["sender"] == "client-0"
        assert env["statement_digest"] == msg.statement.digest()
        blob = msg.canonical_bytes()
        assert json.dumps(env, sort_keys=True, separators=(",", ":")).encode() in blob

    def test_no_raw_inputs_or_private_update_in_snark_messages(self):
        cfg = SimConfig(mode="zk-snark", num_clients=1, m=M, rounds=2, seed=0)
        tr = Trainer(cfg)

        captured = []
        orig = RoundMessage.canonical_bytes

        def capture(msg):
            blob = orig(msg)
            captured.append((msg, blob))
            return blob

        RoundMessage.canonical_bytes = capture
        try:
            tr.train()
        finally:
            RoundMessage.canonical_bytes = orig

        assert captured
        priv_u = private_u(tr).astype("<i8").tobytes()
        for msg, blob in captured:
            batch = next(Trainer(cfg).clients[0].stream)
            assert batch.x.astype("<f8").tobytes() not in blob  # raw inputs never leave
            assert priv_u not in blob  # private U appears in no message

    def test_mock_transcript_confined_to_proof_body(self):
        # the mock proof is a witness transcript by design (test-only, not
        # zero-knowledge); everything outside the proof bytes must be clean
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=2, seed=0)
        tr = Trainer(cfg)
        tr.train()
        batch = next(tr.clients[0].stream)
        from zksplit.nn import client_forward

        smashed = client_forward(tr.model.client, batch).smashed
        msg = tr._message("SmashedForward", tr.clients[0].sender, 99,
                          smashed.z.astype("<f8").tobytes(), tr.last_update)
        blob_without_proof = RoundMessage(
            kind=msg.kind, sender=msg.sender, round_id=msg.round_id,
            payload=msg.payload, statement=msg.statement, proof=None,
        ).canonical_bytes()
        priv_u = private_u(tr).astype("<i8").tobytes()
        assert priv_u not in blob_without_proof

    def test_overflow_sits_out_round(self):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=1, seed=0,
                        lr=1e9)  # enormous rate forces quantization overflow
        tr = Trainer(cfg)
        report = tr.run_round(0)
        assert report.verdicts[0] == "MissingProof"
        assert report.stalled


class TestMessagePipeline:
    @pytest.mark.parametrize("mode", ["zk-mock", "zk-snark", "none", "blockchain"])
    def test_one_witness_per_accepted_update(self, mode, monkeypatch):
        calls = []
        orig = protocol.generate_witness

        def counted(*args):
            calls.append(1)
            return orig(*args)

        monkeypatch.setattr(protocol, "generate_witness", counted)
        tr = Trainer(SimConfig(mode=mode, num_clients=3, m=M, rounds=2, seed=0,
                               tamper_clients=[2]))
        reports = tr.train()
        accepted = sum(v == "Accepted" for r in reports for v in r.verdicts.values())
        assert accepted == (4 if tr.zk else 6)  # only the zk modes reject tampering
        # the zero update at construction, then one per accepted turn
        assert len(calls) == (1 + accepted if tr.zk else 0)

    @pytest.mark.parametrize("mode", ["zk-mock", "zk-snark"])
    def test_forward_message_reproves_last_accepted_update(self, mode, monkeypatch):
        tr = Trainer(SimConfig(mode=mode, num_clients=3, m=M, rounds=2, seed=0,
                               tamper_clients=[2]))
        # the first turn proves the zero update W' = W, U = z_U
        w0 = np.asarray(tr.wq_cur, dtype=np.int64)
        zero = Statement(np.concatenate((w0, w0, [tr.k_q])))
        witness = generate_witness(tr.circuit, zero, [tr.constants.z_u] * M)
        # (statement digest, mock proof body) of the last accepted update
        last = (zero.digest(), witness.to_bytes())
        delivered = []
        orig = Trainer._deliver

        def record(self, msg, timings):
            ok = orig(self, msg, timings)
            delivered.append((msg, ok))
            return ok

        monkeypatch.setattr(Trainer, "_deliver", record)
        tr.train()
        forwards = 0
        for msg, ok in delivered:
            if msg.kind == "SmashedForward":
                forwards += 1
                assert msg.proof.statement_digest == last[0]
                if msg.sender != "client-2":  # the tamperer forges its statement
                    assert msg.statement.digest() == last[0]
                if mode == "zk-mock":
                    assert msg.proof.body == last[1]
            elif ok:
                last = (msg.statement.digest(), msg.proof.body)
        assert forwards == 6

    def test_each_witness_is_encoded_once(self, monkeypatch):
        encoded = []
        orig = circuit._frame

        def record(vec):
            out = orig(vec)
            if isinstance(vec, Witness):
                encoded.append(out)
            return out

        monkeypatch.setattr(circuit, "_frame", record)
        proved = []
        orig_prove = ProverEntity.prove

        def prove(self, statement, witness):
            proved.append(witness)
            return orig_prove(self, statement, witness)

        monkeypatch.setattr(ProverEntity, "prove", prove)
        reports = Trainer(SimConfig(mode="zk-mock", num_clients=1, m=8, rounds=3,
                                    seed=0)).train()
        assert all(r.verdicts == {0: "Accepted"} for r in reports)
        # a forward and a backward proof per round; each forward proof
        # re-proves the witness of the previous backward one
        assert len(proved) == 6 and len({id(w) for w in proved}) == 4
        bodies = [w.to_bytes() for w in dict.fromkeys(proved)]
        assert sorted(encoded) == sorted(bodies)

    @pytest.mark.parametrize("overrides, verdict", [
        ({"tamper_clients": [0]}, "RejectedProof"),
        ({"lr": 1e9}, "MissingProof"),  # quantization overflow
    ])
    def test_state_kept_when_sole_client_not_applied(self, overrides, verdict):
        tr = Trainer(SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=1, seed=0,
                               **overrides))
        last_update, wq_cur = tr.last_update, tr.wq_cur
        assert tr.run_round(0).verdicts[0] == verdict
        assert tr.last_update is last_update
        assert tr.wq_cur is wq_cur


class TestEntities:
    def test_missing_proof_rejected(self):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=1, seed=0)
        tr = Trainer(cfg)
        verdict = tr.ve.verify(Statement([0] * (2 * M + 1)), None)
        assert verdict is Verdict.REJECT


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(num_clients=0)
        with pytest.raises(ConfigError):
            SimConfig(mode="bogus")
        with pytest.raises(ConfigError):
            SimConfig(num_clients=64)
        with pytest.raises(ConfigError):
            SimConfig.from_dict({"not_a_field": 1})

    @pytest.mark.parametrize("bad,field", [
        ({"m": "5"}, "m"),
        ({"m": True}, "m"),  # a bool is not an int
        ({"m": 5.0}, "m"),
        ({"lr": "0.1"}, "lr"),
        ({"lr": False}, "lr"),
        ({"mode": 3}, "mode"),
        ({"tamper_clients": 3}, "tamper_clients"),
        ({"client_grid": [1, "2"]}, "client_grid"),
        ({"mode_grid": ["none", None]}, "mode_grid"),
        ({"out_dir": 7}, "out_dir"),
        ({"rounds": "3"}, "rounds"),
    ], ids=repr)
    def test_wrongly_typed_fields_are_refused(self, bad, field):
        with pytest.raises(ConfigError, match=f"^{field} must be "):
            SimConfig.from_dict(bad)

    def test_ints_for_floats_and_none_for_optionals_are_valid(self):
        cfg = SimConfig.from_dict({"lr": 1, "w_range": 4, "rounds": None, "out_dir": None,
                                   "data_partitions": None, "client_hidden": []})
        assert cfg.lr == 1 and cfg.rounds == cfg.epochs * cfg.batches_per_epoch

    @pytest.mark.parametrize("bad", [
        {"samples_per_client": 16, "batch_size": 32},  # no shard fills one batch
        {"tamper_clients": [5]},  # no such client: no one would tamper
        {"tamper_clients": [-1]},
        {"suspect_threshold": 0},  # every client would be a suspect every round
    ], ids=repr)
    def test_silently_wrong_configs_are_refused(self, bad):
        with pytest.raises(ConfigError):
            SimConfig(num_clients=2, **bad)

    def test_edges_of_the_refused_configs_are_valid(self):
        cfg = SimConfig(mode="none", num_clients=3, m=M, samples_per_client=32, batch_size=32,
                        tamper_clients=[0, 2], suspect_threshold=1)
        assert [c.tamper for c in Trainer(cfg).clients] == [True, False, True]

    def test_round_trip(self):
        cfg = SimConfig(mode="blockchain", num_clients=3, m=24, seed=5)
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_run_log_written(self, tmp_path):
        cfg = SimConfig(mode="zk-mock", num_clients=1, m=M, rounds=2, seed=0,
                        out_dir=str(tmp_path))
        Trainer(cfg).train()
        lines = (tmp_path / "run_log.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2
        rec = json.loads(lines[0])
        assert rec["round"] == 0 and rec["verdicts"] == {"0": "Accepted"}

    def test_rerun_into_same_dir_replaces_run_log(self, tmp_path):
        cfg = SimConfig(mode="none", num_clients=1, m=M, rounds=3, seed=0,
                        out_dir=str(tmp_path))
        Trainer(cfg).train()
        Trainer(cfg).train()
        lines = (tmp_path / "run_log.jsonl").read_text().strip().splitlines()
        assert [json.loads(line)["round"] for line in lines] == [0, 1, 2]
