import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from zksplit import circuit, cli
from zksplit.backend import WIRE_VERSION, Statement
from zksplit.circuit import (
    CircuitConstants,
    Witness,
    build_protocol_circuit,
    quantized_aggregate,
    quantized_update,
)
from zksplit.cli import main
from zksplit.field import P

from oracle import element_reads, reference_rows

C = CircuitConstants()


def run_cli(*argv):
    return main(list(argv))


# the private input U and the statement W', W, K of make_prove_fixture
U = [120, -44, 913]
W = [7, 2048, -5]
K = 2 ** C.f_k
STATEMENT = quantized_update(W, quantized_aggregate(K, U, C), C).tolist() + W + [K]


def make_prove_fixture(tmp_path: Path, tamper=False):
    spec = {"kind": "composed", "m": 3, "constants": {"eta": 22}}
    (tmp_path / "circuit.json").write_text(json.dumps(spec))
    stmt = [STATEMENT[0] + 1] + STATEMENT[1:] if tamper else STATEMENT
    (tmp_path / "statement.json").write_text(json.dumps(stmt))
    (tmp_path / "witness.json").write_text(json.dumps(U))


# JSON input files that no command reads: each is a usage error (exit 1)
# reported on one line, never a traceback or a runtime error
UNREADABLE = {
    "not UTF-8": b"\xff\xfe[1, 2]",
    "not JSON": b"[1, 2",
    "nested too deeply": b"[" * 100_000,
}


def assert_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTrain:
    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=list(UNREADABLE))
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, content):
        (tmp_path / "c.json").write_bytes(content)
        assert_usage_error(run_cli("train", "--config", str(tmp_path / "c.json")), capsys)

    @pytest.mark.parametrize("text", ["[]", "5", '"mode"'])
    def test_config_not_an_object_is_usage_error(self, tmp_path, capsys, text):
        (tmp_path / "c.json").write_text(text)
        assert_usage_error(run_cli("train", "--config", str(tmp_path / "c.json")), capsys)

    @pytest.mark.parametrize("command", ["train", "bench"])
    @pytest.mark.parametrize("cfg,field", [
        ({"m": "5"}, "m"), ({"tamper_clients": 3}, "tamper_clients"), ({"m": True}, "m"),
    ], ids=["m str", "tamper_clients int", "m bool"])
    def test_wrongly_typed_config_is_usage_error(self, tmp_path, capsys, command, cfg, field):
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        rc = run_cli(command, "--config", str(tmp_path / "c.json"))
        err = capsys.readouterr().err
        assert rc == 1 and err.startswith(f"error: {field} must be ")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_basic_run_exit_zero(self, tmp_path, capsys):
        rc = run_cli("train", "--mode", "zk-mock", "--clients", "2", "--m", "16",
                     "--rounds", "2", "--seed", "1", "--out", str(tmp_path / "run"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "Accepted" in out
        assert (tmp_path / "run" / "run_log.jsonl").exists()
        assert (tmp_path / "run" / "manifest.json").exists()
        assert (tmp_path / "run" / "model.json").exists()
        logged = [json.loads(line) for line in
                  (tmp_path / "run" / "run_log.jsonl").read_text().splitlines()]
        assert all(0.0 <= r["eval_accuracy"] <= 1.0 for r in logged)

    @pytest.mark.parametrize("corename", [True, False])
    def test_manifest_records_the_host(self, tmp_path, monkeypatch, corename):
        if not corename:  # an OpenBLAS, or a BLAS, that does not export the symbol
            monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: object())
        assert run_cli("train", "--mode", "none", "--m", "8", "--rounds", "1",
                       "--out", str(tmp_path)) == 0
        host = json.loads((tmp_path / "manifest.json").read_text())["host"]
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        assert host["numpy"] == np.__version__
        assert host["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert host["cpu_features"] == config["SIMD Extensions"]
        assert set(host["cpu_features"]) == {"baseline", "found"}
        if corename:
            assert isinstance(host["openblas_kernel"], str) and host["openblas_kernel"]
        else:
            assert host["openblas_kernel"] is None

    def test_json_output(self, capsys):
        rc = run_cli("train", "--mode", "none", "--clients", "1", "--m", "8",
                     "--rounds", "1", "--json")
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rounds"] == 1
        assert 0.0 <= summary["final_eval_accuracy"] <= 1.0

    def test_clients_zero_is_usage_error(self, capsys):
        assert run_cli("train", "--clients", "0", "--m", "8", "--rounds", "1") == 1

    def test_shard_smaller_than_a_batch_is_usage_error(self, tmp_path, capsys):
        cfg = {"samples_per_client": 16, "batch_size": 32, "mode": "none", "m": 8, "rounds": 1}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run_cli("train", "--config", str(tmp_path / "c.json")) == 1
        assert "batch_size" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("train", "--definitely-not-a-flag") == 1

    @pytest.mark.parametrize("eta", ["5", "254"])
    def test_eta_out_of_range_is_usage_error_before_the_manifest(self, tmp_path, capsys, eta):
        rc = run_cli("train", "--mode", "none", "--m", "8", "--rounds", "1",
                     "--eta", eta, "--out", str(tmp_path / "run"))
        assert_usage_error(rc, capsys)
        assert not (tmp_path / "run" / "manifest.json").exists()

    # each value fails in the run if the config lets it through
    REFUSED_AT_CONFIG = {
        "lr 0": {"lr": 0},
        "lr negative": {"lr": -0.05},
        "input_dim 0": {"input_dim": 0},
        "num_classes 0": {"num_classes": 0},
        "client_hidden entry 0": {"client_hidden": [0]},
        "server_hidden entry 0": {"server_hidden": [16, 0]},
        "blob_noise negative": {"blob_noise": -1},
        "blob_spread negative": {"blob_spread": -1},
        "w_range 0": {"w_range": 0},
        "w_range too wide": {"w_range": 1e300},
        "k_range negative": {"k_range": -1},
        "tamper_clients repeated": {"tamper_clients": [0, 0]},
    }

    @pytest.mark.parametrize("overrides", REFUSED_AT_CONFIG.values(), ids=list(REFUSED_AT_CONFIG))
    def test_bad_value_is_usage_error_before_the_manifest(self, tmp_path, capsys, overrides):
        (tmp_path / "c.json").write_text(json.dumps(overrides))
        rc = run_cli("train", "--config", str(tmp_path / "c.json"), "--m", "4", "--rounds", "1",
                     "--out", str(tmp_path / "run"))
        assert_usage_error(rc, capsys)
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("mode", ["none", "blockchain", "zk-mock", "zk-snark"])
    def test_reproducible_from_manifest(self, tmp_path, mode):
        out1 = tmp_path / "a"
        rc = run_cli("train", "--mode", mode, "--clients", "2", "--m", "12",
                     "--rounds", "3", "--seed", "7", "--out", str(out1))
        assert rc == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        cfg_file = tmp_path / "replay.json"
        replay_cfg = dict(manifest["config"])
        replay_cfg["out_dir"] = None
        cfg_file.write_text(json.dumps(replay_cfg))
        out2 = tmp_path / "b"
        rc = run_cli("train", "--config", str(cfg_file), "--out", str(out2))
        assert rc == 0
        # bit-identical checkpoint, and ledger in blockchain mode, from the manifest alone
        ledger = ("chain.jsonl",) if mode == "blockchain" else ()
        for name in ("model.bin", "model.json", *ledger):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert (out2 / "chain.jsonl").exists() == bool(ledger)
        log1 = (out1 / "run_log.jsonl").read_text()
        log2 = (out2 / "run_log.jsonl").read_text()
        strip = lambda lines: [
            {k: v for k, v in json.loads(l).items() if k != "timings"}
            for l in lines.strip().splitlines()
        ]
        assert strip(log1) == strip(log2)


class TestProveVerify:
    def test_prove_then_verify_accepts(self, tmp_path, capsys):
        make_prove_fixture(tmp_path)
        rc = run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--witness", str(tmp_path / "witness.json"),
                     "--backend", "snark", "--out", str(tmp_path / "proofs"))
        assert rc == 0
        rc = run_cli("verify", "--vk", str(tmp_path / "proofs" / "vk.bin"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--proof", str(tmp_path / "proofs" / "proof.bin"))
        assert rc == 0

    def test_verify_tampered_statement_exit_two(self, tmp_path, capsys):
        make_prove_fixture(tmp_path)
        run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                "--statement", str(tmp_path / "statement.json"),
                "--witness", str(tmp_path / "witness.json"),
                "--backend", "mock", "--out", str(tmp_path / "proofs"))
        tampered = tmp_path / "tampered.json"
        vals = json.loads((tmp_path / "statement.json").read_text())
        tampered.write_text(json.dumps([vals[0] + 1] + vals[1:]))
        rc = run_cli("verify", "--vk", str(tmp_path / "proofs" / "vk.bin"),
                     "--statement", str(tampered),
                     "--proof", str(tmp_path / "proofs" / "proof.bin"))
        assert rc == 2

    def test_prove_with_inconsistent_statement_is_runtime_error(self, tmp_path, capsys):
        make_prove_fixture(tmp_path, tamper=True)
        rc = run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--witness", str(tmp_path / "witness.json"),
                     "--backend", "mock", "--out", str(tmp_path / "proofs"))
        assert rc == 3

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = run_cli("verify", "--vk", str(tmp_path / "nope.bin"),
                     "--statement", str(tmp_path / "nope.json"),
                     "--proof", str(tmp_path / "nope.bin"))
        assert rc == 3

    def test_key_and_proof_of_different_backends_exit_two(self, tmp_path, capsys):
        make_prove_fixture(tmp_path)
        for backend in ("mock", "snark"):
            assert run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                           "--statement", str(tmp_path / "statement.json"),
                           "--witness", str(tmp_path / "witness.json"),
                           "--backend", backend, "--out", str(tmp_path / backend)) == 0
        capsys.readouterr()
        for key, proof in (("mock", "snark"), ("snark", "mock")):
            rc = run_cli("verify", "--vk", str(tmp_path / key / "vk.bin"),
                         "--statement", str(tmp_path / "statement.json"),
                         "--proof", str(tmp_path / proof / "proof.bin"))
            out = capsys.readouterr()
            assert rc == 2
            assert out.out == "Reject\n" and out.err == ""

    def _verify_old_version(self, tmp_path, capsys, backend, name, version):
        """Prove, rewrite ``name`` as WIRE_VERSION ``version`` wrote it, and
        verify: the command must end with one error line."""
        make_prove_fixture(tmp_path)
        assert run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                       "--statement", str(tmp_path / "statement.json"),
                       "--witness", str(tmp_path / "witness.json"),
                       "--backend", backend, "--out", str(tmp_path / "proofs")) == 0
        path = tmp_path / "proofs" / name
        data = path.read_bytes()
        if version in (2, 3) and (backend, name) == ("mock", "proof.bin"):
            # versions 2 and 3 sent the whole witness at int16, version 3
            # with its trailing run of bits as a bit tail
            assert data[66] == 2 + 0x80
            signed = Witness.from_bytes(data[66:], Statement(STATEMENT)).signed
            n = len(signed)
            k = n if version == 2 else 1 + max(i for i, v in enumerate(signed.tolist())
                                               if v not in (0, 1))
            head = signed[:k].astype("<i2").tobytes()
            if k == n:
                data = data[:66] + bytes([2]) + n.to_bytes(4, "little") + head
            else:
                bits = np.packbits(signed[k:].astype(np.uint8), bitorder="little").tobytes()
                data = data[:66] + bytes([2 + 0x80]) + n.to_bytes(4, "little") \
                    + (n - k).to_bytes(4, "little") + head + bits
        path.write_bytes(bytes([version]) + data[1:])
        capsys.readouterr()
        rc = run_cli("verify", "--vk", str(tmp_path / "proofs" / "vk.bin"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--proof", str(tmp_path / "proofs" / "proof.bin"))
        out = capsys.readouterr()
        assert rc == 3 and out.out == ""
        assert out.err == f"error: version mismatch: {version} != {WIRE_VERSION}\n"

    @pytest.mark.parametrize("name", ["proof.bin", "vk.bin"])
    @pytest.mark.parametrize("backend", ["mock", "snark"])
    def test_version_1_frame_is_one_error_line(self, tmp_path, capsys, backend, name):
        """A key or proof written before WIRE_VERSION 2 is refused by its
        version byte, which decoding reads before anything else."""
        self._verify_old_version(tmp_path, capsys, backend, name, 1)

    @pytest.mark.parametrize("name", ["proof.bin", "vk.bin"])
    @pytest.mark.parametrize("backend", ["mock", "snark"])
    def test_version_2_frame_is_one_error_line(self, tmp_path, capsys, backend, name):
        """A key or proof of WIRE_VERSION 2, whose mock proof carries its
        witness frame with no bit tail, is refused by its version byte."""
        self._verify_old_version(tmp_path, capsys, backend, name, 2)

    @pytest.mark.parametrize("name", ["proof.bin", "vk.bin"])
    @pytest.mark.parametrize("backend", ["mock", "snark"])
    def test_version_3_frame_is_one_error_line(self, tmp_path, capsys, backend, name):
        """A key or proof of WIRE_VERSION 3, whose mock proof carries wire 0
        and the public wires, is refused by its version byte."""
        self._verify_old_version(tmp_path, capsys, backend, name, 3)

    def _proved(self, tmp_path):
        make_prove_fixture(tmp_path)
        assert run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                       "--statement", str(tmp_path / "statement.json"),
                       "--witness", str(tmp_path / "witness.json"),
                       "--backend", "mock", "--out", str(tmp_path / "proofs")) == 0

    # (command, file replaced, its content): each is a usage error, reported
    # on one line and never accepted
    MALFORMED = {
        "verify, float in statement": ("verify", "statement.json", "[4.9, 6, 1, 2]"),
        "verify, statement not a list": ("verify", "statement.json", "5"),
        "verify, bool in statement": ("verify", "statement.json", "[true]"),
        "prove, statement not a list": ("prove", "statement.json", "5"),
        "prove, string in witness": ("prove", "witness.json", '[1, "2", 3]'),
        "prove, float in witness": ("prove", "witness.json", "[120.0, -44, 913]"),
        "prove, unknown constant": ("prove", "circuit.json",
                                    '{"kind": "composed", "m": 3, "constants": {"bogus": 1}}'),
        "prove, unknown kind": ("prove", "circuit.json", '{"kind": "sum", "m": 3}'),
        "prove, removed n key": ("prove", "circuit.json", '{"kind": "aggregation", "m": 3, "n": 2}'),
        "prove, float m": ("prove", "circuit.json", '{"kind": "composed", "m": 3.0}'),
        "prove, spec not an object": ("prove", "circuit.json", "[]"),
        # an element past P, reduced mod P, would be the proved one
        "verify, element past P": ("verify", "statement.json",
                                   json.dumps([STATEMENT[0] + P] + STATEMENT[1:])),
        "prove, witness element past P": ("prove", "witness.json", json.dumps([U[0] + P] + U[1:])),
    }

    @pytest.mark.parametrize("command,name,text", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_input_is_usage_error(self, tmp_path, capsys, command, name, text):
        self._proved(tmp_path)
        capsys.readouterr()
        (tmp_path / name).write_text(text)
        if command == "prove":
            rc = run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                         "--statement", str(tmp_path / "statement.json"),
                         "--witness", str(tmp_path / "witness.json"),
                         "--backend", "mock", "--out", str(tmp_path / "again"))
        else:
            rc = run_cli("verify", "--vk", str(tmp_path / "proofs" / "vk.bin"),
                         "--statement", str(tmp_path / name),
                         "--proof", str(tmp_path / "proofs" / "proof.bin"))
        out = capsys.readouterr()
        assert rc == 1
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "Accept" not in out.out


    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=list(UNREADABLE))
    @pytest.mark.parametrize("name", ["circuit.json", "statement.json", "witness.json"])
    def test_unreadable_prove_input_is_usage_error(self, tmp_path, capsys, name, content):
        make_prove_fixture(tmp_path)
        (tmp_path / name).write_bytes(content)
        rc = run_cli("prove", "--circuit", str(tmp_path / "circuit.json"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--witness", str(tmp_path / "witness.json"),
                     "--backend", "mock", "--out", str(tmp_path / "proofs"))
        assert_usage_error(rc, capsys)
        assert not (tmp_path / "proofs").exists()

    @pytest.mark.parametrize("content", UNREADABLE.values(), ids=list(UNREADABLE))
    def test_unreadable_verify_statement_is_usage_error(self, tmp_path, capsys, content):
        self._proved(tmp_path)
        capsys.readouterr()
        (tmp_path / "statement.json").write_bytes(content)
        rc = run_cli("verify", "--vk", str(tmp_path / "proofs" / "vk.bin"),
                     "--statement", str(tmp_path / "statement.json"),
                     "--proof", str(tmp_path / "proofs" / "proof.bin"))
        assert_usage_error(rc, capsys)


class TestLedgerCommand:
    def test_verify_good_and_tampered(self, tmp_path, capsys):
        from zksplit.ledger import Chain

        chain = Chain.genesis()
        for i in range(10):
            chain.append_payload(b"m%d" % i, "client-0")
        path = tmp_path / "chain.jsonl"
        chain.save(path)
        assert run_cli("ledger", "verify", str(path)) == 0
        path.write_text(path.read_text().replace("client-0", "mallory", 1))
        assert run_cli("ledger", "verify", str(path)) == 2

    @pytest.mark.parametrize("line,why", [
        ("{}", "a block is an object"),
        ("[]", "a block is an object"),
        ("sender 7", "block sender must be str"),
        ("sender surrogate", "not encodable as UTF-8"),
        ("index true", "block index must be int"),
        ("index -1", "does not fit in 8 bytes"),
        ("hash zz", "not 64 lowercase hex digits"),
        ("hash upper case", "not 64 lowercase hex digits"),
        ("digest with spaces", "not 64 lowercase hex digits"),
        ("short prev_hash", "not 64 lowercase hex digits"),
        ("[1, 2", "Expecting"),
        ("saved with timestamp_ms", "a block is an object with the keys"),
    ])
    def test_malformed_line_is_runtime_error_naming_it(self, tmp_path, capsys, line, why):
        from zksplit.ledger import Chain

        chain = Chain.genesis()
        chain.append_payload(b"m", "client-0")
        good = chain.blocks[1].to_dict()
        edits = {"sender 7": {"sender": 7}, "sender surrogate": {"sender": "\ud800"},
                 "index true": {"index": True},
                 "index -1": {"index": -1}, "hash zz": {"hash": "zz"},
                 "hash upper case": {"hash": good["hash"].upper()},
                 "digest with spaces": {"payload_digest": " ".join(
                     good["payload_digest"][i : i + 2] for i in range(0, 64, 2))},
                 "short prev_hash": {"prev_hash": good["prev_hash"][:-2]},
                 "saved with timestamp_ms": {"timestamp_ms": 1_700_000_000_000}}
        bad = json.dumps({**good, **edits[line]}) if line in edits else line
        path = tmp_path / "chain.jsonl"
        path.write_text(json.dumps(chain.blocks[0].to_dict()) + "\n" + bad + "\n")
        assert run_cli("ledger", "verify", str(path)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: ") and why in err
        assert err.count("\n") == 1


class TestCircuitExport:
    def test_export_writes_json(self, tmp_path, capsys):
        out = tmp_path / "circ.json"
        rc = run_cli("circuit", "export", "--kind", "update", "--m", "3",
                     "--out", str(out))
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "update"
        assert len(data["constraints"]) == 3 * (1 + 22)
        assert data["variables"][0] == "one"

    @pytest.mark.parametrize("kind,m,eta", [("composed", 1000, None), ("update", 3, 60)])
    def test_export_counts_rows_without_deriving_them(self, tmp_path, capsys, kind, m, eta):
        """Export writes the text from the element template and counts the
        rows, so of the rows it makes only element 0's and 1's."""
        out = tmp_path / "circ.json"
        eta_args = ("--eta", str(eta)) if eta else ()
        with element_reads() as reads:
            assert run_cli("circuit", "export", "--kind", kind, "--m", str(m), *eta_args,
                           "--compact", "--out", str(out)) == 0
        assert reads == {0, 1}
        cs = circuit.BUILDERS[kind](m, circuit.CircuitConstants(eta=eta or 22))
        assert capsys.readouterr().out == (
            f"wrote {out} ({cs.num_wires} wires, {len(reference_rows(cs))} constraints)\n")
        assert out.read_bytes() == cs.to_json().encode()

    def test_kind_choices_are_the_builders(self, capsys):
        assert run_cli("circuit", "export", "--kind", "aggregation", "--m", "1", "--n", "2") == 1
        assert run_cli("circuit", "export", "--kind", "sum") == 1

    def test_export_stdout(self, capsys):
        rc = run_cli("circuit", "export", "--kind", "aggregation", "--m", "1",
                     "--compact")
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "aggregation"

    def test_compact_export_is_digest_preimage(self, tmp_path, capsys):
        cs = build_protocol_circuit(3, C)
        assert run_cli("circuit", "export", "--m", "3", "--compact") == 0
        text = capsys.readouterr().out
        assert text.endswith("\n")
        assert hashlib.sha256(text[:-1].encode()).hexdigest() == cs.digest()
        out = tmp_path / "circ.json"
        assert run_cli("circuit", "export", "--m", "3", "--compact", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == cs.digest()

    def test_indented_export_is_same_value(self, capsys):
        assert run_cli("circuit", "export", "--m", "3") == 0
        text = capsys.readouterr().out
        assert "\n  " in text
        assert json.loads(text) == json.loads(build_protocol_circuit(3, C).to_json())


class TestBenchCommand:
    def test_tiny_bench(self, tmp_path, capsys):
        cfg = {
            "m": 8, "reps": 2, "client_grid": [1], "m_grid": [8],
            "mode_grid": ["none"], "batches_per_epoch": 2,
            "batch_size": 8, "samples_per_client": 32,
        }
        cfg_file = tmp_path / "bench.json"
        cfg_file.write_text(json.dumps(cfg))
        rc = run_cli("bench", "--config", str(cfg_file), "--no-real-epoch",
                     "--out", str(tmp_path / "out"))
        assert rc == 0
        assert (tmp_path / "out" / "bench.csv").exists()
        assert (tmp_path / "out" / "bench.json").exists()
        out = capsys.readouterr().out
        assert "batch_time" in out

    def test_interrupted_bench_leaves_earlier_tables(self, tmp_path, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("zksplit.cli.run_benchmark", interrupted)
        (tmp_path / "bench.csv").write_text("metric,value\nbatch_time,1.0\n")
        with pytest.raises(KeyboardInterrupt):
            run_cli("bench", "--mode", "none", "--out", str(tmp_path))
        assert (tmp_path / "bench.csv").read_text() == "metric,value\nbatch_time,1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.csv"]


class TestBackendsCommand:
    def test_lists_availability(self, capsys):
        assert run_cli("backends", "--json") == 0
        assert json.loads(capsys.readouterr().out) == {"mock": True, "snark": True}
        assert run_cli("backends") == 0
        assert capsys.readouterr().out == "mock: available\nsnark: available\n"
