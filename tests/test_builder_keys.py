"""A key carries its circuit's spec, and loading builds the circuit with its
builder through circuit.from_spec; the built circuit must have the digest
the key frame names.  A spec is bounded by MAX_CONSTRAINTS before anything
is built."""

import json
import zlib
from dataclasses import asdict

import pytest

from zksplit import circuit
from zksplit.backend import (
    DecodeError,
    MockBackend,
    Statement,
    decode_frame,
    encode_frame,
    load_proving_key,
    load_verifying_key,
)
from zksplit.circuit import (
    BUILDERS,
    MAX_CONSTRAINTS,
    CircuitConstants,
    CircuitError,
    ConstraintSystem,
    build_protocol_circuit,
    build_update_circuit,
    from_spec,
    generate_witness,
)
from zksplit.cli import main
from zksplit.snark import QapSnarkBackend

LOADERS = [load_proving_key, load_verifying_key]
EQUAL = CircuitConstants()


def written_rows(cs):
    """The number of rows the canonical JSON of cs lists."""
    return len(json.loads(cs.to_json())["constraints"])


def update_spec(**changes) -> bytes:
    """The spec of build_update_circuit(1, EQUAL) with values replaced."""
    d = json.loads(build_update_circuit(1, EQUAL).spec())
    for key, value in changes.items():
        (d if key in ("kind", "m") else d["constants"])[key] = value
    return json.dumps(d, separators=(",", ":"), sort_keys=True).encode()


def mock_frame(spec: bytes) -> bytes:
    """A mock key frame carrying ``spec``, named by the digest of
    build_update_circuit(1, EQUAL)."""
    return encode_frame("mock", build_update_circuit(1, EQUAL).digest(), spec)


@pytest.fixture
def builds(monkeypatch):
    """The (kind, m) of every circuit a builder is asked for."""
    calls = []

    def recording(kind, build):
        def record(m, constants):
            calls.append((kind, m))
            return build(m, constants)
        return record

    for kind, build in list(BUILDERS.items()):
        monkeypatch.setitem(BUILDERS, kind, recording(kind, build))
    return calls


@pytest.mark.parametrize("load", LOADERS)
def test_loaded_circuit_is_its_builders(load, builds):
    cs = build_update_circuit(1, EQUAL)
    data = MockBackend().setup(cs).verifying_key.to_bytes()
    assert decode_frame(data)[2] == cs.spec()
    loaded = load(data).cs
    assert builds == [("update", 1)]
    assert loaded.digest() == cs.digest()
    assert loaded.gadgets and loaded.to_json() == cs.to_json()


def test_spec_is_the_canonical_json_of_kind_m_and_constants():
    cs = build_protocol_circuit(3, CircuitConstants(eta=30))
    spec = cs.spec()
    assert spec == json.dumps({"kind": "composed", "m": 3, "constants": asdict(cs.constants)},
                              separators=(",", ":"), sort_keys=True).encode()
    assert from_spec(json.loads(spec)).digest() == cs.digest()
    assert len(build_protocol_circuit(500, EQUAL).spec()) == 168


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_constructor_makes_the_builders_whole_circuit(kind):
    """ConstraintSystem(kind, m, constants) lays out every wire and gadget
    before it returns, so it is the circuit the builder returns: it counts
    its rows, names its digest and checks a witness."""
    cs, built = ConstraintSystem(kind, 3, EQUAL), BUILDERS[kind](3, EQUAL)
    assert cs.gadgets and cs.num_constraints == written_rows(built) > 0
    assert cs.var_names == built.var_names and cs.digest() == built.digest()
    free = cs.gadgets[0].wires.start - 1 - cs.num_public
    assert cs.is_satisfied(generate_witness(cs, [0] * cs.num_public, [0] * free))


@pytest.mark.parametrize("kind,m", [("unknown", 1), ("composed", 0), ("update", -1)])
def test_constructor_refuses_what_no_builder_makes(kind, m):
    with pytest.raises(CircuitError):
        ConstraintSystem(kind, m, EQUAL)


def test_mock_keys_at_m1000_carry_only_the_spec():
    cs = build_protocol_circuit(1000, EQUAL)
    pair = MockBackend().setup(cs)
    for key in (pair.proving_key, pair.verifying_key):
        data = key.to_bytes()
        assert decode_frame(data)[2] == cs.spec()
        assert len(data) < 1024  # 551 002 bytes when keys carried the zlib'd circuit JSON


@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("m,eta", [(1, 22), (3, 22), (2, 40)])
def test_row_count_bound_is_the_builders(kind, m, eta):
    rows = written_rows(BUILDERS[kind](m, CircuitConstants(eta=eta)))
    assert rows == m * (1 + eta) * circuit._KINDS[kind][1]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_largest_m_under_the_bound_builds(kind, monkeypatch, builds):
    # under a bound of 5 elements the largest m is built in full, one more is not
    per_element = (1 + EQUAL.eta) * circuit._KINDS[kind][1]
    monkeypatch.setattr(circuit, "MAX_CONSTRAINTS", 5 * per_element)
    assert written_rows(from_spec({"kind": kind, "m": 5})) == 5 * per_element
    with pytest.raises(CircuitError, match="constraints"):
        from_spec({"kind": kind, "m": 6})
    assert builds == [(kind, 5)]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_past_the_bound_nothing_is_built(kind, builds):
    most = MAX_CONSTRAINTS // ((1 + EQUAL.eta) * circuit._KINDS[kind][1])
    for m in (most + 1, 10 ** 9, 10 ** 100):
        with pytest.raises(CircuitError, match=f"more than {MAX_CONSTRAINTS} constraints"):
            from_spec({"kind": kind, "m": m})
    assert builds == []


@pytest.mark.parametrize("load", LOADERS)
def test_oversized_spec_in_a_key_is_refused_before_building(load, builds):
    for spec in (update_spec(m=10 ** 9), update_spec(kind="composed", m=10 ** 9)):
        with pytest.raises(DecodeError, match="constraints"):
            load(mock_frame(spec))
    assert builds == []


def test_oversized_spec_through_the_cli_is_usage_error(tmp_path, capsys, builds):
    (tmp_path / "circuit.json").write_text('{"kind": "composed", "m": 1000000000}')
    (tmp_path / "values.json").write_text("[0]")
    rc = main(["prove", "--circuit", str(tmp_path / "circuit.json"),
               "--statement", str(tmp_path / "values.json"),
               "--witness", str(tmp_path / "values.json"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert main(["circuit", "export", "--m", str(10 ** 9)]) == 1
    err = capsys.readouterr().err
    assert err.count("constraints") == 2 and "Traceback" not in err
    assert builds == []


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("changes", [
    {"m": True}, {"m": 1.0}, {"m": "1"}, {"kind": "sum"}, {"kind": 1}, {"bogus": 1},
    {"eta": 22.0}, {"eta": True}, {"z_k": False}, {"eta": 21}, {"eta": 254}, {"eta": 10 ** 6},
    {"m": 10 ** 9},
], ids=repr)
def test_crafted_spec_is_refused_before_building(load, changes, builds):
    with pytest.raises(DecodeError, match="bad circuit spec"):
        load(mock_frame(update_spec(**changes)))
    assert builds == []


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("changes", [{"m": 0}, {"m": -1}, {"f_up": -10 ** 12}, {"f_w": -10 ** 12}],
                         ids=repr)
def test_spec_its_builder_refuses_is_decode_error(load, changes):
    # a scale constant 2**(10**12) would take 125 GB: the builder refuses
    # any constant past P before it computes one
    with pytest.raises(DecodeError, match="bad circuit spec"):
        load(mock_frame(update_spec(**changes)))


@pytest.mark.parametrize("load", LOADERS)
def test_only_the_canonical_spelling_of_a_spec_loads(load):
    spec = update_spec()
    assert load(mock_frame(spec)).cs.spec() == spec
    d = json.loads(spec)
    # each names the same circuit, in another spelling
    for other in (json.dumps(d).encode(), json.dumps(d, sort_keys=True).encode(),
                  spec + b" ", spec.decode().encode("utf-16"),
                  spec.replace(b'"z_w":0,', b""), b'{"kind":"update","m":1}'):
        assert from_spec(json.loads(other)).digest() == build_update_circuit(1, EQUAL).digest()
        with pytest.raises(DecodeError, match="bad circuit spec|not canonical"):
            load(mock_frame(other))


@pytest.mark.parametrize("load", LOADERS)
def test_key_packing_the_zlibd_circuit_json_is_decode_error(load):
    # the payload keys carried before they carried specs
    cs = build_update_circuit(1, EQUAL)
    with pytest.raises(DecodeError, match="bad circuit spec"):
        load(encode_frame("mock", cs.digest(), zlib.compress(cs.to_json().encode())))


@pytest.mark.parametrize("carried,named", [
    (("update", 1), ("composed", 1)),  # another kind
    (("composed", 2), ("composed", 1)),  # another m
], ids=["kind", "m"])
def test_spec_under_another_circuits_digest_is_decode_error(carried, named):
    """A frame carrying one builder's spec under another circuit's digest:
    the spec builds, but not the circuit the frame names."""
    cs = BUILDERS[carried[0]](carried[1], EQUAL)
    digest = BUILDERS[named[0]](named[1], EQUAL).digest()
    mock = MockBackend().setup(cs)
    snark = QapSnarkBackend().setup(cs, b"seed")
    for load, key in [*zip(LOADERS, (mock.proving_key, mock.verifying_key)),
                      (load_proving_key, snark.proving_key)]:
        backend, _, payload = decode_frame(key.to_bytes())
        assert load(key.to_bytes()).cs.digest() == cs.digest()
        with pytest.raises(DecodeError, match="digest mismatch"):
            load(encode_frame(backend, digest, payload))


def test_a_keys_spec_proves_through_the_cli(tmp_path, capsys):
    c = EQUAL
    cs = build_protocol_circuit(3, c)
    pk = QapSnarkBackend().setup(cs, b"seed").proving_key.to_bytes()
    payload = decode_frame(pk)[2]
    (tmp_path / "circuit.json").write_bytes(payload[4 : 4 + int.from_bytes(payload[:4], "little")])
    u, w = [120, -44, 913], [7, 2048, -5]
    up = circuit.quantized_aggregate(2 ** c.f_k, u, c)
    (tmp_path / "statement.json").write_text(
        json.dumps(circuit.quantized_update(w, up, c).tolist() + w + [2 ** c.f_k]))
    (tmp_path / "witness.json").write_text(json.dumps(u))
    capsys.readouterr()
    assert main(["prove", "--circuit", str(tmp_path / "circuit.json"),
                 "--statement", str(tmp_path / "statement.json"),
                 "--witness", str(tmp_path / "witness.json"),
                 "--out", str(tmp_path / "out"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["circuit_digest"] == cs.digest()
    assert decode_frame((tmp_path / "out" / "proof.bin").read_bytes())[1] == cs.digest()


DEPTH = 200_000
NESTED = {
    "array": b"[" * DEPTH + b"]" * DEPTH,
    "constants": update_spec().replace(
        b'"eta":22,', b'"eta":' + b"[" * DEPTH + b"]" * DEPTH + b","),
}


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("where", sorted(NESTED))
def test_deeply_nested_json_is_decode_error(load, where):
    with pytest.raises(DecodeError):
        load(mock_frame(NESTED[where]))


@pytest.mark.parametrize("where", sorted(NESTED))
def test_cli_verify_with_deeply_nested_key_is_runtime_error(tmp_path, capsys, where):
    statement = Statement([0])
    (tmp_path / "vk.bin").write_bytes(mock_frame(NESTED[where]))
    (tmp_path / "statement.json").write_text(json.dumps(list(statement.values)))
    (tmp_path / "proof.bin").write_bytes(encode_frame(
        "mock", "00" * 32, bytes.fromhex(statement.digest()), b""))
    rc = main(["verify", "--vk", str(tmp_path / "vk.bin"),
               "--statement", str(tmp_path / "statement.json"),
               "--proof", str(tmp_path / "proof.bin")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error:")
    assert "Traceback" not in err
