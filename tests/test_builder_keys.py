"""A key's circuit is rebuilt by its builder from the header of the packed
text, and the rebuilt circuit must have the digest the key frame names.  A
header is bounded by its text before anything is built."""

import hashlib
import json
import zlib

import pytest

from zksplit import circuit
from zksplit.backend import (
    DecodeError,
    MockBackend,
    Statement,
    encode_frame,
    load_proving_key,
    load_verifying_key,
)
from zksplit.circuit import (
    CircuitConstants,
    ConstraintSystem,
    build_protocol_circuit,
    build_update_circuit,
)
from zksplit.cli import main
from zksplit.snark import QapSnarkBackend

LOADERS = [load_proving_key, load_verifying_key]
EQUAL = CircuitConstants()


def boolean_row_bytes() -> int:
    """The length of the shortest boolean row in a circuit's JSON, on wire 1."""
    cs = ConstraintSystem("update", 1, 1, EQUAL)
    cs.add_boolean(cs.add_private("b"))
    return len(json.dumps(cs.to_json_dict()["constraints"][0], separators=(",", ":")))


def mock_frame(text: bytes) -> bytes:
    """A mock key frame packing ``text``, named by the digest of that text."""
    return encode_frame("mock", hashlib.sha256(text).hexdigest(), zlib.compress(text))


def update_text(**header) -> bytes:
    """The text of build_update_circuit(1, EQUAL) with header values replaced."""
    text = build_update_circuit(1, EQUAL).to_json()
    for key, value in header.items():
        old = f'"{key}":1,' if key == "m" else f'"{key}":{getattr(EQUAL, key)},'
        assert text.count(old) == 1
        text = text.replace(old, f'"{key}":{json.dumps(value)},')
    return text.encode()


@pytest.fixture
def builds(monkeypatch):
    """The m of every circuit the update builder is asked for."""
    calls = []
    build = circuit.BUILDERS["update"]

    def recording(m, constants):
        calls.append(m)
        return build(m, constants)

    monkeypatch.setitem(circuit.BUILDERS, "update", recording)
    return calls


@pytest.mark.parametrize("load", LOADERS)
def test_loaded_circuit_is_its_builders(load, builds):
    cs = build_update_circuit(1, EQUAL)
    loaded = load(mock_frame(update_text())).cs
    assert builds == [1]
    assert loaded.digest() == cs.digest() and loaded.rows == cs.rows
    assert loaded.gadgets and loaded.to_json() == cs.to_json()


def padded_update_text(m: int, zeros: int) -> bytes:
    """update_text(m=m) with ``zeros`` bytes of "0" opening its constraint list."""
    return update_text(m=m).replace(b'"constraints":[', b'"constraints":[' + b"0" * zeros, 1)


@pytest.mark.parametrize("load", LOADERS)
def test_m_past_the_text_is_refused_before_building(load, builds):
    with pytest.raises(DecodeError, match="too large for its text"):
        load(mock_frame(update_text(m=10 ** 7)))
    assert builds == []
    # 4 MiB of zeros compress to about 4 KB, and admit only the m whose
    # m * eta boolean rows could fill them
    zeros = 1 << 22
    most = len(padded_update_text(1000, zeros)) // (EQUAL.eta * boolean_row_bytes())
    assert 1000 <= most < 9999
    frame = mock_frame(padded_update_text(most + 1, zeros))
    assert len(frame) < 10_000
    for m in (most + 1, len(padded_update_text(10 ** 5, zeros)) // (1 + EQUAL.eta)):
        with pytest.raises(DecodeError, match="too large for its text"):
            load(mock_frame(padded_update_text(m, zeros)))
    assert builds == []
    # the largest m the text admits is built, and fails only the digest check
    with pytest.raises(DecodeError, match="digest mismatch"):
        load(mock_frame(padded_update_text(most, zeros)))
    assert builds == [most]


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("header", [
    {"m": True}, {"m": 1.0}, {"m": "1"}, {"m": -1},
    {"eta": 22.0}, {"eta": True}, {"z_k": False}, {"eta": 254}, {"eta": 10 ** 6},
], ids=repr)
def test_crafted_header_is_refused_before_building(load, header, builds):
    with pytest.raises(DecodeError):
        load(mock_frame(update_text(**header)))
    assert builds == []


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("header", [{"m": 0}, {"f_up": -10 ** 12}, {"f_w": -10 ** 12}],
                         ids=repr)
def test_header_its_builder_refuses_is_decode_error(load, header):
    # a scale constant 2**(10**12) would take 125 GB: the builder refuses
    # any constant past P before it computes one
    with pytest.raises(DecodeError):
        load(mock_frame(update_text(**header)))


def hand_built() -> ConstraintSystem:
    """A circuit with a builder's kind and header that no builder writes,
    with as many boolean rows as the builder writes for its m."""
    cs = ConstraintSystem("update", 1, 1, EQUAL)
    x = cs.add_public("x")
    for t in range(EQUAL.eta):
        cs.add_boolean(cs.add_private(f"y:b{t}"))
    cs.add_constraint({x: 1}, {0: 1}, {x: 1})
    return cs


def builder_plus_a_row() -> ConstraintSystem:
    cs = build_protocol_circuit(1, EQUAL)
    cs.add_boolean(cs.num_wires - 1)
    return cs


@pytest.mark.parametrize("make", [hand_built, builder_plus_a_row])
def test_hand_built_circuit_key_is_decode_error(make):
    cs = make()
    pair = MockBackend().setup(cs)
    for load, key in zip(LOADERS, (pair.proving_key, pair.verifying_key)):
        with pytest.raises(DecodeError, match="digest mismatch"):
            load(key.to_bytes())
    # a snark proving key's tables may be refused first, by their wire count
    with pytest.raises(DecodeError, match="digest mismatch|key tables"):
        load_proving_key(QapSnarkBackend().setup(cs, b"seed").proving_key.to_bytes())


DEPTH = 200_000
NESTED = {
    "array": b"[" * DEPTH + b"]" * DEPTH,
    "constants": update_text().replace(
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
