"""Loading serialized keys: a key frame either gives a key for the circuit
its digest names or raises DecodeError, never another exception."""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import (
    DecodeError,
    MockBackend,
    Proof,
    Statement,
    decode_frame,
    encode_frame,
    load_proving_key,
    load_verifying_key,
)
from zksplit.circuit import CircuitConstants, Witness, build_protocol_circuit
from zksplit.cli import main
from zksplit.field import P
from zksplit.snark import QapSnarkBackend

LOADERS = [load_proving_key, load_verifying_key]


@lru_cache(maxsize=None)
def circuit():
    return build_protocol_circuit(1, CircuitConstants())


@lru_cache(maxsize=None)
def snark_pk_tail() -> bytes:
    """The snark proving-key payload after its spec."""
    pk = QapSnarkBackend().setup(circuit(), b"seed").proving_key
    payload = decode_frame(pk.to_bytes())[2]
    return payload[4 + int.from_bytes(payload[:4], "little"):]


def canonical(d) -> bytes:
    return json.dumps(d, separators=(",", ":"), sort_keys=True).encode()


def mock_frame(d) -> bytes:
    """A mock key frame carrying the spec ``d``, named by circuit()'s digest."""
    return encode_frame("mock", circuit().digest(), canonical(d))


def snark_pk_frame(d, digest: str = None) -> bytes:
    """A snark proving-key frame carrying the spec ``d`` with the keys of circuit()."""
    spec = canonical(d)
    return encode_frame("snark", digest or circuit().digest(), len(spec).to_bytes(4, "little"),
                        spec, snark_pk_tail())


def altered(**changes):
    """circuit()'s spec with the value at each path (keys joined by "__") replaced."""
    d = json.loads(circuit().spec())
    for path, value in changes.items():
        *parents, last = path.split("__")
        target = d
        for key in parents:
            target = target[key]
        target[last] = value
    return d


# specs that no builder is asked for, or whose builder refuses them
CRAFTED = {
    "kind sum": altered(kind="sum"),
    "kind null": altered(kind=None),
    "extra key n": altered(n=1),
    "m true": altered(m=True),
    "m 1.0": altered(m=1.0),
    "m 0": altered(m=0),
    "m 10**9": altered(m=10 ** 9),
    "m nested": altered(m=[[[1]]]),
    "eta 21": altered(constants__eta=21),
    "eta 254": altered(constants__eta=254),
    "eta 22.0": altered(constants__eta=22.0),
    "z_k false": altered(constants__z_k=False),
    "unknown constant": altered(constants__bogus=1),
    "constants nested": altered(constants={"eta": {"eta": 22}}),
    "spec a list": [json.loads(circuit().spec())],
}


def test_unaltered_frames_load():
    d = altered()
    for load in LOADERS:
        assert load(mock_frame(d)).cs.digest() == circuit().digest()
    assert load_proving_key(snark_pk_frame(d)).cs.digest() == circuit().digest()


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_mock_key_is_decode_error(name, load):
    with pytest.raises(DecodeError, match="bad circuit spec"):
        load(mock_frame(CRAFTED[name]))


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_snark_proving_key_is_decode_error(name):
    with pytest.raises(DecodeError, match="bad circuit spec"):
        load_proving_key(snark_pk_frame(CRAFTED[name]))


def test_snark_proving_key_for_another_circuit_is_decode_error():
    other = build_protocol_circuit(2, CircuitConstants()).digest()
    with pytest.raises(DecodeError, match="digest mismatch"):
        load_proving_key(snark_pk_frame(altered(), digest=other))


@lru_cache(maxsize=None)
def snark_pair(m: int):
    return QapSnarkBackend().setup(build_protocol_circuit(m, CircuitConstants()), b"seed")


@pytest.mark.parametrize("short", ["wire tables", "private table"])
def test_snark_proving_key_tables_must_match_its_circuit(short):
    pk = snark_pair(4).proving_key
    if short == "wire tables":
        pk = dataclasses.replace(pk, a_tau=pk.a_tau[:10], b_tau=pk.b_tau[:10], c_tau=pk.c_tau[:10])
    else:
        pk = dataclasses.replace(pk, l_priv=pk.l_priv[:-1])
    with pytest.raises(DecodeError):
        load_proving_key(pk.to_bytes())


@pytest.mark.parametrize("m", [1, 8, 64])
@pytest.mark.parametrize("kind", ["proving", "verifying"])
def test_snark_key_round_trips_with_read_only_tables(kind, m):
    key = getattr(snark_pair(m), f"{kind}_key")
    data = key.to_bytes()
    loaded = (load_proving_key if kind == "proving" else load_verifying_key)(data)
    assert loaded.to_bytes() == data
    names = ["a_tau", "b_tau", "c_tau", "l_priv"] if kind == "proving" else ["ic"]
    for name in names:
        table = getattr(loaded, name)
        assert table.dtype == "<u2" and table.shape[1] == 16 and not table.flags.writeable
        assert table.tobytes() == getattr(key, name).tobytes()


@pytest.mark.parametrize("backend", ["mock", "snark"])
@pytest.mark.parametrize("kind", ["proving", "verifying"])
def test_key_with_trailing_bytes_is_decode_error(backend, kind):
    pair = snark_pair(1) if backend == "snark" else MockBackend().setup(circuit())
    data = getattr(pair, f"{kind}_key").to_bytes()
    load = load_proving_key if kind == "proving" else load_verifying_key
    assert load(data).to_bytes() == data
    for junk in (b"junk", b"\0"):
        with pytest.raises(DecodeError):
            load(data + junk)


@pytest.mark.parametrize("load", LOADERS)
def test_mock_key_cut_short_is_decode_error(load):
    data = MockBackend().setup(circuit()).verifying_key.to_bytes()
    for cut in (1, 8, len(decode_frame(data)[2]) - 1):
        with pytest.raises(DecodeError):
            load(data[:-cut])


@pytest.mark.parametrize("name", ["a_tau", "l_priv", "ic"])
def test_snark_key_element_not_reduced_is_decode_error(name):
    pair = snark_pair(1)
    key = pair.verifying_key if name == "ic" else pair.proving_key
    table = getattr(key, name).copy()
    table[-1] = np.frombuffer(P.to_bytes(32, "little"), dtype="<u2")
    bad = dataclasses.replace(key, **{name: table})
    load = load_verifying_key if name == "ic" else load_proving_key
    with pytest.raises(DecodeError, match="not reduced"):
        load(bad.to_bytes())


def test_snark_verifying_key_with_empty_table_is_decode_error(tmp_path, capsys):
    """A public table of no rows lacks the constant wire; such a key would
    have num_public == -1 and reject every statement."""
    vk = snark_pair(1).verifying_key
    data = dataclasses.replace(vk, num_public=-1, ic=vk.ic[:0]).to_bytes()
    with pytest.raises(DecodeError, match="no constant wire"):
        load_verifying_key(data)
    # a proof addressed to the key and the empty statement
    statement = Statement([])
    proof = Proof(backend="snark", circuit_digest=vk.circuit_digest,
                  statement_digest=statement.digest(), body=bytes(96))
    (tmp_path / "vk.bin").write_bytes(data)
    (tmp_path / "statement.json").write_text("[]")
    (tmp_path / "proof.bin").write_bytes(proof.to_bytes())
    rc = main(["verify", "--vk", str(tmp_path / "vk.bin"),
               "--statement", str(tmp_path / "statement.json"),
               "--proof", str(tmp_path / "proof.bin")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: key table holds no constant wire")
    assert "Traceback" not in err


EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, -1, 0, 21,
                                2 ** 64, 10 ** 6, "x", "1", "", [], {}, None])
JSON_VALUES = st.recursive(
    EDGE_VALUES | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
FIELDS = ["kind", "m", "constants", "n"] + [f"constants__{k}" for k in altered()["constants"]]


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_altered_spec_loads_exactly_when_it_is_the_circuits(field, value):
    d = altered(**{field: value})
    for load, frame in [(load_proving_key, mock_frame(d)), (load_verifying_key, mock_frame(d)),
                        (load_proving_key, snark_pk_frame(d))]:
        try:
            loaded = load(frame)
        except DecodeError:
            assert canonical(d) != circuit().spec()
        else:
            assert canonical(d) == circuit().spec() == loaded.cs.spec()


def test_cli_verify_with_crafted_spec_key_is_runtime_error(tmp_path, capsys):
    # a proof addressed to the key and statement, so verify would check it
    vk = mock_frame(CRAFTED["eta 21"])
    cs = circuit()
    statement = Statement([0] * cs.num_public)
    body = Witness([1] + [0] * (cs.num_wires - 1)).to_bytes()
    (tmp_path / "vk.bin").write_bytes(vk)
    (tmp_path / "statement.json").write_text(json.dumps(list(statement.values)))
    (tmp_path / "proof.bin").write_bytes(encode_frame(
        "mock", decode_frame(vk)[1], bytes.fromhex(statement.digest()), body))
    rc = main(["verify", "--vk", str(tmp_path / "vk.bin"),
               "--statement", str(tmp_path / "statement.json"),
               "--proof", str(tmp_path / "proof.bin")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: bad circuit spec")
    assert "Traceback" not in err
