"""Loading serialized keys: a key frame either gives a key for the circuit
its digest names or raises DecodeError, never another exception."""

import copy
import dataclasses
import hashlib
import json
import zlib
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import (
    DecodeError,
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
    """The snark proving-key payload after its packed circuit."""
    pk = QapSnarkBackend().setup(circuit(), b"seed").proving_key
    payload = decode_frame(pk.to_bytes())[2]
    return payload[4 + int.from_bytes(payload[:4], "little"):]


def canonical(d: dict) -> str:
    return json.dumps(d, separators=(",", ":"), sort_keys=True)


def mock_frame(d: dict) -> bytes:
    """A mock key frame packing ``d``, named by the digest of its own text."""
    text = canonical(d)
    return encode_frame("mock", hashlib.sha256(text.encode()).hexdigest(),
                        zlib.compress(text.encode()))


def snark_pk_frame(d: dict, digest: str = None) -> bytes:
    """A snark proving-key frame packing ``d`` with the keys of circuit()."""
    text = canonical(d)
    blob = zlib.compress(text.encode())
    digest = digest or hashlib.sha256(text.encode()).hexdigest()
    return encode_frame("snark", digest, len(blob).to_bytes(4, "little"), blob, snark_pk_tail())


def altered(**changes) -> dict:
    d = copy.deepcopy(circuit().to_json_dict())
    for path, value in changes.items():
        *parents, last = path.split("__")
        target = d
        for key in parents:
            target = target[int(key) if key.isdigit() else key]
        target[int(last) if last.isdigit() else last] = value
    return d


# the first constraint's A is [[0, 0], [3, ca]]: a wire above 3 in its last
# term keeps the text canonical, so the frame's digest matches its circuit
CRAFTED = {
    "wire 10**6": altered(constraints__0__0__1__0=10 ** 6),
    "eta 21": altered(constants__eta=21),
    'wire "x"': altered(constraints__0__0__0__0="x"),
    "wire Infinity": altered(constraints__0__0__0__0=float("inf")),
    "counts": altered(num_private=circuit().num_private + 1),
}


def test_unaltered_frames_load():
    d = circuit().to_json_dict()
    for load in LOADERS:
        assert load(mock_frame(d)).cs.digest() == circuit().digest()
    assert load_proving_key(snark_pk_frame(d)).cs.digest() == circuit().digest()


@pytest.mark.parametrize("load", LOADERS)
@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_mock_key_is_decode_error(name, load):
    with pytest.raises(DecodeError):
        load(mock_frame(CRAFTED[name]))


@pytest.mark.parametrize("name", sorted(CRAFTED))
def test_crafted_snark_proving_key_is_decode_error(name):
    with pytest.raises(DecodeError):
        load_proving_key(snark_pk_frame(CRAFTED[name]))


def test_snark_proving_key_for_another_circuit_is_decode_error():
    other = build_protocol_circuit(2, CircuitConstants()).digest()
    with pytest.raises(DecodeError, match="digest mismatch"):
        load_proving_key(snark_pk_frame(circuit().to_json_dict(), digest=other))


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


EDGE_VALUES = st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, -1, 0, 21,
                                2 ** 64, 10 ** 6, "x", "1", "", [], {}, None])
JSON_VALUES = st.recursive(
    EDGE_VALUES | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
FIELDS = (
    ["constants", "constraints", "kind", "m", "n", "num_private", "num_public", "variables"]
    + [f"constants__{k}" for k in circuit().to_json_dict()["constants"]]
    + [f"constraints__{i}__{j}__0__{t}" for i in (0, 3) for j in range(2) for t in range(2)]
    + ["variables__1", "constraints__0", "constraints__0__0"]
)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_altered_field_loads_or_is_decode_error(field, value):
    d = altered(**{field: value})
    for load, frame in [(load_proving_key, mock_frame(d)), (load_verifying_key, mock_frame(d)),
                        (load_proving_key, snark_pk_frame(d))]:
        try:
            load(frame)
        except DecodeError:
            pass


def test_cli_verify_with_out_of_range_wire_key_is_runtime_error(tmp_path, capsys):
    # a proof addressed to the key and statement, so verify would replay it
    vk = mock_frame(CRAFTED["wire 10**6"])
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
    assert err.startswith("error:")
    assert "Traceback" not in err
