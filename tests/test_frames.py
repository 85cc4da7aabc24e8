"""Whole proof frames: their bytes, their size without re-encoding, the
message bytes that carry them, and verification that returns a verdict for
every frame that decodes, whichever backend's key it meets."""

import json
import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import (
    BACKEND_IDS,
    WIRE_VERSION,
    DecodeError,
    MockBackend,
    Proof,
    Statement,
    Verdict,
)
from zksplit.circuit import (
    CircuitConstants,
    FieldVector,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.config import SimConfig
from zksplit.protocol import RoundMessage, Trainer
from zksplit.snark import QapSnarkBackend

C = CircuitConstants()
M = 4
BACKENDS = {"mock": MockBackend(), "snark": QapSnarkBackend()}


@lru_cache(maxsize=None)
def instance():
    """Verifying keys of both backends for one circuit, an honest statement,
    and each backend's honest proof frame for it."""
    rnd = random.Random(5)
    cs = build_protocol_circuit(M, C)
    k_q = 2 ** C.f_k
    u_q = [rnd.randint(-4000, 4000) for _ in range(M)]
    w_q = [rnd.randint(-4000, 4000) for _ in range(M)]
    up_q = quantized_aggregate(k_q, u_q, C)
    wit = generate_witness(cs, quantized_update(w_q, up_q, C).tolist() + w_q + [k_q], u_q)
    stmt = Statement(wit.statement(cs))
    pairs = {name: backend.setup(cs, b"frames") for name, backend in BACKENDS.items()}
    vks = {name: pair.verifying_key for name, pair in pairs.items()}
    frames = {
        "mock": BACKENDS["mock"].prove(pairs["mock"].proving_key, stmt, wit).to_bytes(),
        "snark": BACKENDS["snark"].prove(pairs["snark"].proving_key, stmt, wit,
                                         rng=random.Random(1)).to_bytes(),
    }
    return cs, stmt, vks, frames


class TestSizeBytes:
    def test_trainer_mock_frames_at_m1000(self):
        """The trainer's witnesses at m=1000 have 48 002 wires, and its
        statements 2 001 values within int16.  A mock proof carries the
        wires after the constant and the statement: U and U', 2 000 values
        within int8, and then 44 000 remainder bits, so its frame has a bit
        tail.  It is 66 header bytes, a width byte, a count, a tail length,
        1 byte for each of 2 000 wires and 44 000 / 8 = 5 500 bytes of bits,
        66 + 9 + 2 000 + 5 500 = 7 575 bytes.  The first proof re-proves the
        set-up's update, whose U and U' are all 0, so its tail takes them
        too: 66 + 9 + 46 000 / 8 = 5 825 bytes.  A statement ends with K, so
        its frame stays plain: a width byte, a count and 2 bytes per value,
        5 + 4 002 = 4 007 bytes."""
        tr = Trainer(SimConfig(mode="zk-mock", m=1000, num_clients=1, rounds=2, seed=5))
        tr.train()
        statement, witness = tr.last_update
        assert len(witness) == 48_002 and len(statement) == 2_001
        assert tr.proof_sizes == [5_825, 7_575, 7_575, 7_575]
        assert witness.to_bytes(2_001)[:9] == bytes([0x81]) + (46_000).to_bytes(4, "little") \
            + (44_000).to_bytes(4, "little")
        assert statement.to_bytes()[0] == 2 and len(statement.to_bytes()) == 4_007

    def test_trainer_mock_proofs_at_m1000_stay_small(self):
        """U and U' stay within int8 over a default run at m=1000, so no mock
        proof passes 7 575 bytes (13 579 when proofs carried every wire at
        int16)."""
        tr = Trainer(SimConfig(mode="zk-mock", m=1000, rounds=50))
        reports = tr.train()
        assert all(v == "Accepted" for r in reports for v in r.verdicts.values())
        assert len(tr.proof_sizes) == 200 and max(tr.proof_sizes) <= 7_600

    def test_real_proofs(self):
        _, _, _, frames = instance()
        for name, frame in frames.items():
            proof = Proof.from_bytes(frame)
            assert proof.backend == name
            assert proof.size_bytes == len(proof.to_bytes()) == len(frame)

    @given(st.sampled_from(sorted(BACKEND_IDS)), st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32), st.binary(max_size=257))
    def test_decoded_frames(self, backend, circuit_digest, statement_digest, body):
        frame = (bytes([WIRE_VERSION, BACKEND_IDS[backend]]) + circuit_digest
                 + statement_digest + body)
        proof = Proof.from_bytes(frame)
        assert proof.body == body
        assert proof.size_bytes == len(proof.to_bytes()) == len(frame)


def reference_encode_frame(backend, circuit_digest, payload):
    """The frame as it was built before one join: header + digest + payload."""
    return bytes([WIRE_VERSION, BACKEND_IDS[backend]]) + bytes.fromhex(circuit_digest) + payload


def reference_canonical_bytes(msg):
    """RoundMessage.canonical_bytes as it was written before the proof frame
    was joined in piecewise: one NUL-separated join of whole parts."""
    parts = [json.dumps(msg.envelope(), sort_keys=True, separators=(",", ":")).encode()]
    if msg.statement is not None:
        parts.append(msg.statement.to_bytes())
    if msg.proof is not None:
        parts.append(msg.proof.to_bytes())
    parts.append(msg.payload)
    return b"\x00".join(parts)


class TestToBytes:
    def test_real_proofs(self):
        _, _, _, frames = instance()
        for frame in frames.values():
            p = Proof.from_bytes(frame)
            assert p.to_bytes() == frame == reference_encode_frame(
                p.backend, p.circuit_digest, bytes.fromhex(p.statement_digest) + p.body)

    @given(st.sampled_from(sorted(BACKEND_IDS)), st.binary(min_size=32, max_size=32),
           st.binary(min_size=32, max_size=32), st.binary(max_size=257))
    def test_matches_the_concatenation(self, backend, circuit_digest, statement_digest, body):
        proof = Proof(backend=backend, circuit_digest=circuit_digest.hex(),
                      statement_digest=statement_digest.hex(), body=body)
        assert proof.to_bytes() == reference_encode_frame(
            backend, circuit_digest.hex(), statement_digest + body)

    def test_message_bytes(self):
        _, stmt, _, frames = instance()
        payload = bytes(range(40))
        messages = [RoundMessage("SmashedForward", "client-0", 3, payload, stmt,
                                 Proof.from_bytes(frame)) for frame in frames.values()]
        messages += [RoundMessage("GradientBackward", "server", 3, payload, stmt),
                     RoundMessage("SmashedForward", "client-1", 4, b"")]
        for msg in messages:
            assert msg.canonical_bytes() == reference_canonical_bytes(msg)


@st.composite
def message_pairs(draw):
    """A message, with or without a statement and a proof, and a copy that
    differs from it in one payload byte, one statement element or one
    proof-body byte, or that lacks its statement or its proof."""
    _, stmt, _, frames = instance()
    payload = draw(st.binary(min_size=1, max_size=64))
    statement = draw(st.sampled_from([None, stmt]))
    proof = draw(st.sampled_from([None] + [Proof.from_bytes(f) for f in sorted(frames.values())]))
    msg = RoundMessage("GradientBackward", "server", 3, payload, statement, proof)
    changes = ["payload"]
    if statement is not None:
        changes += ["statement element", "no statement"]
    if proof is not None:
        changes += ["proof byte", "no proof"]
    change = draw(st.sampled_from(changes))
    flip = draw(st.integers(1, 255))
    if change == "payload":
        at = draw(st.integers(0, len(payload) - 1))
        payload = payload[:at] + bytes([payload[at] ^ flip]) + payload[at + 1 :]
    elif change == "statement element":
        values = list(statement.values)
        values[draw(st.integers(0, len(values) - 1))] += draw(st.integers(1, 2**64))
        statement = Statement(values)
    elif change == "no statement":
        statement = None
    elif change == "proof byte":
        body = proof.body
        at = draw(st.integers(0, len(body) - 1))
        proof = Proof(proof.backend, proof.circuit_digest, proof.statement_digest,
                      body[:at] + bytes([body[at] ^ flip]) + body[at + 1 :])
    else:
        proof = None
    other = RoundMessage(msg.kind, msg.sender, msg.round_id, payload, statement, proof)
    # a message lacking a statement or a proof may be on either side
    return (other, msg) if draw(st.booleans()) else (msg, other)


@settings(deadline=None, max_examples=200)
@given(message_pairs())
def test_message_bytes_cover_every_payload_statement_and_proof_byte(pair):
    a, b = pair
    assert a.canonical_bytes() != b.canonical_bytes()


@st.composite
def random_body_frames(draw):
    """A valid header carrying the circuit's digest, the statement's digest
    or a random one, and a random body: any bytes, a snark-sized body, a
    width byte and an element count a mock verifier could expect (its
    private wires, or every wire as version 3 sent), with or without the bit
    tail flag and a tail length, followed by random bytes, or a well-formed
    frame of small random elements."""
    cs, stmt, _, _ = instance()
    backend = draw(st.sampled_from(sorted(BACKEND_IDS)))
    header = bytes([WIRE_VERSION, BACKEND_IDS[backend]]) + bytes.fromhex(cs.digest())
    statement_digest = draw(st.one_of(st.just(bytes.fromhex(stmt.digest())),
                                      st.binary(min_size=32, max_size=32)))
    count = draw(st.sampled_from([cs.num_wires - 1 - len(stmt), cs.num_wires]))
    width = draw(st.sampled_from([1, 2, 4, 8, 32]))
    # a head with the bit tail flag: the count, then a tail length
    tail = draw(st.integers(0, count + 1)).to_bytes(4, "little")
    body = draw(st.one_of(
        st.binary(max_size=200),
        st.binary(min_size=96, max_size=96),
        st.binary(max_size=width * (count + 1)).map(
            lambda rest: bytes([width]) + count.to_bytes(4, "little") + rest),
        st.binary(max_size=width * (count + 1)).map(
            lambda rest: bytes([width | 0x80]) + count.to_bytes(4, "little") + tail + rest),
        st.lists(st.integers(-2, 2), min_size=count, max_size=count).map(
            lambda vals: FieldVector(vals).to_bytes()),
    ))
    return header + statement_digest + body


@st.composite
def mutated_honest_frames(draw):
    """An honest frame cut short, extended, or with one byte changed."""
    _, _, _, honest = instance()
    frame = draw(st.sampled_from(sorted(honest.values())))
    at = draw(st.integers(0, len(frame) - 1))
    how = draw(st.sampled_from(["cut", "extend", "flip"]))
    if how == "cut":
        return frame[:at]
    if how == "extend":
        return frame + draw(st.binary(min_size=1, max_size=64))
    return frame[:at] + bytes([frame[at] ^ draw(st.integers(1, 255))]) + frame[at + 1 :]


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.binary(max_size=200), random_body_frames(), mutated_honest_frames()))
def test_frame_verification_is_total(data):
    _, stmt, vks, honest = instance()
    try:
        proof = Proof.from_bytes(data)
    except DecodeError:
        return
    for name, backend in BACKENDS.items():
        verdict = backend.verify(vks[name], stmt, proof)
        if data == honest[name]:
            assert verdict is Verdict.ACCEPT
        else:
            assert verdict is Verdict.REJECT


def test_a_key_and_a_proof_of_different_backends_reject():
    _, stmt, vks, frames = instance()
    for key_name, vk in vks.items():
        for proof_name, frame in frames.items():
            if key_name != proof_name:
                for backend in BACKENDS.values():
                    assert backend.verify(vk, stmt, Proof.from_bytes(frame)) is Verdict.REJECT
