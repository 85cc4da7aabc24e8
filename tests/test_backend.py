import random

import pytest

from zksplit.backend import (
    BackendError,
    DecodeError,
    MockBackend,
    Proof,
    Statement,
    UnsatisfiedRelationError,
    Verdict,
    decode_frame,
    get_backend,
    load_proving_key,
    load_verifying_key,
)
from zksplit.circuit import (
    BUILDERS,
    CircuitConstants,
    Witness,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)

C = CircuitConstants()


def honest_instance(m=4, seed=0):
    rnd = random.Random(seed)
    cs = build_protocol_circuit(m, C)
    k_q = 2 ** C.f_k
    u_q = [rnd.randint(-1000, 1000) for _ in range(m)]
    w_q = [rnd.randint(-1000, 1000) for _ in range(m)]
    up_q = quantized_aggregate(k_q, u_q, C)
    wp_q = quantized_update(w_q, up_q, C).tolist()
    wit = generate_witness(cs, wp_q + w_q + [k_q], u_q)
    return cs, Statement(wit.statement(cs)), wit


def smallest_instance(kind):
    """An m=1 circuit of the kind, with K = 2**f_k, and an honest statement
    and witness for it."""
    rnd = random.Random(kind)
    cs = BUILDERS[kind](1, C)
    k_q = 2 ** C.f_k
    u_q = [rnd.randint(-1000, 1000)]
    w_q = [rnd.randint(-1000, 1000)]
    if kind == "aggregation":
        public = quantized_aggregate(k_q, u_q, C).tolist() + [k_q]
    elif kind == "update":
        public = quantized_update(w_q, u_q, C).tolist() + w_q
    else:
        up_q = quantized_aggregate(k_q, u_q, C)
        public = quantized_update(w_q, up_q, C).tolist() + w_q + [k_q]
    wit = generate_witness(cs, public, u_q)
    return cs, Statement(wit.statement(cs)), wit


class TestMockBackend:
    def setup_method(self):
        self.backend = MockBackend()
        self.cs, self.stmt, self.wit = honest_instance()
        self.pair = self.backend.setup(self.cs, b"seed")

    def test_setup_deterministic(self):
        a = self.backend.setup(self.cs, b"seed")
        b = self.backend.setup(self.cs, b"seed")
        assert a.proving_key.to_bytes() == b.proving_key.to_bytes()
        assert a.verifying_key.to_bytes() == b.verifying_key.to_bytes()

    def test_keys_share_circuit_digest(self):
        assert self.pair.proving_key.circuit_digest == self.pair.verifying_key.circuit_digest
        assert self.pair.proving_key.circuit_digest == self.cs.digest()

    def test_completeness(self):
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        assert self.backend.verify(self.pair.verifying_key, self.stmt, proof) is Verdict.ACCEPT

    def test_prove_refuses_unsatisfied_witness(self):
        bad = Witness(self.wit.values[:-1] + ((self.wit.values[-1] + 1),))
        with pytest.raises(UnsatisfiedRelationError, match="unsatisfied relation"):
            self.backend.prove(self.pair.proving_key, self.stmt, bad)

    def test_prove_refuses_statement_mismatch(self):
        other = Statement([v + 1 for v in self.stmt.values])
        with pytest.raises(UnsatisfiedRelationError):
            self.backend.prove(self.pair.proving_key, other, self.wit)

    def test_statement_tamper_rejected(self):
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        for i in range(len(self.stmt.values)):
            vals = list(self.stmt.values)
            vals[i] += 1
            bad = Statement(vals)
            assert self.backend.verify(self.pair.verifying_key, bad, proof) is Verdict.REJECT

    def test_cross_circuit_rejected(self):
        cs2, stmt2, wit2 = honest_instance(m=3, seed=1)
        pair2 = self.backend.setup(cs2, b"seed")
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        assert self.backend.verify(pair2.verifying_key, self.stmt, proof) is Verdict.REJECT

    def test_malformed_proof_rejected_not_crash(self):
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        garbage = Proof(backend="mock", circuit_digest=proof.circuit_digest,
                        statement_digest=proof.statement_digest, body=b"\x01\x02")
        assert self.backend.verify(self.pair.verifying_key, self.stmt, garbage) is Verdict.REJECT

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_smallest_circuit_of_each_kind(self, kind):
        cs, stmt, wit = smallest_instance(kind)
        pair = self.backend.setup(cs, b"")
        proof = self.backend.prove(pair.proving_key, stmt, wit)
        assert self.backend.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT
        bad = Statement([stmt.values[0] + 1, *stmt.values[1:]])
        assert self.backend.verify(pair.verifying_key, bad, proof) is Verdict.REJECT


class TestSerialization:
    def setup_method(self):
        self.backend = MockBackend()
        self.cs, self.stmt, self.wit = honest_instance(m=2, seed=3)
        self.pair = self.backend.setup(self.cs, b"")
        self.proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)

    def test_proof_round_trip_byte_identical(self):
        data = self.proof.to_bytes()
        assert Proof.from_bytes(data).to_bytes() == data

    def test_statement_round_trip(self):
        assert Statement.from_bytes(self.stmt.to_bytes()).values == self.stmt.values

    def test_truncation_is_decode_error(self):
        data = self.proof.to_bytes()
        with pytest.raises(DecodeError):
            Proof.from_bytes(data[:20])
        with pytest.raises(DecodeError):
            Statement.from_bytes(self.stmt.to_bytes()[:-3])
        with pytest.raises(DecodeError):
            load_verifying_key(self.pair.verifying_key.to_bytes()[:-5])

    def test_version_mismatch(self):
        data = bytearray(self.proof.to_bytes())
        data[0] = 99
        with pytest.raises(DecodeError, match="version mismatch"):
            Proof.from_bytes(bytes(data))

    def test_keys_round_trip_and_verify(self):
        # vk serialized in one "process", deserialized and used in another
        vk = load_verifying_key(self.pair.verifying_key.to_bytes())
        assert self.backend.verify(vk, self.stmt, Proof.from_bytes(self.proof.to_bytes())) \
            is Verdict.ACCEPT
        pk = load_proving_key(self.pair.proving_key.to_bytes())
        again = self.backend.prove(pk, self.stmt, self.wit)
        assert self.backend.verify(vk, self.stmt, again) is Verdict.ACCEPT

    def test_frame_layout(self):
        backend, digest, payload = decode_frame(self.proof.to_bytes())
        assert backend == "mock"
        assert digest == self.cs.digest()
        assert payload[:32].hex() == self.stmt.digest()


class TestRegistry:
    def test_get_backend(self):
        assert get_backend("mock").name == "mock"
        assert get_backend("snark").name == "snark"
        with pytest.raises(BackendError):
            get_backend("nope")
