import random

import pytest

from zksplit.backend import (
    MockBackend,
    Proof,
    Statement,
    UnsatisfiedRelationError,
    Verdict,
    load_proving_key,
    load_verifying_key,
)
from zksplit.circuit import (
    BUILDERS,
    CircuitConstants,
    Witness,
    build_aggregation_circuit,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.snark import QapSnarkBackend

C = CircuitConstants()


def honest_composed(m, seed):
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


class TestQapSnark:
    def setup_method(self):
        self.backend = QapSnarkBackend()
        self.cs, self.stmt, self.wit = honest_composed(4, seed=0)
        self.pair = self.backend.setup(self.cs, b"trusted-setup")

    def test_setup_seeded_deterministic(self):
        a = self.backend.setup(self.cs, b"x").proving_key.to_bytes()
        b = self.backend.setup(self.cs, b"x").proving_key.to_bytes()
        c = self.backend.setup(self.cs, b"y").proving_key.to_bytes()
        assert a == b
        assert a != c

    def test_completeness_randomized(self):
        accepted = 0
        for seed in range(30):
            cs, stmt, wit = honest_composed(4, seed)
            proof = self.backend.prove(self.pair.proving_key, stmt, wit)
            accepted += self.backend.verify(self.pair.verifying_key, stmt, proof) is Verdict.ACCEPT
        assert accepted == 30

    def test_proof_size_constant_in_m(self):
        sizes = set()
        for m in (1, 8, 64):
            cs, stmt, wit = honest_composed(m, seed=m)
            pair = self.backend.setup(cs, b"s")
            proof = self.backend.prove(pair.proving_key, stmt, wit)
            assert self.backend.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT
            sizes.add(proof.size_bytes)
        assert len(sizes) == 1

    def test_proofs_are_blinded_per_call(self):
        p1 = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        p2 = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        assert p1.body != p2.body  # fresh (r, s) each call
        assert self.backend.verify(self.pair.verifying_key, self.stmt, p1) is Verdict.ACCEPT
        assert self.backend.verify(self.pair.verifying_key, self.stmt, p2) is Verdict.ACCEPT

    def test_seeded_prover_reproducible(self):
        rng1, rng2 = random.Random(5), random.Random(5)
        p1 = self.backend.prove(self.pair.proving_key, self.stmt, self.wit, rng=rng1)
        p2 = self.backend.prove(self.pair.proving_key, self.stmt, self.wit, rng=rng2)
        assert p1.to_bytes() == p2.to_bytes()

    def test_prove_refuses_unsatisfied(self):
        bad = Witness(self.wit.values[:-1] + ((self.wit.values[-1] + 1),))
        with pytest.raises(UnsatisfiedRelationError):
            self.backend.prove(self.pair.proving_key, self.stmt, bad)

    def test_every_proof_byte_flip_rejected(self):
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        raw = proof.to_bytes()
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0x20
            try:
                mutated = Proof.from_bytes(bytes(flipped))
            except Exception:
                continue  # frame decode failure counts as rejection
            assert self.backend.verify(self.pair.verifying_key, self.stmt, mutated) \
                is Verdict.REJECT, f"byte {i} accepted"

    def test_statement_tamper_rejected(self):
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        for i in range(len(self.stmt.values)):
            vals = list(self.stmt.values)
            vals[i] += 1
            bad = Statement(vals)
            assert self.backend.verify(self.pair.verifying_key, bad, proof) is Verdict.REJECT

    def test_cross_circuit_rejected(self):
        cs2, stmt2, wit2 = honest_composed(3, seed=4)
        pair2 = self.backend.setup(cs2, b"trusted-setup")
        proof = self.backend.prove(self.pair.proving_key, self.stmt, self.wit)
        assert self.backend.verify(pair2.verifying_key, self.stmt, proof) is Verdict.REJECT

    def test_key_serialization_round_trip(self):
        vk = load_verifying_key(self.pair.verifying_key.to_bytes())
        pk = load_proving_key(self.pair.proving_key.to_bytes())
        proof = self.backend.prove(pk, self.stmt, self.wit)
        assert self.backend.verify(vk, self.stmt, proof) is Verdict.ACCEPT

    def test_verify_time_linear_not_in_constraints(self):
        # the verifier touches only the statement, never the constraint list
        cs, stmt, wit = honest_composed(32, seed=9)
        pair = self.backend.setup(cs, b"s")
        vk = pair.verifying_key
        assert len(vk.ic) == cs.num_public + 1

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_smallest_circuit_of_each_kind(self, kind):
        cs, stmt, wit = smallest_instance(kind)
        pair = self.backend.setup(cs, b"")
        proof = self.backend.prove(pair.proving_key, stmt, wit)
        assert self.backend.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT
        bad = Statement([stmt.values[0] + 1, *stmt.values[1:]])
        assert self.backend.verify(pair.verifying_key, bad, proof) is Verdict.REJECT


class TestBackendConformance:
    """Mock and snark must agree on Accept/Reject for shared vectors."""

    def _corpus(self):
        vectors = []
        for seed in range(8):
            cs, stmt, wit = honest_composed(3, seed)
            vectors.append(("honest", cs, stmt, wit, None))
            bad = Statement([stmt.values[0] + 1] + list(stmt.values[1:]))
            vectors.append(("stmt-tamper", cs, stmt, wit, bad))
        rnd = random.Random(0)
        cs = build_aggregation_circuit(5, C)
        k_q = 2 ** C.f_k
        u_q = [rnd.randint(-500, 500) for _ in range(5)]
        up_q = quantized_aggregate(k_q, u_q, C).tolist()
        wit = generate_witness(cs, up_q + [k_q], u_q)
        stmt = Statement(wit.statement(cs))
        vectors.append(("agg-honest", cs, stmt, wit, None))
        return vectors

    def test_agreement(self):
        backends = [MockBackend(), QapSnarkBackend()]
        for name, cs, stmt, wit, tampered in self._corpus():
            verdicts = []
            for be in backends:
                pair = be.setup(cs, b"conformance")
                proof = be.prove(pair.proving_key, stmt, wit)
                check = tampered if tampered is not None else stmt
                verdicts.append(be.verify(pair.verifying_key, check, proof))
            assert verdicts[0] == verdicts[1], name
            expected = Verdict.REJECT if tampered is not None else Verdict.ACCEPT
            assert verdicts[0] is expected, name
