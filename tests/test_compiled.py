"""The compiled int64 satisfaction check, the int64 witness codec, and
the circuit digests they must leave untouched.

``ConstraintSystem.is_satisfied_exact`` replays every constraint in
unbounded integers; it is the oracle the compiled check is compared with.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import MockBackend, Proof, Statement, Verdict
from zksplit.circuit import (
    SMALL,
    CircuitConstants,
    CircuitError,
    Witness,
    build_aggregation_circuit,
    build_protocol_circuit,
    build_update_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.field import P

EQUAL = CircuitConstants()
MIXED = CircuitConstants(f_k=13, z_k=7, f_u=14, z_u=-3, f_up=12, z_up=5,
                         f_w=12, z_w=2, f_wp=11, z_wp=-1)
CONSTANTS = {"EQUAL": EQUAL, "MIXED": MIXED}
BUILDERS = {
    "aggregation-1": lambda m, c: build_aggregation_circuit(m, 1, c),
    "aggregation-3": lambda m, c: build_aggregation_circuit(m, 3, c),
    "update": build_update_circuit,
    "composed": build_protocol_circuit,
}
CASES = [(kind, m, name) for kind in BUILDERS for m in (1, 8, 64) for name in CONSTANTS]


@lru_cache(maxsize=None)
def honest(kind, m, name):
    """A circuit and an honest witness for it, as a canonical tuple."""
    c = CONSTANTS[name]
    cs = BUILDERS[kind](m, c)
    rnd = random.Random(f"{kind}/{m}/{name}")
    u_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    w_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    if kind.startswith("aggregation"):
        n = cs.n
        k_q = [c.z_k + rnd.choice([-1, 1]) * rnd.randint(1, 4000) for _ in range(n)]
        u_rows = [[rnd.randint(-4000, 4000) for _ in range(m)] for _ in range(n)]
        up_q = quantized_aggregate(k_q, u_rows, c)
        wit = generate_witness(cs, up_q + k_q, [v for row in u_rows for v in row])
    elif kind == "update":
        wit = generate_witness(cs, quantized_update(w_q, u_q, c) + w_q, u_q)
    else:
        k_q = c.z_k + 2 ** c.f_k
        up_q = quantized_aggregate([k_q], [u_q], c)
        wit = generate_witness(cs, quantized_update(w_q, up_q, c) + w_q + [k_q], u_q)
    return cs, wit.values


def agree(cs, values):
    verdict = cs.is_satisfied(values)
    assert verdict == cs.is_satisfied_exact(values)
    return verdict


class TestCompiledCheck:
    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_honest_witness_takes_compiled_path(self, kind, m, name):
        cs, values = honest(kind, m, name)
        w = Witness(values)
        assert w.signed is not None
        assert cs.compiled().fits(int(np.abs(w.signed).max()))
        assert agree(cs, values)

    @settings(deadline=None, max_examples=300)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_single_wire_perturbation(self, case, data):
        cs, values = honest(*case)
        i = data.draw(st.integers(1, len(values) - 1), label="wire")
        delta = data.draw(st.sampled_from([-1, 1]), label="delta")
        mutated = list(values)
        mutated[i] = (mutated[i] + delta) % P
        agree(cs, mutated)

    @pytest.mark.parametrize("kind,m,name", CASES)
    @pytest.mark.parametrize("one", [0, 2, P - 1])
    def test_constant_wire_not_one(self, kind, m, name, one):
        cs, values = honest(kind, m, name)
        assert not agree(cs, (one,) + values[1:])

    @settings(deadline=None, max_examples=150)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_large_element_takes_exact_path(self, case, data):
        cs, values = honest(*case)
        i = data.draw(st.integers(1, len(values) - 1), label="wire")
        big = data.draw(st.sampled_from([2**100, P - 2**100, SMALL, P - SMALL]), label="big")
        mutated = list(values)
        mutated[i] = big
        assert Witness(mutated).signed is None
        assert not agree(cs, mutated)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_small_but_out_of_bound_element(self, kind):
        # fits in int64 but would overflow <A,w>*<B,w>: exact replay decides
        cs, values = honest(kind, 8, "MIXED")
        assert not cs.compiled().fits(2**40)
        mutated = list(values)
        mutated[-1] = 2**40
        assert Witness(mutated).signed is not None
        assert not agree(cs, mutated)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_wrong_length_raises(self, kind):
        cs, values = honest(kind, 1, "EQUAL")
        for bad in (values[:-1], values + (0,)):
            with pytest.raises(CircuitError, match="length"):
                cs.is_satisfied(bad)
            with pytest.raises(CircuitError, match="length"):
                cs.is_satisfied_exact(bad)

    def test_compiled_cache_follows_new_constraints(self):
        _, values = honest("update", 1, "EQUAL")
        cs = build_update_circuit(1, EQUAL)  # a fresh copy, not the cached one
        assert cs.is_satisfied(values)
        cs.add_constraint({0: 1}, {0: 1}, {0: 2})  # 1 * 1 = 2 never holds
        assert not cs.is_satisfied(values)


# cs.digest() of the parent commit of the compiled check; compilation
# must not change constraints, keys or manifests
PINNED_DIGESTS = {
    ("EQUAL", "aggregation-1", 1): "c31b6edb0227331d825c0444a8b3612e943bc12a74e88d7b8a0e97a7f514694d",
    ("EQUAL", "aggregation-3", 1): "bb9bcbf50c4bbf8fe519c8f08ac6383382d5c0ffddd28da911a23ef43a430bb0",
    ("EQUAL", "update", 1): "d5814ffad6e29897d3c843880edb23b090d1b05232bedfe5be3a6e69d34ce91e",
    ("EQUAL", "composed", 1): "e5a9a8a3dd8acf9fb8f9acdd028684c71c9c7444f60f8f09d1518ecd82f892d6",
    ("EQUAL", "aggregation-1", 8): "4bbde9f7858d409e99928ea3b9fe945adfbbd6e56d81bf46ad9f28819aa82ee2",
    ("EQUAL", "aggregation-3", 8): "2d63f9fb92d4615ea404b28c573305369524e91bba580f3a663dce28693bbac2",
    ("EQUAL", "update", 8): "6ccad08768932217524cb7849bd838020b029125e441d4c90a80a77ba00d1c8a",
    ("EQUAL", "composed", 8): "ab9fe87e48665d781f6208a8da7b1b47538c95de50675448b36458eaf0bf4b78",
    ("EQUAL", "aggregation-1", 500): "daaf7b2c26d39bba878ce33864a8cf1ee91bff1a15fb8d946ff735940ccb8582",
    ("EQUAL", "aggregation-3", 500): "6627e44af1f2e5f30afbca224ae0a329184f0baed9a5c7e78b635c3f3200c49b",
    ("EQUAL", "update", 500): "9e526e5d48aef38828a873b9d3f5d7abf44d4f5789a3ff31ac6126767f7827f6",
    ("EQUAL", "composed", 500): "0580c8629769b2df0547da84a145c79c6ce853d2218b419ce0a0de0129e99bd0",
    ("MIXED", "aggregation-1", 1): "8047d7d24dc6e17b9d4a2955af6a97d4eea8279140d34634340bbb0c933e51e8",
    ("MIXED", "aggregation-3", 1): "25ddafc1b04ade257a1f8236baa4cacf4bfd181a004a367de83c84f3d63f7527",
    ("MIXED", "update", 1): "ab01f1f086f340d1cefae4fa2b1fcbae8da06df31b1b3a69b74115460c2e4281",
    ("MIXED", "composed", 1): "b03620b7b15153c76dc56d8a2814318f8c60c5293d95ba17299cdeb19128cd66",
    ("MIXED", "aggregation-1", 8): "c06160cbce184f107a07dfa1d6999e9d4086c0f4d39a38c978db583fba03608f",
    ("MIXED", "aggregation-3", 8): "a25ff3a56890f909d2488eac16ffe78243437039d41345b53920a99203219dd0",
    ("MIXED", "update", 8): "a035352e7a277145ece9c3bd51f582c218ad5248c99cafe2675235be4edfe1ac",
    ("MIXED", "composed", 8): "04ab8a2321cb112dc6cd42d7d089543a5622ed13154901b1f469f0699d892b71",
}


@pytest.mark.parametrize("name,kind,m", sorted(PINNED_DIGESTS))
def test_pinned_circuit_digest(name, kind, m):
    cs = BUILDERS[kind](m, CONSTANTS[name])
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]
    cs.compiled()
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]


def per_element_bytes(values):
    return len(values).to_bytes(4, "little") + b"".join(
        (v % P).to_bytes(32, "little") for v in values)


signed_small = st.integers(-(SMALL - 1), SMALL - 1)
any_element = st.one_of(signed_small, st.integers(0, P - 1), st.integers(-P, 2 * P))


class TestWitnessCodec:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(any_element, max_size=40))
    def test_to_bytes_matches_per_element_encoding(self, values):
        w = Witness(values)
        assert w.to_bytes() == per_element_bytes(values)
        back = Witness.from_bytes(w.to_bytes())
        assert back.values == w.values
        assert (back.signed is None) == (w.signed is None)

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_honest_witness_encoding(self, kind, m, name):
        _, values = honest(kind, m, name)
        w = Witness(values)
        assert w.signed is not None
        assert w.to_bytes() == per_element_bytes(values)
        assert np.array_equal(Witness.from_bytes(w.to_bytes()).signed, w.signed)

    @pytest.mark.parametrize("v", [SMALL - 1, P - (SMALL - 1), 0, 1, P - 1])
    def test_small_boundary_is_int64(self, v):
        w = Witness.from_bytes(per_element_bytes([1, v]))
        assert w.signed is not None
        assert w.values == (1, v)

    @pytest.mark.parametrize("v", [SMALL, P - SMALL, 2**100, P - 2**100, 2**200])
    def test_large_element_round_trips_through_fallback(self, v):
        data = per_element_bytes([1, -5, v, 7])
        w = Witness.from_bytes(data)
        assert w.signed is None
        assert w.values == (1, P - 5, v, 7)
        assert w.to_bytes() == data

    @pytest.mark.parametrize("v", [P, P + 1, 2**256 - 1, P + SMALL - 1])
    def test_unreduced_element_rejected(self, v):
        data = (3).to_bytes(4, "little") + (1).to_bytes(32, "little") \
            + v.to_bytes(32, "little") + (2).to_bytes(32, "little")
        with pytest.raises(ValueError, match="not reduced"):
            Witness.from_bytes(data)

    def test_truncated_frame_rejected(self):
        data = Witness([1, -2, 3]).to_bytes()
        for cut in (0, 3, 4, 35, len(data) - 1):
            with pytest.raises(ValueError, match="truncated"):
                Witness.from_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            Witness.from_bytes(data + b"\0")


@lru_cache(maxsize=None)
def mock_instance():
    cs, values = honest("composed", 8, "MIXED")
    pair = MockBackend().setup(cs)
    statement = Statement(list(values[1 : 1 + cs.num_public]))
    proof = MockBackend().prove(pair.proving_key, statement, Witness(values))
    return pair.verifying_key, statement, proof.body


def mutated_bodies():
    _, _, body = mock_instance()
    n = (len(body) - 4) // 32
    return st.one_of(
        st.binary(max_size=600),
        st.integers(0, len(body) - 1).map(lambda cut: body[:cut]),
        st.binary(min_size=1, max_size=64).map(lambda extra: body + extra),
        st.tuples(st.integers(0, n - 1), st.binary(min_size=32, max_size=32)).map(
            lambda t: body[: 4 + 32 * t[0]] + t[1] + body[36 + 32 * t[0] :]),
        st.lists(st.binary(min_size=32, max_size=32), min_size=n, max_size=n).map(
            lambda els: n.to_bytes(4, "little") + b"".join(els)),
    )


@settings(deadline=None, max_examples=300)
@given(mutated_bodies())
def test_mock_verify_rejects_malformed_bodies_without_raising(body):
    vk, statement, honest_body = mock_instance()
    proof = Proof(backend="mock", circuit_digest=vk.circuit_digest,
                  statement_digest=statement.digest(), body=body)
    verdict = MockBackend().verify(vk, statement, proof)
    if body == honest_body:
        assert verdict is Verdict.ACCEPT
    else:
        assert verdict is Verdict.REJECT
