"""The snark backend's inner products, its verifier on arbitrary input, and
the forgery its verifying key admits."""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import Proof, Statement, Verdict, load_verifying_key
from zksplit.circuit import (
    CircuitConstants,
    InconsistentStatementError,
    Witness,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.field import P, inv
from zksplit.snark import QapSnarkBackend, _accumulators

C = CircuitConstants()
M = 8


@lru_cache(maxsize=None)
def instance():
    """Keys, an honest statement, its witness and a proof for the composed circuit."""
    rnd = random.Random(3)
    cs = build_protocol_circuit(M, C)
    k_q = 2 ** C.f_k
    u_q = [rnd.randint(-4000, 4000) for _ in range(M)]
    w_q = [rnd.randint(-4000, 4000) for _ in range(M)]
    up_q = quantized_aggregate([k_q], [u_q], C)
    wit = generate_witness(cs, quantized_update(w_q, up_q, C) + w_q + [k_q], u_q)
    stmt = Statement(wit.statement(cs))
    backend = QapSnarkBackend()
    pair = backend.setup(cs, b"threats")
    proof = backend.prove(pair.proving_key, stmt, wit, rng=random.Random(1))
    return pair, stmt, wit, proof


def plain_accumulators(pk, values):
    """Every wire, one at a time, in unbounded integers."""
    a = b = c = priv = 0
    off = pk.cs.num_public + 1
    for i, v in enumerate(values):
        a += v * pk.a_tau[i]
        b += v * pk.b_tau[i]
        c += v * pk.c_tau[i]
        if i >= off:
            priv += v * pk.l_priv[i - off]
    return a % P, b % P, c % P, priv % P


def dense_witness():
    """The honest witness with every remainder bit and private U drawn at random."""
    pair, _, wit, _ = instance()
    cs = pair.proving_key.cs
    rnd = random.Random(11)
    values = list(wit.values)
    for i in range(1 + cs.num_public, len(values)):
        bit = cs.var_names[i].split(":", 1)[-1].startswith("b")
        values[i] = rnd.randint(0, 1) if bit else rnd.randint(-4000, 4000) % P
    return values


def huge_witness():
    _, _, wit, _ = instance()
    values = list(wit.values)
    values[-3] = 2**100
    values[5] = P - 2**100
    return values


@pytest.mark.parametrize("make", [lambda: list(instance()[2].values), dense_witness, huge_witness],
                         ids=["sparse", "dense", "huge"])
def test_gathered_accumulators_equal_plain_sums(make):
    pk = instance()[0].proving_key
    values = make()
    wit = Witness(values)
    assert (wit.signed is None) == (make is huge_witness)
    assert _accumulators(pk, wit) == plain_accumulators(pk, wit.values)


def test_honest_witness_is_sparse_and_dense_one_is_not():
    sparse = instance()[2].signed
    dense = Witness(dense_witness()).signed
    assert np.count_nonzero(sparse) < len(sparse) // 4
    assert np.count_nonzero(dense) > len(dense) // 3


# -- verify is total ---------------------------------------------------------

element = st.one_of(
    st.integers(-5000, 5000),
    st.integers(0, P - 1),
    st.integers(P, 2 * P),
    st.integers(2**254, 2**400),
    st.integers(-(2**300), -1),
)


@st.composite
def statements(draw):
    n = len(instance()[1])
    length = draw(st.sampled_from([n, n, 0, 1, n - 1, n + 1, 2 * n]))
    return draw(st.lists(element, min_size=length, max_size=length))


bodies = st.one_of(
    st.binary(min_size=96, max_size=96),
    st.lists(st.integers(0, 2**256 - 1), min_size=3, max_size=3).map(
        lambda vs: b"".join(v.to_bytes(32, "little") for v in vs)),
    st.binary(max_size=200),
)


@settings(deadline=None, max_examples=400)
@given(values=statements(), body=bodies)
def test_snark_verify_rejects_without_raising(values, body):
    pair, honest_stmt, _, honest_proof = instance()
    stmt = Statement(values)
    proof = Proof(backend="snark", circuit_digest=pair.verifying_key.circuit_digest,
                  statement_digest=stmt.digest(), body=body)
    verdict = QapSnarkBackend().verify(pair.verifying_key, stmt, proof)
    honest = stmt == honest_stmt and body == honest_proof.body
    assert verdict is (Verdict.ACCEPT if honest else Verdict.REJECT)


@settings(deadline=None, max_examples=200)
@given(body=bodies)
def test_snark_verify_rejects_random_bodies_for_the_honest_statement(body):
    pair, stmt, _, honest_proof = instance()
    proof = Proof(backend="snark", circuit_digest=pair.verifying_key.circuit_digest,
                  statement_digest=stmt.digest(), body=body)
    verdict = QapSnarkBackend().verify(pair.verifying_key, stmt, proof)
    assert verdict is (Verdict.ACCEPT if body == honest_proof.body else Verdict.REJECT)


# -- the verifying key is enough to forge ------------------------------------


def test_verifying_key_holder_forges_accept_for_false_statement():
    """pi_C = (pi_A*pi_B - alpha*beta - PI*gamma)/delta passes for any statement.

    The scheme is at best designated-verifier: its verifying key must stay
    secret.  The docstring of snark.py and the README say so.
    """
    pair, stmt, wit, _ = instance()
    vk = load_verifying_key(pair.verifying_key.to_bytes())  # the serialized key alone
    false = list(stmt.values)
    false[0] += 1  # W'[0] off by one: no witness exists
    cs = pair.proving_key.cs
    with pytest.raises(InconsistentStatementError):
        generate_witness(cs, false, [wit.values[1 + cs.num_public + j] for j in range(M)])
    false_stmt = Statement(false)

    rnd = random.Random(0)
    pi_a, pi_b = rnd.randrange(1, P), rnd.randrange(1, P)
    pi = (vk.ic[0] + sum(v * ic for v, ic in zip(false_stmt.values, vk.ic[1:]))) % P
    pi_c = (pi_a * pi_b - vk.alpha_beta - pi * vk.gamma) * inv(vk.delta) % P
    forged = Proof(backend="snark", circuit_digest=vk.circuit_digest,
                   statement_digest=false_stmt.digest(),
                   body=b"".join(x.to_bytes(32, "little") for x in (pi_a, pi_b, pi_c)))
    assert QapSnarkBackend().verify(vk, false_stmt, forged) is Verdict.ACCEPT
