"""The snark backend's inner products, its verifier on arbitrary input, the
forgeries its verifying key and its proving key admit, and, in both
backends, what the composed circuit and the messages do not bind."""

import dataclasses
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    CircuitConstants,
    InconsistentStatementError,
    Witness,
    _read_elements,
    _write_elements,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.config import SimConfig
from zksplit.field import P, inv, to_signed
from zksplit.protocol import Trainer
from zksplit.snark import (
    QapSnarkBackend,
    SnarkVerifyingKey,
    _accumulators,
    _inner_products,
    _limb_dtype,
    _limb_table,
    _public_input,
)

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
    up_q = quantized_aggregate(k_q, u_q, C)
    wit = generate_witness(cs, quantized_update(w_q, up_q, C).tolist() + w_q + [k_q], u_q)
    stmt = Statement(wit.statement(cs))
    backend = QapSnarkBackend()
    pair = backend.setup(cs, b"threats")
    proof = backend.prove(pair.proving_key, stmt, wit, rng=random.Random(1))
    return pair, stmt, wit, proof


def plain_accumulators(pk, values):
    """Every wire, one at a time, in unbounded integers."""
    a_tau, b_tau, c_tau, l_priv = (_read_elements(t.tobytes(), "key")
                                   for t in (pk.a_tau, pk.b_tau, pk.c_tau, pk.l_priv))
    a = b = c = priv = 0
    off = pk.cs.num_public + 1
    for i, v in enumerate(values):
        a += v * a_tau[i]
        b += v * b_tau[i]
        c += v * c_tau[i]
        if i >= off:
            priv += v * l_priv[i - off]
    return a % P, b % P, c % P, priv % P


def dense_witness():
    """The honest witness with every remainder bit and private U drawn at random."""
    pair, _, wit, _ = instance()
    cs = pair.proving_key.cs
    rnd = random.Random(11)
    values, names = list(wit.values), cs.var_names
    for i in range(1 + cs.num_public, len(values)):
        bit = names[i].split(":", 1)[-1].startswith("b")
        values[i] = rnd.randint(0, 1) if bit else rnd.randint(-4000, 4000) % P
    return values


def huge_witness():
    _, _, wit, _ = instance()
    values = list(wit.values)
    values[-3] = 2**100
    values[5] = P - 2**100
    return values


def at_bound(bits, excess):
    """The dense witness with every nonzero element set to the largest
    magnitude B for which B * (2**16 - 1) * nnz < 2**bits, plus ``excess``."""
    values = dense_witness()
    nnz = sum(1 for v in values if v)
    top = ((1 << bits) - 1) // (0xFFFF * nnz) + excess
    return [top if v else 0 for v in values]


def negated_witness():
    return [(-v) % P for v in dense_witness()]


def zero_private_witness():
    cs = instance()[0].proving_key.cs
    values = list(instance()[2].values)
    return values[: 1 + cs.num_public] + [0] * cs.num_private


def with_element(table, row, value):
    """A copy of a limb table whose row ``row`` holds ``value``."""
    elements = _read_elements(table.tobytes(), "key")
    elements[row] = value
    return _limb_table(_write_elements(elements))


def max_element_key():
    """The proving key with P - 1 on the constant wire of a_tau and on
    private U_0, a nonzero wire of the honest witness, in l_priv."""
    pk = instance()[0].proving_key
    u0 = 1 + pk.cs.num_public
    assert instance()[2].values[u0] != 0
    return dataclasses.replace(pk, a_tau=with_element(pk.a_tau, 0, P - 1),
                               l_priv=with_element(pk.l_priv, 0, P - 1))


WITNESSES = {
    "sparse": lambda: list(instance()[2].values),
    "dense": dense_witness,
    "huge": huge_witness,
    "float64 bound": lambda: at_bound(53, 0),
    "past float64 bound": lambda: at_bound(53, 1),
    "int64 bound": lambda: at_bound(63, 0),
    "past int64 bound": lambda: at_bound(63, 1),
    "negative": negated_witness,
    "zero private": zero_private_witness,
    "element P-1": lambda: list(instance()[2].values),
}


@pytest.mark.parametrize("name", list(WITNESSES))
def test_gathered_accumulators_equal_plain_sums(name):
    pk = max_element_key() if name == "element P-1" else instance()[0].proving_key
    wit = Witness(WITNESSES[name]())
    assert (wit.signed.dtype == object) == (name == "huge")
    assert _accumulators(pk, wit) == plain_accumulators(pk, wit.values)


def test_honest_witness_is_sparse_and_dense_one_is_not():
    sparse = instance()[2].signed
    dense = Witness(dense_witness()).signed
    assert np.count_nonzero(sparse) < len(sparse) // 4
    assert np.count_nonzero(dense) > len(dense) // 3


@pytest.mark.parametrize("name, dtype", [
    ("sparse", np.float64), ("dense", np.float64), ("negative", np.float64),
    ("float64 bound", np.float64), ("past float64 bound", object),
    ("int64 bound", object), ("past int64 bound", object), ("huge", object),
])
def test_each_witness_takes_the_tier_it_names(name, dtype):
    w = Witness(WITNESSES[name]()).signed
    nonzero = w[w != 0]
    assert _limb_dtype(nonzero, len(nonzero)) is dtype


def plain_sum(w, elements):
    """sum_i w[off + i] * elements[i] mod P in unbounded integers, where
    off = len(w) - len(elements)."""
    off = len(w) - len(elements)
    return sum(int(w[off + i]) * e for i, e in enumerate(elements)) % P


limb_element = st.one_of(st.integers(0, P - 1), st.sampled_from([0, 1, 0xFFFF, P - 1]))


@st.composite
def kernel_inputs(draw):
    """An int64 vector of n elements whose magnitudes fall on both sides of
    the float64 bound, the n + 1 elements of a verifier's public table and
    the elements of a table for the vector's tail."""
    n = draw(st.integers(0, 24))
    bound = ((1 << 53) - 1) // (0xFFFF * (n + 1))
    top = draw(st.sampled_from([1, 0xFFFF, bound // 2, bound, bound + 1, 1 << 40, 1 << 63]))
    lo, hi = -top, min(top, (1 << 63) - 1)
    w = draw(st.lists(st.one_of(st.just(0), st.integers(lo, hi), st.sampled_from([lo, hi])),
                      min_size=n, max_size=n))
    ic = draw(st.lists(limb_element, min_size=n + 1, max_size=n + 1))
    tail = draw(st.lists(limb_element, max_size=n))
    return np.array(w, dtype=np.int64), ic, tail


@settings(deadline=None, max_examples=300)
@given(inputs=kernel_inputs())
def test_limb_kernels_equal_plain_sums(inputs):
    w, ic, tail = inputs
    table = _limb_table(_write_elements(ic))
    assert _inner_products(w, table[1:], _limb_table(_write_elements(tail))) == [
        plain_sum(w, ic[1:]), plain_sum(w, tail)]
    vk = SnarkVerifyingKey("", len(w), 1, 1, 1, table)
    assert _public_input(vk, w) == (ic[0] + plain_sum(w, ic[1:])) % P


@pytest.mark.parametrize("m", [500, 1000])
def test_every_in_range_witness_takes_the_float64_tier(m):
    """At the default constants a witness whose elements lie in
    [q_min, q_max] (remainder bits are 0 or 1) stays under the float64 bound
    over all of its wires, and so does its statement with wire 0: prove and
    verify at the benchmark's sizes take the BLAS tier."""
    n = build_protocol_circuit(m, C).num_wires
    top = max(C.q_max, -C.q_min)
    assert top * 0xFFFF * n < 1 << 53
    assert _limb_dtype(np.array([top, -top]), n) is np.float64


def test_trainer_updates_take_the_float64_tier():
    tr = Trainer(SimConfig(mode="zk-snark", num_clients=1, m=M, rounds=2, seed=0))
    tr.train()
    statement, witness = tr.last_update
    assert max(tr.constants.q_max, -tr.constants.q_min) <= max(C.q_max, -C.q_min)
    assert _limb_dtype(witness.signed, len(witness)) is np.float64
    assert _limb_dtype(statement.signed, len(statement) + 1) is np.float64


def test_verifying_key_float_table_equals_its_limb_table():
    vk = instance()[0].verifying_key
    for key in (vk, load_verifying_key(vk.to_bytes())):
        assert key.ic_float.dtype == np.float64
        assert key.ic_float.shape == (16, key.num_public + 1)
        assert not key.ic_float.flags.writeable
        assert (key.ic_float == key.ic.T).all()


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


# -- either key is enough to forge -------------------------------------------


def plain_pi(vk, values):
    """The verifier's PI by the plain formula in unbounded integers."""
    ic = _read_elements(vk.ic.tobytes(), "key")
    return (ic[0] + plain_sum(values, ic[1:])) % P


def forge(vk, statement, rnd):
    """pi_C = (pi_A*pi_B - alpha*beta - PI*gamma)/delta for random pi_A, pi_B,
    with PI by the plain formula."""
    pi_a, pi_b = rnd.randrange(1, P), rnd.randrange(1, P)
    pi = plain_pi(vk, statement.values)
    pi_c = (pi_a * pi_b - vk.alpha_beta - pi * vk.gamma) * inv(vk.delta) % P
    return Proof(backend="snark", circuit_digest=vk.circuit_digest,
                 statement_digest=statement.digest(),
                 body=b"".join(x.to_bytes(32, "little") for x in (pi_a, pi_b, pi_c)))


def false_statement():
    """The honest statement with W'[0] off by one: no witness exists."""
    pair, stmt, wit, _ = instance()
    false = list(stmt.values)
    false[0] += 1
    cs = pair.proving_key.cs
    with pytest.raises(InconsistentStatementError):
        generate_witness(cs, false, [wit.values[1 + cs.num_public + j] for j in range(M)])
    return Statement(false)


def test_verifying_key_holder_forges_accept_for_false_statement():
    """A forged pi_C passes for any statement.

    The scheme is at best designated-verifier: its verifying key must stay
    secret.  The docstring of snark.py and the README say so.
    """
    pair = instance()[0]
    vk = load_verifying_key(pair.verifying_key.to_bytes())  # the serialized key alone
    stmt = false_statement()
    assert QapSnarkBackend().verify(vk, stmt, forge(vk, stmt, random.Random(0))) is Verdict.ACCEPT


@pytest.mark.parametrize("tweak", [0, 1])
def test_limb_pi_of_huge_statement_agrees_with_plain_formula(tweak):
    """A statement holding the canonical element 2**100 takes the Python-int
    path of the verifier's PI, and gets the verdict of the plain formula."""
    vk = instance()[0].verifying_key
    values = list(instance()[1].values)
    values[1] = 2**100
    stmt = Statement(values)
    assert stmt.signed.dtype == object
    proof = forge(vk, stmt, random.Random(tweak))
    if tweak:
        proof = off_by_one(proof)
    expected = Verdict.REJECT if tweak else Verdict.ACCEPT
    assert QapSnarkBackend().verify(vk, stmt, proof) is expected


def off_by_one(proof):
    """The proof with pi_C off by one, which fails the plain equation."""
    pi = _read_elements(proof.body, "proof")
    return dataclasses.replace(proof, body=_write_elements(pi[:2] + [(pi[2] + 1) % P]))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("excess, dtype", [(0, np.float64), (1, object)])
def test_pi_at_and_past_float64_bound_agrees_with_plain_formula(sign, excess, dtype):
    """Every statement value at sign * (B + excess), B the largest magnitude
    with B * (2**16 - 1) * (num_public + 1) < 2**53: the float64 tier at the
    bound, the Python-int tier one past it, and the plain formula's PI and
    verdict on both."""
    vk = instance()[0].verifying_key
    n = vk.num_public
    stmt = Statement([sign * (((1 << 53) - 1) // (0xFFFF * (n + 1)) + excess)] * n)
    assert _limb_dtype(stmt.signed, n + 1) is dtype
    assert _public_input(vk, stmt.signed) == plain_pi(vk, stmt.values)
    proof = forge(vk, stmt, random.Random(excess))
    assert QapSnarkBackend().verify(vk, stmt, proof) is Verdict.ACCEPT
    assert QapSnarkBackend().verify(vk, stmt, off_by_one(proof)) is Verdict.REJECT


def test_proving_key_holder_forges_accept_for_false_statement(monkeypatch):
    """Without prove() refusing unsatisfied witnesses, the prover's own formulas
    give an accepted proof for random private wires under a false statement:
    nothing ties a*b - c to divisibility by Z(tau).  Snark soundness rests on
    the Prover Entity running this code; the docstring of snark.py and the
    README say so."""
    pair = instance()[0]
    pk = load_proving_key(pair.proving_key.to_bytes())  # the serialized key alone
    stmt = false_statement()
    rnd = random.Random(5)
    wit = Witness([1, *stmt.values, *(rnd.randrange(P) for _ in range(pk.cs.num_private))])
    assert not pk.cs.is_satisfied(wit)
    backend = QapSnarkBackend()
    with pytest.raises(UnsatisfiedRelationError):
        backend.prove(pk, stmt, wit)
    monkeypatch.setattr(QapSnarkBackend, "_satisfies", staticmethod(lambda *args: True))
    proof = backend.prove(pk, stmt, wit, rng=random.Random(2))
    assert backend.verify(pair.verifying_key, stmt, proof) is Verdict.ACCEPT


# -- what the composed circuit and the messages do not bind ------------------
#
# These pin today's Accepts, made by the honest prove with no forgery.  They
# are the gaps a range gadget on U and U' and a proof bound to its payload
# are to close; then each of them flips to Reject.

BACKENDS = {"mock": MockBackend, "snark": QapSnarkBackend}


@lru_cache(maxsize=None)
def keys(name):
    """Keys of the composed circuit at m = M in backend ``name``."""
    return instance()[0] if name == "snark" else MockBackend().setup(build_protocol_circuit(M, C))


def prove_and_verify(name, values):
    """The verdict on the honest proof of a full assignment, whose public
    wires are its statement; prove refuses an unsatisfied assignment."""
    pair = keys(name)
    stmt = Statement(values[1 : 1 + pair.proving_key.cs.num_public])
    backend = BACKENDS[name]()
    return backend.verify(pair.verifying_key, stmt, backend.prove(pair.proving_key, stmt,
                                                                   Witness(values)))


def division_witness(w_new, w_old, k):
    """U' and U solved from the update and the aggregation rows by division
    in F_P, with every remainder bit 0."""
    cw, cu, ca, two_eta = (1 << x for x in (C.upd_w_shift, C.upd_u_shift, C.agg_shift, C.eta))
    # cw * (W - z_W) + cu * (U' - z_U') = 2**eta * (W' - z_W')
    up = [(C.z_up + (two_eta * (a - C.z_wp) - cw * (b - C.z_w)) * inv(cu)) % P
          for a, b in zip(w_new, w_old)]
    # ca * (K - z_K) * (U - z_U) = 2**eta * (U' - z_U')
    u = [(C.z_u + two_eta * (v - C.z_up) * inv(ca * (k - C.z_k))) % P for v in up]
    return [1, *w_new, *w_old, k, *u, *up] + [0] * (2 * M * C.eta)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("k", [3, 5, 7, 1000])
def test_finding_a_unrelated_statement_is_accepted(name, k):
    """U and U' are free field elements: for W' drawn independently of W and
    any K != z_K the rows solve by division, and the honest prove gets an
    Accept for a statement that no in-range U produces."""
    rnd = random.Random(k)
    for _ in range(5):
        w_new, w_old = ([rnd.randint(C.q_min, C.q_max) for _ in range(M)] for _ in range(2))
        values = division_witness(w_new, w_old, k)
        private = [to_signed(v) for v in values[2 + 2 * M : 2 + 4 * M]]
        assert not all(C.q_min <= v <= C.q_max for v in private)
        # its field elements pass 2**62; its remainder bits are a bit tail
        assert Witness(values).to_bytes()[0] == 32 + 0x80
        assert prove_and_verify(name, values) is Verdict.ACCEPT


@pytest.mark.parametrize("name", BACKENDS)
def test_finding_b_private_u_is_the_public_difference(name):
    """Under the default constants ca * (k_q - z_K) = cw = cu = 2**eta, so the
    rows force U = U' = W' - W: the statement gives the private U away, and
    any W', W one in-range step apart is provable."""
    k_q = 2 ** C.f_k
    assert (1 << C.agg_shift) * (k_q - C.z_k) == 1 << C.upd_w_shift == 1 << C.upd_u_shift \
        == 1 << C.eta
    _, stmt, wit, _ = instance()
    s = stmt.signed
    assert wit.signed[2 + 2 * M : 2 + 3 * M].tolist() == (s[:M] - s[M : 2 * M]).tolist()
    rnd = random.Random(4)
    w_old = [rnd.randint(-4000, 4000) for _ in range(M)]
    diff = [rnd.randint(-4000, 4000) for _ in range(M)]
    w_new = [a + d for a, d in zip(w_old, diff)]
    values = generate_witness(keys(name).proving_key.cs, w_new + w_old + [k_q], diff).values
    assert prove_and_verify(name, list(values)) is Verdict.ACCEPT


@pytest.mark.parametrize("mode", ["zk-mock", "zk-snark"])
def test_trainer_witness_u_is_the_public_difference(mode):
    """The trainer's constants give the same: each accepted U is W' - W."""
    tr = Trainer(SimConfig(mode=mode, num_clients=1, m=M, rounds=2, seed=0))
    tr.train()
    statement, witness = tr.last_update
    s = statement.signed
    assert tr.constants != C and s[:M].tolist() != s[M : 2 * M].tolist()
    assert witness.signed[2 + 2 * M : 2 + 3 * M].tolist() == (s[:M] - s[M : 2 * M]).tolist()


@pytest.mark.parametrize("mode", ["zk-mock", "zk-snark"])
def test_gradient_payload_swapped_after_proving_is_accepted(mode, monkeypatch):
    """Nothing binds a message's payload to its proof: the verifier accepts a
    GradientBackward message whose gradients were replaced after proving."""
    message = Trainer._message
    swapped = []

    def swap(self, kind, *args, **kwargs):
        msg = message(self, kind, *args, **kwargs)
        if kind == "GradientBackward":
            msg = dataclasses.replace(msg, payload=bytes(len(msg.payload)))
            swapped.append(msg)
        return msg

    monkeypatch.setattr(Trainer, "_message", swap)
    tr = Trainer(SimConfig(mode=mode, num_clients=2, m=M, rounds=2, seed=0))
    reports = tr.train()
    assert len(swapped) == 4
    assert all(v == "Accepted" for r in reports for v in r.verdicts.values())
