"""The compiled int64 satisfaction check, the int64 witness codec, the
canonical circuit JSON, and the circuit digests they must leave untouched.

``ConstraintSystem.is_satisfied_exact`` replays every constraint in
unbounded integers; it is the oracle the compiled check is compared with.
"""

import hashlib
import itertools
import json
import random
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import DecodeError, MockBackend, Proof, Statement, Verdict
from zksplit import circuit
from zksplit.circuit import (
    MIN_ETA,
    SMALL,
    CircuitConstants,
    CircuitError,
    ConstraintSystem,
    FieldVector,
    Witness,
    _bit_rows,
    _Csr,
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
# pinned only: eta = 60 runs the arithmetic on arrays of Python ints, and
# n = 2 is the smallest aggregation with partial-product wires
PINNED_CONSTANTS = {**CONSTANTS, "ETA60": CircuitConstants(eta=60)}
PINNED_BUILDERS = {**BUILDERS, "aggregation-2": lambda m, c: build_aggregation_circuit(m, 2, c)}


@lru_cache(maxsize=None)
def honest(kind, m, name):
    """A circuit and an honest witness for it, as a canonical tuple."""
    c = PINNED_CONSTANTS[name]
    cs = PINNED_BUILDERS[kind](m, c)
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


def built_with_boolean_rows(kind, m, name):
    """A fresh circuit and the (row position, wire) of every add_boolean call."""
    calls = []
    add_boolean = ConstraintSystem.add_boolean

    def recording(self, idx):
        calls.append((len(self.constraints), idx))
        add_boolean(self, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConstraintSystem, "add_boolean", recording)
        cs = BUILDERS[kind](m, CONSTANTS[name])
    return cs, calls


def csr_rows(matrix):
    return [dict(zip(matrix.index[s:e].tolist(), matrix.coeff[s:e].tolist()))
            for s, e in zip(matrix.indptr[:-1].tolist(), matrix.indptr[1:].tolist())]


def general_rows(compiled):
    return list(zip(*(csr_rows(x) for x in (compiled.a, compiled.b, compiled.c))))


def single_row_circuit(*rows):
    """Wires one, i=1, j=2, k=3 and the given constraints."""
    cs = ConstraintSystem("test", 1, 1, EQUAL)
    for name in "ijk":
        cs.add_private(name)
    for row in rows:
        cs.add_constraint(*row)
    return cs


I, J, K = 1, 2, 3
# rows one change away from b*(b-1)=0, with when each holds for small
# integer wire values b=w_i, j=w_j, k=w_k
NEAR_BOOLEAN = {
    "b*(b-2)": (({I: 1}, {I: 1, 0: -2}, {}), lambda b, j, k: b in (0, 2)),
    "2b*(b-1)": (({I: 2}, {I: 1, 0: -1}, {}), lambda b, j, k: b in (0, 1)),
    "0b*(b-1)": (({I: 0}, {I: 1, 0: -1}, {}), lambda b, j, k: True),
    "b*(j-1)": (({I: 1}, {J: 1, 0: -1}, {}), lambda b, j, k: b == 0 or j == 1),
    "b*(b-1)=k": (({I: 1}, {I: 1, 0: -1}, {K: 1}), lambda b, j, k: b * (b - 1) == k),
    "b*(b+1)": (({I: 1}, {I: 1, 0: 1}, {}), lambda b, j, k: b in (0, -1)),
    "b*(b-1+j)": (({I: 1}, {I: 1, 0: -1, J: 1}, {}), lambda b, j, k: b * (b - 1 + j) == 0),
}
SMALL_VALUES = (0, 1, 2, -1)


class TestBooleanRows:
    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_bits_are_the_add_boolean_rows(self, kind, m, name):
        cs, calls = built_with_boolean_rows(kind, m, name)
        compiled = cs.compiled()
        eta = CONSTANTS[name].eta
        assert len(calls) == (2 * eta * m if kind == "composed" else eta * m)
        assert compiled.bits.dtype == np.int64
        assert compiled.bits.tolist() == [idx for _, idx in calls]
        boolean_at = {pos for pos, _ in calls}
        rest = [row for pos, row in enumerate(cs.constraints) if pos not in boolean_at]
        assert general_rows(compiled) == rest

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_json_round_trip_keeps_split(self, kind, m, name):
        cs = BUILDERS[kind](m, CONSTANTS[name])
        back = ConstraintSystem.from_json_dict(cs.to_json_dict()).compiled()
        np.testing.assert_array_equal(back.bits, cs.compiled().bits)
        assert general_rows(back) == general_rows(cs.compiled())

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_bit_runs_are_the_sorted_runs_of_the_bits(self, kind, m, name):
        compiled = BUILDERS[kind](m, CONSTANTS[name]).compiled()
        runs = compiled.bit_runs
        assert [w for a, b in runs for w in range(a, b)] == sorted(compiled.bits.tolist())
        # maximal: consecutive runs are separated by at least one wire
        assert all(b < a2 for (_, b), (a2, _) in zip(runs, runs[1:]))
        # each builder allocates all of its bit wires in one stretch
        assert len(runs) == 1

    def test_scattered_and_repeated_bits(self):
        cs = ConstraintSystem("test", 1, 1, EQUAL)
        wires = [cs.add_private(f"v{t}") for t in range(8)]
        for idx in (wires[5], wires[2], wires[3], wires[7], wires[2]):
            cs.add_boolean(idx)
        compiled = cs.compiled()
        assert compiled.bits.tolist() == [6, 3, 4, 8, 3]
        assert compiled.bit_runs == [(3, 5), (6, 7), (8, 9)]
        for vs in itertools.product((0, 1, -1, 2), repeat=4):
            values = [1, 5, 7, *vs[:2], 9, vs[2], 11, vs[3]]
            assert agree(cs, [v % P for v in values]) == (set(vs) <= {0, 1})

    @pytest.mark.parametrize("row,holds", NEAR_BOOLEAN.values(), ids=list(NEAR_BOOLEAN))
    def test_near_boolean_rows_stay_general(self, row, holds):
        cs = single_row_circuit(row)
        compiled = cs.compiled()
        assert len(compiled.bits) == 0
        assert general_rows(compiled) == [row]
        for b, j, k in itertools.product(SMALL_VALUES, (0, 1), (0, 1)):
            assert agree(cs, [1, b % P, j, k]) == holds(b, j, k)

    def test_boolean_row_is_a_bit_test(self):
        cs = single_row_circuit(({I: 1}, {I: 1, 0: -1}, {}))
        assert cs.compiled().bits.tolist() == [I]
        for v in SMALL_VALUES:
            assert agree(cs, [1, v % P, 0, 0]) == (v in (0, 1))

    def test_only_boolean_rows(self):
        cs = ConstraintSystem("test", 1, 1, EQUAL)
        wires = [cs.add_private(f"b{t}") for t in range(3)]
        for idx in wires:
            cs.add_boolean(idx)
        compiled = cs.compiled()
        assert compiled.bits.tolist() == wires
        assert general_rows(compiled) == []
        for vs in itertools.product(SMALL_VALUES, repeat=3):
            assert agree(cs, [1] + [v % P for v in vs]) == (set(vs) <= {0, 1})

    def test_no_boolean_rows(self):
        cs = single_row_circuit(({I: 1}, {J: 1}, {K: 1}), ({I: 1, 0: -1}, {0: 1}, {J: 1}))
        compiled = cs.compiled()
        assert len(compiled.bits) == 0
        assert len(general_rows(compiled)) == 2
        for vs in itertools.product(SMALL_VALUES, repeat=3):
            assert agree(cs, [1] + [v % P for v in vs]) == (
                vs[0] * vs[1] == vs[2] and vs[0] - 1 == vs[1])

    @settings(deadline=None, max_examples=300)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_any_int64_value_on_a_bit_wire(self, case, data):
        cs, values = honest(*case)
        bits = cs.compiled().bits
        i = int(bits[data.draw(st.integers(0, len(bits) - 1), label="bit")])
        v = data.draw(st.one_of(st.integers(-3, 3),
                                st.integers(-(SMALL - 1), SMALL - 1)), label="value")
        mutated = list(values)
        mutated[i] = v % P
        w = Witness(mutated).signed
        assert w is not None
        expected = cs.is_satisfied_exact(mutated)
        # a bit other than its honest value breaks the remainder recomposition
        assert expected == (v == values[i])
        assert agree(cs, mutated) == expected
        # the bit test needs no overflow bound: it is exact for any int64 bit
        assert cs.compiled().is_satisfied(w) == expected


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
    # taken before to_json wrote the constraint list from templates
    ("EQUAL", "composed", 1000): "1c77bf2751fd4a6e49c51dbc7e82111d3ca7cf561c4bceee8e600a6d2fda0416",
    ("MIXED", "composed", 1000): "863f9fa6bb125d09626b20fb303195fb4f3310b32391659d63fcffd71b5c19f6",
    # taken before every relation row went through one floor gadget
    ("ETA60", "aggregation-1", 8): "4563efb2f65a9d88ec2d7feb416e80f7ab5a177f6f20aef2c6b3f89d6dbb22d1",
    ("ETA60", "aggregation-2", 8): "d0fbc7545ded40a82073cb13633a597125979f87fb202ae04676afa54fe29719",
    ("ETA60", "aggregation-3", 8): "11e9c10d6c81ccf8564a2690b35c52c6384c5622c6a1dce130ebcec7e7955f68",
    ("ETA60", "update", 8): "559df7bf9e488d46ccdad1c9a0d22d2c66a2fa557672ecfdb4215cd2fec67f7c",
    ("ETA60", "composed", 8): "fcb7b91d121d0334b330932a38453235632c1e344a87b7fe15811034b29c0845",
    ("EQUAL", "aggregation-2", 8): "04c18aefbca4d6aebc0243f01807a48e6ea2cb3f27fec560068099375733ec9f",
    ("MIXED", "aggregation-2", 8): "28be6108c014727d41de44757ee66af7e18d4edcbf4ada932d9f07442ae3ab3b",
}


@pytest.mark.parametrize("name,kind,m", sorted(PINNED_DIGESTS))
def test_pinned_circuit_digest(name, kind, m):
    cs = PINNED_BUILDERS[kind](m, PINNED_CONSTANTS[name])
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]
    cs.compiled()
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]


# sha256 of generate_witness(...).to_bytes() for the honest() instances,
# taken before every relation row and its bits went through one floor gadget
PINNED_WITNESSES = {
    ("EQUAL", "aggregation-1", 1): "bda50f335fbea54ce6b72ecfa003d25af9bddd2d4c6578168d72429612ce9ce2",
    ("MIXED", "aggregation-1", 1): "da8fdbace5b15f15584e8be8c96053aaf5939f6165863868b5899e0a1c3114ab",
    ("EQUAL", "aggregation-1", 8): "e6572e1f61e8fcf750274d7604a852827faf23bfabd4785f61a5322658de1c3b",
    ("MIXED", "aggregation-1", 8): "18a8c9cf27e163a6409782e2f67b51ad75f4b0dfe308f467907be2dd0d60308f",
    ("EQUAL", "aggregation-1", 64): "bb46ea066e26fe89b6dd6fcc5397899f833ef24662bccb5219a130a020e3a0c1",
    ("MIXED", "aggregation-1", 64): "5674bc4b7d136c4c42997e56ab5edf5ffbd27ff30be8d4005f82317fa7673a03",
    ("EQUAL", "aggregation-3", 1): "bea0937763e9bfbc10152dfebda42cfa69ccf20a005bda889af2a0016d6c5859",
    ("MIXED", "aggregation-3", 1): "50f2bc1fc41ea267926aa9af8d708e735e8f55e365dcc4936bda8ae9ffb198d6",
    ("EQUAL", "aggregation-3", 8): "731470b5d2db750cb72aec295f78dd0378f1bc785518aae7af71feacaaddc1b7",
    ("MIXED", "aggregation-3", 8): "780ca4faacadbcc0c4a9046ddb99bc0b05ffa759033683bb460d3ac3a8c69c09",
    ("EQUAL", "aggregation-3", 64): "8b055a20f6807d0dfd2fb2b422a6fcad9d6e75de2ba4666b34ab0cbc05c4855b",
    ("MIXED", "aggregation-3", 64): "d4ef62f0e056f1ff5b5631fbdc814177182c6275e5271070d94d9e0863caaf68",
    ("EQUAL", "update", 1): "b2fb20fd0c9dafbddea8e94decff809ffc522c95c4b8cd4bd074938e2e110191",
    ("MIXED", "update", 1): "7318697fe1eee0ac36e34f91ab9c6b7822cbbb580de5e45cb6ce22b28dd93cb0",
    ("EQUAL", "update", 8): "ac9037a86b1b235ec2155784a5a52dc3c9cc2d402a853150069eb5af361f6db2",
    ("MIXED", "update", 8): "0d267ca87182205e7872e1c04283b296a10ae8399f7779623e22ad101424a031",
    ("EQUAL", "update", 64): "961020484209d60a79cd8ca1eb8e9505a90bae826e9475159bdc3bd935c9ba05",
    ("MIXED", "update", 64): "e7c137f425533c09206d54b9068a1997bc0c334807f929b3ca57d040dc933745",
    ("EQUAL", "aggregation-2", 8): "c1f82937d9df9a87e9b592dabbf106f76cdb458a20d3ed627c8c71045d1811db",
    ("MIXED", "aggregation-2", 8): "1c3cc4e525635d8c1f958be123bd6a368ff02874a047ef8f935a46cad7f5a386",
    ("ETA60", "aggregation-2", 8): "a773dce0febe93428bdc20db2f74ac0d9d45d4d139860522c750ae13cf425432",
    ("ETA60", "update", 8): "29e8dc2f3b408dff14100846e21a23111ebc802a0052dde621477d871b5b9db2",
    ("ETA60", "composed", 8): "0bc8712e8d342df02698112e8c3a66ace366d34ffd21487ec571fadff30cd8ce",
}


@pytest.mark.parametrize("name,kind,m", sorted(PINNED_WITNESSES))
def test_pinned_witness_bytes(name, kind, m):
    _, values = honest(kind, m, name)
    got = hashlib.sha256(Witness(values).to_bytes()).hexdigest()
    assert got == PINNED_WITNESSES[name, kind, m]


def reference_json(cs):
    """The canonical JSON as the dict-building writer produced it."""
    def enc(lc):
        return sorted([i, co % P] for i, co in lc.items())

    d = {
        "kind": cs.kind,
        "m": cs.m,
        "n": cs.n,
        "constants": asdict(cs.constants),
        "num_public": cs.num_public,
        "num_private": cs.num_private,
        "variables": cs.var_names,
        "constraints": [[enc(a), enc(b), enc(c)] for a, b, c in cs.constraints],
    }
    return json.dumps(d, separators=(",", ":"), sort_keys=True)


names = st.text(alphabet=st.one_of(st.sampled_from('"\\/\b\n\x00\x7f\u00e9\u2028\U0001f600u'),
                                   st.characters()), max_size=8)
coefficients = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 2**200, -(2**200), P - 1, P, P + 1, 2 * P + 3,
                     10**30, -(10**30), 2**63, -(2**63)]),
    st.integers(-(2**70), 2**70),
)


@st.composite
def constraint_systems(draw):
    constants = CircuitConstants(eta=draw(st.integers(MIN_ETA, 64)),
                                 z_k=draw(st.integers(-9, 9)), q_min=draw(st.integers(-9, 0)))
    cs = ConstraintSystem(draw(names), draw(st.integers(0, 10**6)),
                          draw(st.integers(0, 9)), constants)
    for _ in range(draw(st.integers(0, 4))):
        cs.add_public(draw(names))
    for _ in range(draw(st.integers(0, 4))):
        cs.add_private(draw(names))
    wires = st.integers(0, cs.num_wires - 1)
    # dicts keep the drawn order, so wires arrive unsorted and some lcs are empty
    lcs = st.dictionaries(wires, coefficients, max_size=5)
    for _ in range(draw(st.integers(0, 6))):
        cs.add_constraint(draw(lcs), draw(lcs), draw(lcs))
    return cs


@settings(deadline=None, max_examples=300)
@given(constraint_systems())
def test_to_json_matches_dict_writer(cs):
    text = cs.to_json()
    assert text == reference_json(cs)
    assert cs.digest() == hashlib.sha256(text.encode()).hexdigest()
    assert ConstraintSystem.from_json_dict(json.loads(text)).digest() == cs.digest()


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

    def test_witness_is_immutable_and_encoded_once(self):
        cs, values = honest("composed", 8, "MIXED")
        w = generate_witness(cs, values[1 : 1 + cs.num_public],
                             values[1 + cs.num_public : 1 + cs.num_public + 8])
        with pytest.raises(ValueError):
            w.signed[0] = 2
        with pytest.raises(AttributeError):
            w.signed = np.zeros(len(w), dtype=np.int64)
        data = w.to_bytes()
        assert w.to_bytes() is data
        back = Witness.from_bytes(data)
        assert not back.signed.flags.writeable
        assert back.to_bytes() is data  # the frame it was read from

    def test_int64_array_is_copied(self):
        arr = np.array([1, -2, 3], dtype=np.int64)
        w = Witness(arr)
        arr[0] = 5
        assert w.values == (1, P - 2, 3) and arr.flags.writeable

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_decoding_never_encodes(self, kind, m, name, monkeypatch):
        calls = []
        limbs = circuit._limbs
        monkeypatch.setattr(circuit, "_limbs", lambda s: calls.append(len(s)) or limbs(s))
        cs, values = honest(kind, m, name)
        wire = per_element_bytes(values)
        statement = per_element_bytes(values[1 : 1 + cs.num_public])
        assert calls == []
        assert Witness.from_bytes(wire).values == tuple(values)
        assert Statement.from_bytes(statement).values == tuple(values[1 : 1 + cs.num_public])
        assert calls == []

    def test_truncated_frame_rejected(self):
        data = Witness([1, -2, 3]).to_bytes()
        for cut in (0, 3, 4, 35, len(data) - 1):
            with pytest.raises(ValueError, match="truncated"):
                Witness.from_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated"):
            Witness.from_bytes(data + b"\0")


SIGNED = [1, -5, 0, SMALL - 1, -(SMALL - 1), 4000]
CANONICAL = [P - 1, P - 5, 3, 0]
MIXED_LARGE = [1, -5, SMALL, 2**100, P - 2**100, -SMALL, 7]


class TestStatementCodec:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(any_element, max_size=40))
    def test_to_bytes_matches_per_element_encoding(self, values):
        s = Statement(values)
        assert s.to_bytes() == per_element_bytes(values)
        assert s.digest() == hashlib.sha256(per_element_bytes(values)).hexdigest()
        assert s.values == tuple(v % P for v in values)
        back = Statement.from_bytes(s.to_bytes())
        assert back.values == s.values
        assert (back.signed is None) == (s.signed is None)

    @pytest.mark.parametrize("values", [SIGNED, CANONICAL, MIXED_LARGE],
                             ids=["signed", "canonical", "mixed"])
    def test_representations(self, values):
        s = Statement(values)
        assert (s.signed is None) == (values is MIXED_LARGE)
        assert s.to_bytes() == per_element_bytes(values)
        assert s == Statement.from_bytes(per_element_bytes(values))

    def test_int64_array_and_list_agree(self):
        arr = np.array(SIGNED, dtype=np.int64)
        s = Statement(arr)
        assert s.to_bytes() == Statement(SIGNED).to_bytes() == per_element_bytes(SIGNED)
        arr[0] = 99  # the statement holds its own copy
        assert s.values[0] == 1

    @pytest.mark.parametrize("v", [P, P + 1, 2**256 - 1, P + SMALL - 1])
    def test_unreduced_element_is_decode_error(self, v):
        data = (2).to_bytes(4, "little") + (1).to_bytes(32, "little") + v.to_bytes(32, "little")
        with pytest.raises(DecodeError, match="not reduced"):
            Statement.from_bytes(data)

    def test_truncated_frame_is_decode_error(self):
        data = Statement([1, -2, 3]).to_bytes()
        for cut in (0, 3, 4, 35, len(data) - 1):
            with pytest.raises(DecodeError, match="truncated"):
                Statement.from_bytes(data[:cut])
        with pytest.raises(DecodeError, match="truncated"):
            Statement.from_bytes(data + b"\0")

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(
        st.binary(max_size=200),
        st.lists(st.one_of(st.binary(min_size=32, max_size=32),
                           st.integers(0, P - 1).map(lambda v: v.to_bytes(32, "little"))),
                 max_size=6).map(lambda els: len(els).to_bytes(4, "little") + b"".join(els)),
    ))
    def test_from_bytes_round_trips_or_raises_decode_error(self, data):
        try:
            s = Statement.from_bytes(data)
        except DecodeError:
            return
        assert s.to_bytes() == data

    def test_statement_is_immutable(self):
        s = Statement(SIGNED)
        digest = s.digest()
        with pytest.raises(AttributeError):
            s.values = (0,) * len(SIGNED)
        with pytest.raises(TypeError):
            s.values[0] = 2
        with pytest.raises(AttributeError):
            s.signed = np.zeros(len(SIGNED), dtype=np.int64)
        with pytest.raises(ValueError):
            s.signed[0] = 2
        assert s.digest() == digest == Statement(SIGNED).digest()
        big = Statement(MIXED_LARGE)
        with pytest.raises(TypeError):
            big.values[0] = 2


# -- the codec, row sums and bit rows against the implementations that
# took several passes over each array; these copies are the oracles

P_LIMBS = [(P >> (64 * i)) & (2**64 - 1) for i in range(4)]
P0 = P_LIMBS[0]


def reference_encode(signed):
    limbs = np.where((signed < 0)[:, None], np.array(P_LIMBS, dtype="<u8"), np.uint64(0))
    limbs[:, 0] += signed.view(np.uint64)
    return len(signed).to_bytes(4, "little") + limbs.tobytes()


def reference_decode(data, what):
    if len(data) < 4:
        raise ValueError(f"truncated {what}")
    n = int.from_bytes(data[:4], "little")
    if len(data) != 4 + 32 * n:
        raise ValueError(f"truncated {what}")
    low, l1, l2, l3 = np.frombuffer(data, dtype="<u8", offset=4).reshape(n, 4).T
    p1, p2, p3 = (np.uint64(x) for x in P_LIMBS[1:])
    pos = ((l1 | l2 | l3) == 0) & (low < SMALL)
    neg = (((l1 ^ p1) | (l2 ^ p2) | (l3 ^ p3)) == 0) & (low > P0 - SMALL) & (low < P0)
    if (pos | neg).all():
        return low.astype(np.int64) - neg * P0
    vals = []
    for i in range(n):
        v = int.from_bytes(data[4 + 32 * i : 36 + 32 * i], "little")
        if v >= P:
            raise ValueError(f"{what} element not reduced")
        vals.append(v)
    return vals


def reference_row_sums(indptr, terms):
    sums = np.zeros(len(terms) + 1, dtype=np.int64)
    np.cumsum(terms, out=sums[1:])
    return sums[indptr[1:]] - sums[indptr[:-1]]


def reference_bit_rows(r, eta):
    return ((r[:, None] >> np.arange(eta, dtype=r.dtype)) & 1).ravel()


def decode_outcome(decode, data):
    """("error", message), or the representation and the values decoded."""
    try:
        out = decode(data, "witness")
    except ValueError as e:
        return "error", str(e)
    if isinstance(out, np.ndarray):
        assert out.dtype == np.int64
        return "int64", out.tolist()
    return "list", list(out)


def set_limbs(frame, i, limbs):
    at = 4 + 32 * i
    return frame[:at] + b"".join(x.to_bytes(8, "little") for x in limbs) + frame[at + 32 :]


def frame_limbs(frame, i):
    return [int.from_bytes(frame[4 + 32 * i + 8 * k : 12 + 32 * i + 8 * k], "little")
            for k in range(4)]


BOUNDARY_LIMBS = [0, 1, SMALL - 1, SMALL, P0 - SMALL, P0 - SMALL + 1, P0 - 1, P0, P0 + 1,
                  2**63, 2**64 - 1]


@st.composite
def boundary_elements(draw, honest_limbs):
    """Limbs of one element: an honest element with one limb set to a
    boundary value, P's high limbs under a boundary low limb, P's high
    limbs with one limb off by one, or only the top limb set."""
    how = draw(st.sampled_from(["one limb", "P high", "P high, one off", "top only"]))
    low = draw(st.sampled_from(BOUNDARY_LIMBS))
    if how == "one limb":
        limbs = list(honest_limbs)
        limbs[draw(st.integers(0, 3))] = low
        return limbs
    limbs = [low] + P_LIMBS[1:]
    if how == "P high, one off":
        k = draw(st.integers(1, 3))
        limbs[k] = (limbs[k] + draw(st.sampled_from([-1, 1]))) % 2**64
    if how == "top only":
        top = draw(st.sampled_from([1, P_LIMBS[3] - 1, P_LIMBS[3], P_LIMBS[3] + 1, 2**64 - 1]))
        limbs = [0, 0, 0, top]
    return limbs


class TestAgainstReferences:
    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_encode_of_honest_witnesses(self, kind, m, name):
        w = Witness(honest(kind, m, name)[1])
        assert w.to_bytes() == reference_encode(w.signed)

    @settings(deadline=None, max_examples=400)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_decode_of_an_honest_frame_with_boundary_limbs(self, case, data):
        frame = Witness(honest(*case)[1]).to_bytes()
        n = int.from_bytes(frame[:4], "little")
        for _ in range(data.draw(st.integers(1, 3), label="elements changed")):
            i = data.draw(st.integers(0, n - 1), label="element")
            frame = set_limbs(frame, i, data.draw(boundary_elements(frame_limbs(frame, i))))
        assert decode_outcome(FieldVector._decode, frame) == \
            decode_outcome(reference_decode, frame)

    # the positions either side of the 8192-element blocks an earlier decoder
    # checked one at a time, kept as cases for the whole-column check
    @pytest.mark.parametrize("i", [0, 8191, 8192, 16384, 16386])
    @pytest.mark.parametrize("limbs", [[5, 0, 7, 0], [P0 - 3] + P_LIMBS[1:3] + [0],
                                       [2**63] + P_LIMBS[1:], [0, 0, 0, 1]])
    def test_decode_checks_every_block(self, i, limbs):
        rnd = random.Random(i)
        values = np.array([rnd.randint(-4000, 4000) for _ in range(16387)],
                          dtype=np.int64)
        frame = set_limbs(Witness(values).to_bytes(), i, limbs)
        outcome = decode_outcome(FieldVector._decode, frame)
        assert outcome == decode_outcome(reference_decode, frame)
        assert outcome[0] != "int64"

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.lists(st.sampled_from(BOUNDARY_LIMBS + P_LIMBS[1:]), min_size=4,
                             max_size=4), max_size=6))
    def test_decode_of_frames_built_from_boundary_limbs(self, elements):
        frame = len(elements).to_bytes(4, "little") + b"".join(
            b"".join(x.to_bytes(8, "little") for x in limbs) for limbs in elements)
        assert decode_outcome(FieldVector._decode, frame) == \
            decode_outcome(reference_decode, frame)

    @pytest.mark.parametrize("rows", [
        [],
        [{}],
        [{0: 3}],
        [{}, {}, {}],
        [{}, {0: 1, 2: -4}, {1: 5}],
        [{0: 1}, {}, {}, {2: 7, 1: -2}],
        [{0: 2}, {1: 3}, {}, {}],
        [{}, {0: 2}, {}, {1: 3, 2: 1}, {}],
    ], ids=["no rows", "one empty row", "single row", "no terms", "empty first",
            "empty inside", "empty last", "empty everywhere"])
    def test_row_sums_with_empty_rows(self, rows):
        csr = _Csr(rows)
        w = np.array([2, -3, 5], dtype=np.int64)
        terms = csr.coeff * w[csr.index]
        expected = [sum(co * int(w[i]) for i, co in lc.items()) for lc in rows]
        assert csr._row_sums(terms).tolist() == expected
        assert csr.dot(w).tolist() == expected
        assert reference_row_sums(csr.indptr, terms).tolist() == expected
        assert csr.l1 == max((sum(map(abs, lc.values())) for lc in rows), default=0)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(-2**40, 2**40), max_size=6),
                    max_size=12),
           st.lists(st.integers(-2**20, 2**20), min_size=8, max_size=8))
    def test_row_sums_match_the_cumulative_sums(self, rows, values):
        csr = _Csr(rows)
        terms = csr.coeff * np.array(values, dtype=np.int64)[csr.index]
        assert np.array_equal(csr._row_sums(terms), reference_row_sums(csr.indptr, terms))

    @settings(deadline=None, max_examples=200)
    @given(eta=st.sampled_from([22, 40, 60]), data=st.data())
    def test_bit_rows(self, eta, data):
        values = data.draw(st.lists(st.integers(0, 2**eta - 1), max_size=20))
        arrays = [np.array(values, dtype=np.int64), np.array(values, dtype=object)]
        for r in arrays:
            bits = _bit_rows(r, eta)
            expected = reference_bit_rows(r, eta)
            assert bits.tolist() == expected.tolist()
            assert len(bits) == eta * len(values)
        # a witness concatenates the bits into one int64 array
        assert np.concatenate([arrays[0], _bit_rows(arrays[0], eta)]).dtype == np.int64


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
