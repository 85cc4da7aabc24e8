"""The gadget-by-gadget satisfaction check, the witness codec, the
canonical circuit JSON, and the circuit digests they must leave
untouched.

``reference_replay`` (tests/oracle.py) evaluates every (A, B, C) triple
of the rows spelled out from the relations by wire name mod P; it is the
oracle every verdict of the gadgets' check is compared with, and the
canonical JSON is compared with a dict-building writer of the same rows.
"""

import hashlib
import itertools
import json
import random
import tracemalloc
from dataclasses import asdict
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from zksplit.backend import (
    DecodeError,
    MockBackend,
    Proof,
    Statement,
    Verdict,
    load_verifying_key,
)
from zksplit import circuit
from zksplit.circuit import (
    MIN_ETA,
    SMALL,
    CircuitConstants,
    CircuitError,
    FieldVector,
    Witness,
    _bit_rows,
    build_aggregation_circuit,
    build_protocol_circuit,
    build_update_circuit,
    from_spec,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from zksplit.field import P, to_signed

from oracle import element_reads, reference_names, reference_replay, reference_rows, triple

EQUAL = CircuitConstants()
MIXED = CircuitConstants(f_k=13, z_k=7, f_u=14, z_u=-3, f_up=12, z_up=5,
                         f_w=12, z_w=2, f_wp=11, z_wp=-1)
CONSTANTS = {"EQUAL": EQUAL, "MIXED": MIXED}
BUILDERS = {
    "aggregation-1": build_aggregation_circuit,
    "update": build_update_circuit,
    "composed": build_protocol_circuit,
}
CASES = [(kind, m, name) for kind in BUILDERS for m in (1, 8, 64) for name in CONSTANTS]
ETA60_CASES = [(kind, m, "ETA60") for kind in BUILDERS for m in (1, 8, 64)]
# pinned only: eta = 60 runs the arithmetic on arrays of Python ints
PINNED_CONSTANTS = {**CONSTANTS, "ETA60": CircuitConstants(eta=60)}
# the constants under which generate_witness's recorded range is checked
RANGE_CONSTANTS = {**PINNED_CONSTANTS, "MIXED60": CircuitConstants(**{**asdict(MIXED), "eta": 60})}
# eta = 200 puts a gadget's bound past P/2 once a wire reaches about 2**26
CHECK_CONSTANTS = {**PINNED_CONSTANTS, "ETA200": CircuitConstants(eta=200)}


@lru_cache(maxsize=None)
def honest(kind, m, name):
    """A circuit and an honest witness for it, as a canonical tuple."""
    c = CHECK_CONSTANTS[name]
    cs = BUILDERS[kind](m, c)
    rnd = random.Random(f"{kind}/{m}/{name}")
    u_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    w_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    if kind.startswith("aggregation"):
        k_q = c.z_k + rnd.choice([-1, 1]) * rnd.randint(1, 4000)
        u_row = [rnd.randint(-4000, 4000) for _ in range(m)]
        up_q = quantized_aggregate(k_q, u_row, c)
        wit = generate_witness(cs, up_q.tolist() + [k_q], u_row)
    elif kind == "update":
        wit = generate_witness(cs, quantized_update(w_q, u_q, c).tolist() + w_q, u_q)
    else:
        k_q = c.z_k + 2 ** c.f_k
        up_q = quantized_aggregate(k_q, u_q, c)
        wit = generate_witness(cs, quantized_update(w_q, up_q, c).tolist() + w_q + [k_q], u_q)
    return cs, wit.values


def through_key(cs):
    """The circuit a mock verifying key of cs loads back with."""
    return load_verifying_key(MockBackend().setup(cs).verifying_key.to_bytes()).cs


def agree(cs, values):
    """is_satisfied's verdict, which must be the reference replay's."""
    verdict = cs.is_satisfied(values)
    assert verdict == reference_replay(cs, values)
    return verdict


# a bit, and the two values one step outside it on either side
SMALL_VALUES = (0, 1, 2, -1)


def set_bit(values, bank, t, v):
    """values with bit t of a bank set to v, and the bank's bit 0 moved so
    that the bank recomposes the same remainder as before."""
    mutated = list(values)
    mutated[bank[t]] = v % P
    mutated[bank[0]] = (values[bank[0]] - (v - to_signed(values[bank[t]])) * 2**t) % P
    return mutated


def checked(cs, values):
    """is_satisfied's verdict, which must be the reference replay's, and
    the dtype the gadgets computed their floors in to give it."""
    dtypes = set()
    holds = circuit._Floor.holds
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit._Floor, "holds",
                   lambda self, w, dtype: dtypes.add(dtype) or holds(self, w, dtype))
        verdict = agree(cs, values)
    (dtype,) = dtypes
    return verdict, dtype


def floor_operands(cs):
    """The wires that some gadget's floor reads: K and U, W and U'."""
    wires = set()
    for g in cs.gadgets:
        wires |= {g.k, *g.u} if isinstance(g, circuit._Aggregation) else {*g.w, *g.up}
    return wires


def reference_bound(cs, values):
    """The largest gadget bound over the quantized range and every wire of
    values, from the docstring's d, without the module's span helpers."""
    c = cs.constants
    top = max(abs(c.q_min), abs(c.q_max), *(abs(to_signed(v % P)) for v in values))
    d = top + max(abs(z) for z in (c.z_k, c.z_u, c.z_up, c.z_w, c.z_wp))
    return max(g.bound(c, d) for g in cs.gadgets)


ONE_PASS_CASES = [(kind, m, name) for kind in BUILDERS for m in (1, 8) for name in CHECK_CONSTANTS]


class TestGadgetCheck:
    @pytest.mark.parametrize("kind,m,name", CASES + ETA60_CASES)
    def test_honest_witness_path(self, kind, m, name):
        """Honest witnesses are accepted by the gadgets: EQUAL and MIXED in
        int64, and eta = 60, which puts every gadget's bound past 2**62 but
        far below P/2, in Python ints."""
        cs, values = honest(kind, m, name)
        assert Witness(values).signed.dtype == np.int64
        if name == "ETA60":
            assert all(SMALL <= g.bound(cs.constants, 2**15) < P // 2 for g in cs.gadgets)
        assert checked(cs, values) == (True, object if name == "ETA60" else np.int64)

    @pytest.mark.parametrize("kind,m,name", ETA60_CASES)
    def test_eta60_changed_bit_or_output_is_rejected_by_the_gadgets(self, kind, m, name):
        cs, values = honest(kind, m, name)
        g = cs.gadgets[-1]
        bit, out = g.bits[-1][0], g.out[-1]
        for i, delta in ((bit, None), (out, 1), (out, -1), (out, 2**40)):
            mutated = list(values)
            mutated[i] = 1 - mutated[i] if delta is None else (mutated[i] + delta) % P
            assert Witness(mutated).signed.dtype == np.int64
            assert checked(cs, mutated) == (False, object)

    def test_bound_past_half_p_is_decided_mod_p(self):
        """At eta = 200 an honest witness is checked by the gadgets in Python
        ints, and so is an int64 witness whose bound passes P/2, where the
        integer test would not decide the rows mod P: the gadgets test them
        mod P.  One wire holding 2**61 in the honest witness is rejected,
        and a witness with W = W' = 2**52, outside the quantized range but
        satisfying every row, is accepted."""
        c = CircuitConstants(eta=200)
        cs = build_protocol_circuit(2, c)
        k = c.z_k + 2**c.f_k
        w, u = [5, -7], [300, -4000]
        up = quantized_aggregate(k, u, c)
        values = generate_witness(cs, quantized_update(w, up, c).tolist() + w + [k], u).values
        assert checked(cs, values) == (True, object)
        mutated = list(values)
        mutated[cs.var_names.index("U[1]")] = 2**61
        assert 2 * reference_bound(cs, mutated) > P
        assert checked(cs, mutated) == (False, object)
        cs = build_protocol_circuit(1, c)
        wide = [0] * cs.num_wires
        for name, v in (("one", 1), ("Wp[0]", 2**52), ("W[0]", 2**52), ("K[0]", k)):
            wide[cs.var_names.index(name)] = v
        assert Witness(wide).signed.dtype == np.int64
        assert 2 * reference_bound(cs, wide) > P
        assert checked(cs, wide) == (True, object)

    @settings(deadline=None, max_examples=400)
    @given(case=st.sampled_from(ONE_PASS_CASES), data=st.data())
    def test_a_moved_wire_that_no_floor_reads(self, case, data):
        """One bit, output or statement wire that no floor reads is moved,
        up to and past 2**62, so that only the span of the whole witness,
        not that of the floor operands, can pick the check's dtype.  The
        check must give the reference replay's verdict, reject every move,
        and compute the floors in int64 exactly when the bound over the
        whole witness is below 2**62."""
        cs, values = honest(*case)
        eta, operands = cs.constants.eta, floor_operands(cs)
        outputs = [i for i in range(1, 1 + cs.num_public) if i not in operands]
        bits = [i for g in cs.gadgets for i in range(g._bank.start, g._bank.stop)]
        assert outputs and not operands & set(bits)
        i = data.draw(st.one_of(st.sampled_from(outputs), st.sampled_from(bits)), label="wire")
        near = to_signed(values[i])
        # near + k * step is near once multiplied by 2**eta in int64 (for
        # eta < 64), or in its low byte
        steps = [256, 1 << (64 - eta)] if eta < 64 else [256]
        aliases = st.sampled_from(steps).flatmap(lambda step: st.integers(
            -(SMALL // step), SMALL // step).map(lambda k: near + k * step))
        v = data.draw(st.one_of(
            st.sampled_from([SMALL - 1, -(SMALL - 1), SMALL, -SMALL]),
            st.integers(near - 3, near + 3),
            st.integers(-SMALL, SMALL),
            aliases,
        ).filter(lambda v: -SMALL <= v <= SMALL), label="value")
        mutated = list(values)
        mutated[i] = v % P
        verdict, dtype = checked(cs, mutated)
        assert verdict == (v == near)
        int64 = Witness(mutated).signed.dtype == np.int64
        assert int64 == (abs(v) < SMALL)
        assert (dtype is np.int64) == (reference_bound(cs, mutated) < SMALL)

    def test_the_check_scans_no_wire_and_calls_no_public_floor(self, monkeypatch):
        """is_satisfied takes the witness span from the range the vector
        recorded when it was made or decoded, and computes each floor once,
        in the checker's dtype, without the public floor functions."""
        cs, values = honest("composed", 64, "MIXED")
        made = Witness(values)
        decoded = Witness.from_bytes(made.to_bytes())
        assert decoded._range == made._range
        calls, span = [], circuit._span
        monkeypatch.setattr(circuit, "_range", lambda s: calls.append(("_range", len(s))))
        monkeypatch.setattr(circuit, "_span",
                            lambda c, *r: calls.append(("_span", r)) or span(c, *r))
        for name in ("aggregation_floor", "update_floor", "_operand_span"):
            monkeypatch.setattr(circuit, name, lambda *a, name=name: calls.append((name,)))
        assert cs.is_satisfied(made) and cs.is_satisfied(decoded)
        assert calls == [("_span", made._range)] * 2

    def test_witness_generation_scans_no_wire(self, monkeypatch):
        """generate_witness picks each floor's dtype from the quantized
        range its inputs were checked against, and records the witness's
        range from its inputs and derived outputs without a scan of its
        wires (test_generated_witness_records_its_exact_range checks the
        range)."""
        cs, values = honest("composed", 64, "MIXED")
        pub = FieldVector(values[1 : 1 + cs.num_public])
        priv = FieldVector(values[1 + cs.num_public : 1 + cs.num_public + 64])
        calls, scan, span = [], circuit._range, circuit._span
        monkeypatch.setattr(circuit, "_range",
                            lambda s: calls.append(("_range", len(s))) or scan(s))
        monkeypatch.setattr(circuit, "_span",
                            lambda c, *r: calls.append(("_span", r)) or span(c, *r))
        for name in ("aggregation_floor", "update_floor", "_operand_span"):
            monkeypatch.setattr(circuit, name, lambda *a, name=name: calls.append((name,)))
        assert generate_witness(cs, pub, priv).values == values
        assert calls == [("_span", ())]

    @settings(deadline=None, max_examples=200)
    @given(kind=st.sampled_from(sorted(BUILDERS)), name=st.sampled_from(sorted(RANGE_CONSTANTS)),
           data=st.data())
    def test_generated_witness_records_its_exact_range(self, kind, name, data):
        """The range generate_witness records from its inputs and derived
        outputs is the least and greatest of 0 and the witness's wires."""
        c = RANGE_CONSTANTS[name]
        m = data.draw(st.integers(1, 12), label="m")
        q = st.lists(st.integers(-4000, 4000), min_size=m, max_size=m)
        u_q, w_q = data.draw(q, label="U"), data.draw(q, label="W")
        k_q = data.draw(st.integers(-4000, 4000), label="K")
        cs = BUILDERS[kind](m, c)
        if kind.startswith("aggregation"):
            public = quantized_aggregate(k_q, u_q, c).tolist() + [k_q]
        elif kind == "update":
            public = quantized_update(w_q, u_q, c).tolist() + w_q
        else:
            up_q = quantized_aggregate(k_q, u_q, c)
            public = quantized_update(w_q, up_q, c).tolist() + w_q + [k_q]
        wit = generate_witness(cs, public, u_q)
        assert wit._range == circuit._range(wit.signed)

    @pytest.mark.parametrize("z_up", [SMALL + 5, 2**63 + 5])
    def test_wide_range_witness_holds_python_ints(self, z_up):
        """Under a quantized range past (-SMALL, SMALL) a derived output may
        leave int64, as the private U' = z_up of all-zero inputs does here:
        the witness then holds Python ints and its range is the scanned
        one."""
        cs = build_protocol_circuit(2, CircuitConstants(z_up=z_up, q_max=2**64))
        wit = generate_witness(cs, [0] * cs.num_public, [0, 0])
        assert wit.signed.dtype == object
        assert wit._range == (0, z_up) == circuit._range(wit.signed)
        assert cs.is_satisfied(wit)
        assert Witness.from_bytes(wit.to_bytes()).values == wit.values

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
    def test_large_element_is_decided_in_python_ints(self, case, data):
        cs, values = honest(*case)
        i = data.draw(st.integers(1, len(values) - 1), label="wire")
        big = data.draw(st.sampled_from([2**100, P - 2**100, SMALL, P - SMALL]), label="big")
        mutated = list(values)
        mutated[i] = big
        # the witness takes frame width 32, as a Finding A transcript does
        assert Witness(mutated).signed.dtype == object
        assert checked(cs, mutated) == (False, object)

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_bits_that_recompose_but_are_not_bits(self, kind, m, name):
        """Bits b, c at t, t + 1 rewritten as b + 2, c - 1 recompose the same
        R, and b + 2 is no bit: only the booleanity rows reject them."""
        cs, values = honest(kind, m, name)
        for g in cs.gadgets:
            i = g.bits[-1][3]
            mutated = list(values)
            mutated[i] += 2
            mutated[i + 1] = (mutated[i + 1] - 1) % P
            assert checked(cs, mutated) == (False, np.int64)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_small_but_out_of_bound_element(self, kind):
        # fits in int64 but puts every gadget's bound past 2**62: the gadgets
        # decide in Python ints
        cs, values = honest(kind, 8, "MIXED")
        assert all(g.bound(MIXED, 2**40) >= SMALL for g in cs.gadgets)
        mutated = list(values)
        mutated[-1] = 2**40
        assert Witness(mutated).signed.dtype == np.int64
        assert checked(cs, mutated) == (False, object)

    @pytest.mark.parametrize("v", [2**59 - 207, 2**59 + 158])
    def test_huge_output_is_rejected(self, v):
        """Up[4] is 158 in the honest witness.  In int64, 2**59 + 158 gives
        the same 2**22 * (out - z), and so the same R and bits, and 2**59 - 207
        an R out of range with the same low 22 bits: a bound over the
        floor's operands alone would keep both witnesses on int64.  The
        bound over the whole witness puts them on Python ints."""
        cs, values = honest("aggregation-1", 8, "EQUAL")
        i = cs.var_names.index("Up[4]")
        assert values[i] == 158
        mutated = list(values)
        mutated[i] = v
        assert Witness(mutated).signed.dtype == np.int64
        assert checked(cs, mutated) == (False, object)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_wrong_length_raises(self, kind):
        cs, values = honest(kind, 1, "EQUAL")
        for bad in (values[:-1], values + (0,)):
            with pytest.raises(CircuitError, match="length"):
                cs.is_satisfied(bad)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_a_built_circuit_takes_no_more_wires(self, kind):
        cs = BUILDERS[kind](1, EQUAL)  # a fresh copy, not the cached one
        before = cs.digest(), cs.num_wires, cs.num_private
        for public in (False, True):
            with pytest.raises(CircuitError, match="no more wires"):
                cs.add_wires(["extra[%d]"], 2, public)
        assert (cs.digest(), cs.num_wires, cs.num_private) == before
        assert cs.to_json() == reference_json(cs)


def division_witness(cs, w_new, w_old, k):
    """A full assignment of the composed circuit cs whose W' and W are
    unrelated, with U' and U solved from the update and the aggregation
    rows by division in F_P and every remainder bit 0: it holds mod P, and
    its U and U' are field elements far past 2**62."""
    c = cs.constants
    cw, cu, ca, two_eta = (1 << x for x in (c.upd_w_shift, c.upd_u_shift, c.agg_shift, c.eta))
    up = [(c.z_up + (two_eta * (a - c.z_wp) - cw * (b - c.z_w)) * pow(cu, -1, P)) % P
          for a, b in zip(w_new, w_old)]
    u = [(c.z_u + two_eta * (v - c.z_up) * pow(ca * (k - c.z_k), -1, P)) % P for v in up]
    return [1, *w_new, *w_old, k, *u, *up] + [0] * (2 * cs.m * c.eta)


@pytest.mark.parametrize("accept", [True, False])
def test_a_width_32_proof_is_verified_without_the_rows(accept):
    """Mock verify decides a witness at frame width 32 with the gadgets, so
    it makes no row of the circuit, and set-up and the digest make only
    element 0's and 1's: a witness that holds only mod P is accepted, and
    an honest one with an element set to 2**100 rejected."""
    cs = build_protocol_circuit(8, EQUAL)
    if accept:
        rnd = random.Random(3)
        w_new, w_old = ([rnd.randint(-4000, 4000) for _ in range(8)] for _ in range(2))
        values = division_witness(cs, w_new, w_old, 3)
    else:
        values = list(honest("composed", 8, "EQUAL")[1])
        values[cs.var_names.index("U[2]")] = 2**100
    statement = Statement(values[1 : 1 + cs.num_public])
    body = Witness(values).to_bytes()
    assert body[0] & 0x7F == 32
    with element_reads() as reads:
        pair = MockBackend().setup(cs)
        proof = Proof("mock", cs.digest(), statement.digest(), body)
        assert reads == {0, 1}
        reads.clear()
        verdict = MockBackend().verify(pair.verifying_key, statement, proof)
        assert not reads
    assert verdict is (Verdict.ACCEPT if accept else Verdict.REJECT)
    assert verdict is (Verdict.ACCEPT if reference_replay(cs, values) else Verdict.REJECT)


def element_rows(cs):
    """Every row cs makes from its gadgets, element by element."""
    return [row for j in range(cs.m) for row in cs._element(j)]


class TestBooleanRows:
    @pytest.mark.parametrize("kind,m,name", CASES + ETA60_CASES)
    def test_rows_are_the_relations_element_by_element(self, kind, m, name):
        """A built circuit makes its rows from its gadgets element by
        element, and they are the rows of the relations, in order."""
        cs = BUILDERS[kind](m, PINNED_CONSTANTS[name])
        rows = element_rows(cs)
        assert rows == reference_rows(cs)
        assert all(type(row) is int for row in rows if not isinstance(row, tuple))

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_json_round_trip_keeps_split(self, kind, m, name):
        """A circuit loaded back from its key keeps the split into booleanity
        and relation rows and the gadgets that own them, so a verifier's
        circuit checks an honest witness gadget by gadget, as the built one
        does, and rejects a flipped bit the same way."""
        cs, values = honest(kind, m, name)
        back = through_key(cs)
        assert back.to_json() == cs.to_json()
        assert [(type(g), g.wires, g.out, g.bits) for g in back.gadgets] == \
            [(type(g), g.wires, g.out, g.bits) for g in cs.gadgets]
        assert checked(back, values) == (True, np.int64)
        bit = cs.gadgets[-1].bits[-1][0]
        flipped = list(values)
        flipped[bit] = 1 - flipped[bit]
        assert checked(back, flipped) == checked(cs, flipped) == (False, np.int64)

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_scattered_bits_set_to_small_values(self, kind):
        """Bit 1 of the first gadget's first bank and the last bit of the
        last gadget's last bank, set to every pair of small values with both
        banks still recomposing: the gadgets and the rows' triples accept
        only the honest pair."""
        cs, values = honest(kind, 8, "EQUAL")
        first, last = cs.gadgets[0].bits[0], cs.gadgets[-1].bits[-1]
        assert first[0] < last[0]
        for a, b in itertools.product(SMALL_VALUES, repeat=2):
            mutated = set_bit(set_bit(values, first, 1, a), last, len(last) - 1, b)
            honest_pair = (a % P, b % P) == (values[first[1]], values[last[-1]])
            assert agree(cs, mutated) == honest_pair

    @settings(deadline=None, max_examples=400)
    @given(case=st.sampled_from(CASES), data=st.data())
    def test_any_int64_value_on_any_wire(self, case, data):
        cs, values = honest(*case)
        # half the draws land on a public wire, the outputs among them
        i = data.draw(st.one_of(st.integers(1, cs.num_public), st.integers(1, len(values) - 1)),
                      label="wire")
        near = to_signed(values[i])
        # near + k * 2**(64 - eta) is the honest value once multiplied by
        # 2**eta in int64, and near + k * 256 is it in its low byte
        aliases = st.sampled_from([1 << (64 - cs.constants.eta), 256]).flatmap(
            lambda step: st.integers(-(SMALL // step), SMALL // step).map(lambda k: near + k * step))
        v = data.draw(st.one_of(
            st.integers(-3, 3),
            st.integers(near - 3, near + 3),
            st.integers(-(SMALL - 1), SMALL - 1),
            aliases,
        ).filter(lambda v: -SMALL < v < SMALL), label="value")
        mutated = list(values)
        mutated[i] = v % P
        assert Witness(mutated).signed.dtype == np.int64
        verdict = agree(cs, mutated)
        # a changed bit breaks its booleanity row or its recomposition, and
        # a changed output moves R by a nonzero multiple of 2**eta; only an
        # input can change unseen, as K does when every U_j = z_U
        if any(i in g.wires or i in g.out for g in cs.gadgets):
            assert verdict == (v == near)


class TestBooleanStorage:
    """A boolean row is the int of its wire, in the rows a circuit makes and
    in the oracle's, and means what the (A, B, C) triple
    {i: 1} * {i: 1, 0: -1} = {} means, as the canonical JSON spells it."""

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_builders_store_their_boolean_rows_as_ints(self, kind, m, name):
        cs = BUILDERS[kind](m, CONSTANTS[name])
        rows = element_rows(cs)
        ints = [row for row in rows if isinstance(row, int)]
        assert all(type(row) is int for row in ints)
        # the booleanity rows are on exactly the bit banks the gadgets check
        assert sorted(ints) == [i for g in cs.gadgets for bank in g.bits for i in bank]
        assert len(rows) - len(ints) == (2 * m if kind == "composed" else m)
        back = through_key(cs)
        assert element_rows(back) == rows
        assert back.digest() == cs.digest()

    @pytest.mark.parametrize("v", SMALL_VALUES)
    @pytest.mark.parametrize("kind", BUILDERS)
    def test_a_boolean_row_is_a_bit_test(self, kind, v):
        """Each bit past the first of each bank in turn set to v, with the
        bank still recomposing, so that only booleanity rows can fail: the
        gadgets and the evaluation of the row's triple give one verdict,
        and it holds only where v is the honest bit."""
        cs, values = honest(kind, 1, "MIXED")
        banks = [bank for g in cs.gadgets for bank in g.bits]
        assert sorted(i for bank in banks for i in bank) == sorted(
            row for row in reference_rows(cs) if isinstance(row, int))
        for bank in banks:
            for t in range(1, len(bank)):
                mutated = set_bit(values, bank, t, v)
                assert agree(cs, mutated) == (v % P == values[bank[t]])

    @pytest.mark.parametrize("kind", BUILDERS)
    def test_a_two_that_recomposes_is_refused(self, kind):
        """A bit set to 2 where the next bit goes from 1 to 0 leaves its bank
        recomposing the same remainder with every other bit 0 or 1, so only
        the booleanity row of that bit fails."""
        cs, values = honest(kind, 8, "MIXED")
        tried = 0
        for bank in (bank for g in cs.gadgets for bank in g.bits):
            t = next((t for t in range(len(bank) - 1)
                      if (values[bank[t]], values[bank[t + 1]]) == (0, 1)), None)
            if t is not None:
                mutated = list(values)
                mutated[bank[t]], mutated[bank[t + 1]] = 2, 0
                assert agree(cs, mutated) is False
                tried += 1
        assert tried

    def test_json_spelling_of_a_boolean_row(self):
        """The update circuit at m=1 has wires one, Wp[0], W[0], Up[0] and
        then its bits, and its second row is the booleanity row of wire 4,
        its first bit."""
        cs = build_update_circuit(1, EQUAL)
        assert cs._element(0)[1] == reference_rows(cs)[1] == 4
        assert triple(4) == ({4: 1}, {4: 1, 0: -1}, {})
        assert json.loads(cs.to_json())["constraints"][1] == [[[4, 1]], [[0, P - 1], [4, 1]], []]

    def test_protocol_circuit_memory(self):
        """The composed circuit at m=1000 retains about 0.24 MiB under
        tracemalloc as built, its wire banks and gadgets.  With a name
        string per wire it retained 3.4 MiB as built, and when it was also
        built with its rows and three dicts per boolean row, 33.8 MiB."""
        tracemalloc.start()
        try:
            cs = build_protocol_circuit(1000, CircuitConstants())
            built, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.gadgets and built < 2**20

    @pytest.mark.parametrize("kind", sorted(circuit.BUILDERS))
    def test_a_circuit_holds_no_name_per_wire(self, kind):
        """A circuit keeps its wire names as banks, a name with a slot for
        the row per row of wires, so the strings that it and its gadgets
        hold in their attributes do not grow with m."""
        def strings(obj):
            if isinstance(obj, str):
                return 1
            if isinstance(obj, dict):
                return strings(list(obj.items()))
            if isinstance(obj, (list, tuple, set, frozenset)):
                return sum(map(strings, obj))
            return 0

        def held(cs):
            return sum(strings(v) for obj in (cs, *cs.gadgets) for v in vars(obj).values())

        build = circuit.BUILDERS[kind]
        assert held(build(1000, EQUAL)) == held(build(1, EQUAL)) < 100


# cs.digest() as taken before any int64 satisfaction check; checking a
# witness must not change constraints, keys or manifests
PINNED_DIGESTS = {
    ("EQUAL", "aggregation-1", 1): "c31b6edb0227331d825c0444a8b3612e943bc12a74e88d7b8a0e97a7f514694d",
    ("EQUAL", "update", 1): "d5814ffad6e29897d3c843880edb23b090d1b05232bedfe5be3a6e69d34ce91e",
    ("EQUAL", "composed", 1): "e5a9a8a3dd8acf9fb8f9acdd028684c71c9c7444f60f8f09d1518ecd82f892d6",
    ("EQUAL", "aggregation-1", 8): "4bbde9f7858d409e99928ea3b9fe945adfbbd6e56d81bf46ad9f28819aa82ee2",
    ("EQUAL", "update", 8): "6ccad08768932217524cb7849bd838020b029125e441d4c90a80a77ba00d1c8a",
    ("EQUAL", "composed", 8): "ab9fe87e48665d781f6208a8da7b1b47538c95de50675448b36458eaf0bf4b78",
    ("EQUAL", "aggregation-1", 500): "daaf7b2c26d39bba878ce33864a8cf1ee91bff1a15fb8d946ff735940ccb8582",
    ("EQUAL", "update", 500): "9e526e5d48aef38828a873b9d3f5d7abf44d4f5789a3ff31ac6126767f7827f6",
    ("EQUAL", "composed", 500): "0580c8629769b2df0547da84a145c79c6ce853d2218b419ce0a0de0129e99bd0",
    ("MIXED", "aggregation-1", 1): "8047d7d24dc6e17b9d4a2955af6a97d4eea8279140d34634340bbb0c933e51e8",
    ("MIXED", "update", 1): "ab01f1f086f340d1cefae4fa2b1fcbae8da06df31b1b3a69b74115460c2e4281",
    ("MIXED", "composed", 1): "b03620b7b15153c76dc56d8a2814318f8c60c5293d95ba17299cdeb19128cd66",
    ("MIXED", "aggregation-1", 8): "c06160cbce184f107a07dfa1d6999e9d4086c0f4d39a38c978db583fba03608f",
    ("MIXED", "update", 8): "a035352e7a277145ece9c3bd51f582c218ad5248c99cafe2675235be4edfe1ac",
    ("MIXED", "composed", 8): "04ab8a2321cb112dc6cd42d7d089543a5622ed13154901b1f469f0699d892b71",
    # taken before to_json wrote the constraint list from templates
    ("EQUAL", "composed", 1000): "1c77bf2751fd4a6e49c51dbc7e82111d3ca7cf561c4bceee8e600a6d2fda0416",
    ("MIXED", "composed", 1000): "863f9fa6bb125d09626b20fb303195fb4f3310b32391659d63fcffd71b5c19f6",
    # taken before every relation row went through one floor gadget
    ("ETA60", "aggregation-1", 8): "4563efb2f65a9d88ec2d7feb416e80f7ab5a177f6f20aef2c6b3f89d6dbb22d1",
    ("ETA60", "update", 8): "559df7bf9e488d46ccdad1c9a0d22d2c66a2fa557672ecfdb4215cd2fec67f7c",
    ("ETA60", "composed", 8): "fcb7b91d121d0334b330932a38453235632c1e344a87b7fe15811034b29c0845",
    # taken before each gadget laid out its own wires and rows
    ("EQUAL", "aggregation-1", 64): "525c01c45dccdb41e88f2d825febebb0e49da6d350857965c5d7c2457a1b5216",
    ("EQUAL", "update", 64): "8314baf7d5e1b18a81df0adb0ad6f1896f5579f7aaf3083a6b6daf9eb0b11b8c",
    ("EQUAL", "composed", 64): "fedb51766af4ac9b354ed6cd71e41fe6c415114f27f6d7f6f6df192eb050f415",
    ("MIXED", "aggregation-1", 64): "93fceec83a27063d967615ca755916a9889c7046b71f8c792bc5302d4fb21b70",
    ("MIXED", "aggregation-1", 500): "69b0a9b8fc268f6779f9788343b74c5383445d9d25dafe82d30c34b42e85cea4",
    ("MIXED", "update", 64): "6b75e268d6ccbfc7efc0d91896a1100bd68d44c5523b3c6a4abee8a25f35e440",
    ("MIXED", "update", 500): "f278f700e2acbaddc3154078968faeb6f64b364b5066a2ea44c99ec01ac2163a",
    ("MIXED", "composed", 64): "82600f7365b3dafc49a01ac36a8011a0343b68c64f53fe1abc17a2af973fd026",
    ("MIXED", "composed", 500): "e6c4fb81a047343e49aae1d2f20baa30d8a33dc46f6f62148a4913482b7d0d9b",
    ("ETA60", "aggregation-1", 1): "71c31f14467f80cb648d19289385e4229c224b87b09f3b7b553acbf5fa199d70",
    ("ETA60", "aggregation-1", 64): "91aa51663c1867383110d41d565a697d33fb49c9f53d9eaf36285a42c1c38cef",
    ("ETA60", "aggregation-1", 500): "6bcf028addebc4caeb48910d258f1f24f189bb198252defc8e6566f72621c35f",
    ("ETA60", "update", 1): "c30e5e5189ba3fa9e65351c092510ad768f97957c76e490cb7eaf94fb9318cb5",
    ("ETA60", "update", 64): "e06d44df9c5ec8eb937edf441fd1e7c1527476e4bbfc2f2bb533c06eb6a5f24c",
    ("ETA60", "update", 500): "f1e3a4ee4085b656082a31a58154db673d9277905a220190014c301fb9019605",
    ("ETA60", "composed", 1): "ef13f1dd6b777edc03e96815053ed1c57a0fc96ed8161724404fc241f0d6051a",
    ("ETA60", "composed", 64): "150b8cd0928f24aff087406aed29eb4729b259f93e57ba8dd3fd863963ade93e",
    ("ETA60", "composed", 500): "b4c809dd69a5a260b2ecb5b89d30ae34920a15d7ac7f1bcda874411e84f39350",
}


@pytest.mark.parametrize("name,kind,m", sorted(PINNED_DIGESTS))
def test_pinned_circuit_digest(name, kind, m):
    cs = BUILDERS[kind](m, PINNED_CONSTANTS[name])
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]
    assert cs.is_satisfied(honest(kind, m, name)[1])
    assert cs.digest() == PINNED_DIGESTS[name, kind, m]


# sha256 of the u32 count and the 32-byte canonical elements of the honest()
# witnesses, which is the frame generate_witness(...).to_bytes() had before
# frames carried a width byte; taken before every relation row and its bits
# went through one floor gadget
PINNED_WITNESSES = {
    ("EQUAL", "aggregation-1", 1): "bda50f335fbea54ce6b72ecfa003d25af9bddd2d4c6578168d72429612ce9ce2",
    ("MIXED", "aggregation-1", 1): "da8fdbace5b15f15584e8be8c96053aaf5939f6165863868b5899e0a1c3114ab",
    ("EQUAL", "aggregation-1", 8): "e6572e1f61e8fcf750274d7604a852827faf23bfabd4785f61a5322658de1c3b",
    ("MIXED", "aggregation-1", 8): "18a8c9cf27e163a6409782e2f67b51ad75f4b0dfe308f467907be2dd0d60308f",
    ("EQUAL", "aggregation-1", 64): "bb46ea066e26fe89b6dd6fcc5397899f833ef24662bccb5219a130a020e3a0c1",
    ("MIXED", "aggregation-1", 64): "5674bc4b7d136c4c42997e56ab5edf5ffbd27ff30be8d4005f82317fa7673a03",
    ("EQUAL", "update", 1): "b2fb20fd0c9dafbddea8e94decff809ffc522c95c4b8cd4bd074938e2e110191",
    ("MIXED", "update", 1): "7318697fe1eee0ac36e34f91ab9c6b7822cbbb580de5e45cb6ce22b28dd93cb0",
    ("EQUAL", "update", 8): "ac9037a86b1b235ec2155784a5a52dc3c9cc2d402a853150069eb5af361f6db2",
    ("MIXED", "update", 8): "0d267ca87182205e7872e1c04283b296a10ae8399f7779623e22ad101424a031",
    ("EQUAL", "update", 64): "961020484209d60a79cd8ca1eb8e9505a90bae826e9475159bdc3bd935c9ba05",
    ("MIXED", "update", 64): "e7c137f425533c09206d54b9068a1997bc0c334807f929b3ca57d040dc933745",
    ("ETA60", "update", 8): "29e8dc2f3b408dff14100846e21a23111ebc802a0052dde621477d871b5b9db2",
    ("ETA60", "composed", 8): "0bc8712e8d342df02698112e8c3a66ace366d34ffd21487ec571fadff30cd8ce",
    # taken before each gadget filled its own range of the witness
    ("EQUAL", "composed", 1): "c7c40c71468a6ca584998bf27be86be36f6dbbb020e89d417582032b2c9dd0c3",
    ("EQUAL", "composed", 8): "037e6361893fddb7b47d37e504547d3153f00cd78696cca3100568dac49cac2c",
    ("EQUAL", "composed", 64): "fc5841f3b50fbdf283013baca7b7ccc3c828bc3ef90ddf1194afe1f24db6a44d",
    ("MIXED", "composed", 1): "cffed9327b9760acd3f10dc360e6181ea6294134b37ea72e0eb5c3c7b761c72f",
    ("MIXED", "composed", 8): "30bafbc7310140da61a7e528000b8b30ec82239eeb55f55341ddf053a38cd9fd",
    ("MIXED", "composed", 64): "ee6c7cd0f5ab2dc8b3c7625758fdeba44fbfeaee1bc8f6508db7b2b703797f9d",
    ("ETA60", "aggregation-1", 1): "bbca2984df5bca7346f6f8741c40d5663c893453041594fee2753f6be3882379",
    ("ETA60", "aggregation-1", 8): "cd0134c4b8b1384431c1be94b9eb1c8a45ba4f0e3934f4147f99e04d4d155534",
    ("ETA60", "aggregation-1", 64): "0da400bc869e61058769fa6cee969b5991f3adb63de1621a4be0448a43163fdd",
    ("ETA60", "update", 1): "2277f052dd9d3bffd695470d8b0aa434c86516d35401948031aec22f99d66d0a",
    ("ETA60", "update", 64): "48bd4510134e1461d70cd513630b2f08d3c822c514b735f05ab2fc7749f4d85f",
    ("ETA60", "composed", 1): "cf5b295da2b651bd4bfb3ce0c4cccc4598a8d2d135a78bfe711e7ee8e1c175d7",
    ("ETA60", "composed", 64): "6e8480739099a2f65e4ecd79719c3afca43f210acc5c9e186ae057e3ffff39f5",
    ("EQUAL", "aggregation-1", 500): "4b3e22e273891bcae67f1481b2a6ef1f8014365421493f17adcc017977877cc3",
    ("EQUAL", "update", 500): "3f7a6f196b403f1fc84fbd7e70f9993898575ef707d1a3269e400252b97be74f",
    ("EQUAL", "composed", 500): "659305dc4d0d2f60d7b297e94ad6362482b96aed1fce0280a7f68e4174afeed3",
    ("MIXED", "aggregation-1", 500): "c9e598a218a58ccbf2c6a0605227c73293c4ad047f3dc4b1c47a98f6d31cbf31",
    ("MIXED", "update", 500): "de70b53a0f04ee26133c8bddfd0f3e99fac94df8f2d84ed170b37fd67d7ad7f8",
    ("MIXED", "composed", 500): "0d9992a81ba4662dd13e7360df0891eaa0a57bcf46d24cb30bc08173a7b91012",
    ("ETA60", "aggregation-1", 500): "dc998c430a4fc2bfe418ec2d7b6734820baf2f8af5077f73f320d6f9778bc630",
    ("ETA60", "update", 500): "0270da72de56642683ae1f66daa7e72a89f7ff16b17e1cde789912a616d51121",
    ("ETA60", "composed", 500): "67eb375b45293fe416d596a24e4d5eb2ec3091e7f71e21ccebc9b70be6db117c",
}


@pytest.mark.parametrize("name,kind,m", sorted(PINNED_WITNESSES))
def test_pinned_witness_bytes(name, kind, m):
    _, values = honest(kind, m, name)
    data = len(values).to_bytes(4, "little") + circuit._write_elements(values)
    assert hashlib.sha256(data).hexdigest() == PINNED_WITNESSES[name, kind, m]


@pytest.mark.parametrize("eta", [22, 60, 200])
@pytest.mark.parametrize("m", [1, 2, 17, 1000])
@pytest.mark.parametrize("kind", sorted(circuit.BUILDERS))
def test_var_names_follow_the_layout(kind, m, eta):
    """The names parsed from the text the digest writes are the layout's."""
    cs = circuit.BUILDERS[kind](m, CircuitConstants(eta=eta))
    assert cs.var_names == reference_names(kind, m, eta)


def reference_json(cs):
    """The canonical JSON as the dict-building writer produced it, with the
    wire names of the builders' layout."""
    def enc(lc):
        return sorted([i, co % P] for i, co in lc.items())

    d = {
        "kind": cs.kind,
        "m": cs.m,
        "n": 1,
        "constants": asdict(cs.constants),
        "num_public": cs.num_public,
        "num_private": cs.num_private,
        "variables": reference_names(cs.kind, cs.m, cs.constants.eta),
        "constraints": [list(map(enc, triple(row))) for row in reference_rows(cs)],
    }
    return json.dumps(d, separators=(",", ":"), sort_keys=True)


SUFFIXES = ("k", "u", "up", "w", "wp")


@st.composite
def built_circuits(draw):
    """The circuit from_spec builds from a drawn spec: a kind, m in 1..64,
    and constants with varied zero-points, scale exponents and eta.  A spec
    the builder refuses, as for a negative scale exponent, is skipped."""
    constants = {f"f_{x}": draw(st.integers(0, 24)) for x in SUFFIXES}
    constants.update({f"z_{x}": draw(st.one_of(st.integers(-9, 9), st.integers(-(2**20), 2**20)))
                      for x in SUFFIXES})
    constants["eta"] = draw(st.one_of(st.integers(MIN_ETA, 64), st.sampled_from([100, 200, 253])))
    constants["q_min"] = draw(st.integers(-(2**15), 0))
    constants["q_max"] = draw(st.integers(0, 2**15))
    spec = {"kind": draw(st.sampled_from(sorted(circuit.BUILDERS))),
            "m": draw(st.one_of(st.integers(1, 8), st.integers(1, 64))), "constants": constants}
    try:
        return from_spec(spec)
    except CircuitError:
        reject()


@settings(deadline=None, max_examples=150)
@given(built_circuits())
def test_to_json_matches_dict_writer(cs):
    text = cs.to_json()
    assert text == reference_json(cs)
    assert cs.digest() == hashlib.sha256(text.encode()).hexdigest()
    # a key carries the spec, which builds the same circuit again
    assert through_key(cs).digest() == cs.digest()


@pytest.mark.parametrize("kind", sorted(circuit.BUILDERS))
def test_variable_names_need_no_json_escape(kind):
    """to_json writes the wire names between quotes as they are, so each is
    printable ASCII with no quote and no backslash."""
    names = circuit.BUILDERS[kind](12, CircuitConstants(eta=60)).var_names
    assert all(n.isascii() and n.isprintable() and '"' not in n and "\\" not in n
               for n in names)


@pytest.mark.parametrize("kind", sorted(circuit.BUILDERS))
def test_digest_follows_the_spec(kind):
    """One spec built twice gives one digest, the hash of its text; another
    m, another constant or another kind gives another digest."""
    build = circuit.BUILDERS[kind]
    digest = build(3, MIXED).digest()
    assert build(3, MIXED).digest() == digest
    assert digest == hashlib.sha256(reference_json(build(3, MIXED)).encode()).hexdigest()
    others = [build(4, MIXED), build(3, EQUAL),
              build(3, CircuitConstants(**{**asdict(MIXED), "eta": MIXED.eta + 1})),
              *(b(3, MIXED) for k, b in circuit.BUILDERS.items() if k != kind)]
    assert len({digest, *(cs.digest() for cs in others)}) == 1 + len(others)


# per builder, for 10, 100, 1 000 and 10 000, the smallest m at which one
# bank of a gadget's bits holds both that wire and the one before it, so
# that one boolean-row template is filled with wires of two decimal widths
WIDTH_CROSSINGS = {"aggregation-1": (1, 6, 42, 417), "update": (1, 4, 40, 400),
                   "composed": (1, 3, 21, 209)}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
@pytest.mark.parametrize("kind,wire,m", [
    (kind, 10 ** (i + 1), m) for kind, ms in WIDTH_CROSSINGS.items() for i, m in enumerate(ms)])
def test_to_json_where_a_bit_bank_crosses_a_decimal_width(kind, wire, m, name):
    cs = BUILDERS[kind](m, CONSTANTS[name])
    assert any(wire - 1 in bank and wire in bank for g in cs.gadgets for bank in g.bits)
    text = cs.to_json()
    assert text == reference_json(cs)
    assert cs.digest() == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("eta", [22, 60])
@pytest.mark.parametrize("name", sorted(CONSTANTS))
@pytest.mark.parametrize("kind", sorted(BUILDERS))
@pytest.mark.parametrize("m", [1, 9, 10, 11, 99, 100, 101, 1000])
def test_element_template_writes_the_rows_text(kind, m, name, eta):
    """A built circuit's text, written from its element template, which
    makes only element 0's and 1's rows, is the text the dict-building
    writer makes of the oracle's rows; these m put wire indices on both
    sides of 10, 100, 1 000 and 10 000."""
    cs = BUILDERS[kind](m, CircuitConstants(**{**asdict(CONSTANTS[name]), "eta": eta}))
    with element_reads() as reads:
        text = cs.to_json()
    assert reads == {0, min(1, m - 1)}
    assert_same_text(text, reference_json(cs))


def assert_same_text(text, ref):
    """text == ref, failing with where they first differ: pytest's own diff
    of two texts of megabytes runs for hours."""
    if text != ref:
        at = next(i for i, (a, b) in enumerate(zip(text + "\0", ref + "\1")) if a != b)
        lo = max(at - 40, 0)
        pytest.fail(f"texts differ at character {at}: "
                    f"{text[lo : at + 40]!r} != {ref[lo : at + 40]!r}")


@pytest.mark.parametrize("kind,m,name", ETA60_CASES + [(k, 9, "MIXED") for k in BUILDERS])
def test_rows_are_counted_without_being_made(kind, m, name):
    """num_constraints counts a circuit's rows as m * (1 + eta) per gadget
    without making any of them."""
    cs = BUILDERS[kind](m, PINNED_CONSTANTS[name])
    with element_reads() as reads:
        count = cs.num_constraints
    assert count == len(reference_rows(cs)) and not reads


def test_digest_holds_the_text_about_once():
    """The digest's preimage is one buffer of the text's length, written in
    place: at m=1000 the text is about 5.9 MiB, and writing and hashing it
    peaks at about 7.0 MiB above the built circuit under tracemalloc (7.4 MiB
    when the rows were written one at a time into a growing buffer, and
    13.2 MiB when the text was joined from a list of row strings and then
    encoded)."""
    cs = build_protocol_circuit(1000, CircuitConstants())
    size = len(cs.to_json())
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        cs.digest()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < 1.25 * size


# -- the witness and statement codec, against a reference that writes and
# reads each element and each bit on its own; decoding must accept exactly
# the frames the reference writes

WIDTHS = (2, 4, 8, 32)
# the flag bit of a width byte whose frame ends with a bit tail
TAIL = 128


def reference_width(signed):
    """The width the encoder must choose for these signed representatives."""
    if all(-(2**15) <= v < 2**15 for v in signed):
        return 2
    if all(-(2**31) <= v < 2**31 for v in signed):
        return 4
    if all(-SMALL < v < SMALL for v in signed):
        return 8
    return 32


def reference_run(signed):
    """The length of the whole trailing run of 0s and 1s."""
    b = 0
    for v in reversed(signed):
        if v not in (0, 1):
            break
        b += 1
    return b


def tail_pays(width, b):
    """Whether b elements at ``width`` take more bytes than a u32 tail
    length and b bits in whole bytes."""
    return width * b > 4 + (b + 7) // 8


def reference_frame(values, width, b=None):
    """The frame of ``values`` at ``width``, plain when b is None, and
    otherwise with its last b elements, which must be 0 or 1, as a bit
    tail, whether or not the encoder would write that tail."""
    signed = [to_signed(v % P) for v in values]
    n = len(signed)
    k = n if b is None else n - b
    if width == 32:
        body = b"".join((v % P).to_bytes(32, "little") for v in signed[:k])
    else:
        body = b"".join(v.to_bytes(width, "little", signed=True) for v in signed[:k])
    if b is None:
        return bytes([width]) + n.to_bytes(4, "little") + body
    bits = bytearray((b + 7) // 8)
    for i, v in enumerate(signed[k:]):
        assert v in (0, 1)
        bits[i // 8] |= v << i % 8
    return bytes([width + TAIL]) + n.to_bytes(4, "little") + b.to_bytes(4, "little") \
        + body + bytes(bits)


def reference_encode(values, width=None):
    """The frame of ``values``, element by element, at ``width`` or else at
    the width the encoder must choose, with the bit tail the encoder must
    write at that width."""
    signed = [to_signed(v % P) for v in values]
    width = width or reference_width(signed)
    b = reference_run(signed)
    return reference_frame(values, width, b if tail_pays(width, b) else None)


def reference_decode(data, what):
    if len(data) < 5:
        raise ValueError(f"truncated {what}")
    width, tail = data[0] % TAIL, data[0] >= TAIL
    if width not in WIDTHS:
        raise ValueError(f"unknown {what} width {data[0]}")
    start = 9 if tail else 5
    if len(data) < start:
        raise ValueError(f"truncated {what}")
    n = int.from_bytes(data[1:5], "little")
    b = int.from_bytes(data[5:9], "little") if tail else 0
    if b > n:
        raise ValueError(f"{what} bit tail longer than its count")
    k = n - b
    if len(data) != start + width * k + (b + 7) // 8:
        raise ValueError(f"truncated {what}")
    elements = [data[start + width * i : start + width * (i + 1)] for i in range(k)]
    if width == 32:
        head = [int.from_bytes(e, "little") for e in elements]
        if any(v >= P for v in head):
            raise ValueError(f"{what} element not reduced")
        head = [to_signed(v) for v in head]
    else:
        head = [int.from_bytes(e, "little", signed=True) for e in elements]
    packed = data[start + width * k :]
    bits = [packed[i // 8] >> i % 8 & 1 for i in range(8 * len(packed))]
    if any(bits[b:]):
        raise ValueError(f"{what} bit tail padding is not zero")
    signed = head + bits[:b]
    if tail:
        if not tail_pays(width, b):
            raise ValueError(f"{what} bit tail makes the frame no shorter")
        if head and head[-1] in (0, 1):
            raise ValueError(f"{what} bit tail is not the whole run of bits")
    elif tail_pays(width, reference_run(signed)):
        raise ValueError(f"{what} frame lacks its bit tail")
    if reference_width(signed) != width:
        raise ValueError(f"{what} is not at the width of its values")
    assert reference_encode(signed) == data
    return signed


@st.composite
def frames_of_any_width(draw):
    """A width byte of the codec, a count and that many elements of random
    bytes; or the width byte flagged, a count, a tail length of at most
    40, and the head's elements and the tail's bytes of random bytes."""
    width = draw(st.sampled_from(WIDTHS))
    elements = draw(st.lists(st.binary(min_size=width, max_size=width), max_size=6))
    if not draw(st.booleans()):
        return bytes([width]) + len(elements).to_bytes(4, "little") + b"".join(elements)
    b = draw(st.integers(0, 40))
    bits = draw(st.one_of(st.binary(min_size=(b + 7) // 8, max_size=(b + 7) // 8),
                          st.integers(0, 2**b - 1).map(lambda v: v.to_bytes((b + 7) // 8, "little"))))
    return bytes([width + TAIL]) + (len(elements) + b).to_bytes(4, "little") \
        + b.to_bytes(4, "little") + b"".join(elements) + bits


signed_small = st.integers(-(SMALL - 1), SMALL - 1)
any_element = st.one_of(signed_small, st.integers(0, P - 1), st.integers(-P, 2 * P))


class TestWitnessCodec:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(any_element, max_size=40))
    def test_to_bytes_matches_per_element_encoding(self, values):
        w = Witness(values)
        assert w.to_bytes() == reference_encode(values)
        back = Witness.from_bytes(w.to_bytes())
        assert back.values == w.values
        assert back.signed.dtype == w.signed.dtype

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_honest_witness_encoding(self, kind, m, name):
        _, values = honest(kind, m, name)
        w = Witness(values)
        assert w.signed.dtype == np.int64
        assert w.to_bytes() == reference_encode(values)
        assert w.to_bytes()[0] == 2 + TAIL  # it ends with its gadgets' bits
        assert np.array_equal(Witness.from_bytes(w.to_bytes()).signed, w.signed)

    @pytest.mark.parametrize("v", [SMALL - 1, P - (SMALL - 1), 0, 1, P - 1])
    def test_small_boundary_is_int64(self, v):
        w = Witness.from_bytes(reference_encode([1, v]))
        assert w.signed.dtype == np.int64
        assert w.values == (1, v)

    @pytest.mark.parametrize("v", [SMALL, P - SMALL, 2**100, P - 2**100, 2**200])
    def test_large_element_round_trips_through_fallback(self, v):
        data = reference_encode([1, -5, v, 7])
        assert data[0] == 32
        w = Witness.from_bytes(data)
        assert w.signed.dtype == object
        assert w.values == (1, P - 5, v, 7)
        assert w.to_bytes() == data

    @pytest.mark.parametrize("v", [P, P + 1, 2**256 - 1, P + SMALL - 1])
    def test_unreduced_element_rejected(self, v):
        data = bytes([32]) + (3).to_bytes(4, "little") + (SMALL).to_bytes(32, "little") \
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

    def test_values_are_scanned_once(self, monkeypatch):
        """A vector keeps the least and greatest of 0 and its values from when
        it is made or decoded, and its frame width comes from them."""
        calls = []
        scan = circuit._range
        monkeypatch.setattr(circuit, "_range", lambda s: calls.append(len(s)) or scan(s))
        arr = np.arange(-5, 40_000, dtype=np.int64)
        data = Witness(arr).to_bytes()
        assert data[0] == 4 and calls == [len(arr)]
        assert Witness.from_bytes(data).to_bytes() is data
        assert calls == [len(arr)] * 2
        assert Witness([5, 7]).to_bytes()[0] == 2 and calls == [len(arr)] * 2

    def test_int64_array_is_copied(self):
        arr = np.array([1, -2, 3], dtype=np.int64)
        w = Witness(arr)
        arr[0] = 5
        assert w.values == (1, P - 2, 3) and arr.flags.writeable

    @pytest.mark.parametrize("kind,m,name", CASES)
    def test_decoding_never_encodes(self, kind, m, name, monkeypatch):
        calls = []
        frame = circuit._frame
        monkeypatch.setattr(circuit, "_frame", lambda s: calls.append(len(s)) or frame(s))
        cs, values = honest(kind, m, name)
        wire = reference_encode(values)
        statement = reference_encode(values[1 : 1 + cs.num_public])
        assert Witness.from_bytes(wire).values == tuple(values)
        assert Statement.from_bytes(statement).values == tuple(values[1 : 1 + cs.num_public])
        assert calls == []

    def test_truncated_frame_rejected(self):
        data = Witness([1, -2, 3]).to_bytes()
        for cut in (0, 3, 4, 5, 6, len(data) - 1):
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
        assert s.to_bytes() == reference_encode(values)
        assert s.digest() == hashlib.sha256(reference_encode(values)).hexdigest()
        assert s.values == tuple(v % P for v in values)
        back = Statement.from_bytes(s.to_bytes())
        assert back.values == s.values
        assert back.signed.dtype == s.signed.dtype

    @pytest.mark.parametrize("values", [SIGNED, CANONICAL, MIXED_LARGE],
                             ids=["signed", "canonical", "mixed"])
    def test_representations(self, values):
        s = Statement(values)
        assert (s.signed.dtype == object) == (values is MIXED_LARGE)
        assert s.to_bytes() == reference_encode(values)
        assert s == Statement.from_bytes(reference_encode(values))

    def test_int64_array_and_list_agree(self):
        arr = np.array(SIGNED, dtype=np.int64)
        s = Statement(arr)
        assert s.to_bytes() == Statement(SIGNED).to_bytes() == reference_encode(SIGNED)
        arr[0] = 99  # the statement holds its own copy
        assert s.values[0] == 1

    @pytest.mark.parametrize("v", [P, P + 1, 2**256 - 1, P + SMALL - 1])
    def test_unreduced_element_is_decode_error(self, v):
        data = bytes([32]) + (2).to_bytes(4, "little") + (SMALL).to_bytes(32, "little") \
            + v.to_bytes(32, "little")
        with pytest.raises(DecodeError, match="not reduced"):
            Statement.from_bytes(data)

    def test_truncated_frame_is_decode_error(self):
        data = Statement([1, -2, 3]).to_bytes()
        for cut in (0, 3, 4, 5, 6, len(data) - 1):
            with pytest.raises(DecodeError, match="truncated"):
                Statement.from_bytes(data[:cut])
        with pytest.raises(DecodeError, match="truncated"):
            Statement.from_bytes(data + b"\0")

    @settings(deadline=None, max_examples=300)
    @given(st.one_of(st.binary(max_size=200), frames_of_any_width()))
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
        with pytest.raises(ValueError):
            big.signed[0] = 2


# -- the codec and the bit rows against implementations that take one
# element at a time; these are the oracles

def reference_bit_rows(r, eta):
    return ((r[:, None] >> np.arange(eta, dtype=r.dtype)) & 1).ravel()


def decode(data, what):
    """The signed representatives FieldVector decodes from a frame."""
    signed = FieldVector._from_frame(data, what).signed
    assert (signed.dtype == np.int64) == (data[0] % TAIL != 32)
    return signed


def decode_outcome(decode, data):
    """("error", message), or the signed representatives decoded."""
    try:
        out = decode(data, "witness")
    except ValueError as e:
        return "error", str(e)
    return "ok", [to_signed(int(v) % P) for v in out]


EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**31, SMALL - 1, SMALL, 2**63 - 1]
BOUNDARY = [0, 1, -1, -(2**63)] + [sign * e for e in EDGES for sign in (1, -1)]
# 32-byte elements: the boundary values reduced mod P, and unreduced ones
WIDE_BOUNDARY = [v % P for v in BOUNDARY] + [P, P + 1, 2**256 - 1]


def boundary_bytes(width):
    """One element at ``width``: a boundary value wrapped to the width's
    integers, or any 32-byte boundary element, reduced or not."""
    if width == 32:
        return st.sampled_from(WIDE_BOUNDARY).map(lambda v: v.to_bytes(32, "little"))
    return st.sampled_from(BOUNDARY).map(lambda v: (v % 2 ** (8 * width)).to_bytes(width, "little"))


def head_count(frame):
    """The number of elements before a frame's bit tail."""
    n = int.from_bytes(frame[1:5], "little")
    return n - int.from_bytes(frame[5:9], "little") if frame[0] >= TAIL else n


def set_element(frame, i, element):
    """The frame with head element i replaced by the bytes ``element``."""
    at = (9 if frame[0] >= TAIL else 5) + len(element) * i
    return frame[:at] + element + frame[at + len(element) :]


def flip_bit(frame, i):
    """The frame with bit i of its bit tail's bytes flipped, padding bits
    included."""
    at = len(frame) - (int.from_bytes(frame[5:9], "little") + 7) // 8 + i // 8
    return frame[:at] + bytes([frame[at] ^ 1 << i % 8]) + frame[at + 1 :]


class TestAgainstReferences:
    @settings(deadline=None, max_examples=400)
    @given(case=st.sampled_from(CASES), width=st.sampled_from(WIDTHS), data=st.data())
    def test_decode_of_an_honest_frame_with_boundary_elements(self, case, width, data):
        values = honest(*case)[1]
        frame = reference_encode(values, width)
        tail_bits = 8 * (len(frame) - 9 - width * head_count(frame)) if frame[0] >= TAIL else 0
        for _ in range(data.draw(st.integers(1, 3), label="elements changed")):
            if tail_bits and data.draw(st.booleans(), label="in the tail"):
                frame = flip_bit(frame, data.draw(st.integers(0, tail_bits - 1), label="bit"))
                continue
            i = data.draw(st.integers(0, head_count(frame) - 1), label="element")
            frame = set_element(frame, i, data.draw(boundary_bytes(width)))
        assert decode_outcome(decode, frame) == \
            decode_outcome(reference_decode, frame)

    # one element anywhere in a long vector needs the width, or nothing does
    @pytest.mark.parametrize("i", [0, 8191, 8192, 16384, 16386])
    @pytest.mark.parametrize("width,v", [(4, 2**15), (4, -(2**15) - 1), (8, 2**31),
                                         (8, -(SMALL - 1)), (32, SMALL), (32, -SMALL)])
    def test_one_element_sets_the_width(self, i, width, v):
        rnd = random.Random(i)
        values = [rnd.randint(-4000, 4000) for _ in range(16387)]
        values[i] = v
        frame = reference_encode(values)
        assert frame[0] == width
        assert decode_outcome(decode, frame) == ("ok", values)
        values[i] = 7
        frame = reference_encode(values, width)
        outcome = decode_outcome(decode, frame)
        assert outcome == decode_outcome(reference_decode, frame)
        assert outcome[0] == "error"

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(WIDTHS + (0, 1, 3, 16, 255)), st.integers(-1, 1), st.data())
    def test_decode_of_frames_built_from_boundary_elements(self, width, off, data):
        if width in WIDTHS:
            elements = data.draw(st.lists(boundary_bytes(width), max_size=6))
        else:
            elements = data.draw(st.lists(st.binary(min_size=width, max_size=width), max_size=6))
        count = max(len(elements) + off, 0)
        frame = bytes([width]) + count.to_bytes(4, "little") + b"".join(elements)
        assert decode_outcome(decode, frame) == \
            decode_outcome(reference_decode, frame)

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


def mock_verdict(body):
    """The mock verdict on a proof of the honest statement with this body."""
    vk, statement, _ = mock_instance()
    proof = Proof(backend="mock", circuit_digest=vk.circuit_digest,
                  statement_digest=statement.digest(), body=body)
    return MockBackend().verify(vk, statement, proof)


def mutated_bodies():
    _, _, body = mock_instance()
    width, k = body[0] % TAIL, head_count(body)
    bits_at = 9 + width * k
    values = Witness.from_bytes(body).values
    return st.one_of(
        st.binary(max_size=600),
        st.integers(0, len(body) - 1).map(lambda cut: body[:cut]),
        st.binary(min_size=1, max_size=64).map(lambda extra: body + extra),
        st.tuples(st.integers(0, k - 1), st.binary(min_size=width, max_size=width)).map(
            lambda t: set_element(body, *t)),
        st.lists(st.binary(min_size=width, max_size=width), min_size=k, max_size=k).map(
            lambda els: body[:9] + b"".join(els) + body[bits_at:]),
        st.integers(0, 8 * (len(body) - bits_at) - 1).map(lambda i: flip_bit(body, i)),
        st.binary(min_size=len(body) - bits_at, max_size=len(body) - bits_at).map(
            lambda bits: body[:bits_at] + bits),
        st.integers(0, 255).map(lambda b: bytes([b]) + body[1:]),
        st.sampled_from(WIDTHS).map(lambda w: reference_encode(values, w)),
        st.sampled_from(WIDTHS).map(lambda w: reference_frame(values, w)),
    )


@settings(deadline=None, max_examples=300)
@given(mutated_bodies())
def test_mock_verify_rejects_malformed_bodies_without_raising(body):
    verdict = mock_verdict(body)
    if body == mock_instance()[2]:
        assert verdict is Verdict.ACCEPT
    else:
        assert verdict is Verdict.REJECT


# the element that sets each width, at the top of its range
WIDTH_EDGE = {2: 2**15 - 1, 4: 2**31 - 1, 8: SMALL - 1, 32: P // 2}


@st.composite
def bit_tailed(draw, width, min_run=0):
    """Elements whose width is ``width``: its edge element, a head of
    elements of that width, then a run of 0s and 1s of length min_run to
    40, which the head may lengthen."""
    edge = WIDTH_EDGE[width]
    head = draw(st.lists(st.integers(-edge, edge), max_size=5))
    run = draw(st.lists(st.integers(0, 1), min_size=min_run, max_size=40))
    return [edge] + head + run


class TestBitTail:
    """A vector's trailing run of bits, taken whole, travels as a bit tail
    exactly when that makes its frame shorter; each other frame of the
    same vector is refused."""

    @pytest.mark.parametrize("width", WIDTHS)
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_encoder_agrees_with_the_reference(self, width, data):
        values = data.draw(bit_tailed(width))
        frame = reference_encode(values)
        assert frame[0] % TAIL == width
        assert (frame[0] >= TAIL) == tail_pays(width, reference_run(values))
        for cls in (Witness, Statement):
            assert cls(values).to_bytes() == frame
            assert cls(np.array(values, dtype=np.int64 if width < 32 else object)).to_bytes() == frame

    @pytest.mark.parametrize("width", WIDTHS)
    @settings(deadline=None, max_examples=100)
    @given(data=st.data())
    def test_decode_of_encode_is_the_vector_and_its_range(self, width, data):
        values = data.draw(bit_tailed(width))
        for cls in (Witness, Statement):
            vec = cls(values)
            back = cls.from_bytes(vec.to_bytes())
            assert back.values == vec.values and back._range == vec._range
            assert back.signed.dtype == vec.signed.dtype
            assert back.to_bytes() == vec.to_bytes()
            assert decode_outcome(reference_decode, vec.to_bytes()) == ("ok", vec.signed.tolist())

    def test_the_range_counts_a_set_bit_only(self):
        """hi is 1 from the tail only when some bit is set."""
        for values, span in [([-300, 0, 0, 0], (-300, 0)), ([-300, 0, 1, 0], (-300, 1)),
                             ([-300] + [0] * 40, (-300, 0)), ([-300] + [0] * 39 + [1], (-300, 1))]:
            frame = Witness(values).to_bytes()
            assert frame[0] == 2 + TAIL
            assert Witness.from_bytes(frame)._range == span == Witness(values)._range

    # how to turn the frame of a vector whose bit tail pays into a frame of
    # the same vector, or none, that decoding must refuse
    REFUSALS = {
        "tail not the whole run": "not the whole run",
        "tail saves no bytes": "no shorter",
        "padding bit set": "padding is not zero",
        "tail longer than the count": "longer than its count",
        "plain frame": "lacks its bit tail",
    }

    @pytest.mark.parametrize("refusal", sorted(REFUSALS))
    @pytest.mark.parametrize("width", WIDTHS)
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_each_other_frame_is_refused(self, width, refusal, data):
        values = data.draw(bit_tailed(width, min_run=9))
        run = reference_run([to_signed(v % P) for v in values])
        shortest = next(b for b in range(1, 9) if tail_pays(width, b))
        if refusal == "tail not the whole run":
            frame = reference_frame(values, width, data.draw(st.integers(shortest, run - 1)))
        elif refusal == "tail saves no bytes":
            frame = reference_frame(values, width, data.draw(st.integers(0, shortest - 1)))
        elif refusal == "padding bit set":
            b = data.draw(st.integers(shortest, run).filter(lambda b: b % 8))
            frame = flip_bit(reference_frame(values, width, b), data.draw(st.integers(b % 8, 7)) + b // 8 * 8)
        elif refusal == "tail longer than the count":
            frame = reference_encode(values)
            n = int.from_bytes(frame[1:5], "little")
            b = data.draw(st.integers(n + 1, 2**32 - 1))
            frame = frame[:5] + b.to_bytes(4, "little") + frame[9:]
        else:
            frame = reference_frame(values, width)
        match = self.REFUSALS[refusal]
        with pytest.raises(DecodeError, match=match):
            Statement.from_bytes(frame)
        with pytest.raises(ValueError, match=match):
            Witness.from_bytes(frame)
        assert decode_outcome(reference_decode, frame)[0] == "error"
        assert decode_outcome(reference_decode, frame) == decode_outcome(decode, frame)


edge_values = st.sampled_from([0, P - 1] + [sign * e for e in EDGES[:-1] for sign in (1, -1)])


class TestWidths:
    """Each width round-trips at the edges of its range, and every frame
    the encoder would not write is a DecodeError as a statement and a
    Reject, with no exception, as a mock proof body."""

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.one_of(edge_values, st.integers(-3, 3)), max_size=8))
    def test_each_width_round_trips_and_no_wider_one_decodes(self, values):
        narrowest = reference_width([to_signed(v % P) for v in values])
        for vec in (Statement(values), Witness(values)):
            data = vec.to_bytes()
            assert data == reference_encode(values) and data[0] % TAIL == narrowest
            back = type(vec).from_bytes(data)
            assert back.values == vec.values and back.signed.dtype == vec.signed.dtype
        for width in WIDTHS:
            if width > narrowest:
                with pytest.raises(DecodeError, match="width of its values"):
                    Statement.from_bytes(reference_encode(values, width))

    @pytest.mark.parametrize("width", WIDTHS)
    def test_honest_witness_and_statement_at_each_width(self, width):
        _, statement, body = mock_instance()
        assert body[0] == 2 + TAIL and statement.to_bytes()[0] == 2
        frame = reference_encode(Witness.from_bytes(body).values, width)
        assert mock_verdict(frame) is (Verdict.ACCEPT if width == 2 else Verdict.REJECT)
        if width > 2:
            with pytest.raises(DecodeError, match="width of its values"):
                Statement.from_bytes(reference_encode(statement.values, width))

    def test_unknown_width_bytes(self):
        _, statement, body = mock_instance()
        known = {*WIDTHS, *(w + TAIL for w in WIDTHS)}
        for b in sorted(set(range(256)) - known):
            with pytest.raises(DecodeError, match="unknown statement width"):
                Statement.from_bytes(bytes([b]) + statement.to_bytes()[1:])
            assert mock_verdict(bytes([b]) + body[1:]) is Verdict.REJECT
        for b in known - {statement.to_bytes()[0]}:
            with pytest.raises(DecodeError):
                Statement.from_bytes(bytes([b]) + statement.to_bytes()[1:])
        for b in known - {body[0]}:
            assert mock_verdict(bytes([b]) + body[1:]) is Verdict.REJECT

    def test_truncated_and_over_long_frames(self):
        _, statement, body = mock_instance()
        frame = statement.to_bytes()
        for bad in [frame[:cut] for cut in range(len(frame))] + [frame + bytes(k) for k in (1, 2, 3)]:
            with pytest.raises(DecodeError, match="truncated"):
                Statement.from_bytes(bad)
        for bad in [body[:cut] for cut in range(len(body))] + [body + bytes(k) for k in (1, 2, 3)]:
            assert mock_verdict(bad) is Verdict.REJECT

    @pytest.mark.parametrize("v", [P, P + 1, 2**256 - 1])
    def test_unreduced_wide_element(self, v):
        values = list(Witness.from_bytes(mock_instance()[2]).values)
        values[-1] = SMALL  # a bit wire, so the witness takes width 32
        frame = reference_encode(values)
        assert frame[0] == 32 and mock_verdict(frame) is Verdict.REJECT
        bad = set_element(frame, 3, v.to_bytes(32, "little"))
        with pytest.raises(ValueError, match="not reduced"):
            Witness.from_bytes(bad)
        assert mock_verdict(bad) is Verdict.REJECT
