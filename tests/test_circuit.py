import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zksplit.backend import MockBackend, Statement, load_verifying_key
from zksplit.circuit import (
    BUILDERS,
    CircuitConstants,
    CircuitError,
    InconsistentStatementError,
    ScaleUnderflowError,
    Witness,
    aggregation_floor,
    build_aggregation_circuit,
    build_protocol_circuit,
    build_update_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
    update_floor,
)
from zksplit.field import P

from oracle import reference_rows, triple

EQUAL = CircuitConstants()  # all scale exponents equal, zero-points 0
MIXED = CircuitConstants(f_k=13, z_k=7, f_u=14, z_u=-3, f_up=12, z_up=5,
                         f_w=12, z_w=2, f_wp=11, z_wp=-1)


def through_key(cs):
    """The circuit a mock verifying key of cs loads back with."""
    return load_verifying_key(MockBackend().setup(cs).verifying_key.to_bytes()).cs


def written_rows(cs):
    """The number of rows the canonical JSON of cs lists."""
    return len(json.loads(cs.to_json())["constraints"])


def honest_inputs(kind, m, c, rnd):
    """The public values and free private inputs of an honest witness."""
    u_q = [rnd.randint(-100, 100) for _ in range(m)]
    w_q = [rnd.randint(-100, 100) for _ in range(m)]
    k_q = c.z_k + 2 ** c.f_k
    if kind == "aggregation":
        return quantized_aggregate(k_q, u_q, c).tolist() + [k_q], u_q
    if kind == "update":
        return quantized_update(w_q, u_q, c).tolist() + w_q, u_q
    up_q = quantized_aggregate(k_q, u_q, c)
    return quantized_update(w_q, up_q, c).tolist() + w_q + [k_q], u_q


def rational_aggregate(k_q, u_q, c):
    """Independent oracle: dequantize, multiply exactly, floor-quantize."""
    sk = Fraction(1, 2 ** c.f_k)
    su = Fraction(1, 2 ** c.f_u)
    sup = Fraction(1, 2 ** c.f_up)
    out = []
    for j in range(len(u_q)):
        real = sk * (k_q - c.z_k) * su * (u_q[j] - c.z_u)
        out.append((real / sup).__floor__() + c.z_up)
    return out


def rational_update(w_q, up_q, c):
    sw = Fraction(1, 2 ** c.f_w)
    sup = Fraction(1, 2 ** c.f_up)
    swp = Fraction(1, 2 ** c.f_wp)
    out = []
    for j in range(len(w_q)):
        real = sw * (w_q[j] - c.z_w) + sup * (up_q[j] - c.z_up)
        out.append((real / swp).__floor__() + c.z_wp)
    return out


def random_agg_instance(rnd, m, c):
    k_q = rnd.randint(-4000, 4000)
    while k_q == c.z_k:
        k_q = rnd.randint(-4000, 4000)
    u_q = [rnd.randint(-4000, 4000) for _ in range(m)]
    up_q = quantized_aggregate(k_q, u_q, c).tolist()
    return k_q, u_q, up_q


class TestConstants:
    def test_shifts(self):
        assert EQUAL.agg_shift == EQUAL.eta + EQUAL.f_up - EQUAL.f_k - EQUAL.f_u
        assert MIXED.upd_w_shift == MIXED.eta + MIXED.f_wp - MIXED.f_w
        assert MIXED.upd_u_shift == MIXED.eta + MIXED.f_wp - MIXED.f_up

    def test_eta_floor(self):
        with pytest.raises(CircuitError):
            CircuitConstants(eta=21)

    def test_scale_exponent_underflow(self):
        bad = CircuitConstants(f_k=20, f_u=20, f_up=13)  # eta + 13 - 40 < 0
        with pytest.raises(ScaleUnderflowError, match="scale exponent underflow"):
            build_aggregation_circuit(2, bad)
        bad2 = CircuitConstants(f_w=36, f_wp=13)
        with pytest.raises(ScaleUnderflowError):
            build_update_circuit(2, bad2)

    def test_powers_of_two_stay_below_p(self):
        # P has 254 bits, so 2**253 < P < 2**254
        assert CircuitConstants(eta=253).eta == 253
        with pytest.raises(CircuitError, match="eta must be"):
            CircuitConstants(eta=254)
        build_aggregation_circuit(1, CircuitConstants(f_up=257))  # ca = 2**253
        with pytest.raises(CircuitError, match=r"2\*\*254 is not below P"):
            build_aggregation_circuit(1, CircuitConstants(f_up=258))
        with pytest.raises(CircuitError, match="not below P"):
            build_update_circuit(1, CircuitConstants(f_w=-10**12))


class TestAggregationCircuit:
    def test_constraint_count_linear_in_m(self):
        for m in (1, 5, 40):
            cs = build_aggregation_circuit(m, EQUAL)
            assert written_rows(cs) == cs.num_constraints == m * (1 + EQUAL.eta)

    def test_zero_update_is_zero_point(self):
        # U at the zero-point dequantizes to 0, so U' is its zero-point
        cs = build_aggregation_circuit(2, EQUAL)
        up = quantized_aggregate(123, [EQUAL.z_u, EQUAL.z_u], EQUAL).tolist()
        assert up == [EQUAL.z_up, EQUAL.z_up]
        w = generate_witness(cs, up + [123], [EQUAL.z_u, EQUAL.z_u])
        assert cs.is_satisfied(w)

    def test_m1_concrete_against_rational_oracle(self):
        # K dequantizes to 1.0, U to 0.5
        c = EQUAL
        k_q, u_q = 2 ** c.f_k, 2 ** (c.f_u - 1)
        expected = rational_aggregate(k_q, [u_q], c)
        got = quantized_aggregate(k_q, [u_q], c).tolist()
        assert got == expected
        cs = build_aggregation_circuit(1, c)
        w = generate_witness(cs, got + [k_q], [u_q])
        assert cs.is_satisfied(w)

    @pytest.mark.parametrize("c", [EQUAL, MIXED], ids=["equal", "mixed"])
    def test_oracle_agreement_randomized(self, c):
        rnd = random.Random(5)
        for _ in range(50):
            k_q, u_q, up_q = random_agg_instance(rnd, 4, c)
            assert up_q == rational_aggregate(k_q, u_q, c)
            cs = build_aggregation_circuit(4, c)
            w = generate_witness(cs, up_q + [k_q], u_q)
            assert cs.is_satisfied(w)

    def test_m500_witnesses_and_u_perturbation(self):
        rnd = random.Random(17)
        cs = build_aggregation_circuit(500, EQUAL)
        u_index_base = 1 + cs.num_public  # U wires follow the statement
        for trial in range(10):
            k_q, u_q, up_q = random_agg_instance(rnd, 500, EQUAL)
            w = generate_witness(cs, up_q + [k_q], u_q)
            assert cs.is_satisfied(w)
        # witness-level +1 on any single U wire breaks its relation constraint
        vals = list(w.values)
        for j in rnd.sample(range(500), 25):
            mutated = vals.copy()
            mutated[u_index_base + j] = (mutated[u_index_base + j] + 1) % P
            assert not cs.is_satisfied(mutated)

    def test_published_output_off_by_one_rejected(self):
        c = EQUAL
        rnd = random.Random(2)
        k_q, u_q, up_q = random_agg_instance(rnd, 3, c)
        cs = build_aggregation_circuit(3, c)
        bad = [up_q[0] + 1] + up_q[1:]
        with pytest.raises(InconsistentStatementError, match="inconsistent statement"):
            generate_witness(cs, bad + [k_q], u_q)

    def test_degenerate_m(self):
        with pytest.raises(CircuitError):
            build_aggregation_circuit(0, EQUAL)


class TestUpdateCircuit:
    def test_constraint_count(self):
        cs = build_update_circuit(7, MIXED)
        assert written_rows(cs) == cs.num_constraints == 7 * (1 + MIXED.eta)

    def test_identity_when_update_is_zero(self):
        # U' at zero-point and equal scales: W' = W elementwise, R = 0
        c = EQUAL
        w_q = [5, -100, 3000]
        wp_q = quantized_update(w_q, [c.z_up] * 3, c).tolist()
        assert wp_q == w_q
        cs = build_update_circuit(3, c)
        wit = generate_witness(cs, wp_q + w_q, [c.z_up] * 3)
        assert cs.is_satisfied(wit)

    def test_quarter_plus_half(self):
        # W dequantizes to 0.25, U' to 0.5, equal scales: W' dequantizes to 0.75
        c = EQUAL
        w_q = [2 ** (c.f_w - 2)]
        up_q = [2 ** (c.f_up - 1)]
        wp_q = quantized_update(w_q, up_q, c).tolist()
        assert wp_q == [3 * 2 ** (c.f_wp - 2)]
        assert wp_q == rational_update(w_q, up_q, c)
        cs = build_update_circuit(1, c)
        wit = generate_witness(cs, wp_q + w_q, up_q)
        assert cs.is_satisfied(wit)

    @pytest.mark.parametrize("c", [EQUAL, MIXED], ids=["equal", "mixed"])
    def test_oracle_agreement_randomized(self, c):
        rnd = random.Random(23)
        cs = build_update_circuit(6, c)
        for _ in range(50):
            w_q = [rnd.randint(-4000, 4000) for _ in range(6)]
            up_q = [rnd.randint(-4000, 4000) for _ in range(6)]
            wp_q = quantized_update(w_q, up_q, c).tolist()
            assert wp_q == rational_update(w_q, up_q, c)
            wit = generate_witness(cs, wp_q + w_q, up_q)
            assert cs.is_satisfied(wit)

    def test_inconsistent_statement(self):
        c = MIXED
        w_q, up_q = [10, 20], [30, 40]
        wp_q = quantized_update(w_q, up_q, c).tolist()
        cs = build_update_circuit(2, c)
        with pytest.raises(InconsistentStatementError):
            generate_witness(cs, [wp_q[0] - 1, wp_q[1]] + w_q, up_q)


class TestComposedCircuit:
    def test_constraint_count(self):
        cs = build_protocol_circuit(5, EQUAL)
        assert written_rows(cs) == cs.num_constraints == 2 * 5 * (1 + EQUAL.eta)

    def test_statement_order_is_wp_w_k(self):
        cs = build_protocol_circuit(2, EQUAL)
        names = cs.var_names[1 : 1 + cs.num_public]
        assert names == ["Wp[0]", "Wp[1]", "W[0]", "W[1]", "K[0]"]

    def test_honest_witness_and_bit_flips(self):
        rnd = random.Random(7)
        c = EQUAL
        cs = build_protocol_circuit(3, c)
        k_q = 2 ** c.f_k
        u_q = [rnd.randint(-1000, 1000) for _ in range(3)]
        w_q = [rnd.randint(-1000, 1000) for _ in range(3)]
        up_q = quantized_aggregate(k_q, u_q, c)
        wp_q = quantized_update(w_q, up_q, c).tolist()
        wit = generate_witness(cs, wp_q + w_q + [k_q], u_q)
        assert cs.is_satisfied(wit)
        # flipping any decomposition bit must break the system
        first_bit = 1 + cs.num_public + 3 + 3
        vals = list(wit.values)
        for i in range(first_bit, len(vals)):
            mutated = vals.copy()
            mutated[i] ^= 1
            assert not cs.is_satisfied(mutated)


class TestWitnessAndSatisfaction:
    def test_length_mismatch_raises(self):
        cs = build_update_circuit(1, EQUAL)
        with pytest.raises(CircuitError, match="length"):
            cs.is_satisfied([1, 2, 3])

    # at m = 8, a wire and where it lies among the public values (True) or
    # the free private inputs (False)
    @pytest.mark.parametrize("kind,wire,public,i", [
        ("aggregation", "Up[5]", True, 5), ("aggregation", "K[0]", True, 8),
        ("aggregation", "U[0][3]", False, 3),
        ("update", "Wp[1]", True, 1), ("update", "W[7]", True, 15), ("update", "Up[3]", False, 3),
        ("composed", "W[7]", True, 15), ("composed", "K[0]", True, 16),
        ("composed", "U[3]", False, 3),
    ])
    @pytest.mark.parametrize("bad", [EQUAL.q_max + 1, 40000, EQUAL.q_min - 1])
    def test_out_of_range_input_names_its_wire(self, kind, wire, public, i, bad):
        cs = BUILDERS[kind](8, EQUAL)
        pub = [0] * cs.num_public
        priv = [0] * (cs.gadgets[0].wires.start - 1 - cs.num_public)
        (pub if public else priv)[i] = bad
        with pytest.raises(CircuitError) as e:
            generate_witness(cs, pub, priv)
        assert str(e.value) == f"{wire} value {bad} outside quantized range"

    def test_random_element_replacement_rejected(self):
        rnd = random.Random(31)
        c = EQUAL
        cs = build_protocol_circuit(4, c)
        k_q = 2 ** c.f_k
        u_q = [rnd.randint(-500, 500) for _ in range(4)]
        w_q = [rnd.randint(-500, 500) for _ in range(4)]
        up_q = quantized_aggregate(k_q, u_q, c)
        wp_q = quantized_update(w_q, up_q, c).tolist()
        wit = generate_witness(cs, wp_q + w_q + [k_q], u_q)
        vals = list(wit.values)
        rejected = 0
        for _ in range(100):
            i = rnd.randrange(1, len(vals))
            mutated = vals.copy()
            mutated[i] = rnd.randrange(P)
            if not cs.is_satisfied(mutated):
                rejected += 1
        assert rejected >= 99

    def test_field_vs_integer_agreement(self):
        # within the 16-bit budget nothing wraps: evaluating constraints in
        # unbounded integers and mod P must agree
        rnd = random.Random(13)
        c = MIXED
        cs = build_protocol_circuit(8, c)
        k_q, u_q, up_q = random_agg_instance(rnd, 8, c)
        w_q = [rnd.randint(-4000, 4000) for _ in range(8)]
        wit = generate_witness(cs, quantized_update(w_q, up_q, c).tolist() + w_q + [k_q], u_q)
        signed = [v - P if v > P // 2 else v for v in wit.values]
        for a, b, cc in map(triple, reference_rows(cs)):
            av = sum(co * signed[i] for i, co in a.items())
            bv = sum(co * signed[i] for i, co in b.items())
            cv = sum(co * signed[i] for i, co in cc.items())
            assert av * bv == cv  # exact integers, no reduction
        assert cs.is_satisfied(wit)

    def test_witness_serialization_round_trip(self):
        cs = build_update_circuit(2, EQUAL)
        wp = quantized_update([1, 2], [3, 4], EQUAL).tolist()
        wit = generate_witness(cs, wp + [1, 2], [3, 4])
        statement = Statement(wit.statement(cs))
        back = Witness.from_bytes(wit.to_bytes(cs.num_public), statement)
        assert back.values == wit.values
        with pytest.raises(ValueError):
            Witness.from_bytes(wit.to_bytes(cs.num_public)[:-1], statement)

    def test_statement_view(self):
        cs = build_update_circuit(2, EQUAL)
        wp = quantized_update([5, 6], [7, 8], EQUAL).tolist()
        wit = generate_witness(cs, wp + [5, 6], [7, 8])
        assert wit.statement(cs) == [v % P for v in wp + [5, 6]]


ETA60 = CircuitConstants(eta=60)


class TestGadgetLayout:
    @pytest.mark.parametrize("c", [EQUAL, MIXED, ETA60], ids=["equal", "mixed", "eta60"])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    @pytest.mark.parametrize("m", [1, 5])
    def test_gadget_wires_tile_the_rest_of_the_witness(self, kind, c, m):
        cs = BUILDERS[kind](m, c)
        first = 1 + cs.num_public + m  # after the m free private inputs
        assert [i for g in cs.gadgets for i in g.wires] == list(range(first, cs.num_wires))
        for g in cs.gadgets:
            assert [len(row) for row in g.bits] == [c.eta] * m and g.bits[-1][-1] == g.wires[-1]
            assert len(g.out) == m and (g.out[0] in g.wires) == g.private_out

    @pytest.mark.parametrize("c", [EQUAL, MIXED, ETA60], ids=["equal", "mixed", "eta60"])
    @pytest.mark.parametrize("kind", list(BUILDERS))
    def test_loaded_key_circuit_has_its_builders_gadgets(self, kind, c):
        cs = BUILDERS[kind](3, c)
        loaded = through_key(cs)
        assert loaded.digest() == cs.digest()
        assert [type(g) for g in loaded.gadgets] == [type(g) for g in cs.gadgets] != []
        public, private = honest_inputs(kind, 3, c, random.Random(kind))
        assert (generate_witness(loaded, public, private).to_bytes(cs.num_public)
                == generate_witness(cs, public, private).to_bytes(cs.num_public))

    def test_wrong_private_count_raises(self):
        cs = build_protocol_circuit(3, EQUAL)
        with pytest.raises(CircuitError, match="expected 3 private values, got 2"):
            generate_witness(cs, [0] * cs.num_public, [0, 0])


class TestExport:
    def test_json_round_trip_preserves_digest_and_satisfaction(self):
        cs = build_protocol_circuit(2, MIXED)
        clone = through_key(cs)
        assert clone.digest() == cs.digest()
        rnd = random.Random(1)
        k_q = MIXED.z_k + 2 ** MIXED.f_k
        u_q = [rnd.randint(-100, 100) for _ in range(2)]
        w_q = [rnd.randint(-100, 100) for _ in range(2)]
        up_q = quantized_aggregate(k_q, u_q, MIXED)
        wp_q = quantized_update(w_q, up_q, MIXED).tolist()
        wit = generate_witness(cs, wp_q + w_q + [k_q], u_q)
        assert clone.is_satisfied(wit)

    def test_distinct_circuits_distinct_digests(self):
        a = build_update_circuit(2, EQUAL)
        b = build_update_circuit(3, EQUAL)
        c = build_update_circuit(2, MIXED)
        assert len({a.digest(), b.digest(), c.digest()}) == 3


# -- the array arithmetic against the per-element loops it replaced ----------


def loop_aggregate(k_q, u_q, c):
    """quantized_aggregate as a loop over Python ints, as it was written
    before it ran on arrays."""
    c.require_aggregation_exact()
    ca = 1 << c.agg_shift
    return [(ca * (k_q - c.z_k) * (u - c.z_u) >> c.eta) + c.z_up for u in u_q]


def loop_update(w_q, up_q, c):
    """quantized_update as a loop over Python ints, as it was written
    before it ran on arrays."""
    c.require_update_exact()
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    return [
        ((cw * (w_q[j] - c.z_w) + cu * (up_q[j] - c.z_up)) >> c.eta) + c.z_wp
        for j in range(len(w_q))
    ]


# ca * d**2 is about 2**77 under eta = 60, far past int64
WIDE = CircuitConstants(eta=60)
ARITH_CONSTANTS = [EQUAL, MIXED, WIDE]


class TestArrayArithmetic:
    @settings(deadline=None, max_examples=300)
    @given(c=st.sampled_from(ARITH_CONSTANTS), m=st.integers(1, 6), data=st.data())
    def test_matches_the_loops(self, c, m, data):
        q = st.integers(c.q_min, c.q_max)
        k_q = data.draw(q)
        u_q, w_q, up_q = (data.draw(st.lists(q, min_size=m, max_size=m)) for _ in range(3))
        for got, want in ((quantized_aggregate(k_q, u_q, c), loop_aggregate(k_q, u_q, c)),
                          (quantized_update(w_q, up_q, c), loop_update(w_q, up_q, c))):
            assert got.tolist() == want
            assert got.dtype == (object if c is WIDE else np.int64)

    def test_negative_terms_floor(self):
        # -2**9 and -2**21 over 2**22 floor to -1, where truncation gives 0
        assert quantized_aggregate(-1, [1], EQUAL).tolist() == [-1]
        assert quantized_update([-1], [0], CircuitConstants(f_w=14)).tolist() == [-1]

    def test_dtype_follows_the_bound(self):
        one = [1, -1]
        assert aggregation_floor(3, one, EQUAL).dtype == np.int64
        assert update_floor([1, 2], [3, 4], EQUAL).dtype == np.int64
        assert aggregation_floor(3, one, WIDE).dtype == object
        assert update_floor([1, 2], [3, 4], WIDE).dtype == object

    def test_operands_outside_the_range_widen_the_bound(self):
        # no range check here, so a huge operand must still be exact
        big = 1 << 70
        assert quantized_update([big], [0], EQUAL).tolist() == loop_update([big], [0], EQUAL)
        assert quantized_aggregate(big, [3], EQUAL).tolist() == loop_aggregate(big, [3], EQUAL)
        assert quantized_aggregate(3, [big], EQUAL).tolist() == loop_aggregate(3, [big], EQUAL)
        near = 1 << 40  # fits in int64, but the product with ca does not
        assert quantized_update([near], [near], EQUAL).tolist() == loop_update([near], [near], EQUAL)

    def test_shape_mismatch_raises(self):
        with pytest.raises(CircuitError):
            quantized_update([1, 2], [1], EQUAL)
