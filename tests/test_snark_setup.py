"""Snark key set-up against a reference: the row-by-row walk over the
barycentric Lagrange values that set-up made its key tables with before it
filled them per element-template slot from the ratio recurrence.

The reference keeps every step of that walk: Lagrange values from one
Montgomery batch inversion of the barycentric denominators, every row of
the oracle's ``reference_rows`` (tests/oracle.py), spelled out from the
relations by wire name, added into the tables reduced mod P, and the
private and public combinations divided by delta and gamma after they are
summed.
"""

import random
from dataclasses import asdict

import numpy as np
import pytest

from zksplit.circuit import BUILDERS, CircuitConstants, _write_elements
from zksplit.field import P, inv
from zksplit.snark import QapSnarkBackend, _add, _Drbg, _lagrange_at, _limb_table

from oracle import element_reads, reference_rows

EQUAL = CircuitConstants()
MIXED = CircuitConstants(f_k=13, z_k=7, f_u=14, z_u=-3, f_up=12, z_up=5,
                         f_w=12, z_w=2, f_wp=11, z_wp=-1)
CONSTANTS = {
    "EQUAL": EQUAL,
    "MIXED": MIXED,
    "EQUAL60": CircuitConstants(eta=60),
    "MIXED60": CircuitConstants(**{**asdict(MIXED), "eta": 60}),
}
SEED = b"oracle-setup"


def batch_inv(values):
    """Montgomery batch inversion: one field inversion for the whole list."""
    vals = [v % P for v in values]
    prefix = [1] * (len(vals) + 1)
    for i, v in enumerate(vals):
        assert v, "no inverse for zero"
        prefix[i + 1] = prefix[i] * v % P
    acc = inv(prefix[-1])
    out = [0] * len(vals)
    for i in range(len(vals) - 1, -1, -1):
        out[i] = prefix[i] * acc % P
        acc = acc * vals[i] % P
    return out


def reference_lagrange(tau, nc):
    """L_j(tau) for the nodes 1..nc in barycentric form: the weight of node
    j + 1 is 1/(j! * (nc-1-j)! * (-1)^(nc-1-j)), and L_j(tau) is
    Z(tau) * weight / (tau - j - 1)."""
    fact = [1] * nc
    for i in range(1, nc):
        fact[i] = fact[i - 1] * i % P
    z_tau, diffs = 1, []
    for j in range(nc):
        diffs.append((tau - (j + 1)) % P)
        z_tau = z_tau * diffs[j] % P
    denoms = []
    for j in range(nc):
        den = fact[j] * fact[nc - 1 - j] % P * diffs[j] % P
        denoms.append(P - den if (nc - 1 - j) & 1 else den)
    return [z_tau * iv % P for iv in batch_inv(denoms)]


def reference_tables(cs, seed):
    """The canonical elements of a_tau, b_tau, c_tau, l_priv and ic, from
    set-up's DRBG draws and a walk over the oracle's rows of cs."""
    nc = cs.num_constraints
    drbg = _Drbg(seed + bytes.fromhex(cs.digest()))
    alpha, beta, gamma, delta = (drbg.draw() for _ in range(4))
    while True:
        tau = drbg.draw()
        if not 1 <= tau <= nc:
            break
    lag = reference_lagrange(tau, nc)
    nw = cs.num_wires
    a_tau, b_tau, c_tau = [0] * nw, [0] * nw, [0] * nw
    boolean_sum = 0
    for j, row in enumerate(reference_rows(cs)):
        lj = lag[j]
        if isinstance(row, int):
            a_tau[row] = (a_tau[row] + lj) % P
            b_tau[row] = (b_tau[row] + lj) % P
            boolean_sum += lj
            continue
        for table, lc in zip((a_tau, b_tau, c_tau), row):
            for i, co in lc.items():
                table[i] = (table[i] + co * lj) % P
    b_tau[0] = (b_tau[0] - boolean_sum) % P
    combined = [beta * a + alpha * b + c for a, b, c in zip(a_tau, b_tau, c_tau)]
    npub = cs.num_public + 1
    return {
        "a_tau": a_tau,
        "b_tau": b_tau,
        "c_tau": c_tau,
        "l_priv": [v * inv(delta) % P for v in combined[npub:]],
        "ic": [v * inv(gamma) % P for v in combined[:npub]],
    }


@pytest.mark.parametrize("name", sorted(CONSTANTS))
@pytest.mark.parametrize("m", [1, 2, 3, 17])
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_setup_tables_are_the_row_walks(kind, m, name):
    cs = BUILDERS[kind](m, CONSTANTS[name])
    pair = QapSnarkBackend().setup(cs, SEED)
    pk, vk = pair.proving_key, pair.verifying_key
    got = {"a_tau": pk.a_tau, "b_tau": pk.b_tau, "c_tau": pk.c_tau,
           "l_priv": pk.l_priv, "ic": vk.ic}
    for table, values in reference_tables(BUILDERS[kind](m, CONSTANTS[name]), SEED).items():
        assert np.array_equal(got[table], _limb_table(_write_elements(values))), table


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_setup_reads_no_row(kind):
    """Set-up fills its tables from the element template: of the rows it
    makes only element 0's and 1's."""
    cs = BUILDERS[kind](3, MIXED)
    with element_reads() as reads:
        QapSnarkBackend().setup(cs, SEED)
    assert reads == {0, 1}


def test_a_term_adds_to_what_its_wires_hold():
    """A term adds co times the values into its stride slice, onto what the
    slice holds, or co times their sum into one wire when its step is 0."""
    table = [0, 5, 0, 7, 0]
    _add(table, (1, 2), 1, [10, 20])
    assert table == [0, 15, 0, 27, 0]
    _add(table, (0, 2), 1, [1, 2])
    assert table == [1, 15, 2, 27, 0]
    _add(table, (1, 2), 3, [1, 1])
    assert table == [1, 18, 2, 30, 0]
    _add(table, (4, 0), -2, [3, 4])
    assert table == [1, 18, 2, 30, -14]


@pytest.mark.parametrize("nc", [1, 2, 3, 46])
def test_lagrange_values_interpolate_1_and_x(nc):
    """The L_j(tau) interpolate the constant 1 and, from two nodes on, the
    line x at tau: sum_j L_j = 1 and sum_j (j + 1) * L_j = tau.  (At one
    node the interpolant of x is the constant 1.)  They are the
    barycentric values."""
    rnd = random.Random(nc)
    for _ in range(20):
        tau = rnd.randrange(nc + 1, P)
        lag = _lagrange_at(tau, nc)
        assert len(lag) == nc and all(0 <= v < P for v in lag)
        assert sum(lag) % P == 1
        x = sum((j + 1) * v for j, v in enumerate(lag)) % P
        assert x == (tau if nc > 1 else 1)
        assert lag == reference_lagrange(tau, nc)
