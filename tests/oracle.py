"""The tests' oracle for a built circuit: its wire names, its rows and
whether a witness satisfies them, spelled out from the relations in the
circuit module's docstring by wire name.  Nothing here reads the rows a
circuit makes itself.

``reference_rows`` lists the rows in order, a booleanity row
b * (b - 1) = 0 as the bare int b, and ``reference_replay`` evaluates every
row as its (A, B, C) triple (``triple``) mod P.  ``element_reads`` records
which elements' rows (``ConstraintSystem._element``) a block asks a
circuit for.
"""

from contextlib import contextmanager

import pytest

from zksplit.circuit import ConstraintSystem
from zksplit.field import P


def reference_names(kind, m, eta):
    """Every wire's name in the builders' layout: the constant "one", the
    public banks in statement order, the free private inputs, and then
    each gadget's private output bank and bits, element by element."""
    def bank(name):
        return [f"{name}[{j}]" for j in range(m)]

    def bits(rem):
        return [f"{rem}[{j}]:b{t}" for j in range(m) for t in range(eta)]

    if kind == "aggregation":
        return ["one", *bank("Up"), "K[0]", *bank("U[0]"), *bits("Ra")]
    if kind == "update":
        return ["one", *bank("Wp"), *bank("W"), *bank("Up"), *bits("Ru")]
    return ["one", *bank("Wp"), *bank("W"), "K[0]", *bank("U"), *bank("Up"),
            *bits("Ra"), *bits("Ru")]


def reference_rows(cs):
    """The rows of a built circuit: per element j, each relation row
    a * b = 2**eta * (out_j - z) + sum_t 2**t * bit_jt, then the eta
    booleanity rows of each relation's bits."""
    kind, m, k = cs.kind, cs.m, cs.constants
    wire = {name: i for i, name in enumerate(reference_names(kind, m, k.eta))}.__getitem__
    u = "U[0]" if kind == "aggregation" else "U"

    def relation(rem, j, a, b, out, z):
        bits = [wire(f"{rem}[{j}]:b{t}") for t in range(k.eta)]
        c = {wire(out): 1 << k.eta, 0: -(1 << k.eta) * z}
        c.update((i, 1 << t) for t, i in enumerate(bits))
        return (a, b, c), bits

    rows = []
    for j in range(m):
        relations = []
        # a kind's builder checks only its own relations' shifts
        if kind != "update":
            ca = 1 << k.agg_shift
            relations.append(relation("Ra", j, {wire("K[0]"): ca, 0: -ca * k.z_k},
                                      {wire(f"{u}[{j}]"): 1, 0: -k.z_u}, f"Up[{j}]", k.z_up))
        if kind != "aggregation":
            cw, cu = 1 << k.upd_w_shift, 1 << k.upd_u_shift
            a = {wire(f"W[{j}]"): cw, wire(f"Up[{j}]"): cu, 0: -(cw * k.z_w + cu * k.z_up)}
            relations.append(relation("Ru", j, a, {0: 1}, f"Wp[{j}]", k.z_wp))
        rows += [row for row, _ in relations]
        for _, bits in relations:
            rows += bits
    return rows


def triple(row):
    """A row as its (A, B, C) triple: the booleanity row of wire i is
    {i: 1} * {i: 1, 0: -1} = {}."""
    return ({row: 1}, {row: 1, 0: -1}, {}) if isinstance(row, int) else row


def reference_replay(cs, values):
    """Whether values satisfy cs: w[0] is 1 and every row of
    ``reference_rows`` holds mod P, each evaluated as its triple with no
    special case for a booleanity row."""
    w = [v % P for v in values]

    def dot(lc):
        return sum(co * w[i] for i, co in lc.items())

    return w[0] == 1 and all((dot(a) * dot(b) - dot(c)) % P == 0
                             for a, b, c in map(triple, reference_rows(cs)))


@contextmanager
def element_reads():
    """The set of every j that ConstraintSystem._element is called with,
    on any circuit, while the block runs."""
    seen = set()
    element = ConstraintSystem._element

    def spy(self, j):
        seen.add(j)
        return element(self, j)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ConstraintSystem, "_element", spy)
        yield seen
