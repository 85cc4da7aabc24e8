"""Preprocessing SNARK-style backend with constant-size proofs.

The R1CS is compiled to a quadratic arithmetic program over the BN254
scalar field: constraint row j is identified with the Lagrange basis
polynomial L_j at domain point j+1, and per-circuit setup evaluates the
wire polynomials A_i, B_i, C_i at a secret point tau drawn from the setup
seed.  Proofs are the three blinded evaluations

    piA = alpha + A(tau) + r*delta
    piB = beta  + B(tau) + s*delta
    piC = (sum_priv w_i*(beta*A_i + alpha*B_i + C_i)(tau) + H(tau)Z(tau))/delta
          + s*piA + r*piB - r*s*delta

and verification checks the single field equation

    piA * piB == alpha*beta + PI*gamma + piC*delta

with PI the public-input combination -- the same algebra a pairing-based
Groth16 verifier checks in the exponent.  Proofs are 162 bytes regardless
of circuit size and verification is linear in the statement length.

Set-up reads no row.  Row j = e * R + r of the circuit is row r of element
e (ConstraintSystem.element_template).  The Lagrange values L_j(tau) over
the equispaced nodes 1..nc come from one running prefix and one running
suffix product, scaled by a constant that takes the one field inversion
(_lagrange_at): the barycentric weights of consecutive integer nodes
follow a ratio recurrence (Berrut and Trefethen, "Barycentric Lagrange
Interpolation", SIAM Review 2004), so each row costs three modular
products.  The tables are then filled per term of element 0's rows
(_qap_at): a term co * wire has the same co in every element and names
wire first + e * step, so it adds co * L[r::R] into one stride slice of
its table, or co * sum(L[r::R]) once into wire 0 or K.  The private and
public combinations (beta*A_i + alpha*B_i + C_i)/delta and /gamma
accumulate in the same pass, with the inverses folded into each row's
weights, and nothing is reduced until it is written, once per wire.  At
m=500 (23 000 rows, 24 002 wires) the Lagrange values take about 61 ms,
the fill 39 ms and reducing and writing the five tables 39 ms; walking
the rows over barycentric values from a batch inversion took about 139,
40, 51 and 24 ms for the values, the walk, the combinations and the
write (medians of 15 alternating runs on a shared 2-vCPU host).

Key tables (A_i, B_i, C_i at tau, the private and the public combinations)
are held as read-only (n, 16) arrays of little-endian 16-bit limbs: the
bytes of their 32-byte canonical wire encoding, never Python ints.  An
element is sum_l t_l * 2**(16*l) mod P, so sum_i w_i * t_i mod P is
recomposed the same way from the 16 limb column sums s_l = sum_i w_i * t_il.

Those sums are taken in float64 by BLAS while max|w| * (2**16 - 1) * n
< 2**53 over the n rows summed.  Then each w_i, each product w_i * t_il
and each partial sum of any subset of the products is an integer of
magnitude below 2**53; float64 holds every such integer exactly, so no
addition, multiplication or fused multiply-add rounds, and the sums are
exact whatever order BLAS adds the terms in.  At the default constants the
left side, q_max * (2**16 - 1) * num_wires, stays under 2**47 for any
in-range witness at m=1000.  A witness or statement past the bound, such as
one holding canonical or huge elements, is summed over Python ints instead,
on the same rows; _limb_dtype owns the bound.

The prover's four inner products gather the limb rows of the nonzero wires
only (honest witnesses are mostly zero remainder bits) and widen just those
rows to float64.  The verifying key also holds its public table as a
float64 (16, num_public + 1) matrix, built once with the key, so the
verifier's PI is one matrix-vector product plus its constant column.

Security caveat: key material here consists of plain field scalars, not
group elements, so this backend is not sound against whoever holds a key:

- Anyone who holds the *verifying* key can forge an Accept for any
  statement, true or false: pick piA and piB, then set
  piC = (piA*piB - alpha*beta - PI*gamma)/delta.
- Anyone who holds the *proving* key can too: nothing ties
  hz = a*b - c to divisibility by Z(tau), so the prover's own formulas
  give an accepted proof for any wire vector and any statement.  Only
  prove() refusing unsatisfied witnesses stands in the way, and that binds
  only a Prover Entity that runs this code.

tests/test_snark_threats.py pins both forgeries.  Snark soundness thus
rests on trusting the Prover Entity's code, and on the verifying key
staying secret with the Verifying Entity; the mock backend is the only
sound one, and it is not zero-knowledge.  The backend reproduces the data
flow, sizes, and accept/reject behavior of a preprocessing SNARK for
testing and benchmarking; production deployments should bind a
pairing-based prover behind the same Backend contract.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .backend import (
    Backend,
    BackendError,
    DecodeError,
    KeyPair,
    Proof,
    Statement,
    UnsatisfiedRelationError,
    Verdict,
    _circuit_of,
    encode_frame,
)
from .circuit import MAX_CONSTRAINTS, ConstraintSystem, Witness, _read_elements, _write_elements
from .field import P, inv


class _Drbg:
    """SHA-256 counter DRBG; setup keys are a pure function of its seed."""

    def __init__(self, seed: bytes):
        self._seed = seed
        self._ctr = 0

    def draw(self) -> int:
        while True:
            h = hashlib.sha256(self._seed + self._ctr.to_bytes(8, "little")).digest()
            self._ctr += 1
            v = int.from_bytes(h + hashlib.sha256(h).digest(), "little") % P
            if v != 0:
                return v


def _u32(v: int) -> bytes:
    return v.to_bytes(4, "little")


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u32(self) -> int:
        if self.pos + 4 > len(self.data):
            raise DecodeError("truncated key")
        v = int.from_bytes(self.data[self.pos : self.pos + 4], "little")
        self.pos += 4
        return v

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated key")
        b = self.data[self.pos : self.pos + n]
        self.pos += n
        return b

    def elements(self, n: int) -> List[int]:
        try:
            return _read_elements(self.raw(32 * n), "key")
        except ValueError as e:
            raise DecodeError(str(e)) from None

    def table(self, n: int) -> np.ndarray:
        start = self.pos
        self.elements(n)  # only to reject elements >= P
        return _limb_table(self.data[start : self.pos])

    def end(self) -> None:
        """Raise unless every byte has been read, so one key has one frame."""
        if self.pos != len(self.data):
            raise DecodeError("trailing bytes after key")


def _limb_table(data) -> np.ndarray:
    """Count-less 32-byte elements as a read-only (n, 16) array of their
    little-endian 16-bit limbs, with ``data`` as its buffer."""
    table = np.frombuffer(data, dtype="<u2").reshape(-1, 16)
    table.flags.writeable = False
    return table


@dataclass
class SnarkProvingKey:
    backend = "snark"
    cs: ConstraintSystem
    circuit_digest: str
    alpha: int
    beta: int
    delta: int
    delta_inv: int
    # limb tables (see _limb_table), one row per wire
    a_tau: np.ndarray
    b_tau: np.ndarray
    c_tau: np.ndarray
    l_priv: np.ndarray  # (beta*A_i + alpha*B_i + C_i)/delta for the private wires

    def to_bytes(self) -> bytes:
        spec = self.cs.spec()
        return encode_frame(
            "snark", self.circuit_digest, _u32(len(spec)), spec,
            _write_elements((self.alpha, self.beta, self.delta, self.delta_inv)),
            _u32(len(self.a_tau)), self.a_tau, self.b_tau, self.c_tau,
            _u32(len(self.l_priv)), self.l_priv,
        )

    @classmethod
    def from_payload(cls, payload: bytes, circuit_digest: str) -> "SnarkProvingKey":
        r = _Reader(payload)
        cs = _circuit_of(r.raw(r.u32()))
        alpha, beta, delta, delta_inv = r.elements(4)
        nw = r.u32()
        if nw != cs.num_wires:
            raise DecodeError(f"key tables hold {nw} wires, circuit has {cs.num_wires}")
        a_tau, b_tau, c_tau = r.table(nw), r.table(nw), r.table(nw)
        n_priv = r.u32()
        if n_priv != cs.num_private:
            raise DecodeError(f"key holds {n_priv} private wires, circuit has {cs.num_private}")
        l_priv = r.table(n_priv)
        r.end()
        return cls(cs, circuit_digest, alpha, beta, delta, delta_inv, a_tau, b_tau, c_tau, l_priv)


@dataclass
class SnarkVerifyingKey:
    backend = "snark"
    circuit_digest: str
    num_public: int
    alpha_beta: int
    gamma: int
    delta: int
    ic: np.ndarray  # limb table of (beta*A_i + alpha*B_i + C_i)/gamma for wire 0 and public wires
    # ic transposed to float64, (16, num_public + 1), for _public_input
    ic_float: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ic_float = np.ascontiguousarray(self.ic.T, dtype=np.float64)
        self.ic_float.flags.writeable = False

    def to_bytes(self) -> bytes:
        return encode_frame(
            "snark", self.circuit_digest,
            _write_elements((self.alpha_beta, self.gamma, self.delta)),
            _u32(len(self.ic)), self.ic,
        )

    @classmethod
    def from_payload(cls, payload: bytes, circuit_digest: str) -> "SnarkVerifyingKey":
        r = _Reader(payload)
        alpha_beta, gamma, delta = r.elements(3)
        ic = r.table(r.u32())
        r.end()
        if len(ic) == 0:
            raise DecodeError("key table holds no constant wire")
        return cls(circuit_digest, len(ic) - 1, alpha_beta, gamma, delta, ic)


def _lagrange_at(tau: int, nc: int) -> List[int]:
    """L_j(tau) for the Lagrange basis polynomials L_0..L_(nc-1) of the
    nodes 1..nc, for tau off the nodes.

    Over consecutive integer nodes L_j(tau) = c * N_j * S_j, with
        N_j = prod_{i < j} -(tau - i - 1)(nc - 1 - i),
        S_j = prod_{j <= i < nc - 1} (tau - i - 2)(i + 1),
        c   = 1 / ((-1)**(nc - 1) * ((nc - 1)!)**2):
    N_j * S_j is the numerator prod_{k != j} (tau - k - 1) times
    (-1)**j * ((nc - 1)!)**2 / (j! * (nc - 1 - j)!), and c turns that
    into the barycentric weight (-1)**(nc - 1 - j) / (j! * (nc - 1 - j)!)
    of node j + 1, whose ratio to the next weight is a ratio of small
    integers.  It takes one inversion and three modular products per node:
    one for the running prefix c * N_j, one for the running suffix S_j, and
    their product.
    """
    fact = 1  # (nc - 1)!, reduced once per 16 factors
    for lo in range(1, nc, 16):
        fact = fact * math.prod(range(lo, min(lo + 16, nc))) % P
    c = inv(fact * fact)
    if nc % 2 == 0:
        c = P - c
    lag = [c] * nc
    minus_tau = P - tau
    for i in range(nc - 1):
        lag[i + 1] = lag[i] * (minus_tau + i + 1) * (nc - 1 - i) % P
    s = 1  # S_i, from S_(nc-1) = 1 down
    for i in range(nc - 1, 0, -1):
        lag[i] = lag[i] * s % P
        s = s * (tau - i - 1) * i % P
    lag[0] = lag[0] * s % P
    return lag


def _row_terms(shapes) -> Iterator[List[Tuple[int, int, Optional[int]]]]:
    """The terms (t, co, k) of every row of an element template
    (ConstraintSystem.element_template), in order: t is 0, 1 or 2 for A, B
    or C, co the coefficient and k the template's column of the wire, or
    None for wire 0 in B of a boolean row {i: 1} * {i: 1, 0: -1} = {},
    which its text spells as a literal."""
    k = 0
    for shape in shapes:
        if shape is None:
            yield [(0, 1, k), (1, 1, k + 1), (1, -1, None)]
            k += 2
            continue
        terms = []
        for t, coeffs in enumerate(shape):
            terms += [(t, co, k + n) for n, co in enumerate(coeffs)]
            k += len(coeffs)
        yield terms


def _add(table: List[int], at: Tuple[int, int], co: int, lag: List[int]) -> None:
    """Add co * lag[e] to table[first + e * step] for every e, (first,
    step) = at, or co * sum(lag) once to table[first] when step is 0."""
    first, step = at
    if step:
        dst = slice(first, first + step * len(lag), step)
        table[dst] = [x + co * lj for x, lj in zip(table[dst], lag)]
    else:
        table[first] += co * sum(lag)


def _qap_at(cs: ConstraintSystem, tau: int, alpha: int, beta: int, gamma_inv: int,
            delta_inv: int) -> List[List[int]]:
    """The wire polynomials A_i, B_i and C_i at tau, and their combination
    (beta*A_i + alpha*B_i + C_i)/gamma for wire 0 and the public wires and
    /delta for the private ones, as four lists over the wires, congruent
    mod P to their values but not reduced.

    Row j = e * R + r, element e's row r, contributes co * L_j(tau) for
    each term co * wire.  Each term of element 0's row r has the same co
    in every element and names wires first + e * step, so it adds
    co * L[r::R] into one stride slice of its table, or co * sum(L[r::R])
    once when its step is 0.  The terms of a row that name one wire add
    into the combination once, with their weights summed: a boolean row's
    bit with beta + alpha."""
    shapes, wires = cs.element_template()
    lag, rows = _lagrange_at(tau, cs.num_constraints), len(shapes)
    first, step = wires.first.tolist(), wires.step.tolist()
    tables = [[0] * cs.num_wires for _ in range(4)]
    factors, npub = (beta, alpha, 1), cs.num_public + 1
    for r, terms in enumerate(_row_terms(shapes)):
        lr, weight = lag[r::rows], {}
        for t, co, k in terms:
            at = (0, 0) if k is None else (first[k], step[k])
            _add(tables[t], at, co, lr)
            weight[at] = weight.get(at, 0) + co * factors[t]
        for at, w in weight.items():
            _add(tables[3], at, w * (gamma_inv if at[0] < npub else delta_inv) % P, lr)
    return tables


def _limb_dtype(w: np.ndarray, n: int):
    """float64 when sum_i w_i * t_i over n rows t_i of 16-bit limbs is exact
    in float64, that is while max|w| * (2**16 - 1) * n < 2**53, and object
    (Python ints) otherwise."""
    top = max(int(w.max(initial=0)), -int(w.min(initial=0)))
    return np.float64 if top * 0xFFFF * n < 1 << 53 else object


def _element(sums: np.ndarray) -> int:
    """The element sum_l s_l * 2**(16*l) mod P of exact limb column sums s."""
    return sum(int(s) << (16 * limb) for limb, s in enumerate(sums.tolist())) % P


def _inner_products(w: np.ndarray, *tables: np.ndarray) -> List[int]:
    """For each limb table t, sum_i w[off + i] * t[i] mod P, where
    off = len(w) - len(t): a table holds the rows of the last len(t)
    elements of w.

    w holds signed representatives, int64 or Python ints.  Only the rows of
    its nonzero elements are gathered, and each limb column is one exact
    dot product in the dtype _limb_dtype picks.
    """
    idx = np.flatnonzero(w != 0)
    wn = w[idx]
    wn = wn.astype(_limb_dtype(wn, idx.size), copy=False)
    out = []
    for t in tables:
        off = len(w) - len(t)
        k = int(np.searchsorted(idx, off))
        rows = t.take(idx[k:] - off, axis=0).astype(wn.dtype)
        out.append(_element(wn[k:] @ rows))
    return out


def _public_input(vk: SnarkVerifyingKey, s: np.ndarray) -> int:
    """PI = ic_0 + sum_i s_i * ic_(1+i) mod P for the statement's signed
    representatives s: on the key's float64 table, with wire 0's coefficient
    1 counted as one more row towards the bound, and past it over Python
    ints by _inner_products."""
    if _limb_dtype(s, len(s) + 1) is np.float64:
        return _element(vk.ic_float[:, 1:] @ s.astype(np.float64) + vk.ic_float[:, 0])
    (pi,) = _inner_products(np.concatenate(([1], s)), vk.ic)
    return pi


def _accumulators(pk: SnarkProvingKey, witness: Witness) -> Tuple[int, int, int, int]:
    """<w, a_tau>, <w, b_tau>, <w, c_tau> and the private <w, l_priv>, mod P."""
    return tuple(_inner_products(witness.signed, pk.a_tau, pk.b_tau, pk.c_tau, pk.l_priv))


class QapSnarkBackend(Backend):
    name = "snark"

    def setup(self, cs: ConstraintSystem, seed: bytes = b"") -> KeyPair:
        nc = cs.num_constraints
        if nc > MAX_CONSTRAINTS:
            raise BackendError("circuit too large")
        digest = cs.digest()
        drbg = _Drbg(seed + bytes.fromhex(digest))
        alpha, beta, gamma, delta = (drbg.draw() for _ in range(4))
        while True:
            tau = drbg.draw()
            if not 1 <= tau <= nc:
                break

        gamma_inv, delta_inv = inv(gamma), inv(delta)
        a_tau, b_tau, c_tau, combined = _qap_at(cs, tau, alpha, beta, gamma_inv, delta_inv)
        npub = cs.num_public + 1
        a_tau, b_tau, c_tau, l_priv, ic = (_limb_table(_write_elements(t)) for t in (
            a_tau, b_tau, c_tau, combined[npub:], combined[:npub]))
        pk = SnarkProvingKey(cs, digest, alpha, beta, delta, delta_inv, a_tau, b_tau, c_tau, l_priv)
        vk = SnarkVerifyingKey(digest, cs.num_public, alpha * beta % P, gamma, delta, ic)
        return KeyPair(backend="snark", proving_key=pk, verifying_key=vk)

    def prove(
        self,
        pk: SnarkProvingKey,
        statement: Statement,
        witness: Witness,
        rng: Optional[random.Random] = None,
    ) -> Proof:
        t0 = time.perf_counter()
        if not self._satisfies(pk.cs, statement, witness):
            raise UnsatisfiedRelationError("unsatisfied relation")

        if rng is None:
            r = int.from_bytes(os.urandom(32), "little") % P
            s = int.from_bytes(os.urandom(32), "little") % P
        else:
            r = rng.randrange(P)
            s = rng.randrange(P)

        a_acc, b_acc, c_acc, priv_acc = _accumulators(pk, witness)
        pi_a = (pk.alpha + a_acc + r * pk.delta) % P
        pi_b = (pk.beta + b_acc + s * pk.delta) % P
        hz = (a_acc * b_acc - c_acc) % P
        pi_c = (
            priv_acc + hz * pk.delta_inv + s * pi_a + r * pi_b - r * s % P * pk.delta
        ) % P

        return Proof(
            backend="snark",
            circuit_digest=pk.circuit_digest,
            statement_digest=statement.digest(),
            body=_write_elements((pi_a, pi_b, pi_c)),
            prove_time=time.perf_counter() - t0,
        )

    def verify(self, vk: SnarkVerifyingKey, statement: Statement, proof: Proof) -> Verdict:
        try:
            if not self._addressed(vk, statement, proof) or len(proof.body) != 96:
                return Verdict.REJECT
            pi_a, pi_b, pi_c = _Reader(proof.body).elements(3)
            pi = _public_input(vk, statement.signed)
            lhs = pi_a * pi_b % P
            rhs = (vk.alpha_beta + pi * vk.gamma + pi_c * vk.delta) % P
            return Verdict.ACCEPT if lhs == rhs else Verdict.REJECT
        except (ValueError, DecodeError):
            return Verdict.REJECT
