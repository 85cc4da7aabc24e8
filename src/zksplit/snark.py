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

Key tables (A_i, B_i, C_i at tau, the private and the public combinations)
are held as read-only (n, 16) arrays of little-endian 16-bit limbs: the
bytes of their 32-byte canonical wire encoding, never Python ints.  The
prover's four inner products and the verifier's PI gather the limb rows of
the nonzero wires only (honest witnesses are mostly zero remainder bits)
and sum w_i * limb_l for each limb column l; the element is then
sum_l s_l * 2**(16*l) mod P.  Those column sums are exact in int64 while
max|w| * (2**16 - 1) * nnz < 2**63; at the default constants that product
stays under 2**46 for any in-range witness at m=500.  A witness or
statement past the bound, such as one holding canonical or huge elements,
is summed over Python ints instead, on the same rows.

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
import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

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
    _pack_circuit,
    _unpack_circuit,
    encode_frame,
)
from .circuit import ConstraintSystem, Witness, _read_elements, _signed_array, _write_elements
from .field import P, batch_inv, inv

MAX_CONSTRAINTS = 1 << 20


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
        blob = _pack_circuit(self.cs)
        return encode_frame(
            "snark", self.circuit_digest, _u32(len(blob)), blob,
            _write_elements((self.alpha, self.beta, self.delta, self.delta_inv)),
            _u32(len(self.a_tau)), self.a_tau, self.b_tau, self.c_tau,
            _u32(len(self.l_priv)), self.l_priv,
        )

    @classmethod
    def from_payload(cls, payload: bytes, circuit_digest: str) -> "SnarkProvingKey":
        r = _Reader(payload)
        cs = _unpack_circuit(r.raw(r.u32()))
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
    circuit_digest: str
    num_public: int
    alpha_beta: int
    gamma: int
    delta: int
    ic: np.ndarray  # limb table of (beta*A_i + alpha*B_i + C_i)/gamma for wire 0 and public wires

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
        return cls(circuit_digest, len(ic) - 1, alpha_beta, gamma, delta, ic)


def _lagrange_at(tau: int, nc: int) -> tuple:
    """Evaluate all Lagrange basis polynomials for nodes 1..nc at tau.

    Barycentric form over consecutive integer nodes: the weight for node
    j+1 is 1/(j! * (nc-1-j)! * (-1)^(nc-1-j)), so every L_j(tau) costs one
    multiply after a single batch inversion.  Returns (L values, Z(tau)).
    """
    if nc == 0:
        return [], 1
    fact = [1] * nc
    for i in range(1, nc):
        fact[i] = fact[i - 1] * i % P
    z_tau = 1
    diffs = []
    for j in range(nc):
        d = (tau - (j + 1)) % P
        diffs.append(d)
        z_tau = z_tau * d % P
    denoms = []
    for j in range(nc):
        den = fact[j] * fact[nc - 1 - j] % P * diffs[j] % P
        if (nc - 1 - j) & 1:
            den = P - den
        denoms.append(den)
    invs = batch_inv(denoms)
    return [z_tau * iv % P for iv in invs], z_tau


def _inner_products(w: np.ndarray, *tables: np.ndarray) -> List[int]:
    """For each limb table t, sum_i w[off + i] * t[i] mod P, where
    off = len(w) - len(t): a table holds the rows of the last len(t)
    elements of w.

    w holds signed representatives, int64 or Python ints.  Only the rows of
    its nonzero elements are gathered; each limb column is one exact dot
    product, in int64 while max|w| * (2**16 - 1) * nnz < 2**63 and over
    Python ints otherwise.
    """
    idx = np.flatnonzero(w != 0)
    wn = w[idx]
    bound = int(np.abs(wn).max(initial=0)) * 0xFFFF * idx.size
    wn = wn.astype(np.int64 if bound < 1 << 63 else object, copy=False)
    out = []
    for t in tables:
        off = len(w) - len(t)
        k = int(np.searchsorted(idx, off))
        rows = t.take(idx[k:] - off, axis=0).astype(wn.dtype)
        sums = (wn[k:] @ rows).tolist()
        out.append(sum(int(s) << (16 * limb) for limb, s in enumerate(sums)) % P)
    return out


def _accumulators(pk: SnarkProvingKey, witness: Witness) -> Tuple[int, int, int, int]:
    """<w, a_tau>, <w, b_tau>, <w, c_tau> and the private <w, l_priv>, mod P."""
    return tuple(_inner_products(_signed_array(witness), pk.a_tau, pk.b_tau, pk.c_tau, pk.l_priv))


class QapSnarkBackend(Backend):
    name = "snark"

    @classmethod
    def available(cls) -> bool:
        return True

    def setup(self, cs: ConstraintSystem, seed: bytes = b"") -> KeyPair:
        nc = len(cs.constraints)
        if nc > MAX_CONSTRAINTS:
            raise BackendError("circuit too large")
        digest = cs.digest()
        drbg = _Drbg(seed + bytes.fromhex(digest))
        alpha, beta, gamma, delta = (drbg.draw() for _ in range(4))
        while True:
            tau = drbg.draw()
            if nc == 0 or not (1 <= tau <= nc):
                break

        lag, _ = _lagrange_at(tau, nc)
        nw = cs.num_wires
        a_tau = [0] * nw
        b_tau = [0] * nw
        c_tau = [0] * nw
        for j, (a, b, c) in enumerate(cs.constraints):
            lj = lag[j]
            for i, co in a.items():
                a_tau[i] = (a_tau[i] + co * lj) % P
            for i, co in b.items():
                b_tau[i] = (b_tau[i] + co * lj) % P
            for i, co in c.items():
                c_tau[i] = (c_tau[i] + co * lj) % P

        gamma_inv = inv(gamma)
        delta_inv = inv(delta)
        ic = [
            (beta * a_tau[i] + alpha * b_tau[i] + c_tau[i]) * gamma_inv % P
            for i in range(cs.num_public + 1)
        ]
        l_priv = [
            (beta * a_tau[i] + alpha * b_tau[i] + c_tau[i]) * delta_inv % P
            for i in range(cs.num_public + 1, nw)
        ]
        a_tau, b_tau, c_tau, l_priv, ic = (
            _limb_table(_write_elements(t)) for t in (a_tau, b_tau, c_tau, l_priv, ic))
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
        self._require_satisfied(pk.cs, statement, witness)

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
            (pi,) = _inner_products(np.concatenate(([1], _signed_array(statement))), vk.ic)
            lhs = pi_a * pi_b % P
            rhs = (vk.alpha_beta + pi * vk.gamma + pi_c * vk.delta) % P
            return Verdict.ACCEPT if lhs == rhs else Verdict.REJECT
        except (ValueError, DecodeError):
            return Verdict.REJECT
