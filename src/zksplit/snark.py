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

Security caveat: key material here consists of plain field scalars, not
group elements, so soundness holds only against provers that run this
code rather than mine the proving key for tau (prove() refuses witnesses
that do not satisfy the relation).  The backend reproduces the data flow,
sizes, and accept/reject behavior of a preprocessing SNARK for testing
and benchmarking; production deployments should bind a pairing-based
prover behind the same Backend contract.
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import List, Optional

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
from .circuit import ConstraintSystem, Witness
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


def _fe(v: int) -> bytes:
    return (v % P).to_bytes(32, "little")


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

    def fe(self) -> int:
        if self.pos + 32 > len(self.data):
            raise DecodeError("truncated key")
        v = int.from_bytes(self.data[self.pos : self.pos + 32], "little")
        self.pos += 32
        if v >= P:
            raise DecodeError("element not reduced")
        return v

    def fes(self, n: int) -> List[int]:
        return [self.fe() for _ in range(n)]

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated key")
        b = self.data[self.pos : self.pos + n]
        self.pos += n
        return b


@dataclass
class SnarkProvingKey:
    cs: ConstraintSystem
    circuit_digest: str
    alpha: int
    beta: int
    delta: int
    delta_inv: int
    a_tau: List[int]
    b_tau: List[int]
    c_tau: List[int]
    l_priv: List[int]  # (beta*A_i + alpha*B_i + C_i)/delta for private wires

    def to_bytes(self) -> bytes:
        blob = _pack_circuit(self.cs)
        out = bytearray()
        out += _u32(len(blob))
        out += blob
        out += _fe(self.alpha) + _fe(self.beta) + _fe(self.delta) + _fe(self.delta_inv)
        out += _u32(len(self.a_tau))
        for arr in (self.a_tau, self.b_tau, self.c_tau):
            for v in arr:
                out += _fe(v)
        out += _u32(len(self.l_priv))
        for v in self.l_priv:
            out += _fe(v)
        return encode_frame("snark", self.circuit_digest, bytes(out))

    @classmethod
    def from_payload(cls, payload: bytes, circuit_digest: str) -> "SnarkProvingKey":
        r = _Reader(payload)
        cs = _unpack_circuit(r.raw(r.u32()))
        alpha, beta, delta, delta_inv = r.fe(), r.fe(), r.fe(), r.fe()
        nw = r.u32()
        a_tau, b_tau, c_tau = r.fes(nw), r.fes(nw), r.fes(nw)
        l_priv = r.fes(r.u32())
        return cls(cs, circuit_digest, alpha, beta, delta, delta_inv, a_tau, b_tau, c_tau, l_priv)


@dataclass
class SnarkVerifyingKey:
    circuit_digest: str
    num_public: int
    alpha_beta: int
    gamma: int
    delta: int
    ic: List[int]  # (beta*A_i + alpha*B_i + C_i)/gamma for wire 0 and public wires

    def to_bytes(self) -> bytes:
        out = bytearray()
        out += _fe(self.alpha_beta) + _fe(self.gamma) + _fe(self.delta)
        out += _u32(len(self.ic))
        for v in self.ic:
            out += _fe(v)
        return encode_frame("snark", self.circuit_digest, bytes(out))

    @classmethod
    def from_payload(cls, payload: bytes, circuit_digest: str) -> "SnarkVerifyingKey":
        r = _Reader(payload)
        alpha_beta, gamma, delta = r.fe(), r.fe(), r.fe()
        ic = r.fes(r.u32())
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
        cs = pk.cs
        if len(witness) != cs.num_wires:
            raise UnsatisfiedRelationError("unsatisfied relation")
        if witness.statement(cs) != statement.values:
            raise UnsatisfiedRelationError("unsatisfied relation")
        if not cs.is_satisfied(witness):
            raise UnsatisfiedRelationError("unsatisfied relation")

        if rng is None:
            r = int.from_bytes(os.urandom(32), "little") % P
            s = int.from_bytes(os.urandom(32), "little") % P
        else:
            r = rng.randrange(P)
            s = rng.randrange(P)

        # signed int64 values reduce to the same accumulators mod P
        w = witness.values if witness.signed is None else witness.signed.tolist()
        a_acc = b_acc = c_acc = 0
        a_tau, b_tau, c_tau = pk.a_tau, pk.b_tau, pk.c_tau
        for i, wi in enumerate(w):
            if wi:
                if a_tau[i]:
                    a_acc += wi * a_tau[i]
                if b_tau[i]:
                    b_acc += wi * b_tau[i]
                if c_tau[i]:
                    c_acc += wi * c_tau[i]
        a_acc %= P
        b_acc %= P
        c_acc %= P

        pi_a = (pk.alpha + a_acc + r * pk.delta) % P
        pi_b = (pk.beta + b_acc + s * pk.delta) % P
        hz = (a_acc * b_acc - c_acc) % P
        priv_acc = 0
        off = cs.num_public + 1
        for i, lp in enumerate(pk.l_priv):
            wi = w[off + i]
            if wi and lp:
                priv_acc += wi * lp
        pi_c = (
            priv_acc + hz * pk.delta_inv + s * pi_a + r * pi_b - r * s % P * pk.delta
        ) % P

        body = _fe(pi_a) + _fe(pi_b) + _fe(pi_c)
        return Proof(
            backend="snark",
            circuit_digest=pk.circuit_digest,
            statement_digest=statement.digest(),
            body=body,
            prove_time=time.perf_counter() - t0,
        )

    def verify(self, vk: SnarkVerifyingKey, statement: Statement, proof: Proof) -> Verdict:
        try:
            if proof.backend != "snark":
                return Verdict.REJECT
            if proof.circuit_digest != vk.circuit_digest:
                return Verdict.REJECT
            if proof.statement_digest != statement.digest():
                return Verdict.REJECT
            if len(statement.values) != vk.num_public:
                return Verdict.REJECT
            if len(proof.body) != 96:
                return Verdict.REJECT
            r = _Reader(proof.body)
            pi_a, pi_b, pi_c = r.fe(), r.fe(), r.fe()
            pi = vk.ic[0]
            for v, icv in zip(statement.values, vk.ic[1:]):
                pi = (pi + v * icv) % P
            lhs = pi_a * pi_b % P
            rhs = (vk.alpha_beta + pi * vk.gamma + pi_c * vk.delta) % P
            return Verdict.ACCEPT if lhs == rhs else Verdict.REJECT
        except (ValueError, DecodeError):
            return Verdict.REJECT
