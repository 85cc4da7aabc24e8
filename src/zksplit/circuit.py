"""Rank-1 constraint systems for the quantized cut-layer relations.

Two relations are circuit-compiled, both stated over quantized integers:

  aggregation   U' = K * U        (K a 1 x n weight row, U an n x m matrix)
  update        W' = W + U'       (elementwise, length m)

Dequantizing each symbol with its own scale and zero-point and clearing
denominators with the precision amplifier 2**eta turns each relation into
an exact integer identity with a nonnegative remainder R < 2**eta that
absorbs floor rounding:

  aggregation, per output j:
      c_a * sum_k (K_k - z_K)(U_kj - z_U)  =  2**eta * (U'_j - z_U') + R_j
      with c_a = 2**(eta + f_U' - f_K - f_U)

  update, per element j:
      c_w * (W_j - z_W) + c_u * (U'_j - z_U')
          =  2**eta * (W'_j - z_W') + R_j
      with c_w = 2**(eta + f_W' - f_W),  c_u = 2**(eta + f_W' - f_U')

Scales are powers of two (s = 2**-f), so the c constants are exact
integers whenever their exponents are nonnegative; a negative exponent is
rejected at build time.  R is never materialized as its own wire: the
relation constraint recomposes it directly from eta boolean wires, which
both range-checks R and keeps the count at m * (1 + eta) constraints per
circuit.

The remainder convention here is R = floor_term - 2**eta*(out - z) >= 0,
the mirror image of writing the leftover on the other side of the
equation; nonnegative remainders admit direct binary range checks.

Checking satisfaction.  Each circuit is compiled once, on its first
check, into CSR matrices A, B and C with int64 coefficients, together
with each matrix's largest row L1 norm.  A witness whose elements all
have signed representatives in (-2**62, 2**62) is carried as an int64
array, and when

    L1(A) * L1(B) * max|w|**2 + L1(C) * max|w|  <  2**63

every <A,w>, <B,w>, <C,w> and a*b - c fits in int64 and |a*b - c| < P,
so the exact int64 test a*b == c decides a*b == c mod P.  For the
default constants (max|w| = 2**13, L1 = 2**23, 2, 2**23) the bound holds
with about 2**13 to spare.  Witnesses or circuits outside the bound, such
as adversarial transcripts carrying huge elements, take the exact replay
of every constraint in unbounded integers instead.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .field import P, to_signed
from .quant import DEFAULT_Q_MAX, DEFAULT_Q_MIN, QuantParams

MIN_ETA = 22

LinComb = Dict[int, int]  # wire index -> signed integer coefficient


class CircuitError(ValueError):
    pass


class ScaleUnderflowError(CircuitError):
    """A scale-ratio constant would not be an integer."""


class InconsistentStatementError(CircuitError):
    """Public outputs were not produced by honest quantized arithmetic."""


@dataclass(frozen=True)
class CircuitConstants:
    """Quantization constants baked into a circuit at build time."""

    eta: int = MIN_ETA
    f_k: int = 13
    z_k: int = 0
    f_u: int = 13
    z_u: int = 0
    f_up: int = 13
    z_up: int = 0
    f_w: int = 13
    z_w: int = 0
    f_wp: int = 13
    z_wp: int = 0
    q_min: int = DEFAULT_Q_MIN
    q_max: int = DEFAULT_Q_MAX

    def __post_init__(self) -> None:
        if self.eta < MIN_ETA:
            raise CircuitError(f"eta must be >= {MIN_ETA}")

    @property
    def agg_shift(self) -> int:
        return self.eta + self.f_up - self.f_k - self.f_u

    @property
    def upd_w_shift(self) -> int:
        return self.eta + self.f_wp - self.f_w

    @property
    def upd_u_shift(self) -> int:
        return self.eta + self.f_wp - self.f_up

    def require_aggregation_exact(self) -> None:
        if self.agg_shift < 0:
            raise ScaleUnderflowError("scale exponent underflow")

    def require_update_exact(self) -> None:
        if self.upd_w_shift < 0 or self.upd_u_shift < 0:
            raise ScaleUnderflowError("scale exponent underflow")

    @classmethod
    def from_quant_params(
        cls,
        k: QuantParams,
        u: QuantParams,
        up: QuantParams,
        w: QuantParams,
        wp: QuantParams,
        eta: int = MIN_ETA,
    ) -> "CircuitConstants":
        return cls(
            eta=eta,
            f_k=k.scale_exp, z_k=k.zero_point,
            f_u=u.scale_exp, z_u=u.zero_point,
            f_up=up.scale_exp, z_up=up.zero_point,
            f_w=w.scale_exp, z_w=w.zero_point,
            f_wp=wp.scale_exp, z_wp=wp.zero_point,
            q_min=min(k.q_min, u.q_min, up.q_min, w.q_min, wp.q_min),
            q_max=max(k.q_max, u.q_max, up.q_max, w.q_max, wp.q_max),
        )


# Witness elements whose signed representative lies in (-SMALL, SMALL) are
# carried as int64; on the wire they are 32-byte little-endian canonical
# elements, read here as four uint64 limbs.  A small negative v encodes as
# P - |v|, which never borrows from the upper limbs because P's low limb
# exceeds SMALL.
SMALL = 1 << 62
_P_LIMBS = np.array([(P >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)], dtype="<u8")
_P0 = int(_P_LIMBS[0])
assert _P0 > SMALL


class Witness:
    """Full assignment: leading constant 1, then public, then private wires.

    Held as a signed int64 array (``signed``) when every element is small,
    and as the canonical tuple otherwise.  ``values`` is always the
    canonical tuple, derived on first use.
    """

    def __init__(self, values) -> None:
        self._values: Tuple[int, ...] | None = None
        if isinstance(values, np.ndarray) and values.dtype == np.int64 and (
            values.size == 0 or (values.min() > -SMALL and values.max() < SMALL)
        ):
            self.signed: np.ndarray | None = values
            return
        ints = [to_signed(int(v) % P) for v in values]
        if all(-SMALL < v < SMALL for v in ints):
            self.signed = np.array(ints, dtype=np.int64)
        else:
            self.signed = None
            self._values = tuple(v % P for v in ints)

    @property
    def values(self) -> Tuple[int, ...]:
        if self._values is None:
            self._values = tuple(v % P for v in self.signed.tolist())
        return self._values

    def __len__(self) -> int:
        return len(self._values) if self.signed is None else len(self.signed)

    def statement(self, cs: "ConstraintSystem") -> List[int]:
        if self.signed is None:
            return list(self.values[1 : 1 + cs.num_public])
        return [v % P for v in self.signed[1 : 1 + cs.num_public].tolist()]

    def to_bytes(self) -> bytes:
        head = len(self).to_bytes(4, "little")
        if self.signed is None:
            return head + b"".join(v.to_bytes(32, "little") for v in self._values)
        s = self.signed
        # P's limbs where v < 0, plus v in the low limb: modulo 2**64 that is P - |v|
        limbs = np.where((s < 0)[:, None], _P_LIMBS, np.uint64(0))
        limbs[:, 0] += s.view(np.uint64)
        return head + limbs.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Witness":
        if len(data) < 4:
            raise ValueError("truncated witness")
        n = int.from_bytes(data[:4], "little")
        if len(data) != 4 + 32 * n:
            raise ValueError("truncated witness")
        low, l1, l2, l3 = np.frombuffer(data, dtype="<u8", offset=4).reshape(n, 4).T
        p1, p2, p3 = _P_LIMBS[1:]
        pos = ((l1 | l2 | l3) == 0) & (low < SMALL)
        neg = (((l1 ^ p1) | (l2 ^ p2) | (l3 ^ p3)) == 0) & (low > _P0 - SMALL) & (low < _P0)
        if (pos | neg).all():
            return cls(low.astype(np.int64) - neg * _P0)
        vals = []
        for i in range(n):
            v = int.from_bytes(data[4 + 32 * i : 36 + 32 * i], "little")
            if v >= P:
                raise ValueError("witness element not reduced")
            vals.append(v)
        return cls(vals)


class _Csr:
    """One constraint matrix in CSR form with int64 coefficients.

    ``l1`` is the largest row L1 norm, or None when a coefficient or a row
    sum does not fit in int64 (then only the exact replay applies).
    """

    def __init__(self, rows: Sequence[LinComb]):
        indptr = [0]
        index: List[int] = []
        coeff: List[int] = []
        for lc in rows:
            index.extend(lc)
            coeff.extend(lc.values())
            indptr.append(len(index))
        self.indptr = np.array(indptr, dtype=np.int64)
        self.index = np.array(index, dtype=np.int64)
        widest = int(np.diff(self.indptr).max(initial=0))
        if max(map(abs, coeff), default=0) * widest >= 1 << 63:
            self.coeff = None
            self.l1: int | None = None
            return
        self.coeff = np.array(coeff, dtype=np.int64)
        self.l1 = int(self._row_sums(np.abs(self.coeff)).max(initial=0))

    def _row_sums(self, terms: np.ndarray) -> np.ndarray:
        # the running sum may wrap modulo 2**64, but every row's own sum
        # fits in int64, so the differences at row boundaries are exact
        sums = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(terms, out=sums[1:])
        return sums[self.indptr[1:]] - sums[self.indptr[:-1]]

    def dot(self, w: np.ndarray) -> np.ndarray:
        return self._row_sums(self.coeff * w[self.index])


class CompiledR1CS:
    """The A, B, C matrices of a constraint system, compiled once.

    With every |w_i| <= wmax, |<A,w>| <= L1(A)*wmax and so on, so when
    L1(A)*L1(B)*wmax**2 + L1(C)*wmax < 2**63 nothing overflows int64 and
    |a*b - c| < 2**63 < P: exact equality a*b == c is then the same as
    equality mod P.
    """

    def __init__(self, constraints: Sequence[Tuple[LinComb, LinComb, LinComb]]):
        self.a, self.b, self.c = (_Csr([row[k] for row in constraints]) for k in range(3))

    def fits(self, wmax: int) -> bool:
        la, lb, lc = self.a.l1, self.b.l1, self.c.l1
        if la is None or lb is None or lc is None:
            return False
        return la * lb * wmax * wmax + lc * wmax < 1 << 63

    def is_satisfied(self, w: np.ndarray) -> bool:
        return bool(np.array_equal(self.a.dot(w) * self.b.dot(w), self.c.dot(w)))


class ConstraintSystem:
    """Sparse R1CS: constraints (A, B, C) meaning <A,w> * <B,w> = <C,w> mod P.

    Wire 0 is the constant 1.  Public wires occupy 1..num_public, private
    wires follow.  Coefficients are stored as signed ints.  is_satisfied
    evaluates the compiled int64 form (see ``compiled``) when the overflow
    bound in the module docstring holds, and otherwise falls back to
    is_satisfied_exact, which replays every constraint in unbounded
    integers with a single final reduction per constraint.
    """

    def __init__(self, kind: str, m: int, n: int, constants: CircuitConstants):
        self.kind = kind
        self.m = m
        self.n = n
        self.constants = constants
        self.var_names: List[str] = ["one"]
        self.num_public = 0
        self.num_private = 0
        self.constraints: List[Tuple[LinComb, LinComb, LinComb]] = []
        self.layout: Dict[str, list] = {}
        self._digest: str | None = None
        self._compiled: CompiledR1CS | None = None

    # -- construction ----------------------------------------------------

    def add_public(self, name: str) -> int:
        if self.num_private:
            raise CircuitError("public wires must be allocated before private ones")
        self.var_names.append(name)
        self.num_public += 1
        return len(self.var_names) - 1

    def add_private(self, name: str) -> int:
        self.var_names.append(name)
        self.num_private += 1
        return len(self.var_names) - 1

    def add_constraint(self, a: LinComb, b: LinComb, c: LinComb) -> None:
        nv = len(self.var_names)
        for lc in (a, b, c):
            for idx in lc:
                if not 0 <= idx < nv:
                    raise CircuitError(f"constraint references unallocated wire {idx}")
        self.constraints.append((a, b, c))
        self._digest = None
        self._compiled = None

    def add_boolean(self, idx: int) -> None:
        # b * (b - 1) = 0
        self.add_constraint({idx: 1}, {idx: 1, 0: -1}, {})

    @property
    def num_wires(self) -> int:
        return len(self.var_names)

    # -- evaluation -------------------------------------------------------

    def compiled(self) -> "CompiledR1CS":
        """A, B and C as CSR int64 matrices, built on first use and cached."""
        if self._compiled is None:
            self._compiled = CompiledR1CS(self.constraints)
        return self._compiled

    def _check_length(self, n: int) -> None:
        if n != self.num_wires:
            raise CircuitError(f"witness length {n} != wire count {self.num_wires}")

    def is_satisfied(self, witness: "Witness | Sequence[int]") -> bool:
        """<A,w> * <B,w> == <C,w> mod P for every constraint, and w[0] == 1.

        Small witnesses are checked exactly in int64 by the compiled
        matrices whenever the overflow bound holds; anything else takes
        the exact replay.
        """
        self._check_length(len(witness))
        if not isinstance(witness, Witness):
            witness = Witness(witness)
        w = witness.signed
        if w is not None:
            if w[0] != 1:
                return False
            compiled = self.compiled()
            if compiled.fits(int(np.abs(w).max())):
                return compiled.is_satisfied(w)
        return self.is_satisfied_exact(witness.values)

    def is_satisfied_exact(self, values: Sequence[int]) -> bool:
        """Replay every constraint in unbounded integers, reducing mod P."""
        self._check_length(len(values))
        ws = [to_signed(int(v) % P) for v in values]
        if ws[0] != 1:
            return False
        for a, b, c in self.constraints:
            av = 0
            for i, co in a.items():
                av += co * ws[i]
            bv = 0
            for i, co in b.items():
                bv += co * ws[i]
            cv = 0
            for i, co in c.items():
                cv += co * ws[i]
            if (av * bv - cv) % P:
                return False
        return True

    # -- export -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        def enc(lc: LinComb) -> list:
            return sorted([i, co % P] for i, co in lc.items())

        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "constants": asdict(self.constants),
            "num_public": self.num_public,
            "num_private": self.num_private,
            "variables": self.var_names,
            "constraints": [[enc(a), enc(b), enc(c)] for a, b, c in self.constraints],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstraintSystem":
        cs = cls(d["kind"], int(d["m"]), int(d["n"]), CircuitConstants(**d["constants"]))
        cs.var_names = list(d["variables"])
        cs.num_public = int(d["num_public"])
        cs.num_private = int(d["num_private"])
        for a, b, c in d["constraints"]:
            cs.constraints.append(
                tuple({int(i): to_signed(int(co) % P) for i, co in lc} for lc in (a, b, c))
            )
        cs.rebuild_layout()
        return cs

    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode()).hexdigest()
        return self._digest

    def rebuild_layout(self) -> None:
        """Recover the semantic wire groups from variable names."""
        groups: Dict[str, list] = {}
        for idx, name in enumerate(self.var_names):
            key = name.split("[", 1)[0]
            groups.setdefault(key, []).append(idx)
        self.layout = groups


# -- builders --------------------------------------------------------------


def _check_m(m: int) -> None:
    if m < 1:
        raise CircuitError("m must be >= 1")


def build_aggregation_circuit(m: int, n: int, constants: CircuitConstants) -> ConstraintSystem:
    """Circuit for U' = K * U over quantized integers.

    Public wires: U'[0..m), K[0..n).  Private wires: U[k][j], partial
    products for n > 1, and eta remainder bits per output element.
    """
    _check_m(m)
    if n < 1:
        raise CircuitError("n must be >= 1")
    constants.require_aggregation_exact()
    cs = ConstraintSystem("aggregation", m, n, constants)
    c = constants
    ca = 1 << c.agg_shift
    two_eta = 1 << c.eta

    up = [cs.add_public(f"Up[{j}]") for j in range(m)]
    kk = [cs.add_public(f"K[{k}]") for k in range(n)]
    uu = [[cs.add_private(f"U[{k}][{j}]") for j in range(m)] for k in range(n)]
    pp = None
    if n > 1:
        pp = [[cs.add_private(f"Pa[{k}][{j}]") for j in range(m)] for k in range(n)]
    bits = [[cs.add_private(f"Ra[{j}]:b{t}") for t in range(c.eta)] for j in range(m)]

    for j in range(m):
        out_c: LinComb = {up[j]: two_eta, 0: -two_eta * c.z_up}
        for t in range(c.eta):
            out_c[bits[j][t]] = 1 << t
        if n == 1:
            # single product folded straight into the relation constraint
            cs.add_constraint(
                {kk[0]: ca, 0: -ca * c.z_k},
                {uu[0][j]: 1, 0: -c.z_u},
                out_c,
            )
        else:
            for k in range(n):
                cs.add_constraint(
                    {kk[k]: 1, 0: -c.z_k},
                    {uu[k][j]: 1, 0: -c.z_u},
                    {pp[k][j]: 1},
                )
            cs.add_constraint({p[j]: ca for p in pp}, {0: 1}, out_c)
        for t in range(c.eta):
            cs.add_boolean(bits[j][t])

    cs.rebuild_layout()
    return cs


def build_update_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    """Circuit for W' = W + U' over quantized integers.

    Public wires: W'[0..m), W[0..m).  Private wires: U'[j] and eta
    remainder bits per element.
    """
    _check_m(m)
    constants.require_update_exact()
    cs = ConstraintSystem("update", m, 1, constants)
    c = constants
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    two_eta = 1 << c.eta

    wp = [cs.add_public(f"Wp[{j}]") for j in range(m)]
    ww = [cs.add_public(f"W[{j}]") for j in range(m)]
    up = [cs.add_private(f"Up[{j}]") for j in range(m)]
    bits = [[cs.add_private(f"Ru[{j}]:b{t}") for t in range(c.eta)] for j in range(m)]

    for j in range(m):
        out_c: LinComb = {wp[j]: two_eta, 0: -two_eta * c.z_wp}
        for t in range(c.eta):
            out_c[bits[j][t]] = 1 << t
        cs.add_constraint(
            {ww[j]: cw, up[j]: cu, 0: -(cw * c.z_w + cu * c.z_up)},
            {0: 1},
            out_c,
        )
        for t in range(c.eta):
            cs.add_boolean(bits[j][t])

    cs.rebuild_layout()
    return cs


def build_protocol_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    """Aggregation feeding update with U' kept private: W' = W + K*U.

    This is the relation attached to protocol messages.  Public wires in
    statement order: W'[0..m), W[0..m), K.  Private wires: U[j], U'[j],
    and the two remainder bit banks.
    """
    _check_m(m)
    constants.require_aggregation_exact()
    constants.require_update_exact()
    cs = ConstraintSystem("composed", m, 1, constants)
    c = constants
    ca = 1 << c.agg_shift
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    two_eta = 1 << c.eta

    wp = [cs.add_public(f"Wp[{j}]") for j in range(m)]
    ww = [cs.add_public(f"W[{j}]") for j in range(m)]
    k0 = cs.add_public("K[0]")
    uu = [cs.add_private(f"U[{j}]") for j in range(m)]
    up = [cs.add_private(f"Up[{j}]") for j in range(m)]
    ra = [[cs.add_private(f"Ra[{j}]:b{t}") for t in range(c.eta)] for j in range(m)]
    ru = [[cs.add_private(f"Ru[{j}]:b{t}") for t in range(c.eta)] for j in range(m)]

    for j in range(m):
        agg_c: LinComb = {up[j]: two_eta, 0: -two_eta * c.z_up}
        for t in range(c.eta):
            agg_c[ra[j][t]] = 1 << t
        cs.add_constraint(
            {k0: ca, 0: -ca * c.z_k},
            {uu[j]: 1, 0: -c.z_u},
            agg_c,
        )
        upd_c: LinComb = {wp[j]: two_eta, 0: -two_eta * c.z_wp}
        for t in range(c.eta):
            upd_c[ru[j][t]] = 1 << t
        cs.add_constraint(
            {ww[j]: cw, up[j]: cu, 0: -(cw * c.z_w + cu * c.z_up)},
            {0: 1},
            upd_c,
        )
        for t in range(c.eta):
            cs.add_boolean(ra[j][t])
        for t in range(c.eta):
            cs.add_boolean(ru[j][t])

    cs.rebuild_layout()
    return cs


# -- honest quantized arithmetic (shared by witness generation & protocol) --


def quantized_aggregate(k_q: Sequence[int], u_q: Sequence[Sequence[int]],
                        c: CircuitConstants) -> List[int]:
    """Exact integer computation of U'_j = quantize(sum_k deq(K_k)*deq(U_kj))."""
    c.require_aggregation_exact()
    ca = 1 << c.agg_shift
    m = len(u_q[0])
    out = []
    for j in range(m):
        mj = sum((k_q[k] - c.z_k) * (u_q[k][j] - c.z_u) for k in range(len(k_q)))
        out.append((ca * mj >> c.eta) + c.z_up)
    return out


def quantized_update(w_q: Sequence[int], up_q: Sequence[int],
                     c: CircuitConstants) -> List[int]:
    """Exact integer computation of W'_j = quantize(deq(W_j) + deq(U'_j))."""
    c.require_update_exact()
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    return [
        ((cw * (w_q[j] - c.z_w) + cu * (up_q[j] - c.z_up)) >> c.eta) + c.z_wp
        for j in range(len(w_q))
    ]


# -- witness generation ------------------------------------------------------


def _check_range(vals: Sequence[int], c: CircuitConstants, what: str) -> None:
    for v in vals:
        if not c.q_min <= v <= c.q_max:
            raise CircuitError(f"{what} value {v} outside quantized range")


def _int_dtype(bound: int):
    """int64 when no intermediate can reach ``bound`` >= SMALL, else exact Python ints."""
    return np.int64 if bound < SMALL else object


def _span(c: CircuitConstants) -> int:
    """Largest |v - z| for a value v in the quantized range and any zero-point z."""
    zs = (c.z_k, c.z_u, c.z_up, c.z_w, c.z_wp)
    return max(abs(c.q_min), abs(c.q_max)) + max(abs(z) for z in zs)


def _bit_rows(r: np.ndarray, eta: int) -> np.ndarray:
    """The eta little-endian bits of every element of r, element-major."""
    return ((r[:, None] >> np.arange(eta, dtype=r.dtype)) & 1).ravel()


def _require_remainders(r: np.ndarray, two_eta: int) -> None:
    if not ((r >= 0) & (r < two_eta)).all():
        raise InconsistentStatementError("inconsistent statement")


def generate_witness(cs: ConstraintSystem, public_values: Sequence[int],
                     private_values: Sequence[int]) -> Witness:
    """Compute the full assignment, deriving remainders and their bits.

    public_values follows the circuit's statement order; private_values
    supplies only the free private inputs (U row-major for aggregation,
    U' for the update circuit, U for the composed circuit).  Remainders
    are computed exactly; a remainder outside [0, 2**eta) means the
    public outputs were not produced by honest quantization of these
    inputs and raises InconsistentStatementError.  The arithmetic runs on
    int64 arrays when the constants bound every intermediate below 2**62,
    and on arrays of Python ints otherwise.
    """
    c = cs.constants
    eta = c.eta
    two_eta = 1 << eta
    m, n = cs.m, cs.n
    # accept either signed quantized integers or canonical field elements
    pub = [to_signed(int(v) % P) for v in public_values]
    priv = [to_signed(int(v) % P) for v in private_values]
    if len(pub) != cs.num_public:
        raise CircuitError(f"expected {cs.num_public} public values, got {len(pub)}")
    d = _span(c)

    if cs.kind == "aggregation":
        if len(priv) != n * m:
            raise CircuitError(f"expected {n * m} private values, got {len(priv)}")
        _check_range(pub[:m], c, "U'")
        _check_range(pub[m:], c, "K")
        _check_range(priv, c, "U")
        ca = 1 << c.agg_shift
        dt = _int_dtype(ca * n * d * d + two_eta * (d + 1))
        up_v = np.array(pub[:m], dtype=dt)
        k_v = np.array(pub[m:], dtype=dt)
        u_v = np.array(priv, dtype=dt).reshape(n, m)
        prods = (k_v[:, None] - c.z_k) * (u_v - c.z_u)
        r = ca * prods.sum(axis=0) - two_eta * (up_v - c.z_up)
        _require_remainders(r, two_eta)
        # partial product wires are laid out Pa[k][j], k-major
        partials = prods.ravel() if n > 1 else np.zeros(0, dtype=dt)
        tail = [u_v.ravel(), partials, _bit_rows(r, eta)]

    elif cs.kind == "update":
        if len(priv) != m:
            raise CircuitError(f"expected {m} private values, got {len(priv)}")
        _check_range(pub[:m], c, "W'")
        _check_range(pub[m:], c, "W")
        _check_range(priv, c, "U'")
        cw = 1 << c.upd_w_shift
        cu = 1 << c.upd_u_shift
        dt = _int_dtype((cw + cu + two_eta) * d + two_eta)
        wp_v = np.array(pub[:m], dtype=dt)
        w_v = np.array(pub[m:], dtype=dt)
        up_v = np.array(priv, dtype=dt)
        r = cw * (w_v - c.z_w) + cu * (up_v - c.z_up) - two_eta * (wp_v - c.z_wp)
        _require_remainders(r, two_eta)
        tail = [up_v, _bit_rows(r, eta)]

    elif cs.kind == "composed":
        if len(priv) != m:
            raise CircuitError(f"expected {m} private values, got {len(priv)}")
        _check_range(pub[:m], c, "W'")
        _check_range(pub[m : 2 * m], c, "W")
        _check_range(pub[2 * m :], c, "K")
        _check_range(priv, c, "U")
        ca = 1 << c.agg_shift
        cw = 1 << c.upd_w_shift
        cu = 1 << c.upd_u_shift
        dt = _int_dtype(max(ca * d * d, (cw + cu + two_eta) * d) + two_eta)
        wp_v = np.array(pub[:m], dtype=dt)
        w_v = np.array(pub[m : 2 * m], dtype=dt)
        u_v = np.array(priv, dtype=dt)
        t_agg = ca * (pub[2 * m] - c.z_k) * (u_v - c.z_u)
        up_v = (t_agg >> eta) + c.z_up
        if ((up_v < c.q_min) | (up_v > c.q_max)).any():
            raise InconsistentStatementError("inconsistent statement")
        r_a = t_agg - two_eta * (up_v - c.z_up)
        r_u = cw * (w_v - c.z_w) + cu * (up_v - c.z_up) - two_eta * (wp_v - c.z_wp)
        _require_remainders(r_u, two_eta)
        tail = [u_v, up_v, _bit_rows(r_a, eta), _bit_rows(r_u, eta)]

    else:
        raise CircuitError(f"unknown circuit kind {cs.kind!r}")

    return Witness(np.concatenate([np.array([1] + pub, dtype=dt), *tail]))
