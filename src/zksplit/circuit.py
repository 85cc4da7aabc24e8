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

The gadget.  Every relation row of every circuit kind is a _Floor row,
a * b = 2**eta * (out_j - z) + sum_t 2**t * bit_jt, followed by the eta
booleanity rows of its bits; a builder only allocates wires and names the
factors a and b.  Aggregation with n = 1 and the composed circuit share
c_a * (K - z_K) times (U - z_U), update and composed share
c_w * (W - z_W) + c_u * (U' - z_U') times 1, and aggregation with n > 1
multiplies the sum of c_a * Pa_kj over its n product rows by 1.
_Floor.bits derives the same bits for generate_witness.

The arithmetic.  aggregation_floor and update_floor compute the left-hand
sides above, the floor terms, on numpy arrays; they are the one
implementation of the quantized arithmetic.  quantized_aggregate and
quantized_update are (floor >> eta) + z, which floors like the
rationals, and generate_witness derives U', W' and every remainder
floor - 2**eta * (out - z) from the same two functions.  With d the
largest |v - z| over the quantized range, widened to cover the operands,
the aggregation floor and its remainder stay below
c_a * n * d**2 + 2**eta * (d + 1), and the update's below
(c_w + c_u + 2**eta) * d + 2**eta.  The arithmetic runs in int64 when
that bound is under 2**62 (it is about 2**39 under the default
constants), and on arrays of Python ints otherwise, as for eta = 60.

Checking satisfaction.  Each circuit is compiled once, on its first
check.  Its booleanity rows b * (b - 1) = 0, eta per output element,
become one array of bit wires, each tested to be 0 or 1; the other rows
become CSR matrices A, B and C with int64 coefficients, together with
each matrix's largest row L1 norm.  A witness whose elements all
have signed representatives in (-2**62, 2**62) is carried as an int64
array, and when

    L1(A) * L1(B) * max|w|**2 + L1(C) * max|w|  <  2**63

every <A,w>, <B,w>, <C,w> and a*b - c fits in int64 and |a*b - c| < P,
so the exact int64 test a*b == c decides a*b == c mod P.  For the
default constants (max|w| = 2**13, L1 = 2**23, 1, 2**23) the bound holds
with about 2**14 to spare.  Witnesses or circuits outside the bound, such
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


# Field elements whose signed representative lies in (-SMALL, SMALL) are
# carried as int64; on the wire they are 32-byte little-endian canonical
# elements, read here as four uint64 limbs.  A small negative v encodes as
# P - |v|, which never borrows from the upper limbs because P's low limb
# exceeds SMALL.
SMALL = 1 << 62
_P_LIMBS = np.array([(P >> (64 * i)) & 0xFFFFFFFFFFFFFFFF for i in range(4)], dtype="<u8")
assert int(_P_LIMBS[0]) > SMALL
# decoding re-encodes this many elements at a time, so that checking a
# 1.5 MB transcript allocates no second copy of it
_DECODE_BLOCK = 8192


def _limbs(s: np.ndarray) -> np.ndarray:
    """The canonical encodings of the int64 array s as (n, 4) limbs."""
    limbs = np.zeros((len(s), 4), dtype="<u8")
    limbs[:, 0] = s.view(np.uint64)
    # P's limbs where v < 0, plus v in the low limb: modulo 2**64 that is P - |v|
    neg = np.flatnonzero(s < 0)
    limbs[neg, 1:] = _P_LIMBS[1:]
    limbs[neg, 0] += _P_LIMBS[0]
    return limbs


def _write_elements(values):
    """The 32-byte little-endian canonical encodings of field elements, with
    no count: the limbs of an int64 array of signed representatives, or
    each integer of a sequence reduced mod P."""
    if isinstance(values, np.ndarray):
        return memoryview(_limbs(values))
    return b"".join((v % P).to_bytes(32, "little") for v in values)


def _read_elements(data, what: str) -> List[int]:
    """The canonical ints of a count-less encoding, 32 bytes each.  Raises
    ValueError on an element that is not reduced mod P."""
    vals = [int.from_bytes(data[i : i + 32], "little") for i in range(0, len(data), 32)]
    if vals and max(vals) >= P:
        raise ValueError(f"{what} element not reduced")
    return vals


class FieldVector:
    """A vector of field elements in one of two representations.

    ``signed`` is an int64 array of signed representatives when every
    element lies in (-SMALL, SMALL), and None otherwise; then the canonical
    tuple is held instead.  ``values`` is always the canonical tuple,
    derived on first use.  Witnesses and statements share this
    representation and its codec: a little-endian u32 count followed by
    32-byte little-endian canonical elements.

    Decoding reads the elements as an (n, 4) array of limbs.  Only one
    int64 vector can have produced them: a nonzero top limb marks P - |v|,
    so v = low limb - P0 there and v = low limb elsewhere (mod 2**64).
    That v is taken when every element lies in (-SMALL, SMALL) and its
    encoding, made block by block, equals the limbs read, which is exactly
    when every element is the canonical encoding of a small value.  Any
    other frame is read element by element, which rejects elements >= P.
    """

    def __init__(self, values) -> None:
        self._values: Tuple[int, ...] | None = None
        if isinstance(values, np.ndarray) and values.dtype == np.int64 and (
            values.size == 0 or (values.min() > -SMALL and values.max() < SMALL)
        ):
            self._signed: np.ndarray | None = values
            return
        ints = [to_signed(int(v) % P) for v in values]
        if all(-SMALL < v < SMALL for v in ints):
            self._signed = np.array(ints, dtype=np.int64)
        else:
            self._signed = None
            self._values = tuple(v % P for v in ints)

    @property
    def signed(self) -> np.ndarray | None:
        return self._signed

    @property
    def values(self) -> Tuple[int, ...]:
        if self._values is None:
            self._values = tuple(v % P for v in self._signed.tolist())
        return self._values

    def __len__(self) -> int:
        return len(self._values) if self._signed is None else len(self._signed)

    def _encode(self) -> bytes:
        elements = self._values if self._signed is None else self._signed
        return b"".join((len(self).to_bytes(4, "little"), _write_elements(elements)))

    @staticmethod
    def _decode(data: bytes, what: str):
        """The elements of an encoding: an int64 array when all are small,
        else a list of canonical ints.  Raises ValueError on a truncated
        frame or an element that is not reduced mod P."""
        if len(data) < 4:
            raise ValueError(f"truncated {what}")
        n = int.from_bytes(data[:4], "little")
        if len(data) != 4 + 32 * n:
            raise ValueError(f"truncated {what}")
        limbs = np.frombuffer(data, dtype="<u8", offset=4).reshape(n, 4)
        v = limbs[:, 0].copy()
        v[limbs[:, 3] != 0] -= _P_LIMBS[0]
        v = v.view(np.int64)
        if n == 0 or (v.min() > -SMALL and v.max() < SMALL and all(
                np.array_equal(_limbs(v[i : i + _DECODE_BLOCK]), limbs[i : i + _DECODE_BLOCK])
                for i in range(0, n, _DECODE_BLOCK))):
            return v
        return _read_elements(memoryview(data)[4:], what)


class Witness(FieldVector):
    """Full assignment: leading constant 1, then public, then private wires."""

    def statement(self, cs: "ConstraintSystem") -> List[int]:
        if self._signed is None:
            return list(self.values[1 : 1 + cs.num_public])
        return [v % P for v in self._signed[1 : 1 + cs.num_public].tolist()]

    def publishes(self, public: FieldVector) -> bool:
        """Whether wires 1..len(public) hold exactly the elements of ``public``."""
        n = len(public)
        if self._signed is not None and public.signed is not None:
            return bool(np.array_equal(self._signed[1 : 1 + n], public.signed))
        return self.values[1 : 1 + n] == public.values

    def to_bytes(self) -> bytes:
        return self._encode()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Witness":
        return cls(cls._decode(data, "witness"))


class _Csr:
    """One constraint matrix in CSR form with int64 coefficients.

    ``l1`` is the largest row L1 norm, or None when a coefficient or a row
    sum does not fit in int64 (then only the exact replay applies).

    Row sums are one ``np.add.reduceat`` over the starts of the nonempty
    rows, computed once; empty rows, leading, inner or trailing, sum to 0.
    Every partial sum stays inside one row, so with every |w_i| <= wmax
    it is bounded by that row's L1 norm times wmax, and the bound that
    ``CompiledR1CS.fits`` checks rules out overflow.
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
        counts = np.diff(self.indptr)
        self._nonempty = np.flatnonzero(counts)
        self._starts = self.indptr[self._nonempty]
        if max(map(abs, coeff), default=0) * int(counts.max(initial=0)) >= 1 << 63:
            self.coeff = None
            self.l1: int | None = None
            return
        self.coeff = np.array(coeff, dtype=np.int64)
        self.l1 = int(self._row_sums(np.abs(self.coeff)).max(initial=0))

    def _row_sums(self, terms: np.ndarray) -> np.ndarray:
        sums = np.zeros(len(self.indptr) - 1, dtype=np.int64)
        if self._starts.size:
            sums[self._nonempty] = np.add.reduceat(terms, self._starts)
        return sums

    def dot(self, w: np.ndarray) -> np.ndarray:
        return self._row_sums(self.coeff * w[self.index])


class CompiledR1CS:
    """The A, B, C matrices of a constraint system, compiled once.

    Rows of exactly the ``add_boolean`` shape, {i: 1} * {i: 1, 0: -1} = {}
    with i != 0, are kept apart as ``bits``, the int64 array of their wires
    i.  Mod P such a row holds iff w_i is 0 or 1, and for a signed int64
    representative in (-2**62, 2**62) that is iff w_i is 0 or 1 as an
    integer: a bit test, with no arithmetic and so no overflow bound.  Any
    other row, however close to that shape, goes into the CSR matrices.

    With every |w_i| <= wmax, |<A,w>| <= L1(A)*wmax and so on, so when
    L1(A)*L1(B)*wmax**2 + L1(C)*wmax < 2**63 nothing overflows int64 and
    |a*b - c| < 2**63 < P: exact equality a*b == c is then the same as
    equality mod P.
    """

    def __init__(self, constraints: Sequence[Tuple[LinComb, LinComb, LinComb]]):
        bits: List[int] = []
        rows = []
        for row in constraints:
            a, b, c = row
            if len(a) == 1 and len(b) == 2 and not c:
                (i, ca), = a.items()
                # b[i] == 1 and b[0] == -1 in a two-term b force i != 0
                if ca == 1 and b.get(i) == 1 and b.get(0) == -1:
                    bits.append(i)
                    continue
            rows.append(row)
        self.bits = np.array(bits, dtype=np.int64)
        self.a, self.b, self.c = (_Csr([row[k] for row in rows]) for k in range(3))

    def fits(self, wmax: int) -> bool:
        la, lb, lc = self.a.l1, self.b.l1, self.c.l1
        if la is None or lb is None or lc is None:
            return False
        return la * lb * wmax * wmax + lc * wmax < 1 << 63

    def is_satisfied(self, w: np.ndarray) -> bool:
        if not ((w[self.bits] & ~1) == 0).all():
            return False
        return bool(np.array_equal(self.a.dot(w) * self.b.dot(w), self.c.dot(w)))


def _canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


class _LcTemplates(dict):
    """JSON text of a linear combination, keyed by its coefficients in wire
    order, with a %d slot for each wire index.  A circuit has only a handful
    of distinct coefficient sequences, so each template is built once."""

    def __missing__(self, coeffs: Tuple[int, ...]) -> str:
        text = self[coeffs] = "[" + ",".join("[%%d,%d]" % (co % P) for co in coeffs) + "]"
        return text


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
        """The booleanity wires and A, B and C as CSR int64 matrices of the
        other rows, built on first use and cached."""
        if self._compiled is None:
            self._compiled = CompiledR1CS(self.constraints)
        return self._compiled

    def _check_length(self, n: int) -> None:
        if n != self.num_wires:
            raise CircuitError(f"witness length {n} != wire count {self.num_wires}")

    def is_satisfied(self, witness: "Witness | Sequence[int]") -> bool:
        """<A,w> * <B,w> == <C,w> mod P for every constraint, and w[0] == 1.

        Small witnesses are checked exactly in int64 by the compiled form
        whenever the overflow bound holds: booleanity rows as a test that
        each of their wires is 0 or 1, every other row through the A, B
        and C matrices.  Anything else takes the exact replay.
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

    def to_json(self) -> str:
        """The canonical circuit JSON, the preimage of ``digest``.

        It is ``json.dumps(d, separators=(",", ":"), sort_keys=True)`` of
        the dict d with keys constants (the CircuitConstants fields),
        constraints, kind, m, n, num_private, num_public and variables.
        ``constraints`` lists [A, B, C] per constraint, and each linear
        combination is a list of [wire, coefficient mod P] pairs sorted by
        wire.  Only the small header goes through ``json.dumps``; the
        constraint list is written directly and spliced in after
        ``constants``, its first key.  Each linear combination is the
        template of its coefficient sequence (see ``_LcTemplates``) filled
        with its wire indices, so the text is the same as the dict's.
        """
        templates = _LcTemplates()

        def lc_text(lc: LinComb) -> str:
            if not lc:
                return "[]"
            wires, coeffs = zip(*sorted(lc.items()))
            return templates[coeffs] % wires

        constraints = ",".join(
            "[%s,%s,%s]" % (lc_text(a), lc_text(b), lc_text(c)) for a, b, c in self.constraints
        )
        rest = _canonical_json({
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "num_public": self.num_public,
            "num_private": self.num_private,
            "variables": self.var_names,
        })
        constants = _canonical_json(asdict(self.constants))
        return '{"constants":%s,"constraints":[%s],%s' % (constants, constraints, rest[1:])

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

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
        return cs

    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_json().encode()).hexdigest()
        return self._digest


# -- builders --------------------------------------------------------------


def _check_m(m: int) -> None:
    if m < 1:
        raise CircuitError("m must be >= 1")


class _Floor:
    """The floor relation a * b = 2**eta * (out_j - z) + R_j, 0 <= R_j < 2**eta.

    One instance covers one output vector ``out`` of a circuit.  R_j is
    recomposed from eta bit wires {name}[j]:b{t}, allocated here, which
    range-checks it through eta booleanity rows.  ``row`` emits the
    relation row of element j for given factors a and b, ``booleans`` its
    booleanity rows, and ``bits`` computes the same bits for a witness.
    """

    def __init__(self, cs: ConstraintSystem, name: str, out: List[int], z: int):
        eta = cs.constants.eta
        self.out = out
        self.z = z
        self.wires = [[cs.add_private(f"{name}[{j}]:b{t}") for t in range(eta)]
                      for j in range(len(out))]

    def row(self, cs: ConstraintSystem, j: int, a: LinComb, b: LinComb) -> None:
        two_eta = 1 << cs.constants.eta
        c: LinComb = {self.out[j]: two_eta, 0: -two_eta * self.z}
        for t, bit in enumerate(self.wires[j]):
            c[bit] = 1 << t
        cs.add_constraint(a, b, c)

    def booleans(self, cs: ConstraintSystem, j: int) -> None:
        for bit in self.wires[j]:
            cs.add_boolean(bit)

    @staticmethod
    def bits(floor: np.ndarray, out: np.ndarray, z: int, eta: int) -> np.ndarray:
        """The bit wires of every element, element-major: the eta bits of
        R = floor - 2**eta * (out - z), which lies in [0, 2**eta) exactly
        when out is the honest quantized output (floor >> eta) + z."""
        two_eta = 1 << eta
        r = floor - two_eta * (out.astype(floor.dtype, copy=False) - z)
        if not ((r >= 0) & (r < two_eta)).all():
            raise InconsistentStatementError("inconsistent statement")
        return _bit_rows(r, eta)


def _aggregation_factors(c: CircuitConstants, k: int, u: int) -> Tuple[LinComb, LinComb]:
    """ca * (K - z_K) and (U - z_U), the factors of one aggregation row with n = 1."""
    ca = 1 << c.agg_shift
    return {k: ca, 0: -ca * c.z_k}, {u: 1, 0: -c.z_u}


def _update_factors(c: CircuitConstants, w: int, up: int) -> Tuple[LinComb, LinComb]:
    """cw * (W - z_W) + cu * (U' - z_U') and 1, the factors of one update row."""
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    return {w: cw, up: cu, 0: -(cw * c.z_w + cu * c.z_up)}, {0: 1}


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

    up = [cs.add_public(f"Up[{j}]") for j in range(m)]
    kk = [cs.add_public(f"K[{k}]") for k in range(n)]
    uu = [[cs.add_private(f"U[{k}][{j}]") for j in range(m)] for k in range(n)]
    if n > 1:
        pp = [[cs.add_private(f"Pa[{k}][{j}]") for j in range(m)] for k in range(n)]
    ra = _Floor(cs, "Ra", up, c.z_up)

    for j in range(m):
        if n == 1:
            # single product folded straight into the relation constraint
            ra.row(cs, j, *_aggregation_factors(c, kk[0], uu[0][j]))
        else:
            for k in range(n):
                cs.add_constraint(
                    {kk[k]: 1, 0: -c.z_k},
                    {uu[k][j]: 1, 0: -c.z_u},
                    {pp[k][j]: 1},
                )
            ra.row(cs, j, {p[j]: 1 << c.agg_shift for p in pp}, {0: 1})
        ra.booleans(cs, j)
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

    wp = [cs.add_public(f"Wp[{j}]") for j in range(m)]
    ww = [cs.add_public(f"W[{j}]") for j in range(m)]
    up = [cs.add_private(f"Up[{j}]") for j in range(m)]
    ru = _Floor(cs, "Ru", wp, c.z_wp)

    for j in range(m):
        ru.row(cs, j, *_update_factors(c, ww[j], up[j]))
        ru.booleans(cs, j)
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

    wp = [cs.add_public(f"Wp[{j}]") for j in range(m)]
    ww = [cs.add_public(f"W[{j}]") for j in range(m)]
    k0 = cs.add_public("K[0]")
    uu = [cs.add_private(f"U[{j}]") for j in range(m)]
    up = [cs.add_private(f"Up[{j}]") for j in range(m)]
    ra = _Floor(cs, "Ra", up, c.z_up)
    ru = _Floor(cs, "Ru", wp, c.z_wp)

    for j in range(m):
        ra.row(cs, j, *_aggregation_factors(c, k0, uu[j]))
        ru.row(cs, j, *_update_factors(c, ww[j], up[j]))
        ra.booleans(cs, j)
        ru.booleans(cs, j)
    return cs


# -- the honest quantized arithmetic, shared by the protocol and witnesses --


def _ints(values) -> np.ndarray:
    """Integers as an int64 array, or as an array of Python ints when one
    does not fit in int64."""
    if isinstance(values, np.ndarray) and values.dtype == object:
        return values
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _int_dtype(bound: int):
    """int64 when no intermediate can reach ``bound`` >= SMALL, else exact Python ints."""
    return np.int64 if bound < SMALL else object


def _span(c: CircuitConstants, *operands: np.ndarray) -> int:
    """Largest |v - z| for any zero-point z and any v in the quantized
    range or among the elements of ``operands``."""
    top = max(abs(c.q_min), abs(c.q_max))
    for v in operands:
        if v.size:
            top = max(top, -int(v.min()), int(v.max()))
    return top + max(abs(z) for z in (c.z_k, c.z_u, c.z_up, c.z_w, c.z_wp))


def _aggregation_products(k_q, u_q, c: CircuitConstants) -> np.ndarray:
    """The n x m matrix (K_k - z_K)(U_kj - z_U), in the dtype of aggregation_floor."""
    c.require_aggregation_exact()
    k, u = _ints(k_q), _ints(u_q)
    if u.ndim != 2 or u.shape[0] != k.size:
        raise CircuitError(f"U has shape {u.shape}, expected {k.size} rows")
    d = _span(c, k, u)
    dt = _int_dtype((1 << c.agg_shift) * k.size * d * d + (1 << c.eta) * (d + 1))
    return (k.astype(dt, copy=False)[:, None] - c.z_k) * (u.astype(dt, copy=False) - c.z_u)


def aggregation_floor(k_q, u_q, c: CircuitConstants) -> np.ndarray:
    """ca * sum_k (K_k - z_K)(U_kj - z_U) for every output j, exactly.

    K is a length-n vector and U an n x m matrix.  Its floor division by
    2**eta gives U'_j - z_U'.
    """
    return (1 << c.agg_shift) * _aggregation_products(k_q, u_q, c).sum(axis=0)


def update_floor(w_q, up_q, c: CircuitConstants) -> np.ndarray:
    """cw * (W_j - z_W) + cu * (U'_j - z_U') for every element j, exactly.

    Its floor division by 2**eta gives W'_j - z_W'.
    """
    c.require_update_exact()
    w, up = _ints(w_q), _ints(up_q)
    if w.shape != up.shape:
        raise CircuitError(f"W has shape {w.shape} but U' has {up.shape}")
    cw = 1 << c.upd_w_shift
    cu = 1 << c.upd_u_shift
    dt = _int_dtype((cw + cu + (1 << c.eta)) * _span(c, w, up) + (1 << c.eta))
    return cw * (w.astype(dt, copy=False) - c.z_w) + cu * (up.astype(dt, copy=False) - c.z_up)


def quantized_aggregate(k_q: Sequence[int], u_q: Sequence[Sequence[int]],
                        c: CircuitConstants) -> List[int]:
    """Exact integer computation of U'_j = quantize(sum_k deq(K_k)*deq(U_kj))."""
    return ((aggregation_floor(k_q, u_q, c) >> c.eta) + c.z_up).tolist()


def quantized_update(w_q: Sequence[int], up_q: Sequence[int],
                     c: CircuitConstants) -> List[int]:
    """Exact integer computation of W'_j = quantize(deq(W_j) + deq(U'_j))."""
    return ((update_floor(w_q, up_q, c) >> c.eta) + c.z_wp).tolist()


# -- witness generation ------------------------------------------------------


def _signed_array(values) -> np.ndarray:
    """Signed representatives of field elements: int64 when every element
    is small, Python ints otherwise.  Accepts a FieldVector, an array or
    any sequence of signed or canonical integers."""
    if not isinstance(values, (np.ndarray, FieldVector)):
        try:
            values = np.array(values, dtype=np.int64)
        except OverflowError:  # canonical negatives or huge elements
            pass
    vec = values if isinstance(values, FieldVector) else FieldVector(values)
    if vec.signed is not None:
        return vec.signed
    return np.array([to_signed(v) for v in vec.values], dtype=object)


def _check_range(cs: ConstraintSystem, vals: np.ndarray) -> None:
    """Raise unless every vals[i], the value of wire 1 + i, is in the quantized range."""
    c = cs.constants
    if vals.size and (vals.min() < c.q_min or vals.max() > c.q_max):
        i, bad = next((i, v) for i, v in enumerate(vals.tolist()) if not c.q_min <= v <= c.q_max)
        raise CircuitError(f"{cs.var_names[1 + i]} value {bad} outside quantized range")


def _bit_rows(r: np.ndarray, eta: int) -> np.ndarray:
    """The eta little-endian bits of every element of r, element-major.

    An int64 r is unpacked from its bytes; an array of Python ints, as
    for eta = 60, is shifted."""
    if r.dtype == np.int64:
        octets = np.ascontiguousarray(r, dtype="<i8").view(np.uint8).reshape(-1, 8)
        return np.unpackbits(octets, axis=1, count=eta, bitorder="little").ravel()
    return ((r[:, None] >> np.arange(eta, dtype=r.dtype)) & 1).ravel()


def generate_witness(cs: ConstraintSystem, public_values: Sequence[int],
                     private_values: Sequence[int]) -> Witness:
    """Compute the full assignment, deriving remainders and their bits.

    public_values follows the circuit's statement order; private_values
    supplies only the free private inputs (U row-major for aggregation,
    U' for the update circuit, U for the composed circuit), whose wires
    follow the public ones.  Every value must lie in the quantized range.
    Remainders are computed exactly from aggregation_floor and
    update_floor; a remainder outside [0, 2**eta) means the public outputs
    were not produced by honest quantization of these inputs and raises
    InconsistentStatementError.
    """
    c = cs.constants
    m, n = cs.m, cs.n
    # accept either signed quantized integers or canonical field elements
    pub = _signed_array(public_values)
    priv = _signed_array(private_values)
    if len(pub) != cs.num_public:
        raise CircuitError(f"expected {cs.num_public} public values, got {len(pub)}")
    if len(priv) != n * m:  # n is 1 but for aggregation
        raise CircuitError(f"expected {n * m} private values, got {len(priv)}")
    inputs = np.concatenate([pub, priv])
    _check_range(cs, inputs)

    if cs.kind == "aggregation":
        u = priv.reshape(n, m)
        # partial product wires are laid out Pa[k][j], k-major
        partials = _aggregation_products(pub[m:], u, c).ravel() if n > 1 else priv[:0]
        tail = [partials, _Floor.bits(aggregation_floor(pub[m:], u, c), pub[:m], c.z_up, c.eta)]

    elif cs.kind == "update":
        tail = [_Floor.bits(update_floor(pub[m:], priv, c), pub[:m], c.z_wp, c.eta)]

    elif cs.kind == "composed":
        t_agg = aggregation_floor(pub[2 * m :], priv.reshape(1, m), c)
        up = (t_agg >> c.eta) + c.z_up
        if ((up < c.q_min) | (up > c.q_max)).any():
            raise InconsistentStatementError("inconsistent statement")
        tail = [up, _Floor.bits(t_agg, up, c.z_up, c.eta),
                _Floor.bits(update_floor(pub[m : 2 * m], up, c), pub[:m], c.z_wp, c.eta)]

    else:
        raise CircuitError(f"unknown circuit kind {cs.kind!r}")

    return Witness(np.concatenate([np.ones(1, dtype=np.int64), inputs, *tail]))
