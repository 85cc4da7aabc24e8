"""Rank-1 constraint systems for the quantized cut-layer relations.

Two relations are circuit-compiled, both stated over quantized integers:

  aggregation   U' = K * U        (K one weight, U and U' of length m)
  update        W' = W + U'       (elementwise, length m)

Dequantizing each symbol with its own scale and zero-point and clearing
denominators with the precision amplifier 2**eta turns each relation into
an exact integer identity with a nonnegative remainder R < 2**eta that
absorbs floor rounding:

  aggregation, per output j:
      c_a * (K - z_K)(U_j - z_U)  =  2**eta * (U'_j - z_U') + R_j
      with c_a = 2**(eta + f_U' - f_K - f_U)

  update, per element j:
      c_w * (W_j - z_W) + c_u * (U'_j - z_U')
          =  2**eta * (W'_j - z_W') + R_j
      with c_w = 2**(eta + f_W' - f_W),  c_u = 2**(eta + f_W' - f_U')

Scales are powers of two (s = 2**-f), so the c constants are exact
integers whenever their exponents are nonnegative; a negative exponent is
rejected at build time, and so is one that puts a constant past P, as is
an eta with 2**eta past P.  R is never materialized as its own wire: the
relation constraint recomposes it directly from eta boolean wires, which
both range-checks R and keeps the count at m * (1 + eta) constraints per
relation.

The remainder convention here is R = floor_term - 2**eta*(out - z) >= 0,
the mirror image of writing the leftover on the other side of the
equation; nonnegative remainders admit direct binary range checks.

The gadgets.  A circuit kind, listed in BUILDERS, is its public and free
private wires plus a list of _Floor gadgets, one per relation
(_Aggregation, _Update).  Each gadget owns a contiguous range of wires:
its eta bit wires per element, and its output bank when that is private,
as U' in the composed circuit.  It describes its rows of element j, the
relation row a * b = 2**eta * (out_j - z) + sum_t 2**t * bit_jt (``row``)
and the eta booleanity rows of its bits (``bits[j]``), and for a witness
it computes its floor term from the wires before its own and fills in its
range.  generate_witness thus has no branch per kind.  The constructor
runs its kind's layout, which allocates each bank of wires with one
add_wires call and adds no row, and once it returns the circuit takes no
more wires: every circuit is whole, and its rows are, element by element,
each gadget's relation row and then each gadget's booleanity rows
(ConstraintSystem._element).  No object holds them all:
``num_constraints`` counts them as m * (1 + eta) per gadget, the digest
and snark key set-up read element 0's rows and the stride of each of
their wires (``element_template``), and the check asks the gadgets.

The digest.  A circuit is named by the SHA-256 of its canonical JSON text
(to_json), which binds every proof and key to its rows and wire names.
The text is written into one uint8 array of its exact length, the
digest's preimage, by one kernel (_write_rows) that fills a template
with rows of integers affine in j.  The constraints are the text of
element 0's rows with a %d slot per wire, filled with the wires of every
element, which are affine in j since each gadget lays out its elements
at a fixed stride.  The names are kept as banks, one per add_wires call:
the names of one row of the bank's wires with a %d slot for the row's
index j, as "Ra[%d]:b0", and its number of rows; the same kernel fills
each bank's row of names with every j.  The kernel formats the integers
in numpy a chunk of rows at a time: it gathers their digits from a digit
table into a uint8 matrix of the rows, which lies in the array.  The
writer builds no dict, no list of rows or row strings, no string per
wire, and no other object as large as the text, and the array is freed
once it is hashed.  ``var_names`` parses the names from the same text.

The arithmetic.  Each gadget writes its floor term, a left-hand side
above, once, as ``formula``: from the one integer K and the vector U, or
from the vectors W and U', in a dtype it is given.  aggregation_floor and
update_floor are its validated public entry points: they check their
operands and pick the dtype from the operands' span.
quantized_aggregate and quantized_update are (floor >> eta) + z, which
floors like the rationals, and return the array the floor gives; the
gadgets derive U' and every remainder floor - 2**eta * (out - z) from the
same formulas.  With d the largest |v - z| over the quantized range,
widened to cover the operands, the aggregation floor and its remainder
stay below c_a * d**2 + 2**eta * (d + 1), and the update's below
(c_w + c_u) * d + 2**eta * (d + 1): each gadget's ``bound``.  The
arithmetic runs in int64 when that bound is under 2**62 (it is about
2**39 under the default constants), and on arrays of Python ints
otherwise, as for eta = 60; the outputs then are Python ints too,
however small.  generate_witness has checked every input against the
quantized range, and a gadget refuses a derived output outside it, so it
takes each gadget's dtype from the bound at the range's own d.

Checking satisfaction.  A circuit gives each booleanity row
b * (b - 1) = 0 as the bare index of its wire b; only the other rows are
(A, B, C) triples of dicts.  A circuit's rows are exactly its gadgets'
rows, so it is checked gadget by gadget, each over whole banks of wires
(``holds``), and nothing else decides a witness.  Every wire is held as
its signed representative v, with |v| < P/2 and P prime, so a
booleanity row holds mod P exactly when its bit is 0 or 1.  A relation
row reads A * B = C, with A * B the gadget's floor term (``formula``)
and C = 2**eta * (out - z) + sum_t 2**t * bit_t, so it holds mod P
exactly when P divides delta = R - sum_t 2**t * bit_t, where
R = floor - 2**eta * (out - z) is computed by the same formula that
fills the witness.  A witness whose elements all have signed
representatives in (-2**62, 2**62) is carried as an int64 array; take d
as in the arithmetic, but widened to cover every wire of the witness,
the outputs included, and let B be the largest gadget bound at d.  The
witness recorded the least and greatest of its elements when it was made
or decoded: generate_witness takes it from the inputs' range it checks
and each gadget's derived outputs, since wire 0 is 1 and every bit 0 or
1, and a decoded witness from its statement's range and the range its
transcript frame recorded.  So d costs no pass
over the wires; and each gadget computes its floors once, in the one
dtype B picks.  While B < 2**62, and so the witness is int64, every
floor, every R and every intermediate fits in int64, and the test is
delta = 0: with every bit 0 or 1,
|delta| <= |R| + 2**eta - 1 < B + 2**eta <= 2 * B < P, because the bound
covers |R| and is at least 2**eta * (d + 1), so P divides delta only when
it is 0.  Past that, as for every honest witness at eta = 60, for a
witness with an element past 2**62 (an adversarial transcript at frame
width 32) and for one whose B reaches P/2, the floors and remainders are
Python ints and the test is delta mod P = 0: the rows themselves.  Such
a witness may hold mod P and not over the integers, as one whose U and
U' are solved from the rows by division in F_P does, and it is accepted,
as the rows demand.  Operands alone do not give d: an output wire
holding 2**59 wraps 2**eta * (out - z) in int64.  For the default
constants d is about 2**15 on an honest witness, and B about 2**39.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields
from functools import partial
from itertools import chain
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .field import P, to_signed
from .quant import DEFAULT_Q_MAX, DEFAULT_Q_MIN, QuantParams

MIN_ETA = 22
# the most rows a circuit may have: from_spec builds no larger circuit, and
# the snark setup refuses one
MAX_CONSTRAINTS = 1 << 20
# 2**e < P exactly when e < _P_BITS
_P_BITS = P.bit_length()

LinComb = Dict[int, int]  # wire index -> signed integer coefficient


class CircuitError(ValueError):
    pass


class ScaleUnderflowError(CircuitError):
    """A scale-ratio constant would not be an integer."""


class InconsistentStatementError(CircuitError):
    """Public outputs were not produced by honest quantized arithmetic."""


def _require_exact(*shifts: int) -> None:
    """Raise unless every scale constant 2**shift is an integer below P."""
    if min(shifts) < 0:
        raise ScaleUnderflowError("scale exponent underflow")
    if max(shifts) >= _P_BITS:
        raise CircuitError(f"scale constant 2**{max(shifts)} is not below P")


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
        if not MIN_ETA <= self.eta < _P_BITS:
            raise CircuitError(f"eta must be >= {MIN_ETA} and < {_P_BITS}")

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
        _require_exact(self.agg_shift)

    def require_update_exact(self) -> None:
        _require_exact(self.upd_w_shift, self.upd_u_shift)

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
# carried as int64.
SMALL = 1 << 62
# frame widths in bytes: int8, int16, int32, int64 signed values; canonical elements
_INT_WIDTHS = (1, 2, 4, 8)
_WIDE = 32
# the flag bit of the width byte of a frame that ends with a bit tail
_TAIL = 0x80
# the shortest bit tail that makes a frame at each width shorter: b elements
# take width * b bytes as a tail's head would, and 4 + ceil(b/8) as a tail;
# every longer tail makes it shorter too
_MIN_TAIL = {w: next(b for b in range(1, 9) if w * b > 4 + (b + 7) // 8)
             for w in (*_INT_WIDTHS, _WIDE)}


def _write_elements(values) -> bytes:
    """The integers of ``values`` mod P as 32-byte little-endian, no count."""
    return b"".join([(v % P).to_bytes(32, "little") for v in values])


def _read_elements(data, what: str) -> List[int]:
    """The canonical ints of a count-less encoding, 32 bytes each.  Raises
    ValueError on an element that is not reduced mod P."""
    vals = [int.from_bytes(data[i : i + 32], "little") for i in range(0, len(data), 32)]
    if vals and max(vals) >= P:
        raise ValueError(f"{what} element not reduced")
    return vals


def _width(lo: int, hi: int) -> int:
    """The frame width of signed representatives that lie in [lo, hi]: the
    narrowest integer width that holds them all, or 32 when one lies past
    (-SMALL, SMALL)."""
    if not -SMALL < lo <= hi < SMALL:
        return _WIDE
    return next(w for w in _INT_WIDTHS if -(1 << 8 * w - 1) <= lo and hi < 1 << 8 * w - 1)


def _frame(s: np.ndarray, span: Tuple[int, int]) -> bytes:
    """The encoding of the signed representatives s, whose least and
    greatest with 0 are ``span``: width, count, elements, with the trailing
    run of bits packed as a bit tail when that makes the frame shorter."""
    width = _width(*span)
    n = len(s)
    if width == _WIDE:
        elements = s.tolist()
        k = n - next((i for i, v in enumerate(reversed(elements)) if v not in (0, 1)), n)
    else:
        elements = s.astype(f"<i{width}")
        # read as unsigned, exactly the elements 0 and 1 are at most 1
        k = (elements.view(f"<u{width}") > 1).tobytes().rfind(1) + 1
    if n - k < _MIN_TAIL[width]:
        k = n
    head = _write_elements(elements[:k]) if width == _WIDE else elements[:k]
    if k == n:
        return b"".join((bytes([width]), n.to_bytes(4, "little"), head))
    bits = np.packbits(np.asarray(elements[k:], dtype=np.uint8), bitorder="little")
    return b"".join((bytes([width | _TAIL]), n.to_bytes(4, "little"),
                     (n - k).to_bytes(4, "little"), head, bits))


def _range(s: np.ndarray) -> Tuple[int, int]:
    """The least and greatest of 0 and the elements of s."""
    return int(s.min(initial=0)), int(s.max(initial=0))


class FieldVector:
    """An immutable vector of field elements, held as their signed
    representatives.

    ``signed`` is the read-only array of signed representatives, the v with
    v = x mod P and |v| < P/2: int64 when every element lies in
    (-SMALL, SMALL), and Python ints otherwise.  ``values``, the canonical
    tuple, is derived from it on first use.  An int64 array is copied,
    unless ``copy=False`` hands it over; nothing can change a vector after
    it is made, so ``to_bytes`` encodes it once, and a decoded vector keeps
    the frame it was read from as its encoding.

    Statements and mock transcripts share one codec, a frame: a width
    byte, a little-endian u32 count, then little-endian signed
    representatives at width 1, 2, 4 or 8, or 32-byte canonical elements
    at width 32.  A vector's one frame has the narrowest width that holds
    all its values (1 when empty), so an int64 vector is never at 32.
    When the vector ends with a run of b elements equal to 0 or 1, taken
    whole, and packing them as bits makes the frame shorter
    (width * b > 4 + ceil(b/8)), the frame
    ends with a bit tail instead: the width byte carries the flag 0x80,
    the count is followed by b as a u32, then come the n - b head elements
    at the width and ceil(b/8) bytes of the run's bits, least significant
    bit first, padded with zero bits.  A trainer's transcript, the private
    wires of its witness (Witness.to_bytes), holds U and U' within int8
    and ends with its gadgets' bit wires: at m=1000, 2 000 elements of 1
    byte and 44 000 bits.  A trainer statement holds values up to 8 192 and
    ends with K, so its frame is at int16 with no tail.  Decoding refuses any
    other frame: an unknown width, a count that disagrees with the length,
    a width wider than the values need, an element >= P, a tail longer
    than the count, nonzero padding bits, a tail that is not the whole run
    of bits or saves no bytes, and a frame without a tail whose vector
    calls for one.
    """

    _values: Tuple[int, ...] | None = None
    _bytes: bytes | None = None

    def __init__(self, values, copy: bool = True) -> None:
        int64 = isinstance(values, np.ndarray) and values.dtype == np.int64
        lo, hi = _range(values) if int64 else (0, 0)
        if int64 and -SMALL < lo and hi < SMALL:
            signed = values.copy() if copy else values
        else:
            ints = [to_signed(int(v) % P) for v in values]
            lo, hi = min(0, min(ints, default=0)), max(0, max(ints, default=0))
            signed = np.array(ints, dtype=np.int64 if -SMALL < lo and hi < SMALL else object)
        signed.flags.writeable = False
        self._signed = signed
        # the least and greatest of 0 and the elements, which fix the frame width
        self._range = lo, hi

    @property
    def signed(self) -> np.ndarray:
        return self._signed

    @property
    def values(self) -> Tuple[int, ...]:
        if self._values is None:
            self._values = tuple(v % P for v in self._signed.tolist())
        return self._values

    def __len__(self) -> int:
        return len(self._signed)

    def to_bytes(self) -> bytes:
        if self._bytes is None:
            self._bytes = _frame(self._signed, self._range)
        return self._bytes

    @classmethod
    def _held(cls, signed: np.ndarray, span: Tuple[int, int], frame=None):
        """The vector of the array ``signed``, which it takes over, when
        ``span`` is the least and greatest of 0 and its elements, and
        ``signed`` is int64 exactly when both lie in (-SMALL, SMALL);
        nothing scans the elements.  A ``frame`` read into it is kept as
        its encoding when it is bytes, which nothing can change."""
        vec = cls.__new__(cls)
        signed.flags.writeable = False
        vec._signed, vec._range = signed, span
        if isinstance(frame, bytes):
            vec._bytes = frame
        return vec

    @classmethod
    def _from_frame(cls, data: bytes, what: str):
        """The vector a frame holds, keeping ``data`` as its encoding.  Raises
        ValueError on any frame that is not the encoding of its vector."""
        head, bits, span = _unframe(data, what)
        return cls._held(_joined(head, bits), span, data)


def _unframe(data: bytes, what: str) -> Tuple[np.ndarray, np.ndarray, Tuple[int, int]]:
    """The head elements and the tail bits of a frame, and the least and
    greatest of 0 and its elements.  Raises ValueError on any frame that is
    not the encoding of its vector."""
    if len(data) < 5:
        raise ValueError(f"truncated {what}")
    width, tail = data[0] & ~_TAIL, data[0] & _TAIL
    if width not in (*_INT_WIDTHS, _WIDE):
        raise ValueError(f"unknown {what} width {data[0]}")
    start = 9 if tail else 5
    if len(data) < start:
        raise ValueError(f"truncated {what}")
    n = int.from_bytes(data[1:5], "little")
    b = int.from_bytes(data[5:9], "little") if tail else 0
    if b > n:
        raise ValueError(f"{what} bit tail longer than its count")
    k = n - b
    bits_at = start + width * k
    if len(data) != bits_at + (b + 7) // 8:
        raise ValueError(f"truncated {what}")
    if width == _WIDE:
        half = P // 2  # to_signed, inline: each element is converted once
        head = np.array([v - P if v > half else v
                         for v in _read_elements(memoryview(data)[start:bits_at], what)],
                        dtype=object)
    else:
        head = np.frombuffer(data, dtype=f"<i{width}", count=k, offset=start)
    lo, hi = _range(head)
    packed = np.frombuffer(data, dtype=np.uint8, offset=bits_at)
    if b % 8 and packed[-1] >> b % 8:
        raise ValueError(f"{what} bit tail padding is not zero")
    if tail:
        if b < _MIN_TAIL[width]:
            raise ValueError(f"{what} bit tail makes the frame no shorter")
        if k and head[-1] in (0, 1):
            raise ValueError(f"{what} bit tail is not the whole run of bits")
    elif k >= _MIN_TAIL[width] and all(v in (0, 1) for v in head[k - _MIN_TAIL[width] :]):
        raise ValueError(f"{what} frame lacks its bit tail")
    if hi < 1 and packed.any():
        hi = 1
    if _width(lo, hi) != width:
        raise ValueError(f"{what} is not at the width of its values")
    return head, np.unpackbits(packed, count=b, bitorder="little"), (lo, hi)


def _joined(*parts: np.ndarray) -> np.ndarray:
    """The concatenation of integer arrays: of Python ints when one part
    holds them, and int64 otherwise."""
    return np.concatenate(parts, dtype=object if any(p.dtype == object for p in parts)
                          else np.int64)


# wire 0 of every assignment
_ONE = np.ones(1, dtype=np.int64)


class Witness(FieldVector):
    """Full assignment: leading constant 1, then public, then private wires.

    Its codec is the mock transcript, which carries only what the statement
    does not: ``to_bytes(num_public)`` is the frame of the private wires,
    those after wire 0 and the num_public public wires, and
    ``from_bytes(data, statement)`` is the assignment 1 || statement || the
    wires of that frame.  A verifier that rebuilds the assignment from its
    own statement so holds wire 0 and the public wires by construction.
    The transcript is written at most once per witness, and a decoded
    witness keeps the frame it was read from as its transcript.
    """

    # num_public, and the least and greatest of 0 and the private wires,
    # which fix the transcript's width: recorded when the witness is
    # generated or decoded, and found by one scan at the first encode of a
    # witness made from its values
    _private: Tuple[int, Tuple[int, int]] | None = None

    def statement(self, cs: "ConstraintSystem") -> List[int]:
        return [v % P for v in self._signed[1 : 1 + cs.num_public].tolist()]

    def publishes(self, public: FieldVector) -> bool:
        """Whether wires 1..len(public) hold exactly the elements of ``public``."""
        return bool(np.array_equal(self._signed[1 : 1 + len(public)], public.signed))

    # the transcript codec, as attributes of this class so that the
    # benchmark's trace hooks can time it apart from the statement codec
    def to_bytes(self, num_public: int) -> bytes:
        """The frame of the private wires: every wire after wire 0 and the
        num_public public ones.  A witness has one transcript, so
        ``num_public`` is the same at every call."""
        private = self._signed[1 + num_public :]
        if self._private is None:
            self._private = num_public, _range(private)
        elif self._private[0] != num_public:
            raise ValueError(f"the transcript of this witness follows {self._private[0]} "
                             f"public wires, not {num_public}")
        if self._bytes is None:
            self._bytes = _frame(private, self._private[1])
        return self._bytes

    @classmethod
    def from_bytes(cls, data: bytes, statement: FieldVector) -> "Witness":
        """The assignment 1 || statement || the private wires the frame
        ``data`` holds.  Raises ValueError on any frame that is not the
        encoding of its vector."""
        head, bits, (lo, hi) = _unframe(data, "witness")
        s_lo, s_hi = statement._range
        wit = cls._held(_joined(_ONE, statement.signed, head, bits),
                        (min(lo, s_lo), max(hi, s_hi, 1)), data)
        wit._private = len(statement), (lo, hi)
        return wit


def _canonical_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


# the text of a boolean row and its comma, with a %d slot for each of its
# wire's two places
_BOOLEAN_ROW = b"[[[%%d,1]],[[0,%d],[%%d,1]],[]]," % (P - 1)
# about the most wire slots _write_rows fills in one pass
_CHUNK_SLOTS = 1 << 14


def _row_shape(row) -> Tuple[tuple | None, List[int]]:
    """A row's shape and its wires in the order its text names them: None
    and the wire twice for a boolean row, and otherwise the coefficient
    sequences of A, B and C in wire order and the wires in that order."""
    if isinstance(row, int):
        return None, [row, row]
    shape, wires = [], []
    for lc in row:
        ws = sorted(lc)
        shape.append(tuple(map(lc.__getitem__, ws)))
        wires += ws
    return tuple(shape), wires


def _template(shape: tuple | None) -> bytes:
    """The text of the rows of one shape and their comma, with a %d slot per wire."""
    if shape is None:
        return _BOOLEAN_ROW
    return b"[%b]," % b",".join(
        b"[" + b",".join(b"[%%d,%d]" % (co % P) for co in coeffs) + b"]" for coeffs in shape)


# the bytes of a number in the digit table: its ASCII digits, right-aligned
_DIGIT_BYTES = 8


def _decimals(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The digit table of 0..n-1, n at most 10**8, and the number of digits
    of each.  The table is a uint64 per number whose _DIGIT_BYTES bytes are
    its ASCII digits right-aligned with leading zeros, so that a gather
    from it moves one machine word per number."""
    n = max(n, 1)
    width = len(str(n - 1))
    if width > _DIGIT_BYTES:
        raise CircuitError(f"{n} numbers are too many for the digit table")
    digits = np.full((n, _DIGIT_BYTES), 48, np.uint8)
    for k in range(width):
        # the k-th digit from the right cycles through 0..9, each for 10**k numbers
        cycle = np.repeat(np.arange(48, 58, dtype=np.uint8), 10**k)
        digits[:, _DIGIT_BYTES - 1 - k] = np.resize(cycle, n)
    # 10 numbers have one digit, and 9 * 10**k have k + 1
    counts = np.repeat(np.arange(1, width + 1, dtype=np.uint8),
                       [10, *(9 * 10**k for k in range(1, width))])[:n]
    return digits.view(np.uint64).ravel(), counts


class _Affine:
    """The rows first + j * step for j in 0..n-1 of a matrix of wires, made
    a slice of rows at a time."""

    def __init__(self, first: np.ndarray, step: np.ndarray, n: int):
        self.first, self.step, self.n = first, step, n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.first + np.arange(self.n)[rows, None] * self.step


def _chunks(template: bytes, wires) -> Tuple[int, Iterator[np.ndarray]]:
    """The number of %d slots in template, and the rows of wires as
    matrices of about _CHUNK_SLOTS wires each."""
    slots = template.count(b"%d")
    step = max(1, _CHUNK_SLOTS // max(1, slots))
    return slots, (wires[lo : lo + step] for lo in range(0, len(wires), step))


def _text_length(template: bytes, wires, counts: np.ndarray) -> int:
    """len(template % tuple(row)) summed over the rows of wires."""
    slots, chunks = _chunks(template, wires)
    return len(wires) * (len(template) - 2 * slots) + sum(int(counts[c].sum()) for c in chunks)


def _write_rows(buf: np.ndarray, pos: int, template: bytes, wires,
                decimals: Tuple[np.ndarray, np.ndarray]) -> int:
    """Write ``template % tuple(row)`` for each row of the _Affine
    ``wires`` into the uint8 array buf from pos on, and return where the
    text ends.

    ``template`` has one %d slot per column of ``wires``, and ``decimals``
    is ``_decimals`` of more than the largest wire.  A chunk of rows at a
    time is cut into runs in which each slot has the same number of
    digits, so that every row of a run has the same length and the run is
    one uint8 matrix in buf: its rows are filled with the template's
    literal bytes, and its digit columns then with the digits of the
    run's wires, gathered from the digit table."""
    digits, counts = decimals
    pieces = template.split(b"%d")
    slots, chunks = _chunks(template, wires)
    width = _DIGIT_BYTES
    for chunk in chunks:
        lengths = counts[chunk]
        cuts = (np.flatnonzero((lengths[1:] != lengths[:-1]).any(axis=1)) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(chunk)]):
            nd = lengths[a]
            # the literal bytes of one row, with a 0 byte where each digit goes
            row = np.frombuffer(b"".join(
                p + bytes(k) for p, k in zip(pieces, [*nd.tolist(), 0])), np.uint8)
            run = buf[pos : pos + (b - a) * len(row)].reshape(b - a, len(row))
            run[:] = row
            # a row's digits, slot after slot, are the last nd[s] columns of
            # each slot s's row of the digit table
            ends = np.cumsum(nd, dtype=np.int64)
            slot = np.repeat(np.arange(slots), nd)
            column = slot * width + np.arange(len(slot)) + width - ends[slot]
            words = digits[chunk[a:b]].view(np.uint8).reshape(b - a, slots * width)
            run[:, row == 0] = words[:, column]
            pos += run.size
    return pos


def _text(parts, decimals: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The parts, in order, in one new uint8 array of their length.

    A part is bytes, copied as they are, or a list of (template, _Affine)
    pairs, each written by _write_rows: their rows all end in a comma, and
    the list's last comma becomes the "]" that closes it.  ``decimals`` is
    ``_decimals`` of more than the largest value in the _Affines."""
    size = sum(len(p) if isinstance(p, bytes) else
               sum(_text_length(t, w, decimals[1]) for t, w in p) for p in parts)
    buf, pos = np.empty(size, np.uint8), 0
    for part in parts:
        if isinstance(part, bytes):
            buf[pos : pos + len(part)] = np.frombuffer(part, np.uint8)
            pos += len(part)
            continue
        for template, wires in part:
            pos = _write_rows(buf, pos, template, wires, decimals)
        buf[pos - 1] = ord("]")
    return buf


class ConstraintSystem:
    """Sparse R1CS: constraints (A, B, C) meaning <A,w> * <B,w> = <C,w> mod P.

    Wire 0 is the constant 1.  Public wires occupy 1..num_public, private
    wires follow.  ``ConstraintSystem(kind, m, constants)`` is the whole
    circuit of that kind, the one its builder in BUILDERS returns: its
    kind's layout allocates every wire and returns ``gadgets``, the _Floor
    gadgets whose rows are all the rows, before the constructor returns,
    and then nothing adds a wire or a row.  An unknown kind or an m below
    1 raises CircuitError.  The wires' names are kept as banks
    (``add_wires``), and ``var_names`` derives them when read.  The rows
    of element j (``_element``) give the boolean row
    {i: 1} * {i: 1, 0: -1} = {}, for a Python int i != 0, as the int i, and
    any other row as its (A, B, C) triple with signed int coefficients.
    is_satisfied asks each gadget whether its rows hold (``holds``; see
    the module docstring).
    """

    def __init__(self, kind: str, m: int, constants: CircuitConstants):
        if kind not in _KINDS:
            raise CircuitError(f"unknown circuit kind {kind!r}")
        if m < 1:
            raise CircuitError("m must be >= 1")
        self.kind = kind
        self.m = m
        self.constants = constants
        # the wires' names, one bank per add_wires call: its names of a row
        # of wires, each with a %d slot for the row's index j or none, and
        # its number of rows
        self._banks: List[Tuple[Tuple[str, ...], int]] = [(("one",), 1)]
        self.num_wires = 1
        self.num_public = 0
        self.num_private = 0
        self._digest: str | None = None
        # the gadgets that derive and check a witness: empty only while the
        # kind's layout allocates the wires, and then never changed
        self.gadgets: Tuple["_Floor", ...] = ()
        self.gadgets = tuple(_KINDS[kind][0](self))

    # -- construction ----------------------------------------------------

    def add_wires(self, names: Sequence[str], rows: int = 1, public: bool = False) -> range:
        """Allocate ``rows`` rows of one wire per name, row after row, and
        return their range.

        The wires are one bank of ``var_names``: a name holds a %d slot
        for the row's index j, as "Ra[%d]:b0", or none in a one-row bank,
        as "K[0]"; it is kept as given, and no name is made per wire."""
        if self.gadgets:
            raise CircuitError("a built circuit takes no more wires")
        if public and self.num_private:
            raise CircuitError("public wires must be allocated before private ones")
        names = tuple(names)
        self._banks.append((names, rows))
        wires = range(self.num_wires, self.num_wires + len(names) * rows)
        self.num_wires = wires.stop
        if public:
            self.num_public += len(wires)
        else:
            self.num_private += len(wires)
        return wires

    @property
    def num_constraints(self) -> int:
        """The number of rows, counted without deriving them."""
        return _row_count(self.m, self.constants.eta, len(self.gadgets))

    def _element(self, j: int) -> list:
        """The rows of element j: each gadget's relation row, then each
        gadget's eta booleanity rows."""
        return [*(g.row(j) for g in self.gadgets),
                *chain.from_iterable(g.bits[j] for g in self.gadgets)]

    @property
    def var_names(self) -> List[str]:
        """Every wire's name, in order, as a new list on each read.

        It is parsed from the names text of the digest, written from the
        banks (``_name_banks``); only error messages and tests read it."""
        text = _text([self._name_banks()], _decimals(max(rows for _, rows in self._banks)))
        # the text is "one","Wp[0]",...,"Ru[999]:b21"]
        return text.tobytes().decode("ascii")[1:-2].split('","')

    def _name_banks(self) -> List[Tuple[bytes, "_Affine"]]:
        """Per bank, the text of one row of its names, each quoted and
        followed by a comma, and the _Affine of every row's index j in each
        %d slot."""
        banks = []
        for names, rows in self._banks:
            template = b"".join(b'"%b",' % name.encode() for name in names)
            slots = template.count(b"%d")
            banks.append((template, _Affine(np.zeros(slots, np.int64),
                                            np.ones(slots, np.int64), rows)))
        return banks

    # -- evaluation -------------------------------------------------------

    def _check_length(self, n: int) -> None:
        if n != self.num_wires:
            raise CircuitError(f"witness length {n} != wire count {self.num_wires}")

    def is_satisfied(self, witness: "Witness | Sequence[int]") -> bool:
        """<A,w> * <B,w> == <C,w> mod P for every constraint, and w[0] == 1.

        Each gadget decides its own rows (``holds``), with its floors in
        the dtype that the largest gadget bound, at the span of the whole
        witness read from the range the witness recorded, picks: int64
        while that bound is below 2**62, and Python ints past it.
        """
        self._check_length(len(witness))
        if not isinstance(witness, Witness):
            witness = Witness(witness)
        w = witness.signed
        if w[0] != 1:
            return False
        # the bound exceeds every |element|, so it is below 2**62 only
        # for an int64 witness
        d = _span(self.constants, *witness._range)
        dtype = _int_dtype(max(g.bound(self.constants, d) for g in self.gadgets))
        return all(g.holds(w, dtype) for g in self.gadgets)

    # -- export -----------------------------------------------------------

    def to_json(self) -> str:
        """The canonical circuit JSON, the preimage of ``digest``.

        It is ``json.dumps(d, separators=(",", ":"), sort_keys=True)`` of
        the dict d with keys constants (the CircuitConstants fields),
        constraints, kind, m, n, num_private, num_public and variables,
        where n, the number of aggregated weights, is 1 in every circuit.
        ``constraints`` lists [A, B, C] per constraint, and each linear
        combination is a list of [wire, coefficient mod P] pairs sorted by
        wire; ``variables`` lists ``var_names``.  The text is ASCII; see
        ``_json_bytes`` for how it is written.
        """
        return self._json_bytes().tobytes().decode("ascii")

    def _json_bytes(self) -> np.ndarray:
        """The bytes of ``to_json``, written into one uint8 array of their
        length.

        Only the small header and the keys between the two lists go
        through ``json.dumps``.  _write_rows writes both lists into the
        array (``_text``): the constraints from ``element_template``, as
        the text of element 0's rows with a %d slot per wire
        (``_template``) filled with each element's wires, and the
        variables bank by bank (``_name_banks``), as the text of a row of
        names filled with each row's index.  The builders' wire names need
        no escape in JSON.  The array is the only object as large as the
        text, and is the one object ``digest`` hashes.
        """
        head = b'{"constants":%s,"constraints":[' % _canonical_json(
            asdict(self.constants)).encode()
        # the keys between the lists, without the braces
        middle = b',%s,"variables":[' % _canonical_json({
            "kind": self.kind,
            "m": self.m,
            "n": 1,
            "num_public": self.num_public,
            "num_private": self.num_private,
        }).encode()[1:-1]
        shapes, wires = self.element_template()
        rows = [(b"".join(map(_template, shapes)), wires)]
        return _text([head, rows, middle, self._name_banks(), b"}"], _decimals(self.num_wires))

    def element_template(self) -> Tuple[List["tuple | None"], _Affine]:
        """Element 0's rows as their shapes, and the wires of every element.

        Row r of element j is row j * R + r of the circuit, R the rows per
        element.  It has the shape (``_row_shape``) of element 0's row r,
        the same coefficients in every element, and names wires affine in
        j, since each gadget places element j's wires at a fixed stride:
        the _Affine has a row per element and a column per wire slot of
        element 0's rows, in the order the shapes name them, and its
        column k is element 0's wire plus j times its step to element 1.
        The step is 0 on a wire every element shares, as wire 0 and K.
        The digest writes its text, and snark set-up fills its key tables,
        from these.
        """
        shapes = [_row_shape(row) for row in self._element(0)]
        first = np.array([i for _, ws in shapes for i in ws])
        second = np.array([i for row in self._element(min(1, self.m - 1))
                           for i in _row_shape(row)[1]])
        return [shape for shape, _ in shapes], _Affine(first, second - first, self.m)

    def spec(self) -> bytes:
        """The canonical JSON of kind, m and constants, the spec from_spec
        reads: all a key carries of its circuit."""
        return _canonical_json(
            {"kind": self.kind, "m": self.m, "constants": asdict(self.constants)}).encode()

    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self._json_bytes()).hexdigest()
        return self._digest


# -- builders --------------------------------------------------------------


def _bank(cs: ConstraintSystem, name: str, m: int, public: bool = False) -> range:
    """Allocate wires {name}[0..m), a contiguous range."""
    return cs.add_wires([f"{name}[%d]"], m, public)


class _Floor:
    """The floor relation a * b = 2**eta * (out_j - z) + R_j, 0 <= R_j < 2**eta.

    One gadget covers one output bank ``out`` of a circuit and owns the
    wire range ``wires``: ``out`` when it is given as a name, a private
    bank allocated here and derived as (floor >> eta) + z, and ``bits[j]``,
    the eta wires {rem}[j]:b{t} of element j, all in one stretch, that
    recompose R_j and range-check it through eta booleanity rows.  Element
    j's relation row (``row``) and bits name the wires of element 0 plus j
    times a fixed stride per wire, which the digest's element template
    relies on.  A subclass names the factors a and b of element j
    (``factors``), writes the floor term of its relation (``formula``),
    reads every element's floor term from the wires before its own
    (``floor``), and bounds that term and R (``bound``).
    """

    def __init__(self, cs: ConstraintSystem, rem: str, out: range | str, z: int):
        self.c, self.z, eta, first = cs.constants, z, cs.constants.eta, cs.num_wires
        self.private_out = isinstance(out, str)
        self.out = _bank(cs, out, cs.m) if self.private_out else out
        bits = cs.add_wires([f"{rem}[%d]:b{t}" for t in range(eta)], cs.m)
        self.bits = [bits[j * eta : (j + 1) * eta] for j in range(cs.m)]
        self._bank = slice(bits.start, bits.stop)
        self.wires = range(first, cs.num_wires)
        self._powers = [1 << t for t in range(eta)]
        # the same powers as an array that recomposes R from a bank's bits
        self._places = np.array(self._powers, dtype=_int_dtype(1 << eta))

    def row(self, j: int) -> Tuple[LinComb, LinComb, LinComb]:
        """The relation row of element j."""
        two_eta = 1 << self.c.eta
        c: LinComb = {self.out[j]: two_eta, 0: -two_eta * self.z}
        c.update(zip(self.bits[j], self._powers))
        return (*self.factors(j), c)

    def fill(self, w: np.ndarray, dtype) -> Tuple[int, int]:
        """Write this gadget's wires of the witness w: a private output, and
        the eta bits of every R = floor - 2**eta * (out - z), which lies in
        [0, 2**eta) exactly when out is the honest quantized output
        (floor >> eta) + z.  The floors are computed in ``dtype``, which
        must be exact up to ``bound`` at the span of the operands.  Returns
        the least and greatest of 0 and the private outputs it wrote."""
        c, floor, out = self.c, self.floor(w, dtype), slice(self.out.start, self.out.stop)
        lo = hi = 0
        if self.private_out:
            derived = (floor >> c.eta) + self.z
            lo, hi = int(derived.min()), int(derived.max())
            if lo < c.q_min or hi > c.q_max:
                raise InconsistentStatementError("inconsistent statement")
            w[out] = derived
        r = self._remainder(w, floor)
        if not ((r >= 0) & (r < (1 << c.eta))).all():
            raise InconsistentStatementError("inconsistent statement")
        w[self._bank] = _bit_rows(r, c.eta)
        return min(lo, 0), max(hi, 0)

    def holds(self, w: np.ndarray, dtype) -> bool:
        """Whether this gadget's rows hold mod P for the witness w of signed
        representatives: its booleanity rows, every bit is 0 or 1, and then
        its relation rows, every R = floor - 2**eta * (out - z), computed
        in ``dtype``, minus sum_t 2**t * bit_t is 0 mod P.  In int64, which
        must be exact up to ``bound`` at the span of w, that difference is
        below P in size and the test is that it is 0; in Python ints it is
        the rows' own test."""
        try:
            bank = w[self._bank].astype(np.int64, copy=False)
        except OverflowError:  # an element past int64 is no bit
            return False
        # as uint64 a negative bit is at least 2**63
        if bank.view(np.uint64).max() > 1:
            return False
        r = self._remainder(w, self.floor(w, dtype))
        recomposed = bank.reshape(-1, self.c.eta) @ self._places
        if dtype is object:
            return not ((r - recomposed) % P).any()
        return np.array_equal(recomposed, r)

    def _remainder(self, w: np.ndarray, floor: np.ndarray) -> np.ndarray:
        """Every R = floor - 2**eta * (out - z), in the dtype of floor."""
        out = w[self.out.start : self.out.stop].astype(floor.dtype, copy=False)
        return floor - (1 << self.c.eta) * (out - self.z)


class _Aggregation(_Floor):
    """U' = K * U: ca * (K - z_K) times (U_j - z_U)."""

    def __init__(self, cs: ConstraintSystem, k: int, u: range, out: range | str):
        cs.constants.require_aggregation_exact()
        self.k, self.u = k, u
        super().__init__(cs, "Ra", out, cs.constants.z_up)

    def factors(self, j: int) -> Tuple[LinComb, LinComb]:
        ca = 1 << self.c.agg_shift
        return {self.k: ca, 0: -ca * self.c.z_k}, {self.u[j]: 1, 0: -self.c.z_u}

    def floor(self, w: np.ndarray, dtype) -> np.ndarray:
        return self.formula(self.c, int(w[self.k]), w[self.u.start : self.u.stop], dtype)

    @staticmethod
    def formula(c: CircuitConstants, k: int, u: np.ndarray, dtype) -> np.ndarray:
        """ca * (K - z_K)(U_j - z_U) for every j, in ``dtype``."""
        return ((1 << c.agg_shift) * (k - c.z_k)) * (u.astype(dtype, copy=False) - c.z_u)

    @staticmethod
    def bound(c: CircuitConstants, d: int) -> int:
        """Above |floor| and every |R| when each |v - z| is at most d."""
        return (1 << c.agg_shift) * d * d + (1 << c.eta) * (d + 1)


class _Update(_Floor):
    """W' = W + U': cw * (W_j - z_W) + cu * (U'_j - z_U') times 1."""

    def __init__(self, cs: ConstraintSystem, w: range, up: range, out: range):
        cs.constants.require_update_exact()
        self.w, self.up = w, up
        super().__init__(cs, "Ru", out, cs.constants.z_wp)

    def factors(self, j: int) -> Tuple[LinComb, LinComb]:
        c = self.c
        cw, cu = 1 << c.upd_w_shift, 1 << c.upd_u_shift
        return {self.w[j]: cw, self.up[j]: cu, 0: -(cw * c.z_w + cu * c.z_up)}, {0: 1}

    def floor(self, w: np.ndarray, dtype) -> np.ndarray:
        return self.formula(self.c, w[self.w.start : self.w.stop],
                            w[self.up.start : self.up.stop], dtype)

    @staticmethod
    def formula(c: CircuitConstants, w: np.ndarray, up: np.ndarray, dtype) -> np.ndarray:
        """cw * (W_j - z_W) + cu * (U'_j - z_U') for every j, in ``dtype``."""
        cw, cu = 1 << c.upd_w_shift, 1 << c.upd_u_shift
        return (cw * (w.astype(dtype, copy=False) - c.z_w)
                + cu * (up.astype(dtype, copy=False) - c.z_up))

    @staticmethod
    def bound(c: CircuitConstants, d: int) -> int:
        """Above |floor| and every |R| when each |v - z| is at most d."""
        return ((1 << c.upd_w_shift) + (1 << c.upd_u_shift)) * d + (1 << c.eta) * (d + 1)


def _aggregation_layout(cs: ConstraintSystem) -> List[_Floor]:
    up = _bank(cs, "Up", cs.m, public=True)
    k = cs.add_wires(["K[0]"], public=True).start
    return [_Aggregation(cs, k, _bank(cs, "U[0]", cs.m), up)]


def _update_layout(cs: ConstraintSystem) -> List[_Floor]:
    wp, ww = _bank(cs, "Wp", cs.m, public=True), _bank(cs, "W", cs.m, public=True)
    return [_Update(cs, ww, _bank(cs, "Up", cs.m), wp)]


def _composed_layout(cs: ConstraintSystem) -> List[_Floor]:
    wp, ww = _bank(cs, "Wp", cs.m, public=True), _bank(cs, "W", cs.m, public=True)
    k = cs.add_wires(["K[0]"], public=True).start
    agg = _Aggregation(cs, k, _bank(cs, "U", cs.m), "Up")
    return [agg, _Update(cs, ww, agg.out, wp)]


# the circuit kinds: per kind, the function that allocates a new circuit's
# wires and returns its gadgets, whose rows are all its rows, element by
# element (ConstraintSystem._element), and the number of those gadgets
_KINDS = {"aggregation": (_aggregation_layout, 1), "update": (_update_layout, 1),
          "composed": (_composed_layout, 2)}

# the builder of each kind, ConstraintSystem(kind, m, constants)
BUILDERS = {kind: partial(ConstraintSystem, kind) for kind in _KINDS}


def build_aggregation_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    """Circuit for U' = K * U over quantized integers.

    Public wires: U'[0..m), K[0].  Private wires: U[0][j] and eta
    remainder bits per output element.
    """
    return ConstraintSystem("aggregation", m, constants)


def build_update_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    """Circuit for W' = W + U' over quantized integers.

    Public wires: W'[0..m), W[0..m).  Private wires: U'[j] and eta
    remainder bits per element.
    """
    return ConstraintSystem("update", m, constants)


def build_protocol_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    """Aggregation feeding update with U' kept private: W' = W + K*U.

    This is the relation attached to protocol messages.  Public wires in
    statement order: W'[0..m), W[0..m), K.  Private wires: U[j], then the
    aggregation's U'[j] and remainder bits, then the update's bits.
    """
    return ConstraintSystem("composed", m, constants)


_CONSTANT_NAMES = {f.name for f in fields(CircuitConstants)}


def _row_count(m: int, eta: int, gadgets: int) -> int:
    """The rows of a built circuit: each gadget writes one relation row and
    eta booleanity rows per element."""
    return m * (1 + eta) * gadgets


def from_spec(spec) -> ConstraintSystem:
    """The circuit of a decoded spec {"kind": ..., "m": ..., "constants": {...}}.

    Missing keys mean "composed", 1 and the default constants.  m and every
    constant must be ints, not bools or floats.  A spec whose builder would
    write more than MAX_CONSTRAINTS rows is refused before anything is
    built.  Every failure is a CircuitError.
    """
    if not isinstance(spec, dict) or not set(spec) <= {"kind", "m", "constants"}:
        raise CircuitError("a circuit spec is an object with keys kind, m and constants")
    kind, m, constants = spec.get("kind", "composed"), spec.get("m", 1), spec.get("constants", {})
    if not isinstance(kind, str) or kind not in BUILDERS:
        raise CircuitError(f"unknown circuit kind {kind!r}")
    if not isinstance(constants, dict) or not set(constants) <= _CONSTANT_NAMES:
        raise CircuitError(f"unknown circuit constants in {constants!r}")
    if not all(type(v) is int for v in (m, *constants.values())):
        raise CircuitError("circuit m and constants must be integers")
    c = CircuitConstants(**constants)
    if _row_count(m, c.eta, _KINDS[kind][1]) > MAX_CONSTRAINTS:
        raise CircuitError(f"m = {m} gives more than {MAX_CONSTRAINTS} constraints")
    return BUILDERS[kind](m, c)


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


def _span(c: CircuitConstants, lo: int = 0, hi: int = 0) -> int:
    """Largest |v - z| for any zero-point z and any v in the quantized
    range or in [lo, hi]."""
    top = max(abs(c.q_min), abs(c.q_max), -lo, hi)
    return top + max(abs(z) for z in (c.z_k, c.z_u, c.z_up, c.z_w, c.z_wp))


def _operand_span(c: CircuitConstants, *operands: np.ndarray) -> int:
    """_span over the elements of every operand."""
    lows, highs = zip(*map(_range, operands))
    return _span(c, min(lows), max(highs))


def aggregation_floor(k_q: int, u_q, c: CircuitConstants) -> np.ndarray:
    """ca * (K - z_K)(U_j - z_U) for every output j, exactly.

    K is one integer and U a vector.  Its floor division by 2**eta gives
    U'_j - z_U'.
    """
    c.require_aggregation_exact()
    k, u = int(k_q), _ints(u_q)
    d = _operand_span(c, u, _ints([k]))
    return _Aggregation.formula(c, k, u, _int_dtype(_Aggregation.bound(c, d)))


def update_floor(w_q, up_q, c: CircuitConstants) -> np.ndarray:
    """cw * (W_j - z_W) + cu * (U'_j - z_U') for every element j, exactly.

    Its floor division by 2**eta gives W'_j - z_W'.
    """
    c.require_update_exact()
    w, up = _ints(w_q), _ints(up_q)
    if w.shape != up.shape:
        raise CircuitError(f"W has shape {w.shape} but U' has {up.shape}")
    return _Update.formula(c, w, up, _int_dtype(_Update.bound(c, _operand_span(c, w, up))))


def quantized_aggregate(k_q: int, u_q: Sequence[int], c: CircuitConstants) -> np.ndarray:
    """Exact integer computation of U'_j = quantize(deq(K) * deq(U_j)), as
    an array of the floor's dtype."""
    return (aggregation_floor(k_q, u_q, c) >> c.eta) + c.z_up


def quantized_update(w_q: Sequence[int], up_q: Sequence[int], c: CircuitConstants) -> np.ndarray:
    """Exact integer computation of W'_j = quantize(deq(W_j) + deq(U'_j)), as
    an array of the floor's dtype."""
    return (update_floor(w_q, up_q, c) >> c.eta) + c.z_wp


# -- witness generation ------------------------------------------------------


def _check_range(cs: ConstraintSystem, vals: np.ndarray, first: int) -> Tuple[int, int]:
    """Raise unless every vals[i], the value of wire first + i, is in the
    quantized range; return the least and greatest of 0 and vals."""
    if not len(vals):
        return 0, 0
    c = cs.constants
    lo, hi = int(vals.min()), int(vals.max())
    if lo < c.q_min or hi > c.q_max:
        i, bad = next((i, v) for i, v in enumerate(vals.tolist()) if not c.q_min <= v <= c.q_max)
        raise CircuitError(f"{cs.var_names[first + i]} value {bad} outside quantized range")
    return min(lo, 0), max(hi, 0)


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
    """Compute the full assignment, deriving private outputs and remainder bits.

    public_values follows the circuit's statement order; private_values
    supplies only the free private inputs (U for aggregation and the
    composed circuit, U' for the update circuit), whose wires follow the
    public ones.  Every value must lie in the quantized range.  Each of the
    circuit's gadgets then fills in its own wires; a remainder outside
    [0, 2**eta) means the public outputs were not produced by honest
    quantization of these inputs and raises InconsistentStatementError.
    """
    # accept either signed quantized integers or canonical field elements
    pub, priv = (v.signed if isinstance(v, FieldVector) else FieldVector(v).signed
                 for v in (public_values, private_values))
    free = cs.gadgets[0].wires.start - 1 - cs.num_public
    if len(pub) != cs.num_public:
        raise CircuitError(f"expected {cs.num_public} public values, got {len(pub)}")
    if len(priv) != free:
        raise CircuitError(f"expected {free} private values, got {len(priv)}")
    pub_lo, pub_hi = _check_range(cs, pub, 1)
    lo, hi = _check_range(cs, priv, 1 + len(pub))
    # every input, and every private output fill derives, lies in the
    # quantized range: within (-SMALL, SMALL) an int64 witness holds them
    c = cs.constants
    small = -SMALL < c.q_min and c.q_max < SMALL
    w = np.zeros(cs.num_wires, dtype=np.int64 if small else object)
    w[0] = 1
    w[1 : 1 + len(pub)] = pub
    w[1 + len(pub) : 1 + len(pub) + len(priv)] = priv
    # the span of the range itself covers each floor
    d = _span(c)
    for g in cs.gadgets:
        out_lo, out_hi = g.fill(w, _int_dtype(g.bound(c, d)))
        lo, hi = min(lo, out_lo), max(hi, out_hi)
    if not small:
        return Witness(w, copy=False)  # nothing else holds w
    # the other wires are wire 0, which is 1, and bits, each 0 or 1; the
    # private wires' span counts 1 for the bits unread, which gives the
    # width that 0 would; nothing else holds w
    wit = Witness._held(w, (min(lo, pub_lo), max(hi, pub_hi, 1)))
    wit._private = cs.num_public, (lo, max(hi, 1))
    return wit
