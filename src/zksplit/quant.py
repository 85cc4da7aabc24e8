"""Calibrated fixed-point quantization with power-of-two scales.

Maps real training values x in [a, b] to integers q in [q_min, q_max] via

    q = floor(x / s) + z        (quantize)
    x = s * (q - z)             (dequantize)

Scales are restricted to exact powers of two (s = 2**-scale_exp) so that
the circuit-side ratio constants between scales are exact integer powers
of two.  Because of that restriction, dequantization is exact in 64-bit
floats: an integer up to 2**53 times a power of two is representable.

quantize_array and dequantize_array are the one implementation of both
maps; quantize and dequantize apply them to a single element.

Overflow is an error, never a clamp: a silently clamped value would make
an honestly generated witness violate its circuit constraints.  Every
input outside the range, nan and ints past the float or int64 range
included, raises OverflowError_ when quantized, and every one that is not
an integer in the range raises QuantError when dequantized.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# 16-bit budget for weights/gradients; keeps product magnitudes far below
# the proof field modulus even at cut width 1000.
DEFAULT_Q_MIN = -32767
DEFAULT_Q_MAX = 32767


class QuantError(ValueError):
    """Base class for quantization failures."""


class CalibrationError(QuantError):
    pass


class OverflowError_(QuantError):
    """Raised when a value cannot be represented without clamping."""


@dataclass(frozen=True)
class QuantParams:
    """Calibrated quantization parameters.

    scale_exp is the exponent f with scale s = 2**-f.  The effective real
    range [s*(q_min - z), s*(q_max - z)] always covers the [a, b] range
    the parameters were calibrated for.
    """

    scale_exp: int
    zero_point: int
    eps: float
    q_min: int
    q_max: int

    def __post_init__(self) -> None:
        if self.q_min >= self.q_max:
            raise CalibrationError("q_min must be below q_max")
        if not self.q_min <= self.zero_point <= self.q_max:
            raise CalibrationError("zero_point outside integer range")
        if self.eps < 0:
            raise CalibrationError("eps must be non-negative")

    @property
    def scale(self) -> float:
        return 2.0 ** (-self.scale_exp)

    @property
    def effective_lo(self) -> float:
        return self.scale * (self.q_min - self.zero_point)

    @property
    def effective_hi(self) -> float:
        return self.scale * (self.q_max - self.zero_point)

    def to_dict(self) -> dict:
        return {
            "scale_exp": self.scale_exp,
            "zero_point": self.zero_point,
            "eps": self.eps,
            "q_min": self.q_min,
            "q_max": self.q_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QuantParams":
        return cls(
            scale_exp=int(d["scale_exp"]),
            zero_point=int(d["zero_point"]),
            eps=float(d["eps"]),
            q_min=int(d["q_min"]),
            q_max=int(d["q_max"]),
        )


def calibrate(
    a: float,
    b: float,
    eps: float = 0.0,
    q_min: int = DEFAULT_Q_MIN,
    q_max: int = DEFAULT_Q_MAX,
    min_scale_exp: int = 0,
) -> QuantParams:
    """Solve for (s, z) covering [a, b], then integerize.

    The exact two-equation system

        a - eps = s * (q_min - z)
        b + eps = s * (q_max - z)

    gives s0 and z0.  s is then rounded down to the nearest power of two
    and z to the nearest integer.  Rounding s down shrinks the covered
    range, so coverage of [a, b] is re-checked and the scale doubled
    (scale_exp decremented) until s*(q_min - z) <= a and
    s*(q_max - z) >= b.  Widening below min_scale_exp means the requested
    range cannot fit the integer budget.
    """
    if not (a < b):
        raise CalibrationError("empty calibration range")
    if eps < 0:
        raise CalibrationError("eps must be non-negative")
    if q_min >= q_max:
        raise CalibrationError("q_min must be below q_max")

    s0 = (b - a + 2.0 * eps) / (q_max - q_min)
    # a scale below the smallest normal float would make 2.0 ** scale_exp overflow
    if not sys.float_info.min <= s0 < math.inf:
        raise CalibrationError("calibration range too narrow or too wide for a float scale")
    z0 = q_min - (a - eps) / s0
    z = round(max(q_min, min(q_max, z0)))

    # Largest power of two <= s0: frexp gives s0 = frac * 2**e with
    # frac in [0.5, 1), so that power is always 2**(e-1).
    _, e = math.frexp(s0)
    scale_exp = 1 - e

    while True:
        if scale_exp < min_scale_exp:
            raise CalibrationError("range exceeds bit budget")
        s = 2.0 ** (-scale_exp)
        if s * (q_min - z) <= a and s * (q_max - z) >= b:
            break
        scale_exp -= 1

    return QuantParams(scale_exp=scale_exp, zero_point=z, eps=eps, q_min=q_min, q_max=q_max)


def _real_range(p: QuantParams):
    """[lo, hi), the reals x with q_min <= floor(x / s) + z <= q_max.

    Both ends are small integers times a power of two, so they are exact,
    and the range is checked before anything is scaled or cast.
    """
    return p.scale * (p.q_min - p.zero_point), p.scale * (p.q_max - p.zero_point + 1)


def quantize(x: float, p: QuantParams) -> int:
    """quantize_array of the one element x."""
    return int(quantize_array([x], p)[0])


def dequantize(q: int, p: QuantParams) -> float:
    """dequantize_array of the one element q."""
    return float(dequantize_array([q], p)[0])


def quantize_array(x: np.ndarray, p: QuantParams) -> np.ndarray:
    """q = floor(x / s) + z for every element, as int64; raises
    OverflowError_ unless every q lies in [q_min, q_max], instead of
    clamping, also for nan and for ints past the float range."""
    try:
        x = np.asarray(x, dtype=np.float64)
    except OverflowError:
        raise OverflowError_("quantization overflow") from None
    lo, hi = _real_range(p)
    if not (x.min(initial=lo) >= lo and x.max(initial=lo) < hi):  # nan propagates
        raise OverflowError_("quantization overflow")
    scaled = x * (2.0 ** p.scale_exp)
    q = np.floor(scaled).astype(np.int64)
    # with s > 1 a negative subnormal x can scale to -0.0, whose floor is 0, not -1
    q -= (scaled == 0) & (x < 0)
    return q + p.zero_point


def dequantize_array(q: np.ndarray, p: QuantParams) -> np.ndarray:
    """x = s * (q - z) for every element, exact for the supported bit
    budget; raises QuantError unless every q is an integer in
    [q_min, q_max], also for ints past the int64 range."""
    q = np.asarray(q)
    if q.size and q.dtype.kind not in "iuO":  # a float is no quantized value, however integral
        raise QuantError("invalid quantized value")
    try:
        q = q.astype(np.int64, copy=False)
    except (OverflowError, TypeError):
        raise QuantError("invalid quantized value") from None
    if q.size and (q.min() < p.q_min or q.max() > p.q_max):
        raise QuantError("invalid quantized value")
    return (q - p.zero_point).astype(np.float64) * (2.0 ** (-p.scale_exp))
