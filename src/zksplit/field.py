"""Prime field arithmetic helpers.

All circuits operate over the 254-bit scalar field of the BN254 pairing
curve, the field most commonly used by preprocessing SNARK deployments.
Elements are plain Python ints kept in canonical form [0, P); vectors of
them, and their wire encoding, are circuit.FieldVector.
"""

from __future__ import annotations

from typing import Iterable, List

# BN254 (alt_bn128) scalar field modulus.
P = 21888242871839275222246405745257275088548364400416034343698204186575808495617


def to_signed(v: int) -> int:
    """Map a canonical element to the signed representative in (-P/2, P/2]."""
    return v - P if v > P // 2 else v


def inv(a: int) -> int:
    if a % P == 0:
        raise ZeroDivisionError("no inverse for zero")
    return pow(a, P - 2, P)


def batch_inv(values: Iterable[int]) -> List[int]:
    """Montgomery batch inversion: one field inversion for the whole list."""
    vals = [v % P for v in values]
    n = len(vals)
    prefix = [1] * (n + 1)
    for i, v in enumerate(vals):
        if v == 0:
            raise ZeroDivisionError("no inverse for zero")
        prefix[i + 1] = prefix[i] * v % P
    acc = inv(prefix[n])
    out = [0] * n
    for i in range(n - 1, -1, -1):
        out[i] = prefix[i] * acc % P
        acc = acc * vals[i] % P
    return out
