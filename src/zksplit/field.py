"""Prime field arithmetic helpers.

All circuits operate over the 254-bit scalar field of the BN254 pairing
curve, the field most commonly used by preprocessing SNARK deployments.
Elements are plain Python ints kept in canonical form [0, P); vectors of
them, and their wire encoding, are circuit.FieldVector.
"""

from __future__ import annotations

# BN254 (alt_bn128) scalar field modulus.
P = 21888242871839275222246405745257275088548364400416034343698204186575808495617


def to_signed(v: int) -> int:
    """Map a canonical element to the signed representative in (-P/2, P/2]."""
    return v - P if v > P // 2 else v


def inv(a: int) -> int:
    if a % P == 0:
        raise ZeroDivisionError("no inverse for zero")
    return pow(a, P - 2, P)

