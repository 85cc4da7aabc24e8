"""Proving backend contract: Setup / Prove / Verify over a constraint system.

Two interchangeable backends implement the contract:

  mock   -- transparent constraint re-checking.  The proof is a transcript
            of the full witness and verification replays every constraint.
            Deliberately NOT zero-knowledge and labeled test-only; it is
            the cryptography-free oracle used in CI and benchmarks.
  snark  -- preprocessing argument with constant-size proofs (snark.py).

Binary encodings share one frame:

    version byte || backend id byte || circuit digest (32 bytes) || payload

and every proof payload starts with the 32-byte statement digest, computed
as SHA-256 of the canonical statement encoding.  Statements and witnesses
(the mock proof body) share one element codec, circuit.FieldVector: a
little-endian u32 count followed by 32-byte little-endian field elements,
held in memory as int64 signed representatives whenever they are small;
snark keys and proof bodies write their elements without the count.
Statements and witnesses are immutable, so each is encoded at most once
(a decoded one keeps the frame it came from), and a statement's digest is
computed once too.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
import zlib
from dataclasses import dataclass
from typing import Dict

from .circuit import ConstraintSystem, FieldVector, Witness

WIRE_VERSION = 1
BACKEND_IDS = {"mock": 1, "snark": 2}
_ID_TO_NAME = {v: k for k, v in BACKEND_IDS.items()}


class Verdict(enum.Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


class BackendError(Exception):
    pass


class UnsatisfiedRelationError(BackendError):
    """Raised by prove when the witness does not satisfy the relation."""


class DecodeError(BackendError):
    pass


def _frame_parts(backend: str, circuit_digest: str, *payload: bytes) -> tuple:
    """The pieces whose concatenation is the frame carrying ``payload``."""
    return (bytes([WIRE_VERSION, BACKEND_IDS[backend]]), bytes.fromhex(circuit_digest), *payload)


def encode_frame(backend: str, circuit_digest: str, *payload: bytes) -> bytes:
    """The frame carrying the concatenation of ``payload``, built in one copy."""
    return b"".join(_frame_parts(backend, circuit_digest, *payload))


def decode_frame(data: bytes) -> tuple:
    """Returns (backend_name, circuit_digest_hex, payload)."""
    if len(data) < 34:
        raise DecodeError("truncated frame")
    if data[0] != WIRE_VERSION:
        raise DecodeError(f"version mismatch: {data[0]} != {WIRE_VERSION}")
    backend = _ID_TO_NAME.get(data[1])
    if backend is None:
        raise DecodeError(f"unknown backend id {data[1]}")
    return backend, data[2:34].hex(), data[34:]


class Statement(FieldVector):
    """Public field elements in circuit order.

    Immutable like every FieldVector, so its digest, like its encoding, is
    computed once and cached.  ``from_bytes`` rejects elements >= P instead
    of reducing them, so decoding and encoding round-trip.
    """

    _digest: str | None = None

    def __eq__(self, other) -> bool:
        return isinstance(other, Statement) and self.to_bytes() == other.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Statement":
        try:
            return cls._from_frame(data, "statement")
        except ValueError as e:
            raise DecodeError(str(e)) from None

    def digest(self) -> str:
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_bytes()).hexdigest()
        return self._digest


@dataclass
class Proof:
    """Opaque proof plus routing metadata and prover telemetry."""

    backend: str
    circuit_digest: str
    statement_digest: str
    body: bytes
    prove_time: float = 0.0

    def _parts(self) -> tuple:
        """The pieces of ``to_bytes()``, which a larger encoding can join
        without a copy of the whole frame."""
        return _frame_parts(self.backend, self.circuit_digest,
                            bytes.fromhex(self.statement_digest), self.body)

    def to_bytes(self) -> bytes:
        return b"".join(self._parts())

    @classmethod
    def from_bytes(cls, data: bytes) -> "Proof":
        backend, digest, payload = decode_frame(data)
        if len(payload) < 32:
            raise DecodeError("truncated proof")
        return cls(
            backend=backend,
            circuit_digest=digest,
            statement_digest=payload[:32].hex(),
            body=payload[32:],
        )

    @property
    def size_bytes(self) -> int:
        """len(to_bytes()) without building the frame: version and backend
        bytes, circuit digest, statement digest, body."""
        return 2 + 32 + 32 + len(self.body)


@dataclass
class KeyPair:
    backend: str
    proving_key: "object"
    verifying_key: "object"


def _pack_circuit(cs: ConstraintSystem) -> bytes:
    return zlib.compress(cs.to_json().encode(), level=6)


def _unpack_circuit(payload: bytes) -> ConstraintSystem:
    """The circuit ``_pack_circuit`` wrote as the whole of ``payload``."""
    inflate = zlib.decompressobj()
    try:
        text = inflate.decompress(payload)
        if not inflate.eof or inflate.unused_data:
            raise DecodeError("bad circuit payload: trailing or missing bytes")
        return ConstraintSystem.from_json_dict(json.loads(text))
    except (zlib.error, ValueError, OverflowError, KeyError, TypeError) as e:
        # ValueError covers CircuitError and the JSON and UTF-8 decode errors
        raise DecodeError(f"bad circuit payload: {e}") from None


@dataclass
class MockProvingKey:
    cs: ConstraintSystem

    @property
    def circuit_digest(self) -> str:
        return self.cs.digest()

    @property
    def num_public(self) -> int:
        return self.cs.num_public

    def to_bytes(self) -> bytes:
        return encode_frame("mock", self.circuit_digest, _pack_circuit(self.cs))

    @classmethod
    def from_payload(cls, payload: bytes) -> "MockProvingKey":
        return cls(cs=_unpack_circuit(payload))


class MockVerifyingKey(MockProvingKey):
    """The same circuit, held by the Verifying Entity."""


class Backend:
    """Interface shared by all proving backends."""

    name = "?"

    @classmethod
    def available(cls) -> bool:
        return True

    def setup(self, cs: ConstraintSystem, seed: bytes) -> KeyPair:
        raise NotImplementedError

    def prove(self, pk, statement: Statement, witness: Witness) -> Proof:
        raise NotImplementedError

    def verify(self, vk, statement: Statement, proof: Proof) -> Verdict:
        raise NotImplementedError

    def _addressed(self, vk, statement: Statement, proof: Proof) -> bool:
        """The checks every verify makes first: the proof is this backend's,
        made for the key's circuit and for this statement, and the statement
        has the circuit's number of public values."""
        return (proof.backend == self.name
                and proof.circuit_digest == vk.circuit_digest
                and proof.statement_digest == statement.digest()
                and len(statement) == vk.num_public)

    @staticmethod
    def _require_satisfied(cs: ConstraintSystem, statement: Statement, witness: Witness) -> None:
        """Refuse to prove unless the witness publishes the statement and satisfies cs."""
        if (len(witness) != cs.num_wires or len(statement) != cs.num_public
                or not witness.publishes(statement) or not cs.is_satisfied(witness)):
            raise UnsatisfiedRelationError("unsatisfied relation")


class MockBackend(Backend):
    """Replays every constraint against the witness transcript in the proof.

    Test-only: the proof leaks the entire witness by construction.
    """

    name = "mock"

    def setup(self, cs: ConstraintSystem, seed: bytes = b"") -> KeyPair:
        return KeyPair(
            backend="mock",
            proving_key=MockProvingKey(cs),
            verifying_key=MockVerifyingKey(cs),
        )

    def prove(self, pk: MockProvingKey, statement: Statement, witness: Witness) -> Proof:
        t0 = time.perf_counter()
        cs = pk.cs
        self._require_satisfied(cs, statement, witness)
        return Proof(
            backend="mock",
            circuit_digest=cs.digest(),
            statement_digest=statement.digest(),
            body=witness.to_bytes(),
            prove_time=time.perf_counter() - t0,
        )

    def verify(self, vk: MockVerifyingKey, statement: Statement, proof: Proof) -> Verdict:
        try:
            if not self._addressed(vk, statement, proof):
                return Verdict.REJECT
            cs = vk.cs
            witness = Witness.from_bytes(proof.body)
            if len(witness) != cs.num_wires or not witness.publishes(statement):
                return Verdict.REJECT
            return Verdict.ACCEPT if cs.is_satisfied(witness) else Verdict.REJECT
        except (ValueError, DecodeError):
            return Verdict.REJECT


def get_backend(name: str) -> Backend:
    if name == "mock":
        return MockBackend()
    if name == "snark":
        from . import snark

        return snark.QapSnarkBackend()
    raise BackendError(f"unknown backend {name!r}")


def backend_capabilities() -> Dict[str, bool]:
    from . import snark

    return {"mock": MockBackend.available(), "snark": snark.QapSnarkBackend.available()}


def _load_key(data: bytes, mock_cls, snark_cls: str):
    """A key from its frame; a key that packs a circuit must pack the one the frame names."""
    backend, digest, payload = decode_frame(data)
    if backend == "mock":
        key = mock_cls.from_payload(payload)
    else:
        from . import snark

        key = getattr(snark, snark_cls).from_payload(payload, digest)
    if hasattr(key, "cs") and key.cs.digest() != digest:
        raise DecodeError("digest mismatch")
    return key


def load_proving_key(data: bytes):
    return _load_key(data, MockProvingKey, "SnarkProvingKey")


def load_verifying_key(data: bytes):
    return _load_key(data, MockVerifyingKey, "SnarkVerifyingKey")
