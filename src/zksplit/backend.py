"""Proving backend contract: Setup / Prove / Verify over a constraint system.

Two interchangeable backends implement the contract:

  mock   -- transparent constraint re-checking.  The proof body is a
            transcript of the private wires, every wire after the
            constant 1 and the statement; verification rebuilds the
            assignment 1 || statement || transcript, so a transcript of
            another length is a Reject, and checks that it satisfies
            every constraint, gadget by gadget.
            Deliberately NOT zero-knowledge and labeled test-only; it is
            the cryptography-free oracle used in CI and benchmarks.
  snark  -- preprocessing argument with constant-size proofs (snark.py).

Binary encodings share one frame:

    version byte || backend id byte || circuit digest (32 bytes) || payload

and every proof payload starts with the 32-byte statement digest, computed
as SHA-256 of the canonical statement encoding.  Statements and mock
transcripts share one element codec, circuit.FieldVector: a width byte, a
u32 count, then each element at the narrowest width that holds them all,
int8, int16, int32 or int64, or 32 canonical bytes past 2**62.  A vector
whose trailing run of 0s and 1s is long enough ends its frame with that
run as a bit tail, one bit per element: the width byte carries the flag
0x80 and the count is followed by the tail's length, so a witness's
remainder bits cost 1/8 byte each.  Any other frame is a DecodeError.  At
m=1000 a trainer statement is 4 007 bytes at int16, and a mock proof 7 575
bytes: 66 header bytes, a 9-byte frame head, U and U' at int8 and 44 000
remainder bits.  Snark keys and proof bodies write 32 canonical bytes per
element with no count.  Statements and witnesses are immutable, so each
is encoded at most once (a decoded one keeps its frame), and a
statement's digest is computed once too.  A frame of any version but
WIRE_VERSION is a DecodeError: version 3 added the bit tail, and version
4 sends only the private wires, at int8 when they fit, so a mock proof
body of an earlier version would be misread, and is refused.

Mock keys and the snark proving key carry their circuit as its spec
(ConstraintSystem.spec), the canonical JSON of its kind, m and constants:
a mock key's whole payload, and the u32-length-prefixed head of a snark
proving key's.  Loading parses the spec with circuit.from_spec, which
refuses a circuit larger than circuit.MAX_CONSTRAINTS before building it,
requires the spec to be the one the circuit writes, and requires the
built circuit's digest to be the one the key frame names (see _circuit_of
and _load_key).  So a key can carry only a circuit that one of
circuit.BUILDERS makes, and each key has one encoding.
"""

from __future__ import annotations

import enum
import hashlib
import json
import time
from dataclasses import dataclass

from .circuit import ConstraintSystem, FieldVector, Witness, from_spec

WIRE_VERSION = 4
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


def _circuit_of(spec: bytes) -> ConstraintSystem:
    """The circuit whose spec (ConstraintSystem.spec) is ``spec``.  Any
    other bytes, including another spelling of the same spec, are a
    DecodeError."""
    try:
        cs = from_spec(json.loads(spec.decode()))
    except (ValueError, RecursionError) as e:
        # UTF-8 and JSON errors, deep nesting, and every CircuitError
        raise DecodeError(f"bad circuit spec: {e}") from None
    if cs.spec() != spec:
        raise DecodeError("circuit spec is not canonical")
    return cs


@dataclass
class MockProvingKey:
    backend = "mock"
    cs: ConstraintSystem

    @property
    def circuit_digest(self) -> str:
        return self.cs.digest()

    @property
    def num_public(self) -> int:
        return self.cs.num_public

    def to_bytes(self) -> bytes:
        return encode_frame("mock", self.circuit_digest, self.cs.spec())

    @classmethod
    def from_payload(cls, payload: bytes) -> "MockProvingKey":
        return cls(cs=_circuit_of(payload))


class MockVerifyingKey(MockProvingKey):
    """The same circuit, held by the Verifying Entity."""


class Backend:
    """Interface shared by all proving backends."""

    name = "?"

    def setup(self, cs: ConstraintSystem, seed: bytes) -> KeyPair:
        raise NotImplementedError

    def prove(self, pk, statement: Statement, witness: Witness) -> Proof:
        raise NotImplementedError

    def verify(self, vk, statement: Statement, proof: Proof) -> Verdict:
        raise NotImplementedError

    def _addressed(self, vk, statement: Statement, proof: Proof) -> bool:
        """The checks every verify makes first: the key and the proof are
        this backend's, the proof was made for the key's circuit and for this
        statement, and the statement has the circuit's number of public
        values."""
        return (proof.backend == self.name == vk.backend
                and proof.circuit_digest == vk.circuit_digest
                and proof.statement_digest == statement.digest()
                and len(statement) == vk.num_public)

    @staticmethod
    def _satisfies(cs: ConstraintSystem, statement: Statement, witness: Witness) -> bool:
        """Whether the witness has cs's wires, publishes the statement and
        satisfies cs: what prove requires."""
        return (len(witness) == cs.num_wires and len(statement) == cs.num_public
                and witness.publishes(statement) and cs.is_satisfied(witness))


class MockBackend(Backend):
    """Checks every constraint against the witness that the proof's
    transcript of the private wires and the statement make.

    Test-only: the proof leaks every private wire by construction.
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
        if not self._satisfies(cs, statement, witness):
            raise UnsatisfiedRelationError("unsatisfied relation")
        return Proof(
            backend="mock",
            circuit_digest=cs.digest(),
            statement_digest=statement.digest(),
            body=witness.to_bytes(cs.num_public),
            prove_time=time.perf_counter() - t0,
        )

    def verify(self, vk: MockVerifyingKey, statement: Statement, proof: Proof) -> Verdict:
        try:
            if not self._addressed(vk, statement, proof):
                return Verdict.REJECT
            # wire 0 and the public wires are 1 and the statement by construction
            witness = Witness.from_bytes(proof.body, statement)
            ok = len(witness) == vk.cs.num_wires and vk.cs.is_satisfied(witness)
            return Verdict.ACCEPT if ok else Verdict.REJECT
        except (ValueError, DecodeError):
            return Verdict.REJECT


def get_backend(name: str) -> Backend:
    if name == "mock":
        return MockBackend()
    if name == "snark":
        from . import snark

        return snark.QapSnarkBackend()
    raise BackendError(f"unknown backend {name!r}")


def _load_key(data: bytes, mock_cls, snark_cls: str):
    """A key from its frame; a key that carries a circuit must carry the one
    the frame names, so its circuit must have the frame's digest."""
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
