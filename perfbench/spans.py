"""In-memory spans around the public functions of zksplit's layers.

Nothing inside the program is instrumented: ``patched`` swaps a layer's
public function (a module attribute or a class attribute) for a wrapper
that records a span, and puts the original back on exit.  Spans keep a
name, start, end, the index of the enclosing span and an optional note
taken from the result (a verdict, a byte count).  A span's self time is
its duration minus the durations of the spans directly inside it, so the
self times of a round span and everything inside it add up to the
round's wall time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import pin  # noqa: F401

ROUND = "round"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 at the top
    note: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int, note: object = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.note = note
        if self._open.pop() != idx:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, fn: Callable, name: str, note: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(idx, note(result) if note is not None and result is not None else None)

        traced.__wrapped__ = fn
        return traced


# (owner, attribute, span name, note taken from the result)
Hook = Tuple[object, str, str, Optional[Callable]]


@contextmanager
def patched(tracer: Tracer, hooks: Iterable[Hook]):
    saved = []
    try:
        for owner, attr, name, note in hooks:
            raw = vars(owner)[attr]
            saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, note)))
            else:
                setattr(owner, attr, tracer.wrap(raw, name, note))
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def self_times(spans: List[Span]) -> List[float]:
    inner = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            inner[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, inner)]


def _verdict(v) -> str:
    return v.value


def round_hooks() -> List[Hook]:
    """Layer boundaries crossed inside ``Trainer.run_round``.

    ``protocol`` imports the nn, quant and circuit functions by name, so
    they are swapped in its namespace; methods are swapped on their class.
    """
    from zksplit import backend, circuit, ledger, protocol, snark

    return [
        *[(protocol, f, "nn", None)
          for f in ("client_forward", "server_step", "sgd_step", "client_backward")],
        (protocol, "quantize_array", "quant", None),
        (protocol, "dequantize_array", "quant", None),
        (protocol, "quantized_aggregate", "circuit.arith", None),
        (protocol, "quantized_update", "circuit.arith", None),
        (protocol, "generate_witness", "circuit.witness", None),
        (circuit.ConstraintSystem, "is_satisfied", "circuit.check", None),
        (circuit.Witness, "to_bytes", "circuit.codec", None),
        (circuit.Witness, "from_bytes", "circuit.codec", None),
        (backend.MockBackend, "prove", "backend.prove", None),
        (backend.MockBackend, "verify", "backend.verify", _verdict),
        (snark.QapSnarkBackend, "prove", "snark.prove", None),
        (snark.QapSnarkBackend, "verify", "snark.verify", _verdict),
        (protocol.RoundMessage, "canonical_bytes", "protocol.encode", len),
        (ledger.Chain, "append_payload", "ledger.append", None),
    ]


def setup_hooks() -> List[Hook]:
    """Layer boundaries crossed while a ``Trainer`` is constructed."""
    from zksplit import backend, circuit, protocol, snark

    return [
        (protocol, "build_protocol_circuit", "setup.circuit_build", None),
        (circuit.ConstraintSystem, "digest", "setup.circuit_digest", None),
        (backend.MockBackend, "setup", "setup.keys", None),
        (snark.QapSnarkBackend, "setup", "setup.keys", None),
    ]


# which figures each span name reports: inclusive time, self time, calls,
# and the share of Reject verdicts
_INCLUSIVE = ("nn", "quant", "circuit.arith", "circuit.witness", "circuit.check",
              "circuit.codec", "snark.verify", "protocol.encode", "ledger.append")
_SELF = ("backend.prove", "backend.verify", "snark.prove")
_CALLS = ("nn", "circuit.witness", "circuit.check", "backend.prove", "backend.verify",
          "snark.prove", "snark.verify", "ledger.append")
_REJECTS = ("backend.verify", "snark.verify")
_SETUP = ("setup.circuit_build", "setup.circuit_digest", "setup.keys")


def _share(num: float, den: float) -> float:
    """A ratio over nothing attempted reads 0."""
    return num / den if den else 0.0


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-round layer figures from the round spans and the spans inside them.

    Set-up spans (those outside any round) give the ``setup.*`` seconds.
    """
    selfs = self_times(spans)
    rounds = [i for i, s in enumerate(spans) if s.name == ROUND]
    n = len(rounds)
    if not n:
        raise ValueError("no round spans")
    in_round = [False] * len(spans)
    for i, s in enumerate(spans):
        in_round[i] = s.name == ROUND or (s.parent >= 0 and in_round[s.parent])

    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    notes: Dict[str, list] = {}
    setup: Dict[str, float] = {}
    for i, s in enumerate(spans):
        if not in_round[i]:
            setup[s.name] = setup.get(s.name, 0.0) + s.duration
            continue
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + selfs[i]
        calls[s.name] = calls.get(s.name, 0) + 1
        notes.setdefault(s.name, []).append(s.note)

    out: Dict[str, float] = {}
    for name in _INCLUSIVE:
        out[f"{name}.ms_per_round"] = 1e3 * total.get(name, 0.0) / n
    for name in _SELF:
        out[f"{name}.self_ms_per_round"] = 1e3 * own.get(name, 0.0) / n
    for name in _CALLS:
        out[f"{name}.calls_per_round"] = calls.get(name, 0) / n
    for name in _REJECTS:
        out[f"{name}.reject_share"] = _share(notes.get(name, []).count("Reject"), calls.get(name, 0))
    out["protocol.encode.bytes_per_round"] = sum(notes.get("protocol.encode", [])) / n
    accepted = sum(notes.get(v, []).count("Accept") for v in _REJECTS)
    out["protocol.proof_useful_share"] = _share(
        accepted, calls.get("backend.prove", 0) + calls.get("snark.prove", 0))
    out["protocol.other.ms_per_round"] = 1e3 * own[ROUND] / n
    round_set = set(rounds)
    top = sum(s.duration for s in spans if s.parent in round_set)
    out["trace.coverage"] = top / total[ROUND]
    for name in _SETUP:
        out[f"{name}_s"] = setup.get(name, 0.0)
    return out
