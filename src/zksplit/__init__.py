"""Verifiable split learning over quantized cut-layer circuits.

A split dense network exchanges cut-layer traffic between client and
server workers; each direction carries a proof that the quantized
cut-layer parameter update satisfies W' = W + K*U, checked by a verifying
entity before any update is applied.  A hash-chain ledger provides the
record-but-don't-verify baseline, and a benchmark harness compares the
modes.
"""

__version__ = "0.1.0"

from .backend import (
    MockBackend,
    Proof,
    Statement,
    Verdict,
    get_backend,
)
from .circuit import (
    CircuitConstants,
    ConstraintSystem,
    Witness,
    build_aggregation_circuit,
    build_protocol_circuit,
    build_update_circuit,
    generate_witness,
)
from .config import SimConfig
from .ledger import Block, Chain
from .nn import Batch, GradientBatch, SmashedBatch, SplitModel, init_split_model
from .protocol import ProverEntity, RoundMessage, RoundReport, Trainer, VerifierEntity
from .quant import QuantParams, calibrate, dequantize, quantize
from .snark import QapSnarkBackend

__all__ = [
    "Batch",
    "Block",
    "Chain",
    "CircuitConstants",
    "ConstraintSystem",
    "GradientBatch",
    "MockBackend",
    "Proof",
    "ProverEntity",
    "QapSnarkBackend",
    "QuantParams",
    "RoundMessage",
    "RoundReport",
    "SimConfig",
    "SmashedBatch",
    "SplitModel",
    "Statement",
    "Trainer",
    "Verdict",
    "VerifierEntity",
    "Witness",
    "build_aggregation_circuit",
    "build_protocol_circuit",
    "build_update_circuit",
    "calibrate",
    "dequantize",
    "generate_witness",
    "get_backend",
    "init_split_model",
    "quantize",
]
