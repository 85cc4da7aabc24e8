"""Round workflow: worker roles, proof-carrying messages, rejection handling.

One round runs each client in turn (classic split-learning relay over a
shared client-side model):

  1. the client forwards its batch to the cut layer and attaches a proof
     that the model's current cut-layer bias vector was produced from the
     previously published one by the last verified update (W' = W + K*U
     with K = 1);
  2. the server verifies that statement through the Verifying Entity and,
     only on Accept, runs its forward/loss/backward and updates its own
     parameters;
  3. the server returns per-sample cut-layer gradients together with a
     proof for the update those gradients prescribe for the cut-layer
     bias;
  4. the client verifies it, applies backpropagation and SGD, and snaps
     its cut-layer bias onto the proven quantized trajectory.

A rejected or missing proof excludes the client for the round: nothing it
sent touches the server parameters, so the global model after the round
is bit-identical to a run without that client's contribution.

What is proven is exactly the quantized cut-layer bias update relation,
not the full network forward pass; the proof pipeline attests update
consistency at the split boundary.

The Prover Entity and Verifying Entity are in-process trusted roles: the
PE holds proving keys and sees witnesses, the VE holds verifying keys and
sees only statements and proofs.  All messages pass through the
serialization layer so a socket transport could replace the in-process
channel without protocol changes.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from .backend import Proof, Statement, Verdict, get_backend
from .circuit import (
    CircuitConstants,
    ConstraintSystem,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from .config import MODE_BACKENDS, SimConfig
from .ledger import Chain
from .nn import (
    Batch,
    GradientBatch,
    SmashedBatch,
    batch_stream,
    client_backward,
    client_forward,
    init_split_model,
    make_blobs,
    partition_iid,
    server_step,
    sgd_step,
)
from .quant import (
    OverflowError_,
    calibrate,
    dequantize_array,
    quantize,
    quantize_array,
)

VERDICT_ACCEPTED = "Accepted"
VERDICT_REJECTED = "RejectedProof"
VERDICT_MISSING = "MissingProof"

# Circuits are immutable after build and keys are immutable, so both are
# shared across trainers (and inherited by forked bench workers).
_CIRCUIT_CACHE: Dict[tuple, ConstraintSystem] = {}
_KEYPAIR_CACHE: Dict[tuple, object] = {}


def protocol_circuit(m: int, constants: CircuitConstants) -> ConstraintSystem:
    key = (m, constants)
    cs = _CIRCUIT_CACHE.get(key)
    if cs is None:
        cs = build_protocol_circuit(m, constants)
        cs.digest()  # precompute while we are warming anyway
        _CIRCUIT_CACHE[key] = cs
    return cs


def _setup_keys(backend_name: str, cs: ConstraintSystem, seed: bytes):
    key = (backend_name, cs.digest(), seed)
    pair = _KEYPAIR_CACHE.get(key)
    if pair is None:
        pair = get_backend(backend_name).setup(cs, seed)
        _KEYPAIR_CACHE[key] = pair
    return pair


class ProtocolError(RuntimeError):
    pass


@dataclass
class RoundMessage:
    """One cut-layer message: payload plus optional statement and proof."""

    kind: str  # "SmashedForward" | "GradientBackward"
    sender: str
    round_id: int
    payload: bytes
    statement: Optional[Statement] = None
    proof: Optional[Proof] = None
    canary_digest: Optional[str] = None

    def envelope(self) -> dict:
        return {
            "kind": self.kind,
            "sender": self.sender,
            "round": self.round_id,
            "payload_digest": hashlib.sha256(self.payload).hexdigest(),
            "statement_digest": self.statement.digest() if self.statement else None,
            "proof_size": self.proof.size_bytes if self.proof else 0,
            "canary_digest": self.canary_digest,
        }

    def canonical_bytes(self) -> bytes:
        parts = [json.dumps(self.envelope(), sort_keys=True, separators=(",", ":")).encode()]
        if self.statement is not None:
            parts.append(self.statement.to_bytes())
        if self.proof is not None:
            parts.append(self.proof.to_bytes())
        parts.append(self.payload)
        return b"\x00".join(parts)


@dataclass
class RoundReport:
    round_id: int
    mode: str
    verdicts: Dict[int, str] = field(default_factory=dict)
    loss: Optional[float] = None  # mean training loss over the round's batches
    eval_loss: Optional[float] = None  # loss on the fixed held-out batch
    timings: Dict[str, float] = field(default_factory=dict)
    stalled: bool = False
    verification_skipped: bool = False
    suspects: List[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "round": self.round_id,
            "mode": self.mode,
            "verdicts": {str(k): v for k, v in self.verdicts.items()},
            "loss": self.loss,
            "eval_loss": self.eval_loss,
            "timings": self.timings,
            "stalled": self.stalled,
            "verification_skipped": self.verification_skipped,
            "suspects": self.suspects,
        }


class ProverEntity:
    """Holds proving keys; the only role that ever touches witnesses."""

    def __init__(self, backend_name: str):
        self.backend = get_backend(backend_name)
        self._keys: Dict[str, object] = {}

    def register(self, cs: ConstraintSystem, seed: bytes) -> str:
        pair = self.backend.setup(cs, seed)
        digest = cs.digest()
        self._keys[digest] = pair.proving_key
        return digest

    def keypair_for(self, cs: ConstraintSystem, seed: bytes):
        return self.backend.setup(cs, seed)

    def prove(self, circuit_digest: str, statement: Statement, witness) -> Proof:
        pk = self._keys.get(circuit_digest)
        if pk is None:
            raise ProtocolError(f"no proving key for circuit {circuit_digest[:12]}")
        return self.backend.prove(pk, statement, witness)


class VerifierEntity:
    """Holds verifying keys; sees statements and proofs, never witnesses."""

    def __init__(self, backend_name: str):
        self.backend = get_backend(backend_name)
        self._keys: Dict[str, object] = {}
        self.log: List[dict] = []

    def register(self, circuit_digest: str, verifying_key) -> None:
        self._keys[circuit_digest] = verifying_key

    def verify(self, circuit_digest: str, statement: Statement, proof: Optional[Proof],
               sender: str = "?") -> Verdict:
        vk = self._keys.get(circuit_digest)
        if vk is None:
            raise ProtocolError(f"no verifying key for circuit {circuit_digest[:12]}")
        if proof is None:
            verdict = Verdict.REJECT
        else:
            verdict = self.backend.verify(vk, statement, proof)
        self.log.append({"sender": sender, "verdict": verdict.value})
        return verdict


@dataclass
class ClientWorker:
    client_id: int
    stream: object  # batch iterator
    tamper: bool = False
    rejection_count: int = 0
    needs_resync: bool = False


class Trainer:
    """Owns the shared split model and drives rounds per the workflow."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.mode = config.mode
        self.zk = self.mode in MODE_BACKENDS
        seed = config.seed

        x, y = make_blobs(
            config.samples_per_client * config.data_partitions,
            config.input_dim,
            config.num_classes,
            seed=seed,
            spread=config.blob_spread,
            noise=config.blob_noise,
        )
        shards = partition_iid(x, y, config.data_partitions, seed=seed + 1)
        self.clients = [
            ClientWorker(
                client_id=i,
                stream=batch_stream(shards[i][0], shards[i][1], config.batch_size,
                                    seed=seed * 1000 + i),
                tamper=i in config.tamper_clients,
            )
            for i in range(config.num_clients)
        ]

        self.model = init_split_model(
            config.input_dim,
            config.client_hidden,
            config.m,
            config.server_hidden,
            config.num_classes,
            lr=config.lr,
            seed=seed,
        )

        self.wq_params = calibrate(-config.w_range, config.w_range)
        self.k_params = calibrate(-config.k_range, config.k_range)
        self.constants = CircuitConstants.from_quant_params(
            k=self.k_params, u=self.wq_params, up=self.wq_params,
            w=self.wq_params, wp=self.wq_params, eta=config.eta,
        )
        self.k_q = quantize(1.0, self.k_params)
        # exact tamper evidence: a +-1 change of any private U shifts the
        # remainder by at least 2**eta, so no alternative witness exists
        shift = (1 << self.constants.agg_shift) * (self.k_q - self.constants.z_k)
        if self.zk and shift < (1 << self.constants.eta):
            raise ProtocolError("quantization config is not tamper-evident")

        self.circuit = protocol_circuit(config.m, self.constants)
        self.pe: Optional[ProverEntity] = None
        self.ve: Optional[VerifierEntity] = None
        if self.zk:
            backend = MODE_BACKENDS[self.mode]
            self.pe = ProverEntity(backend)
            self.ve = VerifierEntity(backend)
            pair = _setup_keys(backend, self.circuit,
                               seed.to_bytes(8, "little", signed=True))
            self.pe._keys[self.circuit.digest()] = pair.proving_key
            self.ve.register(self.circuit.digest(), pair.verifying_key)

        self.chain = Chain.genesis() if self.mode == "blockchain" else None

        # snap the cut-layer bias onto the quantization grid and start the
        # published-statement chain with a zero update
        bias0 = quantize_array(self.model.client.biases[-1], self.wq_params)
        self.model.client.biases[-1] = dequantize_array(bias0, self.wq_params)
        self.wq_prev = [int(v) for v in bias0]
        self.wq_cur = list(self.wq_prev)
        self.uq_last = [self.constants.z_u] * config.m

        self.canary_batch: Optional[Batch] = None
        if config.canary:
            cx, cy = make_blobs(config.batch_size, config.input_dim,
                                config.num_classes, seed=seed + 7,
                                spread=config.blob_spread, noise=config.blob_noise)
            self.canary_batch = Batch(x=cx, y=cy)

        ex, ey = make_blobs(4 * config.batch_size, config.input_dim,
                            config.num_classes, seed=seed + 13,
                            spread=config.blob_spread, noise=config.blob_noise)
        self.eval_batch = Batch(x=ex, y=ey)

        self.reports: List[RoundReport] = []
        self.messages_seen = 0
        # per-proof telemetry, harvested by the bench harness
        self.proof_times: List[float] = []
        self.proof_sizes: List[int] = []
        self.verify_times: List[float] = []

    # -- statements --------------------------------------------------------

    def _forward_message(self, client: ClientWorker, smashed: SmashedBatch,
                         round_id: int) -> RoundMessage:
        payload = smashed.z.astype("<f8").tobytes()
        statement = proof = None
        if self.zk:
            statement = Statement(self.wq_cur + self.wq_prev + [self.k_q])
            witness = generate_witness(self.circuit, statement.values, self.uq_last)
            proof = self.pe.prove(self.circuit.digest(), statement, witness)
            if client.tamper:
                statement = Statement([statement.values[0] + 1] + statement.values[1:])
        canary = None
        if self.canary_batch is not None:
            canary = self._canary_digest()
        return RoundMessage(
            kind="SmashedForward",
            sender=f"client-{client.client_id}",
            round_id=round_id,
            payload=payload,
            statement=statement,
            proof=proof,
            canary_digest=canary,
        )

    def _canary_digest(self) -> str:
        z = client_forward(self.model.client, self.canary_batch).z
        zq = quantize_array(np.clip(z, -self.config.w_range, self.config.w_range),
                            self.wq_params)
        return hashlib.sha256(zq.astype("<i8").tobytes()).hexdigest()

    def _backward_message(self, grad: GradientBatch, wq_next: List[int],
                          uq_next: List[int], round_id: int) -> RoundMessage:
        payload = grad.g_z.astype("<f8").tobytes() + np.float64(grad.loss).tobytes()
        statement = proof = None
        if self.zk:
            statement = Statement(wq_next + self.wq_cur + [self.k_q])
            witness = generate_witness(self.circuit, statement.values, uq_next)
            proof = self.pe.prove(self.circuit.digest(), statement, witness)
        return RoundMessage(
            kind="GradientBackward",
            sender="server",
            round_id=round_id,
            payload=payload,
            statement=statement,
            proof=proof,
        )

    # -- round state machine -------------------------------------------------

    def run_round(self, round_id: int) -> RoundReport:
        cfg = self.config
        report = RoundReport(round_id=round_id, mode=self.mode,
                             verification_skipped=not self.zk)
        timings = {"compute": 0.0, "proof": 0.0, "verify": 0.0, "transport": 0.0}
        losses = []

        for client in self.clients:
            client.needs_resync = False
            batch = next(client.stream)

            t0 = time.perf_counter()
            smashed = client_forward(self.model.client, batch)
            timings["compute"] += time.perf_counter() - t0

            try:
                msg_fwd = self._forward_message(client, smashed, round_id)
            except OverflowError_:
                # client sits the round out, mirroring discard semantics
                report.verdicts[client.client_id] = VERDICT_MISSING
                client.rejection_count += 1
                continue
            if msg_fwd.proof is not None:
                timings["proof"] += msg_fwd.proof.prove_time
                self.proof_times.append(msg_fwd.proof.prove_time)
                self.proof_sizes.append(msg_fwd.proof.size_bytes)
            self.messages_seen += 1
            if self.zk or self.chain is not None:
                # "none" mode skips the recording pipeline entirely
                t0 = time.perf_counter()
                wire_fwd = msg_fwd.canonical_bytes()
                timings["transport"] += time.perf_counter() - t0
                if self.chain is not None:
                    self.chain.append_payload(wire_fwd, sender=msg_fwd.sender)

            if self.zk:
                t0 = time.perf_counter()
                verdict = self.ve.verify(self.circuit.digest(), msg_fwd.statement,
                                         msg_fwd.proof, sender=msg_fwd.sender)
                dt = time.perf_counter() - t0
                timings["verify"] += dt
                self.verify_times.append(dt)
                if verdict is not Verdict.ACCEPT:
                    report.verdicts[client.client_id] = VERDICT_REJECTED
                    client.rejection_count += 1
                    continue
            if self.canary_batch is not None and msg_fwd.canary_digest is not None:
                if msg_fwd.canary_digest != self._canary_digest():
                    report.verdicts[client.client_id] = VERDICT_REJECTED
                    client.rejection_count += 1
                    continue

            # server side: forward, loss, backward, own update
            t0 = time.perf_counter()
            loss, g_ws, grad = server_step(self.model.server, smashed, batch.y)
            new_server = sgd_step(self.model.server, g_ws, cfg.lr, batch.size)
            timings["compute"] += time.perf_counter() - t0

            # prescribed cut-layer bias update, quantized
            u_next = (-cfg.lr / batch.size) * grad.g_z.sum(axis=0)
            try:
                uq_next = [int(v) for v in quantize_array(u_next, self.wq_params)]
                upq = quantized_aggregate([self.k_q], [uq_next], self.constants)
                wq_next = quantized_update(self.wq_cur, upq, self.constants)
                if max(wq_next) > self.wq_params.q_max or min(wq_next) < self.wq_params.q_min:
                    raise OverflowError_("quantization overflow")
                msg_back = self._backward_message(grad, wq_next, uq_next, round_id)
            except OverflowError_:
                report.verdicts[client.client_id] = VERDICT_MISSING
                client.rejection_count += 1
                continue
            if msg_back.proof is not None:
                timings["proof"] += msg_back.proof.prove_time
                self.proof_times.append(msg_back.proof.prove_time)
                self.proof_sizes.append(msg_back.proof.size_bytes)
            self.messages_seen += 1
            if self.zk or self.chain is not None:
                t0 = time.perf_counter()
                wire_back = msg_back.canonical_bytes()
                timings["transport"] += time.perf_counter() - t0
                if self.chain is not None:
                    self.chain.append_payload(wire_back, sender=msg_back.sender)

            if self.zk:
                t0 = time.perf_counter()
                verdict = self.ve.verify(self.circuit.digest(), msg_back.statement,
                                         msg_back.proof, sender=msg_back.sender)
                dt = time.perf_counter() - t0
                timings["verify"] += dt
                self.verify_times.append(dt)
                if verdict is not Verdict.ACCEPT:
                    report.verdicts[client.client_id] = VERDICT_REJECTED
                    client.rejection_count += 1
                    continue

            # both directions verified: apply updates
            t0 = time.perf_counter()
            g_wc = client_backward(self.model.client, batch, grad)
            self.model.server = new_server
            self.model.client = sgd_step(self.model.client, g_wc, cfg.lr, batch.size)
            # keep the cut-layer bias on the proven quantized trajectory
            self.model.client.biases[-1] = dequantize_array(
                np.array(wq_next, dtype=np.int64), self.wq_params
            )
            timings["compute"] += time.perf_counter() - t0
            self.wq_prev = list(self.wq_cur)
            self.wq_cur = list(wq_next)
            self.uq_last = list(uq_next)
            report.verdicts[client.client_id] = VERDICT_ACCEPTED
            client.rejection_count = 0
            losses.append(loss)

        report.loss = float(np.mean(losses)) if losses else None
        smashed_eval = client_forward(self.model.client, self.eval_batch)
        eval_loss, _, _ = server_step(self.model.server, smashed_eval, self.eval_batch.y)
        report.eval_loss = float(eval_loss)
        report.timings = timings
        report.stalled = not losses
        report.suspects = [
            c.client_id for c in self.clients
            if c.rejection_count >= self.config.suspect_threshold
        ]
        self.reports.append(report)
        return report

    def exclude_and_continue(self, report: RoundReport, client_id: int) -> List[int]:
        """Record an exclusion; the client rejoins next round after resync.

        Returns the next round's schedule.  State sync is implicit in the
        relay design: every client reads the current global model (and the
        current cut-layer vector) at the start of its turn.
        """
        for c in self.clients:
            if c.client_id == client_id:
                c.needs_resync = True
                break
        else:
            raise ProtocolError(f"unknown client {client_id}")
        active = [c.client_id for c in self.clients if c.client_id != client_id]
        if not active:
            report.stalled = True
        return [c.client_id for c in self.clients]

    # -- training loop -------------------------------------------------------

    def train(self) -> List[RoundReport]:
        out = Path(self.config.out_dir) if self.config.out_dir else None
        log_file = None
        if out:
            out.mkdir(parents=True, exist_ok=True)
            log_file = (out / "run_log.jsonl").open("w")
        try:
            for r in range(self.config.rounds):
                report = self.run_round(r)
                if log_file:
                    log_file.write(json.dumps(report.to_dict(), sort_keys=True) + "\n")
        finally:
            if log_file:
                log_file.close()
        return self.reports
