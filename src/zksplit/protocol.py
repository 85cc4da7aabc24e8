"""Round workflow: worker roles, proof-carrying messages, rejection handling.

One round runs each client in turn (classic split-learning relay over a
shared client-side model):

  1. the client forwards its batch to the cut layer and attaches a proof
     that the model's current cut-layer bias vector was produced from the
     previously published one by the last verified update (W' = W + K*U
     with K = 1); the proof is made from the statement and witness stored
     when that update was accepted, a zero update W' = W at the start;
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

A proof binds the statement W', W, K, not the message's payload nor the
network's passes.  U and U' are not range-checked: for any in-range W', W
and any K != z_K the rows solve by division mod P, and under the
trainer's constants they force U = W' - W.  tests/test_snark_threats.py
pins both, and that a payload replaced after proving is still accepted.

The Prover Entity and Verifying Entity are in-process trusted roles: the
PE holds the circuit's one proving key and sees witnesses, the VE holds its
one verifying key and sees only statements and proofs.  All messages pass
through the serialization layer (``RoundMessage.canonical_bytes``: an
envelope of kind, sender, round, statement digest and proof size, then the
statement, the proof frame and the payload) so a socket transport could
replace the in-process channel without protocol changes; in blockchain mode
the chain hashes those bytes, so every payload byte is hashed once.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .backend import Proof, Statement, Verdict, get_backend
from .circuit import (
    CircuitConstants,
    ConstraintSystem,
    Witness,
    build_protocol_circuit,
    generate_witness,
    quantized_aggregate,
    quantized_update,
)
from .config import MODE_BACKENDS, SimConfig
from .ledger import Chain
from .nn import (
    Batch,
    NumericError,
    batch_stream,
    client_backward,
    client_forward,
    init_split_model,
    make_blobs,
    partition_iid,
    server_loss,
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

# A circuit takes no wire or row once its builder returns, and keys are
# immutable, so both are shared across trainers (and inherited by forked
# bench workers).
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

    def envelope(self) -> dict:
        return {
            "kind": self.kind,
            "sender": self.sender,
            "round": self.round_id,
            "statement_digest": self.statement.digest() if self.statement else None,
            "proof_size": self.proof.size_bytes if self.proof else 0,
        }

    def canonical_bytes(self) -> bytes:
        """Envelope, statement, proof frame and payload, NUL-separated and
        joined in one copy.

        The encoding is injective, so the chain's digest of these bytes
        covers every field once: the envelope JSON holds no NUL (json.dumps
        escapes control characters), so the first NUL ends it; a non-null
        ``statement_digest`` means a statement follows, and a statement
        frame gives its length by its head: the width byte and element
        count, and, when the width byte carries the tail flag, the length
        of the bit tail after them;
        ``proof_size`` is the proof frame's length, and 0 means there is no
        proof; the payload is everything that is left.
        """
        parts = [json.dumps(self.envelope(), sort_keys=True, separators=(",", ":")).encode()]
        if self.statement is not None:
            parts += (b"\x00", self.statement.to_bytes())
        if self.proof is not None:
            parts += (b"\x00", *self.proof._parts())
        parts += (b"\x00", self.payload)
        return b"".join(parts)


@dataclass(slots=True)
class RoundReport:
    round_id: int
    mode: str
    verdicts: Dict[int, str] = field(default_factory=dict)
    loss: Optional[float] = None  # mean training loss over the round's batches
    eval_loss: Optional[float] = None  # loss on the fixed held-out batch
    # share of the held-out batch whose most probable class is its label
    eval_accuracy: Optional[float] = None
    # seconds summed over the round's turns: compute, witness (generation,
    # zk modes only), proof (prove time), verify, transport (encoding) and
    # ledger (chain appends, blockchain mode only); eval, the held-out
    # evaluation after the turns; other is the rest of run_round's wall
    # time, so the values add up to it
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
            "eval_accuracy": self.eval_accuracy,
            "timings": self.timings,
            "stalled": self.stalled,
            "verification_skipped": self.verification_skipped,
            "suspects": self.suspects,
        }


class ProverEntity:
    """Holds the proving key; the only role that ever touches witnesses."""

    def __init__(self, backend_name: str, proving_key):
        self.backend = get_backend(backend_name)
        self.proving_key = proving_key

    def prove(self, statement: Statement, witness: Witness) -> Proof:
        return self.backend.prove(self.proving_key, statement, witness)


class VerifierEntity:
    """Holds the verifying key; sees statements and proofs, never witnesses."""

    def __init__(self, backend_name: str, verifying_key):
        self.backend = get_backend(backend_name)
        self.verifying_key = verifying_key

    def verify(self, statement: Statement, proof: Optional[Proof]) -> Verdict:
        if proof is None:
            return Verdict.REJECT
        return self.backend.verify(self.verifying_key, statement, proof)


@dataclass
class ClientWorker:
    client_id: int
    stream: object  # batch iterator
    tamper: bool = False
    rejection_count: int = 0
    sender: str = field(init=False)  # one string shared by all its messages

    def __post_init__(self) -> None:
        self.sender = f"client-{self.client_id}"


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
        # tamper evidence among integer witnesses in the quantized range: a
        # +-1 change of a private U shifts its remainder by at least 2**eta,
        # out of [0, 2**eta), so no other such witness proves the statement.
        # Nothing range-checks U or U', so field elements outside that range
        # can still satisfy the circuit (Finding A in the threat tests).
        shift = (1 << self.constants.agg_shift) * (self.k_q - self.constants.z_k)
        if self.zk and shift < (1 << self.constants.eta):
            raise ProtocolError("quantization config is not tamper-evident")

        # only the zk modes prove anything, so only they need the circuit
        self.circuit: Optional[ConstraintSystem] = None
        self.pe: Optional[ProverEntity] = None
        self.ve: Optional[VerifierEntity] = None
        if self.zk:
            self.circuit = protocol_circuit(config.m, self.constants)
            backend = MODE_BACKENDS[self.mode]
            pair = _setup_keys(backend, self.circuit,
                               seed.to_bytes(8, "little", signed=True))
            self.pe = ProverEntity(backend, pair.proving_key)
            self.ve = VerifierEntity(backend, pair.verifying_key)

        self.chain = Chain.genesis() if self.mode == "blockchain" else None

        # snap the cut-layer bias onto the quantization grid and start the
        # published-statement chain with a zero update W' = W
        self.wq_cur = quantize_array(self.model.client.biases[-1], self.wq_params)
        self.model.client.biases[-1] = dequantize_array(self.wq_cur, self.wq_params)
        # statement and witness of the last accepted update (zk modes only)
        self.last_update: Optional[Tuple[Statement, Witness]] = None
        if self.zk:
            self.last_update = self._update(
                self.wq_cur, self.wq_cur, np.full(config.m, self.constants.z_u, dtype=np.int64))

        # held-out samples of the training task: its class means, new draws
        ex, ey = make_blobs(4 * config.batch_size, config.input_dim,
                            config.num_classes, seed=seed, sample_seed=seed + 13,
                            spread=config.blob_spread, noise=config.blob_noise)
        self.eval_batch = Batch(x=ex, y=ey)

        self.reports: List[RoundReport] = []
        # per-proof telemetry, harvested by the bench harness
        self.proof_times: List[float] = []
        self.proof_sizes: List[int] = []
        self.verify_times: List[float] = []

    # -- messages ------------------------------------------------------------

    def _update(self, wq_new: np.ndarray, wq_old: np.ndarray,
                uq: np.ndarray) -> Tuple[Statement, Witness]:
        """The statement W', W, K of one update and its witness, U private."""
        statement = Statement(np.concatenate((wq_new, wq_old, [self.k_q]), dtype=np.int64))
        return statement, generate_witness(self.circuit, statement, uq)

    def _message(self, kind: str, sender: str, round_id: int, payload: bytes,
                 update: Optional[Tuple[Statement, Witness]],
                 tamper: bool = False) -> RoundMessage:
        """One cut-layer message carrying ``payload``, and in zk modes the
        statement of ``update`` with its proof; ``tamper`` forges the
        statement after the proof is made."""
        statement = proof = None
        if update is not None:
            statement, witness = update
            proof = self.pe.prove(statement, witness)
            if tamper:
                forged = statement.signed.copy()
                forged[0] += 1
                statement = Statement(forged)
        return RoundMessage(kind=kind, sender=sender, round_id=round_id, payload=payload,
                            statement=statement, proof=proof)

    # -- round state machine -------------------------------------------------

    def run_round(self, round_id: int) -> RoundReport:
        t_round = time.perf_counter()
        report = RoundReport(round_id=round_id, mode=self.mode,
                             verification_skipped=not self.zk)
        timings = {"compute": 0.0, "witness": 0.0, "proof": 0.0, "verify": 0.0,
                   "transport": 0.0, "ledger": 0.0}
        losses = []

        for client in self.clients:
            batch = next(client.stream)
            try:
                verdict, loss = self._client_turn(client, batch, round_id, timings)
            except (OverflowError_, NumericError):
                # the client sits the round out; nothing it sent was applied
                verdict, loss = VERDICT_MISSING, None
            report.verdicts[client.client_id] = verdict
            if verdict == VERDICT_ACCEPTED:
                client.rejection_count = 0
                losses.append(loss)
            else:
                client.rejection_count += 1

        report.loss = float(np.mean(losses)) if losses else None
        t0 = time.perf_counter()
        smashed_eval = client_forward(self.model.client, self.eval_batch).smashed
        labels = self.eval_batch.y
        report.eval_loss, probs, _ = server_loss(self.model.server, smashed_eval, labels)
        report.eval_accuracy = np.count_nonzero(probs.argmax(axis=1) == labels) / len(labels)
        timings["eval"] = time.perf_counter() - t0
        report.stalled = not losses
        report.suspects = [
            c.client_id for c in self.clients
            if c.rejection_count >= self.config.suspect_threshold
        ]
        timings["other"] = time.perf_counter() - t_round - sum(timings.values())
        report.timings = timings
        self.reports.append(report)
        return report

    def _client_turn(self, client: ClientWorker, batch: Batch, round_id: int,
                     timings: Dict[str, float]) -> Tuple[str, Optional[float]]:
        """One client's turn: (verdict, training loss or None).

        Every model update comes after both messages are delivered, so a
        rejection, or an overflow or numeric error raised on the way,
        leaves the model untouched.
        """
        cfg = self.config
        t0 = time.perf_counter()
        forward = client_forward(self.model.client, batch)
        smashed = forward.smashed  # all the server sees of the client's pass
        timings["compute"] += time.perf_counter() - t0

        # the forward message re-proves the last accepted update
        msg_fwd = self._message("SmashedForward", client.sender, round_id,
                                smashed.z.astype("<f8").tobytes(), self.last_update,
                                tamper=client.tamper)
        if not self._deliver(msg_fwd, timings):
            return VERDICT_REJECTED, None

        # server side: forward, loss, backward, own update
        t0 = time.perf_counter()
        loss, g_ws, grad = server_step(self.model.server, smashed, batch.y)
        new_server = sgd_step(self.model.server, g_ws, cfg.lr, batch.size)
        timings["compute"] += time.perf_counter() - t0

        # prescribed cut-layer bias update, quantized
        u_next = (-cfg.lr / batch.size) * grad.g_z.sum(axis=0)
        uq = quantize_array(u_next, self.wq_params)
        upq = quantized_aggregate(self.k_q, uq, self.constants)
        wq_next = quantized_update(self.wq_cur, upq, self.constants)
        if wq_next.max() > self.wq_params.q_max or wq_next.min() < self.wq_params.q_min:
            raise OverflowError_("quantization overflow")
        wq_next = wq_next.astype(np.int64, copy=False)  # Python ints when eta is large
        update = None
        if self.zk:
            t0 = time.perf_counter()
            update = self._update(wq_next, self.wq_cur, uq)
            timings["witness"] += time.perf_counter() - t0
        payload = grad.g_z.astype("<f8").tobytes() + np.float64(grad.loss).tobytes()
        msg_back = self._message("GradientBackward", "server", round_id, payload, update)
        if not self._deliver(msg_back, timings):
            return VERDICT_REJECTED, None

        # both directions verified: apply updates
        t0 = time.perf_counter()
        g_wc = client_backward(self.model.client, forward, grad)
        self.model.server = new_server
        self.model.client = sgd_step(self.model.client, g_wc, cfg.lr, batch.size)
        # keep the cut-layer bias on the proven quantized trajectory
        self.model.client.biases[-1] = dequantize_array(wq_next, self.wq_params)
        timings["compute"] += time.perf_counter() - t0
        # nothing changes these in place, so they are handed on uncopied
        self.wq_cur, self.last_update = wq_next, update
        return VERDICT_ACCEPTED, loss

    def _deliver(self, msg: RoundMessage, timings: Dict[str, float]) -> bool:
        """Record, encode and (zk modes) verify one message; True if it may be applied."""
        if msg.proof is not None:
            timings["proof"] += msg.proof.prove_time
            self.proof_times.append(msg.proof.prove_time)
            self.proof_sizes.append(msg.proof.size_bytes)
        if self.zk or self.chain is not None:
            # "none" mode skips the recording pipeline entirely
            t0 = time.perf_counter()
            wire = msg.canonical_bytes()
            timings["transport"] += time.perf_counter() - t0
            if self.chain is not None:
                t0 = time.perf_counter()
                self.chain.append_payload(wire, sender=msg.sender)
                timings["ledger"] += time.perf_counter() - t0
        if not self.zk:
            return True
        t0 = time.perf_counter()
        verdict = self.ve.verify(msg.statement, msg.proof)
        dt = time.perf_counter() - t0
        timings["verify"] += dt
        self.verify_times.append(dt)
        return verdict is Verdict.ACCEPT

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
                    row = {**report.to_dict(), "model_digest": self.model.digest()}
                    log_file.write(json.dumps(row, sort_keys=True) + "\n")
        finally:
            if log_file:
                log_file.close()
        if out and self.chain is not None:
            self.chain.save(out / "chain.jsonl")
        return self.reports
