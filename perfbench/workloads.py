"""Workload configurations and the correctness gate.

Each workload is a closed loop of ``Trainer.run_round`` calls: a round is
the sequential relay over all clients, and the next round starts only
when the previous one has returned.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import List

import pin  # noqa: F401  (thread pinning and sys.path, before numpy loads)
import zksplit
from zksplit import SimConfig, Trainer
from zksplit.protocol import VERDICT_ACCEPTED

if not zksplit.__file__.startswith(str(pin.SRC)):
    raise SystemExit(f"perfbench: imported zksplit from {zksplit.__file__}, not from {pin.SRC}")

# name -> SimConfig fields besides the seed.  Tampering clients must have
# the highest indices so the none-mode reference can simply drop them.
WORKLOADS = {
    # constraint replay on prover and verifier, 1.5 MB witness transcripts
    "mock-m1000": dict(mode="zk-mock", m=1000, num_clients=1),
    # prover-only replay, constant-size proofs, QAP keys in set-up, and one
    # tampering client whose proof is made and then rejected every round
    "snark-m500-tamper": dict(mode="zk-snark", m=500, num_clients=3, tamper_clients=[2]),
    # no circuit or backend work: nn, quantized arithmetic, encoding, ledger
    "ledger-m1000": dict(mode="blockchain", m=1000, num_clients=4),
}


def config(workload: str, seed: int) -> SimConfig:
    return SimConfig(seed=seed, **WORKLOADS[workload])


def cold_setup(cfg: SimConfig):
    """Construct a Trainer and time it; cold only as the first one in a process.

    Circuits and keys are cached per process, so a later construction of
    the same workload skips the work this is meant to measure.
    """
    t0 = time.perf_counter()
    trainer = Trainer(cfg)
    return trainer, time.perf_counter() - t0


def reference_config(cfg: SimConfig) -> SimConfig:
    """The none-mode run of the same data with the tampering clients left out."""
    honest = cfg.num_clients - len(cfg.tamper_clients)
    if sorted(cfg.tamper_clients) != list(range(honest, cfg.num_clients)):
        raise ValueError("tampering clients must be the last ones")
    d = cfg.to_dict()  # keeps data_partitions, so honest clients keep their shards
    d.update(mode="none", num_clients=honest, tamper_clients=[])
    return SimConfig.from_dict(d)


def model_digest(trainer: Trainer) -> str:
    h = hashlib.sha256()
    for stack in (trainer.model.client, trainer.model.server):
        for a in stack.weights + stack.biases:
            h.update(a.tobytes())
    return h.hexdigest()


@dataclass
class GateResult:
    attempted: int  # client turns
    failed: int
    problems: List[str]

    @property
    def correct(self) -> bool:
        return not self.problems


def gate(trainer: Trainer, reference: Trainer) -> GateResult:
    """Check every verdict of every round, then the final model.

    An honest client must be Accepted and a tampering one must not be.
    The final model must equal, byte for byte, that of ``reference``, a
    run of the same length without the tampering clients.  On a model
    mismatch every turn of the run counts as failed.
    """
    tamper = set(trainer.config.tamper_clients)
    problems = []
    attempted = failed = 0
    for report in trainer.reports:
        for client in trainer.clients:
            attempted += 1
            verdict = report.verdicts.get(client.client_id)
            if (verdict == VERDICT_ACCEPTED) == (client.client_id in tamper):
                failed += 1
                problems.append(f"round {report.round_id} client {client.client_id}: {verdict}")
    if len(reference.reports) != len(trainer.reports):
        problems.append("reference ran a different number of rounds")
        failed = attempted
    elif model_digest(reference) != model_digest(trainer):
        problems.append("final model differs from the none-mode reference")
        failed = attempted
    if trainer.chain is not None:
        if not trainer.chain.verify():
            problems.append("ledger chain does not verify")
            failed = attempted
        elif len(trainer.chain) != 1 + 2 * attempted:
            problems.append(f"ledger holds {len(trainer.chain)} blocks for {attempted} turns")
            failed = attempted
    return GateResult(attempted, failed, problems)


def run_reference(cfg: SimConfig, rounds: int) -> Trainer:
    ref = Trainer(reference_config(cfg))
    for r in range(rounds):
        ref.run_round(r)
    return ref
