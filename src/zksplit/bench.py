"""Benchmark harness: batch, epoch-estimate, real-epoch, and proof timings.

Metric definitions (desk-scale operationalization of the measured
quantities):

  batch_time      wall time of one client batch through the full pipeline
                  of the active mode (forward, statement, prove, verify,
                  server step, gradient return, client update).  Measured
                  on a single client turn; in the sequential relay a
                  client's own batch cost does not depend on how many
                  other clients exist, so cells only vary with mode and m.
  epoch_estimate  batch_time * batches_per_epoch: the projected sequential
                  single-client epoch.
  real_epoch      wall time of a fixed total number of batches split
                  across clients running as parallel worker processes.
  proof_time      per-proof prover telemetry.
  verify_time     per-verification wall time at the Verifying Entity.
  proof_size      serialized proof bytes.

Every cell is measured with one discarded warmup repetition followed by
the configured repetitions on a monotonic clock.  Absolute numbers are
machine-dependent; the acceptance checks are ordinal (orderings and
trends), not absolute.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import platform
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .config import MODE_BACKENDS, SimConfig
from .protocol import Trainer

UNITS = {
    "batch_time": "s",
    "epoch_estimate": "s",
    "real_epoch": "s",
    "proof_time": "s",
    "verify_time": "s",
    "proof_size": "bytes",
}

CSV_HEADER = ["metric", "mode", "clients", "m", "rep", "value", "unit"]

# blockchain/none rounds run in about a millisecond, close to the timer
# noise floor, so each repetition pass samples them several times
CHEAP_MODE_INNER_REPS = 5


class BenchError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchRecord:
    metric: str
    mode: str
    clients: int
    m: int
    rep: int
    value: float
    unit: str

    def __post_init__(self) -> None:
        if self.value < 0:
            raise BenchError("negative measurement")
        if UNITS.get(self.metric) != self.unit:
            raise BenchError(f"unit {self.unit!r} wrong for metric {self.metric!r}")


def _cell_trainer(config: SimConfig, mode: str, m: int) -> Trainer:
    cfg = replace(
        config,
        mode=mode,
        m=m,
        num_clients=1,
        data_partitions=1,
        rounds=1,
        out_dir=None,
        tamper_clients=[],
    )
    return Trainer(cfg)


def _measure_one_round(trainer: Trainer, mode: str, clients: int, m: int, rep: int,
                       round_id: int, batches_per_epoch: int,
                       sink: List[BenchRecord]) -> None:
    n_proof = len(trainer.proof_times)
    n_size = len(trainer.proof_sizes)
    n_verify = len(trainer.verify_times)
    t0 = time.perf_counter()
    trainer.run_round(round_id)
    dt = time.perf_counter() - t0
    sink.append(BenchRecord("batch_time", mode, clients, m, rep, dt, "s"))
    sink.append(BenchRecord("epoch_estimate", mode, clients, m, rep,
                            dt * batches_per_epoch, "s"))
    for i, v in enumerate(trainer.proof_times[n_proof:]):
        sink.append(BenchRecord("proof_time", mode, clients, m, 2 * rep + i, v, "s"))
    for i, v in enumerate(trainer.proof_sizes[n_size:]):
        sink.append(BenchRecord("proof_size", mode, clients, m, 2 * rep + i,
                                float(v), "bytes"))
    for i, v in enumerate(trainer.verify_times[n_verify:]):
        sink.append(BenchRecord("verify_time", mode, clients, m, 2 * rep + i, v, "s"))


def _epoch_worker(args: dict) -> float:
    """One client worker's share of a real epoch; runs in its own process."""
    cfg = SimConfig.from_dict(args["config"])
    cfg = replace(
        cfg,
        mode=args["mode"],
        m=args["m"],
        num_clients=1,
        data_partitions=1,
        rounds=args["batches"],
        seed=cfg.seed + 101 * args["worker"],
        out_dir=None,
        tamper_clients=[],
    )
    t0 = time.perf_counter()
    Trainer(cfg).train()
    return time.perf_counter() - t0


def _measure_real_epoch(config: SimConfig, mode: str, clients: int, m: int,
                        total_batches: int, sink: List[BenchRecord]) -> None:
    if total_batches % clients:
        raise BenchError("real_epoch total batches must divide evenly across clients")
    per_worker = total_batches // clients
    _cell_trainer(config, mode, m)  # warm circuit/key caches; forked workers inherit
    base = config.to_dict()
    jobs = [
        {"config": base, "mode": mode, "m": m, "batches": per_worker, "worker": w}
        for w in range(clients)
    ]
    for rep in range(-1, config.reps):  # rep -1 is the discarded warmup
        t0 = time.perf_counter()
        with ProcessPoolExecutor(max_workers=clients) as pool:
            list(pool.map(_epoch_worker, jobs))
        dt = time.perf_counter() - t0
        if rep >= 0:
            sink.append(BenchRecord("real_epoch", mode, clients, m, rep, dt, "s"))


def run_benchmark(config: SimConfig, include_real_epoch: bool = True) -> List[BenchRecord]:
    """Measure every configured cell; returns the full record collection.

    Cells are sampled rep-major across the whole (mode, m, clients) grid:
    one discarded warmup round per trainer, then each repetition visits
    every cell once.  Interleaving spreads machine-load drift evenly over
    cells instead of biasing whichever cell happened to run last, which
    matters because the acceptance checks compare cells against each
    other.  A client's own batch cost does not depend on fleet size in
    the sequential relay, so client cells at one (mode, m) share a
    trainer.
    """
    records: List[BenchRecord] = []
    trainers: Dict[Tuple[str, int], Trainer] = {}
    rounds_done: Dict[Tuple[str, int], int] = {}
    for mode in config.mode_grid:
        for m in config.m_grid:
            trainer = _cell_trainer(config, mode, m)
            trainer.run_round(0)  # warmup, discarded
            trainer.proof_times.clear()
            trainer.proof_sizes.clear()
            trainer.verify_times.clear()
            trainers[(mode, m)] = trainer
            rounds_done[(mode, m)] = 1
    cells = [(mode, m, clients)
             for mode, m in trainers
             for clients in config.client_grid]
    order_rng = random.Random(config.seed)
    for rep in range(config.reps):
        # fresh permutation each pass: a load burst or the cache state left
        # by a heavy neighbor lands on different cells every repetition
        order_rng.shuffle(cells)
        for mode, m, clients in cells:
            trainer = trainers[(mode, m)]
            inner = 1 if MODE_BACKENDS.get(mode) else CHEAP_MODE_INNER_REPS
            for k in range(inner):
                _measure_one_round(trainer, mode, clients, m, rep * inner + k,
                                   rounds_done[(mode, m)], config.batches_per_epoch,
                                   records)
                rounds_done[(mode, m)] += 1
    if include_real_epoch:
        for mode in config.mode_grid:
            if MODE_BACKENDS.get(mode) is None and mode != "blockchain":
                continue
            for clients in config.real_epoch_clients:
                _measure_real_epoch(config, mode, clients, config.m,
                                    config.real_epoch_batches, records)
    return sorted(records, key=lambda r: (r.metric, r.mode, r.clients, r.m, r.rep))


# -- statistics ---------------------------------------------------------------


def summarize(records: Iterable[BenchRecord]) -> Dict[Tuple[str, str, int, int], dict]:
    """Median/p10/p90 per (metric, mode, clients, m) cell; empty cells absent."""
    cells: Dict[Tuple[str, str, int, int], List[float]] = {}
    for r in records:
        cells.setdefault((r.metric, r.mode, r.clients, r.m), []).append(r.value)
    out = {}
    for key, vals in sorted(cells.items()):
        arr = np.sort(np.asarray(vals))
        out[key] = {
            "median": float(np.median(arr)),
            "p10": float(np.percentile(arr, 10)),
            "p90": float(np.percentile(arr, 90)),
            "count": len(arr),
        }
    return out


def median_of(records: Iterable[BenchRecord], metric: str, mode: str,
              clients: int, m: int) -> Optional[float]:
    vals = [r.value for r in records
            if (r.metric, r.mode, r.clients, r.m) == (metric, mode, clients, m)]
    return float(np.median(vals)) if vals else None


def format_summary(stats: Dict[Tuple[str, str, int, int], dict]) -> str:
    lines = [f"{'metric':<15} {'mode':<11} {'clients':>7} {'m':>5} "
             f"{'median':>12} {'p10':>12} {'p90':>12} {'n':>4}"]
    for (metric, mode, clients, m), s in stats.items():
        lines.append(
            f"{metric:<15} {mode:<11} {clients:>7} {m:>5} "
            f"{s['median']:>12.6f} {s['p10']:>12.6f} {s['p90']:>12.6f} {s['count']:>4}"
        )
    return "\n".join(lines)


# -- emission -----------------------------------------------------------------


def emit(records: List[BenchRecord], out_dir: str,
         config: Optional[SimConfig] = None) -> List[Path]:
    """Write CSV + JSON mirror (+ run metadata) with a stable row order."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(records, key=lambda r: (r.metric, r.mode, r.clients, r.m, r.rep))
    csv_path = out / "bench.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([r.metric, r.mode, r.clients, r.m, r.rep, repr(r.value), r.unit])
    json_path = out / "bench.json"
    json_path.write_text(json.dumps([dataclasses.asdict(r) for r in rows], indent=2))
    paths = [csv_path, json_path]
    if config is not None:
        meta = {
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpus": os.cpu_count(),
                "threads": {name: os.environ.get(name) for name in (
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            },
            "config": config.to_dict(),
        }
        meta_path = out / "run_meta.json"
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
        paths.append(meta_path)
    return paths


def read_csv(path: str) -> List[BenchRecord]:
    records = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_HEADER:
            raise BenchError(f"unexpected CSV header {reader.fieldnames}")
        for row in reader:
            records.append(BenchRecord(
                metric=row["metric"],
                mode=row["mode"],
                clients=int(row["clients"]),
                m=int(row["m"]),
                rep=int(row["rep"]),
                value=float(row["value"]),
                unit=row["unit"],
            ))
    return records
