"""zksplit benchmark: closed-loop training rounds through the public API.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mock-m1000 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One run is one fresh process and one workload (``all`` runs each
workload in its own process).  With ``--trace 0`` it times a cold
``Trainer`` construction here and in ``SETUP_PROBES`` further fresh
processes, then times at least ``MIN_ROUNDS`` rounds and at least
``--seconds`` of them, untraced, for the end-to-end metrics.  With
``--trace 1`` it alternates untraced and traced rounds (see spans.py) for
the per-layer metrics and the tracing overhead.  Either way the
correctness gate in workloads.py runs after the timed rounds.

The last line of stdout is one JSON object with ``correct``,
``attempted`` and ``failed`` (client turns) and ``metrics``; the metric
names and units are those of BENCHMARK.json.  Round and verify medians
and the mean sample rate are printed above it but left out of the bounded
metrics: on a shared 2-vCPU host they move by 15-20% between runs, the
p90s by 8-15%.  The same object, the run metadata and the spans (traced runs)
are written under ``perfbench/results/``.
"""

import pin  # before numpy loads

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import spans
import workloads

MIN_ROUNDS = 100  # round_ms.p90 needs at least ten samples beyond it
MIN_TRACE_ROUNDS = 20  # traced rounds, and as many untraced ones between them
WARMUP_ROUNDS = 2
EVAL_ROUND = 40  # nn.eval_loss_r40 reads the eval loss after this many rounds
SETUP_PROBES = 4  # fresh processes besides this one; setup_s is the median
LEDGER_VERIFY_EVERY = 10  # rounds between Chain.verify samples on the ledger workload
CAP_S = 100.0  # stop timing here even short of MIN_ROUNDS, to end within 180 s
RESULTS = pin.HERE / "results"


def declared_metrics() -> dict:
    """BENCHMARK.json metric name -> (unit, kind) for kind end_to_end / per_layer."""
    spec = json.loads((pin.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], kind)
            for kind in ("end_to_end", "per_layer") for m in spec[kind]}


def git_commit():
    git = pin.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload: str, seed: int, cfg) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "config": cfg.to_dict(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in pin.THREAD_ENV},
        "commit": git_commit(),
    }


def setup_probe(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(pin.HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


def timed_round(trainer) -> float:
    t0 = time.perf_counter()
    trainer.run_round(len(trainer.reports))
    return time.perf_counter() - t0


def enough(t_start: float, seconds: float, rounds: int, min_rounds: int) -> bool:
    elapsed = time.perf_counter() - t_start
    return elapsed >= CAP_S or (elapsed >= seconds and rounds >= min_rounds)


def ledger_verify_s(chain) -> float:
    """One full ``Chain.verify`` pass, in seconds per block."""
    t0 = time.perf_counter()
    if not chain.verify():
        raise RuntimeError("ledger chain does not verify")
    return (time.perf_counter() - t0) / (len(chain) - 1)


def run_untraced(workload: str, seed: int, seconds: float):
    cfg = workloads.config(workload, seed)
    trainer, own_setup = workloads.cold_setup(cfg)
    setup = [own_setup] + [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    for _ in range(WARMUP_ROUNDS):
        timed_round(trainer)
    first, verifies0 = len(trainer.reports), len(trainer.verify_times)
    walls = []
    ledger_verifies = []  # spread over the run, like the verify times of zk rounds
    t_start = time.perf_counter()
    while not enough(t_start, seconds, len(walls), MIN_ROUNDS):
        walls.append(timed_round(trainer))
        if trainer.chain is not None and len(walls) % LEDGER_VERIFY_EVERY == 0:
            ledger_verifies.append(ledger_verify_s(trainer.chain))

    gate = workloads.gate(trainer, workloads.run_reference(cfg, len(trainer.reports)))
    timed = trainer.reports[first:]
    accepted = sum(v == workloads.VERDICT_ACCEPTED for r in timed for v in r.verdicts.values())
    if trainer.zk:
        verifies = trainer.verify_times[verifies0:]
        evidence = sum(trainer.proof_sizes)
    else:
        verifies = ledger_verifies
        saved = RESULTS / f"{workload}-seed{seed}-chain.jsonl"
        trainer.chain.save(saved)
        evidence = saved.stat().st_size
    metrics = {
        "round_ms.p90": 1e3 * float(np.percentile(walls, 90)),
        "setup_s": statistics.median(setup),
        "verify_ms.p90": 1e3 * float(np.percentile(verifies, 90)),
        "evidence_bytes_per_round": evidence / len(trainer.reports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_share": (gate.attempted - gate.failed) / gate.attempted,
    }
    extra = {
        # the medians and the mean rate move by about 20% from run to run
        # with the host's speed phases, so they are reported here and not as
        # bounded metrics
        "unbounded": {
            "round_ms.p50": (1e3 * float(np.median(walls)), "ms"),
            "verify_ms.p50": (1e3 * float(np.median(verifies)), "ms"),
            "samples_per_s": (cfg.batch_size * accepted / sum(walls), "1/s"),
        },
        "rounds": len(trainer.reports),
        "rounds_timed": len(walls),
        "setup_samples_s": setup,
        "final_eval_loss": trainer.reports[-1].eval_loss,
    }
    return cfg, gate, metrics, extra, None


def run_traced(workload: str, seed: int, seconds: float):
    cfg = workloads.config(workload, seed)
    tracer = spans.Tracer()
    with spans.patched(tracer, spans.setup_hooks()):
        trainer, _ = workloads.cold_setup(cfg)
    for _ in range(WARMUP_ROUNDS):
        timed_round(trainer)
    hooks = spans.round_hooks()
    untraced = []
    t_start = time.perf_counter()
    # alternate, so that drift in machine speed hits both kinds of round alike
    while not enough(t_start, seconds, len(untraced), MIN_TRACE_ROUNDS):
        untraced.append(timed_round(trainer))
        with spans.patched(tracer, hooks), tracer.span(spans.ROUND):
            trainer.run_round(len(trainer.reports))

    gate = workloads.gate(trainer, workloads.run_reference(cfg, len(trainer.reports)))
    metrics = spans.layer_metrics(tracer.spans)
    traced = [s.duration for s in tracer.spans if s.name == spans.ROUND]
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["nn.eval_loss_r40"] = trainer.reports[min(EVAL_ROUND, len(trainer.reports)) - 1].eval_loss
    extra = {"rounds": len(trainer.reports), "rounds_traced": len(traced)}
    return cfg, gate, metrics, extra, tracer.spans


def emit(args, cfg, gate, metrics, extra, span_list) -> None:
    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    want = {n for n, (_, k) in declared.items() if k == kind}
    if set(metrics) != want:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ want)}")
    line = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": declared[n][0]} for n in sorted(metrics)},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"metadata": metadata(args.workload, args.seed, cfg), "result": line,
              "gate_problems": gate.problems[:20], **extra}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if span_list is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as f:
            for i, s in enumerate(span_list):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "note": s.note}) + "\n")
    for n, m in line["metrics"].items():
        print(f"{args.workload:18s} {n:32s} {m['value']:14.6g} {m['unit']}")
    for n, (v, unit) in extra.get("unbounded", {}).items():
        print(f"{args.workload:18s} {n:32s} {v:14.6g} {unit} (not bounded)")
    for p in gate.problems[:20]:
        print(f"{args.workload}: correctness gate: {p}", file=sys.stderr)
    print(json.dumps(line), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for w in workloads.WORKLOADS
        ]
        return max(codes)
    RESULTS.mkdir(exist_ok=True)
    run = run_traced if args.trace else run_untraced
    cfg, gate, metrics, extra, span_list = run(args.workload, args.seed, args.seconds)
    emit(args, cfg, gate, metrics, extra, span_list)
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
