"""Command-line entry point.

Subcommands:
  train           run protocol rounds, write the run log and checkpoint
  bench           run the benchmark grid and emit CSV/JSON tables
  prove           build a proof for a statement/witness file pair
  verify          check a proof file against a statement file
  ledger verify   check a persisted hash chain
  circuit export  dump a circuit description as JSON
  backends        list the proving backends

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 runtime
error.  A JSON input file (--config, --circuit, --statement, --witness)
that is not UTF-8, not JSON or nested too deeply is a usage error.
Configuration comes from an optional JSON file plus flag
overrides; the fully resolved config is echoed as a run manifest so any
run can be reproduced from its output directory alone, together with the
host's numpy, BLAS, OpenBLAS kernel and SIMD dispatch, on which the float
results depend.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .backend import (
    BACKEND_IDS,
    DecodeError,
    Proof,
    Statement,
    Verdict,
    get_backend,
    load_verifying_key,
)
from .bench import BenchError, emit, format_summary, run_benchmark, summarize
from .circuit import BUILDERS, CircuitError, ConstraintSystem, from_spec, generate_witness
from .config import MODES, ConfigError, SimConfig
from .field import P
from .ledger import Chain
from .nn import save_checkpoint
from .protocol import Trainer

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAILED = 2
EXIT_RUNTIME = 3


def _read_json(path: str):
    """The value of a JSON input file.  A file that is not UTF-8, not JSON,
    or nested too deeply to decode is a usage error."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not JSON: {e}") from None
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply") from None


def _load_config(args) -> SimConfig:
    base = {}
    if getattr(args, "config", None):
        base = _read_json(args.config)
        if not isinstance(base, dict):
            raise ConfigError(f"{args.config}: expected a JSON object")
    cfg = SimConfig.from_dict(base)
    overrides = {}
    for key in ("mode", "seed", "out_dir", "epochs", "rounds", "eta", "reps"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if getattr(args, "clients", None) is not None:
        overrides["num_clients"] = args.clients
    if getattr(args, "m", None) is not None:
        overrides["m"] = args.m
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def _host() -> dict:
    """What float results depend on besides the config: numpy, its BLAS, the
    kernel OpenBLAS picked (None if unnamed) and numpy's SIMD dispatch."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    try:
        corename = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    except (AttributeError, OSError):
        kernel = None
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "openblas_kernel": kernel, "cpu_features": config.get("SIMD Extensions")}


def _write_manifest(cfg: SimConfig, out: Path) -> None:
    manifest = {"version": __version__, "config": cfg.to_dict(), "host": _host()}
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out:
        _write_manifest(cfg, out)
    trainer = Trainer(cfg)
    reports = trainer.train()
    if out:
        save_checkpoint(trainer.model, str(out), "model",
                        extra={"quant": trainer.wq_params.to_dict()})
    summary = {
        "rounds": len(reports),
        "final_loss": reports[-1].loss if reports else None,
        "final_eval_accuracy": reports[-1].eval_accuracy if reports else None,
        "verdicts": {
            v: sum(1 for r in reports for vv in r.verdicts.values() if vv == v)
            for v in ("Accepted", "RejectedProof", "MissingProof")
        },
        "stalled_rounds": sum(1 for r in reports if r.stalled),
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for r in reports:
            loss = f"{r.loss:.4f}" if r.loss is not None else "-"
            print(f"round {r.round_id}: loss={loss} verdicts={r.verdicts}")
        print(f"final loss: {summary['final_loss']}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = _load_config(args)
    if args.m is not None:
        cfg = replace(cfg, m_grid=[args.m])
    if args.clients is not None:
        cfg = replace(cfg, client_grid=[args.clients], real_epoch_clients=[args.clients])
    # an interrupted run raises out of here and writes nothing, so the
    # tables of an earlier run in out_dir survive
    records = run_benchmark(cfg, include_real_epoch=not args.no_real_epoch)
    stats = summarize(records)
    if cfg.out_dir:
        _write_manifest(cfg, Path(cfg.out_dir))
        paths = emit(records, cfg.out_dir, cfg)
        if not args.json:
            print(f"wrote {', '.join(str(p) for p in paths)}")
    if args.json:
        print(json.dumps({"|".join(map(str, k)): v for k, v in stats.items()}, indent=2))
    else:
        print(format_summary(stats))
    return EXIT_OK


def _circuit(spec) -> ConstraintSystem:
    """The circuit of a decoded spec; a spec from_spec refuses is a usage error."""
    try:
        return from_spec(spec)
    except CircuitError as e:
        raise ConfigError(str(e)) from None


def _read_ints(path: str) -> list:
    """A JSON file holding a list of integers (no bools, floats or others),
    each of absolute value below P: a larger one would be reduced mod P,
    and a statement other than the file's proved or verified."""
    values = _read_json(path)
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise ConfigError(f"{path}: expected a JSON list of integers")
    big = next((v for v in values if abs(v) >= P), None)
    if big is not None:
        raise ConfigError(f"{path}: integer {big} lies outside (-P, P), P the field modulus")
    return values


def _cmd_prove(args) -> int:
    circuit = _circuit(_read_json(args.circuit))
    statement = Statement(_read_ints(args.statement))
    witness = generate_witness(circuit, statement, _read_ints(args.witness))
    backend = get_backend(args.backend)
    pair = backend.setup(circuit, args.setup_seed.encode())
    proof = backend.prove(pair.proving_key, statement, witness)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "proof.bin").write_bytes(proof.to_bytes())
    (out / "vk.bin").write_bytes(pair.verifying_key.to_bytes())
    result = {
        "circuit_digest": circuit.digest(),
        "statement_digest": statement.digest(),
        "proof_size": proof.size_bytes,
        "prove_time": proof.prove_time,
        "files": ["proof.bin", "vk.bin"],
    }
    print(json.dumps(result, indent=2) if args.json else
          f"proof written to {out / 'proof.bin'} ({proof.size_bytes} bytes)")
    return EXIT_OK


def _cmd_verify(args) -> int:
    vk = load_verifying_key(Path(args.vk).read_bytes())
    statement = Statement(_read_ints(args.statement))
    proof = Proof.from_bytes(Path(args.proof).read_bytes())
    backend = get_backend(proof.backend)
    verdict = backend.verify(vk, statement, proof)
    if args.json:
        print(json.dumps({"verdict": verdict.value}))
    else:
        print(verdict.value)
    return EXIT_OK if verdict is Verdict.ACCEPT else EXIT_VERIFY_FAILED


def _cmd_ledger_verify(args) -> int:
    chain = Chain.load(args.chain)
    ok = chain.verify()
    if args.json:
        print(json.dumps({"blocks": len(chain), "valid": ok}))
    else:
        print(f"{len(chain)} blocks: {'valid' if ok else 'INVALID'}")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_circuit_export(args) -> int:
    spec = {"kind": args.kind, "m": args.m}
    if args.eta is not None:
        spec["constants"] = {"eta": args.eta}
    circuit = _circuit(spec)
    text = circuit.to_json()
    if not args.compact:
        text = json.dumps(json.loads(text), indent=2)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({circuit.num_wires} wires, "
              f"{circuit.num_constraints} constraints)")
    else:
        print(text)
    return EXIT_OK


def _cmd_backends(args) -> int:
    # every backend runs in pure Python, so each is always available
    print(json.dumps(dict.fromkeys(BACKEND_IDS, True)) if args.json else
          "\n".join(f"{name}: available" for name in BACKEND_IDS))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zksplit",
        description="Verifiable split learning with proof-carrying cut-layer updates",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--mode", choices=MODES)
        p.add_argument("--clients", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--rounds", type=int)
        p.add_argument("--eta", type=int)
        p.add_argument("--out", dest="out_dir")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_train = sub.add_parser("train", help="run training rounds")
    add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_bench = sub.add_parser("bench", help="run the benchmark grid")
    add_common(p_bench)
    p_bench.add_argument("--reps", type=int)
    p_bench.add_argument("--no-real-epoch", action="store_true")
    p_bench.set_defaults(func=_cmd_bench)

    p_prove = sub.add_parser("prove", help="prove a statement from files")
    p_prove.add_argument("--circuit", required=True, help="circuit spec JSON")
    p_prove.add_argument("--statement", required=True, help="statement values JSON")
    p_prove.add_argument("--witness", required=True, help="private input values JSON")
    p_prove.add_argument("--backend", default="mock", choices=["mock", "snark"])
    p_prove.add_argument("--setup-seed", default="setup")
    p_prove.add_argument("--out", required=True)
    p_prove.add_argument("--json", action="store_true")
    p_prove.set_defaults(func=_cmd_prove)

    p_verify = sub.add_parser("verify", help="verify a proof from files")
    p_verify.add_argument("--vk", required=True)
    p_verify.add_argument("--statement", required=True)
    p_verify.add_argument("--proof", required=True)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=_cmd_verify)

    p_ledger = sub.add_parser("ledger", help="ledger operations")
    ledger_sub = p_ledger.add_subparsers(dest="ledger_command", required=True)
    p_lv = ledger_sub.add_parser("verify", help="verify a persisted chain")
    p_lv.add_argument("chain", help="JSON-lines chain file")
    p_lv.add_argument("--json", action="store_true")
    p_lv.set_defaults(func=_cmd_ledger_verify)

    p_circuit = sub.add_parser("circuit", help="circuit operations")
    circuit_sub = p_circuit.add_subparsers(dest="circuit_command", required=True)
    p_ce = circuit_sub.add_parser("export", help="dump a circuit as JSON")
    p_ce.add_argument("--kind", default="composed", choices=list(BUILDERS))
    p_ce.add_argument("--m", type=int, default=4)
    p_ce.add_argument("--eta", type=int)
    p_ce.add_argument("--compact", action="store_true",
                      help="print the canonical JSON whose SHA-256 is the circuit digest")
    p_ce.add_argument("--out")
    p_ce.set_defaults(func=_cmd_circuit_export)

    p_back = sub.add_parser("backends", help="list backend availability")
    p_back.add_argument("--json", action="store_true")
    p_back.set_defaults(func=_cmd_backends)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, ValueError, BenchError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE if isinstance(e, ConfigError) else EXIT_RUNTIME
    except (OSError, DecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
