"""Run configuration shared by the trainer, the benchmark harness, and the CLI.

Every default lives here so a run manifest can echo the fully resolved
configuration and reproduce the run from it alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List, Optional, Union, get_args, get_origin, get_type_hints

from .circuit import CircuitConstants, CircuitError

MODES = ("zk-snark", "zk-mock", "blockchain", "none")

MODE_BACKENDS = {"zk-snark": "snark", "zk-mock": "mock"}


class ConfigError(ValueError):
    pass


def _is(value, kind) -> bool:
    """Whether value has the declared type kind: a bool is neither an int
    nor a float, and an int is a float."""
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_type(name: str, value, hint) -> None:
    """Raise ConfigError naming the field unless value has type hint, one of
    T, Optional[T] and List[T] for a plain class T."""
    if get_origin(hint) is Union:  # Optional[T]
        if value is None:
            return
        hint, _ = get_args(hint)
    if get_origin(hint) is list:
        (elem,) = get_args(hint)
        if not (isinstance(value, list) and all(_is(v, elem) for v in value)):
            raise ConfigError(f"{name} must be a list of {elem.__name__}, not {value!r}")
    elif not _is(value, hint):
        raise ConfigError(f"{name} must be {hint.__name__}, not {value!r}")


@dataclass
class SimConfig:
    mode: str = "zk-mock"
    num_clients: int = 2
    m: int = 500
    batches_per_epoch: int = 8
    batch_size: int = 32
    epochs: int = 1
    rounds: Optional[int] = None  # training rounds; defaults to epochs * batches_per_epoch
    seed: int = 0
    eta: int = 22
    out_dir: Optional[str] = None

    # model / data
    lr: float = 0.05
    input_dim: int = 16
    client_hidden: List[int] = field(default_factory=list)
    server_hidden: List[int] = field(default_factory=lambda: [16])
    num_classes: int = 4
    samples_per_client: int = 256
    data_partitions: Optional[int] = None  # defaults to num_clients
    blob_spread: float = 1.5
    blob_noise: float = 0.5

    # quantization ranges
    w_range: float = 4.0
    k_range: float = 2.0

    # protocol options
    suspect_threshold: int = 3
    tamper_clients: List[int] = field(default_factory=list)

    # bench options
    reps: int = 5
    client_grid: List[int] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    m_grid: List[int] = field(default_factory=lambda: [500, 700, 1000])
    mode_grid: List[str] = field(default_factory=lambda: ["zk-mock", "blockchain", "none"])
    real_epoch_clients: List[int] = field(default_factory=lambda: [1, 2])
    real_epoch_batches: int = 8

    def __post_init__(self) -> None:
        for name, hint in get_type_hints(type(self)).items():
            _check_type(name, getattr(self, name), hint)
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        for name in ("num_clients", "m", "batches_per_epoch", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.num_clients > 32:
            raise ConfigError("num_clients is capped at 32")
        try:
            CircuitConstants(eta=self.eta)
        except CircuitError as e:
            raise ConfigError(str(e)) from None
        if self.rounds is None:
            self.rounds = self.epochs * self.batches_per_epoch
        if self.data_partitions is None:
            self.data_partitions = self.num_clients
        if self.data_partitions < self.num_clients:
            raise ConfigError("data_partitions must cover all clients")
        if self.samples_per_client < self.batch_size:
            raise ConfigError("samples_per_client must be at least batch_size")
        if not all(0 <= c < self.num_clients for c in self.tamper_clients):
            raise ConfigError(f"tamper_clients must be in range({self.num_clients})")
        if self.suspect_threshold < 1:
            raise ConfigError("suspect_threshold must be >= 1")
        if self.reps < 1:
            raise ConfigError("reps must be >= 1")
        for md in self.mode_grid:
            if md not in MODES:
                raise ConfigError(f"mode_grid entry {md!r} invalid")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)
