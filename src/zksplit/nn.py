"""Dense split network: client half up to the cut layer, server half after.

The client runs its layers on raw inputs and emits the cut-layer
activations ("smashed" batch); the server finishes the forward pass,
computes softmax cross-entropy, and returns per-sample gradients with
respect to the smashed batch.  Hidden layers are ReLU, the cut layer and
the logit layer are linear.

Gradient conventions: server_step and client_backward return gradients
summed over the batch (the per-sample sum), and sgd_step applies
w <- w - lr * g / batch_size.  Reported loss values are per-sample means.
All arithmetic is float64 so finite-difference checks can run at tight
tolerances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence

import numpy as np


class NumericError(ValueError):
    pass


class ShapeError(ValueError):
    pass


@dataclass
class DenseStack:
    """A stack of dense layers; activations[i] applies to layer i's output."""

    weights: List[np.ndarray]
    biases: List[np.ndarray]
    activations: List[str]

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ShapeError("layer lists must have equal length")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ShapeError(f"layer {i} shapes do not chain")
            if i and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ShapeError(f"layer {i} input width mismatch")
        for a in self.activations:
            if a not in ("relu", "linear"):
                raise ShapeError(f"unknown activation {a!r}")

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "DenseStack":
        return DenseStack(
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            list(self.activations),
        )


@dataclass
class SplitModel:
    client: DenseStack
    server: DenseStack
    cut_width: int
    lr: float

    def __post_init__(self) -> None:
        if self.client.out_dim != self.cut_width or self.server.in_dim != self.cut_width:
            raise ShapeError("client output width and server input width must equal cut_width")
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def copy(self) -> "SplitModel":
        return SplitModel(self.client.copy(), self.server.copy(), self.cut_width, self.lr)


@dataclass
class Batch:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or self.y.ndim != 1 or self.x.shape[0] != self.y.shape[0]:
            raise ShapeError("batch shapes do not match")
        if self.x.shape[0] < 1:
            raise ShapeError("batch must contain at least one sample")

    @property
    def size(self) -> int:
        return self.x.shape[0]


@dataclass
class SmashedBatch:
    z: np.ndarray


@dataclass
class GradientBatch:
    g_z: np.ndarray
    loss: float


def init_stack(dims: Sequence[int], activations: Sequence[str], rng: np.random.Generator) -> DenseStack:
    weights = []
    biases = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        gain = 2.0 if activations[i] == "relu" else 1.0  # He for relu, Xavier for linear
        weights.append(rng.normal(0.0, np.sqrt(gain / fan_in), size=(dims[i], dims[i + 1])))
        biases.append(np.zeros(dims[i + 1]))
    return DenseStack(weights, biases, list(activations))


def init_split_model(
    input_dim: int,
    client_hidden: Sequence[int],
    cut_width: int,
    server_hidden: Sequence[int],
    num_classes: int,
    lr: float,
    seed: int,
) -> SplitModel:
    """Fresh model: ReLU hidden layers, linear cut layer, linear logits."""
    rng = np.random.default_rng(seed)
    c_dims = [input_dim, *client_hidden, cut_width]
    c_act = ["relu"] * len(client_hidden) + ["linear"]
    s_dims = [cut_width, *server_hidden, num_classes]
    s_act = ["relu"] * len(server_hidden) + ["linear"]
    return SplitModel(
        client=init_stack(c_dims, c_act, rng),
        server=init_stack(s_dims, s_act, rng),
        cut_width=cut_width,
        lr=lr,
    )


def _forward_cached(stack: DenseStack, x: np.ndarray):
    a = x
    pres = []
    acts = [x]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite checked by callers
        for w, b, act in zip(stack.weights, stack.biases, stack.activations):
            if a.shape[1] != w.shape[0]:
                raise ShapeError(f"input width {a.shape[1]} != layer width {w.shape[0]}")
            pre = a @ w + b
            a = np.maximum(pre, 0.0) if act == "relu" else pre
            pres.append(pre)
            acts.append(a)
    return a, pres, acts


def _backward(stack: DenseStack, pres, acts, d_out: np.ndarray):
    """Backprop d_out (batch rows) through the stack; grads are batch sums."""
    g_w = [None] * len(stack.weights)
    g_b = [None] * len(stack.biases)
    d = d_out
    for i in range(len(stack.weights) - 1, -1, -1):
        if stack.activations[i] == "relu":
            d = d * (pres[i] > 0.0)
        g_w[i] = acts[i].T @ d
        g_b[i] = d.sum(axis=0)
        d = d @ stack.weights[i].T
    return g_w, g_b, d


def client_forward(client: DenseStack, batch: Batch) -> SmashedBatch:
    z, _, _ = _forward_cached(client, batch.x)
    if not np.all(np.isfinite(z)):
        raise NumericError("numeric blowup")
    return SmashedBatch(z=z)


def server_loss(server: DenseStack, smashed: SmashedBatch, labels: np.ndarray):
    """Forward from the cut layer and softmax cross-entropy, with no gradients.

    Returns (mean per-sample loss, softmax probabilities, and the layer
    pre-activations and activations that _backward takes).
    """
    z = smashed.z
    if z.shape[1] != server.in_dim:
        raise ShapeError("smashed width does not match server input width")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ShapeError("labels do not match batch size")
    if labels.min() < 0 or labels.max() >= server.out_dim:
        raise ShapeError("label outside class count")
    logits, pres, acts = _forward_cached(server, z)
    if not np.all(np.isfinite(logits)):
        raise NumericError("numeric blowup")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = -shifted[np.arange(z.shape[0]), labels] + np.log(exp.sum(axis=1))
    return float(losses.mean()), probs, pres, acts


def server_step(server: DenseStack, smashed: SmashedBatch, labels: np.ndarray):
    """Forward from the cut layer, then loss and gradients.

    Returns (mean per-sample loss, (g_w, g_b) summed over the batch,
    GradientBatch with per-sample rows dL_i/dz_i).
    """
    loss, probs, pres, acts = server_loss(server, smashed, labels)
    d_logits = probs.copy()
    d_logits[np.arange(len(probs)), np.asarray(labels)] -= 1.0  # dL_i/dlogits, per sample
    g_w, g_b, g_z = _backward(server, pres, acts, d_logits)
    return loss, (g_w, g_b), GradientBatch(g_z=g_z, loss=loss)


def client_backward(client: DenseStack, batch: Batch, grad: GradientBatch):
    """Chain rule through the client layers; returns (g_w, g_b) batch sums."""
    _, pres, acts = _forward_cached(client, batch.x)
    if grad.g_z.shape != (batch.size, client.out_dim):
        raise ShapeError("gradient shape does not match client output")
    g_w, g_b, _ = _backward(client, pres, acts, grad.g_z)
    return g_w, g_b


def sgd_step(stack: DenseStack, grads, lr: float, batch_size: int) -> DenseStack:
    """w <- w - lr * g / batch_size, returning a new stack."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    g_w, g_b = grads
    if len(g_w) != len(stack.weights):
        raise ShapeError("gradient set does not match stack")
    inv = lr / batch_size
    new_w = [w - inv * g for w, g in zip(stack.weights, g_w)]
    new_b = [b - inv * g for b, g in zip(stack.biases, g_b)]
    return DenseStack(new_w, new_b, list(stack.activations))


# -- synthetic data ----------------------------------------------------------


def make_blobs(count: int, dim: int, num_classes: int, seed: int,
               spread: float = 4.0, noise: float = 0.6):
    """Gaussian class blobs: well separated, so losses fall fast."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(num_classes, dim))
    y = rng.integers(0, num_classes, size=count)
    x = means[y] + rng.normal(0.0, noise, size=(count, dim))
    return x, y


def partition_iid(x: np.ndarray, y: np.ndarray, num_clients: int, seed: int):
    """Seeded shuffle, then equal contiguous shards per client."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(y))
    shards = np.array_split(order, num_clients)
    return [(x[s], y[s]) for s in shards]


def batch_stream(x: np.ndarray, y: np.ndarray, batch_size: int, seed: int) -> Iterator[Batch]:
    """Endless shuffled batches; each pass reshuffles deterministically."""
    rng = np.random.default_rng(seed)
    n = len(y)
    while True:
        order = rng.permutation(n)
        for start in range(0, n - batch_size + 1, batch_size):
            sel = order[start : start + batch_size]
            yield Batch(x=x[sel], y=y[sel])


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(model: SplitModel, out_dir: str, name: str = "model",
                    extra: dict | None = None) -> Path:
    """JSON manifest plus a sidecar .bin of little-endian float64 arrays."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    arrays = []
    spec = {"client": [], "server": []}
    for side, stack in (("client", model.client), ("server", model.server)):
        for w, b, act in zip(stack.weights, stack.biases, stack.activations):
            spec[side].append({"w_shape": list(w.shape), "b_shape": list(b.shape), "act": act})
            arrays.extend([w, b])
    flat = np.concatenate([a.reshape(-1) for a in arrays]).astype("<f8")
    bin_name = f"{name}.bin"
    (out / bin_name).write_bytes(flat.tobytes())
    manifest = {
        "layers": spec,
        "cut_width": model.cut_width,
        "lr": model.lr,
        "bin": bin_name,
        "dtype": "<f8",
    }
    if extra:
        manifest["extra"] = extra
    path = out / f"{name}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def load_checkpoint(manifest_path: str) -> SplitModel:
    path = Path(manifest_path)
    manifest = json.loads(path.read_text())
    flat = np.frombuffer((path.parent / manifest["bin"]).read_bytes(), dtype="<f8")
    pos = 0
    stacks = {}
    for side in ("client", "server"):
        weights, biases, acts = [], [], []
        for layer in manifest["layers"][side]:
            wn = int(np.prod(layer["w_shape"]))
            weights.append(flat[pos : pos + wn].reshape(layer["w_shape"]).copy())
            pos += wn
            bn = layer["b_shape"][0]
            biases.append(flat[pos : pos + bn].copy())
            pos += bn
            acts.append(layer["act"])
        stacks[side] = DenseStack(weights, biases, acts)
    return SplitModel(
        client=stacks["client"],
        server=stacks["server"],
        cut_width=int(manifest["cut_width"]),
        lr=float(manifest["lr"]),
    )
