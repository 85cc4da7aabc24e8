"""Dense split network: client half up to the cut layer, server half after.

The client runs its layers on raw inputs and emits the cut-layer
activations ("smashed" batch); the server finishes the forward pass,
computes softmax cross-entropy, and returns per-sample gradients with
respect to the smashed batch.  Hidden layers are ReLU, the cut layer and
the logit layer are linear.

client_forward returns a ClientPass: the smashed batch, which is all the
server receives, and the layer activations (the raw inputs first), which
stay on the client.  client_backward differentiates that recorded pass,
so a client turn runs its forward pass once.  Each layer allocates one
output buffer: the bias is added into the array the matmul returns, and
ReLU clips that array in place.  A ReLU's mask is read from its output
(x > 0 exactly when max(x, 0) > 0), so no pre-activation is kept.

Gradient conventions: server_step and client_backward return gradients
summed over the batch (the per-sample sum), and sgd_step applies
w <- w - lr * g / batch_size.  Reported loss values are per-sample means.
All arithmetic is float64 so finite-difference checks can run at tight
tolerances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Sequence

import numpy as np
# numpy imports numpy.random on first use; import it here, not inside a timed set-up
import numpy.random  # noqa: F401


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

    def digest(self) -> str:
        """SHA-256 of every weight and bias, client side first, as stored."""
        h = hashlib.sha256()
        for stack in (self.client, self.server):
            for a in stack.weights + stack.biases:
                h.update(a.tobytes())
        return h.hexdigest()


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
class ClientPass:
    """One client forward pass: ``smashed`` goes to the server; ``acts``,
    the raw inputs followed by every layer's output, stay with the client
    for client_backward."""

    smashed: SmashedBatch
    acts: List[np.ndarray]


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
    """The stack's output and its activations, the inputs first."""
    a = x
    acts = [x]
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite checked by callers
        for w, b, act in zip(stack.weights, stack.biases, stack.activations):
            if a.shape[1] != w.shape[0]:
                raise ShapeError(f"input width {a.shape[1]} != layer width {w.shape[0]}")
            a = a @ w
            a += b
            if act == "relu":
                np.maximum(a, 0.0, out=a)
            acts.append(a)
    return a, acts


def _backward(stack: DenseStack, acts, d_out: np.ndarray):
    """Backprop d_out (batch rows) through the stack; grads are batch sums.

    Also returns d, the gradient at the first layer's pre-activation; the
    gradient for the stack's inputs is d @ weights[0].T, which only the
    server needs (the client's inputs are raw data).
    """
    g_w = [None] * len(stack.weights)
    g_b = [None] * len(stack.biases)
    d = d_out
    for i in range(len(stack.weights) - 1, -1, -1):
        if i < len(stack.weights) - 1:
            d = d @ stack.weights[i + 1].T
        if stack.activations[i] == "relu":
            d = d * (acts[i + 1] > 0.0)
        g_w[i] = acts[i].T @ d
        g_b[i] = d.sum(axis=0)
    return g_w, g_b, d


def client_forward(client: DenseStack, batch: Batch) -> ClientPass:
    z, acts = _forward_cached(client, batch.x)
    if not np.all(np.isfinite(z)):
        raise NumericError("numeric blowup")
    return ClientPass(SmashedBatch(z=z), acts)


def server_loss(server: DenseStack, smashed: SmashedBatch, labels: np.ndarray):
    """Forward from the cut layer and softmax cross-entropy, with no gradients.

    Returns (mean per-sample loss, softmax probabilities, and the layer
    activations that _backward takes).
    """
    z = smashed.z
    if z.shape[1] != server.in_dim:
        raise ShapeError("smashed width does not match server input width")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise ShapeError("labels do not match batch size")
    if labels.min() < 0 or labels.max() >= server.out_dim:
        raise ShapeError("label outside class count")
    logits, acts = _forward_cached(server, z)
    if not np.all(np.isfinite(logits)):
        raise NumericError("numeric blowup")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    losses = -shifted[np.arange(z.shape[0]), labels] + np.log(exp.sum(axis=1))
    return float(losses.mean()), probs, acts


def server_step(server: DenseStack, smashed: SmashedBatch, labels: np.ndarray):
    """Forward from the cut layer, then loss and gradients.

    Returns (mean per-sample loss, (g_w, g_b) summed over the batch,
    GradientBatch with per-sample rows dL_i/dz_i).
    """
    loss, probs, acts = server_loss(server, smashed, labels)
    d_logits = probs.copy()
    d_logits[np.arange(len(probs)), np.asarray(labels)] -= 1.0  # dL_i/dlogits, per sample
    g_w, g_b, d = _backward(server, acts, d_logits)
    return loss, (g_w, g_b), GradientBatch(g_z=d @ server.weights[0].T, loss=loss)


def client_backward(client: DenseStack, forward: ClientPass, grad: GradientBatch):
    """Chain rule through the client layers of ``forward``, the pass
    client_forward ran on ``client``; returns (g_w, g_b) batch sums."""
    if grad.g_z.shape != forward.smashed.z.shape:
        raise ShapeError("gradient shape does not match client output")
    g_w, g_b, _ = _backward(client, forward.acts, grad.g_z)
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
               spread: float = 4.0, noise: float = 0.6, sample_seed: int | None = None):
    """Gaussian class blobs: well separated, so losses fall fast.

    ``seed`` draws the class means; ``sample_seed``, if given, draws the
    labels and samples instead, so other seeds give more samples of the
    same task.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, spread, size=(num_classes, dim))
    if sample_seed is not None:
        rng = np.random.default_rng(sample_seed)
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
    """Endless shuffled batches; each pass reshuffles deterministically.
    Raises ValueError when the samples cannot fill one batch."""
    rng = np.random.default_rng(seed)
    n = len(y)
    if n < batch_size:
        raise ValueError(f"{n} samples cannot fill a batch of {batch_size}")
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
