"""Dense multilayer networks with manual backprop, an Adam optimizer, and a
binary checkpoint format.

Shared by the SAC agent and both toy judges. Everything is plain numpy with
float64 parameters so that gradients can be validated against central finite
differences. Each network holds its parameters in one vector, `Mlp.flat`, in
checkpoint order; gradients, Adam moments, target averaging, digests and
checkpoint bodies all work on vectors with that layout.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

ACTIVATIONS = ("identity", "tanh", "relu")

CHECKPOINT_MAGIC = b"RLS3NET1"


class DimensionError(ValueError):
    """Input or gradient shape incompatible with the network."""


class StaleCacheError(RuntimeError):
    """backward() called with a tape that holds no forward pass."""


def _act(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    if name == "relu":
        return np.maximum(z, 0.0)
    raise ValueError(f"unknown activation {name!r}")


def _act_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (z > 0.0).astype(z.dtype)
    raise ValueError(f"unknown activation {name!r}")


class Mlp:
    """Fully connected network. Weights are (out, in) matrices, one activation
    tag per layer. All parameters live in one float64 vector, `flat`: each
    layer's weights row-major, then that layer's biases. `weights`, `biases`
    and params() are views into it, so `flat` must only be written in place.
    The net keeps no activations: a forward() that will be differentiated
    records them on a tape its caller owns and hands to backward().
    """

    def __init__(
        self,
        layer_sizes: list[int],
        activations: list[str] | None = None,
        seed: int | np.random.SeedSequence = 0,
    ):
        if len(layer_sizes) < 2 or any(int(s) <= 0 for s in layer_sizes):
            raise ValueError("layer_sizes must be >= 2 positive integers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        n_layers = len(self.layer_sizes) - 1
        if activations is None:
            activations = ["tanh"] * (n_layers - 1) + ["identity"]
        if len(activations) != n_layers:
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"unknown activation {a!r}")
        self.activations = list(activations)

        rng = np.random.default_rng(seed)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.flat = np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs))
        self.weights, self.biases = self._split(self.flat)
        for w in self.weights:
            # uniform fan-in scaling; biases start at zero
            bound = 1.0 / np.sqrt(w.shape[1])
            w[...] = rng.uniform(-bound, bound, size=w.shape)

    def _split(self, vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weight, bias) views of a vector laid out like `flat`."""
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(vec[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
            pos += fan_out * fan_in
            biases.append(vec[pos : pos + fan_out])
            pos += fan_out
        return weights, biases

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    def params(self) -> list[np.ndarray]:
        """Views into `flat`: W0, b0, W1, b1, ..."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Evaluate the network on a single input (n_in,) or a batch (B, n_in).
        Pass a list as `tape` to record the activations backward() needs;
        without one, each layer's intermediates are freed as the pass goes."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise DimensionError(
                f"expected input width {self.n_in}, got shape {x.shape}"
            )
        pre: list[np.ndarray] = []
        post: list[np.ndarray] = [x]
        h = x
        for w, b, act in zip(self.weights, self.biases, self.activations):
            z = h @ w.T + b
            h = _act(act, z)
            if tape is not None:
                pre.append(z)
                post.append(h)
        if tape is not None:
            tape.append((pre, post, single))
        return h[0] if single else h

    def backward(self, grad_out: np.ndarray, tape: list) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate a loss gradient w.r.t. the output of the last forward()
        recorded on `tape`.

        Returns (parameter gradient, a vector laid out like `flat`; gradient
        w.r.t. the input). Gradients are summed over the batch; scale grad_out
        by 1/B for a mean loss.
        """
        if not tape:
            raise StaleCacheError("no forward pass recorded on the tape")
        pre, post, single = tape[-1]
        g = np.asarray(grad_out, dtype=np.float64)
        if single:
            g = g[None, :]
        if g.shape != (post[-1].shape[0], self.n_out):
            raise DimensionError(
                f"expected gradient shape {(post[-1].shape[0], self.n_out)}, got {g.shape}"
            )
        grad = np.empty_like(self.flat)
        grad_w, grad_b = self._split(grad)
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * _act_grad(self.activations[i], pre[i], post[i + 1])
            np.matmul(g.T, post[i], out=grad_w[i])
            g.sum(axis=0, out=grad_b[i])
            g = g @ self.weights[i]
        grad_in = g[0] if single else g
        return grad, grad_in

    def digest(self) -> str:
        return hashlib.sha256(self.flat.tobytes()).hexdigest()

    def copy(self) -> "Mlp":
        other = Mlp(self.layer_sizes, self.activations, seed=0)
        other.flat[:] = self.flat
        return other

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


@dataclass
class Adam:
    """Adaptive-moment optimizer over one parameter vector; the first and
    second moments are vectors of the same shape."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    skipped: int = 0
    _m: np.ndarray | None = None
    _v: np.ndarray | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def step(self, param: np.ndarray, grad: np.ndarray) -> bool:
        """Update param in place. Returns False (and skips) on a non-finite grad."""
        if grad.shape != param.shape:
            raise DimensionError("gradient shape mismatch")
        if self._m is None:
            self._m = np.zeros_like(param)
            self._v = np.zeros_like(param)
        elif self._m.shape != param.shape:
            raise DimensionError("optimizer moments do not mirror the parameters")
        if not np.isfinite(grad).all():
            self.skipped += 1
            return False
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        param -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True


class NetOptimizer:
    """Adam bound to one Mlp's parameter vector."""

    def __init__(self, net: Mlp, lr: float, **kwargs):
        self.net = net
        self.adam = Adam(lr=lr, **kwargs)

    def step(self, grad: np.ndarray) -> bool:
        return self.adam.step(self.net.flat, grad)


# --- checkpoint format -------------------------------------------------------
# magic "RLS3NET1", then little-endian u64 fields:
#   n_sizes, sizes..., activation codes (one per layer),
# then the body: Mlp.flat as little-endian f64, i.e. per layer W row-major
# then b.

_ACT_CODES = {name: i for i, name in enumerate(ACTIVATIONS)}


def save_net(net: Mlp, path) -> None:
    fields = [len(net.layer_sizes), *net.layer_sizes, *(_ACT_CODES[a] for a in net.activations)]
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack(f"<{len(fields)}Q", *fields))
        f.write(net.flat.astype("<f8", copy=False).tobytes())


def load_net(path) -> Mlp:
    with open(path, "rb") as f:
        blob = f.read()
    magic = blob[: len(CHECKPOINT_MAGIC)]
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    pos = len(CHECKPOINT_MAGIC)
    if len(blob) < pos + 8:
        raise ValueError("checkpoint header truncated")
    (n_sizes,) = struct.unpack_from("<Q", blob, pos)
    if n_sizes < 2:
        raise ValueError(f"checkpoint declares {n_sizes} layer sizes, need at least 2")
    n_fields = 2 * n_sizes - 1  # sizes, then one activation code per layer
    pos += 8
    if len(blob) < pos + 8 * n_fields:
        raise ValueError("checkpoint header truncated")
    fields = struct.unpack_from(f"<{n_fields}Q", blob, pos)
    pos += 8 * n_fields
    sizes, codes = fields[:n_sizes], fields[n_sizes:]
    for code in codes:
        if code >= len(ACTIVATIONS):
            raise ValueError(f"unknown activation code {code} in checkpoint")
    body = 8 * sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) - pos != body:
        raise ValueError(
            f"checkpoint body has {len(blob) - pos} bytes, its header needs {body}"
        )
    net = Mlp(list(sizes), [ACTIVATIONS[c] for c in codes], seed=0)
    net.flat[:] = np.frombuffer(blob, dtype="<f8", offset=pos)
    if not net.all_finite():
        raise ValueError("checkpoint contains non-finite parameters")
    return net
