"""Dense multilayer networks with manual backprop, an Adam optimizer, and a
binary checkpoint format.

Shared by the SAC agent and both toy judges. Everything is plain numpy with
float64 parameters so that gradients can be validated against central finite
differences.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

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
    tag per layer. The net keeps no activations: a forward() that will be
    differentiated records them on a tape its caller owns and hands to
    backward().
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
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            # uniform fan-in scaling
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_in(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_out(self) -> int:
        return self.layer_sizes[-1]

    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

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

    def backward(self, grad_out: np.ndarray, tape: list) -> tuple[list[np.ndarray], np.ndarray]:
        """Backpropagate a loss gradient w.r.t. the output of the last forward()
        recorded on `tape`.

        Returns (parameter gradients in params() order, gradient w.r.t. the
        input). Gradients are summed over the batch; scale grad_out by 1/B for
        a mean loss.
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
        grads: list[np.ndarray] = [None] * (2 * len(self.weights))  # type: ignore[list-item]
        for i in range(len(self.weights) - 1, -1, -1):
            g = g * _act_grad(self.activations[i], pre[i], post[i + 1])
            grads[2 * i] = g.T @ post[i]
            grads[2 * i + 1] = g.sum(axis=0)
            g = g @ self.weights[i]
        grad_in = g[0] if single else g
        return grads, grad_in

    def digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for p in self.params():
            h.update(np.ascontiguousarray(p).tobytes())
        return h.hexdigest()

    def copy(self) -> "Mlp":
        other = Mlp(self.layer_sizes, self.activations, seed=0)
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        return other

    def all_finite(self) -> bool:
        return all(np.isfinite(p).all() for p in self.params())


@dataclass
class Adam:
    """Adaptive-moment optimizer over a list of parameter arrays."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    skipped: int = 0
    _m: list[np.ndarray] = field(default_factory=list)
    _v: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def _ensure_slots(self, params: list[np.ndarray]) -> None:
        if not self._m:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        for s, p in zip(self._m, params):
            if s.shape != p.shape:
                raise DimensionError("optimizer slots do not mirror parameters")

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> bool:
        """Update params in place. Returns False (and skips) on non-finite grads."""
        self._ensure_slots(params)
        if len(grads) != len(params):
            raise DimensionError("gradient count mismatch")
        for g, p in zip(grads, params):
            if g.shape != p.shape:
                raise DimensionError("gradient shape mismatch")
        if not all(np.isfinite(g).all() for g in grads):
            self.skipped += 1
            return False
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)
        return True


class NetOptimizer:
    """Adam bound to one Mlp's parameters."""

    def __init__(self, net: Mlp, lr: float, **kwargs):
        self.net = net
        self.adam = Adam(lr=lr, **kwargs)

    def step(self, grads: list[np.ndarray]) -> bool:
        return self.adam.step(self.net.params(), grads)


# --- checkpoint format -------------------------------------------------------
# magic "RLS3NET1", then little-endian u64 fields:
#   n_sizes, sizes..., activation codes (one per layer),
# then per layer: W row-major f64 then b f64.

_ACT_CODES = {name: i for i, name in enumerate(ACTIVATIONS)}


def save_net(net: Mlp, path) -> None:
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<Q", len(net.layer_sizes)))
        for s in net.layer_sizes:
            f.write(struct.pack("<Q", s))
        for a in net.activations:
            f.write(struct.pack("<Q", _ACT_CODES[a]))
        for w, b in zip(net.weights, net.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


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
    shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in) per layer
    body = 8 * sum(fan_out * fan_in + fan_out for fan_out, fan_in in shapes)
    if len(blob) - pos != body:
        raise ValueError(
            f"checkpoint body has {len(blob) - pos} bytes, its header needs {body}"
        )
    net = Mlp(list(sizes), [ACTIVATIONS[c] for c in codes], seed=0)
    values = np.frombuffer(blob, dtype="<f8", offset=pos)
    for i, (fan_out, fan_in) in enumerate(shapes):
        w, values = values[: fan_out * fan_in], values[fan_out * fan_in :]
        net.weights[i] = w.reshape(fan_out, fan_in).copy()
        b, values = values[:fan_out], values[fan_out:]
        net.biases[i] = b.copy()
    if not net.all_finite():
        raise ValueError("checkpoint contains non-finite parameters")
    return net
