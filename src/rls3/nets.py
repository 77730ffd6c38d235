"""Dense multilayer networks with manual backprop, an Adam optimizer, and a
binary checkpoint format.

Shared by the SAC agent and both toy judges. Everything is plain numpy.
Every network has tanh hidden layers and an identity output layer. Each
network holds its parameters in one float64 vector, `Mlp.flat`, in checkpoint
order; gradients, Adam moments, target averaging, digests and checkpoint
bodies all work on vectors with that layout. Parameters, Adam and checkpoints
stay float64, so gradients can be validated against central finite
differences.

A pass computes in the dtype of its input: float32 for a float32 input, float64
for anything else. A float64 pass reads the parameters in place; a float32 pass
computes with a float32 cast of `flat` made at its forward and kept with the
pass, so nothing has to refresh a cached copy when `flat` changes. The SAC
update runs its minibatch passes in float32 (mixed precision: float64 master
weights, float32 arithmetic); acting and the judges run in float64.

A tape (a list the caller owns) holds one forward pass: the input, the
parameters it ran with and each layer's output, plus the scratch arrays of
backward(). The next forward on the tape replaces that pass and, when the
batch and layer sizes and the dtype are unchanged, writes into the same
arrays, so a training loop that keeps its tapes allocates no activation arrays
after its first step. The output forward() returns is one of those arrays: the
tape's next forward overwrites it. backward() computes in the dtype of the
pass and only what its `need` argument asks for: the parameter gradient, the
input gradient, or both.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .datasets import atomic_open

CHECKPOINT_MAGIC = b"RLS3NET1"


class DimensionError(ValueError):
    """Input or gradient shape incompatible with the network."""


class StaleCacheError(RuntimeError):
    """backward() called with a tape that holds no forward pass."""


class _Pass:
    """What a tape holds: the input, the weights and each layer's output of
    one forward pass, and backward()'s scratch arrays, all of one dtype.
    `shape` is (dtype, rows, *layer_sizes); a forward of the same shape on the
    same tape reuses all of them."""

    def __init__(self, shape: tuple):
        dtype, rows, *sizes = shape
        self.shape = shape
        self.dtype = dtype
        self.x: np.ndarray | None = None  # the caller's input, never written
        self.single = False
        self.weights: list[np.ndarray] = []  # what backward() multiplies by
        self.outs = [np.empty((rows, n), dtype) for n in sizes[1:]]
        self._scratch: dict = {}

    def scratch(self, key, shape: tuple[int, ...]) -> np.ndarray:
        buf = self._scratch.get(key)
        if buf is None:
            buf = self._scratch[key] = np.empty(shape, self.dtype)
        return buf


class Mlp:
    """Fully connected network: tanh hidden layers, an identity output layer.
    Weights are (out, in) matrices. All parameters live in one float64 vector,
    `flat`: each layer's weights row-major, then that layer's biases.
    `weights`, `biases` and params() are views into it, so `flat` must only be
    written in place. The net keeps no activations: a forward() that will be
    differentiated records them on a tape its caller owns and hands to
    backward().
    """

    def __init__(
        self,
        layer_sizes: list[int],
        seed: int | np.random.SeedSequence = 0,
        flat: np.ndarray | None = None,
    ):
        """Randomly initialised from `seed`, or, given `flat`, a copy of that
        parameter vector with no random numbers drawn."""
        if len(layer_sizes) < 2 or any(int(s) <= 0 for s in layer_sizes):
            raise ValueError("layer_sizes must be >= 2 positive integers")
        self.layer_sizes = [int(s) for s in layer_sizes]
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.flat = np.zeros(sum(fan_out * (fan_in + 1) for fan_in, fan_out in pairs))
        self.weights, self.biases = self._split(self.flat)
        if flat is not None:
            self.flat[:] = flat
        else:
            rng = np.random.default_rng(seed)
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

    def _cast_params(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Views of `flat` (another dtype's vector) after copying the current
        parameters into it."""
        np.copyto(flat, self.flat)
        return self._split(flat)

    def forward(self, x: np.ndarray, tape: list | None = None) -> np.ndarray:
        """Evaluate the network on a single input (n_in,) or a batch (B, n_in),
        in float32 for a float32 `x` and in float64 otherwise. Pass a list as
        `tape` to record the pass for backward(); the tape keeps this pass
        only, and the returned array is overwritten by the tape's next
        forward. Without a tape, each pass allocates its own arrays. `x` is
        never modified."""
        x = np.asarray(x)
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        x = np.asarray(x, dtype=dtype)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise DimensionError(
                f"expected input width {self.n_in}, got shape {x.shape}"
            )
        outs = [None] * len(self.weights)
        weights, biases = self.weights, self.biases
        if tape is not None:
            shape = (dtype, x.shape[0], *self.layer_sizes)
            if not tape or tape[0].shape != shape:
                tape[:] = [_Pass(shape)]
            rec = tape[0]
            if dtype is not np.float64:
                weights, biases = self._cast_params(rec.scratch("flat", self.flat.shape))
            rec.x, rec.single, rec.weights, outs = x, single, weights, rec.outs
        elif dtype is not np.float64:
            weights, biases = self._cast_params(np.empty(self.flat.shape, dtype))
        h = x
        for i, (w, b, out) in enumerate(zip(weights, biases, outs)):
            if i:  # layer i-1 is a hidden layer: tanh its output
                np.tanh(h, out=h)
            h = np.matmul(h, w.T, out=out)
            h += b
        return h[0] if single else h

    def backward(
        self, grad_out: np.ndarray, tape: list, need: str = "both"
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Backpropagate a loss gradient w.r.t. the output of the forward()
        recorded on `tape`, in that pass's dtype. A float32 pass goes back
        through the cast weights it ran with; a float64 pass reads `flat` in
        place, so `flat` must not change between its forward and backward.

        `need` is "params", "input" or "both". Returns (parameter gradient, a
        vector laid out like `flat`; gradient w.r.t. the input), with None for
        the one not asked for. Both belong to the tape and are overwritten by
        its next backward. Gradients are summed over the batch; scale grad_out
        by 1/B for a mean loss. grad_out is never modified.
        """
        if need not in ("params", "input", "both"):
            raise ValueError(f"need must be 'params', 'input' or 'both', got {need!r}")
        if not tape:
            raise StaleCacheError("no forward pass recorded on the tape")
        rec = tape[0]
        g = np.asarray(grad_out, dtype=rec.dtype)
        if rec.single:
            g = g[None, :]
        if g.shape != rec.outs[-1].shape:
            raise DimensionError(
                f"expected gradient shape {rec.outs[-1].shape}, got {g.shape}"
            )
        grad = None
        if need != "input":
            grad = rec.scratch("grad", self.flat.shape)
            grad_w, grad_b = self._split(grad)
        ins = [rec.x, *rec.outs[:-1]]
        for i in range(len(self.weights) - 1, -1, -1):
            if grad is not None:
                np.matmul(g.T, ins[i], out=grad_w[i])
                g.sum(axis=0, out=grad_b[i])
            if i or need != "params":
                g = np.matmul(g, rec.weights[i], out=rec.scratch(("in", i), ins[i].shape))
            if i:
                # back through hidden layer i-1's tanh, from its output a: 1 - a*a
                d = rec.scratch(("act", i - 1), g.shape)
                np.multiply(ins[i], ins[i], out=d)
                np.subtract(1.0, d, out=d)
                g = np.multiply(g, d, out=d)
        if need == "params":
            return grad, None
        return grad, g[0] if rec.single else g

    def digest(self) -> str:
        return hashlib.sha256(self.flat.tobytes()).hexdigest()

    def copy(self) -> "Mlp":
        return Mlp(self.layer_sizes, flat=self.flat)

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


# Adam's moment decays and denominator guard: Kingma & Ba's defaults
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class Adam:
    """Adaptive-moment optimizer over one parameter vector; the first and
    second moments are vectors of the same shape."""

    lr: float
    step_count: int = 0
    skipped: int = 0
    _m: np.ndarray | None = None
    _v: np.ndarray | None = None
    _scratch: np.ndarray | None = None  # three vectors for step()'s temporaries

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")

    def step(self, param: np.ndarray, grad: np.ndarray) -> bool:
        """Update param in place. Returns False (and skips) on a non-finite grad.
        A float32 grad is widened exactly: the moments and the update are
        computed in param's dtype."""
        if grad.shape != param.shape:
            raise DimensionError("gradient shape mismatch")
        if self._m is None:
            self._m = np.zeros_like(param)
            self._v = np.zeros_like(param)
            self._scratch = np.empty((3, *param.shape))
        elif self._m.shape != param.shape:
            raise DimensionError("optimizer moments do not mirror the parameters")
        if not np.isfinite(grad).all():
            self.skipped += 1
            return False
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - ADAM_BETA1**t
        c2 = 1.0 - ADAM_BETA2**t
        m, v = self._m, self._v
        a, b, g = self._scratch
        np.copyto(g, grad)  # widened once, so no op below mixes dtypes
        # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        # param -= lr*(m/c1) / (sqrt(v/c2) + eps), each in this order, in place
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m += a
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v += a
        np.divide(m, c1, out=a)
        a *= self.lr
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a /= b
        param -= a
        return True


class NetOptimizer:
    """Adam bound to one Mlp's parameter vector."""

    def __init__(self, net: Mlp, lr: float):
        self.net = net
        self.adam = Adam(lr=lr)

    def step(self, grad: np.ndarray) -> bool:
        return self.adam.step(self.net.flat, grad)


# --- checkpoint format -------------------------------------------------------
# magic "RLS3NET1", then little-endian u64 fields:
#   n_sizes, sizes..., activation codes (one per layer: 1 tanh for each
#   hidden layer, then 0 identity),
# then the body: Mlp.flat as little-endian f64, i.e. per layer W row-major
# then b.

_IDENTITY, _TANH = 0, 1


def _activation_codes(n_layers: int) -> tuple[int, ...]:
    return (_TANH,) * (n_layers - 1) + (_IDENTITY,)


def save_net(net: Mlp, path) -> None:
    fields = [len(net.layer_sizes), *net.layer_sizes, *_activation_codes(len(net.weights))]
    with atomic_open(path, "wb") as f:
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
        if code > _TANH:
            raise ValueError(f"unknown activation code {code} in checkpoint")
    if codes != _activation_codes(n_sizes - 1):
        raise ValueError("checkpoint layers must be tanh with an identity output")
    body = 8 * sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if len(blob) - pos != body:
        raise ValueError(
            f"checkpoint body has {len(blob) - pos} bytes, its header needs {body}"
        )
    net = Mlp(list(sizes), flat=np.frombuffer(blob, dtype="<f8", offset=pos))
    if not net.all_finite():
        raise ValueError("checkpoint contains non-finite parameters")
    return net
