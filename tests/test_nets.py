import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rls3.agent import SacAgent, Transition
from rls3.judges import ContrastiveJudge, GenerativeJudge
from rls3.nets import (
    Adam,
    DimensionError,
    Mlp,
    NetOptimizer,
    StaleCacheError,
    load_net,
    save_net,
)
from rls3.scene import builtin_suite

from oracles import finite_difference_gradients, relative_error


@pytest.fixture
def net():
    return Mlp([4, 8, 5, 3], seed=7)


def test_forward_shapes(net):
    x = np.random.default_rng(0).normal(size=(6, 4))
    y = net.forward(x)
    assert y.shape == (6, 3)
    single = net.forward(x[0])
    assert single.shape == (3,)
    np.testing.assert_allclose(single, y[0], rtol=1e-12)


def test_forward_rejects_bad_dim(net):
    with pytest.raises(DimensionError):
        net.forward(np.zeros(5))


def test_backward_requires_forward(net):
    with pytest.raises(StaleCacheError):
        net.backward(np.ones(3), [])


def test_forward_without_tape_keeps_nothing(net):
    before = dict(vars(net))
    net.forward(np.zeros((2, 4)))
    assert vars(net).keys() == before.keys()
    assert all(vars(net)[k] is v for k, v in before.items())


def test_interleaved_tapes_match_sequential_passes(net):
    rng = np.random.default_rng(8)
    x_a, x_b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
    g_a, g_b = rng.normal(size=(3, 3)), rng.normal(size=(5, 3))
    ta, tb = [], []
    net.forward(x_a, ta)
    net.forward(x_b, tb)
    interleaved = [net.backward(g_a, ta), net.backward(g_b, tb)]
    sequential = []
    for x, g in ((x_a, g_a), (x_b, g_b)):
        tape = []
        net.forward(x, tape)
        sequential.append(net.backward(g, tape))
    for (grad, grad_in), (want, want_in) in zip(interleaved, sequential):
        np.testing.assert_array_equal(grad_in, want_in)
        np.testing.assert_array_equal(grad, want)


# tanh hidden layers with an identity output, and an identity layer alone
LAYER_SIZES = {"tanh": [4, 8, 5, 3], "identity": [4, 3]}


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("rows", [None, 4], ids=["single", "batch"])
@pytest.mark.parametrize("kind", LAYER_SIZES)
def test_backward_need_returns_parts_of_the_full_backward(kind, rows):
    net = Mlp(LAYER_SIZES[kind], seed=7)
    rng = np.random.default_rng(12)
    lead = () if rows is None else (rows,)
    x, g = rng.normal(size=(*lead, 4)), rng.normal(size=(*lead, 3))
    x_before, g_before = x.copy(), g.copy()
    tape = []
    out = net.forward(x, tape)
    out_before = out.copy()
    full_grad, full_in = (a.copy() for a in net.backward(g, tape))
    assert full_in.shape == x.shape

    grad, no_input = net.backward(g, tape, need="params")
    assert no_input is None
    assert _bits(grad) == _bits(full_grad)
    no_grad, grad_in = net.backward(g, tape, need="input")
    assert no_grad is None
    assert _bits(grad_in) == _bits(full_in)
    with pytest.raises(ValueError):
        net.backward(g, tape, need="weights")
    # neither the caller's arrays nor the returned output are written
    assert _bits(x, g, out) == _bits(x_before, g_before, out_before)


@pytest.mark.parametrize("kind", LAYER_SIZES)
def test_reused_tape_matches_fresh_tapes(kind):
    net = Mlp(LAYER_SIZES[kind], seed=7)
    rng = np.random.default_rng(13)
    tape = []
    for rows in (3, 5, 5, 3):
        x, g = rng.normal(size=(rows, 4)), rng.normal(size=(rows, 3))
        got = [net.forward(x, tape).copy(), *(a.copy() for a in net.backward(g, tape))]
        fresh = []
        want = [net.forward(x, fresh), *net.backward(g, fresh)]
        assert _bits(*got) == _bits(*want)


def _used_nets():
    """One net of each layer shape the agent and the default judges build."""
    catalog = builtin_suite("train").catalog_names
    agent = SacAgent(seed=0)
    contrastive = ContrastiveJudge(catalog, seed=0)
    nets = [agent.actor, agent.q1, GenerativeJudge(catalog, seed=0).net,
            contrastive.image_encoder, contrastive.text_encoder]
    return {"-".join(map(str, n.layer_sizes)): n for n in nets}


USED_NETS = _used_nets()


@pytest.mark.parametrize("need", ["params", "input", "both"])
@pytest.mark.parametrize("shape", USED_NETS)
def test_float32_passes_match_float64_passes(shape, need):
    net = USED_NETS[shape]
    rng = np.random.default_rng(14)
    x, g = rng.normal(size=(16, net.n_in)), rng.normal(size=(16, net.layer_sizes[-1]))
    t64, t32 = [], []
    want = [net.forward(x, t64).copy(), *net.backward(g, t64, need=need)]
    got = [net.forward(x.astype(np.float32), t32), *net.backward(g.astype(np.float32), t32, need=need)]
    for a, b in zip(got, want):
        if b is None:
            assert a is None
            continue
        assert a.dtype == np.float32 and b.dtype == np.float64
        assert relative_error(a, b) < 1e-6
    assert net.flat.dtype == np.float64
    # an untaped float32 forward computes the same values
    assert _bits(net.forward(x.astype(np.float32))) == _bits(got[0])


def test_float32_tape_reuses_its_arrays(net):
    rng = np.random.default_rng(15)
    tape = []

    def arrays():
        rec = tape[0]
        return [*rec.outs, *rec._scratch.values()]

    x, g = rng.normal(size=(2, 5, 4)).astype(np.float32), np.ones((5, 3), np.float32)
    net.forward(x[0], tape)
    net.backward(g, tape)
    first = arrays()
    assert all(a.dtype == np.float32 for a in first)
    before = net.flat.copy()
    net.flat += 0.5  # the next pass casts the changed parameters
    out = net.forward(x[1], tape)
    net.flat[:] = before  # backward goes through the weights its pass ran with
    grad, grad_in = net.backward(g, tape)
    assert all(a is b for a, b in zip(arrays(), first)) and len(arrays()) == len(first)
    want = Mlp(net.layer_sizes, flat=before + 0.5)
    fresh = []
    assert _bits(out, grad, grad_in) == _bits(want.forward(x[1], fresh), *want.backward(g, fresh))
    assert net.flat.dtype == np.float64
    # a float64 pass on the same tape starts a float64 pass
    assert net.forward(x[1].astype(np.float64), tape).dtype == np.float64
    assert net.backward(g, tape)[0].dtype == np.float64


def test_copy_and_load_draw_no_random_numbers(tmp_path, net, monkeypatch):
    save_net(net, tmp_path / "net.net")

    def no_rng(*args, **kwargs):
        raise AssertionError("random initialisation drawn")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    for other in (net.copy(), load_net(tmp_path / "net.net")):
        assert _bits(other.flat) == _bits(net.flat)
        assert not np.shares_memory(other.flat, net.flat)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    net = Mlp([4, 8, 5, 3], seed=11)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))

    def loss():
        return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

    tape = []
    grad, _ = net.backward(net.forward(x, tape) - target, tape)
    fd = finite_difference_gradients(loss, [net.flat])[0]
    bounds = np.cumsum([p.size for p in net.params()])[:-1]  # per-array bound
    for got, want in zip(np.split(grad, bounds), np.split(fd, bounds)):
        assert relative_error(got, want) < 1e-6


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = Mlp([3, 6, 2], seed=5)
    x = rng.normal(size=(1, 3))

    def loss():
        return float(np.sum(net.forward(x)))

    tape = []
    net.forward(x, tape)
    _, grad_in = net.backward(np.ones((1, 2)), tape)
    fd = finite_difference_gradients(loss, [x])[0]
    assert relative_error(grad_in, fd) < 1e-6


def test_adam_reduces_loss():
    net = Mlp([4, 16, 1], seed=2)
    opt = NetOptimizer(net, lr=1e-2)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(32, 4))
    t = np.sin(x.sum(axis=1, keepdims=True))

    def loss():
        return float(np.mean((net.forward(x) - t) ** 2))

    before = loss()
    for _ in range(200):
        tape = []
        err = net.forward(x, tape) - t
        grad, _ = net.backward(2 * err / len(x), tape)
        opt.step(grad)
    assert loss() < 0.25 * before


def test_adam_skips_nonfinite_gradients():
    param = np.zeros(4)
    adam = Adam(lr=0.1)
    assert adam.step(param, np.full(4, np.nan)) is False
    np.testing.assert_array_equal(param, 0.0)
    assert adam.skipped == 1
    assert adam.step(param, np.ones(4)) is True
    assert not np.allclose(param, 0.0)
    with pytest.raises(DimensionError):
        adam.step(param, np.ones(3))


def test_adam_widens_a_float32_gradient_exactly():
    rng = np.random.default_rng(16)
    grads = rng.normal(size=(3, 6)).astype(np.float32)
    p32 = rng.normal(size=6)  # stepped with the float32 gradients
    p64 = p32.copy()  # stepped with the same gradients widened first
    a32, a64 = Adam(lr=0.01), Adam(lr=0.01)
    for g in grads:
        assert a32.step(p32, g) and a64.step(p64, g.astype(np.float64))
    assert p32.dtype == a32._m.dtype == a32._v.dtype == np.float64
    assert _bits(p32, a32._m, a32._v) == _bits(p64, a64._m, a64._v)


def _assert_views_of_flat(net):
    params = net.params()
    assert all(np.shares_memory(p, net.flat) for p in params)
    assert all(np.shares_memory(p, net.flat) for p in net.weights + net.biases)
    np.testing.assert_array_equal(np.concatenate([p.reshape(-1) for p in params]), net.flat)
    assert net.digest() == hashlib.sha256(net.flat.tobytes()).hexdigest()


def test_params_are_views_of_flat(tmp_path, net):
    _assert_views_of_flat(net)
    _assert_views_of_flat(net.copy())
    save_net(net, tmp_path / "net.net")
    _assert_views_of_flat(load_net(tmp_path / "net.net"))

    opt = NetOptimizer(net, lr=1e-2)
    tape = []
    grad, _ = net.backward(net.forward(np.ones((2, 4)), tape), tape)
    assert grad.shape == net.flat.shape
    before = net.flat.copy()
    assert opt.step(grad)
    assert not np.array_equal(net.flat, before)
    _assert_views_of_flat(net)

    agent = SacAgent(seed=0, hidden=(8,), warmup=4, minibatch=4, buffer_capacity=16)
    rng = np.random.default_rng(0)
    for _ in range(8):
        agent.buffer.push(
            Transition(rng.normal(size=32), rng.uniform(-1, 1, 3), 1.0, rng.normal(size=32), False)
        )
    assert agent.update().performed
    for sac_net in (agent.actor, agent.q1, agent.q2, agent.q1_target, agent.q2_target):
        _assert_views_of_flat(sac_net)


def test_checkpoint_round_trip(tmp_path, net):
    path = tmp_path / "net.net"
    save_net(net, path)
    restored = load_net(path)
    assert restored.layer_sizes == net.layer_sizes
    x = np.random.default_rng(9).normal(size=(4, 4))
    np.testing.assert_array_equal(restored.forward(x), net.forward(x))
    assert restored.digest() == net.digest()


def test_checkpoint_rejects_trailing_bytes(tmp_path, net):
    path = tmp_path / "net.net"
    save_net(net, path)
    with open(path, "ab") as f:
        f.write(b"extra")
    with pytest.raises(ValueError):
        load_net(path)


def test_checkpoint_rejects_bad_magic(tmp_path, net):
    path = tmp_path / "net.net"
    save_net(net, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        load_net(path)


def _set_u64(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<Q", value) + data[offset + 8 :]


# offsets in the checkpoint of the 4-8-5-3 fixture net: magic 0, layer count 8,
# sizes 16-47, activation codes 48-71, body from 72
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda d: d[:12], "header truncated"),
        (lambda d: d[:30], "header truncated"),
        (lambda d: _set_u64(d, 8, 2**62), "header truncated"),
        (lambda d: _set_u64(d, 8, 1), "need at least 2"),
        (lambda d: _set_u64(d, 48, 7), "unknown activation code 7"),
        (lambda d: _set_u64(d, 48, 2), "unknown activation code 2"),
        (lambda d: _set_u64(_set_u64(d, 48, 0), 64, 1), "tanh with an identity output"),
        (lambda d: d[:-4], "body has"),
        (lambda d: _set_u64(d, 16, 2**40), "body has"),
    ],
    ids=[
        "cut-in-layer-count",
        "cut-in-sizes",
        "huge-layer-count",
        "one-layer-size",
        "bad-activation-code",
        "relu-code",
        "misplaced-identity",
        "short-body",
        "huge-layer-size",
    ],
)
def test_checkpoint_corruption_raises_value_error(tmp_path, net, corrupt, message):
    path = tmp_path / "net.net"
    save_net(net, path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ValueError, match=message):
        load_net(path)


_HEADER_END = 72  # of the 4-8-5-3 fixture net's checkpoint, as above
_U64 = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 2**32, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)
_F64 = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -0.0]) | st.floats()


def _mutate(data, blob: bytes) -> bytes:
    kind = data.draw(st.sampled_from(["flip", "u64", "f64", "cut", "append", "splice", "resize"]))
    if kind == "resize":  # a well-formed header of other sizes, with a body that fits it
        sizes = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=4))
        codes = [1] * (len(sizes) - 2) + [0] if len(sizes) > 1 else []
        body = 8 * sum(o * (i + 1) for i, o in zip(sizes[:-1], sizes[1:]))
        header = struct.pack(f"<{2 * len(sizes)}Q", len(sizes), *sizes, *codes)
        return blob[:8] + header + data.draw(st.binary(min_size=body, max_size=body))
    if not blob and kind != "append":
        return blob
    at = data.draw(st.integers(0, max(len(blob) - 1, 0)))
    if kind == "flip":
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1 :]
    if kind == "u64":  # a header field, or any aligned word
        at = data.draw(st.sampled_from(range(8, _HEADER_END, 8)) | st.just(at - at % 8))
        return blob[:at] + struct.pack("<Q", data.draw(_U64)) + blob[at + 8 :]
    if kind == "f64":
        at = data.draw(st.sampled_from(range(_HEADER_END, max(len(blob) - 7, _HEADER_END + 1), 8)))
        return blob[:at] + struct.pack("<d", data.draw(_F64)) + blob[at + 8 :]
    if kind == "cut":
        return blob[:at]
    if kind == "append":
        return blob + data.draw(st.binary(min_size=1, max_size=16))
    end = data.draw(st.integers(at, len(blob)))
    return blob[:at] + data.draw(st.binary(max_size=16)) + blob[end:]


@given(st.data())
@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_mutated_checkpoint_loads_finite_or_raises_value_error(tmp_path, data):
    """A checkpoint is untrusted input: a mutated one either loads as a finite
    net whose checkpoint is the file's bytes, or raises ValueError."""
    path = tmp_path / "net.net"
    save_net(Mlp([4, 8, 5, 3], seed=7), path)
    blob = path.read_bytes()
    for _ in range(data.draw(st.integers(1, 3))):
        blob = _mutate(data, blob)
    path.write_bytes(blob)
    try:
        loaded = load_net(path)
    except ValueError:
        return
    assert loaded.all_finite()
    save_net(loaded, path)
    assert path.read_bytes() == blob


class _StopsMidway:
    """Stands in for a net's parameters: converting them raises, after
    save_net has written the checkpoint's header."""

    def astype(self, *args, **kwargs):
        raise KeyboardInterrupt("stopped midway")


def test_a_save_that_raises_midway_keeps_the_previous_checkpoint(tmp_path, net):
    path = tmp_path / "net.net"
    save_net(net, path)
    before = path.read_bytes()
    broken = Mlp([4, 8, 5, 3], seed=8)
    broken.flat = _StopsMidway()
    with pytest.raises(KeyboardInterrupt, match="stopped midway"):
        save_net(broken, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_checkpoint_rejects_nonfinite_weights(tmp_path, net):
    net.params()[0][0, 0] = np.inf
    path = tmp_path / "net.net"
    save_net(net, path)
    with pytest.raises(ValueError):
        load_net(path)


def test_same_seed_same_init():
    a = Mlp([4, 8, 3], seed=42)
    b = Mlp([4, 8, 3], seed=42)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa, pb)
    c = Mlp([4, 8, 3], seed=43)
    assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.params(), c.params()))
