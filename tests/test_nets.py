import struct

import numpy as np
import pytest

from rls3.nets import (
    Adam,
    DimensionError,
    Mlp,
    NetOptimizer,
    StaleCacheError,
    load_net,
    save_net,
    sgd_step,
)

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
        net.backward(np.ones(3))


@pytest.mark.parametrize("activations", [None, ("relu", "relu", "identity")])
def test_gradients_match_finite_differences(activations):
    rng = np.random.default_rng(3)
    net = Mlp([4, 8, 5, 3], activations=activations, seed=11)
    x = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 3))
    if activations is not None:
        # keep FD away from the relu kink
        for z in net.params()[1::2]:
            z += 0.05

    def loss():
        return 0.5 * float(np.sum((net.forward(x) - target) ** 2))

    loss()
    grads, _ = net.backward(net.forward(x) - target)
    fd = finite_difference_gradients(loss, net.params())
    for got, want in zip(grads.flat(), fd):
        assert relative_error(got, want) < 1e-6


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    net = Mlp([3, 6, 2], seed=5)
    x = rng.normal(size=(1, 3))

    def loss():
        return float(np.sum(net.forward(x)))

    loss()
    _, grad_in = net.backward(np.ones((1, 2)))
    fd = finite_difference_gradients(loss, [x])[0]
    assert relative_error(grad_in, fd) < 1e-6


def test_sgd_reduces_loss(net):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(16, 4))
    t = rng.normal(size=(16, 3))

    def loss():
        return 0.5 * float(np.sum((net.forward(x) - t) ** 2))

    before = loss()
    for _ in range(50):
        grads, _ = net.backward(net.forward(x) - t)
        sgd_step(net.params(), grads.flat(), lr=1e-3)
        net.invalidate_cache()
    assert loss() < before


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
        err = net.forward(x) - t
        grads, _ = net.backward(2 * err / len(x))
        opt.step(grads)
    assert loss() < 0.25 * before


def test_adam_skips_nonfinite_gradients():
    params = [np.zeros((2, 2))]
    adam = Adam(lr=0.1)
    bad = [np.full((2, 2), np.nan)]
    assert adam.step(params, bad) is False
    np.testing.assert_array_equal(params[0], 0.0)
    assert adam.skipped == 1
    good = [np.ones((2, 2))]
    assert adam.step(params, good) is True
    assert not np.allclose(params[0], 0.0)


def test_optimizer_step_invalidates_cache(net):
    x = np.zeros((2, 4))
    net.forward(x)
    opt = NetOptimizer(net, lr=1e-3)
    grads, _ = net.backward(np.ones((2, 3)))
    opt.step(grads)
    with pytest.raises(StaleCacheError):
        net.backward(np.ones((2, 3)))


def test_checkpoint_round_trip(tmp_path, net):
    path = tmp_path / "net.net"
    save_net(net, path)
    restored = load_net(path)
    assert restored.layer_sizes == net.layer_sizes
    assert restored.activations == net.activations
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
        (lambda d: d[:-4], "body has"),
        (lambda d: _set_u64(d, 16, 2**40), "body has"),
    ],
    ids=[
        "cut-in-layer-count",
        "cut-in-sizes",
        "huge-layer-count",
        "one-layer-size",
        "bad-activation-code",
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
