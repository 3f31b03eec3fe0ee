"""Finite-difference checks for every primitive of the autodiff engine."""

import math

import numpy as np
import pytest

from aulang import tensor as T
from aulang.tensor import Tensor


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f wrt numpy array x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = f(x)
        flat[i] = orig - eps
        lm = f(x)
        flat[i] = orig
        gf[i] = (lp - lm) / (2 * eps)
    return g


def check_op(build, shape, seed=0, eps=1e-6, tol=1e-7):
    """Compare analytic grad of sum(build(x)) against central differences."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape).astype(np.float64)
    xt = T.parameter(x.copy())
    out = build(xt).sum()
    out.backward()

    def scalar(arr):
        return build(Tensor(arr)).sum().item()

    num = fd_grad(scalar, x.copy(), eps)
    err = np.abs(xt.grad - num).max()
    assert err < tol, f"max abs grad error {err}"


@pytest.mark.parametrize(
    "build",
    [
        lambda x: x * 3.0 + 1.5,
        lambda x: x * x - x / 2.0,
        lambda x: -x + x**3,
        lambda x: T.relu(x),
        lambda x: T.sigmoid(x),
        lambda x: T.tanh(x),
        lambda x: T.exp(x * 0.3),
        lambda x: T.log(T.exp(x) + 1.0),
        lambda x: T.gelu(x),
        lambda x: T.softmax(x, axis=-1) * np.arange(5.0),
        lambda x: T.log_softmax(x, axis=-1) * np.arange(5.0),
        lambda x: x.amax(axis=1) * 2.0,
        lambda x: x.mean(axis=0) * np.arange(5.0),
        lambda x: x.sum(axis=1, keepdims=True) * 0.5,
        lambda x: x.reshape(20) * np.arange(20.0),
        lambda x: x.transpose(1, 0) * 2.0,
        lambda x: x[1:3, ::2] * 3.0,
    ],
)
def test_pointwise_and_shape_grads(build):
    check_op(build, (4, 5))


def test_broadcast_add_mul():
    rng = np.random.default_rng(1)
    a = T.parameter(rng.normal(size=(3, 1, 4)))
    b = T.parameter(rng.normal(size=(5, 1)))
    out = (a * b + b).sum()
    out.backward()

    def f(av, bv):
        return float(((av * bv) + bv).sum())

    ga = fd_grad(lambda av: f(av, b.data), a.data.copy())
    gb = fd_grad(lambda bv: f(a.data, bv), b.data.copy())
    assert np.abs(a.grad - ga).max() < 1e-7
    assert np.abs(b.grad - gb).max() < 1e-7


def test_matmul_grad_batched():
    rng = np.random.default_rng(2)
    a = T.parameter(rng.normal(size=(6, 1, 3)))
    b = T.parameter(rng.normal(size=(6, 3, 4)))
    w = rng.normal(size=4)
    out = ((a @ b) * w).sum()
    out.backward()
    ga = fd_grad(lambda av: float(((av @ b.data) * w).sum()), a.data.copy())
    gb = fd_grad(lambda bv: float(((a.data @ bv) * w).sum()), b.data.copy())
    assert np.abs(a.grad - ga).max() < 1e-7
    assert np.abs(b.grad - gb).max() < 1e-7


def test_matmul_broadcast_unbatched_rhs():
    rng = np.random.default_rng(3)
    a = T.parameter(rng.normal(size=(6, 2, 3)))
    b = T.parameter(rng.normal(size=(3, 4)))
    out = (a @ b).sum()
    out.backward()
    gb = fd_grad(lambda bv: float((a.data @ bv).sum()), b.data.copy())
    assert b.grad.shape == (3, 4)
    assert np.abs(b.grad - gb).max() < 1e-7


def test_concat_stack_grads():
    rng = np.random.default_rng(4)
    a = T.parameter(rng.normal(size=(2, 3)))
    b = T.parameter(rng.normal(size=(2, 3)))
    w = rng.normal(size=(4, 3))
    out = (T.concat([a, b], axis=0) * w).sum()
    out.backward()
    assert np.allclose(a.grad, w[:2])
    assert np.allclose(b.grad, w[2:])

    a.grad = b.grad = None
    ws = rng.normal(size=(2, 2, 3))
    out = (T.stack([a, b], axis=0) * ws).sum()
    out.backward()
    assert np.allclose(a.grad, ws[0])
    assert np.allclose(b.grad, ws[1])


def test_gather_grads():
    rng = np.random.default_rng(5)
    table = T.parameter(rng.normal(size=(7, 3)))
    idx = np.array([1, 1, 4, 0])
    w = rng.normal(size=(4, 3))
    (T.take_rows(table, idx) * w).sum().backward()
    expected = np.zeros_like(table.data)
    np.add.at(expected, idx, w)
    assert np.allclose(table.grad, expected)

    x = T.parameter(rng.normal(size=(4, 6)))
    cols = np.array([0, 5, 2, 2])
    w2 = rng.normal(size=4)
    (T.gather_index(x, cols) * w2).sum().backward()
    expected = np.zeros_like(x.data)
    expected[np.arange(4), cols] = w2
    assert np.allclose(x.grad, expected)


def _check_conv2d_grads(stride, pad, kernel, size):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 3, size, size))
    w = rng.normal(size=(4, 3, kernel, kernel)) * 0.3
    b = rng.normal(size=4) * 0.1
    xt, wt, bt = T.parameter(x.copy()), T.parameter(w.copy()), T.parameter(b.copy())
    T.conv2d(xt, wt, bt, stride=stride, pad=pad).sum().backward()

    def f(xv, wv, bv):
        return T.conv2d(Tensor(xv), Tensor(wv), Tensor(bv), stride=stride, pad=pad).sum().item()

    gx = fd_grad(lambda v: f(v, w, b), x.copy())
    gw = fd_grad(lambda v: f(x, v, b), w.copy())
    gb = fd_grad(lambda v: f(x, w, v), b.copy())
    assert np.abs(xt.grad - gx).max() < 1e-6
    assert np.abs(wt.grad - gw).max() < 1e-6
    assert np.abs(bt.grad - gb).max() < 1e-6


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_grad(stride, pad):
    _check_conv2d_grads(stride, pad, kernel=3, size=6)


@pytest.mark.parametrize("stride,kernel", [(4, 6), (8, 10)])
def test_conv2d_grad_folded_kernels(stride, kernel):
    # the (k+2) x (k+2) stride-k kernels that the MSC fusion folds its pools into
    _check_conv2d_grads(stride, 1, kernel=kernel, size=16)


def test_conv2d_matches_direct_computation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(1, 2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    out = T.conv2d(Tensor(x), Tensor(w), stride=1, pad=1).data
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    for f in range(3):
        for i in range(5):
            for j in range(5):
                ref = (xp[0, :, i : i + 3, j : j + 3] * w[f]).sum()
                assert abs(out[0, f, i, j] - ref) < 1e-10


def test_folded_conv_equals_conv_then_pool():
    # mean_k(conv3x3(x)) is one stride-k conv with the box-filtered kernel
    # band @ w @ band.T; its gradient reaches w through the matmuls
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 8, 8))
    w0 = rng.normal(size=(2, 3, 3, 3))
    for k in (2, 4, 8):
        band = sum(np.eye(k + 2, 3, -i) for i in range(k)) / k
        r = rng.normal(size=(2, 2, 8 // k, 8 // k))

        def pooled(wv):
            conv = T.conv2d(Tensor(x), Tensor(wv), stride=1, pad=1).data
            return conv.reshape(2, 2, 8 // k, k, 8 // k, k).mean(axis=(3, 5))

        wt = T.parameter(w0.copy())
        out = T.conv2d(Tensor(x), Tensor(band) @ wt @ Tensor(band.T), stride=k, pad=1)
        assert np.abs(out.data - pooled(w0)).max() < 1e-12
        (out * r).sum().backward()
        gw = fd_grad(lambda v: float((pooled(v) * r).sum()), w0.copy())
        assert np.abs(wt.grad - gw).max() < 1e-7


def test_gelu_bits_match_composite_float32():
    # the one-node gelu keeps the composite's values and gradients exactly,
    # here between two convs as in the stem: the conv output's channel-last
    # memory and a 32x16x32x32 map (numpy reuses temporaries from 256 KiB on)
    def composite(x):
        c = math.sqrt(2.0 / math.pi)
        return x * 0.5 * (T.tanh((x + x * x * x * 0.044715) * c) + 1.0)

    rng = np.random.default_rng(9)
    image = Tensor(rng.random((32, 3, 64, 64), dtype=np.float32))
    w1, w2 = (rng.normal(scale=0.5, size=s).astype(np.float32) for s in ((16, 3, 3, 3), (8, 16, 3, 3)))
    b1 = rng.normal(size=16).astype(np.float32)
    results = []
    for fn in (T.gelu, composite):
        params = [T.parameter(p.copy()) for p in (w1, b1, w2)]
        h = T.conv2d(image, params[0], params[1], stride=2, pad=1)
        out = fn(h)
        T.conv2d(out, params[2], stride=2, pad=1).sum().backward()
        results.append([out.data, h.grad] + [p.grad for p in params])
    assert results[0][0].shape == (32, 16, 32, 32)
    assert results[0][0].dtype == results[0][1].dtype == np.float32
    for got, ref in zip(*results):
        assert np.array_equal(got, ref)


def test_clip_grad_zero_outside():
    x = T.parameter(np.array([-2.0, 0.5, 3.0]))
    T.clip(x, 0.0, 1.0).sum().backward()
    assert np.allclose(x.grad, [0.0, 1.0, 0.0])


def test_diamond_graph_accumulates():
    x = T.parameter(np.array(2.0).reshape(1, 1))
    y = x * 3.0
    z = (y + x * x).sum()  # dz/dx = 3 + 2x = 7
    z.backward()
    assert np.allclose(x.grad, 7.0)


def test_no_grad_blocks_recording():
    x = T.parameter(np.ones((2, 2)))
    with T.no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and not y.requires_grad


def test_dtype_preserved_float32():
    x = Tensor(np.ones((2, 2), dtype=np.float32))
    y = T.sigmoid(x * 0.5 + 1.0) @ Tensor(np.ones((2, 2), dtype=np.float32))
    assert y.dtype == np.float32


def test_backward_requires_scalar():
    x = T.parameter(np.ones(3))
    with pytest.raises(ValueError):
        (x * 2.0).backward()
