"""Dual-attention branch tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aulang import dair
from aulang import tensor as T
from aulang.dair import (
    BranchParams,
    channel_attention,
    refine,
    spatial_attention,
)


def zero_params(channels=4, reduction=2, dtype=np.float32):
    hidden = channels // reduction
    return BranchParams(
        T.parameter(np.zeros((hidden, channels), dtype=dtype)),
        T.parameter(np.zeros((channels, hidden), dtype=dtype)),
        T.parameter(np.zeros((1, 2, 3, 3), dtype=dtype)),
        T.parameter(np.zeros(1, dtype=dtype)),
    )


def rand_params(seed, channels=4, reduction=2):
    return BranchParams.init(np.random.default_rng(seed), channels, reduction)


def test_zero_weights_give_half_gates():
    rng = np.random.default_rng(0)
    v = T.Tensor(rng.standard_normal((2, 4, 3, 3)).astype(np.float32))
    p = zero_params()
    assert np.array_equal(channel_attention(v, p).data, 0.5 * v.data)
    assert np.array_equal(spatial_attention(v, p).data, 0.5 * v.data)
    assert np.array_equal(refine(v, p).data, 0.25 * v.data)


def test_hand_computed_scalar_gates():
    # Two channels, one pixel: every pooling collapses to scalars we can
    # track by hand through both gates.
    v = np.array([[[[1.0]], [[3.0]]]], dtype=np.float32)
    p = BranchParams(
        T.parameter(np.array([[0.5, 0.5]], dtype=np.float32)),
        T.parameter(np.array([[1.0], [-1.0]], dtype=np.float32)),
        T.parameter(np.zeros((1, 2, 3, 3), dtype=np.float32)),
        T.parameter(np.array([0.5], dtype=np.float32)),
    )
    p.conv_kernel.data[0, 0, 1, 1] = 2.0
    p.conv_kernel.data[0, 1, 1, 1] = -1.0

    sig = lambda x: 1.0 / (1.0 + math.exp(-x))
    # channel gate: mlp([1,3]) = relu(2) * [1,-1] = [2,-2]; both pooled paths
    # see the same vector, so the gate is sigmoid([4,-4])
    vbar = np.array([1.0 * sig(4.0), 3.0 * sig(-4.0)])
    # spatial gate on the single pixel: 2*max - mean + 0.5 through the kernel
    pre = 2.0 * vbar.max() - vbar.mean() + 0.5
    expected = vbar * sig(pre)

    out = refine(T.Tensor(v), p).data[0, :, 0, 0]
    assert np.allclose(out, expected, rtol=1e-5)


def test_refine_preserves_shape_and_contracts():
    rng = np.random.default_rng(1)
    v = rng.standard_normal((3, 8, 4, 4)).astype(np.float32)
    out = refine(T.Tensor(v), rand_params(2, channels=8, reduction=4)).data
    assert out.shape == v.shape
    # both gates lie in (0, 1): magnitudes shrink, signs survive
    assert np.all(np.abs(out) <= np.abs(v))
    assert np.all(out * v >= 0.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_gate_monotone_in_bias(seed):
    # raising the spatial conv bias can only open the gate further
    rng = np.random.default_rng(seed)
    v = T.Tensor(np.abs(rng.standard_normal((1, 4, 3, 3))).astype(np.float32))
    p = rand_params(seed + 1)
    lo = spatial_attention(v, p).data
    p.conv_bias.data[:] = p.conv_bias.data + 2.0
    hi = spatial_attention(v, p).data
    assert np.all(hi >= lo)


def test_branch_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((2, 4, 3, 3))
    p = BranchParams(
        T.parameter(rng.standard_normal((2, 4)) * 0.5),
        T.parameter(rng.standard_normal((4, 2)) * 0.5),
        T.parameter(rng.standard_normal((1, 2, 3, 3)) * 0.5),
        T.parameter(rng.standard_normal(1) * 0.5),
    )

    def loss_value():
        with T.no_grad():
            return float((refine(T.Tensor(v), p).data ** 2).sum())

    out = refine(T.Tensor(v), p)
    (out * out).sum().backward()

    eps = 1e-6
    for t in (p.mlp_w1, p.mlp_w2, p.conv_kernel, p.conv_bias):
        flat = t.data.reshape(-1)
        for j in range(0, flat.size, max(1, flat.size // 4)):
            orig = flat[j]
            flat[j] = orig + eps
            fp = loss_value()
            flat[j] = orig - eps
            fm = loss_value()
            flat[j] = orig
            num = (fp - fm) / (2 * eps)
            ana = t.grad.reshape(-1)[j]
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-6) < 1e-4


def test_reduction_must_divide_channels():
    with pytest.raises(ValueError):
        BranchParams.init(np.random.default_rng(0), channels=6, reduction=4)


def test_branches_are_independent():
    a = rand_params(0)
    b = rand_params(1)
    v = T.Tensor(np.random.default_rng(2).standard_normal((1, 4, 3, 3)).astype(np.float32))
    assert not np.array_equal(refine(v, a).data, refine(v, b).data)
    names = [n for n, _ in a.named("dair.au0")]
    assert names == ["dair.au0.mlp_w1", "dair.au0.mlp_w2", "dair.au0.conv_kernel", "dair.au0.conv_bias"]
