"""Stem pyramid and multi-scale fusion tests."""

import numpy as np
import pytest

from aulang import stem
from aulang import tensor as T
from aulang.stem import (
    Image,
    MscParams,
    StemParams,
    msc_forward,
    regions_of,
    stem_forward,
)


def make_params(seed=7, c_in=3, c0=16, cm=16, d=32):
    rng = np.random.default_rng(seed)
    sp = StemParams.init(rng, in_channels=c_in, c0=c0)
    mp = MscParams.init(rng, sp.stage_channels, common_width=cm, d=d)
    return sp, mp


def encode(data, sp):
    """(C, H, W) image -> the four (1, C', H', W') stage tensors, no gradients."""
    with T.no_grad():
        return stem_forward(T.Tensor(np.asarray(data, dtype=np.float32)[None]), sp)


def fuse(stages, mp):
    with T.no_grad():
        return msc_forward(stages, mp)


def const_stage(value, size):
    return T.Tensor(np.full((1, 1, size, size), value, dtype=np.float32))


def test_stage_shapes_and_fused_shape():
    rng = np.random.default_rng(0)
    img = Image(rng.random((3, 64, 64)))
    sp, mp = make_params()
    stages = encode(img.data, sp)
    shapes = [s.shape for s in stages]
    assert shapes == [(1, 16, 32, 32), (1, 32, 16, 16), (1, 64, 8, 8), (1, 128, 4, 4)]
    fused = fuse(stages, mp)
    assert fused.shape == (1, 32, 4, 4)


def test_indivisible_dims_rejected():
    with pytest.raises(ValueError):
        Image(np.zeros((3, 60, 64)))
    sp, _ = make_params()
    with pytest.raises(ValueError):
        stem_forward(T.Tensor(np.zeros((1, 3, 60, 64), dtype=np.float32)), sp)


def test_image_value_validation():
    with pytest.raises(ValueError):
        Image(np.full((3, 16, 16), 1.5))
    bad = np.zeros((3, 16, 16))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        Image(bad)
    with pytest.raises(ValueError):
        Image(np.zeros((16, 16)))


def test_zero_input_gives_zero_fused_map():
    # all biases start at zero, so a zero image must stay exactly zero
    img = Image(np.zeros((3, 32, 32), dtype=np.float32))
    sp, mp = make_params()
    stages = encode(img.data, sp)
    for s in stages:
        assert np.all(s.data == 0.0)
    fused = fuse(stages, mp)
    assert np.all(fused.data == 0.0)


def test_determinism_same_seed():
    rng = np.random.default_rng(3)
    data = rng.random((3, 32, 32)).astype(np.float32)
    outs = []
    for _ in range(2):
        sp, mp = make_params(seed=7)
        fused = fuse(encode(Image(data).data, sp), mp)
        outs.append(fused.data)
    assert np.array_equal(outs[0], outs[1])


def _center_tap_kernel(c_in):
    # 3x3 kernel that copies the centre pixel of channel 0
    k = np.zeros((1, c_in, 3, 3), dtype=np.float32)
    k[0, 0, 1, 1] = 1.0
    return k


def test_msc_fusion_hand_computed_scalar():
    # Constant one-channel stages at 8/4/2/1 resolution with identity convs:
    # pooled stage means are 1, 2, 3, 4.  Projection weights (0.5, 0.25,
    # 0.25, 1.0) and bias 0.25 give 0.5 + 0.5 + 0.75 + 4 + 0.25 = 6.0.
    stages = [const_stage(1.0, 8), const_stage(2.0, 4), const_stage(3.0, 2),
              const_stage(4.0, 1)]
    mp = MscParams(
        conv_weights=[T.parameter(_center_tap_kernel(1)) for _ in range(4)],
        conv_biases=[T.parameter(np.zeros(1, dtype=np.float32)) for _ in range(4)],
        proj_weight=T.parameter(np.array([[0.5], [0.25], [0.25], [1.0]], dtype=np.float32)),
        proj_bias=T.parameter(np.array([0.25], dtype=np.float32)),
    )
    fused = fuse(stages, mp)
    assert fused.shape == (1, 1, 1, 1)
    assert fused.data[0, 0, 0, 0] == 6.0


def test_msc_fusion_pooling_hand_computed():
    # A 2x2 stage [[1,2],[3,4]] pooled to 1x1 through an identity conv
    # averages to 2.5; the other stages are zero so only its weight matters.
    stages = [
        const_stage(0.0, 8),
        const_stage(0.0, 4),
        T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]], dtype=np.float32)),
        const_stage(0.0, 1),
    ]
    mp = MscParams(
        conv_weights=[T.parameter(_center_tap_kernel(1)) for _ in range(4)],
        conv_biases=[T.parameter(np.zeros(1, dtype=np.float32)) for _ in range(4)],
        proj_weight=T.parameter(np.array([[1.0], [1.0], [2.0], [1.0]], dtype=np.float32)),
        proj_bias=T.parameter(np.zeros(1, dtype=np.float32)),
    )
    fused = fuse(stages, mp)
    assert fused.data[0, 0, 0, 0] == 5.0  # 2 * 2.5


def test_msc_linearity_with_zero_biases():
    rng = np.random.default_rng(11)
    sp, mp = make_params(seed=5)
    stages = [
        T.Tensor(rng.standard_normal((2, c, 32 // 2 ** (k + 1), 32 // 2 ** (k + 1))).astype(np.float32))
        for k, c in enumerate(sp.stage_channels)
    ]
    scaled = [T.Tensor(1.7 * s.data) for s in stages]
    with T.no_grad():
        base = msc_forward(stages, mp).data
        out = msc_forward(scaled, mp).data
    assert np.allclose(out, 1.7 * base, rtol=1e-6, atol=1e-6)


def test_msc_stage_width_mismatch():
    sp, mp = make_params()
    stages = [
        T.Tensor(np.zeros((1, c + 1, 32 // 2 ** (k + 1), 32 // 2 ** (k + 1)), dtype=np.float32))
        for k, c in enumerate(sp.stage_channels)
    ]
    with pytest.raises(ValueError):
        msc_forward(stages, mp)


def test_region_view_round_trip():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((2, 5, 3, 4)).astype(np.float32)
    regions = regions_of(T.Tensor(data)).data
    assert regions.shape == (2, 12, 5)
    assert regions[1, 7, 2] == data[1, 2].reshape(-1)[7]
    back = regions.transpose(0, 2, 1).reshape(2, 5, 3, 4)
    assert np.array_equal(back, data)


def test_stem_gradients_flow():
    rng = np.random.default_rng(4)
    sp, mp = make_params(c0=4, cm=4, d=8)
    x = T.Tensor(rng.random((2, 3, 16, 16)).astype(np.float64), requires_grad=True)
    sp64 = StemParams(
        [T.parameter(w.data.astype(np.float64)) for w in sp.weights],
        [T.parameter(b.data.astype(np.float64)) for b in sp.biases],
    )
    mp64 = MscParams(
        [T.parameter(w.data.astype(np.float64)) for w in mp.conv_weights],
        [T.parameter(b.data.astype(np.float64)) for b in mp.conv_biases],
        T.parameter(mp.proj_weight.data.astype(np.float64)),
        T.parameter(mp.proj_bias.data.astype(np.float64)),
    )
    out = msc_forward(stem_forward(x, sp64), mp64)
    loss = (out * out).sum()
    loss.backward()

    def f(v):
        with T.no_grad():
            o = msc_forward(stem_forward(T.Tensor(v), sp64), mp64)
            return float((o.data**2).sum())

    eps = 1e-6
    idx = (1, 2, 7, 9)
    vp = x.data.copy()
    vp[idx] += eps
    vm = x.data.copy()
    vm[idx] -= eps
    num = (f(vp) - f(vm)) / (2 * eps)
    ana = x.grad[idx]
    assert abs(num - ana) / max(abs(num), 1e-8) < 1e-5
