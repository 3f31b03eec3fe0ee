"""Stem encoder: a 4-stage strided-convolution pyramid fused into one shared
global facial feature map.

Each stage halves the spatial resolution and doubles the channel count, so a
C x H x W input yields stage shapes (c0*2^(k-1), H/2^k, W/2^k) for k=1..4.
The fusion step (``msc_forward``) applies one 3x3 convolution per stage, average
pools every stage down to the coarsest (stage-4) grid, concatenates along
channels and projects to the target width with a learnable linear map.  There
is no nonlinearity inside the fusion, so it is linear in the stage inputs
whenever all fusion biases are zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor

N_STAGES = 4
DOWNSAMPLE = 2**N_STAGES  # input dims must divide by this


@dataclass
class Image:
    """Input image: (C, H, W) float data in [0, 1] plus identity metadata."""

    data: np.ndarray
    subject_id: int = 0
    gender_tag: str = "neutral"

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.ndim != 3:
            raise ValueError(f"image data must be (C, H, W), got shape {self.data.shape}")
        _, h, w = self.data.shape
        if h % DOWNSAMPLE or w % DOWNSAMPLE:
            raise ValueError(f"image dims ({h}, {w}) must be divisible by {DOWNSAMPLE}")
        if not np.isfinite(self.data).all():
            raise ValueError("image contains non-finite values")
        if self.data.min() < 0.0 or self.data.max() > 1.0:
            raise ValueError("image values must lie in [0, 1]")


def _he_conv(rng, f, c, k, dtype):
    scale = np.sqrt(2.0 / (c * k * k))
    return T.parameter((rng.standard_normal((f, c, k, k)) * scale).astype(dtype))


@dataclass
class StemParams:
    """Four stride-2 conv stages: weights[k] maps c0*2^(k-1) channels in."""

    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    @classmethod
    def init(cls, rng, in_channels: int = 3, c0: int = 16, dtype=np.float32):
        weights, biases = [], []
        cin = in_channels
        for k in range(N_STAGES):
            cout = c0 * 2**k
            weights.append(_he_conv(rng, cout, cin, 3, dtype))
            biases.append(T.parameter(np.zeros(cout, dtype=dtype)))
            cin = cout
        return cls(weights, biases)

    def named(self, prefix="stem"):
        for k, (w, b) in enumerate(zip(self.weights, self.biases), start=1):
            yield f"{prefix}.conv{k}.weight", w
            yield f"{prefix}.conv{k}.bias", b

    @property
    def stage_channels(self):
        return [w.data.shape[0] for w in self.weights]


@dataclass
class MscParams:
    """Per-stage 3x3 convs to a common width plus the channel projection."""

    conv_weights: list
    conv_biases: list
    proj_weight: Tensor  # (4*common_width, d)
    proj_bias: Tensor  # (d,)

    @classmethod
    def init(cls, rng, stage_channels, common_width: int = 16, d: int = 32, dtype=np.float32):
        cw, cb = [], []
        for c in stage_channels:
            cw.append(_he_conv(rng, common_width, c, 3, dtype))
            cb.append(T.parameter(np.zeros(common_width, dtype=dtype)))
        concat_width = common_width * len(stage_channels)
        scale = np.sqrt(1.0 / concat_width)
        proj_w = T.parameter((rng.standard_normal((concat_width, d)) * scale).astype(dtype))
        proj_b = T.parameter(np.zeros(d, dtype=dtype))
        return cls(cw, cb, proj_w, proj_b)

    def named(self, prefix="msc"):
        for k, (w, b) in enumerate(zip(self.conv_weights, self.conv_biases), start=1):
            yield f"{prefix}.conv{k}.weight", w
            yield f"{prefix}.conv{k}.bias", b
        yield f"{prefix}.proj.weight", self.proj_weight
        yield f"{prefix}.proj.bias", self.proj_bias

    @property
    def stage_channels(self):
        return [w.data.shape[1] for w in self.conv_weights]

    @property
    def out_dim(self):
        return self.proj_weight.data.shape[1]


def stem_forward(x: Tensor, params: StemParams) -> list:
    """Batched stage extraction: (B, C, H, W) -> 4 tensors, halving per stage."""
    _, _, h, w = x.shape
    if h % DOWNSAMPLE or w % DOWNSAMPLE:
        raise ValueError(f"input dims ({h}, {w}) must be divisible by {DOWNSAMPLE}")
    stages = []
    cur = x
    for wgt, bias in zip(params.weights, params.biases):
        cur = T.gelu(T.conv2d(cur, wgt, bias, stride=2, pad=1))
        stages.append(cur)
    return stages


def msc_forward(stages: list, params: MscParams) -> Tensor:
    """Batched fusion: conv each stage, pool to the coarsest grid, project."""
    if len(stages) != N_STAGES:
        raise ValueError(f"expected {N_STAGES} stages, got {len(stages)}")
    for s, c_expected in zip(stages, params.stage_channels):
        if s.shape[1] != c_expected:
            raise ValueError(
                f"stage width mismatch: pyramid has {s.shape[1]} channels, params expect {c_expected}"
            )
    target_h = stages[-1].shape[2]
    pooled = []
    for k, (s, wgt, bias) in enumerate(zip(stages, params.conv_weights, params.conv_biases)):
        conv = T.conv2d(s, wgt, bias, stride=1, pad=1)
        factor = s.shape[2] // target_h
        pooled.append(T.avg_pool2d(conv, factor))
    cat = T.concat(pooled, axis=1)  # (B, 4*cm, h4, w4)
    b, dcat, h4, w4 = cat.shape
    flat = cat.reshape(b, dcat, h4 * w4).transpose(0, 2, 1)  # (B, L, 4*cm)
    proj = flat @ params.proj_weight + params.proj_bias  # (B, L, d)
    return proj.transpose(0, 2, 1).reshape(b, params.out_dim, h4, w4)


def regions_of(v: Tensor) -> Tensor:
    """(B, C, H', W') -> (B, L, C) region-sequence view of a feature batch."""
    b, c, h, w = v.shape
    return v.reshape(b, c, h * w).transpose(0, 2, 1)

