"""Per-AU dual attention: a channel gate followed by a spatial gate.

Each action unit owns an independent branch.  The channel gate pools the
shared feature map over space (max and mean), pushes both vectors through the
same two-layer bottleneck MLP, adds the results and squashes with a sigmoid:

    V_bar = sigmoid(MLP(max_pool(V)) + MLP(mean_pool(V))) * V

The spatial gate then pools over channels, stacks the two single-channel maps
and convolves them with a 3x3 kernel to one gate map:

    V_hat = sigmoid(conv3x3([max_c(V_bar); mean_c(V_bar)]) + bias) * V_bar

Both gates rescale, never mix, positions and channels, so a refined map keeps
the input's shape and every gate value stays strictly inside (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class BranchParams:
    """One AU branch: bottleneck MLP (shared across the two pooled paths)
    plus the 2-to-1 channel spatial conv."""

    mlp_w1: Tensor  # (C/r, C)
    mlp_w2: Tensor  # (C, C/r)
    conv_kernel: Tensor  # (1, 2, 3, 3)
    conv_bias: Tensor  # (1,)

    @classmethod
    def init(cls, rng, channels: int, reduction: int = 4, dtype=np.float32):
        if channels % reduction:
            raise ValueError(f"reduction {reduction} must divide channel count {channels}")
        hidden = channels // reduction
        w1 = (rng.standard_normal((hidden, channels)) * np.sqrt(2.0 / channels)).astype(dtype)
        w2 = (rng.standard_normal((channels, hidden)) * np.sqrt(2.0 / hidden)).astype(dtype)
        k = (rng.standard_normal((1, 2, 3, 3)) * np.sqrt(2.0 / 18)).astype(dtype)
        return cls(
            T.parameter(w1),
            T.parameter(w2),
            T.parameter(k),
            T.parameter(np.zeros(1, dtype=dtype)),
        )

    def named(self, prefix: str):
        yield f"{prefix}.mlp_w1", self.mlp_w1
        yield f"{prefix}.mlp_w2", self.mlp_w2
        yield f"{prefix}.conv_kernel", self.conv_kernel
        yield f"{prefix}.conv_bias", self.conv_bias


def _mlp(x: Tensor, params: BranchParams) -> Tensor:
    return T.relu(x @ params.mlp_w1.transpose(1, 0)) @ params.mlp_w2.transpose(1, 0)


def channel_attention(v: Tensor, params: BranchParams) -> Tensor:
    """Channel gate over a (B, C, H', W') batch."""
    b, c, h, w = v.shape
    flat = v.reshape(b, c, h * w)
    f_max = flat.amax(axis=2)
    f_avg = flat.mean(axis=2)
    gate = T.sigmoid(_mlp(f_max, params) + _mlp(f_avg, params))
    return v * gate.reshape(b, c, 1, 1)


def spatial_attention(v_bar: Tensor, params: BranchParams) -> Tensor:
    """Spatial gate over a (B, C, H', W') batch."""
    f_max = v_bar.amax(axis=1, keepdims=True)
    f_avg = v_bar.mean(axis=1, keepdims=True)
    stacked = T.concat([f_max, f_avg], axis=1)  # (B, 2, H', W')
    gate = T.sigmoid(T.conv2d(stacked, params.conv_kernel, params.conv_bias, stride=1, pad=1))
    return v_bar * gate


def refine(v: Tensor, params: BranchParams) -> Tensor:
    """Full branch refinement: channel gate then spatial gate."""
    return spatial_attention(channel_attention(v, params), params)

