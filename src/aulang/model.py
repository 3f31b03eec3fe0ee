"""The assembled recogniser: stem + fusion, per-AU attention branches, a
shared two-logit-per-AU classifier and two caption decoders.

The classifier is one linear map from the feature width to 2N logits.  Branch
i reads only its own pair (columns 2i, 2i+1) from its own refined map, pooled
over space; the auxiliary global term pushes the global decoder's mean
attended context through the same weights.  Both caption decoders share one
architecture: the local decoder runs once per AU branch on that branch's
refined regions (folded into the batch axis), the global decoder runs on the
fused map's regions.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .stem import Image, StemParams, MscParams, stem_forward, msc_forward, regions_of
from .dair import BranchParams, refine
from .decoder import DecoderParams, teacher_forced_batch, beam_decode
from .losses import (
    ClassWeights,
    NonFiniteLossError,
    au_probs_from_pair_logits,
    fau_loss,
    global_aux_au_loss,
    joint_loss,
    sequence_nll,
)

_DTYPES = {"float32": np.float32, "float64": np.float64}


@dataclass
class ModelConfig:
    n_aus: int = 8
    in_channels: int = 3
    stem_width: int = 16
    msc_width: int = 16
    feat_dim: int = 32
    reduction: int = 4
    hidden_size: int = 64
    embed_dim: int = 32
    vocab_size: int = 5
    max_len: int = 24
    strict_cell_input: bool = False
    dtype: str = "float32"

    def __post_init__(self):
        for name in ("n_aus", "in_channels", "stem_width", "msc_width", "feat_dim",
                     "hidden_size", "embed_dim", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the four reserved ids plus one word")
        if self.feat_dim % self.reduction:
            raise ValueError("reduction must divide feat_dim")
        if self.dtype not in _DTYPES:
            raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class Model:
    """Owns every parameter tensor; init is fully determined by (config, seed)."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        cfg = config
        dt = cfg.np_dtype
        rng = np.random.default_rng(self.seed)
        self.stem = StemParams.init(rng, cfg.in_channels, cfg.stem_width, dtype=dt)
        self.msc = MscParams.init(rng, self.stem.stage_channels, cfg.msc_width,
                                  cfg.feat_dim, dtype=dt)
        self.branches = [BranchParams.init(rng, cfg.feat_dim, cfg.reduction, dtype=dt)
                         for _ in range(cfg.n_aus)]
        scale = 1.0 / np.sqrt(cfg.feat_dim)
        self.clf_weight = T.parameter(
            (rng.standard_normal((cfg.feat_dim, 2 * cfg.n_aus)) * scale).astype(dt))
        self.clf_bias = T.parameter(np.zeros(2 * cfg.n_aus, dtype=dt))
        self.local_dec = DecoderParams.init(rng, cfg.feat_dim, cfg.hidden_size,
                                            cfg.vocab_size, cfg.embed_dim,
                                            strict_input=cfg.strict_cell_input, dtype=dt)
        self.global_dec = DecoderParams.init(rng, cfg.feat_dim, cfg.hidden_size,
                                             cfg.vocab_size, cfg.embed_dim,
                                             strict_input=cfg.strict_cell_input, dtype=dt)

    def named_parameters(self):
        out = list(self.stem.named("stem")) + list(self.msc.named("msc"))
        for i, br in enumerate(self.branches):
            out.extend(br.named(f"dair.au{i}"))
        out.append(("clf.weight", self.clf_weight))
        out.append(("clf.bias", self.clf_bias))
        out.extend(self.local_dec.named("local"))
        out.extend(self.global_dec.named("global"))
        return out

    def parameters(self):
        return [t for _, t in self.named_parameters()]

    # ----- forward pieces -------------------------------------------------

    def fused_map(self, x: Tensor) -> Tensor:
        return msc_forward(stem_forward(x, self.stem), self.msc)

    def refined_maps(self, v: Tensor):
        return [refine(v, br) for br in self.branches]

    def pool_branches(self, vhats):
        """Refined maps -> per-branch (B, d) spatial means, the classifier inputs."""
        out = []
        for vhat in vhats:
            b, c, h, w = vhat.shape
            out.append(vhat.reshape(b, c, h * w).mean(axis=2))
        return out

    def au_pair_logits(self, vhats):
        """Refined maps -> (B, N, 2) logits via the shared classifier."""
        pairs = []
        for i, pooled in enumerate(self.pool_branches(vhats)):
            logits = pooled @ self.clf_weight + self.clf_bias  # (B, 2N)
            pairs.append(logits[:, 2 * i : 2 * i + 2])
        return T.stack(pairs, axis=1)

    def local_regions(self, vhats) -> Tensor:
        """Refined maps -> (B*N, L, d) region batch for the local decoder."""
        reg = T.stack([regions_of(vh) for vh in vhats], axis=1)  # (B, N, L, d)
        b, n, l, d = reg.shape
        return reg.reshape(b * n, l, d)

    def forward_probs(self, x: Tensor):
        """Image batch -> (fused map, refined maps, (B, N) AU probabilities)."""
        v = self.fused_map(x)
        vhats = self.refined_maps(v)
        probs = au_probs_from_pair_logits(self.au_pair_logits(vhats))
        return v, vhats, probs

    def predict(self, images: np.ndarray) -> np.ndarray:
        """(B, C, H, W) images -> (B, N) AU probabilities, no gradients."""
        with T.no_grad():
            _, _, probs = self.forward_probs(Tensor(images.astype(self.config.np_dtype)))
        return probs.data

    # ----- training objective ----------------------------------------------

    def training_losses(self, images, labels, local_tokens, global_tokens,
                        weights: ClassWeights, enable=None) -> dict:
        """All four loss terms plus their sum, as graph-carrying scalars.

        images (B, C, H, W); labels (B, N); local_tokens (B, N, T);
        global_tokens (B, T).  ``enable`` may switch off any of
        fau/lgen/ggen/gau; disabled terms log as exact zero and the shared
        forward trunk is unchanged.
        """
        cfg = self.config
        on = {"fau": True, "lgen": True, "ggen": True, "gau": True, **(enable or {})}
        dt = cfg.np_dtype
        x = Tensor(np.ascontiguousarray(images, dtype=dt))
        y = np.asarray(labels, dtype=dt)
        zero = Tensor(np.asarray(0.0, dtype=dt))

        v, vhats, probs = self.forward_probs(x)
        l_fau = l_lgen = l_ggen = l_gau = zero
        if on["fau"]:
            l_fau = fau_loss(probs, y, weights)
        if on["lgen"]:
            flat_gold = np.asarray(local_tokens).reshape(x.shape[0] * cfg.n_aus, -1)
            lp, _, _, mask = teacher_forced_batch(self.local_dec, self.local_regions(vhats),
                                                  flat_gold)
            l_lgen = sequence_nll(lp, mask)

        if on["ggen"] or on["gau"]:
            lp, ctxs, _, mask = teacher_forced_batch(self.global_dec, regions_of(v),
                                                     np.asarray(global_tokens))
            if on["ggen"]:
                l_ggen = sequence_nll(lp, mask)
            if on["gau"]:
                mf = mask.astype(dt)[:, :, None]
                counts = mask.sum(axis=1).astype(dt)[:, None]
                avg_ctx = (ctxs * mf).sum(axis=1) / counts  # (B, d)
                l_gau = global_aux_au_loss(avg_ctx, y, weights,
                                           self.clf_weight, self.clf_bias)

        total = joint_loss(l_fau, l_lgen, l_ggen, l_gau)
        return {"l_fau": l_fau, "l_lgen": l_lgen, "l_ggen": l_ggen,
                "l_gau": l_gau, "total": total}

    # ----- description -----------------------------------------------------

    def describe_ids(self, image: np.ndarray, beam_width: int = 3, max_len=None):
        """One (C, H, W) image in [0, 1] -> (AU probs, per-AU token ids,
        global token ids).  Raises ValueError on an invalid image or a beam
        width below 1, and NonFiniteLossError when the probabilities leave the
        reals.  A beam width of 1 is greedy decoding."""
        max_len = max_len or self.config.max_len
        image = Image(image).data
        with T.no_grad():
            x = Tensor(image.astype(self.config.np_dtype)[None])
            v, vhats, probs = self.forward_probs(x)
            if not np.isfinite(probs.data).all():
                raise NonFiniteLossError("AU probabilities are not finite")
            local_ids = [beam_decode(regions_of(vh).data[0], self.local_dec, beam_width, max_len)
                         for vh in vhats]
            global_ids = beam_decode(regions_of(v).data[0], self.global_dec, beam_width, max_len)
        return probs.data[0], local_ids, global_ids
