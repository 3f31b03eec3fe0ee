"""Training objectives: weighted AU recognition, caption likelihoods and the
auxiliary global-context AU term, combined by an unweighted sum.

AU class weights follow inverse occurrence, normalised to sum to one:

    gamma_i = (1 / eps_i) / sum_j (1 / eps_j)

so rare units pull harder on the recognition loss.  Probabilities entering a
log are clamped to [1e-7, 1 - 1e-7]; degenerate predictions cost a large but
finite amount instead of overflowing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

PROB_FLOOR = 1e-7


class NonFiniteLossError(ValueError):
    """A loss term left the reals; training must stop, not continue."""


@dataclass
class ClassWeights:
    epsilon: np.ndarray  # per-AU occurrence rates
    gamma: np.ndarray  # normalised inverse rates, sums to 1

    @property
    def n_aus(self):
        return self.gamma.shape[0]


def compute_class_weights(rates) -> ClassWeights:
    eps = np.asarray(rates, dtype=np.float64)
    if eps.ndim != 1 or eps.size == 0:
        raise ValueError("occurrence rates must be a non-empty vector")
    if not np.isfinite(eps).all() or (eps <= 0).any():
        raise ValueError("occurrence rates must be finite and positive")
    inv = 1.0 / eps
    return ClassWeights(eps, inv / inv.sum())


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def fau_loss(probs, labels, weights: ClassWeights) -> Tensor:
    """Weighted multi-label BCE, averaged over the batch.

    probs: (N,) or (B, N) activation probabilities; labels same shape in
    {0, 1}.  Each sample costs -(1/N) * sum_i gamma_i * (y_i log p_i +
    (1 - y_i) log(1 - p_i)).
    """
    p = _as_tensor(probs)
    y = np.asarray(labels, dtype=p.data.dtype)
    if p.shape != y.shape or p.shape[-1] != weights.n_aus:
        raise ValueError(f"probs {p.shape} / labels {y.shape} / weights {weights.n_aus} mismatch")
    pc = T.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    gamma = weights.gamma.astype(p.data.dtype)
    bracket = T.log(pc) * y + T.log(1.0 - pc) * (1.0 - y)
    per_sample = (bracket * gamma).sum(axis=-1) * (-1.0 / weights.n_aus)
    return per_sample.mean() if per_sample.data.ndim else per_sample


def sequence_nll(logprobs, mask) -> Tensor:
    """Mean over sequences of per-sequence mean negative log-probability.

    logprobs: (X, T) per-step gold log-probs; mask: (X, T) bools marking
    real steps.  Every row needs at least one real step.
    """
    lp = _as_tensor(logprobs)
    m = np.asarray(mask)
    if lp.shape != m.shape:
        raise ValueError(f"logprobs {lp.shape} vs mask {m.shape}")
    counts = m.sum(axis=-1)
    if (counts == 0).any():
        raise ValueError("mask has a row with no real steps")
    mf = m.astype(lp.data.dtype)
    per_seq = (lp * mf).sum(axis=-1) / counts.astype(lp.data.dtype)
    return -(per_seq.mean() if per_seq.data.ndim else per_seq)


def au_probs_from_pair_logits(pair_logits: Tensor) -> Tensor:
    """(..., N, 2) inactive/active logits -> (..., N) active probabilities."""
    if pair_logits.shape[-1] != 2:
        raise ValueError("expected logit pairs on the last axis")
    return T.softmax(pair_logits, axis=-1)[..., 1]


def global_aux_au_loss(avg_context, labels, weights: ClassWeights,
                       clf_weight: Tensor, clf_bias: Tensor) -> Tensor:
    """AU loss recomputed from the mean attended context of the global
    decoder, pushed through the same shared classifier."""
    ctx = _as_tensor(avg_context)
    logits = ctx @ clf_weight + clf_bias
    b = logits.shape[:-1]
    pairs = logits.reshape(*b, weights.n_aus, 2)
    return fau_loss(au_probs_from_pair_logits(pairs), labels, weights)


def joint_loss(l_fau, l_lgen, l_ggen, l_gau) -> Tensor:
    """Unweighted sum of the four terms; refuses non-finite inputs."""
    terms = []
    for name, term in (("l_fau", l_fau), ("l_lgen", l_lgen), ("l_ggen", l_ggen), ("l_gau", l_gau)):
        t = term if isinstance(term, Tensor) else Tensor(np.asarray(term, dtype=np.float64))
        if not np.isfinite(t.data).all():
            raise NonFiniteLossError(f"{name} is not finite: {t.data}")
        terms.append(t)
    return terms[0] + terms[1] + terms[2] + terms[3]
