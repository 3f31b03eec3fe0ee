"""Loss term tests with hand-derived oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aulang import tensor as T
from aulang.losses import (
    ClassWeights,
    NonFiniteLossError,
    au_probs_from_pair_logits,
    compute_class_weights,
    fau_loss,
    global_aux_au_loss,
    joint_loss,
    sequence_nll,
)


def test_class_weights_exact_fractions():
    # rates 1/10, 1/5, 2/5 -> inverse 10, 5, 2.5 -> weights 4/7, 2/7, 1/7
    w = compute_class_weights([0.1, 0.2, 0.4])
    expected = [Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)]
    assert np.allclose(w.gamma, [float(f) for f in expected], rtol=1e-14)
    assert abs(w.gamma.sum() - 1.0) < 1e-12


def test_class_weights_uniform_rates():
    w = compute_class_weights([0.3] * 5)
    assert np.allclose(w.gamma, 0.2, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_class_weights_permutation_equivariant(seed):
    rng = np.random.default_rng(seed)
    eps = rng.uniform(0.05, 0.95, size=6)
    perm = rng.permutation(6)
    direct = compute_class_weights(eps[perm]).gamma
    permuted = compute_class_weights(eps).gamma[perm]
    assert np.allclose(direct, permuted, rtol=1e-13)
    assert abs(direct.sum() - 1.0) < 1e-12


def test_class_weights_validate():
    with pytest.raises(ValueError):
        compute_class_weights([0.5, 0.0])
    with pytest.raises(ValueError):
        compute_class_weights([0.5, -0.1])
    with pytest.raises(ValueError):
        compute_class_weights([])


def test_fau_loss_hand_computed():
    w = compute_class_weights([0.2, 0.6])  # gamma = 0.75, 0.25
    assert np.allclose(w.gamma, [0.75, 0.25], rtol=1e-15)
    loss = fau_loss(np.array([0.8, 0.3]), np.array([1.0, 0.0]), w)
    expected = -0.5 * (0.75 * math.log(0.8) + 0.25 * math.log(0.7))
    assert abs(float(loss.data) - expected) < 1e-12


def test_fau_loss_uniform_prediction_is_ln2_over_n():
    for n in (1, 3, 8):
        w = compute_class_weights(np.linspace(0.1, 0.9, n))
        labels = (np.arange(n) % 2).astype(float)
        loss = fau_loss(np.full(n, 0.5), labels, w)
        assert abs(float(loss.data) - math.log(2.0) / n) < 1e-9


def test_fau_loss_clamps_degenerate_probabilities():
    w = compute_class_weights([0.5])
    loss = fau_loss(np.array([0.0]), np.array([1.0]), w)
    assert abs(float(loss.data) - (-math.log(1e-7))) < 1e-9
    loss2 = fau_loss(np.array([1.0]), np.array([0.0]), w)
    assert np.isfinite(float(loss2.data))


def test_fau_loss_batch_is_mean_of_samples():
    w = compute_class_weights([0.3, 0.5, 0.2])
    rng = np.random.default_rng(0)
    probs = rng.uniform(0.01, 0.99, size=(4, 3))
    labels = rng.integers(0, 2, size=(4, 3)).astype(float)
    batch = float(fau_loss(probs, labels, w).data)
    singles = [float(fau_loss(probs[i], labels[i], w).data) for i in range(4)]
    assert abs(batch - np.mean(singles)) < 1e-12


def test_sequence_nll_hand_computed():
    lp = np.array([[-1.0, -2.0, 0.0], [-3.0, 0.0, 0.0]])
    mask = np.array([[True, True, False], [True, False, False]])
    # per-sequence means: 1.5 and 3.0 -> overall 2.25
    assert abs(float(sequence_nll(lp, mask).data) - 2.25) < 1e-12
    with pytest.raises(ValueError):
        sequence_nll(lp, np.zeros_like(mask))


def test_caption_losses_uniform_prediction_is_ln_vocab():
    for vocab in (4, 70):
        ls = T.log_softmax(T.Tensor(np.zeros((1, vocab))), axis=-1)
        lp = ls.data[0, :5].copy()  # any tokens; all steps cost ln(vocab)
        n = lp.size
        single = sequence_nll(lp[None], np.ones((1, n), dtype=bool))
        assert abs(float(single.data) - math.log(vocab)) < 1e-9
        ragged = np.stack([lp, np.r_[lp[:3], np.zeros(n - 3)]])
        mask = np.array([[True] * n, [True] * 3 + [False] * (n - 3)])
        assert abs(float(sequence_nll(ragged, mask).data) - math.log(vocab)) < 1e-9


def test_sequence_nll_ragged_rows_hand_computed():
    # per-row means 2.0 and 2.0: padding past a row's mask never counts
    lp = np.array([[-1.0, -3.0], [-2.0, -99.0]])
    loss = sequence_nll(lp, np.array([[True, True], [True, False]]))
    assert abs(float(loss.data) - 2.0) < 1e-12
    with pytest.raises(ValueError):
        sequence_nll(lp, np.array([[True, True], [False, False]]))


def test_pair_logit_probabilities():
    logits = T.Tensor(np.array([[[0.0, 0.0], [math.log(3.0), 0.0]]]))
    p = au_probs_from_pair_logits(logits)
    assert np.allclose(p.data, [[0.5, 0.25]], rtol=1e-12)


def test_global_aux_loss_matches_manual_path():
    rng = np.random.default_rng(1)
    d, n = 5, 3
    w = compute_class_weights([0.2, 0.5, 0.8])
    ctx = rng.standard_normal((2, d))
    labels = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    cw = T.parameter(rng.standard_normal((d, 2 * n)))
    cb = T.parameter(rng.standard_normal(2 * n))
    loss = global_aux_au_loss(ctx, labels, w, cw, cb)
    logits = (ctx @ cw.data + cb.data).reshape(2, n, 2)
    z = logits - logits.max(axis=-1, keepdims=True)
    probs = np.exp(z)[..., 1] / np.exp(z).sum(axis=-1)
    manual = float(fau_loss(probs, labels, w).data)
    assert abs(float(loss.data) - manual) < 1e-12


def test_joint_loss_sums_and_rejects_non_finite():
    total = joint_loss(1.0, 2.0, 3.5, 0.25)
    assert float(total.data) == 6.75
    with pytest.raises(NonFiniteLossError):
        joint_loss(1.0, float("nan"), 0.0, 0.0)
    with pytest.raises(NonFiniteLossError):
        joint_loss(float("inf"), 0.0, 0.0, 0.0)


def test_fau_loss_gradients_match_finite_differences():
    w = compute_class_weights([0.25, 0.4, 0.7])
    rng = np.random.default_rng(5)
    probs = rng.uniform(0.05, 0.95, size=(2, 3))
    labels = rng.integers(0, 2, size=(2, 3)).astype(float)
    t = T.Tensor(probs.copy(), requires_grad=True)
    fau_loss(t, labels, w).backward()
    eps = 1e-7
    for idx in np.ndindex(probs.shape):
        pp = probs.copy()
        pp[idx] += eps
        pm = probs.copy()
        pm[idx] -= eps
        num = (float(fau_loss(pp, labels, w).data) - float(fau_loss(pm, labels, w).data)) / (2 * eps)
        assert abs(num - t.grad[idx]) / max(abs(num), 1e-8) < 1e-6


def test_weighting_emphasises_rare_units():
    # the same miss on a rarer unit must cost more
    w = compute_class_weights([0.1, 0.5])
    miss_rare = fau_loss(np.array([0.2, 1.0]), np.array([1.0, 1.0]), w)
    miss_common = fau_loss(np.array([1.0, 0.2]), np.array([1.0, 1.0]), w)
    assert float(miss_rare.data) > float(miss_common.data)
