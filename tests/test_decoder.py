"""Attention-LSTM decoder tests, including exhaustive beam-search oracles."""

import itertools

import numpy as np
import pytest

from aulang import tensor as T
from aulang.decoder import (
    DecoderParams,
    _step,
    _zeros_state,
    attend,
    beam_decode,
    greedy_decode,
    teacher_forced_batch,
    teacher_forced_logprobs,
)
from aulang.vocab import BOS, EOS, PAD


def tiny_params(seed, d=3, hidden=4, vocab=4, embed=3, strict=False, dtype=np.float32):
    return DecoderParams.init(np.random.default_rng(seed), d, hidden, vocab, embed,
                              strict_input=strict, dtype=dtype)


def tiny_regions(seed, l=2, d=3, dtype=np.float32):
    return np.random.default_rng(seed).standard_normal((l, d)).astype(dtype)


def alpha_of(regions, h_prev, params):
    """Attention weights of one (L, d) region set through the batched head."""
    with T.no_grad():
        alpha, _ = attend(params, T.Tensor(regions[None]), T.Tensor(h_prev[None]))
    return alpha.data[0]


def test_attention_normalised():
    # the tight 1e-9 budget needs float64; float32 rounds the sum at ~1e-7
    for seed in range(50):
        p = tiny_params(seed, d=5, hidden=6, vocab=7, embed=4, dtype=np.float64)
        regions = tiny_regions(seed + 1000, l=9, d=5, dtype=np.float64)
        h = np.random.default_rng(seed + 2000).standard_normal(6)
        alpha = alpha_of(regions, h, p)
        assert alpha.shape == (9,)
        assert np.all(alpha >= 0)
        assert abs(float(alpha.sum()) - 1.0) < 1e-9


def test_attention_normalised_float32():
    for seed in range(20):
        p = tiny_params(seed, d=5, hidden=6, vocab=7, embed=4)
        regions = tiny_regions(seed + 1000, l=9, d=5)
        h = np.random.default_rng(seed + 2000).standard_normal(6).astype(np.float32)
        alpha = alpha_of(regions, h, p)
        assert np.all(alpha >= 0)
        assert abs(float(alpha.sum()) - 1.0) < 1e-6


def test_attention_uniform_when_readout_zero():
    p = tiny_params(0, d=4, hidden=4)
    p.w_a.data[:] = 0.0
    alpha = alpha_of(tiny_regions(1, l=5, d=4), np.zeros(4, dtype=np.float32), p)
    assert np.allclose(alpha, 0.2, atol=1e-9)


def _reference_greedy(regions, params, max_len):
    """Batch-1 argmax loop -> (tokens, per-step log-probs)."""
    with T.no_grad():
        reg = T.Tensor(regions[None])
        h, c = _zeros_state(params, 1)
        prev = np.array([BOS])
        seq, scores = [], []
        for _ in range(max_len):
            h, c, _, _, logits = _step(params, reg, h, c, prev)
            ls = T.log_softmax(logits, axis=-1).data[0]
            tok = int(np.argmax(ls))  # ties go to the lowest id
            seq.append(tok)
            scores.append(float(ls[tok]))
            if tok == EOS:
                break
            prev = np.array([tok])
    return seq, scores


def _reference_beam(regions, params, width, max_len):
    """Beam search that steps each hypothesis at batch 1 and ranks candidate
    tuples by (score desc, sequence asc)."""
    with T.no_grad():
        reg = T.Tensor(regions[None])
        h0, c0 = _zeros_state(params, 1)
        live = [(0.0, (), h0, c0, BOS)]
        finished = []
        for _ in range(max_len):
            candidates = []
            for score, seq, h, c, prev in live:
                h2, c2, _, _, logits = _step(params, reg, h, c, np.array([prev]))
                ls = T.log_softmax(logits, axis=-1).data[0]
                for tok in range(params.vocab_size):
                    candidates.append((score + float(ls[tok]), seq + (tok,), h2, c2, tok))
            candidates.sort(key=lambda cand: (-cand[0], cand[1]))
            live = []
            for cand in candidates[:width]:
                if cand[4] == EOS:
                    finished.append((cand[0], cand[1]))
                else:
                    live.append(cand)
            if not live:
                break
        finished.extend((score, seq) for score, seq, _, _, _ in live)
    return list(min(finished, key=lambda f: (-f[0], f[1]))[1])


def test_greedy_scores_match_teacher_forcing_exactly():
    for seed in range(20):
        p = tiny_params(seed)
        regions = tiny_regions(seed + 50)
        seq, scores = _reference_greedy(regions, p, max_len=6)
        assert greedy_decode(regions, p, max_len=6) == seq
        replay = teacher_forced_logprobs(regions, seq, p)
        assert np.array_equal(np.array(scores), replay)


def test_greedy_stops_at_eos_or_max_len():
    p = tiny_params(7)
    regions = tiny_regions(8)
    seq = greedy_decode(regions, p, max_len=5)
    assert 1 <= len(seq) <= 5
    if EOS in seq:
        assert seq.index(EOS) == len(seq) - 1


def _oracle_best(regions, params, max_len):
    """Enumerate every legal terminal sequence and rank like the beam."""
    vocab = params.vocab_size
    cands = []
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(vocab), repeat=length):
            if EOS in seq[:-1]:
                continue
            if seq[-1] != EOS and length < max_len:
                continue
            lps = teacher_forced_logprobs(regions, seq, params)
            score = 0.0
            for v in lps:
                score += float(v)
            cands.append((score, seq))
    return list(min(cands, key=lambda c: (-c[0], c[1]))[1])


def test_beam_matches_exhaustive_oracle():
    for seed in range(25):
        p = tiny_params(seed)
        regions = tiny_regions(seed + 31)
        got = beam_decode(regions, p, width=64, max_len=3)
        want = _oracle_best(regions, p, max_len=3)
        assert got == want, f"seed {seed}: beam {got} oracle {want}"


def test_beam_width_one_equals_greedy():
    for seed in range(30):
        p = tiny_params(seed, d=4, hidden=5, vocab=6, embed=4)
        regions = tiny_regions(seed + 7, l=3, d=4)
        want, _ = _reference_greedy(regions, p, max_len=5)
        assert beam_decode(regions, p, width=1, max_len=5) == want


@pytest.mark.parametrize("width", [2, 3, 5, 16])
def test_beam_matches_per_hypothesis_reference(width):
    for seed in range(50):
        p = tiny_params(seed, d=4, hidden=5, vocab=6, embed=4)
        regions = tiny_regions(seed + 90, l=3, d=4)
        got = beam_decode(regions, p, width=width, max_len=6)
        assert got == _reference_beam(regions, p, width, max_len=6), f"seed {seed}"


@pytest.mark.parametrize("width", [2, 3, 5, 16])
def test_beam_ranks_tied_scores_like_the_reference(width):
    # read-out columns repeat with period 3, so every score has exact ties
    for seed in range(10):
        p = tiny_params(seed, vocab=64)
        p.w_s.data[:] = p.w_s.data[:, np.arange(64) % 3]
        regions = tiny_regions(seed + 40)
        got = beam_decode(regions, p, width=width, max_len=4)
        assert got == _reference_beam(regions, p, width, max_len=4), f"seed {seed}"


@pytest.mark.parametrize("width,want", [(1, [PAD] * 5), (2, [PAD] * 5), (3, [EOS]), (8, [EOS])])
def test_beam_exact_ties_go_to_the_smallest_sequence(width, want):
    # zero read-out: every token scores -log(vocab) at every step
    p = tiny_params(3, vocab=64)
    p.w_s.data[:] = 0.0
    assert beam_decode(tiny_regions(4), p, width=width, max_len=5) == want


def test_beam_score_monotone_in_width():
    def seq_score(regions, p, seq):
        return float(np.sum(teacher_forced_logprobs(regions, seq, p)))

    for seed in range(10):
        p = tiny_params(seed)
        regions = tiny_regions(seed + 70)
        scores = [
            seq_score(regions, p, beam_decode(regions, p, width=w, max_len=4))
            for w in (1, 2, 4, 16)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_invalid_arguments():
    p = tiny_params(0)
    regions = tiny_regions(1)
    with pytest.raises(ValueError):
        beam_decode(regions, p, width=0, max_len=3)
    with pytest.raises(ValueError):
        greedy_decode(regions, p, max_len=0)
    with pytest.raises(ValueError):
        teacher_forced_logprobs(regions, [], p)


def test_batch_matches_single_sequence():
    p = tiny_params(5, d=3, hidden=4, vocab=8, embed=3, dtype=np.float64)
    rng = np.random.default_rng(9)
    regions = rng.standard_normal((3, 4, 3))
    gold = np.array([[5, 6, EOS, PAD], [7, EOS, PAD, PAD], [4, 4, 5, EOS]])
    lps, ctxs, logits, mask = teacher_forced_batch(p, T.Tensor(regions), gold)
    assert lps.shape == (3, 4) and ctxs.shape == (3, 4, 3) and logits.shape == (3, 4, 8)
    assert np.array_equal(mask, gold != PAD)
    for i in range(3):
        n = int(mask[i].sum())
        single = teacher_forced_logprobs(regions[i], gold[i, :n], p)
        assert np.allclose(lps.data[i, :n], single, rtol=1e-10, atol=1e-12)


def test_strict_input_drops_embedding():
    p = tiny_params(11, d=3, hidden=4, vocab=5, embed=6, strict=True)
    assert p.cell_w.data.shape[0] == 3 + 4  # no embedding slot
    seq = greedy_decode(tiny_regions(12), p, max_len=4)
    assert 1 <= len(seq) <= 4
    names = dict(p.named("g"))
    assert "g.embed" in names  # table still exists for checkpoint symmetry


def test_batch_gradients_match_finite_differences():
    p = tiny_params(13, d=3, hidden=4, vocab=6, embed=3, dtype=np.float64)
    rng = np.random.default_rng(14)
    regions_data = rng.standard_normal((2, 4, 3))
    gold = np.array([[4, 5, EOS], [5, EOS, PAD]])

    def loss_tensor(reg_tensor):
        lps, _, _, mask = teacher_forced_batch(p, reg_tensor, gold)
        masked = lps * mask.astype(np.float64)
        per_seq = -masked.sum(axis=1) / mask.sum(axis=1)
        return per_seq.mean()

    reg = T.Tensor(regions_data.copy(), requires_grad=True)
    loss_tensor(reg).backward()

    def fval():
        with T.no_grad():
            return float(loss_tensor(T.Tensor(regions_data)).data)

    eps = 1e-6
    params = dict(p.named("dec"))
    params["regions"] = reg
    for name, t in params.items():
        target = regions_data if name == "regions" else t.data
        flat = target.reshape(-1)
        step = max(1, flat.size // 5)
        for j in range(0, flat.size, step):
            orig = flat[j]
            flat[j] = orig + eps
            fp = fval()
            flat[j] = orig - eps
            fm = fval()
            flat[j] = orig
            num = (fp - fm) / (2 * eps)
            ana = t.grad.reshape(-1)[j]
            denom = max(abs(num), abs(ana), 1e-6)
            assert abs(num - ana) / denom < 1e-5, f"{name}[{j}]: fd {num} vs grad {ana}"


def test_all_pad_batch_rejected():
    p = tiny_params(0)
    with pytest.raises(ValueError):
        teacher_forced_batch(p, T.Tensor(np.zeros((1, 2, 3), dtype=np.float32)),
                             np.full((1, 4), PAD))
