"""Attention-LSTM caption decoder.

One decoder instance turns a bag of feature regions into word sequences.  At
every step the previous hidden state scores all regions through a small
additive-attention head,

    alpha = softmax(w_a . relu(V w_v + h w_h)),

the attended context is the alpha-weighted sum of regions, and the LSTM cell
consumes [prev-word embedding; context; previous hidden] (the embedding slot
is dropped when ``strict_input`` is set).  Word logits are a linear read-out
of the new hidden state.

Beam search and teacher forcing run the same single-step function; greedy
decoding is beam search of width 1.  At batch 1 the scores of all paths agree
bit for bit on identical prefixes.  Beam steps that run at batch 2 or more
may differ from batch-1 scores in the last bits, as BLAS rounds a single row
differently from rows of a larger batch.  Ties anywhere (argmax, beam
ranking) resolve toward the lowest token id / lexicographically smallest
sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .vocab import BOS, EOS, PAD


@dataclass
class DecoderParams:
    w_v: Tensor  # (d, d) region projection
    w_h: Tensor  # (h, d) hidden projection
    w_a: Tensor  # (d, 1) attention read-out
    cell_w: Tensor  # (in_dim, 4h), gate order i, f, g, o
    cell_b: Tensor  # (4h,)
    w_s: Tensor  # (h, vocab) word read-out
    embed: Tensor  # (vocab, e)
    strict_input: bool = False

    @classmethod
    def init(cls, rng, d: int, hidden: int, vocab_size: int, embed_dim: int,
             strict_input: bool = False, dtype=np.float32):
        def mat(rows, cols, scale):
            return T.parameter((rng.standard_normal((rows, cols)) * scale).astype(dtype))

        in_dim = d + hidden + (0 if strict_input else embed_dim)
        cell_b = np.zeros(4 * hidden, dtype=dtype)
        cell_b[hidden : 2 * hidden] = 1.0  # open forget gates at the start
        return cls(
            w_v=mat(d, d, 1 / np.sqrt(d)),
            w_h=mat(hidden, d, 1 / np.sqrt(hidden)),
            w_a=mat(d, 1, 1 / np.sqrt(d)),
            cell_w=mat(in_dim, 4 * hidden, 1 / np.sqrt(in_dim)),
            cell_b=T.parameter(cell_b),
            w_s=mat(hidden, vocab_size, 1 / np.sqrt(hidden)),
            embed=mat(vocab_size, embed_dim, 1 / np.sqrt(embed_dim)),
            strict_input=strict_input,
        )

    def named(self, prefix: str):
        yield f"{prefix}.w_v", self.w_v
        yield f"{prefix}.w_h", self.w_h
        yield f"{prefix}.w_a", self.w_a
        yield f"{prefix}.cell.weight", self.cell_w
        yield f"{prefix}.cell.bias", self.cell_b
        yield f"{prefix}.w_s", self.w_s
        yield f"{prefix}.embed", self.embed

    @property
    def hidden_size(self):
        return self.w_h.data.shape[0]

    @property
    def vocab_size(self):
        return self.w_s.data.shape[1]

    @property
    def dtype(self):
        return self.w_v.data.dtype


def attend(params: DecoderParams, regions: Tensor, h_prev: Tensor):
    """regions (B, L, d), h_prev (B, h) -> alpha (B, L), context (B, d)."""
    b, l, _ = regions.shape
    scores = T.relu(regions @ params.w_v + (h_prev @ params.w_h).reshape(b, 1, -1)) @ params.w_a
    alpha = T.softmax(scores.reshape(b, l), axis=-1)
    context = (alpha.reshape(b, 1, l) @ regions).reshape(b, -1)
    return alpha, context


def _cell(params: DecoderParams, x: Tensor, c_prev: Tensor):
    h = params.hidden_size
    z = x @ params.cell_w + params.cell_b
    i = T.sigmoid(z[:, :h])
    f = T.sigmoid(z[:, h : 2 * h])
    g = T.tanh(z[:, 2 * h : 3 * h])
    o = T.sigmoid(z[:, 3 * h :])
    c = f * c_prev + i * g
    return o * T.tanh(c), c


def _step(params: DecoderParams, regions: Tensor, h_prev: Tensor, c_prev: Tensor,
          prev_tokens: np.ndarray):
    alpha, context = attend(params, regions, h_prev)
    pieces = [context, h_prev]
    if not params.strict_input:
        pieces.insert(0, T.take_rows(params.embed, prev_tokens))
    h, c = _cell(params, T.concat(pieces, axis=1), c_prev)
    logits = h @ params.w_s
    return h, c, alpha, context, logits


def _zeros_state(params: DecoderParams, batch: int):
    h = params.hidden_size
    z = np.zeros((batch, h), dtype=params.dtype)
    return Tensor(z), Tensor(z.copy())


def teacher_forced_logprobs(regions: np.ndarray, tokens, params: DecoderParams) -> np.ndarray:
    """Per-step log-probability of each gold token given the gold prefix."""
    tokens = [int(t) for t in tokens]
    if not tokens:
        raise ValueError("token sequence must be non-empty")
    with T.no_grad():
        reg = Tensor(np.asarray(regions)[None])
        h, c = _zeros_state(params, 1)
        prev = np.array([BOS])
        out = []
        for tok in tokens:
            h, c, _, _, logits = _step(params, reg, h, c, prev)
            ls = T.log_softmax(logits, axis=-1)
            out.append(float(ls.data[0, tok]))
            prev = np.array([tok])
    return np.array(out)


def teacher_forced_batch(params: DecoderParams, regions: Tensor, gold: np.ndarray):
    """Batched teacher forcing for training.

    regions (B, L, d) may carry gradients; gold (B, T) holds EOS-terminated,
    PAD-suffixed token rows.  Returns per-step log-probs (B, T'), contexts
    (B, T', d), logits (B, T', vocab) and the bool mask (B, T') of real
    steps, where T' is the longest non-pad row in the batch.
    """
    gold = np.asarray(gold)
    mask = gold != PAD
    n_steps = int(mask.sum(axis=1).max())
    if n_steps == 0:
        raise ValueError("batch contains only padding")
    b = gold.shape[0]
    h, c = _zeros_state(params, b)
    prev = np.full(b, BOS, dtype=np.int64)
    lps, ctxs, logit_steps = [], [], []
    for t in range(n_steps):
        h, c, _, context, logits = _step(params, regions, h, c, prev)
        ls = T.log_softmax(logits, axis=-1)
        lps.append(T.gather_index(ls, gold[:, t]))
        ctxs.append(context)
        logit_steps.append(logits)
        prev = gold[:, t]
    return (
        T.stack(lps, axis=1),
        T.stack(ctxs, axis=1),
        T.stack(logit_steps, axis=1),
        mask[:, :n_steps],
    )


def greedy_decode(regions: np.ndarray, params: DecoderParams, max_len: int) -> list:
    """Stepwise-argmax decoding (ties to the lowest id): width-1 beam search."""
    return beam_decode(regions, params, 1, max_len)


def beam_decode(regions: np.ndarray, params: DecoderParams, width: int, max_len: int) -> list:
    """Beam search over raw log-prob sums (no length normalisation).

    The live hypotheses are the rows of one batch, kept in sequence order, so
    each step is one ``_step`` call.  Flat candidate indices then run in
    sequence order too, and a stable sort on the negated scores ranks by
    (score desc, sequence asc).  EOS-terminated hypotheses freeze; live ones
    that reach max_len compete as-is.
    """
    if width < 1:
        raise ValueError("beam width must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    vocab = params.vocab_size
    tiled = np.repeat(np.asarray(regions)[None], width, axis=0)
    with T.no_grad():
        h, c = _zeros_state(params, 1)
        scores = np.zeros(1)  # float64 sums of the per-step log-probs
        seqs = np.zeros((1, 0), dtype=np.int64)
        prev = np.array([BOS])
        finished = []
        for _ in range(max_len):
            h, c, _, _, logits = _step(params, Tensor(tiled[: len(scores)]), h, c, prev)
            cand = (scores[:, None] + T.log_softmax(logits, axis=-1).data).ravel()
            top = np.sort(np.argsort(-cand, kind="stable")[:width])
            parent, tok = np.divmod(top, vocab)
            seqs = np.concatenate([seqs[parent], tok[:, None]], axis=1)
            scores = cand[top]
            done = tok == EOS
            finished.extend(zip(scores[done].tolist(), map(tuple, seqs[done].tolist())))
            live = ~done
            if not live.any():
                break
            scores, seqs, prev = scores[live], seqs[live], tok[live]
            h, c = Tensor(h.data[parent[live]]), Tensor(c.data[parent[live]])
        else:
            finished.extend(zip(scores.tolist(), map(tuple, seqs.tolist())))
    best = min(finished, key=lambda f: (-f[0], f[1]))
    return list(best[1])
