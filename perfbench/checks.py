"""Output checks that recompute each answer independently.

None of these compares against a stored copy of earlier output.  Each takes
the program's output (a report, a JSON payload, a CSV file, token ids) plus
the model and data it came from, recomputes the answer through a different
route, and raises ``CheckFailed`` on any disagreement:

* AU scores: the benchmark's own confusion counts from ``Model.predict``.
* Top-5 word accuracy: a stable sort of teacher-forced logits, ties to the
  lower id, instead of the program's rank counting.
* Embeddings: the spatial mean of refined maps, taken in numpy.
* Greedy captions: each token against the arg-max of the teacher-forced
  log-probabilities for its prefix.
* Beam captions: a width-3 beam search written here, whose next-token
  scores come from teacher forcing, not from the program's decoder loop.
* Gradients: a central difference of the training loss along a seeded
  random direction, in float64, against the back-propagated gradient.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from aulang import tensor as T
from aulang.decoder import teacher_forced_batch
from aulang.model import Model, ModelConfig
from aulang.stem import regions_of
from aulang.tensor import Tensor
from aulang.train import load_checkpoint
from aulang.vocab import EOS, PAD

THRESHOLD = 0.5
# decisions may differ where a probability lies this close to the threshold:
# a sample pushed through in another batch moves by float32 rounding only
AMBIGUOUS = 1e-5
EVAL_CHUNK = 128


class CheckFailed(Exception):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def predict_in_chunks(model, images: np.ndarray, chunk: int = EVAL_CHUNK) -> np.ndarray:
    return np.concatenate([model.predict(images[i : i + chunk])
                           for i in range(0, images.shape[0], chunk)])


# ----- AU decisions ----------------------------------------------------------


def _f1_acc(tp, fp, fn, tn):
    denom = 2 * tp + fp + fn
    return (2 * tp / denom if denom else 0.0), (tp + tn) / (tp + fp + fn + tn)


def _achievable_scores(p: np.ndarray, y: np.ndarray) -> list:
    """Every (F1, accuracy) pair one AU can score when each decision within
    AMBIGUOUS of the threshold may go either way."""
    sure = np.abs(p - THRESHOLD) > AMBIGUOUS
    d = p >= THRESHOLD
    tp = int((d & y & sure).sum())
    fp = int((d & ~y & sure).sum())
    fn = int((~d & y & sure).sum())
    tn = int((~d & ~y & sure).sum())
    pos = int((y & ~sure).sum())
    neg = int((~y & ~sure).sum())
    return [_f1_acc(tp + i, fp + j, fn + pos - i, tn + neg - j)
            for i in range(pos + 1) for j in range(neg + 1)]


def check_au_scores(f1_per_au, acc_per_au, f1_avg, acc_avg, probs, labels) -> None:
    """Reported per-AU F1 and accuracy against the benchmark's own counts."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    require(len(f1_per_au) == probs.shape[1] and len(acc_per_au) == probs.shape[1],
            "per-AU score lists have the wrong length")
    for au in range(probs.shape[1]):
        options = _achievable_scores(probs[:, au], labels[:, au])
        require(any(abs(f - f1_per_au[au]) <= 1e-12 and abs(a - acc_per_au[au]) <= 1e-12
                    for f, a in options),
                f"au{au}: reported F1 {f1_per_au[au]!r} / accuracy {acc_per_au[au]!r} "
                f"not reachable from the model's probabilities (own: {options[0]})")
    require(abs(float(np.mean(f1_per_au)) - f1_avg) <= 1e-12, "macro F1 is not the per-AU mean")
    require(abs(float(np.mean(acc_per_au)) - acc_avg) <= 1e-12,
            "macro accuracy is not the per-AU mean")


# ----- teacher-forced word accuracy ------------------------------------------


def stable_topk_hits(logits: np.ndarray, gold: np.ndarray, k: int) -> int:
    """Gold tokens ranked inside the top k by a stable descending sort, so
    equal logits rank the lower id first."""
    order = np.argsort(-logits, axis=1, kind="stable")
    rank = np.argmax(order == gold[:, None], axis=1)
    return int((rank < k).sum())


def _tf_hits(params, regions: np.ndarray, gold: np.ndarray, k: int):
    _, _, logits, mask = teacher_forced_batch(params, Tensor(regions), gold)
    steps = mask.reshape(-1)
    flat_logits = logits.data.reshape(-1, logits.shape[-1])[steps]
    flat_gold = gold[:, : mask.shape[1]].reshape(-1)[steps]
    return stable_topk_hits(flat_logits, flat_gold, k), int(steps.sum())


def own_topk(model, dataset, indices, k: int = 5, chunk: int = EVAL_CHUNK):
    """(local, global) top-k word accuracy under teacher forcing."""
    cfg = model.config
    local_tok, global_tok = dataset.encoded_captions(cfg.max_len)
    hits = np.zeros((2, 2), dtype=np.int64)  # rows local/global: hits, steps
    with T.no_grad():
        for start in range(0, len(indices), chunk):
            idx = indices[start : start + chunk]
            v = model.fused_map(Tensor(dataset.images[idx].astype(cfg.np_dtype)))
            vhats = model.refined_maps(v)
            reg = np.stack([regions_of(vh).data for vh in vhats], axis=1)
            b, n, l, d = reg.shape
            hits[0] += _tf_hits(model.local_dec, reg.reshape(b * n, l, d),
                                local_tok[idx].reshape(b * n, -1), k)
            hits[1] += _tf_hits(model.global_dec, regions_of(v).data, global_tok[idx], k)
    return hits[0, 0] / hits[0, 1], hits[1, 0] / hits[1, 1]


def check_eval_payload(payload: dict, model, dataset, indices, fold: int) -> None:
    require(payload.get("fold") == fold, f"report is for fold {payload.get('fold')}, not {fold}")
    require(payload.get("n_samples") == len(indices),
            f"report covers {payload.get('n_samples')} samples, fold has {len(indices)}")
    probs = predict_in_chunks(model, dataset.images[indices])
    check_au_scores(payload["f1_per_au"], payload["acc_per_au"], payload["f1_avg"],
                    payload["acc_avg"], probs, dataset.labels[indices])
    top5_local, top5_global = own_topk(model, dataset, indices)
    require(abs(top5_local - payload["top5_local"]) <= 1e-9,
            f"top-5 local {payload['top5_local']!r}, own ranking gives {top5_local!r}")
    require(abs(top5_global - payload["top5_global"]) <= 1e-9,
            f"top-5 global {payload['top5_global']!r}, own ranking gives {top5_global!r}")


# ----- embedding export -------------------------------------------------------


def own_pooled(model, images: np.ndarray, chunk: int = EVAL_CHUNK) -> np.ndarray:
    """(B, N, d) spatial means of the refined maps."""
    out = []
    with T.no_grad():
        for start in range(0, images.shape[0], chunk):
            x = Tensor(images[start : start + chunk].astype(model.config.np_dtype))
            vhats = model.refined_maps(model.fused_map(x))
            out.append(np.stack([vh.data.mean(axis=(2, 3)) for vh in vhats], axis=1))
    return np.concatenate(out)


def check_export_csv(path, model, dataset, n_subjects: int) -> int:
    """Rows, metadata and vectors of an ``export-embeddings --subjects`` CSV;
    returns the number of samples it covers."""
    n, d = model.config.n_aus, model.config.feat_dim
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header = ["sample_id", "subject_id", "gender", "au", "label"] + [f"e_{j}" for j in range(d)]
    require(rows and rows[0] == header, "embedding CSV header is wrong")
    body = rows[1:]
    require(len(body) % n == 0, f"{len(body)} rows is not a multiple of {n} AUs")
    samples = [int(r[0]) for r in body[::n]]
    require(len(set(samples)) == len(samples), "a sample appears in two row groups")
    subjects = np.unique(dataset.subject_ids[samples])
    require(subjects.size == n_subjects, f"export covers {subjects.size} subjects, "
                                         f"asked for {n_subjects}")
    genders = [dataset.genders[int(np.flatnonzero(dataset.subject_ids == s)[0])]
               for s in subjects]
    require(genders.count(genders[0]) * 2 == len(genders), "subjects are not gender-balanced")
    expected = np.flatnonzero(np.isin(dataset.subject_ids, subjects))
    require(sorted(samples) == expected.tolist(),
            "export does not hold exactly the samples of its subjects")
    vectors = np.empty((len(samples), n, d))
    for row_no, row in enumerate(body):
        s, au = samples[row_no // n], row_no % n
        require(len(row) == 5 + d, f"row {row_no + 1} has {len(row)} fields")
        require(row[:5] == [str(s), str(dataset.subject_ids[s]), dataset.genders[s], str(au),
                            str(int(dataset.labels[s, au]))],
                f"row {row_no + 1} metadata {row[:5]} does not match the dataset")
        vectors[row_no // n, au] = [float(x) for x in row[5:]]
    own = own_pooled(model, dataset.images[samples])
    worst = float(np.abs(vectors - own).max())
    require(np.allclose(vectors, own, rtol=1e-5, atol=1e-6),
            f"exported vectors differ from the refined maps' spatial means by up to {worst:.3g}")
    return len(samples)


# ----- describe ---------------------------------------------------------------


def _reject_constant(name):
    raise CheckFailed(f"JSON holds the non-finite constant {name}")


def parse_json(text: str) -> dict:
    """Parse one JSON document, refusing NaN and infinities."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def caption_regions(model, image: np.ndarray):
    """Per-branch (L, d) regions and the global (L, d) regions of one image."""
    with T.no_grad():
        v, vhats, _ = model.forward_probs(Tensor(np.asarray(image, model.config.np_dtype)[None]))
    return [regions_of(vh).data[0] for vh in vhats], regions_of(v).data[0]


def check_describe_payload(payload: dict, model, vocab, image, beam: int, sample_id=None):
    """Probabilities against ``Model.predict`` and caption text against the
    decoded ``Model.describe_ids``; returns the (local, global) ids."""
    n = model.config.n_aus
    keys = {"aus", "global_description"} | ({"sample_id"} if sample_id is not None else set())
    require(set(payload) == keys, f"unexpected payload keys {sorted(payload)}")
    if sample_id is not None:
        require(payload["sample_id"] == sample_id, "payload names another sample")
    aus = payload["aus"]
    require(len(aus) == n and [row.get("au") for row in aus] == list(range(n)),
            "payload does not list every AU once, in order")
    own = model.predict(np.asarray(image)[None])[0]
    _, local_ids, global_ids = model.describe_ids(image, beam_width=beam)
    for i, row in enumerate(aus):
        p = row["probability"]
        require(0.0 <= p <= 1.0, f"au{i}: probability {p!r} outside [0, 1]")
        require(row["active"] == (p >= THRESHOLD), f"au{i}: active flag disagrees with p={p!r}")
        require(abs(p - float(own[i])) <= 1e-6,
                f"au{i}: probability {p!r}, predict gives {own[i]!r}")
        require(row["description"] == vocab.decode(local_ids[i]),
                f"au{i}: caption {row['description']!r} is not the decoded "
                f"{vocab.decode(local_ids[i])!r}")
    require(payload["global_description"] == vocab.decode(global_ids),
            f"global caption {payload['global_description']!r} is not the decoded "
            f"{vocab.decode(global_ids)!r}")
    return local_ids, global_ids


def prefix_logits(params, regions: np.ndarray, prefixes) -> np.ndarray:
    """Teacher-forced logits (P, t + 1, vocab) for P equal-length prefixes:
    position j is the next-token distribution after prefix[:j].

    Each row is padded with EOS so that it keeps t + 1 non-pad steps even
    when the prefix itself contains the pad id.
    """
    t = len(prefixes[0])
    rows = [list(p) + [EOS] * (1 + sum(tok == PAD for tok in p)) for p in prefixes]
    gold = np.full((len(rows), max(len(r) for r in rows)), PAD, dtype=np.int64)
    for i, row in enumerate(rows):
        gold[i, : len(row)] = row
    with T.no_grad():
        reg = Tensor(np.repeat(np.asarray(regions)[None], len(rows), axis=0))
        _, _, logits, _ = teacher_forced_batch(params, reg, gold)
    return logits.data[:, : t + 1]


def _log_softmax64(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def check_greedy_tokens(params, regions: np.ndarray, ids) -> None:
    """Every greedy token is the arg-max (lowest id on ties) of the
    teacher-forced log-probabilities for its prefix."""
    logits = prefix_logits(params, regions, [ids])[0]
    with T.no_grad():
        ls = T.log_softmax(Tensor(logits), axis=-1).data
    for j, tok in enumerate(ids):
        best = int(np.argmax(ls[j]))
        require(best == tok, f"greedy step {j}: emitted {tok}, teacher-forced arg-max is {best}")


def own_beam(params, regions: np.ndarray, width: int, max_len: int):
    """Width-limited beam search over raw log-prob sums, ranking by (score
    desc, sequence asc); returns (best score, best sequence)."""
    live = [(0.0, ())]
    finished = []
    for _ in range(max_len):
        ls = _log_softmax64(prefix_logits(params, regions, [seq for _, seq in live])[:, -1])
        cands = sorted(((score + ls[i, tok], seq + (tok,))
                        for i, (score, seq) in enumerate(live) for tok in range(ls.shape[1])),
                       key=lambda c: (-c[0], c[1]))[:width]
        live = [c for c in cands if c[1][-1] != EOS]
        finished.extend(c for c in cands if c[1][-1] == EOS)
        if not live:
            break
    return min(finished + live, key=lambda c: (-c[0], c[1]))


def sequence_logprob(params, regions: np.ndarray, ids) -> float:
    ls = _log_softmax64(prefix_logits(params, regions, [ids])[0])
    return float(sum(ls[j, tok] for j, tok in enumerate(ids)))


def check_beam_caption(params, regions: np.ndarray, ids, width: int, max_len: int) -> None:
    """The caption's teacher-forced log-probability equals the best score of
    an independent beam search of the same width."""
    best, best_seq = own_beam(params, regions, width, max_len)
    got = sequence_logprob(params, regions, ids)
    require(abs(got - best) <= 1e-4 * max(1.0, abs(best)),
            f"beam caption {list(ids)} scores {got:.6f}; own width-{width} beam finds "
            f"{list(best_seq)} at {best:.6f}")


# ----- training ---------------------------------------------------------------


def check_history(history) -> None:
    for row in history:
        for key in ("l_fau", "l_lgen", "l_ggen", "l_gau", "total"):
            require(math.isfinite(row[key]), f"epoch {row['epoch']}: {key} is {row[key]!r}")
    require(history[-1]["total"] < history[0]["total"],
            f"mean total loss rose from {history[0]['total']!r} to {history[-1]['total']!r}")


def float64_copy(model):
    cfg = ModelConfig.from_dict(dict(model.config.to_dict(), dtype="float64"))
    copy = Model(cfg, seed=model.seed)
    source = dict(model.named_parameters())
    for name, p in copy.named_parameters():
        p.data = source[name].data.astype(np.float64)
    return copy


def directional_derivatives(model, batch: dict, weights, seed: int, step: float = 1e-5):
    """(back-propagated, central-difference) derivative of the total training
    loss along one seeded random unit direction in parameter space, in a
    float64 copy of ``model``."""
    m64 = float64_copy(model)
    params = m64.parameters()
    rng = np.random.default_rng([seed, 17])
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = math.sqrt(sum(float((u * u).sum()) for u in direction))
    direction = [u / norm for u in direction]

    def loss():
        return m64.training_losses(batch["images"], batch["labels"], batch["local_tokens"],
                                   batch["global_tokens"], weights)["total"]

    T.zero_grads(params)
    loss().backward()
    analytic = sum(float((p.grad * u).sum()) for p, u in zip(params, direction))
    base = [p.data.copy() for p in params]

    def shifted(h):
        for p, b, u in zip(params, base, direction):
            p.data = b + h * u
        with T.no_grad():
            return float(loss().data)

    numeric = (shifted(step) - shifted(-step)) / (2 * step)
    return analytic, numeric


def check_directional(analytic: float, numeric: float, rtol: float = 1e-5) -> None:
    require(abs(analytic - numeric) <= rtol * max(1.0, abs(analytic), abs(numeric)),
            f"directional derivative: backward gives {analytic!r}, "
            f"central difference gives {numeric!r}")


def check_reload(model, ckpt_dir, images: np.ndarray) -> None:
    """The written checkpoint restores bit-identical predictions."""
    restored, _, _ = load_checkpoint(ckpt_dir)
    require(np.array_equal(restored.predict(images), model.predict(images)),
            "reloaded checkpoint predicts differently from the in-memory model")
