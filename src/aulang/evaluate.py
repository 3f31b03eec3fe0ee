"""Evaluation: frame-level AU metrics, teacher-forced word accuracy and
embedding export.

F1 here is the frame variant: per AU over all samples, with 0 whenever
precision and recall are both undefined or zero.  Word accuracy is top-k
under teacher forcing; rank ties between equal logits resolve toward the
lower token id, matching decode-time tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor
from .decoder import teacher_forced_batch
from .stem import regions_of

DECISION_THRESHOLD = 0.5


def confusion_counts(decisions: np.ndarray, labels: np.ndarray) -> dict:
    d = np.asarray(decisions).astype(bool)
    y = np.asarray(labels).astype(bool)
    if d.shape != y.shape or d.ndim != 2:
        raise ValueError(f"decisions {d.shape} vs labels {y.shape}")
    return {
        "tp": (d & y).sum(axis=0),
        "fp": (d & ~y).sum(axis=0),
        "fn": (~d & y).sum(axis=0),
        "tn": (~d & ~y).sum(axis=0),
    }


def f1_frame(decisions: np.ndarray, labels: np.ndarray):
    """Per-AU F1 plus the macro average."""
    c = confusion_counts(decisions, labels)
    denom = 2 * c["tp"] + c["fp"] + c["fn"]
    f1 = np.where(denom > 0, 2 * c["tp"] / np.maximum(denom, 1), 0.0)
    return f1, float(f1.mean())


def accuracy(decisions: np.ndarray, labels: np.ndarray):
    c = confusion_counts(decisions, labels)
    total = c["tp"] + c["fp"] + c["fn"] + c["tn"]
    acc = (c["tp"] + c["tn"]) / total
    return acc, float(acc.mean())


def topk_word_accuracy(logits: np.ndarray, gold: np.ndarray, k: int = 5) -> float:
    """Fraction of steps whose gold token ranks inside the top k.

    logits (S, V), gold (S,).  A token's rank counts every strictly larger
    logit plus every equal logit at a smaller id.
    """
    logits = np.asarray(logits)
    gold = np.asarray(gold)
    if logits.ndim != 2 or gold.shape != (logits.shape[0],):
        raise ValueError(f"logits {logits.shape} vs gold {gold.shape}")
    if logits.shape[0] == 0:
        raise ValueError("no steps to score")
    if k > logits.shape[1]:
        raise ValueError(f"k={k} exceeds vocabulary size {logits.shape[1]}")
    gold_logit = np.take_along_axis(logits, gold[:, None], axis=1)
    better = (logits > gold_logit).sum(axis=1)
    tie_lower = ((logits == gold_logit) & (np.arange(logits.shape[1]) < gold[:, None])).sum(axis=1)
    return float(((better + tie_lower) < k).mean())


@dataclass
class EvalReport:
    n_samples: int
    f1_per_au: np.ndarray
    f1_avg: float
    acc_per_au: np.ndarray
    acc_avg: float
    top5_local: float
    top5_global: float
    fold: int | None = None

    def to_dict(self):
        return {
            "n_samples": self.n_samples,
            "fold": self.fold,
            "f1_per_au": [float(x) for x in self.f1_per_au],
            "f1_avg": self.f1_avg,
            "acc_per_au": [float(x) for x in self.acc_per_au],
            "acc_avg": self.acc_avg,
            "top5_local": self.top5_local,
            "top5_global": self.top5_global,
        }

    def format_text(self):
        lines = [f"samples: {self.n_samples}" if self.fold is None
                 else f"samples: {self.n_samples} (fold {self.fold})"]
        for i, (f1, acc) in enumerate(zip(self.f1_per_au, self.acc_per_au)):
            lines.append(f"au{i}: f1 {f1:.4f}  acc {acc:.4f}")
        lines.append(f"macro f1 {self.f1_avg:.4f}  macro acc {self.acc_avg:.4f}")
        lines.append(f"top5 word acc: local {self.top5_local:.4f}  global {self.top5_global:.4f}")
        return "\n".join(lines)


def evaluate_model(model, dataset, indices, max_len=None, k: int = 5,
                   batch_size: int = 128, fold=None) -> EvalReport:
    """Score AU decisions and teacher-forced caption ranks on a sample set."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValueError("no samples selected for evaluation")
    cfg = model.config
    max_len = max_len or cfg.max_len
    local_tok, global_tok = dataset.encoded_captions(max_len)

    probs_all = np.zeros((indices.size, cfg.n_aus))
    local_hits = np.zeros(2)  # hits, steps
    global_hits = np.zeros(2)
    with T.no_grad():
        for start in range(0, indices.size, batch_size):
            idx = indices[start : start + batch_size]
            x = Tensor(dataset.images[idx].astype(cfg.np_dtype))
            b = idx.size
            v, vhats, probs = model.forward_probs(x)
            probs_all[start : start + b] = probs.data

            flat_reg = model.local_regions(vhats)
            flat_gold = local_tok[idx].reshape(b * cfg.n_aus, -1)
            _, _, logits, mask = teacher_forced_batch(model.local_dec, flat_reg, flat_gold)
            steps = mask.reshape(-1)
            flat_logits = logits.data.reshape(-1, cfg.vocab_size)[steps]
            flat_tok = flat_gold[:, : mask.shape[1]].reshape(-1)[steps]
            local_hits += (topk_word_accuracy(flat_logits, flat_tok, k) * steps.sum(), steps.sum())

            _, _, glogits, gmask = teacher_forced_batch(model.global_dec, regions_of(v),
                                                        global_tok[idx])
            gsteps = gmask.reshape(-1)
            gl = glogits.data.reshape(-1, cfg.vocab_size)[gsteps]
            gt = global_tok[idx][:, : gmask.shape[1]].reshape(-1)[gsteps]
            global_hits += (topk_word_accuracy(gl, gt, k) * gsteps.sum(), gsteps.sum())

    labels = dataset.labels[indices]
    decisions = probs_all >= DECISION_THRESHOLD
    f1s, f1_avg = f1_frame(decisions, labels)
    accs, acc_avg = accuracy(decisions, labels)
    return EvalReport(
        n_samples=int(indices.size),
        f1_per_au=f1s, f1_avg=f1_avg,
        acc_per_au=accs, acc_avg=acc_avg,
        top5_local=float(local_hits[0] / local_hits[1]),
        top5_global=float(global_hits[0] / global_hits[1]),
        fold=fold,
    )


def export_embeddings(model, dataset, indices, path, batch_size: int = 128) -> int:
    """Write per-(sample, AU) pooled branch vectors as CSV; returns row count.

    Columns: sample_id, subject_id, gender, au, label, then the vector dims.
    """
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ValueError("no samples selected for export")
    cfg = model.config

    with open(path, "w", encoding="utf-8") as fh:
        dims = ",".join(f"e_{j}" for j in range(cfg.feat_dim))
        fh.write(f"sample_id,subject_id,gender,au,label,{dims}\n")
        rows = 0
        with T.no_grad():
            for start in range(0, indices.size, batch_size):
                idx = indices[start : start + batch_size]
                x = Tensor(dataset.images[idx].astype(cfg.np_dtype))
                _, vhats, _ = model.forward_probs(x)
                pooled = model.pool_branches(vhats)  # N tensors of (B, d)
                for bi, sample in enumerate(idx):
                    for au in range(cfg.n_aus):
                        vec = ",".join(repr(float(v_)) for v_ in pooled[au].data[bi])
                        fh.write(f"{sample},{dataset.subject_ids[sample]},"
                                 f"{dataset.genders[sample]},{au},"
                                 f"{int(dataset.labels[sample, au])},{vec}\n")
                        rows += 1
    return rows
