"""Training loop: AdamW, light augmentation, per-epoch validation metrics,
checkpointing and a finite-difference gradient audit.

Everything random is driven by generators derived from one seed, so two runs
with equal (dataset, config, seed) produce identical metrics files and
checkpoints.  Training aborts with NonFiniteLossError the moment any loss
term leaves the reals; it never trains past a numerical fault.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .data import Dataset, occurrence_rates, split_folds
from .evaluate import EvalReport, evaluate_model
from .losses import compute_class_weights
from .model import Model, ModelConfig
from .tenfile import read_tensor, write_tensor
from .vocab import Vocabulary

METRIC_COLUMNS = ("epoch", "l_fau", "l_lgen", "l_ggen", "l_gau", "total",
                  "val_f1_avg", "val_acc_avg", "val_top5_local", "val_top5_global")
LOSS_TERMS = ("fau", "lgen", "ggen", "gau")


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 32
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 5e-4
    crop: int = 0  # 0 keeps the full frame
    flip_prob: float = 0.5
    cutout_prob: float = 0.5
    cutout_size: int = 8
    folds: int = 3
    seed: int = 0
    ablate: list = field(default_factory=list)  # loss terms switched off

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.folds < 2:
            raise ValueError("epochs and batch_size must be positive, folds at least 2")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be non-negative")
        if not 0 <= self.flip_prob <= 1 or not 0 <= self.cutout_prob <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        if self.crop and (self.crop < 16 or self.crop % 16):
            raise ValueError("crop size must be a positive multiple of 16")
        bad = set(self.ablate) - set(LOSS_TERMS)
        if bad:
            raise ValueError(f"unknown loss terms {sorted(bad)}; known: {LOSS_TERMS}")

    @property
    def enable(self):
        return {term: term not in self.ablate for term in LOSS_TERMS}

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class AdamW:
    """Decoupled weight decay Adam; lr 0 leaves parameters bit-identical."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=5e-4):
        self.params = list(params)
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / b1c) / (np.sqrt(v / b2c) + self.eps)
            p.data -= (self.lr * (update + self.weight_decay * p.data)).astype(p.data.dtype)


def augment_array(images: np.ndarray, rng, cfg: TrainConfig) -> np.ndarray:
    """Random crop, horizontal flip and cutout over a (B, C, H, W) batch."""
    b, _, h, w = images.shape
    crop = cfg.crop or 0
    if crop:
        if crop > min(h, w):
            raise ValueError(f"crop {crop} exceeds image dims ({h}, {w})")
        out = np.empty(images.shape[:2] + (crop, crop), dtype=images.dtype)
        for i in range(b):
            top = int(rng.integers(0, h - crop + 1))
            left = int(rng.integers(0, w - crop + 1))
            out[i] = images[i, :, top : top + crop, left : left + crop]
    else:
        out = images.copy()
    hh, ww = out.shape[2:]
    for i in range(b):
        if rng.random() < cfg.flip_prob:
            out[i] = out[i, :, :, ::-1]
        if cfg.cutout_prob and rng.random() < cfg.cutout_prob:
            size = min(cfg.cutout_size, hh, ww)
            top = int(rng.integers(0, hh - size + 1))
            left = int(rng.integers(0, ww - size + 1))
            out[i, :, top : top + size, left : left + size] = 0.0
    return out


def train_step(model: Model, opt: AdamW, batch: dict, weights, enable=None) -> dict:
    """One optimisation step; returns the loss terms as floats."""
    losses = model.training_losses(batch["images"], batch["labels"],
                                   batch["local_tokens"], batch["global_tokens"],
                                   weights, enable=enable)
    T.zero_grads(model.parameters())
    losses["total"].backward()
    opt.step()
    return {k: float(v.data) for k, v in losses.items()}


@dataclass
class TrainResult:
    model: Model
    history: list  # one dict per epoch, METRIC_COLUMNS keys
    metrics_path: str
    checkpoint_dir: str
    report: EvalReport


def _write_metrics(path, history):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(METRIC_COLUMNS) + "\n")
        for row in history:
            fh.write(",".join(repr(row[c]) if c != "epoch" else str(row[c])
                              for c in METRIC_COLUMNS) + "\n")


def train(dataset: Dataset, fold: int, model_cfg: ModelConfig, cfg: TrainConfig,
          out_dir, log=None) -> TrainResult:
    """Train on every fold except ``fold``, validating on the held-out one."""
    os.makedirs(out_dir, exist_ok=True)
    folds = split_folds(dataset.subject_ids, cfg.folds, seed=cfg.seed)
    if not 0 <= fold < cfg.folds:
        raise ValueError(f"fold must be in 0..{cfg.folds - 1}")
    val_idx = folds[fold]
    train_idx = np.concatenate([f for i, f in enumerate(folds) if i != fold])

    weights = compute_class_weights(occurrence_rates(dataset.labels[train_idx]))
    local_tok, global_tok = dataset.encoded_captions(model_cfg.max_len)

    model = Model(model_cfg, seed=cfg.seed)
    opt = AdamW(model.parameters(), lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2,
                eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    shuffle_rng = np.random.default_rng([cfg.seed, 2, fold])
    aug_rng = np.random.default_rng([cfg.seed, 3, fold])

    history = []
    report = None
    for epoch in range(1, cfg.epochs + 1):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        sums = dict.fromkeys(("l_fau", "l_lgen", "l_ggen", "l_gau", "total"), 0.0)
        seen = 0
        for start in range(0, order.size, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            batch = {
                "images": augment_array(dataset.images[idx], aug_rng, cfg),
                "labels": dataset.labels[idx],
                "local_tokens": local_tok[idx],
                "global_tokens": global_tok[idx],
            }
            metrics = train_step(model, opt, batch, weights, enable=cfg.enable)
            for key in sums:
                sums[key] += metrics[key] * idx.size
            seen += idx.size
        report = evaluate_model(model, dataset, val_idx, fold=fold)
        row = {"epoch": epoch}
        row.update({k: sums[k] / seen for k in sums})
        row.update({"val_f1_avg": report.f1_avg, "val_acc_avg": report.acc_avg,
                    "val_top5_local": report.top5_local,
                    "val_top5_global": report.top5_global})
        history.append(row)
        if log:
            log(f"epoch {epoch}/{cfg.epochs}  total {row['total']:.4f}  "
                f"val f1 {row['val_f1_avg']:.4f}  top5 {row['val_top5_local']:.4f}")

    metrics_path = os.path.join(out_dir, "metrics.csv")
    _write_metrics(metrics_path, history)
    ckpt_dir = os.path.join(out_dir, "checkpoint")
    save_checkpoint(ckpt_dir, model, dataset.vocab, train_cfg=cfg, fold=fold,
                    epoch=cfg.epochs,
                    rng_states={"shuffle": shuffle_rng.bit_generator.state,
                                "augment": aug_rng.bit_generator.state})
    return TrainResult(model, history, metrics_path, ckpt_dir, report)


# ----- checkpointing ---------------------------------------------------------


def save_checkpoint(ckpt_dir, model: Model, vocab: Vocabulary, train_cfg=None,
                    fold=None, epoch=None, rng_states=None) -> str:
    """Directory of one tensor file per parameter plus a JSON manifest."""
    params_dir = os.path.join(ckpt_dir, "params")
    os.makedirs(params_dir, exist_ok=True)
    names = []
    for name, tensor in model.named_parameters():
        write_tensor(os.path.join(params_dir, f"{name}.ten"), tensor.data)
        names.append(name)
    vocab.save(os.path.join(ckpt_dir, "vocab.txt"))
    manifest = {
        "model_config": model.config.to_dict(),
        "model_seed": model.seed,
        "params": names,
        "train_config": train_cfg.to_dict() if train_cfg else None,
        "fold": fold,
        "epoch": epoch,
        "rng_states": rng_states,
    }
    with open(os.path.join(ckpt_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return ckpt_dir


def load_checkpoint(ckpt_dir):
    """Rebuild (model, vocab, manifest); float32 weights restore bit-exactly."""
    with open(os.path.join(ckpt_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    model = Model(ModelConfig.from_dict(manifest["model_config"]),
                  seed=manifest["model_seed"])
    named = dict(model.named_parameters())
    if sorted(named) != sorted(manifest["params"]):
        raise ValueError("checkpoint parameter names do not match the architecture")
    for name in manifest["params"]:
        data = read_tensor(os.path.join(ckpt_dir, "params", f"{name}.ten"))
        target = named[name]
        if data.shape != target.data.shape:
            raise ValueError(f"{name}: checkpoint shape {data.shape}, "
                             f"model expects {target.data.shape}")
        target.data = data.astype(target.data.dtype)
    vocab = Vocabulary.load(os.path.join(ckpt_dir, "vocab.txt"))
    return model, vocab, manifest


# ----- gradient audit --------------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_err: float
    worst_param: str
    worst_index: int
    n_checked: int
    per_param: dict  # name -> max rel err

    def format_text(self):
        lines = [f"checked {self.n_checked} coordinates; "
                 f"max rel err {self.max_rel_err:.3e} at "
                 f"{self.worst_param}[{self.worst_index}]"]
        for name, err in self.per_param.items():
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(loss_fn, named_params, epsilon: float = 1e-5, stride: int = 1) -> GradCheckReport:
    """Compare reverse-mode gradients against central differences.

    loss_fn rebuilds the loss from scratch on every call.  Relative error per
    coordinate is |fd - grad| / max(|fd|, |grad|, 1e-3); the floor keeps
    noise on near-zero gradients from dominating the report.
    """
    named_params = list(named_params)
    for _, p in named_params:
        p.grad = None
    loss_fn().backward()
    grads = {name: p.grad.copy() for name, p in named_params}

    worst = (0.0, "", -1)
    per_param = {}
    checked = 0
    for name, p in named_params:
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        local_max = 0.0
        for j in range(0, flat.size, stride):
            orig = flat[j]
            flat[j] = orig + epsilon
            with T.no_grad():
                fp = float(loss_fn().data)
            flat[j] = orig - epsilon
            with T.no_grad():
                fm = float(loss_fn().data)
            flat[j] = orig
            fd = (fp - fm) / (2.0 * epsilon)
            rel = abs(fd - gflat[j]) / max(abs(fd), abs(gflat[j]), 1e-3)
            checked += 1
            if rel > local_max:
                local_max = rel
            if rel > worst[0]:
                worst = (rel, name, j)
        per_param[name] = local_max
    return GradCheckReport(worst[0], worst[1], worst[2], checked, per_param)


def grad_check_model(model: Model, batch: dict, weights, epsilon: float = 1e-5,
                     stride: int = 1, enable=None) -> GradCheckReport:
    """Audit the full training objective of ``model`` on one batch."""

    def loss_fn():
        return model.training_losses(batch["images"], batch["labels"],
                                     batch["local_tokens"], batch["global_tokens"],
                                     weights, enable=enable)["total"]

    return grad_check(loss_fn, model.named_parameters(), epsilon=epsilon, stride=stride)
