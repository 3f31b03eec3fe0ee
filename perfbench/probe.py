"""Per-layer probe for traced runs.

The probe times each layer from outside the program, by calling the layer's
public function at the shapes one training step, one evaluation batch or
one ``describe`` call gives it.  Backward time is the only part that needs
a trick: the layer's output is made a function of a leaf input, dotted with
a fixed upstream gradient, and ``backward()`` runs on that scalar, so the
span holds the layer's backward plus one elementwise product.

Every repetition starts from a fresh copy of the workload's checkpoint and
ends with one real ``train_step`` on it, so each repetition sees the same
weights.  Repetition 0 warms caches and is left out of the medians.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from aulang import tensor as T
from aulang.data import load_dataset
from aulang.decoder import beam_decode, greedy_decode, teacher_forced_batch
from aulang.evaluate import evaluate_model, export_embeddings
from aulang.losses import (au_probs_from_pair_logits, fau_loss, global_aux_au_loss,
                           joint_loss, sequence_nll)
from aulang.stem import msc_forward, regions_of, stem_forward
from aulang.tensor import Tensor
from aulang.train import AdamW, augment_array, load_checkpoint, save_checkpoint, train_step

REPS = 3
EVAL_BATCH = 128
VAL_SAMPLES = 256

# metric -> (span name, how one repetition's spans of that name combine)
# "sum": total time in the repetition; "caption": that total per caption
SPAN_METRICS = {
    "stem.fwd_ms": ("stem.fwd", "sum"),
    "stem.bwd_ms": ("stem.bwd", "sum"),
    "msc.fwd_ms": ("msc.fwd", "sum"),
    "msc.bwd_ms": ("msc.bwd", "sum"),
    "dair.fwd_ms": ("dair.fwd", "sum"),
    "dair.bwd_ms": ("dair.bwd", "sum"),
    "model.clf_fwd_ms": ("model.clf_fwd", "sum"),
    "decoder.local_tf_fwd_ms": ("decoder.local_tf_fwd", "sum"),
    "decoder.local_tf_bwd_ms": ("decoder.local_tf_bwd", "sum"),
    "decoder.global_tf_fwd_ms": ("decoder.global_tf_fwd", "sum"),
    "decoder.global_tf_bwd_ms": ("decoder.global_tf_bwd", "sum"),
    "losses.fwd_ms": ("losses.fwd", "sum"),
    "tensor.conv2d_fwd_ms": ("tensor.conv2d_fwd", "sum"),
    "tensor.conv2d_bwd_ms": ("tensor.conv2d_bwd", "sum"),
    "train.step_ms": ("train.step", "sum"),
    "train.adamw_ms": ("train.adamw", "sum"),
    "train.augment_ms": ("train.augment", "sum"),
    "evaluate.val_ms": ("evaluate.val", "sum"),
    "evaluate.forward_ms": ("evaluate.forward", "sum"),
    "evaluate.local_tf_ms": ("evaluate.local_tf", "sum"),
    "evaluate.global_tf_ms": ("evaluate.global_tf", "sum"),
    "evaluate.export_ms": ("evaluate.export", "sum"),
    "train.checkpoint_save_ms": ("train.checkpoint_save", "sum"),
    "train.checkpoint_load_ms": ("train.checkpoint_load", "sum"),
    "data.load_ms": ("data.load", "sum"),
    "data.encode_captions_ms": ("data.encode_captions", "sum"),
    "model.forward_b1_ms": ("model.forward_b1", "sum"),
    "decoder.greedy_ms_per_caption": ("decoder.greedy", "caption"),
    "decoder.beam3_ms_per_caption": ("decoder.beam3", "caption"),
}

# per-layer metrics that are not span times, with their units
OTHER_UNITS = {"tensor.graph_nodes": "count", "decoder.caption_tokens": "tokens",
               "data.synth_ms": "ms", "trace.samples_per_s": "samples/s"}
PER_LAYER = sorted(list(SPAN_METRICS) + list(OTHER_UNITS))


class _Upstream:
    """Fixed pseudo-random upstream gradients, one array per shape."""

    def __init__(self):
        self.cache = {}

    def scalar(self, outputs) -> Tensor:
        total = None
        for out in outputs:
            g = self.cache.get(out.shape)
            if g is None:
                g = np.random.default_rng(len(self.cache)).standard_normal(out.shape)
                g = self.cache[out.shape] = g.astype(out.data.dtype)
            term = (out * Tensor(g)).sum()
            total = term if total is None else total + term
        return total


def leaf(array) -> Tensor:
    return Tensor(np.array(array), requires_grad=True)


def graph_nodes(root: Tensor) -> int:
    """Tensors reachable from ``root`` through the recorded graph.  This
    reads ``Tensor._parents``: the engine has no public way to walk a graph."""
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Probe:
    def __init__(self, tracer, workload, ckpt_dir, tcfg):
        self.tracer, self.wl, self.ckpt_dir, self.tcfg = tracer, workload, ckpt_dir, tcfg
        self.up = _Upstream()
        self.tokens = []

    def span(self, name):
        return self.tracer.span(name)

    def backward(self, name, model, outputs):
        loss = self.up.scalar(outputs)
        T.zero_grads(model.parameters())
        with self.span(name):
            loss.backward()

    def run(self) -> dict:
        wl, cfg = self.wl, self.wl.model_cfg
        ds = wl.dataset
        idx = wl.train_idx[: self.tcfg.batch_size]
        self.local_tok, self.global_tok = ds.encoded_captions(cfg.max_len)
        self.batch = {"labels": ds.labels[idx], "local_tokens": self.local_tok[idx],
                      "global_tokens": self.global_tok[idx]}
        self.batch_images = ds.images[idx]
        self.val = wl.val_idx[:VAL_SAMPLES]
        self.aug_rng = np.random.default_rng([wl.seed, 3])
        reps = []
        for rep in range(REPS + 1):
            with self.span("probe.rep"):
                reps.append(self.tracer.spans[-1]["id"])
                self.repetition(rep)
        counted = reps[1:]
        metrics = {}
        for metric, (name, how) in SPAN_METRICS.items():
            per_rep = [sum(self.tracer.durations_ms(name, within=r)) for r in counted]
            if how == "caption":
                per_rep = [ms / (cfg.n_aus + 1) for ms in per_rep]
            metrics[metric] = statistics.median(per_rep)
        metrics["tensor.graph_nodes"] = float(self.nodes)
        metrics["decoder.caption_tokens"] = float(np.mean(self.tokens))
        return metrics

    def repetition(self, rep: int):
        with self.span("train.checkpoint_load"):
            model, vocab, _ = load_checkpoint(self.ckpt_dir)
        self.layers(model)
        self.evaluation(model)
        self.describe(model, rep)
        with self.span("data.load"):
            ds = load_dataset(self.wl.data_dir)
        with self.span("data.encode_captions"):
            ds.encoded_captions(model.config.max_len)
        opt = AdamW(model.parameters(), lr=self.tcfg.lr, beta1=self.tcfg.beta1,
                    beta2=self.tcfg.beta2, eps=self.tcfg.adam_eps,
                    weight_decay=self.tcfg.weight_decay)
        batch = dict(self.batch, images=self.augmented)
        if rep == 0:
            self.nodes = graph_nodes(model.training_losses(
                batch["images"], batch["labels"], batch["local_tokens"],
                batch["global_tokens"], self.wl.weights)["total"])
        with self.span("train.step"):
            train_step(model, opt, batch, self.wl.weights)
        with self.span("train.adamw"):
            opt.step()
        with self.span("train.checkpoint_save"):
            save_checkpoint(os.path.join(self.wl.work, "probe_ckpt"), model, vocab,
                            train_cfg=self.tcfg, fold=0, epoch=1)

    def layers(self, model):
        """Forward and backward of every layer at one training step's shapes."""
        cfg = model.config
        with self.span("train.augment"):
            self.augmented = augment_array(self.batch_images, self.aug_rng, self.tcfg)
        x = Tensor(self.augmented.astype(cfg.np_dtype))
        with self.span("stem.fwd"):
            stages = stem_forward(x, model.stem)
        self.backward("stem.bwd", model, stages)
        stage_leaves = [leaf(s.data) for s in stages]
        with self.span("msc.fwd"):
            v = msc_forward(stage_leaves, model.msc)
        self.backward("msc.bwd", model, [v])
        v_leaf = leaf(v.data)
        with self.span("dair.fwd"):
            vhats = model.refined_maps(v_leaf)
        self.backward("dair.bwd", model, vhats)
        vhat_leaves = [leaf(vh.data) for vh in vhats]
        with self.span("model.clf_fwd"):
            pairs = model.au_pair_logits(vhat_leaves)
        reg = np.stack([regions_of(vh).data for vh in vhats], axis=1)
        b, n, l, d = reg.shape
        with self.span("decoder.local_tf_fwd"):
            lp_local, _, _, mask_local = teacher_forced_batch(
                model.local_dec, leaf(reg.reshape(b * n, l, d)),
                self.batch["local_tokens"].reshape(b * n, -1))
        self.backward("decoder.local_tf_bwd", model, [lp_local])
        with self.span("decoder.global_tf_fwd"):
            lp_global, ctxs, _, mask_global = teacher_forced_batch(
                model.global_dec, leaf(regions_of(v).data), self.batch["global_tokens"])
        self.backward("decoder.global_tf_bwd", model, [lp_global, ctxs])
        self.losses(model, pairs, lp_local, mask_local, lp_global, ctxs, mask_global)
        self.convs(model, x, stages)

    def losses(self, model, pairs, lp_local, mask_local, lp_global, ctxs, mask_global):
        y = self.batch["labels"].astype(model.config.np_dtype)
        probs = leaf(au_probs_from_pair_logits(pairs).data)
        lpl, lpg = leaf(lp_local.data), leaf(lp_global.data)
        avg_ctx = leaf(ctxs.data.mean(axis=1))
        weights = self.wl.weights
        with self.span("losses.fwd"):
            joint_loss(fau_loss(probs, y, weights), sequence_nll(lpl, mask_local),
                       sequence_nll(lpg, mask_global),
                       global_aux_au_loss(avg_ctx, y, weights, model.clf_weight, model.clf_bias))

    def convs(self, model, x, stages):
        """Each convolution of one training step at its real shape."""
        stem_inputs = [x] + stages[:-1]
        jobs = [(inp, w, b, 2) for inp, w, b in zip(stem_inputs, model.stem.weights,
                                                     model.stem.biases)]
        jobs += [(s, w, b, 1) for s, w, b in zip(stages, model.msc.conv_weights,
                                                  model.msc.conv_biases)]
        gate_shape = (x.shape[0], 2) + stages[-1].shape[2:]
        gate_input = np.random.default_rng(0).random(gate_shape).astype(x.data.dtype)
        jobs += [(Tensor(gate_input), br.conv_kernel, br.conv_bias, 1) for br in model.branches]
        for inp, w, b, stride in jobs:
            inp = Tensor(inp.data)
            with self.span("tensor.conv2d_fwd"):
                out = T.conv2d(inp, w, b, stride=stride, pad=1)
            self.backward("tensor.conv2d_bwd", model, [out])

    def evaluation(self, model):
        """No-grad inference at the evaluation batch size."""
        cfg, ds = model.config, self.wl.dataset
        idx = self.val[:EVAL_BATCH]
        local_tok, global_tok = self.local_tok, self.global_tok
        with T.no_grad():
            x = Tensor(ds.images[idx].astype(cfg.np_dtype))
            with self.span("evaluate.forward"):
                v = model.fused_map(x)
                vhats = model.refined_maps(v)
                au_probs_from_pair_logits(model.au_pair_logits(vhats))
            reg = np.stack([regions_of(vh).data for vh in vhats], axis=1)
            b, n, l, d = reg.shape
            with self.span("evaluate.local_tf"):
                teacher_forced_batch(model.local_dec, Tensor(reg.reshape(b * n, l, d)),
                                     local_tok[idx].reshape(b * n, -1))
            with self.span("evaluate.global_tf"):
                teacher_forced_batch(model.global_dec, regions_of(v), global_tok[idx])
        with self.span("evaluate.val"):
            evaluate_model(model, ds, self.val, fold=0)
        with self.span("evaluate.export"):
            export_embeddings(model, ds, idx, os.path.join(self.wl.work, "probe.csv"))

    def describe(self, model, rep: int):
        """One image's forward at batch 1, then each of its captions decoded
        greedily and with beam 3."""
        cfg, ds = model.config, self.wl.dataset
        image = ds.images[self.val[0]]
        with T.no_grad():
            with self.span("model.forward_b1"):
                v, vhats, _ = model.forward_probs(Tensor(image[None].astype(cfg.np_dtype)))
            regions = [(regions_of(vh).data[0], model.local_dec) for vh in vhats]
            regions.append((regions_of(v).data[0], model.global_dec))
        for reg, params in regions:
            with self.span("decoder.greedy"):
                greedy = greedy_decode(reg, params, cfg.max_len)
            with self.span("decoder.beam3"):
                beam = beam_decode(reg, params, 3, cfg.max_len)
            if rep:
                self.tokens += [len(greedy), len(beam)]
