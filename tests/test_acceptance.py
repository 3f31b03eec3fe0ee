"""Acceptance gate: nine go/no-go checks over the whole package.

Each check prints one PASS or FAIL line (visible with ``pytest -s`` or in the
captured output); the assertions carry the actual tolerances.  The two
training-based checks dominate the runtime.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from aulang import tensor as T
from aulang.data import DataConfig, generate_dataset, load_dataset, split_folds
from aulang.decoder import (
    EOS,
    DecoderParams,
    attend,
    beam_decode,
    greedy_decode,
    teacher_forced_logprobs,
)
from aulang.losses import (
    compute_class_weights,
    fau_loss,
    sequence_nll,
)
from aulang.model import Model, ModelConfig
from aulang.train import TrainConfig, grad_check_model, load_checkpoint, train


@contextmanager
def criterion(n: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    print(f"PASS criterion {n}: {label} [{time.perf_counter() - t0:.1f}s]")


# --- 1: class-weight formula --------------------------------------------------


def test_criterion_1_class_weights():
    with criterion(1, "class weights: exact small case, 1000 random simplex checks"):
        t0 = time.perf_counter()
        w = compute_class_weights([0.5, 0.25, 0.25])
        assert np.abs(w.gamma - np.array([0.2, 0.4, 0.4])).max() <= 1e-12
        rng = np.random.default_rng(1)
        for _ in range(1000):
            rates = rng.uniform(0.02, 0.98, size=int(rng.integers(1, 16)))
            g = compute_class_weights(rates).gamma
            assert abs(g.sum() - 1.0) <= 1e-12
            assert (g > 0).all()
        assert time.perf_counter() - t0 < 1.0


# --- 2: closed-form losses ----------------------------------------------------


def test_criterion_2_uniform_predictor_losses():
    with criterion(2, "uniform predictor: fau = ln2/N, generation = ln(vocab)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        for n in (1, 3, 8):
            w = compute_class_weights(rng.uniform(0.1, 0.9, n))
            labels = rng.integers(0, 2, size=(4, n)).astype(np.float64)
            probs = np.full((4, n), 0.5)
            got = float(fau_loss(probs, labels, w).data)
            assert abs(got - np.log(2.0) / n) <= 1e-9
        for voc in (4, 10, 50):
            row = np.full(6, np.log(1.0 / voc))
            local = np.stack([row, np.r_[row[:3], np.zeros(3)]])  # second caption: 3 steps
            local_mask = np.array([[True] * 6, [True] * 3 + [False] * 3])
            assert abs(float(sequence_nll(local, local_mask).data) - np.log(voc)) <= 1e-9
            global_mask = np.ones((1, 6), dtype=bool)
            assert abs(float(sequence_nll(row[None], global_mask).data) - np.log(voc)) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


# --- 3: attention normalisation -------------------------------------------------


def test_criterion_3_attention_normalisation():
    with criterion(3, "attention weights: non-negative, sum to 1 +/- 1e-6, 1000 draws"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.choice([4, 8, 16]))
            hidden = int(rng.choice([4, 8, 16]))
            n_regions = int(rng.integers(1, 13))
            params = DecoderParams.init(rng, d, hidden, vocab_size=5, embed_dim=4)
            regions = rng.standard_normal((n_regions, d)).astype(np.float32) * 3.0
            h = rng.standard_normal(hidden).astype(np.float32) * 3.0
            with T.no_grad():
                alpha, _ = attend(params, T.Tensor(regions[None]), T.Tensor(h[None]))
            alpha = alpha.data[0]
            assert alpha.shape == (n_regions,)
            assert (alpha >= 0).all()
            assert abs(float(alpha.sum()) - 1.0) <= 1e-6
        assert time.perf_counter() - t0 < 5.0


# --- 4: gradient oracle ---------------------------------------------------------


def test_criterion_4_gradient_oracle():
    with criterion(4, "analytic gradients vs central differences, every parameter"):
        t0 = time.perf_counter()
        cfg = ModelConfig(n_aus=3, stem_width=4, msc_width=4, feat_dim=8,
                          reduction=4, hidden_size=8, embed_dim=8, vocab_size=10,
                          max_len=6, dtype="float64")
        model = Model(cfg, seed=4)
        rng = np.random.default_rng(40)
        images = rng.uniform(0.0, 1.0, size=(2, 3, 16, 16))
        labels = rng.integers(0, 2, size=(2, 3)).astype(np.float64)
        local_tokens = np.zeros((2, 3, cfg.max_len), dtype=np.int64)
        for b in range(2):
            for a in range(3):
                n_words = int(rng.integers(1, cfg.max_len - 1))
                local_tokens[b, a, :n_words] = rng.integers(4, 10, n_words)
                local_tokens[b, a, n_words] = EOS
        global_tokens = np.zeros((2, cfg.max_len), dtype=np.int64)
        global_tokens[:, :3] = [[5, 7, EOS], [9, 4, EOS]]
        weights = compute_class_weights([0.5, 0.3, 0.2])
        batch = {"images": images, "labels": labels,
                 "local_tokens": local_tokens, "global_tokens": global_tokens}
        report = grad_check_model(model, batch, weights, epsilon=1e-5, stride=1)
        n_params = sum(t.data.size for t in model.parameters())
        assert report.n_checked == n_params
        assert report.max_rel_err < 1e-4, report.format_text()
        assert time.perf_counter() - t0 < 300.0


# --- 5: beam-search oracle -------------------------------------------------------


def _oracle_best(regions, params, max_len):
    """Best legal terminal sequence by exhaustive enumeration, beam tie rules."""
    cands = []
    for length in range(1, max_len + 1):
        for seq in itertools.product(range(params.vocab_size), repeat=length):
            if EOS in seq[:-1]:
                continue
            if seq[-1] != EOS and length < max_len:
                continue
            score = 0.0
            for v in teacher_forced_logprobs(regions, seq, params):
                score += float(v)
            cands.append((score, seq))
    return list(min(cands, key=lambda c: (-c[0], c[1]))[1])


def test_criterion_5_beam_oracle():
    with criterion(5, "beam width 64 = exhaustive search (200 seeds); width 1 = greedy (100)"):
        t0 = time.perf_counter()
        for seed in range(200):
            rng = np.random.default_rng([5, seed])
            params = DecoderParams.init(rng, 4, 4, vocab_size=4, embed_dim=4)
            regions = rng.standard_normal((3, 4)).astype(np.float32)
            got = beam_decode(regions, params, width=64, max_len=3)
            assert got == _oracle_best(regions, params, 3), f"seed {seed}"
        for seed in range(100):
            rng = np.random.default_rng([51, seed])
            params = DecoderParams.init(rng, 6, 8, vocab_size=9, embed_dim=5)
            regions = rng.standard_normal((4, 6)).astype(np.float32)
            assert beam_decode(regions, params, width=1, max_len=8) == \
                greedy_decode(regions, params, max_len=8), f"seed {seed}"
        assert time.perf_counter() - t0 < 60.0


# --- 6: fold protocol ------------------------------------------------------------


def test_criterion_6_fold_protocol():
    with criterion(6, "3-fold splits: subject-exclusive, covering, disjoint (100 configs)"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        for case in range(100):
            n_subjects = int(rng.integers(3, 41))
            counts = rng.integers(1, 9, size=n_subjects)
            subject_ids = np.repeat(np.arange(n_subjects), counts)
            if case % 2:
                subject_ids = subject_ids[rng.permutation(subject_ids.size)]
            folds = split_folds(subject_ids, 3, seed=int(rng.integers(1 << 30)))
            assert len(folds) == 3
            merged = np.concatenate(folds)
            assert np.array_equal(np.sort(merged), np.arange(subject_ids.size))
            for s in range(n_subjects):
                holders = [i for i, f in enumerate(folds)
                           if np.isin(np.flatnonzero(subject_ids == s), f).any()]
                assert len(holders) == 1, f"subject {s} spans folds {holders}"
        assert time.perf_counter() - t0 < 5.0


# --- 7: end-to-end training -------------------------------------------------------


@pytest.fixture(scope="module")
def default_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-data")
    generate_dataset(DataConfig(), seed=0, out_dir=root)
    return load_dataset(root)


def test_criterion_7_end_to_end_training(default_dataset, tmp_path):
    with criterion(7, "default-scale training: per fold F1 >= 0.85, top-5 >= 0.90"):
        ds = default_dataset
        mcfg = ModelConfig(n_aus=ds.config.n_aus, vocab_size=len(ds.vocab))
        scores = []
        for fold in range(3):
            t0 = time.perf_counter()
            res = train(ds, fold=fold, model_cfg=mcfg, cfg=TrainConfig(),
                        out_dir=tmp_path / f"fold{fold}")
            wall = time.perf_counter() - t0
            scores.append((fold, res.report.f1_avg, res.report.top5_local, wall))
            assert wall <= 1800.0, f"fold {fold} took {wall:.0f}s"
            assert res.report.f1_avg >= 0.85, f"fold {fold} F1 {res.report.f1_avg:.4f}"
            assert res.report.top5_local >= 0.90, \
                f"fold {fold} top-5 {res.report.top5_local:.4f}"
        for fold, f1, top5, wall in scores:
            print(f"  fold {fold}: F1 {f1:.4f}  top5 {top5:.4f}  {wall:.0f}s")


# --- 8: ablation direction ---------------------------------------------------------


ABLATION_DATA = DataConfig(n_aus=8, subjects=12, samples_per_subject=25)
ABLATION_MODEL = dict(stem_width=8, msc_width=8, feat_dim=16, reduction=4,
                      hidden_size=32, embed_dim=16)
ABLATION_EPOCHS = 8


def test_criterion_8_ablation_direction(tmp_path_factory):
    with criterion(8, "caption losses help: full >= AU-only F1 on 2+ of 3 folds"):
        root = tmp_path_factory.mktemp("ablation")
        generate_dataset(ABLATION_DATA, seed=0, out_dir=root / "data")
        ds = load_dataset(root / "data")
        mcfg = ModelConfig(n_aus=ds.config.n_aus, vocab_size=len(ds.vocab),
                           **ABLATION_MODEL)
        f1 = {}  # (variant, fold) -> list over seeds
        for variant, ablate in (("full", []), ("fau_only", ["lgen", "ggen", "gau"])):
            for seed in (0, 1, 2):
                cfg = TrainConfig(epochs=ABLATION_EPOCHS, seed=seed, ablate=list(ablate))
                for fold in range(3):
                    res = train(ds, fold=fold, model_cfg=mcfg, cfg=cfg,
                                out_dir=root / f"{variant}-s{seed}-f{fold}")
                    f1.setdefault((variant, fold), []).append(res.report.f1_avg)
        wins = 0
        for fold in range(3):
            full = float(np.mean(f1[("full", fold)]))
            fau = float(np.mean(f1[("fau_only", fold)]))
            print(f"  fold {fold}: full {full:.4f} vs fau-only {fau:.4f}")
            wins += full >= fau
        assert wins >= 2, f"full model won only {wins}/3 folds"


# --- 9: reproducibility ---------------------------------------------------------------


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "seeded reruns byte-identical; checkpoints restore bit-exactly"):
        generate_dataset(DataConfig(n_aus=3, subjects=6, samples_per_subject=4,
                                    height=32, width=32), seed=9,
                         out_dir=tmp_path / "data")
        ds = load_dataset(tmp_path / "data")
        mcfg = ModelConfig(n_aus=3, stem_width=8, msc_width=8, feat_dim=16,
                           reduction=4, hidden_size=16, embed_dim=8,
                           vocab_size=len(ds.vocab), max_len=12)
        tcfg = TrainConfig(epochs=2, batch_size=8, seed=3)
        res_a = train(ds, fold=0, model_cfg=mcfg, cfg=tcfg, out_dir=tmp_path / "a")
        res_b = train(ds, fold=0, model_cfg=mcfg, cfg=tcfg, out_dir=tmp_path / "b")
        csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert csv_a == csv_b
        reloaded, vocab, _ = load_checkpoint(res_a.checkpoint_dir)
        assert vocab == ds.vocab
        batch = ds.images[:8]
        assert np.array_equal(reloaded.predict(batch), res_a.model.predict(batch))
        for (name, p), (name2, q) in zip(res_a.model.named_parameters(),
                                         reloaded.named_parameters()):
            assert name == name2
            assert p.data.tobytes() == q.data.tobytes(), name
