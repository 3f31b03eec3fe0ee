"""Optimiser, augmentation, training-loop and checkpoint tests."""

import numpy as np
import pytest

from aulang import tensor as T
from aulang.data import DataConfig, generate_dataset, load_dataset
from aulang.losses import NonFiniteLossError, compute_class_weights
from aulang.model import Model, ModelConfig
from aulang.train import (
    AdamW,
    GradCheckReport,
    TrainConfig,
    augment_array,
    grad_check,
    grad_check_model,
    load_checkpoint,
    save_checkpoint,
    train,
    train_step,
)
from aulang.vocab import EOS, PAD


def small_model_cfg(**over):
    base = dict(n_aus=3, stem_width=8, msc_width=8, feat_dim=16, reduction=4,
                hidden_size=16, embed_dim=8, vocab_size=12, max_len=12)
    base.update(over)
    return ModelConfig(**base)


def small_batch(seed=0, b=4, n=3, t=6, hw=32):
    rng = np.random.default_rng(seed)
    local = np.full((b, n, t), PAD, dtype=np.int64)
    local[:, :, 0] = rng.integers(4, 12, size=(b, n))
    local[:, :, 1] = EOS
    glob = np.full((b, t), PAD, dtype=np.int64)
    glob[:, 0] = rng.integers(4, 12, size=b)
    glob[:, 1] = EOS
    return {
        "images": rng.random((b, 3, hw, hw)).astype(np.float32),
        "labels": rng.integers(0, 2, size=(b, n)).astype(np.float64),
        "local_tokens": local,
        "global_tokens": glob,
    }


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    cfg = DataConfig(n_aus=3, subjects=6, samples_per_subject=4, height=32, width=32)
    root = tmp_path_factory.mktemp("ds") / "tiny"
    generate_dataset(cfg, seed=11, out_dir=root)
    return load_dataset(root)


def test_train_config_validation():
    TrainConfig()
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(crop=20)
    with pytest.raises(ValueError):
        TrainConfig(ablate=["fau", "bogus"])
    assert TrainConfig(ablate=["lgen"]).enable == {
        "fau": True, "lgen": False, "ggen": True, "gau": True}


def test_adamw_zero_lr_keeps_bits():
    p = T.parameter(np.array([1.25, -2.5, 3.0], dtype=np.float32))
    before = p.data.tobytes()
    opt = AdamW([p], lr=0.0)
    (p * p).sum().backward()
    opt.step()
    assert p.data.tobytes() == before


def test_adamw_minimises_quadratic():
    p = T.parameter(np.array([8.0]))
    opt = AdamW([p], lr=0.1, weight_decay=0.0)
    for _ in range(200):
        p.grad = None
        ((p - 3.0) ** 2).sum().backward()
        opt.step()
    assert abs(float(p.data[0]) - 3.0) < 1e-2


def test_adamw_weight_decay_is_decoupled():
    # with zero gradient the decay shrinks weights by exactly lr*wd*w
    p = T.parameter(np.array([2.0]))
    opt = AdamW([p], lr=0.5, weight_decay=0.1)
    p.grad = np.zeros(1)
    opt.step()
    assert abs(float(p.data[0]) - (2.0 - 0.5 * 0.1 * 2.0)) < 1e-12


def test_augment_flip_and_cutout():
    cfg = TrainConfig(flip_prob=1.0, cutout_prob=0.0)
    imgs = np.random.default_rng(0).random((2, 3, 32, 32)).astype(np.float32)
    flipped = augment_array(imgs, np.random.default_rng(1), cfg)
    assert np.array_equal(flipped, imgs[:, :, :, ::-1])

    cfg = TrainConfig(flip_prob=0.0, cutout_prob=1.0, cutout_size=8)
    cut = augment_array(imgs, np.random.default_rng(2), cfg)
    zeros_per_sample = (cut == 0.0).reshape(2, -1).sum(axis=1)
    assert np.all(zeros_per_sample >= 3 * 8 * 8)


def test_augment_crop_and_errors():
    cfg = TrainConfig(crop=16, flip_prob=0.0, cutout_prob=0.0)
    imgs = np.random.default_rng(0).random((3, 3, 32, 32)).astype(np.float32)
    out = augment_array(imgs, np.random.default_rng(1), cfg)
    assert out.shape == (3, 3, 16, 16)
    with pytest.raises(ValueError):
        augment_array(np.zeros((1, 3, 16, 16), dtype=np.float32),
                      np.random.default_rng(0),
                      TrainConfig(crop=32))
    same = augment_array(imgs, np.random.default_rng(9), cfg)
    again = augment_array(imgs, np.random.default_rng(9), cfg)
    assert np.array_equal(same, again)


def test_train_step_learns_and_aborts_on_nan():
    model = Model(small_model_cfg(), seed=0)
    weights = compute_class_weights([0.4, 0.3, 0.2])
    batch = small_batch()
    opt = AdamW(model.parameters(), lr=3e-3)
    first = train_step(model, opt, batch, weights)
    for _ in range(24):
        last = train_step(model, opt, batch, weights)
    assert last["total"] < first["total"]

    model.clf_weight.data[0, 0] = np.nan
    with pytest.raises(NonFiniteLossError):
        train_step(model, opt, batch, weights)


def test_checkpoint_round_trip(tmp_path, tiny_dataset):
    model = Model(small_model_cfg(vocab_size=len(tiny_dataset.vocab)), seed=4)
    # move weights off their init values so the restore is non-trivial
    weights = compute_class_weights([0.4, 0.3, 0.2])
    opt = AdamW(model.parameters(), lr=1e-3)
    local, glob = tiny_dataset.encoded_captions(12)
    batch = {"images": tiny_dataset.images[:4], "labels": tiny_dataset.labels[:4],
             "local_tokens": local[:4], "global_tokens": glob[:4]}
    train_step(model, opt, batch, weights)

    ckpt = save_checkpoint(tmp_path / "ck", model, tiny_dataset.vocab,
                           train_cfg=TrainConfig(), fold=1, epoch=3)
    restored, vocab, manifest = load_checkpoint(ckpt)
    assert vocab == tiny_dataset.vocab
    assert manifest["fold"] == 1 and manifest["epoch"] == 3
    for (name, a), (_, b) in zip(model.named_parameters(), restored.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    probe = tiny_dataset.images[:3]
    assert np.array_equal(model.predict(probe), restored.predict(probe))


def test_checkpoint_rejects_mismatched_architecture(tmp_path, tiny_dataset):
    model = Model(small_model_cfg(vocab_size=len(tiny_dataset.vocab)), seed=0)
    ckpt = save_checkpoint(tmp_path / "ck2", model, tiny_dataset.vocab)
    import json
    mpath = tmp_path / "ck2" / "manifest.json"
    manifest = json.loads(mpath.read_text())
    manifest["model_config"]["n_aus"] = 5
    mpath.write_text(json.dumps(manifest))
    with pytest.raises(ValueError):
        load_checkpoint(ckpt)


def test_grad_check_passes_on_true_gradients():
    model = Model(small_model_cfg(n_aus=2, stem_width=4, msc_width=4, feat_dim=8,
                                  hidden_size=6, embed_dim=4, vocab_size=8,
                                  max_len=4, dtype="float64"), seed=1)
    weights = compute_class_weights([0.5, 0.3])
    rng = np.random.default_rng(2)
    local = np.full((2, 2, 3), PAD, dtype=np.int64)
    local[:, :, 0] = rng.integers(4, 8, size=(2, 2))
    local[:, :, 1] = EOS
    glob = np.full((2, 3), PAD, dtype=np.int64)
    glob[:, 0] = rng.integers(4, 8, size=2)
    glob[:, 1] = EOS
    batch = {"images": rng.random((2, 3, 16, 16)),
             "labels": rng.integers(0, 2, size=(2, 2)).astype(float),
             "local_tokens": local, "global_tokens": glob}
    report = grad_check_model(model, batch, weights, epsilon=1e-5, stride=7)
    assert isinstance(report, GradCheckReport)
    assert report.n_checked > 100
    assert report.max_rel_err < 1e-4, report.format_text()


def test_grad_check_exact_on_linear_model():
    # central differences are exact for a linear map, so only rounding remains
    w = T.parameter(np.array([0.7, -1.2, 2.5]))
    x = np.array([1.3, 0.4, -2.1])

    report = grad_check(lambda: (w * x).sum(), [("w", w)], epsilon=1e-5)
    assert report.n_checked == 3
    assert report.max_rel_err < 1e-8


def test_grad_check_flags_corrupted_gradient():
    p = T.parameter(np.array([1.5, -0.75]))

    def broken_loss():
        # forward x^2 but backward pretends the derivative is 3x
        sq = T.Tensor._node(p.data**2, (p,), lambda g: p._accum(3.0 * p.data * g))
        return sq.sum()

    report = grad_check(broken_loss, [("p", p)], epsilon=1e-5)
    assert report.max_rel_err > 0.3
    assert report.worst_param == "p"


def test_train_loop_metrics_checkpoints_and_determinism(tmp_path, tiny_dataset):
    mcfg = small_model_cfg(vocab_size=len(tiny_dataset.vocab))
    tcfg = TrainConfig(epochs=2, batch_size=8, folds=3, seed=1, cutout_size=4)
    runs = []
    for name in ("a", "b"):
        res = train(tiny_dataset, fold=0, model_cfg=mcfg, cfg=tcfg,
                    out_dir=tmp_path / name)
        runs.append(res)
    text_a = open(runs[0].metrics_path).read()
    text_b = open(runs[1].metrics_path).read()
    assert text_a == text_b
    lines = text_a.strip().splitlines()
    assert lines[0] == ("epoch,l_fau,l_lgen,l_ggen,l_gau,total,"
                        "val_f1_avg,val_acc_avg,val_top5_local,val_top5_global")
    assert len(lines) == 3
    assert len(runs[0].history) == 2

    model, vocab, manifest = load_checkpoint(runs[0].checkpoint_dir)
    probe = tiny_dataset.images[:2]
    assert np.array_equal(model.predict(probe), runs[0].model.predict(probe))
    assert manifest["train_config"]["epochs"] == 2

    # held-out subjects never appear in training folds
    from aulang.data import split_folds
    folds = split_folds(tiny_dataset.subject_ids, 3, seed=1)
    val_subjects = set(tiny_dataset.subject_ids[folds[0]].tolist())
    train_subjects = set(tiny_dataset.subject_ids[np.concatenate(folds[1:])].tolist())
    assert not val_subjects & train_subjects


def test_train_loop_ablation_zeroes_columns(tmp_path, tiny_dataset):
    mcfg = small_model_cfg(vocab_size=len(tiny_dataset.vocab))
    tcfg = TrainConfig(epochs=1, batch_size=8, folds=3, seed=2,
                       ablate=["lgen", "ggen", "gau"])
    res = train(tiny_dataset, fold=1, model_cfg=mcfg, cfg=tcfg, out_dir=tmp_path / "abl")
    row = res.history[0]
    assert row["l_lgen"] == 0.0 and row["l_ggen"] == 0.0 and row["l_gau"] == 0.0
    assert row["total"] == row["l_fau"]
