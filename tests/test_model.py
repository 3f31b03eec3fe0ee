"""Assembled-model tests: wiring, determinism, ablation semantics."""

from types import SimpleNamespace

import numpy as np
import pytest

from aulang import tensor as T
from aulang.evaluate import export_embeddings
from aulang.losses import compute_class_weights, fau_loss
from aulang.model import Model, ModelConfig
from aulang.vocab import EOS, PAD


def small_config(**over):
    base = dict(n_aus=3, in_channels=3, stem_width=8, msc_width=8, feat_dim=16,
                reduction=4, hidden_size=16, embed_dim=8, vocab_size=10, max_len=6)
    base.update(over)
    return ModelConfig(**base)


def small_batch(seed=0, b=2, n=3, t=5):
    rng = np.random.default_rng(seed)
    images = rng.random((b, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 2, size=(b, n)).astype(np.float64)
    local = np.full((b, n, t), PAD, dtype=np.int64)
    local[:, :, 0] = rng.integers(4, 10, size=(b, n))
    local[:, :, 1] = EOS
    glob = np.full((b, t), PAD, dtype=np.int64)
    glob[:, 0] = rng.integers(4, 10, size=b)
    glob[:, 1] = rng.integers(4, 10, size=b)
    glob[:, 2] = EOS
    return images, labels, local, glob


def test_forward_shapes_and_prob_range():
    model = Model(small_config(), seed=1)
    images, _, _, _ = small_batch()
    with T.no_grad():
        v, vhats, probs = model.forward_probs(T.Tensor(images))
    assert v.shape == (2, 16, 2, 2)
    assert len(vhats) == 3 and all(vh.shape == v.shape for vh in vhats)
    assert probs.shape == (2, 3)
    assert np.all(probs.data > 0) and np.all(probs.data < 1)
    assert np.array_equal(model.predict(images), probs.data)


def test_parameter_names_unique_and_stable():
    model = Model(small_config(), seed=0)
    names = [n for n, _ in model.named_parameters()]
    assert len(names) == len(set(names))
    assert "dair.au2.conv_kernel" in names and "clf.weight" in names
    assert any(n.startswith("local.") for n in names)
    assert any(n.startswith("global.") for n in names)
    again = [n for n, _ in Model(small_config(), seed=5).named_parameters()]
    assert names == again


def test_init_determinism():
    a = Model(small_config(), seed=42)
    b = Model(small_config(), seed=42)
    c = Model(small_config(), seed=43)
    for (na, ta), (_, tb), (_, tc) in zip(a.named_parameters(), b.named_parameters(),
                                          c.named_parameters()):
        assert np.array_equal(ta.data, tb.data), na
    assert any(not np.array_equal(ta.data, tc.data)
               for (_, ta), (_, tc) in zip(a.named_parameters(), c.named_parameters()))


def test_loss_decomposition_and_gradients():
    model = Model(small_config(), seed=3)
    weights = compute_class_weights([0.3, 0.5, 0.2])
    images, labels, local, glob = small_batch(seed=7)
    out = model.training_losses(images, labels, local, glob, weights)
    for key in ("l_fau", "l_lgen", "l_ggen", "l_gau", "total"):
        assert np.isfinite(float(out[key].data)), key
        assert float(out[key].data) > 0 or key == "total"
    recomposed = ((out["l_fau"].data + out["l_lgen"].data) + out["l_ggen"].data) + out["l_gau"].data
    assert float(out["total"].data) == float(recomposed)

    out["total"].backward()
    for name, t in model.named_parameters():
        assert t.grad is not None, f"{name} got no gradient"
        assert np.isfinite(t.grad).all(), name


def test_ablation_zeroes_terms_without_touching_forward():
    model = Model(small_config(), seed=3)
    weights = compute_class_weights([0.3, 0.5, 0.2])
    images, labels, local, glob = small_batch(seed=7)
    before = model.predict(images)
    full = model.training_losses(images, labels, local, glob, weights)
    only_fau = model.training_losses(images, labels, local, glob, weights,
                                     enable={"lgen": False, "ggen": False, "gau": False})
    after = model.predict(images)
    assert float(only_fau["l_lgen"].data) == 0.0
    assert float(only_fau["l_ggen"].data) == 0.0
    assert float(only_fau["l_gau"].data) == 0.0
    assert float(only_fau["total"].data) == float(only_fau["l_fau"].data)
    assert float(only_fau["l_fau"].data) == float(full["l_fau"].data)
    assert np.array_equal(before, after)


def test_describe_ids_shapes():
    cfg = small_config()
    model = Model(cfg, seed=9)
    image = np.random.default_rng(0).random((3, 32, 32)).astype(np.float32)
    probs, local_ids, global_ids = model.describe_ids(image, beam_width=2, max_len=4)
    assert probs.shape == (3,)
    assert len(local_ids) == 3
    for ids in local_ids + [global_ids]:
        assert 1 <= len(ids) <= 4
        assert all(0 <= i < cfg.vocab_size for i in ids)


def test_describe_train_and_export_share_the_forward(tmp_path):
    # describe, training and export all run forward_probs, so the same
    # images give the same bits on every path
    model = Model(small_config(), seed=4)
    weights = compute_class_weights([0.3, 0.5, 0.2])
    images, labels, local, glob = small_batch(seed=11, b=3)
    probs = model.predict(images)

    for i in range(3):
        got = model.describe_ids(images[i], beam_width=1)[0]
        assert np.array_equal(got, model.predict(images[i][None])[0])

    l_fau = model.training_losses(images, labels, local, glob, weights)["l_fau"]
    assert float(l_fau.data) == float(fau_loss(T.Tensor(probs), labels, weights).data)

    ds = SimpleNamespace(images=images, labels=labels, subject_ids=np.array([7, 8, 9]),
                         genders=["female", "male", "female"])
    path = tmp_path / "emb.csv"
    assert export_embeddings(model, ds, np.arange(3), path) == 3 * 3
    with T.no_grad():
        vhats = model.refined_maps(model.fused_map(T.Tensor(images)))
    for line in path.read_text().splitlines()[1:]:
        row = line.split(",")
        sample, au = int(row[0]), int(row[3])
        b, c, h, w = vhats[au].shape
        want = vhats[au].data.reshape(b, c, h * w).mean(axis=2)[sample]
        assert np.array_equal(np.array([float(x) for x in row[5:]]), want.astype(np.float64))


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(vocab_size=3)
    with pytest.raises(ValueError):
        small_config(feat_dim=10, reduction=4)
    with pytest.raises(ValueError):
        small_config(dtype="float16")
