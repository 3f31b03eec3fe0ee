"""Synthetic dataset generation, captioning and split tests."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aulang.data import (
    AU_CATALOG,
    DataConfig,
    DatasetManifest,
    base_texture,
    compose_captions,
    gender_of,
    generate_dataset,
    load_dataset,
    occurrence_rates,
    recover_labels,
    render_sample,
    sample_labels,
    split_folds,
)
from aulang.vocab import tokenize

TINY = dict(n_aus=4, subjects=4, samples_per_subject=3, height=32, width=32)


def test_catalog_tokens_identify_units():
    nouns = [s.noun for s in AU_CATALOG]
    actives = [s.active_word for s in AU_CATALOG]
    inactives = [s.inactive_word for s in AU_CATALOG]
    assert len(AU_CATALOG) >= 8
    assert len(set(nouns)) == len(nouns)
    assert len(set(actives + inactives)) == len(actives + inactives)
    for site in AU_CATALOG:
        assert 0.0 < site.x < 0.5 and 0.0 < site.y < 1.0  # left half, mirrored later


def test_config_defaults_and_validation():
    cfg = DataConfig()
    assert cfg.n_aus == 8 and len(cfg.rates) == 8
    assert cfg.rates[0] > cfg.rates[-1]  # imbalanced by default
    with pytest.raises(ValueError):
        DataConfig(n_aus=0)
    with pytest.raises(ValueError):
        DataConfig(height=60)
    with pytest.raises(ValueError):
        DataConfig(n_aus=2, rates=[0.5])
    with pytest.raises(ValueError):
        DataConfig(n_aus=2, rates=[0.5, 1.0])


def test_render_deterministic_and_valid():
    cfg = DataConfig(**TINY)
    states = np.array([1, 0, 1, 0])
    imgs = [render_sample(2, states, cfg, np.random.default_rng(5), base_seed=9).data
            for _ in range(2)]
    assert np.array_equal(imgs[0], imgs[1])
    assert imgs[0].shape == (3, 32, 32)
    assert imgs[0].min() >= 0.0 and imgs[0].max() <= 1.0


def test_same_subject_shares_base_texture():
    cfg = DataConfig(noise=0.0, **TINY)
    quiet = np.zeros(4, dtype=int)
    a = render_sample(1, quiet, cfg, np.random.default_rng(0), base_seed=3).data
    b = render_sample(1, quiet, cfg, np.random.default_rng(99), base_seed=3).data
    assert np.array_equal(a, b)  # noiseless quiet renders are pure texture
    other = render_sample(3, quiet, cfg, np.random.default_rng(0), base_seed=3).data
    assert not np.array_equal(a, other)


def test_blob_pairs_are_mirror_symmetric():
    # amplitudes kept low so nothing clips; clipping would break symmetry
    cfg = DataConfig(noise=0.0, blob_amplitude=0.3, base_high=0.4, **TINY)
    active = np.array([1, 1, 0, 1])
    on = render_sample(0, active, cfg, np.random.default_rng(7), base_seed=0).data
    off = render_sample(0, np.zeros(4, dtype=int), cfg, np.random.default_rng(7), base_seed=0).data
    contribution = on.astype(np.float64) - off.astype(np.float64)
    flipped = contribution[:, :, ::-1]
    assert np.allclose(contribution, flipped, atol=1e-5)
    assert contribution.max() > 0.1  # blobs actually visible


def test_gender_band_is_visible_and_flip_invariant():
    cfg = DataConfig(noise=0.0, **TINY)
    quiet = np.zeros(4, dtype=int)
    female = render_sample(0, quiet, cfg, np.random.default_rng(0)).data
    male = render_sample(1, quiet, cfg, np.random.default_rng(0)).data
    assert gender_of(0) == "female" and gender_of(1) == "male"
    band = slice(32 - 6, 32 - 3)
    assert female[0, band].mean() > female[0, : 32 - 6].mean() + 0.1
    assert male[2, band].mean() > male[2, : 32 - 6].mean() + 0.1
    # the band itself (image minus subject texture) is constant along x
    added = female.astype(np.float64) - base_texture(0, cfg, base_seed=0)
    assert np.allclose(added, added[:, :, ::-1], atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=8), st.integers(0, 1))
def test_caption_label_round_trip(states, gender_idx):
    states = np.array(states)
    gender = ("female", "male")[gender_idx]
    locals_, global_ = compose_captions(states, gender)
    assert len(locals_) == 8
    assert gender in global_.split()
    assert np.array_equal(recover_labels(locals_, global_, 8), states)


def test_caption_lengths_fit_default_budget():
    # worst case: every unit active; must fit in 24 steps with EOS
    locals_, global_ = compose_captions(np.ones(12, dtype=int), "female")
    assert max(len(tokenize(c)) for c in locals_) + 1 <= 24
    assert len(tokenize(global_)) + 1 <= 24


def test_sample_labels_respects_coactivation():
    cfg = DataConfig(n_aus=2, subjects=2, samples_per_subject=2, height=32, width=32,
                     rates=[0.99, 0.0001], coactivate=[(0, 1, 1.0)])
    rng = np.random.default_rng(0)
    draws = np.array([sample_labels(cfg, rng) for _ in range(50)])
    assert np.all(draws[draws[:, 0] == 1, 1] == 1)


def test_generate_is_byte_identical_and_loadable(tmp_path):
    cfg = DataConfig(**TINY)
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        generate_dataset(cfg, seed=123, out_dir=d)
    for name in sorted(os.listdir(dirs[0])):
        pa, pb = dirs[0] / name, dirs[1] / name
        if pa.is_dir():
            for sub in sorted(os.listdir(pa)):
                assert (pa / sub).read_bytes() == (pb / sub).read_bytes(), sub
        else:
            assert pa.read_bytes() == pb.read_bytes(), name

    ds = load_dataset(dirs[0])
    assert len(ds) == 12
    assert ds.images.shape == (12, 3, 32, 32) and ds.images.dtype == np.float32
    assert ds.labels.shape == (12, 4)
    assert ds.subject_ids.tolist() == [i // 3 for i in range(12)]
    for s in range(len(ds)):
        got = recover_labels(ds.local_captions[s], ds.global_captions[s], 4)
        assert np.array_equal(got, ds.labels[s])
        assert ds.genders[s] == gender_of(ds.subject_ids[s])
    # every caption token must be representable
    for s in range(len(ds)):
        for text in ds.local_captions[s] + [ds.global_captions[s]]:
            assert all(t in ds.vocab.index for t in tokenize(text))


def test_encoded_captions_layout(tmp_path):
    cfg = DataConfig(**TINY)
    generate_dataset(cfg, seed=5, out_dir=tmp_path / "d")
    ds = load_dataset(tmp_path / "d")
    local, global_ = ds.encoded_captions(max_len=16)
    assert local.shape == (12, 4, 16) and global_.shape == (12, 16)
    from aulang.vocab import EOS, PAD
    row = local[0, 0]
    eos_at = int(np.where(row == EOS)[0][0])
    assert np.all(row[eos_at + 1 :] == PAD)
    assert ds.vocab.decode(global_[3]) == ds.global_captions[3]
    # encoded once per max_len and handed out read-only
    assert ds.encoded_captions(max_len=16)[0] is local
    assert ds.encoded_captions(max_len=12)[0].shape == (12, 4, 12)
    with pytest.raises(ValueError):
        local[0, 0, 0] = 0
    with pytest.raises(ValueError):
        global_[0, 0] = 0


def test_manifest_round_trip(tmp_path):
    cfg = DataConfig(n_aus=3, subjects=5, samples_per_subject=2, height=32, width=48,
                     rates=[0.5, 0.3, 0.2], coactivate=[(0, 2, 0.5)], noise=0.01)
    m = DatasetManifest(cfg, seed=77, n_samples=10)
    path = tmp_path / "manifest.txt"
    m.write(path)
    back = DatasetManifest.read(path)
    assert back.seed == 77 and back.n_samples == 10
    assert back.config.to_dict() == cfg.to_dict()


def test_split_folds_subject_exclusive():
    subject_ids = np.repeat(np.arange(7), 4)
    folds = split_folds(subject_ids, k=3, seed=0)
    assert sum(len(f) for f in folds) == 28
    all_idx = np.concatenate(folds)
    assert len(np.unique(all_idx)) == 28
    owners = [set(subject_ids[f].tolist()) for f in folds]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not owners[i] & owners[j]
    again = split_folds(subject_ids, k=3, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(folds, again))
    assert not all(np.array_equal(a, b)
                   for a, b in zip(folds, split_folds(subject_ids, k=3, seed=1)))
    with pytest.raises(ValueError):
        split_folds(np.array([0, 1]), k=3, seed=0)


def test_occurrence_rates_clamped():
    labels = np.array([[1, 0], [1, 0], [0, 0], [1, 0]])
    rates = occurrence_rates(labels)
    assert rates[0] == 0.75
    assert rates[1] == 1.0 / 8  # zero count clamped to 1/(2M)
    with pytest.raises(ValueError):
        occurrence_rates(np.zeros((0, 3)))


def _replace_id(name, row, new_id):
    if name == "labels.csv":
        return f"{new_id}," + row.split(",", 1)[1]
    return json.dumps(dict(json.loads(row), sample_id=new_id), sort_keys=True) + "\n"


@pytest.mark.parametrize("name", ["labels.csv", "captions.jsonl"])
@pytest.mark.parametrize("defect,message", [
    ("missing", "sample id 5 is missing"),
    ("duplicated", "sample id 4 appears more than once"),
    ("out_of_range", "sample id 12 is outside 0..11"),
])
def test_load_dataset_checks_every_sample_id_once(tmp_path, name, defect, message):
    generate_dataset(DataConfig(**TINY), seed=5, out_dir=tmp_path)
    path = tmp_path / name
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    head = 1 if name == "labels.csv" else 0  # the csv header line
    rows = lines[head:]
    if defect == "missing":
        del rows[5]
    elif defect == "duplicated":
        rows[5] = rows[4]
    else:
        rows[5] = _replace_id(name, rows[5], 12)
    path.write_text("".join(lines[:head] + rows), encoding="utf-8")
    with pytest.raises(ValueError, match=message) as exc:
        load_dataset(tmp_path)
    assert name in str(exc.value)
