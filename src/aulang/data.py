"""Synthetic face-like dataset with exactly recoverable AU annotations.

Every sample is a smooth per-subject base texture plus one bilaterally
mirrored oriented blob pair per active action unit, drawn at that unit's
fixed facial site.  Mirroring keeps labels invariant under horizontal flips,
and a full-width marker band near the bottom edge encodes the subject's
gender tag so the global caption's gender word is visible in pixels.

Captions are templated.  Local captions name each unit's facial part and
state ("the inner brow is raised" / "... is relaxed"); the global caption
lists active unit tokens in ascending order plus the gender word ("a female
face shows units au0 au3").  Labels are therefore an exact function of the
caption text, which tests exploit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .stem import Image
from .tenfile import read_tensor, write_kv, read_kv, write_tensor
from .vocab import Vocabulary, build_vocabulary


@dataclass(frozen=True)
class AuSite:
    noun: str  # facial part named in the local caption
    active_word: str
    inactive_word: str
    y: float  # unit coords, x measured on the left half
    x: float
    sigma_u: float  # blob axes as fractions of image height
    sigma_v: float
    angle: float  # radians
    color: tuple  # per-channel emphasis


AU_CATALOG = [
    AuSite("inner brow", "raised", "relaxed", 0.18, 0.30, 0.050, 0.022, 0.3, (0.9, 0.4, 0.2)),
    AuSite("outer brow", "arched", "settled", 0.14, 0.15, 0.045, 0.020, -0.5, (0.2, 0.9, 0.4)),
    AuSite("brow line", "furrowed", "smooth", 0.26, 0.24, 0.030, 0.030, 0.0, (0.3, 0.3, 0.9)),
    AuSite("upper lid", "widened", "resting", 0.34, 0.31, 0.040, 0.018, 0.1, (0.9, 0.8, 0.2)),
    AuSite("cheek", "lifted", "flat", 0.47, 0.18, 0.055, 0.035, 0.7, (0.8, 0.2, 0.8)),
    AuSite("nose bridge", "wrinkled", "plain", 0.41, 0.42, 0.032, 0.032, 0.0, (0.2, 0.8, 0.8)),
    AuSite("lip corner", "pulled", "still", 0.63, 0.27, 0.050, 0.020, -0.8, (0.9, 0.5, 0.6)),
    AuSite("mouth corner", "lowered", "level", 0.74, 0.30, 0.048, 0.022, 0.8, (0.4, 0.6, 0.9)),
    AuSite("chin boss", "pushed", "soft", 0.84, 0.44, 0.040, 0.028, 0.0, (0.6, 0.9, 0.3)),
    AuSite("lip band", "tightened", "loose", 0.68, 0.40, 0.036, 0.016, 0.0, (0.7, 0.7, 0.7)),
    AuSite("jaw", "dropped", "closed", 0.92, 0.44, 0.034, 0.030, 0.0, (0.9, 0.3, 0.5)),
    AuSite("eyelid", "narrowed", "open", 0.35, 0.21, 0.038, 0.016, -0.2, (0.3, 0.9, 0.9)),
]

GENDER_TAGS = ("female", "male")


@dataclass
class DataConfig:
    n_aus: int = 8
    subjects: int = 24
    samples_per_subject: int = 100
    height: int = 64
    width: int = 64
    rates: list = field(default_factory=list)  # empty -> linspace 0.5..0.15
    coactivate: list = field(default_factory=list)  # (i, j, prob) triples
    noise: float = 0.03
    blob_amplitude: float = 0.45
    base_low: float = 0.15
    base_high: float = 0.55

    def __post_init__(self):
        if not 1 <= self.n_aus <= len(AU_CATALOG):
            raise ValueError(f"n_aus must be in 1..{len(AU_CATALOG)}")
        if self.subjects < 1 or self.samples_per_subject < 1:
            raise ValueError("subjects and samples_per_subject must be positive")
        if self.height % 16 or self.width % 16:
            raise ValueError("image dims must be divisible by 16")
        if not self.rates:
            self.rates = [round(r, 4) for r in np.linspace(0.5, 0.15, self.n_aus)]
        if len(self.rates) != self.n_aus:
            raise ValueError("rates length must equal n_aus")
        if any(not 0.0 < r < 1.0 for r in self.rates):
            raise ValueError("rates must lie strictly inside (0, 1)")

    @property
    def n_samples(self):
        return self.subjects * self.samples_per_subject

    def to_dict(self):
        return {
            "n_aus": self.n_aus, "subjects": self.subjects,
            "samples_per_subject": self.samples_per_subject,
            "height": self.height, "width": self.width,
            "rates": list(self.rates), "coactivate": [list(c) for c in self.coactivate],
            "noise": self.noise, "blob_amplitude": self.blob_amplitude,
            "base_low": self.base_low, "base_high": self.base_high,
        }

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["coactivate"] = [tuple(c) for c in d.get("coactivate", [])]
        return cls(**d)


def gender_of(subject_id: int) -> str:
    return GENDER_TAGS[subject_id % 2]


def _bilinear_upsample(coarse: np.ndarray, height: int, width: int) -> np.ndarray:
    """(C, h, w) -> (C, height, width) separable linear interpolation."""
    c, h, w = coarse.shape
    ys = np.linspace(0.0, h - 1.0, height)
    xs = np.linspace(0.0, w - 1.0, width)
    y0 = np.clip(ys.astype(int), 0, h - 2)
    x0 = np.clip(xs.astype(int), 0, w - 2)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    a = coarse[:, y0][:, :, x0]
    b = coarse[:, y0][:, :, x0 + 1]
    cc = coarse[:, y0 + 1][:, :, x0]
    d = coarse[:, y0 + 1][:, :, x0 + 1]
    return (a * (1 - wy) * (1 - wx) + b * (1 - wy) * wx + cc * wy * (1 - wx) + d * wy * wx)


def base_texture(subject_id: int, cfg: DataConfig, base_seed: int = 0) -> np.ndarray:
    """Smooth per-subject canvas; identical for every sample of a subject."""
    rng = np.random.default_rng([base_seed, 101, subject_id])
    coarse = rng.uniform(cfg.base_low, cfg.base_high, size=(3, 9, 9))
    return _bilinear_upsample(coarse, cfg.height, cfg.width)


def _blob(height, width, cy, cx, sigma_u, sigma_v, angle):
    yy = (np.arange(height)[:, None] - cy) / height
    xx = (np.arange(width)[None, :] - cx) / height
    u = xx * np.cos(angle) + yy * np.sin(angle)
    v = -xx * np.sin(angle) + yy * np.cos(angle)
    return np.exp(-0.5 * ((u / sigma_u) ** 2 + (v / sigma_v) ** 2))


def render_sample(subject_id: int, au_states, cfg: DataConfig, rng,
                  base_seed: int = 0) -> Image:
    """Draw one sample: texture + mirrored blob pair per active AU + marker
    band + pixel noise, clipped to [0, 1]."""
    au_states = np.asarray(au_states)
    if au_states.shape != (cfg.n_aus,):
        raise ValueError(f"au_states must have shape ({cfg.n_aus},)")
    img = base_texture(subject_id, cfg, base_seed).copy()
    h, w = cfg.height, cfg.width
    for i, active in enumerate(au_states):
        if not active:
            continue
        site = AU_CATALOG[i]
        amp = cfg.blob_amplitude * rng.uniform(0.85, 1.15)
        cy = site.y * h
        # twin centre reflects across the pixel grid's flip axis (w-1)/2
        cx0 = site.x * w
        for cx, ang in ((cx0, site.angle), ((w - 1) - cx0, -site.angle)):
            g = _blob(h, w, cy, cx, site.sigma_u, site.sigma_v, ang)
            img += amp * np.asarray(site.color)[:, None, None] * g
    # full-width gender band: flip-invariant by construction
    band = slice(h - 6, h - 3)
    channel = 0 if gender_of(subject_id) == "female" else 2
    img[channel, band, :] += 0.35
    img += rng.normal(0.0, cfg.noise, size=img.shape)
    np.clip(img, 0.0, 1.0, out=img)
    return Image(img.astype(np.float32), subject_id=subject_id,
                 gender_tag=gender_of(subject_id))


def sample_labels(cfg: DataConfig, rng) -> np.ndarray:
    """Imbalanced Bernoulli draw with optional pairwise co-activation."""
    states = (rng.random(cfg.n_aus) < np.asarray(cfg.rates)).astype(np.int64)
    for i, j, p in cfg.coactivate:
        if states[i] and rng.random() < p:
            states[j] = 1
    return states


def compose_captions(au_states, gender_tag: str):
    """(per-AU local captions, global caption) for one sample."""
    locals_ = []
    for i, active in enumerate(au_states):
        site = AU_CATALOG[i]
        word = site.active_word if active else site.inactive_word
        locals_.append(f"the {site.noun} is {word}")
    active_ids = [i for i, a in enumerate(au_states) if a]
    if active_ids:
        units = " ".join(f"au{i}" for i in active_ids)
        global_ = f"a {gender_tag} face shows units {units}"
    else:
        global_ = f"a {gender_tag} face shows no active units"
    return locals_, global_


def recover_labels(local_captions, global_caption: str, n_aus: int) -> np.ndarray:
    """Invert the caption templates back to the label vector (exact)."""
    from_local = np.array(
        [1 if AU_CATALOG[i].active_word in local_captions[i].split() else 0
         for i in range(n_aus)])
    words = set(global_caption.split())
    from_global = np.array([1 if f"au{i}" in words else 0 for i in range(n_aus)])
    if not np.array_equal(from_local, from_global):
        raise ValueError("local and global captions disagree about active units")
    return from_local


@dataclass
class DatasetManifest:
    config: DataConfig
    seed: int
    n_samples: int

    FORMAT = "au-synth-v1"

    def write(self, path):
        kv = {"format": self.FORMAT, "seed": self.seed, "n_samples": self.n_samples}
        for key, value in self.config.to_dict().items():
            if key in ("rates",):
                value = ",".join(repr(float(r)) for r in value)
            elif key == "coactivate":
                value = ";".join(",".join(repr(float(x)) for x in c) for c in value)
            kv[key] = value
        write_kv(path, kv)

    @classmethod
    def read(cls, path):
        kv = read_kv(path)
        if kv.get("format") != cls.FORMAT:
            raise ValueError(f"{path}: unknown dataset format {kv.get('format')!r}")
        try:
            cfg = DataConfig(
                n_aus=int(kv["n_aus"]), subjects=int(kv["subjects"]),
                samples_per_subject=int(kv["samples_per_subject"]),
                height=int(kv["height"]), width=int(kv["width"]),
                rates=[float(r) for r in kv["rates"].split(",")],
                coactivate=[tuple(float(x) for x in c.split(","))
                            for c in kv["coactivate"].split(";") if c],
                noise=float(kv["noise"]), blob_amplitude=float(kv["blob_amplitude"]),
                base_low=float(kv["base_low"]), base_high=float(kv["base_high"]),
            )
            return cls(cfg, int(kv["seed"]), int(kv["n_samples"]))
        except KeyError as exc:
            raise ValueError(f"{path}: key {exc} is missing") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def generate_dataset(cfg: DataConfig, seed: int, out_dir) -> DatasetManifest:
    """Materialise a dataset directory; byte-identical for equal (cfg, seed)."""
    out_dir = str(out_dir)
    images_dir = os.path.join(out_dir, "images")
    os.makedirs(images_dir, exist_ok=True)
    label_rows = []
    caption_rows = []
    corpus = []
    for idx in range(cfg.n_samples):
        subject = idx // cfg.samples_per_subject
        rng = np.random.default_rng([seed, 11, idx])
        states = sample_labels(cfg, rng)
        image = render_sample(subject, states, cfg, rng, base_seed=seed)
        write_tensor(sample_path(out_dir, idx), image.data)
        locals_, global_ = compose_captions(states, image.gender_tag)
        label_rows.append((idx, subject, image.gender_tag, states))
        caption_rows.append({"sample_id": idx, "locals": locals_, "global": global_})
        corpus.extend(locals_)
        corpus.append(global_)

    header = "sample_id,subject_id,gender," + ",".join(f"au_{i}" for i in range(cfg.n_aus))
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for idx, subject, gender, states in label_rows:
            fh.write(f"{idx},{subject},{gender}," + ",".join(str(int(s)) for s in states) + "\n")
    with open(os.path.join(out_dir, "captions.jsonl"), "w", encoding="utf-8") as fh:
        for row in caption_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    build_vocabulary(corpus).save(os.path.join(out_dir, "vocab.txt"))
    manifest = DatasetManifest(cfg, seed, cfg.n_samples)
    manifest.write(os.path.join(out_dir, "manifest.txt"))
    return manifest


@dataclass
class Dataset:
    manifest: DatasetManifest
    images: np.ndarray  # (M, 3, H, W) float32
    labels: np.ndarray  # (M, N) int64
    subject_ids: np.ndarray  # (M,)
    genders: list
    local_captions: list  # M lists of N strings
    global_captions: list  # M strings
    vocab: Vocabulary
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __len__(self):
        return self.images.shape[0]

    @property
    def config(self):
        return self.manifest.config

    def encoded_captions(self, max_len: int):
        """(M, N, T) local and (M, T) global padded token matrices.

        Encoded once per ``max_len`` and cached; the arrays are read-only so
        no caller can corrupt the cache."""
        if max_len not in self._encoded:
            m, n = self.labels.shape
            local = np.zeros((m, n, max_len), dtype=np.int64)
            global_ = np.zeros((m, max_len), dtype=np.int64)
            for s in range(m):
                for i in range(n):
                    local[s, i] = self.vocab.encode_padded(self.local_captions[s][i], max_len)
                global_[s] = self.vocab.encode_padded(self.global_captions[s], max_len)
            local.flags.writeable = global_.flags.writeable = False
            self._encoded[max_len] = (local, global_)
        return self._encoded[max_len]


def sample_path(root, idx: int) -> str:
    """Path of sample ``idx``'s image tensor inside a dataset directory."""
    return os.path.join(str(root), "images", f"sample_{idx:05d}.ten")


def _check_sample_ids(ids, m: int, path: str) -> None:
    """Every id in 0..m-1 must appear exactly once in a per-sample file."""
    seen = np.zeros(m, dtype=bool)
    for idx in ids:
        if not 0 <= idx < m:
            raise ValueError(f"{path}: sample id {idx} is outside 0..{m - 1}")
        if seen[idx]:
            raise ValueError(f"{path}: sample id {idx} appears more than once")
        seen[idx] = True
    if not seen.all():
        raise ValueError(f"{path}: sample id {int(np.argmin(seen))} is missing")


def _label_row(line: str, n_aus: int, where: str):
    """One labels.csv line -> (sample id, subject id, gender, AU states)."""
    parts = line.strip().split(",")
    if len(parts) != 3 + n_aus:
        raise ValueError(f"{where} has {len(parts)} fields, expected {3 + n_aus}")
    try:
        idx, subject, states = int(parts[0]), int(parts[1]), [int(x) for x in parts[3:]]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if any(s not in (0, 1) for s in states):
        raise ValueError(f"{where}: AU labels must be 0 or 1")
    return idx, subject, parts[2], states


def _caption_row(line: str, n_aus: int, where: str):
    """One captions.jsonl line -> (sample id, local captions, global caption)."""
    try:
        row = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not isinstance(row, dict) or not {"sample_id", "locals", "global"} <= row.keys():
        raise ValueError(f"{where}: expected an object with sample_id, locals and global")
    idx, locals_, global_ = row["sample_id"], row["locals"], row["global"]
    if type(idx) is not int:
        raise ValueError(f"{where}: sample_id must be an integer, got {idx!r}")
    if (not isinstance(locals_, list) or len(locals_) != n_aus
            or not all(isinstance(c, str) for c in locals_)):
        raise ValueError(f"{where}: locals must be a list of {n_aus} strings")
    if not isinstance(global_, str):
        raise ValueError(f"{where}: global must be a string")
    return idx, locals_, global_


def load_dataset(root) -> Dataset:
    root = str(root)
    manifest = DatasetManifest.read(os.path.join(root, "manifest.txt"))
    cfg = manifest.config
    m = manifest.n_samples
    images = np.empty((m, 3, cfg.height, cfg.width), dtype=np.float32)
    for idx in range(m):
        images[idx] = read_tensor(sample_path(root, idx))
    labels = np.zeros((m, cfg.n_aus), dtype=np.int64)
    subject_ids = np.zeros(m, dtype=np.int64)
    genders = [""] * m
    labels_path = os.path.join(root, "labels.csv")
    with open(labels_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expect = ["sample_id", "subject_id", "gender"] + [f"au_{i}" for i in range(cfg.n_aus)]
        if header != expect:
            raise ValueError(f"labels.csv header mismatch: {header}")
        rows = [_label_row(line, cfg.n_aus, f"{labels_path}: line {n}")
                for n, line in enumerate(fh, start=2)]
    _check_sample_ids([row[0] for row in rows], m, labels_path)
    for idx, subject, gender, states in rows:
        subject_ids[idx] = subject
        genders[idx] = gender
        labels[idx] = states
    local_captions = [None] * m
    global_captions = [None] * m
    captions_path = os.path.join(root, "captions.jsonl")
    with open(captions_path, encoding="utf-8") as fh:
        rows = [_caption_row(line, cfg.n_aus, f"{captions_path}: line {n}")
                for n, line in enumerate(fh, start=1)]
    _check_sample_ids([row[0] for row in rows], m, captions_path)
    for idx, locals_, global_ in rows:
        local_captions[idx] = locals_
        global_captions[idx] = global_
    vocab = Vocabulary.load(os.path.join(root, "vocab.txt"))
    return Dataset(manifest, images, labels, subject_ids, genders,
                   local_captions, global_captions, vocab)


def split_folds(subject_ids, k: int, seed: int):
    """Subject-exclusive k-fold split: k arrays of sample indices."""
    subject_ids = np.asarray(subject_ids)
    subjects = np.unique(subject_ids)
    if subjects.size < k:
        raise ValueError(f"need at least {k} subjects for {k} folds, have {subjects.size}")
    order = subjects[np.random.default_rng([seed, 555]).permutation(subjects.size)]
    folds = []
    for f in range(k):
        held = set(order[f::k].tolist())
        folds.append(np.where([s in held for s in subject_ids])[0])
    return folds


def occurrence_rates(labels: np.ndarray) -> np.ndarray:
    """Per-AU activation frequency, floored at 1/(2M) so weights stay finite."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[0] == 0:
        raise ValueError("labels must be a non-empty (M, N) matrix")
    m = labels.shape[0]
    return np.maximum(labels.mean(axis=0), 1.0 / (2 * m))

