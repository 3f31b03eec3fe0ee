"""Command line front-end.

Subcommands: synth, train, eval, describe, export-embeddings.  Settings come
from defaults, then an optional key=value config file, then --set overrides
(file < CLI), using dotted keys like ``train.epochs`` or ``data.n_aus``.
A --seed flag wins over both for the command's seed.  Exit codes: 0 success,
2 usage or invalid configuration, 3 I/O failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .data import DataConfig, DatasetManifest, generate_dataset, load_dataset, sample_path
from .evaluate import DECISION_THRESHOLD, evaluate_model, export_embeddings
from .losses import NonFiniteLossError
from .model import ModelConfig
from .tenfile import read_kv, read_tensor
from .train import TrainConfig, load_checkpoint, train
from .vocab import Vocabulary

_SECTIONS = {"data": DataConfig, "model": ModelConfig, "train": TrainConfig}


class ConfigError(ValueError):
    pass


def _parse_value(raw: str, kind):
    if kind is bool:
        low = raw.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"not a boolean: {raw!r}")
    if kind is list:
        return [piece for piece in raw.split(",") if piece]
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}") from None


def _field_types(cls):
    out = {}
    for f in dataclasses.fields(cls):
        if f.type in ("int", int):
            out[f.name] = int
        elif f.type in ("float", float):
            out[f.name] = float
        elif f.type in ("bool", bool):
            out[f.name] = bool
        elif f.type in ("list", list):
            out[f.name] = list
        else:
            out[f.name] = str
    return out


def collect_settings(config_path, set_items):
    """Dotted key=value settings with file-then-CLI precedence.

    Returns {(section, field): (value, source)} with values still raw strings.
    """
    merged = {}
    if config_path:
        for key, value in read_kv(config_path).items():
            merged[key] = (value, "file")
    for item in set_items or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = (value.strip(), "cli")
    out = {}
    for key, (value, source) in merged.items():
        section, _, field = key.partition(".")
        if section not in _SECTIONS or not field:
            raise ConfigError(f"unknown setting {key!r}; sections: {sorted(_SECTIONS)}")
        types = _field_types(_SECTIONS[section])
        if field not in types:
            raise ConfigError(f"unknown setting {key!r}; "
                              f"{section} fields: {sorted(types)}")
        out[(section, field)] = (_parse_value(value, types[field]), source)
    return out


def build_section(section: str, settings: dict, **forced):
    kwargs = {field: value for (sec, field), (value, _) in settings.items()
              if sec == section}
    kwargs.update(forced)
    cls = _SECTIONS[section]
    if section == "data" and "rates" in kwargs:
        kwargs["rates"] = [float(r) for r in kwargs["rates"]]
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} configuration: {exc}") from None


def echo_settings(settings: dict, out):
    for (section, field), (value, source) in sorted(settings.items()):
        print(f"config {section}.{field} = {value} ({source})", file=out)


# ----- subcommands -----------------------------------------------------------


def cmd_synth(args, settings):
    seed = args.seed if args.seed is not None else 0
    forced = {}
    if args.au_count is not None:
        forced["n_aus"] = args.au_count
    if args.subjects is not None:
        forced["subjects"] = args.subjects
    cfg = build_section("data", settings, **forced)
    manifest = generate_dataset(cfg, seed=seed, out_dir=args.out)
    info = {"out": str(args.out), "n_samples": manifest.n_samples,
            "n_aus": cfg.n_aus, "subjects": cfg.subjects, "seed": seed}
    if args.json:
        print(json.dumps(info, sort_keys=True))
    else:
        print(f"wrote {manifest.n_samples} samples "
              f"({cfg.subjects} subjects, {cfg.n_aus} AUs) to {args.out}")
    return 0


def cmd_train(args, settings):
    dataset = load_dataset(args.data)
    forced_train = {}
    if args.seed is not None:
        forced_train["seed"] = args.seed
    if args.epochs is not None:
        forced_train["epochs"] = args.epochs
    if args.ablate:
        forced_train["ablate"] = [a for a in args.ablate.split(",") if a]
    tcfg = build_section("train", settings, **forced_train)
    mcfg = build_section("model", settings,
                         n_aus=dataset.config.n_aus,
                         vocab_size=len(dataset.vocab))
    log = None if args.json else (lambda msg: print(msg, file=sys.stderr))
    if args.fold is not None:
        plan = [(args.fold, args.out)]
    else:
        plan = [(f, os.path.join(args.out, f"fold{f}")) for f in range(tcfg.folds)]
    summaries = []
    for fold, out_dir in plan:
        result = train(dataset, fold=fold, model_cfg=mcfg, cfg=tcfg,
                       out_dir=out_dir, log=log)
        summaries.append({
            "fold": fold,
            "epochs": tcfg.epochs,
            "metrics": result.metrics_path,
            "checkpoint": result.checkpoint_dir,
            "val": result.report.to_dict(),
        })
        if not args.json:
            print(f"fold {fold}: val macro F1 {result.report.f1_avg:.4f}, "
                  f"top-5 local {result.report.top5_local:.4f}, "
                  f"metrics at {result.metrics_path}")
    if args.json:
        print(json.dumps(summaries[0] if args.fold is not None else summaries,
                         sort_keys=True))
    return 0


def _check_vocab(dataset_vocab, vocab):
    if dataset_vocab != vocab:
        raise ConfigError("dataset vocabulary differs from the checkpoint's")


def _load_model_and_data(args):
    model, vocab, manifest = load_checkpoint(args.checkpoint)
    dataset = load_dataset(args.data)
    _check_vocab(dataset.vocab, vocab)
    return model, dataset, manifest


def cmd_eval(args, settings):
    model, dataset, manifest = _load_model_and_data(args)
    trained_fold = manifest.get("fold")
    if args.fold is not None:
        from .data import split_folds
        tc = manifest.get("train_config") or {}
        seed = args.seed if args.seed is not None else tc.get("seed", 0)
        folds = split_folds(dataset.subject_ids, tc.get("folds", 3), seed=seed)
        if not 0 <= args.fold < len(folds):
            raise ConfigError(f"fold must be in 0..{len(folds) - 1}")
        # only the checkpoint's held-out fold is unseen data
        if (trained_fold is not None and args.fold != trained_fold
                and not args.allow_train_eval):
            raise ConfigError(
                f"fold {args.fold} was part of this checkpoint's training data "
                f"(held out: {trained_fold}); pass --allow-train-eval to score it anyway")
        indices = folds[args.fold]
    else:
        if trained_fold is not None and not args.allow_train_eval:
            raise ConfigError(
                "whole-dataset scoring includes this checkpoint's training subjects; "
                "pass --fold with its held-out fold, or --allow-train-eval")
        indices = np.arange(len(dataset))
    report = evaluate_model(model, dataset, indices, fold=args.fold)
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.format_text())
    return 0


def cmd_describe(args, settings):
    if (args.sample is None) == (args.image is None):
        raise ConfigError("describe needs exactly one of --sample or --image")
    model, vocab, _ = load_checkpoint(args.checkpoint)
    if args.sample is not None:
        # read only what one sample needs, not the whole dataset
        n_samples = DatasetManifest.read(os.path.join(args.data, "manifest.txt")).n_samples
        _check_vocab(Vocabulary.load(os.path.join(args.data, "vocab.txt")), vocab)
        if not 0 <= args.sample < n_samples:
            raise ConfigError(f"sample must be in 0..{n_samples - 1}")
        image = read_tensor(sample_path(args.data, args.sample))
    else:
        image = read_tensor(args.image)
    probs, local_ids, global_ids = model.describe_ids(image, beam_width=args.beam)

    aus = [{
        "au": i,
        "probability": float(probs[i]),
        "active": bool(probs[i] >= DECISION_THRESHOLD),
        "description": vocab.decode(ids),
    } for i, ids in enumerate(local_ids)]
    payload = {"aus": aus, "global_description": vocab.decode(global_ids)}
    if args.sample is not None:
        payload["sample_id"] = args.sample
    if args.json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        for row in aus:
            mark = "active" if row["active"] else "inactive"
            print(f"au{row['au']} p={row['probability']:.3f} [{mark}] {row['description']}")
        print(f"overall: {payload['global_description']}")
    return 0


def _balanced_subject_pick(dataset, count: int, seed: int) -> np.ndarray:
    """Pick ``count`` subjects, half per gender tag, seeded."""
    if count < 2 or count % 2:
        raise ConfigError("--subjects must be a positive even number")
    subjects = np.unique(dataset.subject_ids)
    by_gender = {}
    for s in subjects:
        tag = dataset.genders[int(np.flatnonzero(dataset.subject_ids == s)[0])]
        by_gender.setdefault(tag, []).append(int(s))
    if len(by_gender) != 2 or any(len(v) < count // 2 for v in by_gender.values()):
        raise ConfigError(f"dataset cannot supply {count // 2} subjects per gender")
    rng = np.random.default_rng([seed, 77])
    chosen = []
    for tag in sorted(by_gender):
        pool = np.array(sorted(by_gender[tag]))
        chosen.extend(pool[rng.permutation(pool.size)[: count // 2]])
    return np.flatnonzero(np.isin(dataset.subject_ids, chosen))


def cmd_export_embeddings(args, settings):
    model, dataset, _ = _load_model_and_data(args)
    if args.subjects is not None:
        indices = _balanced_subject_pick(dataset, args.subjects,
                                         args.seed if args.seed is not None else 0)
    else:
        indices = np.arange(len(dataset))
    rows = export_embeddings(model, dataset, indices, args.out)
    if args.json:
        print(json.dumps({"rows": rows, "out": str(args.out)}, sort_keys=True))
    else:
        print(f"wrote {rows} embedding rows to {args.out}")
    return 0


# ----- argument plumbing -----------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aulang",
        description="Facial action unit recognition with caption explanations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value settings file with dotted keys")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one setting; repeatable; beats --config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--echo-config", action="store_true",
                       help="print effective non-default settings to stderr")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--au-count", type=int, default=None, dest="au_count")
    p.add_argument("--subjects", type=int, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train cross-validation folds")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="train only this fold; default trains every fold")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--ablate", default=None,
                   help="comma list of loss terms to disable (fau,lgen,ggen,gau)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--fold", type=int, default=None,
                   help="score only this fold's held-out subjects")
    p.add_argument("--allow-train-eval", action="store_true",
                   help="permit scoring samples the checkpoint was trained on")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("describe", help="explain one sample's action units")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", default=None)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--image", default=None, help="standalone tensor file instead of --sample")
    p.add_argument("--beam", type=int, default=3)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("export-embeddings", help="dump pooled per-AU vectors as CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--subjects", type=int, default=None,
                   help="restrict to this many subjects, gender-balanced, seeded")
    p.set_defaults(fn=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "describe" and args.sample is not None and not args.data:
            raise ConfigError("--sample needs --data")
        settings = collect_settings(args.config, args.set)
        if args.echo_config:
            echo_settings(settings, sys.stderr)
        return args.fn(args, settings)
    except NonFiniteLossError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
