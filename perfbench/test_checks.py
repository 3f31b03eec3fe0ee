"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from aulang.data import DataConfig, generate_dataset, load_dataset, occurrence_rates  # noqa: E402
from aulang.decoder import beam_decode, greedy_decode  # noqa: E402
from aulang.evaluate import accuracy, evaluate_model, export_embeddings, f1_frame  # noqa: E402
from aulang.losses import compute_class_weights  # noqa: E402
from aulang.model import Model, ModelConfig  # noqa: E402
from aulang.tenfile import write_tensor  # noqa: E402
from aulang.train import save_checkpoint  # noqa: E402
from probe import PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import run_cli  # noqa: E402

MAX_LEN = 12


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = DataConfig(n_aus=3, subjects=4, samples_per_subject=6, height=32, width=32)
    generate_dataset(cfg, seed=3, out_dir=root / "data")
    ds = load_dataset(root / "data")
    model = Model(ModelConfig(n_aus=3, vocab_size=len(ds.vocab), stem_width=4, msc_width=4,
                              feat_dim=8, reduction=2, hidden_size=8, embed_dim=4,
                              max_len=MAX_LEN), seed=1)
    save_checkpoint(root / "ckpt", model, ds.vocab)
    return root, ds, model


def _regions(model, ds):
    local, global_ = checks.caption_regions(model, ds.images[0])
    return local[0], global_


def test_au_scores_reject_a_flipped_decision(tiny):
    _, ds, model = tiny
    idx = np.arange(len(ds))
    rep = evaluate_model(model, ds, idx)
    probs = checks.predict_in_chunks(model, ds.images)
    checks.check_au_scores(list(rep.f1_per_au), list(rep.acc_per_au), rep.f1_avg,
                           rep.acc_avg, probs, ds.labels)
    decisions = probs >= 0.5
    i, j = np.unravel_index(np.argmax(np.abs(probs - 0.5)), probs.shape)
    decisions[i, j] = ~decisions[i, j]
    f1s, f1_avg = f1_frame(decisions, ds.labels)
    accs, acc_avg = accuracy(decisions, ds.labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_au_scores(list(f1s), list(accs), f1_avg, acc_avg, probs, ds.labels)


def test_au_scores_let_a_decision_on_the_threshold_go_either_way():
    probs = np.array([[0.5 + 1e-7], [0.9], [0.1]])
    labels = np.array([[0], [1], [0]])
    # the first sample called negative: tp 1, fp 0, fn 0, tn 2
    checks.check_au_scores([1.0], [1.0], 1.0, 1.0, probs, labels)
    with pytest.raises(checks.CheckFailed):
        checks.check_au_scores([1.0], [1.0], 1.0, 1.0, np.array([[0.6], [0.9], [0.1]]), labels)


def test_topk_ranking_puts_the_lower_id_first_on_ties():
    logits = np.array([[1.0, 3.0, 3.0, 0.0]])
    assert checks.stable_topk_hits(logits, np.array([1]), 1) == 1
    assert checks.stable_topk_hits(logits, np.array([2]), 1) == 0
    assert checks.stable_topk_hits(logits, np.array([2]), 2) == 1


def test_eval_payload_rejects_a_wrong_word_accuracy(tiny):
    _, ds, model = tiny
    idx = np.arange(len(ds))
    payload = evaluate_model(model, ds, idx, fold=0).to_dict()
    checks.check_eval_payload(payload, model, ds, idx, fold=0)
    steps = len(ds) * model.config.n_aus * 3
    for key in ("top5_local", "top5_global"):
        bad = dict(payload, **{key: payload[key] - 1.0 / steps})
        with pytest.raises(checks.CheckFailed):
            checks.check_eval_payload(bad, model, ds, idx, fold=0)


def _export(model, ds, path):
    idx = np.flatnonzero(np.isin(ds.subject_ids, [0, 1]))
    export_embeddings(model, ds, idx, path)
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def test_export_rejects_a_perturbed_embedding_and_wrong_rows(tiny):
    root, ds, model = tiny
    path = str(root / "emb.csv")
    lines = _export(model, ds, path)
    assert checks.check_export_csv(path, model, ds, 2) == 12
    fields = lines[5].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-3)
    _write(path, lines[:5] + [",".join(fields)] + lines[6:])
    with pytest.raises(checks.CheckFailed, match="vectors"):
        checks.check_export_csv(path, model, ds, 2)
    fields = lines[5].split(",")
    fields[4] = str(1 - int(fields[4]))
    _write(path, lines[:5] + [",".join(fields)] + lines[6:])
    with pytest.raises(checks.CheckFailed, match="metadata"):
        checks.check_export_csv(path, model, ds, 2)
    _write(path, lines[:-3])
    with pytest.raises(checks.CheckFailed):
        checks.check_export_csv(path, model, ds, 2)


def test_describe_payload_rejects_corrupted_fields(tiny):
    root, ds, model = tiny
    image = str(root / "face.ten")
    write_tensor(image, ds.images[0])
    text = run_cli(["describe", "--checkpoint", root / "ckpt", "--image", image,
                    "--beam", "3", "--json"])
    payload = checks.parse_json(text)
    checks.check_describe_payload(payload, model, ds.vocab, ds.images[0], 3)

    flipped = json.loads(text)
    flipped["aus"][0]["active"] = not flipped["aus"][0]["active"]
    swapped = json.loads(text)
    words = swapped["aus"][1]["description"].split()
    swapped["aus"][1]["description"] = " ".join(words[::-1] + ["au0"])
    moved = json.loads(text)
    moved["aus"][2]["probability"] += 1e-3
    for bad in (flipped, swapped, moved):
        with pytest.raises(checks.CheckFailed):
            checks.check_describe_payload(bad, model, ds.vocab, ds.images[0], 3)
    with pytest.raises(checks.CheckFailed, match="NaN"):
        checks.parse_json(text.replace(repr(payload["aus"][0]["probability"]), "NaN", 1))


def test_greedy_check_rejects_a_swapped_token(tiny):
    _, ds, model = tiny
    for params, reg in zip((model.local_dec, model.global_dec), _regions(model, ds)):
        ids = greedy_decode(reg, params, MAX_LEN)
        checks.check_greedy_tokens(params, reg, ids)
        bad = list(ids)
        bad[0] = (bad[0] + 1) % params.vocab_size
        with pytest.raises(checks.CheckFailed):
            checks.check_greedy_tokens(params, reg, bad)


def test_beam_check_rejects_a_swapped_token(tiny):
    _, ds, model = tiny
    for params, reg in zip((model.local_dec, model.global_dec), _regions(model, ds)):
        ids = beam_decode(reg, params, 3, MAX_LEN)
        checks.check_beam_caption(params, reg, ids, 3, MAX_LEN)
        bad = list(ids)
        bad[-1] = (bad[-1] + 1) % params.vocab_size
        with pytest.raises(checks.CheckFailed):
            checks.check_beam_caption(params, reg, bad, 3, MAX_LEN)


def test_own_beam_of_width_one_is_greedy(tiny):
    _, ds, model = tiny
    reg = _regions(model, ds)[0]
    _, seq = checks.own_beam(model.local_dec, reg, 1, MAX_LEN)
    assert list(seq) == greedy_decode(reg, model.local_dec, MAX_LEN)


def test_directional_check_rejects_a_wrong_gradient(tiny):
    _, ds, model = tiny
    local_tok, global_tok = ds.encoded_captions(MAX_LEN)
    batch = {"images": ds.images[:8], "labels": ds.labels[:8],
             "local_tokens": local_tok[:8], "global_tokens": global_tok[:8]}
    weights = compute_class_weights(occurrence_rates(ds.labels))
    analytic, numeric = checks.directional_derivatives(model, batch, weights, seed=0)
    checks.check_directional(analytic, numeric)
    with pytest.raises(checks.CheckFailed):
        checks.check_directional(analytic * 1.001, numeric)


def test_history_rejects_non_finite_or_rising_loss():
    row = {"epoch": 1, "l_fau": 1.0, "l_lgen": 1.0, "l_ggen": 1.0, "l_gau": 1.0, "total": 4.0}
    checks.check_history([row, dict(row, epoch=2, total=3.0)])
    with pytest.raises(checks.CheckFailed):
        checks.check_history([row, dict(row, epoch=2, total=4.5)])
    with pytest.raises(checks.CheckFailed):
        checks.check_history([row, dict(row, epoch=2, l_gau=float("nan"), total=3.0)])


def test_reload_rejects_a_changed_weight(tiny):
    root, ds, model = tiny
    checks.check_reload(model, root / "ckpt", ds.images[:4])
    other = Model(model.config, seed=model.seed)
    other.clf_bias.data = other.clf_bias.data + 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_reload(other, root / "ckpt", ds.images[:4])


def test_tracer_nests_spans_and_stays_silent_when_off():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("inner"):
        pass
    outer = tracer.spans[0]["id"]
    assert tracer.spans[1]["parent"] == outer
    assert len(tracer.durations_ms("inner")) == 2
    assert len(tracer.durations_ms("inner", within=outer)) == 1
    off = Tracer(enabled=False)
    with off.span("x"):
        pass
    assert off.spans == []



def test_traced_runs_report_every_per_layer_metric_of_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    from probe import OTHER_UNITS
    assert declared == {name: OTHER_UNITS.get(name, "ms") for name in PER_LAYER}
