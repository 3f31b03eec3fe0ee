"""Command-line interface tests."""

import json
import os

import numpy as np
import pytest

from aulang.cli import main

SMALL_MODEL = [
    "--set", "model.stem_width=8", "--set", "model.msc_width=8",
    "--set", "model.feat_dim=16", "--set", "model.hidden_size=16",
    "--set", "model.embed_dim=8",
]
SMALL_DATA = [
    "--set", "data.n_aus=3", "--set", "data.subjects=6",
    "--set", "data.samples_per_subject=4", "--set", "data.height=32",
    "--set", "data.width=32",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--out", str(data_dir), "--seed", "3"] + SMALL_DATA) == 0
    run_dir = root / "run"
    code = main(["train", "--data", str(data_dir), "--fold", "0",
                 "--out", str(run_dir), "--epochs", "1", "--seed", "5",
                 "--set", "train.batch_size=8"] + SMALL_MODEL)
    assert code == 0
    return {"data": data_dir, "run": run_dir, "checkpoint": run_dir / "checkpoint"}


def test_synth_json_and_files(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["synth", "--out", str(out), "--seed", "1", "--json"] + SMALL_DATA)
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_samples"] == 24 and info["n_aus"] == 3
    for name in ("manifest.txt", "labels.csv", "captions.jsonl", "vocab.txt"):
        assert (out / name).exists()
    assert (out / "images" / "sample_00000.ten").exists()


def test_synth_dedicated_flags(tmp_path, capsys):
    out = tmp_path / "ds"
    code = main(["synth", "--out", str(out), "--au-count", "4", "--subjects", "5",
                 "--set", "data.samples_per_subject=2",
                 "--set", "data.height=32", "--set", "data.width=32", "--json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["n_aus"] == 4 and info["subjects"] == 5 and info["n_samples"] == 10


def test_config_file_and_set_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("data.subjects = 4\ndata.n_aus = 2\n")
    out = tmp_path / "ds"
    code = main(["synth", "--out", str(out), "--config", str(cfg),
                 "--set", "data.subjects=3",
                 "--set", "data.samples_per_subject=2",
                 "--set", "data.height=32", "--set", "data.width=32",
                 "--json", "--echo-config"])
    assert code == 0
    captured = capsys.readouterr()
    info = json.loads(captured.out)
    assert info["subjects"] == 3  # --set beats the file
    assert info["n_aus"] == 2  # file value survives where not overridden
    assert "config data.subjects = 3 (cli)" in captured.err


def test_invalid_settings_exit_2(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--set", "data.bogus=1"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--set", "data.subjects=abc"]) == 2
    assert main(["synth", "--out", str(tmp_path / "x"),
                 "--set", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err


def test_missing_paths_exit_3(tmp_path, capsys):
    assert main(["train", "--data", str(tmp_path / "nope"), "--fold", "0",
                 "--out", str(tmp_path / "o")]) == 3
    assert main(["eval", "--checkpoint", str(tmp_path / "nock"),
                 "--data", str(tmp_path / "nope")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["train"])  # missing required flags
    assert exc.value.code == 2


def test_train_outputs(workspace):
    assert (workspace["run"] / "metrics.csv").exists()
    assert (workspace["checkpoint"] / "manifest.json").exists()
    header = (workspace["run"] / "metrics.csv").read_text().splitlines()[0]
    assert header.startswith("epoch,l_fau,l_lgen,l_ggen,l_gau,total,val_f1_avg")


def test_eval_heldout_fold(workspace, capsys):
    code = main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--fold", "0", "--json"])
    assert code == 0
    fold = json.loads(capsys.readouterr().out)
    assert 0 < fold["n_samples"] < 24
    assert fold["fold"] == 0
    assert 0.0 <= fold["f1_avg"] <= 1.0


def test_eval_training_data_needs_override(workspace, capsys):
    base = ["eval", "--checkpoint", str(workspace["checkpoint"]),
            "--data", str(workspace["data"])]
    assert main(base + ["--json"]) == 2  # whole set includes training subjects
    assert main(base + ["--fold", "1", "--json"]) == 2  # fold 1 was trained on
    capsys.readouterr()
    assert main(base + ["--json", "--allow-train-eval"]) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 24
    assert main(base + ["--fold", "1", "--json", "--allow-train-eval"]) == 0
    assert 0 < json.loads(capsys.readouterr().out)["n_samples"] < 24


def test_describe_json_fields(workspace, capsys):
    code = main(["describe", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--sample", "0", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sample_id"] == 0
    assert len(payload["aus"]) == 3
    for row in payload["aus"]:
        assert set(row) == {"au", "probability", "active", "description"}
        assert 0.0 <= row["probability"] <= 1.0
        assert row["active"] == (row["probability"] >= 0.5)
        assert isinstance(row["description"], str)
    assert isinstance(payload["global_description"], str)


def test_describe_requires_one_source(workspace, capsys):
    assert main(["describe", "--checkpoint", str(workspace["checkpoint"])]) == 2
    assert main(["describe", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--sample", "0",
                 "--image", "x.ten"]) == 2


def test_describe_standalone_image(workspace, tmp_path, capsys):
    from aulang.tenfile import write_tensor
    from aulang.data import load_dataset
    ds = load_dataset(workspace["data"])
    img_path = tmp_path / "img.ten"
    write_tensor(img_path, ds.images[2])
    code = main(["describe", "--checkpoint", str(workspace["checkpoint"]),
                 "--image", str(img_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "sample_id" not in payload
    assert len(payload["aus"]) == 3


def _describe_image(workspace, path, checkpoint=None):
    return main(["describe", "--checkpoint", str(checkpoint or workspace["checkpoint"]),
                 "--image", str(path), "--json"])


def _one_line(err):
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("fill", [np.nan, 7.0])
def test_describe_rejects_invalid_image(workspace, tmp_path, capsys, fill):
    from aulang.tenfile import write_tensor
    path = tmp_path / "bad.ten"
    write_tensor(path, np.full((3, 32, 32), fill, dtype=np.float32))
    assert _describe_image(workspace, path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid configuration" in _one_line(captured.err)


def test_describe_truncated_tensor_file_exits_2(workspace, tmp_path, capsys):
    path = tmp_path / "short.ten"
    path.write_bytes(b"TEN1\x01\x00")
    assert _describe_image(workspace, path) == 2
    assert "truncated" in _one_line(capsys.readouterr().err)


def test_describe_non_finite_weights_exit_4(workspace, tmp_path, capsys):
    import shutil
    from aulang.data import load_dataset
    from aulang.tenfile import write_tensor
    ckpt = tmp_path / "ckpt"
    shutil.copytree(workspace["checkpoint"], ckpt)
    write_tensor(ckpt / "params" / "clf.bias.ten", np.full(6, np.nan, dtype=np.float32))
    img_path = tmp_path / "img.ten"
    write_tensor(img_path, load_dataset(workspace["data"]).images[2])
    assert _describe_image(workspace, img_path, checkpoint=ckpt) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical failure" in _one_line(captured.err)


def test_export_embeddings_cli(workspace, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    code = main(["export-embeddings", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--out", str(out), "--json"])
    assert code == 0
    info = json.loads(capsys.readouterr().out)
    assert info["rows"] == 24 * 3
    assert out.exists()
    header = out.read_text().splitlines()[0].split(",")
    assert header[:5] == ["sample_id", "subject_id", "gender", "au", "label"]
    assert len(header) == 5 + 16


def test_export_embeddings_balanced_subjects(workspace, tmp_path, capsys):
    out = tmp_path / "emb.csv"
    base = ["export-embeddings", "--checkpoint", str(workspace["checkpoint"]),
            "--data", str(workspace["data"]), "--out", str(out)]
    assert main(base + ["--subjects", "2", "--seed", "4", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["rows"] == 2 * 4 * 3  # 2 subjects x 4 samples x 3 AUs
    genders = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
    assert genders == {"female", "male"}
    assert main(base + ["--subjects", "3"]) == 2  # odd count
    assert main(base + ["--subjects", "8"]) == 2  # more than the data has


def test_train_all_folds(workspace, tmp_path, capsys):
    out = tmp_path / "all"
    code = main(["train", "--data", str(workspace["data"]), "--out", str(out),
                 "--epochs", "1", "--seed", "5", "--json",
                 "--set", "train.batch_size=8"] + SMALL_MODEL)
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert [s["fold"] for s in summary] == [0, 1, 2]
    for f in range(3):
        assert (out / f"fold{f}" / "metrics.csv").exists()
        assert (out / f"fold{f}" / "checkpoint" / "manifest.json").exists()


def test_text_mode_output(workspace, capsys):
    code = main(["describe", "--checkpoint", str(workspace["checkpoint"]),
                 "--data", str(workspace["data"]), "--sample", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("au") >= 3 and "overall:" in out
