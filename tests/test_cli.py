"""Command-line interface: commands, exit codes, manifests, and replay.

Tests verify:
- simulate on inline line specs and graph files
- gen-dataset line/random flows and overwrite protection
- train/eval/inspect round trips through real files
- the exit-code contract (0 ok, 1 runtime failure, 2 usage error)
- every artifact gets a manifest, and rerun reproduces identical bytes
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from qwalk import load, load_model
from qwalk.cli import main


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ====== simulate ======


def test_simulate_quantum_line(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = main(["simulate", "--line", "1,3,2", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "label: quantum" in text
    assert "p_threshold: 0.910" in text
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "t,p_classical,p_quantum"
    assert (tmp_path / "trace.csv.manifest.json").exists()


def test_simulate_classical_line(tmp_path, capsys):
    rc = main(["simulate", "--line", "1,2,3", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "label: classical" in capsys.readouterr().out


def test_simulate_reads_graph_files(tmp_path, capsys):
    spec = tmp_path / "graph.txt"
    spec.write_text("0110\n1010\n1101\n0010\n")
    rc = main(["simulate", "--graph", str(spec), "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    assert "label:" in capsys.readouterr().out


def test_simulate_rejects_bad_line_spec(tmp_path, capsys):
    rc = main(["simulate", "--line", "1,2", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_simulate_missing_graph_file_is_usage_error(tmp_path, capsys):
    rc = main(["simulate", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_simulate_needs_exactly_one_graph_source(tmp_path):
    rc = main([
        "simulate", "--line", "1,2,3", "--graph", "x.txt", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2


# ====== gen-dataset ======


def test_gen_dataset_line_is_exhaustive(tmp_path, capsys):
    out = tmp_path / "lines5.jsonl"
    rc = main(["gen-dataset", "line", "--n", "5", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "60 examples" in text
    assert len(load(out)) == 60


def test_gen_dataset_random_respects_seed(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    rc = main(["gen-dataset", "random", "--n", "4", "--count", "6", "--seed", "11",
               "--out", str(a)])
    assert rc == 0
    rc = main(["gen-dataset", "random", "--n", "4", "--count", "6", "--seed", "11",
               "--out", str(b)])
    assert rc == 0
    assert _sha(a) == _sha(b)


def test_gen_dataset_generates_and_prints_seed_when_omitted(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    rc = main(["gen-dataset", "random", "--n", "4", "--count", "3", "--out", str(out)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "seed" in text  # no hidden entropy: the chosen seed is reported
    manifest = json.loads((tmp_path / "r.jsonl.manifest.json").read_text())
    assert manifest["args"]["seed"] is not None


def test_gen_dataset_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    assert main(["gen-dataset", "line", "--n", "4", "--out", str(out)]) == 0
    rc = main(["gen-dataset", "line", "--n", "4", "--out", str(out)])
    assert rc == 1
    assert main(["gen-dataset", "line", "--n", "4", "--out", str(out), "--force"]) == 0


# ====== train / eval / inspect ======


def test_train_eval_inspect_round_trip(tmp_path, capsys):
    data = tmp_path / "d4.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    model_path = tmp_path / "model.json"
    rc = main([
        "train", "--train", str(data), "--holdout", "0.25",
        "--epochs", "40", "--seed", "5", "--model-out", str(model_path),
    ])
    text = capsys.readouterr().out
    assert rc == 0
    assert "test set" in text
    assert model_path.exists()
    history = model_path.with_suffix(".history.csv")
    assert history.exists()
    header = history.read_text().splitlines()[0].split(",")
    assert header[:2] == ["epoch", "train_loss"]

    model = load_model(model_path)
    assert model.variant == "simple"
    assert model.n_max == 4

    metrics_csv = tmp_path / "metrics.csv"
    rc = main(["eval", "--model", str(model_path), "--data", str(data),
               "--out", str(metrics_csv)])
    text = capsys.readouterr().out
    assert rc == 0
    assert "accuracy:" in text
    assert metrics_csv.read_text().splitlines()[0] == "metric,value"

    weights_csv = tmp_path / "weights.csv"
    rc = main(["inspect", str(model_path), "--out", str(weights_csv)])
    assert rc == 0
    lines = weights_csv.read_text().splitlines()
    assert lines[0] == "vertex,feature,class,weight"
    assert len(lines) == 1 + 2 * (4 * 4 + 1)  # both classes, 17 slots at n_max=4


def test_train_merges_multiple_sets_and_reports_each_test(tmp_path, capsys):
    d4, d5 = tmp_path / "d4.jsonl", tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(d4)])
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    model_path = tmp_path / "m.json"
    rc = main([
        "train", "--train", str(d4), str(d5), "--test", str(d4), str(d5),
        "--epochs", "30", "--seed", "1", "--model-out", str(model_path),
    ])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.count("accuracy") >= 2
    assert load_model(model_path).n_max == 5


def test_train_rejects_too_small_n_max(tmp_path, capsys):
    d5 = tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    rc = main([
        "train", "--train", str(d5), "--n-max", "4",
        "--epochs", "5", "--seed", "0", "--model-out", str(tmp_path / "m.json"),
    ])
    assert rc == 1


def test_eval_rejects_undersized_model(tmp_path, capsys):
    d4, d5 = tmp_path / "d4.jsonl", tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(d4)])
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(d4), "--epochs", "5", "--seed", "0",
          "--model-out", str(model_path)])
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--data", str(d5)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_inspect_rejects_non_model_file(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    rc = main(["inspect", str(data), "--out", str(tmp_path / "w.csv")])
    assert rc == 1


def test_inspect_ensemble_reports_mean_and_deviation(tmp_path):
    data = tmp_path / "d.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    model_dir = tmp_path / "models"
    model_dir.mkdir()
    for seed in (0, 1):
        main(["train", "--train", str(data), "--epochs", "10", "--seed", str(seed),
              "--model-out", str(model_dir / f"m{seed}.json")])
    out = tmp_path / "ensemble.csv"
    rc = main(["inspect", "--ensemble", str(model_dir), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,feature,class,mean,deviation"
    deviations = [float(line.split(",")[4]) for line in lines[1:]]
    assert any(d > 0 for d in deviations)


# ====== exit-code contract ======


def test_version_flag():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_missing_required_arguments_exit_2():
    with pytest.raises(SystemExit) as info:
        main(["train"])
    assert info.value.code == 2


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_console_entry_point():
    """The installed script wires argv through to main()."""
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("qwalk ")


# ====== manifests and replay ======


def test_manifest_contents(tmp_path):
    out = tmp_path / "d.jsonl"
    main(["gen-dataset", "random", "--n", "4", "--count", "5", "--seed", "8",
          "--out", str(out)])
    manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
    assert manifest["format"] == "qwalk-manifest"
    assert manifest["command"] == "gen-dataset"
    assert manifest["args"]["seed"] == 8
    assert set(manifest["outputs"]) == {str(out)}
    assert manifest["outputs"][str(out)].startswith("sha256:")
    assert manifest["duration_seconds"] >= 0


def test_rerun_reproduces_identical_artifacts(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    main(["gen-dataset", "random", "--n", "5", "--count", "6", "--seed", "21",
          "--out", str(out)])
    capsys.readouterr()
    before = _sha(out)
    rc = main(["rerun", str(tmp_path / "d.jsonl.manifest.json")])
    text = capsys.readouterr().out
    assert rc == 0
    assert f"ok {out}" in text
    assert _sha(out) == before


def test_rerun_detects_drift(tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    main(["gen-dataset", "random", "--n", "4", "--count", "4", "--seed", "2",
          "--out", str(out)])
    manifest_path = tmp_path / "d.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][str(out)] = "sha256:" + "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["rerun", str(manifest_path)])
    text = capsys.readouterr().out
    assert rc == 1
    assert "MISMATCH" in text


def test_rerun_keeps_its_evidence(tmp_path, capsys):
    """A mismatch leaves the artifact and manifest alone, so it persists."""
    out = tmp_path / "d.jsonl"
    main(["gen-dataset", "random", "--n", "4", "--count", "4", "--seed", "2",
          "--out", str(out)])
    manifest_path = tmp_path / "d.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"][str(out)] = "sha256:" + "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    artifact_bytes, manifest_bytes = out.read_bytes(), manifest_path.read_bytes()
    capsys.readouterr()
    for _ in range(2):
        rc = main(["rerun", str(manifest_path)])
        text = capsys.readouterr().out
        assert rc == 1
        assert f"MISMATCH {out}: recorded sha256:{'0' * 64}" in text
        assert out.read_bytes() == artifact_bytes
        assert manifest_path.read_bytes() == manifest_bytes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "d.jsonl.manifest.json"]


def test_train_rerun_reproduces_model(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(data), "--epochs", "15", "--seed", "9",
          "--model-out", str(model_path)])
    before = _sha(model_path)
    capsys.readouterr()
    rc = main(["rerun", str(tmp_path / "m.json.manifest.json")])
    assert rc == 0
    assert _sha(model_path) == before
