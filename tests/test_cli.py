"""Command-line interface: commands, exit codes, manifests, and replay.

Tests verify:
- simulate on inline line specs and graph files (packed, space- or
  tab-separated); a graph file that is missing or is not a graph exits 1
  and writes nothing
- gen-dataset line/random flows and overwrite protection, which also
  keeps the manifest of a run whose output was moved away
- every run's files are checked before any work (exit 1, nothing written):
  a missing input, an output whose directory does not exist, and a
  written file (output or manifest) that is a directory or is named twice
  among the run's files, also with --force
- usage errors (exit 2) name their argument and write nothing
- a graph too large for the model is refused with `encode`'s message
- train/eval/inspect round trips through real files; a model whose weights
  are a list and a dataset whose header metadata is a number end in
  `qwalk: error:` (exit 1)
- the five CSV tables (trace, history, metrics and both weight tables)
  share one layout: documented header, exact number cells, blank
  undefined cells, one final LF
- the exit-code contract (0 ok, 1 runtime failure, 2 usage error); train
  checks its flags before reading any dataset, and gen-dataset takes its
  worker count from --jobs alone
- every artifact gets a manifest, and rerun reproduces identical bytes,
  also from manifests that carry retired walk flags
- relative manifest paths resolve against the manifest's directory
  (version 2) or the working directory (version 1)
- rerun names each drifted or missing input and does not replay, and
  names each recorded output the replay did not write
- rerun refuses a malformed manifest (not JSON, or a version outside
  1..2), a command that writes no manifest,
  or a recorded value its command's parser could not have produced, with
  `qwalk: error:` naming the file
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwalk
from qwalk import load, load_model
from qwalk.cli import build_parser, main


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tree(root) -> dict:
    """Every path under `root`, with a file's bytes (None for a directory)."""
    return {p: None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


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


def test_simulate_reads_tab_separated_graph_files(tmp_path, capsys):
    spec = tmp_path / "graph.tsv"
    spec.write_text("0\t1\t1\t0\n1\t0\t1\t0\n1\t1\t0\t1\n0\t0\t1\t0\n")
    rc = main(["simulate", "--graph", str(spec), "--out", str(tmp_path / "t.csv")])
    text = capsys.readouterr().out
    assert rc == 0
    (packed := tmp_path / "packed.txt").write_text("0110\n1010\n1101\n0010\n")
    main(["simulate", "--graph", str(packed), "--out", str(tmp_path / "p.csv")])
    assert capsys.readouterr().out.replace("p.csv", "t.csv") == text


def test_simulate_rejects_non_finite_gamma(tmp_path, capsys):
    rc = main(["simulate", "--line", "1,3,2", "--gamma", "nan", "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "qwalk: error: gamma must be finite and > 0, got nan\n"
    assert not (tmp_path / "t.csv").exists()


def test_simulate_rejects_bad_line_spec(tmp_path, capsys):
    rc = main(["simulate", "--line", "1,2", "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "graph, message",
    [
        pytest.param(None, "cannot read {graph}: no such file", id="missing"),
        pytest.param("0110\n10x0\n1101\n0010\n",
                     "graph file {graph} has a non-binary row: '10x0'", id="non-binary-row"),
        pytest.param("0110\n1010\n1101\n0000\n",
                     "graph file {graph} is not a valid graph: adjacency must be symmetric",
                     id="asymmetric"),
    ],
)
def test_simulate_refuses_a_bad_graph_file(tmp_path, capsys, graph, message):
    """A graph file that is missing or cannot be read as a graph is a
    runtime failure, as every other input is: exit 1 with its message, no
    usage text, and nothing written."""
    path = tmp_path / "g.txt"
    if graph is not None:
        path.write_text(graph)
    before = _tree(tmp_path)
    rc = main(["simulate", "--graph", str(path), "--out", str(tmp_path / "t.csv")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"qwalk: error: {message.format(graph=path)}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_simulate_needs_exactly_one_graph_source(tmp_path):
    rc = main([
        "simulate", "--line", "1,2,3", "--graph", "x.txt", "--out", str(tmp_path / "t.csv"),
    ])
    assert rc == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(["simulate", "--line", "1,x", "--out", "{out}"],
                     "--line expects comma-separated integers, got '1,x'", id="line-not-integers"),
        pytest.param(["inspect", "{model}", "--ensemble", "{tmp}", "--out", "{out}"],
                     "give exactly one of MODEL or --ensemble DIR", id="inspect-both"),
        pytest.param(["inspect", "--out", "{out}"],
                     "give exactly one of MODEL or --ensemble DIR", id="inspect-neither"),
        pytest.param(["rerun", "{tmp}/none.manifest.json"],
                     "manifest not found: {tmp}/none.manifest.json", id="rerun-missing-manifest"),
    ],
)
def test_usage_errors_name_their_argument(tmp_path, capsys, argv, message):
    """A bad command line exits 2 with the usage text and its message, and
    writes nothing."""
    paths = {"tmp": tmp_path, "out": tmp_path / "out.csv", "model": tmp_path / "m.json"}
    qwalk.save_model(qwalk.new_model("simple", 4, seed=0), paths["model"])
    before = _tree(tmp_path)
    rc = main([arg.format(**paths) for arg in argv])
    out, err = capsys.readouterr()
    assert rc == 2
    assert err.startswith("usage: ")
    assert err.endswith(f"qwalk: error: {message.format(**paths)}\n")
    assert out == ""
    assert _tree(tmp_path) == before


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


def test_gen_dataset_keeps_the_manifest_of_a_moved_output(tmp_path, capsys):
    """After `mv a.jsonl kept.jsonl`, a new run to a.jsonl would replace the
    only record of how kept.jsonl was made: it is refused without --force."""
    out, manifest = tmp_path / "a.jsonl", tmp_path / "a.jsonl.manifest.json"
    assert main(["gen-dataset", "line", "--n", "4", "--out", str(out)]) == 0
    out.rename(tmp_path / "kept.jsonl")
    recorded = manifest.read_bytes()
    capsys.readouterr()
    rc = main(["gen-dataset", "line", "--n", "4", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"qwalk: error: refusing to overwrite {manifest} (use --force)\n"
    assert manifest.read_bytes() == recorded
    assert not out.exists()
    assert main(["gen-dataset", "line", "--n", "4", "--out", str(out), "--force"]) == 0


def _run_files(tmp_path, capsys) -> dict:
    """The files the refusal tests name, by their argv placeholder: a line
    dataset and a model trained on it (each with its manifest), a graph
    file, a directory, and paths that do not exist."""
    data, model = tmp_path / "d.jsonl", tmp_path / "m.json"
    assert main(["gen-dataset", "line", "--n", "4", "--out", str(data)]) == 0
    assert main(["train", "--train", str(data), "--epochs", "2", "--seed", "1",
                 "--model-out", str(model)]) == 0
    (graph := tmp_path / "g.txt").write_text("0110\n1010\n1101\n0010\n")
    (tmp_path / "dir").mkdir()
    (tmp_path / "s.csv.manifest.json").mkdir()
    capsys.readouterr()
    return {"tmp": tmp_path, "data": data, "model": model, "graph": graph,
            "dir": tmp_path / "dir", "new": tmp_path / "new.json",
            "shadowed": tmp_path / "s.csv", "missing": tmp_path / "missing.jsonl",
            "out": tmp_path / "nodir" / "x.out"}


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-dataset", "line", "--n", "4", "--out", "{out}"],
        ["simulate", "--line", "1,3,2", "--out", "{out}"],
        ["train", "--train", "{data}", "--epochs", "5", "--seed", "1", "--model-out", "{out}"],
        ["train", "--train", "{data}", "--epochs", "5", "--seed", "1",
         "--model-out", "{new}", "--history-out", "{out}"],
        ["eval", "--model", "{model}", "--data", "{data}", "--out", "{out}"],
        ["inspect", "{model}", "--out", "{out}"],
    ],
    ids=["gen-dataset", "simulate", "train-model", "train-history", "eval", "inspect"],
)
def test_missing_output_directory_is_refused_before_any_work(tmp_path, capsys, argv):
    paths = _run_files(tmp_path, capsys)
    made = sorted(tmp_path.iterdir())
    out = paths["out"]
    rc = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"qwalk: error: cannot write {out}: no directory {out.parent}\n"
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == made


_TRAIN_ON_DATA = ["train", "--train", "{data}", "--epochs", "2"]


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{new}", "--history-out", "{new}"],
                     "cannot write {new}: the same file is another output",
                     id="two-outputs-train"),
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{new}",
                      "--history-out", "{dir}/../new.json"],
                     "cannot write {dir}/../new.json: the same file is another output",
                     id="two-outputs-train-respelled"),
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{new}",
                      "--history-out", "{new}.manifest.json"],
                     "cannot write {new}.manifest.json: the same file is the run's manifest",
                     id="manifest-name-train"),
        pytest.param(["eval", "--model", "{model}", "--data", "{data}.manifest.json",
                      "--out", "{data}", "--force"],
                     "cannot write {data}.manifest.json: the same file is an input",
                     id="manifest-name-is-input-eval"),
        pytest.param(["simulate", "--graph", "{graph}", "--out", "{graph}", "--force"],
                     "cannot write {graph}: the same file is an input", id="input-simulate"),
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{data}", "--force"],
                     "cannot write {data}: the same file is an input", id="input-train-model"),
        pytest.param([*_TRAIN_ON_DATA, "--test", "{model}", "--model-out", "{new}",
                      "--history-out", "{model}", "--force"],
                     "cannot write {model}: the same file is an input",
                     id="input-train-history"),
        pytest.param(["eval", "--model", "{model}", "--data", "{data}", "--out", "{data}",
                      "--force"],
                     "cannot write {data}: the same file is an input", id="input-eval"),
        pytest.param(["inspect", "{model}", "--out", "{model}", "--force"],
                     "cannot write {model}: the same file is an input", id="input-inspect"),
        pytest.param(["inspect", "--ensemble", "{tmp}", "--out", "{model}", "--force"],
                     "cannot write {model}: the same file is an input",
                     id="input-inspect-ensemble"),
        pytest.param(["gen-dataset", "line", "--n", "4", "--out", "{dir}", "--force"],
                     "cannot write {dir}: it is a directory", id="directory-gen-dataset"),
        pytest.param(["simulate", "--line", "1,3,2", "--out", "{dir}", "--force"],
                     "cannot write {dir}: it is a directory", id="directory-simulate"),
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{dir}", "--force"],
                     "cannot write {dir}: it is a directory", id="directory-train-model"),
        pytest.param([*_TRAIN_ON_DATA, "--model-out", "{new}", "--history-out", "{dir}",
                      "--force"],
                     "cannot write {dir}: it is a directory", id="directory-train-history"),
        pytest.param(["eval", "--model", "{model}", "--data", "{data}", "--out", "{dir}",
                      "--force"],
                     "cannot write {dir}: it is a directory", id="directory-eval"),
        pytest.param(["inspect", "{model}", "--out", "{dir}", "--force"],
                     "cannot write {dir}: it is a directory", id="directory-inspect"),
        pytest.param(["gen-dataset", "line", "--n", "4", "--out", "{shadowed}"],
                     "cannot write {shadowed}.manifest.json: it is a directory",
                     id="directory-manifest-gen-dataset"),
        pytest.param(["eval", "--model", "{model}", "--data", "{data}", "--out", "{shadowed}"],
                     "cannot write {shadowed}.manifest.json: it is a directory",
                     id="directory-manifest-eval"),
        pytest.param(["train", "--train", "{missing}", "--model-out", "{new}"],
                     "cannot read {missing}: no such file", id="missing-train-data"),
        pytest.param([*_TRAIN_ON_DATA, "--test", "{missing}", "--model-out", "{new}"],
                     "cannot read {missing}: no such file", id="missing-test-data"),
        pytest.param(["eval", "--model", "{missing}", "--data", "{data}", "--out", "{new}"],
                     "cannot read {missing}: no such file", id="missing-eval-model"),
        pytest.param(["eval", "--model", "{model}", "--data", "{missing}", "--out", "{new}"],
                     "cannot read {missing}: no such file", id="missing-eval-data"),
        pytest.param(["inspect", "{missing}", "--out", "{new}"],
                     "cannot read {missing}: no such file", id="missing-inspect-model"),
    ],
)
def test_run_files_are_checked_before_any_work(tmp_path, capsys, argv, message):
    """Every input is an existing file; every file a run writes (its outputs
    and its manifest) is named once among the run's files, paths compared
    once resolved, and is not a directory, even with --force. A refused
    run exits 1 with its message, prints nothing else (not even a generated
    seed) and leaves every file as it was."""
    paths = _run_files(tmp_path, capsys)
    before = _tree(tmp_path)
    rc = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == f"qwalk: error: {message.format(**paths)}\n"
    assert captured.out == ""
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "flag, value, seed",
    [
        pytest.param("--jobs", "-3", ["--seed", "1"], id="flag-negative"),
        pytest.param("--jobs", "0", ["--seed", "1"], id="flag-zero"),
        pytest.param("--count", "0", ["--seed", "1"], id="count-zero"),
        pytest.param("--count", "0", [], id="count-zero-unseeded"),
        pytest.param("--count", "-3", [], id="count-negative-unseeded"),
    ],
)
def test_gen_dataset_rejects_bad_worker_counts(tmp_path, capsys, flag, value, seed):
    """A worker count or a random-graph count below 1 is a usage error:
    nothing is written, and without --seed no seed is generated and printed
    for a run that never starts."""
    out = tmp_path / "d.jsonl"
    args = {"--count": "3", "--jobs": "1", flag: value}
    rc = main(["gen-dataset", "random", "--n", "4", *seed, "--out", str(out),
               *(item for pair in args.items() for item in pair)])
    stdout, err = capsys.readouterr()
    assert rc == 2
    assert f"qwalk: error: {flag} must be >= 1, got {value}" in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_bad_qwalk_jobs_only_affects_an_unflagged_gen_dataset(tmp_path, capsys, monkeypatch):
    """The worker count comes from --jobs alone: an environment variable
    named QWALK_JOBS is ignored, and an unflagged build runs one worker."""
    monkeypatch.setenv("QWALK_JOBS", "two")
    out = tmp_path / "d.jsonl"
    assert main(["gen-dataset", "random", "--n", "4", "--count", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
    assert manifest["args"]["jobs"] == 1


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


def test_train_reports_test_accuracy_from_its_history(tmp_path, capsys, monkeypatch):
    """The reported accuracies are the final history row's, which equal a
    fresh evaluate of the saved model; each set is encoded once."""
    import qwalk.evaluation

    d4, d5 = tmp_path / "d4.jsonl", tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(d4)])
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    capsys.readouterr()
    encoded = []
    real = qwalk.evaluation.encode
    monkeypatch.setattr(qwalk.evaluation, "encode",
                        lambda model, graphs: encoded.append(len(graphs)) or real(model, graphs))
    model_path = tmp_path / "m.json"
    rc = main(["train", "--train", str(d5), "--test", str(d4), str(d5), "--variant", "full",
               "--epochs", "12", "--seed", "2", "--model-out", str(model_path)])
    text = capsys.readouterr().out
    assert rc == 0
    sizes = [len(load(d5)), len(load(d4)), len(load(d5))]
    assert encoded == sizes
    model = load_model(model_path)
    for i, path in enumerate((d4, d5)):
        accuracy = qwalk.evaluate(model, load(path)).accuracy
        assert f"test set {i + 1} ({sizes[i + 1]} examples): accuracy {accuracy:.4f}" in text


def test_train_rejects_too_small_n_max(tmp_path, capsys):
    """A graph larger than --n-max is refused by `encode`, before any write."""
    d5 = tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    before = _tree(tmp_path)
    capsys.readouterr()
    rc = main([
        "train", "--train", str(d5), "--n-max", "4",
        "--epochs", "5", "--seed", "0", "--model-out", str(tmp_path / "m.json"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qwalk: error: graph has 5 vertices but the model allows 4\n"
    )
    assert _tree(tmp_path) == before


@pytest.mark.parametrize(
    "flag, value, message",
    [
        pytest.param("--epochs", "0", "--epochs must be >= 1, got 0", id="0"),
        pytest.param("--epochs", "-3", "--epochs must be >= 1, got -3", id="-3"),
        pytest.param("--batch-size", "0", "batch_size must be >= 1, got 0", id="batch-size"),
        pytest.param("--batches-per-epoch", "0", "batches_per_epoch must be >= 1, got 0",
                     id="batches-per-epoch"),
        pytest.param("--eval-every", "0", "eval_every must be >= 1, got 0", id="eval-every"),
        pytest.param("--holdout", "1.0", "--holdout must lie in (0, 1), got 1.0", id="holdout"),
        pytest.param("--lr", "-1", "learning rate must be finite and >= 0, got -1.0",
                     id="lr-negative"),
        pytest.param("--lr", "nan", "learning rate must be finite and >= 0, got nan",
                     id="lr-nan"),
        pytest.param("--lr", "inf", "learning rate must be finite and >= 0, got inf",
                     id="lr-inf"),
    ],
)
def test_train_without_epochs_is_a_usage_error(tmp_path, capsys, flag, value, message):
    """A schedule with no epochs would write an untrained model. Every
    schedule flag is checked before any dataset is read: the training file
    here does not exist, yet the flag is what is reported. Without --seed,
    no seed is generated and printed for a run that never starts."""
    for seed in (["--seed", "0"], []):
        rc = main(["train", "--train", str(tmp_path / "missing.jsonl"), *seed, flag, value,
                   "--model-out", str(tmp_path / "m.json")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert "usage" in err and f"qwalk: error: {message}" in err
        assert out == ""
        assert list(tmp_path.iterdir()) == []


def test_train_rejects_a_full_model_without_hidden_units(tmp_path, capsys):
    """With no hidden units no input reaches the full variant's scores."""
    data = tmp_path / "d4.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    capsys.readouterr()
    rc = main(["train", "--train", str(data), "--variant", "full", "--hidden-width", "0",
               "--epochs", "5", "--seed", "0", "--model-out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "qwalk: error: hidden_width must be >= 1, got 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d4.jsonl", "d4.jsonl.manifest.json"]


def test_eval_rejects_undersized_model(tmp_path, capsys):
    d4, d5 = tmp_path / "d4.jsonl", tmp_path / "d5.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(d4)])
    main(["gen-dataset", "line", "--n", "5", "--out", str(d5)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(d4), "--epochs", "5", "--seed", "0",
          "--model-out", str(model_path)])
    capsys.readouterr()
    before = _tree(tmp_path)
    rc = main(["eval", "--model", str(model_path), "--data", str(d5),
               "--out", str(tmp_path / "metrics.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        "qwalk: error: graph has 5 vertices but the model allows 4\n"
    )
    assert _tree(tmp_path) == before


def test_eval_rejects_a_model_with_float_sizes(tmp_path, capsys):
    """A model file whose n_max is a float is malformed: eval reports it
    and exits 1 instead of failing later in a traceback."""
    data = tmp_path / "d4.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(data), "--epochs", "5", "--seed", "0",
          "--model-out", str(model_path)])
    record = json.loads(model_path.read_text())
    record["n_max"] = float(record["n_max"])
    model_path.write_text(json.dumps(record))
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--data", str(data),
               "--out", str(tmp_path / "metrics.csv")])
    assert rc == 1
    assert "qwalk: error: invalid model record: n_max must be an integer, got 4.0" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "metrics.csv").exists()


def test_eval_rejects_a_model_whose_weights_are_a_list(tmp_path, capsys):
    data = tmp_path / "d4.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(data), "--epochs", "5", "--seed", "0",
          "--model-out", str(model_path)])
    record = json.loads(model_path.read_text())
    record["weights"] = [1, 2]
    model_path.write_text(json.dumps(record))
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--data", str(data),
               "--out", str(tmp_path / "metrics.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("qwalk: error: invalid model record: weights must map names")
    assert "Traceback" not in err


def test_train_rejects_a_dataset_whose_metadata_is_not_an_object(tmp_path, capsys):
    data = tmp_path / "d4.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    lines = data.read_text().splitlines()
    header = json.loads(lines[0])
    header["metadata"] = 5
    data.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    capsys.readouterr()
    rc = main(["train", "--train", str(data), "--holdout", "0.25", "--epochs", "5",
               "--seed", "0", "--model-out", str(tmp_path / "m.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "qwalk: error: line 1: metadata must be a dict, got 5\n"
    assert not (tmp_path / "m.json").exists()


def test_inspect_rejects_non_model_file(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(data)])
    rc = main(["inspect", str(data), "--out", str(tmp_path / "w.csv")])
    assert rc == 1


def test_inspect_ensemble_needs_a_model_file(tmp_path, capsys):
    """A directory without model files is refused; run manifests there do
    not count as models."""
    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "m.json.manifest.json").write_text("{}")
    rc = main(["inspect", "--ensemble", str(tmp_path / "models"),
               "--out", str(tmp_path / "w.csv")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"qwalk: error: no model files (*.json) under {tmp_path / 'models'}\n"
    )
    assert not (tmp_path / "w.csv").exists()


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
    # the same table as a model carrying the mean weights would export
    models = [load_model(model_dir / f"m{seed}.json") for seed in (0, 1)]
    stats = qwalk.ensemble_stats([(m, []) for m in models])
    reference = models[0].copy()
    reference.weights["last"] = stats.last_layer_mean
    expected = ["vertex,feature,class,mean,deviation"] + [
        f"{r['vertex']},{r['feature']},{r['class']},{r['weight']!r},{float(dev)!r}"
        for r, dev in zip(qwalk.export_last_layer(reference),
                          np.sqrt(stats.last_layer_msd).reshape(-1))
    ]
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode("utf-8")


# ====== CSV tables ======

# the documented header of a history with two test sets
_HISTORY_HEADER = ["epoch", "train_loss"] + [
    f"test_{metric}_{k}"
    for k in (1, 2)
    for metric in ("loss", "accuracy", "precision_classical", "recall_classical",
                   "precision_quantum", "recall_quantum")
]


def _trace_table(tmp_path):
    outcome = qwalk.label_graph(qwalk.line_graph(4, [0, 2, 3, 1]), record_traces=True)
    path = tmp_path / "trace.csv"
    qwalk.write_trace_csv(outcome, path)
    c, q = outcome.classical_trace, outcome.quantum_trace
    return path, [list(row) for row in zip(c.times, c.values, q.values)]


def _history_table(tmp_path):
    d4, d5 = qwalk.build_line_dataset(4), qwalk.build_line_dataset(5)
    schedule = qwalk.Schedule(epochs=7, eval_every=3, seed=2)
    _, history = qwalk.train(qwalk.new_model("simple", 5, seed=1), d5, [d4, d5], schedule)
    path = tmp_path / "history.csv"
    qwalk.write_history_csv(history, path)
    rows = [[row.get(c) for c in _HISTORY_HEADER] for row in history]
    assert rows[1][2] is None  # epoch 1 has no test metrics
    return path, rows


def _metrics_table(tmp_path):
    model = qwalk.new_model("simple", 4, seed=0)
    model.weights["last"][:] = 0.0  # every score ties, so no graph is predicted quantum
    m = qwalk.evaluate(model, qwalk.build_line_dataset(4))
    assert m.precision[1] is None
    path = tmp_path / "metrics.csv"
    qwalk.write_metrics_csv(m, path)
    names = ("classical", "quantum")
    return path, [
        ["accuracy", m.accuracy],
        ["mean_loss", m.mean_loss],
        *([f"{kind}_{name}", values[c]] for c, name in enumerate(names)
          for kind, values in (("precision", m.precision), ("recall", m.recall))),
        *([f"confusion_{t_name}_{p_name}", m.confusion[t, p]]
          for t, t_name in enumerate(names) for p, p_name in enumerate(names)),
    ]


def _inspect_table(tmp_path):
    model = qwalk.new_model("full", 4, seed=3, hidden_width=3)
    model_path, path = tmp_path / "m.json", tmp_path / "weights.csv"
    qwalk.save_model(model, model_path)
    assert main(["inspect", str(model_path), "--out", str(path)]) == 0
    return path, [[r["vertex"], r["feature"], r["class"], r["weight"]]
                  for r in qwalk.export_last_layer(model)]


def _ensemble_table(tmp_path):
    models = [qwalk.new_model("simple", 4, seed=s) for s in (0, 1, 2)]
    (tmp_path / "models").mkdir()
    for s, model in enumerate(models):
        qwalk.save_model(model, tmp_path / "models" / f"m{s}.json")
    path = tmp_path / "ensemble.csv"
    assert main(["inspect", "--ensemble", str(tmp_path / "models"), "--out", str(path)]) == 0
    stats = qwalk.ensemble_stats([(m, []) for m in models])
    return path, [
        [r["vertex"], r["feature"], r["class"], mean, deviation]
        for r, mean, deviation in zip(qwalk.export_last_layer(models[0]),
                                      stats.last_layer_mean.reshape(-1),
                                      np.sqrt(stats.last_layer_msd).reshape(-1))
    ]


@pytest.mark.parametrize(
    "table, header",
    [
        (_trace_table, "t,p_classical,p_quantum"),
        (_history_table, ",".join(_HISTORY_HEADER)),
        (_metrics_table, "metric,value"),
        (_inspect_table, "vertex,feature,class,weight"),
        (_ensemble_table, "vertex,feature,class,mean,deviation"),
    ],
    ids=["trace", "history", "metrics", "inspect", "inspect-ensemble"],
)
def test_csv_tables_share_one_layout(tmp_path, capsys, table, header):
    """Each of the five CSV tables has its documented header, then one line
    per row; a number cell parses back to exactly the value written (an
    integer as an integer), an undefined cell is blank, and the UTF-8 file
    ends in one LF."""
    path, rows = table(tmp_path)
    data = path.read_bytes()
    assert data.endswith(b"\n") and not data.endswith(b"\n\n") and b"\r" not in data
    lines = data.decode("utf-8")[:-1].split("\n")
    assert lines[0] == header
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert len(cells) == len(row), line
        for cell, value in zip(cells, row):
            if value is None:
                assert cell == ""
            elif isinstance(value, str):
                assert cell == value
            elif isinstance(value, (int, np.integer)):
                assert cell == str(int(value))
            else:
                assert float(cell) == value, line


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
    """The installed script wires argv through to main().

    The child process finds the same qwalk package this test imported,
    installed or not.
    """
    package_root = str(Path(qwalk.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", "--version"],
        capture_output=True, text=True, env=env,
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


def _manifest(argv: list, **edits) -> dict:
    """A manifest of the command line `argv`, every flag recorded as the
    parser resolves it, with `edits` applied to its args."""
    recorded = vars(build_parser().parse_args(argv))
    del recorded["func"], recorded["command"]
    return {"format": "qwalk-manifest", "version": 2, "command": argv[0],
            "args": {**recorded, **edits}, "inputs": {},
            "outputs": {"out.bin": "sha256:" + "0" * 64}}


_GEN = ["gen-dataset", "line", "--n", "4", "--out", "d.jsonl"]
_TRAIN = ["train", "--train", "d.jsonl", "--model-out", "m.json"]


@pytest.mark.parametrize(
    "manifest, reason",
    [
        ({"format": "qwalk-manifest", "command": "eval"}, "must be JSON objects"),
        ([1, 2], "is not a run manifest"),
        ({"format": "qwalk-manifest", "command": "eval", "args": {}, "inputs": {},
          "outputs": {}}, "args lack"),
        ({"format": "qwalk-manifest", "version": "2", "command": "eval", "args": {},
          "inputs": {}, "outputs": {}}, "version must be an integer"),
        (_manifest(_GEN, n="3"), "args.n must be an integer"),
        (_manifest(_GEN, n=True), "args.n must be an integer"),
        (_manifest(_GEN, out=5), "args.out must be a string"),
        (_manifest(_GEN, out=None), "args.out must not be null"),
        (_manifest(_GEN, gamma="x"), "args.gamma must be a number"),
        (_manifest(_GEN, kind="tree"), "args.kind must be one of 'line', 'random'"),
        (_manifest(_GEN, force="yes"), "args.force must be true or false"),
        (_manifest(_TRAIN, train="d.jsonl"), "args.train must be a list"),
        (_manifest(_TRAIN, test=[3]), "args.test must be a string"),
        ({**_manifest(_GEN), "command": "rerun"},
         "'rerun' is not a command that writes a manifest"),
        ({**_manifest(_GEN), "command": "frobnicate"},
         "'frobnicate' is not a command that writes a manifest"),
        ({**_manifest(_GEN), "command": ["gen-dataset"]},
         "['gen-dataset'] is not a command that writes a manifest"),
        *(({"format": "qwalk-manifest", "version": version, "command": "eval", "args": {},
            "inputs": {}, "outputs": {}}, f"version must lie in [1, 2], got {version}")
          for version in (0, -3, 99)),
        ("not json", "is not a run manifest: Expecting value: line 1 column 1 (char 0)"),
    ],
    ids=["no-args", "not-an-object", "args-lack-keys", "version-not-an-integer",
         "int-as-string", "int-as-bool", "path-as-number", "required-null",
         "float-as-string", "unknown-choice", "flag-as-string", "list-as-string",
         "list-item-as-number", "command-rerun", "command-unknown", "command-not-a-string",
         "version-zero", "version-negative", "version-too-new", "not-json"],
)
def test_rerun_rejects_malformed_manifests(tmp_path, capsys, manifest, reason):
    """`manifest` is written as JSON, or as it is when it is a string."""
    manifest_path = tmp_path / "bad.manifest.json"
    manifest_path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
    rc = main(["rerun", str(manifest_path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("qwalk: error: ") and str(manifest_path) in captured.err
    assert reason in captured.err
    assert "replaying" not in captured.out


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


def test_rerun_names_drifted_inputs_and_does_not_replay(tmp_path, capsys):
    """A changed or missing input is named with both checksums and the
    replay is skipped; matching inputs print nothing."""
    data, other = tmp_path / "d.jsonl", tmp_path / "e.jsonl"
    for path, seed in ((data, "3"), (other, "4")):
        main(["gen-dataset", "random", "--n", "4", "--count", "6", "--seed", seed,
              "--out", str(path)])
    model_path = tmp_path / "m.json"
    main(["train", "--train", str(data), "--test", str(other), "--epochs", "5",
          "--seed", "1", "--model-out", str(model_path)])
    manifest_path = tmp_path / "m.json.manifest.json"
    recorded = json.loads(manifest_path.read_text())["inputs"][str(data)]
    main(["gen-dataset", "random", "--n", "4", "--count", "6", "--seed", "5",
          "--out", str(data), "--force"])
    model_bytes = model_path.read_bytes()
    capsys.readouterr()

    rc = main(["rerun", str(manifest_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines == [f"DRIFTED {data}: recorded {recorded}, now sha256:{_sha(data)}"]
    assert model_path.read_bytes() == model_bytes

    data.unlink()
    rc = main(["rerun", str(manifest_path)])
    assert rc == 1
    assert capsys.readouterr().out.splitlines() == [
        f"DRIFTED {data}: recorded {recorded}, now missing"
    ]


def test_rerun_names_an_output_the_replay_did_not_write(tmp_path, capsys):
    """A recorded output that the replayed command does not write is printed
    as MISSING and fails the rerun; the outputs it did write are checked."""
    out = tmp_path / "d.jsonl"
    main(["gen-dataset", "line", "--n", "4", "--out", str(out)])
    manifest_path = tmp_path / "d.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["extra.csv"] = "sha256:" + "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["rerun", str(manifest_path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert lines[0] == f"replaying gen-dataset from {manifest_path}"
    assert lines[-2:] == [f"ok {out}", f"MISSING {tmp_path / 'extra.csv'}"]


def test_rerun_accepts_manifests_with_retired_walk_flags(tmp_path, capsys):
    """Manifests recorded before hit times were located exactly still carry
    the integration step and record stride; rerun ignores them."""
    out = tmp_path / "trace.csv"
    main(["simulate", "--line", "1,3,2", "--out", str(out)])
    manifest_path = tmp_path / "trace.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["args"].update(dt=0.01, stride=10)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["rerun", str(manifest_path)])
    assert rc == 0
    assert f"ok {out}" in capsys.readouterr().out


def test_rerun_resolves_paths_against_the_manifest(tmp_path, capsys, monkeypatch):
    """Relative paths are recorded from the manifest's directory, so a run
    replays from any working directory, also after its directory moved."""
    run = tmp_path / "run"
    run.mkdir()
    monkeypatch.chdir(run)
    main(["gen-dataset", "line", "--n", "4", "--out", "d.jsonl"])
    main(["train", "--train", "d.jsonl", "--test", "./d.jsonl", "--epochs", "5", "--seed", "1",
          "--model-out", "m.json"])
    manifest = json.loads((run / "m.json.manifest.json").read_text())
    assert list(manifest["inputs"]) == ["d.jsonl"]
    assert manifest["args"]["test"] == ["d.jsonl"]
    model_bytes = (run / "m.json").read_bytes()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()

    rc = main(["rerun", "run/m.json.manifest.json"])
    text = capsys.readouterr().out
    assert rc == 0, text
    assert "DRIFTED" not in text
    assert "ok run/m.json" in text.splitlines()
    assert (run / "m.json").read_bytes() == model_bytes

    run.rename(tmp_path / "moved")
    monkeypatch.chdir(tmp_path / "moved")
    assert main(["rerun", str(tmp_path / "moved" / "m.json.manifest.json")]) == 0
    assert f"ok {tmp_path / 'moved' / 'm.json'}" in capsys.readouterr().out


def test_rerun_reads_version_1_paths_against_the_working_directory(tmp_path, capsys,
                                                                  monkeypatch):
    """Manifests written before version 2 recorded paths as given on the
    command line, relative to the working directory of the run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    main(["gen-dataset", "random", "--n", "4", "--count", "3", "--seed", "6",
          "--out", "sub/d.jsonl"])
    manifest_path = tmp_path / "sub" / "d.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(version=1, outputs={"sub/d.jsonl": manifest["outputs"]["d.jsonl"]})
    manifest["args"]["out"] = "sub/d.jsonl"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "sub/d.jsonl.manifest.json"]) == 0
    assert "ok sub/d.jsonl" in capsys.readouterr().out.splitlines()


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
