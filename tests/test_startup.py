"""Start-up: what a fresh process loads, and its first propagation.

Tests verify:
- importing qwalk and training, evaluating and inspecting models, through
  the API and the CLI (rerun included), loads neither scipy nor the
  process pool; walks and a random dataset build load neither either
- a simulate run in a fresh process, which has never loaded scipy, prints
  the same text and writes the same trace bytes as one run in this process

Each check runs in a fresh interpreter, because this process has already
loaded scipy through the test oracles.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import qwalk
from qwalk import build_line_dataset, save
from qwalk.cli import main

_COLD_PATH = r"""
import contextlib, io, json, sys

import qwalk, qwalk.cli
from qwalk import (
    Schedule, build_random_dataset, encode, evaluate, label_graph, line_graph, load,
    new_model, train,
)
from qwalk.cli import main

data, model_out, metrics_out, weights_out = sys.argv[1:]


def heavy():
    return sorted(
        m for m in sys.modules
        if m == "scipy" or m.startswith("scipy.") or m == "concurrent.futures.process"
    )


codes = []
with contextlib.redirect_stdout(io.StringIO()):
    dataset = load(data)
    for variant in ("simple", "full"):
        encode(new_model(variant, dataset.max_n, 0), [e.graph for e in dataset])
    model, _ = train(new_model("simple", dataset.max_n, 0), dataset, dataset, Schedule(epochs=3))
    evaluate(model, dataset)
    codes.append(main(["train", "--train", data, "--epochs", "3", "--seed", "1",
                       "--model-out", model_out]))
    codes.append(main(["eval", "--model", model_out, "--data", data, "--out", metrics_out]))
    codes.append(main(["inspect", model_out, "--out", weights_out]))
    try:
        main(["--help"])
    except SystemExit as exc:
        codes.append(exc.code)
    codes.append(main(["rerun", metrics_out + ".manifest.json"]))
cold = heavy()
label_graph(line_graph(4, [0, 2, 1, 3]))
walked = heavy()
build_random_dataset(4, 4, 0)
built = heavy()
print(json.dumps({"codes": codes, "cold": cold, "walked": walked, "built": built}))
"""


def _child_env() -> dict:
    """The environment of a child that imports the qwalk package under test."""
    package_root = str(Path(qwalk.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, inherited])))


def test_cold_path_loads_neither_scipy_nor_the_process_pool(tmp_path):
    data = tmp_path / "d.jsonl"
    save(build_line_dataset(4), data)
    paths = [str(data)] + [str(tmp_path / name) for name in ("m.json", "metrics.csv", "w.csv")]
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH, *paths],
        capture_output=True, text=True, env=_child_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["codes"] == [0, 0, 0, 0, 0]
    assert seen["cold"] == []
    assert seen["walked"] == []
    assert seen["built"] == []


def test_first_propagation_in_a_fresh_process_matches_this_one(tmp_path, monkeypatch, capsys):
    """The walks of a fresh process, which loads no scipy, print the same
    text and write the same trace bytes as those of this process, where
    the test oracles have loaded scipy."""
    argv = ["simulate", "--line", "2,6,1,5,3,7,4", "--out", "t.csv"]
    fresh_dir, here_dir = tmp_path / "fresh", tmp_path / "here"
    fresh_dir.mkdir()
    here_dir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "qwalk.cli", *argv],
        capture_output=True, text=True, env=_child_env(), cwd=fresh_dir, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

    monkeypatch.chdir(here_dir)
    capsys.readouterr()
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out
    assert (fresh_dir / "t.csv").read_bytes() == (here_dir / "t.csv").read_bytes()
