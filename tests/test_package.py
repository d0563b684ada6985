"""Package surface.

Tests verify:
- the top-level export list is exactly the union of the five submodules'
  export lists, and every exported name resolves
- every scalar argument the library takes is checked by one integer rule
  or one real-number rule: a bool, a fraction where an integer belongs, a
  NaN, a value below the bound are refused, and a numpy scalar is stored as
  the Python number it holds; a dataset file's label, which `load` reads,
  is refused by the same integer rule, with its message
"""
from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import qwalk
from qwalk import (
    CqcnnModel,
    DatasetFormatError,
    Example,
    Schedule,
    WalkConfig,
    build_line_dataset,
    build_random_dataset,
    feature_slot,
    line_graph,
    load,
    new_model,
    quantum_variant,
    random_graph,
    save,
    split,
)
from qwalk import cqcnn, datasets, evaluation, graphs, walkers

SUBMODULES = (graphs, walkers, datasets, cqcnn, evaluation)


def test_top_level_exports_match_the_submodules():
    top = set(qwalk.__all__) - {"__version__"}
    union = set().union(*(m.__all__ for m in SUBMODULES))
    assert top == union, f"only top level: {top - union}; only submodules: {union - top}"
    assert len(qwalk.__all__) == len(set(qwalk.__all__)), "duplicate export"
    for m in SUBMODULES:
        for name in m.__all__:
            assert getattr(qwalk, name) is getattr(m, name), f"{m.__name__}.{name}"
    assert isinstance(qwalk.__version__, str)


# ====== scalar rules ======

T, V = TypeError, ValueError
G = line_graph(3, [0, 2, 1])
LINES3 = build_line_dataset(3)
WEIGHTS = new_model("simple", 3, 0).weights
INTEGER = [T, T, T, V, T]  # an integer >= 0 refuses the first five probes

def _file_label(value):
    """The first example's label as `load` reads it from LINES3's file with
    that record's label set to `value`, a numpy scalar written as the
    number it holds."""
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "d.jsonl"
        save(LINES3, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        assert record["label"] == 0
        record["label"] = value
        lines[1] = json.dumps(record, default=lambda v: v.item())
        path.write_text("\n".join(lines) + "\n")
        return load(path).examples[0].label


# (entry point, call storing the value and returning what it stored, the
# numpy-integer probe, and the outcome of each probe: True, 1.5, NaN, -1,
# numpy float32 0.5, the numpy integer). An outcome is the exception the
# value raises or the Python number stored.
SCALAR_RULES = [
    ("WalkConfig gamma", lambda v: WalkConfig(gamma=v).gamma, 2, [T, 1.5, V, V, 0.5, 2]),
    ("WalkConfig t_max_cap", lambda v: WalkConfig(t_max_cap=v).t_max_cap,
     2, [T, 1.5, V, V, 0.5, 2]),
    ("WalkConfig p_threshold_override",
     lambda v: WalkConfig(p_threshold_override=v).p_threshold_override, 1, [T, V, V, V, 0.5, V]),
    ("quantum_variant gamma", lambda v: -2 * quantum_variant(G, v)[1, 1].imag.item(),
     2, [T, 1.5, V, V, 0.5, 2.0]),
    *((f"Schedule {name}", lambda v, name=name: getattr(Schedule(**{name: v}), name),
       2, INTEGER + [2])
      for name in ("epochs", "batches_per_epoch", "batch_size", "seed", "eval_every")),
    ("new_model n_max", lambda v: new_model("simple", v, 0).n_max, 4, INTEGER + [4]),
    ("new_model simple hidden_width", lambda v: new_model("simple", 3, 0, hidden_width=v)
     .hidden_width, 2, INTEGER + [2]),
    ("new_model full hidden_width", lambda v: new_model("full", 3, 0, hidden_width=v)
     .hidden_width, 2, INTEGER + [2]),
    ("new_model learning_rate", lambda v: new_model("simple", 3, 0, learning_rate=v)
     .learning_rate, 2, [T, 1.5, V, V, 0.5, 2]),
    ("new_model seed", lambda v: new_model("simple", 3, v).seed, 2, INTEGER + [2]),
    ("CqcnnModel learning_rate", lambda v: CqcnnModel("simple", 3, WEIGHTS, learning_rate=v)
     .learning_rate, 2, [T, 1.5, V, V, 0.5, 2]),
    ("CqcnnModel seed", lambda v: CqcnnModel("simple", 3, WEIGHTS, seed=v).seed,
     2, INTEGER + [2]),
    # an example's label comes in only from a dataset file, and `load`
    # refuses a bad one with a DatasetFormatError, a ValueError
    ("Example label", lambda v: _file_label(v), 0, [V, V, V, V, V, 0]),
    ("Example classical_hit_time", lambda v: Example(G, v).classical_hit_time,
     2, [T, 1.5, V, V, 0.5, 2]),
    ("Example quantum_hit_time", lambda v: Example(G, None, v).quantum_hit_time,
     2, [T, 1.5, V, V, 0.5, 2]),
    ("split train_fraction", lambda v: split(LINES3, v, 0)[0].metadata["train_fraction"],
     1, [T, V, V, V, 0.5, V]),
    ("split seed", lambda v: split(LINES3, 0.5, v)[0].metadata["split_seed"],
     2, INTEGER + [2]),
    ("build_line_dataset n", lambda v: build_line_dataset(v).metadata["n"], 3, INTEGER + [3]),
    # the line graphs on n vertices, which `build_line_dataset` enumerates
    ("enumerate_line_graphs n", lambda v: len(build_line_dataset(v)), 3, INTEGER + [3]),
    ("build_random_dataset n", lambda v: build_random_dataset(v, 2, 0).metadata["n"],
     3, INTEGER + [3]),
    ("build_random_dataset count", lambda v: build_random_dataset(3, v, 0).metadata["count"],
     2, INTEGER + [2]),
    ("build_random_dataset seed", lambda v: build_random_dataset(3, 2, v).metadata["seed"],
     2, INTEGER + [2]),
    ("feature_slot vertex", lambda v: feature_slot(v, 1), 2, INTEGER + [9]),
    ("feature_slot feature", lambda v: feature_slot(0, v), 2, INTEGER + [2]),
    ("random_graph seed", lambda v: int(random_graph(5, v).adjacency.sum()) // 2,
     2, INTEGER + [int(random_graph(5, 2).adjacency.sum()) // 2]),
]


def _probes(numpy_integer):
    return (True, 1.5, math.nan, -1, np.float32(0.5), np.int64(numpy_integer))


@pytest.mark.parametrize(
    "call, value, outcome",
    [
        pytest.param(call, value, outcome, id=f"{name}-{type(value).__name__}-{value}")
        for name, call, numpy_integer, outcomes in SCALAR_RULES
        for value, outcome in zip(_probes(numpy_integer), outcomes, strict=True)
    ],
)
def test_scalar_rules(call, value, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            call(value)
    else:
        stored = call(value)
        assert stored == outcome and type(stored) is type(outcome)


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "label must be an integer, got True"),
        (1.5, "label must be an integer, got 1.5"),
        (math.nan, "label must be an integer, got nan"),
        (-1, "label must lie in [0, 1], got -1"),
        (2, "label must lie in [0, 1], got 2"),
    ],
    ids=["bool", "fraction", "nan", "below", "above"],
)
def test_file_labels_keep_the_integer_rule(value, message):
    """A label comes in only from a dataset file, and `load` checks it by
    the one integer rule: a bool, a fraction, a NaN or a value outside
    [0, 1] is refused on its line with the message that rule gives."""
    with pytest.raises(DatasetFormatError) as info:
        _file_label(value)
    assert str(info.value) == f"line 2: {message}"
