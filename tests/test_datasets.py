"""Dataset construction, splitting, and the line-per-example file format.

Tests verify:
- exhaustive line datasets carry the expected sizes and label mix, label
  one representative per start/target placement class, give every class
  member its outcome bit for bit, record the smaller path reading as
  provenance
- random datasets are deterministic under a seed, each example fixed by
  its own child seed
- an example and a walk outcome store two hit times and derive the label
  (`label_from_hit_times`, ties classical) and the indeterminate flag
  (neither crossed); an example takes no label or flag, and `load` refuses
  a record whose stored label or flag its hit times do not give; a
  dataset's labels, class fractions and `drop_indeterminate`, derived from
  its hit-time columns, match the values once stored, on line datasets
  n = 4..7
- split/merge arithmetic and disjointness
- indeterminate handling
- byte-exact serialization round-trips (plain and gzip), also over
  generated datasets (hypothesis); a `.gz` file holds exactly the plain
  file's bytes, and each line is the per-record `json.dumps` of its header
  or example; a save into a missing directory or onto a directory names
  the target path
- a dataset needs an example and a known split tag, and merge a dataset;
  an entry that is not an `Example` is refused by its index
- a dataset is its columns: loading, building, saving, reshaping,
  measuring and encoding it build no examples; `examples`, built on first
  read, is the same tuple every read; a loaded file saves to its own bytes,
  and a dataset made from examples saves to the bytes of the one they came
  from
- loader rejections name the offending line and reason: an empty or
  undecodable file, a broken header, an empty record or one that is not an
  object, a missing field, a bad `n` or bitstring, malformed hit times and
  labels, a provenance that is not an object, and a header metadata that
  is not an object (line 1); an absent header split or metadata takes the
  `Dataset` default, and an absent flag the one the hit times give
- `load` checks graphs in one stack per vertex count: a bad record in a
  later group fails with its own line number and the message `Graph`
  gives, for every graph rule, and when several records are bad the first
  in the file is named, whichever check (parse, graph, example) fails,
  also past the first block of stacked graphs
- `load` gives each field the Python object a constructor stores: a float
  or int hit time as the file holds it, and a fresh empty provenance dict
  for each record without one; the derived label is an int, the flag a bool
"""
from __future__ import annotations

import gzip
import hashlib
import itertools
import json
import math
import tempfile
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    CLASSICAL,
    QUANTUM,
    Dataset,
    DatasetFormatError,
    Example,
    Graph,
    WalkConfig,
    WalkOutcome,
    build_line_dataset,
    build_random_dataset,
    drop_indeterminate,
    label_from_hit_times,
    label_graph,
    line_graph,
    load,
    merge,
    random_graph,
    save,
    split,
)
from qwalk.graphs import _BLOCK_GRAPHS

LINES4 = build_line_dataset(4)
LINES5 = build_line_dataset(5)


def _tiny_dataset() -> Dataset:
    """Three labeled n=3 lines, for format and metric tests."""
    examples = []
    for lab in ([0, 1, 2], [0, 2, 1], [2, 0, 1]):
        g = line_graph(3, lab)
        out = label_graph(g)
        examples.append(
            Example(
                graph=g,
                classical_hit_time=out.classical_hit_time,
                quantum_hit_time=out.quantum_hit_time,
                provenance={"kind": "line", "labeling": lab},
            )
        )
    return Dataset(examples=tuple(examples), split_tag="unsplit", metadata={"kind": "line", "n": 3})


# ====== construction ======


def test_line_dataset_sizes():
    assert len(LINES4) == 12
    assert len(LINES5) == 60


def test_line_dataset_label_mix():
    """Golden label multisets: n=4 lines split 8 classical / 4 quantum."""
    labels = [e.label for e in LINES4]
    assert labels.count(CLASSICAL) == 8
    assert labels.count(QUANTUM) == 4
    assert LINES4.class_fractions == (8 / 12, 4 / 12)
    labels5 = [e.label for e in LINES5]
    assert labels5.count(QUANTUM) == 24  # fraction 0.40


def test_line_dataset_has_no_indeterminate_cases():
    assert not any(e.indeterminate for e in LINES4)
    assert not any(e.indeterminate for e in LINES5)


def test_line_dataset_bounds():
    with pytest.raises(ValueError):
        build_line_dataset(2)
    with pytest.raises(ValueError):
        build_line_dataset(11)


def test_line_dataset_rerun_is_identical():
    again = build_line_dataset(4)
    assert list(again.labels) == list(LINES4.labels)
    assert all(a == b for a, b in zip(again.examples, LINES4.examples))


def _path_reading(g: Graph) -> list[int]:
    """The lexicographically smaller of the two vertex sequences along a path."""
    ends = [v for v in range(g.n) if g.adjacency[v].sum() == 1]
    readings = []
    for start in ends:
        seq = [start]
        while len(seq) < g.n:
            seq.append(next(int(u) for u in np.nonzero(g.adjacency[seq[-1]])[0]
                            if len(seq) < 2 or u != seq[-2]))
        readings.append(seq)
    return min(readings)


def _line_class(reading: list[int]) -> tuple[int, int]:
    """Positions of start and target along the path, up to reversal."""
    n, i, j = len(reading), reading.index(0), reading.index(1)
    return min((i, j), (n - 1 - i, n - 1 - j))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_line_provenance_is_the_smaller_path_reading(n):
    d = build_line_dataset(n)
    labelings = [e.provenance["labeling"] for e in d]
    assert labelings == [_path_reading(e.graph) for e in d]
    assert labelings == sorted(labelings)
    assert all(e.provenance["kind"] == "line" for e in d)


@pytest.mark.parametrize("n", [6, 7])
def test_line_class_members_share_the_representative_outcome(n):
    """Records whose start and target sit at the same path positions (up to
    reversal) carry bit-identical hit times and label: those of the path
    with 0 at i, 1 at j and 2..n-1 in order on the other positions."""
    classes: dict = {}
    for e in build_line_dataset(n):
        classes.setdefault(_line_class(_path_reading(e.graph)), []).append(e)
    assert len(classes) == n * (n - 1) // 2
    for (i, j), members in classes.items():
        rest = iter(range(2, n))
        outcome = label_graph(line_graph(n, [0 if p == i else 1 if p == j else next(rest)
                                             for p in range(n)]))
        expected = (outcome.label, outcome.classical_hit_time, outcome.quantum_hit_time,
                    outcome.indeterminate)
        for e in members:
            assert (e.label, e.classical_hit_time, e.quantum_hit_time, e.indeterminate) == expected


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_line_dataset_labels_each_class_once(n, monkeypatch):
    calls = []

    def counting(g, *args, **kwargs):
        calls.append(g)
        return label_graph(g, *args, **kwargs)

    monkeypatch.setattr("qwalk.datasets.label_graph", counting)
    d = build_line_dataset(n)
    assert len(calls) == n * (n - 1) // 2
    assert len(d) == math.factorial(n) // 2


def test_random_dataset_determinism():
    d1 = build_random_dataset(5, 8, seed=99)
    d2 = build_random_dataset(5, 8, seed=99)
    assert len(d1) == 8
    assert all(a == b for a, b in zip(d1.examples, d2.examples))
    d3 = build_random_dataset(5, 8, seed=100)
    assert any(a != b for a, b in zip(d1.examples, d3.examples))


def test_random_dataset_child_seeds_alone_fix_the_content():
    """Each example is the graph its recorded child seed draws, labeled on
    its own: the seeds are drawn up front from the dataset seed, and no
    example depends on another."""
    d = build_random_dataset(5, 6, seed=7)
    seeds = np.random.default_rng(7).integers(2**63, size=6).tolist()
    assert [e.provenance for e in d] == [{"kind": "random", "seed": s} for s in seeds]
    for e, s in zip(d, seeds):
        graph = random_graph(5, s)
        outcome = label_graph(graph)
        alone = Example(graph, outcome.classical_hit_time, outcome.quantum_hit_time,
                        e.provenance)
        assert e == alone


def test_random_dataset_records_provenance():
    d = build_random_dataset(4, 3, seed=5)
    assert d.metadata["kind"] == "random"
    assert d.metadata["seed"] == 5
    for e in d.examples:
        assert "seed" in e.provenance


# Hit-time pairs (classical, quantum) and the label and flag they give:
# either order, a tie, a walker that never crosses on either side, neither.
_HIT_TIME_PAIRS = [
    ((5.0, 2.0), QUANTUM, False),
    ((2.0, 5.0), CLASSICAL, False),
    ((3.0, 3.0), CLASSICAL, False),
    ((0, 0.0), CLASSICAL, False),
    ((None, 2.0), QUANTUM, False),
    ((2.0, None), CLASSICAL, False),
    ((None, None), CLASSICAL, True),
]


@pytest.mark.parametrize("times, label, flag", _HIT_TIME_PAIRS)
def test_examples_and_outcomes_derive_label_and_flag_from_hit_times(times, label, flag):
    """An `Example` and a `WalkOutcome` store only the two hit times; their
    label is the one `label_from_hit_times` gives (a tie is classical) and
    they are indeterminate exactly when neither walker crossed."""
    g = line_graph(3, [0, 1, 2])
    example = Example(g, *times)
    outcome = WalkOutcome(*times, p_threshold=0.5, t_max=10.0)
    for derived in (example, outcome):
        assert derived.label == label_from_hit_times(*times) == label
        assert type(derived.label) is int
        assert derived.indeterminate is flag
        with pytest.raises(FrozenInstanceError):
            derived.label = 1 - label
    assert example == Example(g, *times) and "label" not in repr(example)


def test_example_rejects_inconsistent_label(tmp_path):
    """An example cannot hold a label or flag its hit times do not give: it
    takes neither, and `load` refuses a file record that states one."""
    g = line_graph(3, [0, 1, 2])
    for name, value in (("label", QUANTUM), ("indeterminate", True)):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            Example(graph=g, classical_hit_time=2.0, **{name: value})
    cases = [
        (dict(label=QUANTUM, t_classical=2.0, t_quantum=None),
         "label contradicts the stored hitting times"),
        (dict(label=CLASSICAL, t_classical=5.0, t_quantum=2.0),
         "label contradicts the stored hitting times"),
        # the indeterminate flag says both walkers timed out
        (dict(label=CLASSICAL, t_classical=2.0, t_quantum=None, indeterminate=True),
         "an indeterminate example cannot carry hitting times"),
        (dict(label=CLASSICAL, t_classical=None, t_quantum=None, indeterminate=False),
         "indeterminate is false, but neither hitting time is stored"),
    ]
    path = tmp_path / "d.jsonl"
    save(_tiny_dataset(), path)
    lines = path.read_text().splitlines()
    for changes, message in cases:
        _rewrite(path, list(lines), 2, **changes)
        with pytest.raises(DatasetFormatError) as info:
            load(path)
        assert str(info.value) == f"line 3: {message}"


def test_example_rejects_values_a_dataset_file_cannot_hold():
    """A numpy hit time is stored as the Python number it holds, so `save`
    can encode it; an indeterminate flag, bool or not, is not taken; a graph
    that is not a `Graph` is refused where it comes in."""
    g = line_graph(3, [0, 1, 2])
    for graph in ("not a graph", g.adjacency, None):
        with pytest.raises(TypeError, match="^graph must be a Graph, got "):
            Example(graph, 1.0)
    e = Example(graph=g, classical_hit_time=np.float32(2.0), quantum_hit_time=np.int64(3))
    assert type(e.classical_hit_time) is float and e.classical_hit_time == 2.0
    assert type(e.quantum_hit_time) is int and e.quantum_hit_time == 3
    assert type(e.label) is int and e.label == CLASSICAL
    for flag in ("false", 0, 1, np.bool_(True), None, False):
        with pytest.raises(TypeError):
            Example(graph=g, indeterminate=flag)
    e = Example(graph=g, classical_hit_time=np.float64(2.0))
    assert type(e.classical_hit_time) is float and e.classical_hit_time == 2.0


# (labels sha256 prefix, quantum count, count kept by drop_indeterminate,
# its labels' sha256 prefix) of each line dataset, as recorded when
# datasets stored the label and flag `label_graph` gave each example.
_LINE_LABELS = {
    (4, None): ("3b364a593ad47a94", 4, 12, "3b364a593ad47a94"),
    (5, None): ("fe1c9f3b78618e4f", 24, 60, "fe1c9f3b78618e4f"),
    (6, None): ("0311787bfe698fb5", 192, 360, "0311787bfe698fb5"),
    (7, None): ("5c1b75acf3be24b6", 1440, 2520, "5c1b75acf3be24b6"),
    (4, 6.0): ("5ab9b89bee9ed50c", 2, 8, "6b03a2a9c7d3ea34"),
    (5, 6.0): ("9e67878c481d5f42", 12, 42, "b72f9aea995d4ef8"),
    (6, 6.0): ("572c53f9bfaf8732", 72, 216, "8286b1dc35e2aa2a"),
    (7, 6.0): ("5dddb301ecd3ee1a", 240, 1200, "060386977c0e55d1"),
}


@pytest.mark.parametrize("n, cap", list(_LINE_LABELS), ids=lambda v: str(v))
def test_derived_labels_match_the_stored_ones(n, cap):
    """`labels`, `class_fractions` and `drop_indeterminate`, derived from the
    hit-time columns, give what the stored columns gave on every line
    dataset n = 4..7, at the default horizon and at a horizon of 6 that
    leaves walkers uncrossed."""
    labels_sha, quantum, kept_count, kept_sha = _LINE_LABELS[n, cap]
    d = build_line_dataset(n, WalkConfig(t_max_cap=cap))
    digest = lambda labels: hashlib.sha256(labels.tobytes()).hexdigest()[:16]
    assert d.labels.dtype == np.int64 and digest(d.labels) == labels_sha
    assert d.class_fractions == ((len(d) - quantum) / len(d), quantum / len(d))
    kept = drop_indeterminate(d)
    assert (len(kept), digest(kept.labels)) == (kept_count, kept_sha)
    assert [e.label for e in d] == d.labels.tolist()
    assert [e for e in d if not e.indeterminate] == list(kept)


# ====== split / merge ======


def test_split_rounds_half_up():
    tr, te = split(LINES4, 0.9, seed=0)
    assert (len(tr), len(te)) == (11, 1)
    ten = Dataset(examples=LINES4.examples[:10], split_tag="unsplit", metadata={})
    tr, te = split(ten, 0.9, seed=0)
    assert (len(tr), len(te)) == (9, 1)


def test_split_partitions_without_overlap():
    tr, te = split(LINES5, 0.8, seed=3)
    assert len(tr) + len(te) == len(LINES5)
    keys = lambda d: {e.graph.adjacency.tobytes() for e in d.examples}
    assert not keys(tr) & keys(te)
    assert keys(tr) | keys(te) == keys(LINES5)
    assert tr.split_tag == "train" and te.split_tag == "test"


def test_split_is_seeded():
    a = split(LINES5, 0.8, seed=1)[0]
    b = split(LINES5, 0.8, seed=1)[0]
    c = split(LINES5, 0.8, seed=2)[0]
    assert all(x == y for x, y in zip(a.examples, b.examples))
    assert any(x != y for x, y in zip(a.examples, c.examples))


def test_split_rejects_degenerate_fractions():
    with pytest.raises(ValueError):
        split(LINES4, 1.0, seed=0)
    with pytest.raises(ValueError):
        split(_tiny_dataset(), 0.999, seed=0)  # would leave the test side empty


def test_merge_concatenates():
    merged = merge([LINES4, LINES5])
    assert len(merged) == 72
    assert merged.max_n == 5
    labels = list(LINES4.labels) + list(LINES5.labels)
    assert list(merged.labels) == labels


def test_drop_indeterminate_filters_flagged_rows():
    g = line_graph(3, [0, 1, 2])
    flagged = Example(graph=g, classical_hit_time=None, quantum_hit_time=None)
    assert flagged.indeterminate
    d = Dataset(examples=tuple(LINES4.examples) + (flagged,), split_tag="unsplit", metadata={})
    kept = drop_indeterminate(d)
    assert len(kept) == len(LINES4)
    assert not any(e.indeterminate for e in kept.examples)


# ====== serialization ======


def test_save_load_roundtrip(tmp_path):
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    back = load(path)
    assert len(back) == len(d)
    assert back.split_tag == d.split_tag
    assert back.metadata == d.metadata
    for a, b in zip(d.examples, back.examples):
        assert a == b
        assert a.classical_hit_time == b.classical_hit_time  # bit-exact floats
        assert a.quantum_hit_time == b.quantum_hit_time


def test_save_into_a_missing_directory_names_the_target(tmp_path):
    path = tmp_path / "nodir" / "y.jsonl"
    with pytest.raises(FileNotFoundError) as info:
        save(_tiny_dataset(), path)
    assert str(info.value) == f"[Errno 2] No such file or directory: '{path}'"
    assert not (tmp_path / "nodir").exists()
    # a directory target fails at the rename, named as the target, not the temporary file
    (target := tmp_path / "somedir").mkdir()
    with pytest.raises(IsADirectoryError) as info:
        save(_tiny_dataset(), target)
    assert str(info.value) == f"[Errno 21] Is a directory: '{target}'"
    assert list(tmp_path.iterdir()) == [target] and not any(target.iterdir())


def test_save_load_roundtrip_with_numpy_integer_arguments(tmp_path):
    """numpy-integer sizes and seeds are stored as plain ints, so they save."""
    d = build_random_dataset(np.int64(5), np.int64(4), np.int64(3))
    assert d == build_random_dataset(5, 4, 3)
    lines = build_line_dataset(np.int64(4))
    parts = (d, lines, *split(d, 0.5, np.int64(1)))
    for k, part in enumerate(parts):
        path = tmp_path / f"d{k}.jsonl"
        save(part, path)
        back = load(path)
        assert back.metadata == part.metadata
        assert back.examples == part.examples


def test_save_load_roundtrip_with_numpy_float_config(tmp_path):
    """A numpy-float walk setting is stored as a Python float, so the
    dataset's metadata saves."""
    cfg = WalkConfig(t_max_cap=np.float32(50), gamma=np.float64(2))
    assert type(cfg.t_max_cap) is float and type(cfg.gamma) is float
    d = build_line_dataset(3, cfg)
    assert d.metadata["config"] == {"gamma": 2.0, "p_threshold_override": None, "t_max_cap": 50.0}
    path = tmp_path / "d.jsonl"
    save(d, path)
    assert load(path).metadata == d.metadata


def test_save_load_roundtrip_gzip(tmp_path):
    d = LINES4
    path = tmp_path / "d.jsonl.gz"
    save(d, path)
    back = load(path)
    assert all(a == b for a, b in zip(d.examples, back.examples))


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6),
)
_JSON_DICTS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(_JSON_LEAVES, st.lists(_JSON_LEAVES, max_size=3)),
    max_size=3,
)
_HIT_TIMES = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6))


@st.composite
def _examples(draw) -> Example:
    """A connected graph (random spanning tree plus extra edges), distinct
    endpoints, two hit times, each None or a number, and JSON provenance."""
    n = draw(st.integers(3, 8))
    a = np.zeros((n, n), dtype=np.int64)
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        a[u, v] = a[v, u] = 1
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                a[i, j] = a[j, i] = 1
    v_init = draw(st.integers(0, n - 1))
    v_target = draw(st.integers(0, n - 1).filter(lambda v: v != v_init))
    return Example(
        graph=Graph(a, v_init, v_target),
        classical_hit_time=draw(_HIT_TIMES),
        quantum_hit_time=draw(_HIT_TIMES),
        provenance=draw(_JSON_DICTS),
    )


@settings(max_examples=60, deadline=None)
@given(
    examples=st.lists(_examples(), min_size=1, max_size=5),
    split_tag=st.sampled_from(["train", "test", "unsplit"]),
    metadata=_JSON_DICTS,
    suffix=st.sampled_from([".jsonl", ".jsonl.gz"]),
)
def test_save_load_roundtrip_keeps_every_field(examples, split_tag, metadata, suffix):
    d = Dataset(examples=tuple(examples), split_tag=split_tag, metadata=metadata)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"d{suffix}"
        save(d, path)
        back = load(path)
    assert back.split_tag == split_tag
    assert back.metadata == metadata
    assert len(back) == len(d)
    for a, b in zip(d.examples, back.examples):
        assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
        assert (a.graph.v_init, a.graph.v_target) == (b.graph.v_init, b.graph.v_target)
        assert a.label == b.label
        assert a.indeterminate == b.indeterminate
        assert a.provenance == b.provenance
        for t_a, t_b in ((a.classical_hit_time, b.classical_hit_time),
                         (a.quantum_hit_time, b.quantum_hit_time)):
            assert (t_a is None) == (t_b is None)
            if t_a is not None:
                assert np.float64(t_a).tobytes() == np.float64(t_b).tobytes()


def test_save_is_byte_deterministic(tmp_path):
    """Same dataset, same bytes — including through gzip."""
    d = _tiny_dataset()
    p1, p2 = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
    save(d, p1)
    save(d, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _dumps(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_save_writes_each_line_as_json_dumps_would(tmp_path):
    """Every line `save` writes equals a per-record `json.dumps` with sorted
    keys and compact separators: on a line set, a random set and a merged
    set with int, float and absent hit times and non-ASCII provenance."""
    odd = Dataset((
        Example(line_graph(3, [0, 1, 2]), 3, None,
                provenance={"note": "Größe ψ → ✓", "values": [1, 2.5, None, True]}),
        Example(line_graph(4, [0, 2, 3, 1]), 9.25, 7),
        Example(line_graph(3, [2, 0, 1]), None, None,
                provenance={"kind": "hand", "ключ": "значение"}),
    ), "test", {"source": "hand-made, naïve"})
    random_set = build_random_dataset(6, 5, 2)
    for d in (LINES4, random_set, merge([LINES4, random_set, odd])):
        path = tmp_path / "d.jsonl"
        save(d, path)
        header = {"format": "qwalk-dataset", "version": 1, "split": d.split_tag,
                  "count": len(d), "metadata": d.metadata}
        records = [
            {
                "n": e.graph.n,
                "adjacency": "".join(str(int(x)) for x in e.graph.adjacency.reshape(-1)),
                "v_init": e.graph.v_init,
                "v_target": e.graph.v_target,
                "label": e.label,
                "t_classical": e.classical_hit_time,
                "t_quantum": e.quantum_hit_time,
                "indeterminate": e.indeterminate,
                "provenance": e.provenance,
            }
            for e in d
        ]
        want = "".join(_dumps(r) + "\n" for r in [header] + records)
        assert path.read_bytes() == want.encode("utf-8")


def test_gzip_save_compresses_the_plain_bytes(tmp_path):
    plain, packed = tmp_path / "d.jsonl", tmp_path / "d.jsonl.gz"
    save(LINES5, plain)
    save(LINES5, packed)
    assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()


def test_loaded_class_fractions_match_recomputation(tmp_path):
    path = tmp_path / "d.jsonl"
    save(LINES4, path)
    back = load(path)
    classical = sum(1 for e in back.examples if e.label == CLASSICAL)
    quantum = len(back) - classical
    assert back.class_fractions == (classical / len(back), quantum / len(back))
    assert back.class_fractions == LINES4.class_fractions


def test_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"something":"else"}\n')
    with pytest.raises(DatasetFormatError):
        load(path)


def _edit_header(path, **changes) -> None:
    """Rewrite the saved file's header line: set each given key, or delete
    it when its value is None."""
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    for key, value in changes.items():
        if value is None:
            del header[key]
        else:
            header[key] = value
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")


def test_load_rejects_wrong_version(tmp_path):
    """The version must be the integer 1: a JSON `true` or `1.0` is refused
    by the one integer rule, though Python finds it equal to 1."""
    path = tmp_path / "d.jsonl"
    for version in (99, True, 1.0, "1"):
        save(_tiny_dataset(), path)
        _edit_header(path, version=version)
        with pytest.raises(DatasetFormatError) as info:
            load(path)
        assert str(info.value) == f"line 1: unsupported version {version!r}"


@pytest.mark.parametrize("metadata", [5, [1], "x"], ids=["number", "list", "string"])
def test_load_rejects_metadata_that_is_not_an_object(tmp_path, metadata):
    """The header's metadata must be a JSON object, as a Dataset's must be a
    dict; anything else is refused on line 1."""
    with pytest.raises(TypeError, match="metadata must be a dict"):
        Dataset(_tiny_dataset().examples, metadata=metadata)
    path = tmp_path / "d.jsonl"
    save(_tiny_dataset(), path)
    _edit_header(path, metadata=metadata)
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == f"line 1: metadata must be a dict, got {metadata!r}"


@pytest.mark.parametrize("provenance", [5, [1, 2], "x", None],
                         ids=["number", "list", "string", "null"])
def test_load_rejects_provenance_that_is_not_an_object(tmp_path, provenance):
    """A record's provenance must be a JSON object, as an Example's must be
    a dict; anything else is refused on its line."""
    g = line_graph(3, [0, 1, 2])
    with pytest.raises(TypeError, match="provenance must be a dict"):
        Example(g, provenance=provenance)
    path = tmp_path / "d.jsonl"
    save(_tiny_dataset(), path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["provenance"] = provenance
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == f"line 3: provenance must be a dict, got {provenance!r}"


def test_load_gives_absent_header_fields_the_dataset_defaults(tmp_path):
    path = tmp_path / "d.jsonl"
    save(Dataset(_tiny_dataset().examples, "train", {"kind": "hand"}), path)
    _edit_header(path, split=None, metadata=None)
    back = load(path)
    default = Dataset(_tiny_dataset().examples)
    assert (back.split_tag, back.metadata) == (default.split_tag, default.metadata)
    assert (back.split_tag, back.metadata) == ("unsplit", {})


def test_load_rejects_count_mismatch(tmp_path):
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the last example
    with pytest.raises(DatasetFormatError):
        load(path)

    # the count is read by the one integer rule: `3.0` does not promise
    # three records, and `true` does not promise one
    one = Dataset(d.examples[:1])
    for data, count in ((d, 3.0), (d, "3"), (one, True)):
        save(data, path)
        _edit_header(path, count=count)
        with pytest.raises(DatasetFormatError) as info:
            load(path)
        assert str(info.value) == f"header promises {count} examples, file has {len(data)}"


def test_load_names_the_bad_line(tmp_path):
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record["label"] = 7
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert "line 3" in str(info.value), f"message was: {info.value}"


@pytest.mark.parametrize(
    "row, key, value",
    [
        (1, "t_classical", math.nan),
        (1, "t_classical", -4.0),
        (1, "t_classical", True),
        (1, "t_quantum", math.inf),
        (2, "label", True),
        (2, "label", 1.0),
        (1, "indeterminate", "false"),
        (3, "indeterminate", 0),
        (3, "indeterminate", None),
        (1, "provenance", [1, 2]),
        (3, "provenance", "x"),
    ],
    ids=["t-nan", "t-negative", "t-bool", "t-infinite", "label-bool", "label-float",
         "indeterminate-string", "indeterminate-int", "indeterminate-null",
         "provenance-list", "provenance-string"],
)
def test_load_rejects_malformed_hit_time_or_label(tmp_path, row, key, value):
    """Hit times must be None or finite, non-negative, non-bool numbers, the
    label a non-bool integer, and the indeterminate flag a bool; each bad
    value alone keeps the record's label consistent with its hit times, so
    only this check catches it."""
    d = _tiny_dataset()
    assert d.examples[row - 1].label == (CLASSICAL if key != "label" else QUANTUM)
    path = tmp_path / "d.jsonl"
    save(d, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[row])
    record[key] = value
    lines[row] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert f"line {row + 1}" in str(info.value), f"message was: {info.value}"


@pytest.mark.parametrize("value", ["false", "true", 0, 1])
def test_load_never_reads_a_non_boolean_indeterminate_flag(tmp_path, value):
    """A flag that is not a JSON boolean would be read one way or the other
    without notice, so it is rejected; an absent flag reads as the one the
    hit times give, on a record whose walkers both timed out and on one
    with a hit time."""
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    assert record["label"] == CLASSICAL and record["t_quantum"] is None
    del record["indeterminate"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert load(path).examples[0].indeterminate is False
    record["t_classical"] = None
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    assert load(path).examples[0].indeterminate is True
    record["indeterminate"] = value
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert "line 2" in str(info.value) and "indeterminate" in str(info.value)


def test_load_rejects_broken_json(tmp_path):
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    text = path.read_text().splitlines()
    text[1] = text[1][:-5]
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert "line 2" in str(info.value)


def test_load_rejects_corrupt_adjacency(tmp_path):
    d = _tiny_dataset()
    path = tmp_path / "d.jsonl"
    save(d, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["adjacency"] = "000000000"  # disconnected: all-zero matrix
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError):
        load(path)


def _joined(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _first_record(**changes):
    """The tiny dataset's file with each given key of its first record set,
    or removed when the value is ...; for the refusal table below."""
    def build(lines):
        record = json.loads(lines[1])
        for key, value in changes.items():
            if value is ...:
                del record[key]
            else:
                record[key] = value
        return _joined([lines[0], json.dumps(record), *lines[2:]])
    return build


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda lines: b"", "line 1: empty file", id="empty-file"),
        pytest.param(lambda lines: b"\xff" + _joined(lines),
                     "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
                     "invalid start byte", id="not-utf8"),
        pytest.param(lambda lines: _joined(['{"format": "qwalk-dataset",', *lines[1:]]),
                     "line 1: invalid JSON: Expecting property name enclosed in double "
                     "quotes: line 1 column 28 (char 27)", id="broken-header"),
        pytest.param(lambda lines: _joined(["[1, 2]", *lines[1:]]),
                     "line 1: missing dataset header", id="header-not-an-object"),
        pytest.param(lambda lines: _joined([lines[0], "", *lines[1:]]),
                     "line 2: empty record", id="empty-record"),
        pytest.param(lambda lines: _joined([lines[0], "[1, 2]", *lines[1:]]),
                     "line 2: record must be a JSON object", id="record-not-an-object"),
        pytest.param(_first_record(label=...), "line 2: missing field 'label'",
                     id="missing-field"),
        pytest.param(_first_record(n=2), "line 2: n must be >= 3, got 2", id="n-too-small"),
        pytest.param(_first_record(n="3"), "line 2: n must be an integer, got '3'",
                     id="n-string"),
        pytest.param(_first_record(adjacency="0110"),
                     "line 2: adjacency must be a bitstring of length n*n",
                     id="adjacency-short"),
        pytest.param(_first_record(adjacency="01101011é"),
                     "line 2: adjacency must be a bitstring of length n*n",
                     id="adjacency-not-ascii"),
    ],
)
def test_load_refusals_give_their_line_and_reason(tmp_path, build, message):
    """Each way a file can fail to parse is refused with a DatasetFormatError
    naming its line (the decoding errors name none) and the reason."""
    path = tmp_path / "d.jsonl"
    save(_tiny_dataset(), path)
    path.write_bytes(build(path.read_text().splitlines()))
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == message


def test_datasets_refuse_entries_that_are_not_examples():
    cases = (((1, 2, 3), 0, "1"), ((LINES4.examples[0], "x"), 1, "'x'"))
    for examples, index, entry in cases:
        with pytest.raises(TypeError, match=f"^example {index} must be an Example, got {entry}$"):
            Dataset(examples)


def test_datasets_refuse_no_examples_and_unknown_split_tags():
    with pytest.raises(ValueError, match="^a dataset must contain at least one example$"):
        Dataset(())
    with pytest.raises(ValueError, match="^split_tag must be one of .*, got 'dev'$"):
        Dataset(_tiny_dataset().examples, "dev")
    with pytest.raises(ValueError, match="^merge needs at least one dataset$"):
        merge([])


def test_load_rejects_non_gzip_bytes(tmp_path):
    path = tmp_path / "d.jsonl.gz"
    path.write_bytes(b"plainly not gzip")
    with pytest.raises(DatasetFormatError):
        load(path)


# ====== stacked loading ======


def _mixed_file(tmp_path) -> tuple[Path, list[str]]:
    """A saved dataset of line graphs at n = 4, 3 and 5, interleaved so that
    no vertex count sits in one run; its first record (line 2) is n=4."""
    parts = [LINES4.examples[:4], _tiny_dataset().examples, LINES5.examples[:4]]
    examples = [e for row in itertools.zip_longest(*parts) for e in row if e is not None]
    path = tmp_path / "mixed.jsonl"
    save(Dataset(tuple(examples), "unsplit", {}), path)
    return path, path.read_text().splitlines()


def _rewrite(path: Path, lines: list[str], row: int, **changes) -> None:
    record = json.loads(lines[row])
    record.update(changes)
    lines[row] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")


def _corrupted(record: dict, how: str) -> tuple[np.ndarray, object, object]:
    """Adjacency and endpoints of `record` broken in one way."""
    n = record["n"]
    a = np.array([int(c) for c in record["adjacency"]]).reshape(n, n)
    v_init, v_target = record["v_init"], record["v_target"]
    if how == "non-binary":
        a[0, 2] = a[2, 0] = 2
    elif how == "asymmetric":
        i, j = np.argwhere((a == 0) & ~np.eye(n, dtype=bool))[0]
        a[i, j] = 1
    elif how == "self-loop":
        a[2, 2] = 1
    elif how == "disconnected":
        i, j = np.argwhere(a == 1)[0]
        a[i, j] = a[j, i] = 0
    elif how == "same-endpoints":
        v_target = v_init
    elif how == "endpoint-out-of-range":
        v_target = n
    elif how == "endpoint-bool":
        v_target = True
    return a, v_init, v_target


@pytest.mark.parametrize(
    "how, message",
    [
        ("non-binary", "adjacency entries must be 0 or 1"),
        ("asymmetric", "adjacency must be symmetric"),
        ("self-loop", "adjacency diagonal must be zero"),
        ("disconnected", "graph must be connected"),
        ("same-endpoints", "v_init and v_target must differ"),
        ("endpoint-out-of-range", "v_target=5 is not a vertex index in [0, 5)"),
        ("endpoint-bool", "v_target=True is not a vertex index in [0, 5)"),
    ],
)
def test_load_checks_every_graph_rule_in_a_later_group(tmp_path, how, message):
    path, lines = _mixed_file(tmp_path)
    row = 6  # line 7, the second n=5 record
    record = json.loads(lines[row])
    assert record["n"] == 5 and json.loads(lines[1])["n"] == 4
    a, v_init, v_target = _corrupted(record, how)
    with pytest.raises(ValueError) as graph_error:
        Graph(a, v_init, v_target)
    assert str(graph_error.value) == message
    bits = "".join(str(v) for v in a.reshape(-1))
    _rewrite(path, lines, row, adjacency=bits, v_init=v_init, v_target=v_target)
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == f"line 7: {message}"


def test_load_names_the_first_bad_graph_across_groups(tmp_path):
    path, lines = _mixed_file(tmp_path)
    _rewrite(path, lines, 10, v_target=0)  # line 11, n=4: same endpoints
    _rewrite(path, lines, 8, adjacency="000000000")  # line 9, n=3: disconnected
    _rewrite(path, lines, 6, v_target=5)  # line 7, n=5: out of range
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == "line 7: v_target=5 is not a vertex index in [0, 5)"


def test_load_names_an_example_fault_before_a_graph_fault(tmp_path):
    path, lines = _mixed_file(tmp_path)
    _rewrite(path, lines, 6, v_target=0)  # line 7: graph fault
    _rewrite(path, lines, 4, label=7)  # line 5: example fault
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == "line 5: label must lie in [0, 1], got 7"


def test_load_names_a_graph_fault_before_a_parse_fault(tmp_path):
    path, lines = _mixed_file(tmp_path)
    _rewrite(path, lines, 3, v_target=0)  # line 4, n=5: graph fault
    lines[8] = lines[8][:-5]  # line 9: broken JSON
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == "line 4: v_init and v_target must differ"
    _rewrite(path, lines, 3, v_target=1)
    lines[2] = lines[2][:-5]  # line 3: broken JSON, now ahead of the graph fault
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value).startswith("line 3: invalid JSON")


_LINES6 = build_line_dataset(6)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({300: {"label": 7}, 340: {"v_target": 0}}, "line 301: label must lie in [0, 1], got 7"),
        ({280: {"v_target": 0}, 300: {"label": 7}}, "line 281: v_init and v_target must differ"),
    ],
    ids=["example-then-graph", "graph-then-example"],
)
@pytest.mark.parametrize("broken_json_after", [False, True], ids=["", "parse-fault-behind"])
def test_load_names_the_first_fault_past_one_block(tmp_path, faults, message, broken_json_after):
    """The faults sit in the second block of stacked graphs of one vertex
    count; a parse fault behind them does not hide them."""
    assert len(_LINES6) == 360 > _BLOCK_GRAPHS
    path = tmp_path / "l6.jsonl"
    save(_LINES6, path)
    lines = path.read_text().splitlines()
    for row, changes in faults.items():
        assert row > _BLOCK_GRAPHS
        _rewrite(path, lines, row, **changes)
    if broken_json_after:
        lines[350] = lines[350][:-5]  # line 351
        path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value) == message


def test_load_names_a_parse_fault_past_one_block(tmp_path):
    path = tmp_path / "l6.jsonl"
    save(_LINES6, path)
    lines = path.read_text().splitlines()
    lines[350] = lines[350][:-5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetFormatError) as info:
        load(path)
    assert str(info.value).startswith("line 351: invalid JSON: ")


def test_load_gives_the_objects_a_constructor_stores(tmp_path):
    """A loaded field has the type `Example` stores: a hit time a float, or
    an int where the file holds one, or None; the derived label is an int
    and the flag a bool; and each record without a provenance gets an empty
    dict of its own."""
    path = tmp_path / "d.jsonl"
    save(_tiny_dataset(), path)
    lines = path.read_text().splitlines()
    first = json.loads(lines[1])
    assert first["label"] == CLASSICAL and first["t_quantum"] is None
    _rewrite(path, lines, 1, t_classical=3)
    for row in (2, 3):
        record = json.loads(lines[row])
        del record["provenance"]
        lines[row] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    loaded = load(path).examples
    for e in loaded:
        fields = (e.classical_hit_time, e.quantum_hit_time)
        built = Example(e.graph, *fields)
        assert [type(v) for v in fields] == [
            type(getattr(built, name)) for name in ("classical_hit_time", "quantum_hit_time")
        ]
        assert type(e.label) is int and type(e.indeterminate) is bool
        for t in (e.classical_hit_time, e.quantum_hit_time):
            assert t is None or type(t) is float or t == 3
    assert type(loaded[0].classical_hit_time) is int and loaded[0].classical_hit_time == 3
    assert loaded[1].provenance == {} and loaded[2].provenance == {}
    loaded[1].provenance["note"] = "mine"
    assert loaded[2].provenance == {}


# ====== columns ======


def _unbuilt(d: Dataset) -> bool:
    return "examples" not in vars(d)


def test_datasets_build_no_examples_until_read(tmp_path):
    """Building, loading, saving, reshaping, measuring and encoding a
    dataset leave its examples unbuilt; read twice, they are one tuple."""
    from qwalk import evaluate, new_model

    built = build_line_dataset(5)
    path = tmp_path / "l5.jsonl.gz"
    save(built, path)
    loaded = load(path)
    parts = [*split(loaded, 0.5, 1), merge([loaded, built]), drop_indeterminate(loaded)]
    for d in (built, loaded, *parts):
        len(d), d.labels, d.class_fractions, d.max_n
        save(d, tmp_path / "again.jsonl")
        for variant in ("simple", "full"):
            evaluate(new_model(variant, d.max_n, seed=0), d)
        assert _unbuilt(d)
    examples = loaded.examples
    assert loaded.examples is examples and len(examples) == 60
    assert all(type(e) is Example for e in examples)


@pytest.mark.parametrize(
    "name", ["l4.jsonl.gz", "l5.jsonl", "l6.jsonl.gz", "l7.jsonl.gz", "r8.jsonl"]
)
def test_loaded_files_save_to_their_own_bytes(tmp_path, name):
    """`save(load(f))` writes f's bytes, and a dataset made from another's
    examples, split tag and metadata saves to the same bytes."""
    d = build_random_dataset(8, 20, 3) if name[0] == "r" else build_line_dataset(int(name[1]))
    first, again, copied = (tmp_path / f"{k}{name}" for k in ("first", "again", "copied"))
    save(d, first)
    save(load(first), again)
    assert again.read_bytes() == first.read_bytes()
    save(Dataset(d.examples, d.split_tag, d.metadata), copied)
    assert copied.read_bytes() == first.read_bytes()


def test_a_dataset_keeps_the_examples_it_is_given():
    examples = LINES4.examples[:5]
    d = Dataset(examples, "test", {"note": 1})
    assert d.examples is examples
    assert d == Dataset(list(examples), "test", {"note": 1})
    assert len(d) == 5 and list(d.labels) == [e.label for e in examples]
