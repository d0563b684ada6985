"""Labeled graph datasets: generation, splitting, and serialization.

A dataset is an ordered collection of labeled examples plus a split tag.
The on-disk format is one self-describing JSON record per line (gzip when
the path ends in .gz): a header line with format name, version, split tag,
and metadata, then one line per example carrying the packed adjacency
bitstring, endpoint indices, label, hitting times, and provenance.
An absent optional key takes the default of its `Example` or `Dataset`
field; the header's metadata must be a JSON object.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from ._io import compact_json, write_atomic
from .graphs import (
    Graph,
    _first_fault,
    _integer,
    _line_labelings,
    _path_graphs,
    _real,
    _unchecked_stack,
    random_graph,
)
from .walkers import CLASSICAL, QUANTUM, WalkConfig, WalkOutcome, label_from_hit_times, label_graph

__all__ = [
    "Example",
    "Dataset",
    "DatasetFormatError",
    "build_line_dataset",
    "build_random_dataset",
    "split",
    "merge",
    "drop_indeterminate",
    "save",
    "load",
]

_FORMAT = "qwalk-dataset"
_VERSION = 1
_SPLIT_TAGS = ("train", "test", "unsplit")
# zlib level 6 compresses an n=7 line dataset about 6x faster than level 9,
# into a file about 6% larger.
_GZIP_LEVEL = 6
# Record key of each `Example` field a dataset line carries besides its
# graph. `save` writes every one; `load` passes on the keys a record has,
# so an absent optional key takes the field's default in `Example`.
_EXAMPLE_KEYS = (
    ("label", "label"),
    ("t_classical", "classical_hit_time"),
    ("t_quantum", "quantum_hit_time"),
    ("indeterminate", "indeterminate"),
    ("provenance", "provenance"),
)
# Header key of each `Dataset` field the header line carries, used the same way.
_HEADER_KEYS = (("split", "split_tag"), ("metadata", "metadata"))


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or violated a record invariant."""


@dataclass(frozen=True)
class Example:
    """One labeled graph together with the hitting times behind the label."""

    graph: Graph
    label: int
    classical_hit_time: float | None = None
    quantum_hit_time: float | None = None
    indeterminate: bool = False
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # store a checked value only when it was converted: `load` makes an Example per record
        label = _integer("label", self.label, CLASSICAL, QUANTUM)
        if label is not self.label:
            object.__setattr__(self, "label", label)
        for name in ("classical_hit_time", "quantum_hit_time"):
            t = getattr(self, name)
            if t is not None and (checked := _real(name, t, 0)) is not t:
                object.__setattr__(self, name, checked)
        if self.label != label_from_hit_times(self.classical_hit_time, self.quantum_hit_time):
            raise ValueError("label contradicts the stored hitting times")
        if not isinstance(self.indeterminate, bool):
            raise ValueError(f"indeterminate must be true or false, got {self.indeterminate!r}")
        if self.indeterminate and not (
            self.classical_hit_time is None and self.quantum_hit_time is None
        ):
            raise ValueError("an indeterminate example cannot carry hitting times")
        if not isinstance(self.provenance, dict):
            raise TypeError(f"provenance must be a dict, got {self.provenance!r}")


@dataclass(frozen=True)
class Dataset:
    examples: tuple[Example, ...]
    split_tag: str = "unsplit"
    metadata: dict = field(default_factory=dict)
    # (key, rows) of the last `_rows_for` call: one copy of rows at most.
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))
        if not self.examples:
            raise ValueError("a dataset must contain at least one example")
        if self.split_tag not in _SPLIT_TAGS:
            raise ValueError(f"split_tag must be one of {_SPLIT_TAGS}, got {self.split_tag!r}")
        if not isinstance(self.metadata, dict):
            raise TypeError(f"metadata must be a dict, got {self.metadata!r}")

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    @property
    def class_fractions(self) -> tuple[float, float]:
        """Empirical (classical, quantum) fractions of the examples."""
        quantum = sum(1 for e in self.examples if e.label == QUANTUM)
        total = len(self.examples)
        return ((total - quantum) / total, quantum / total)

    @property
    def max_n(self) -> int:
        return max(e.graph.n for e in self.examples)

    @property
    def labels(self) -> np.ndarray:
        return np.array([e.label for e in self.examples], dtype=np.int64)

    def _rows_for(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The rows `build` makes from these examples, kept read-only and
        returned again while later calls pass an equal key. Only the last
        key's rows are kept; a call with another key replaces them."""
        if self._kept is None or self._kept[0] != key:
            rows = build()
            rows.setflags(write=False)
            object.__setattr__(self, "_kept", (key, rows))
        return self._kept[1]


# ====== generation ======


def _example(graph: Graph, outcome: WalkOutcome, provenance: dict) -> Example:
    return Example(
        graph=graph,
        label=outcome.label,
        classical_hit_time=outcome.classical_hit_time,
        quantum_hit_time=outcome.quantum_hit_time,
        indeterminate=outcome.indeterminate,
        provenance=provenance,
    )


def _random_example(seed: int, n: int, cfg: WalkConfig) -> Example:
    graph = random_graph(n, seed)
    return _example(graph, label_graph(graph, cfg), {"kind": "random", "seed": seed})


def _map(fn, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    # imported here so that only a pooled build loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def build_line_dataset(n: int, cfg: WalkConfig = WalkConfig()) -> Dataset:
    """Label every distinct line graph on n vertices (n!/2 of them).

    The walks on a path depend only on the positions i and j of the start
    (vertex 0) and the target (vertex 1) along it, up to reversal, so the
    graphs fall into n(n-1)/2 classes keyed by min((i, j), (n-1-i, n-1-j)).
    One representative per class, 0 at i, 1 at j and 2..n-1 in order
    elsewhere, is labeled, and every graph of the class carries its outcome.
    Examples come in lexicographic order of their labeling, which each
    records as provenance.
    """
    n = _integer("n", n, 3, 10)
    labelings = _line_labelings(n)
    # positions of the start (vertex 0) and the target (vertex 1) along each path
    i, j = (labelings == 0).argmax(axis=1), (labelings == 1).argmax(axis=1)
    # (i, j) < (i', j') as tuples exactly when i n + j < i' n + j', as j < n
    keys = np.minimum(i * n + j, (n - 1 - i) * n + (n - 1 - j)).tolist()
    classes = list(dict.fromkeys(keys))
    representatives = []
    for key in classes:
        i, j = divmod(key, n)
        rest = iter(range(2, n))
        representatives.append([0 if p == i else 1 if p == j else next(rest) for p in range(n)])
    labeled = [label_graph(g, cfg) for g in _path_graphs(np.array(representatives))]
    outcomes = dict(zip(classes, labeled))
    examples = tuple(
        _example(graph, outcomes[key], {"kind": "line", "labeling": perm})
        for graph, key, perm in zip(_path_graphs(labelings), keys, labelings.tolist())
    )
    metadata = {"kind": "line", "n": n, "config": asdict(cfg)}
    return Dataset(examples, "unsplit", metadata)


def build_random_dataset(
    n: int, count: int, seed: int, cfg: WalkConfig = WalkConfig(), jobs: int = 1
) -> Dataset:
    """Label `count` random connected graphs, deterministically under `seed`.

    Each example gets its own child seed drawn up front, so the result does
    not depend on worker count.
    """
    n, count, seed = _integer("n", n, 3), _integer("count", count, 1), _integer("seed", seed, 0)
    child_seeds = np.random.default_rng(seed).integers(2**63, size=count)
    label = partial(_random_example, n=n, cfg=cfg)
    examples = _map(label, [int(s) for s in child_seeds], jobs)
    metadata = {"kind": "random", "n": n, "count": count, "seed": seed, "config": asdict(cfg)}
    return Dataset(tuple(examples), "unsplit", metadata)


# ====== reshaping ======


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random train/test partition; train size is round(fraction * size)."""
    train_fraction = _real("train_fraction", train_fraction, 0, 1, strict=True)
    seed = _integer("seed", seed, 0)
    size = len(d.examples)
    n_train = int(math.floor(train_fraction * size + 0.5))
    if n_train == 0 or n_train == size:
        raise ValueError(f"split of {size} examples at {train_fraction} leaves one side empty")
    order = np.random.default_rng(seed).permutation(size)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    extra = {"split_seed": seed, "train_fraction": train_fraction}
    train = Dataset(
        tuple(d.examples[i] for i in train_idx), "train", {**d.metadata, **extra}
    )
    test = Dataset(tuple(d.examples[i] for i in test_idx), "test", {**d.metadata, **extra})
    return train, test


def merge(parts: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets, keeping a common split tag if they share one."""
    if not parts:
        raise ValueError("merge needs at least one dataset")
    if len(parts) == 1:
        return parts[0]
    tags = {d.split_tag for d in parts}
    tag = tags.pop() if len(tags) == 1 else "unsplit"
    examples = tuple(e for d in parts for e in d.examples)
    return Dataset(examples, tag, {"kind": "merged", "parts": [d.metadata for d in parts]})


def drop_indeterminate(d: Dataset) -> Dataset:
    """Remove examples whose walkers never crossed the threshold."""
    kept = tuple(e for e in d.examples if not e.indeterminate)
    dropped = len(d.examples) - len(kept)
    if dropped == 0:
        return d
    return Dataset(kept, d.split_tag, {**d.metadata, "indeterminate_dropped": dropped})


# ====== serialization ======


def _example_record(e: Example) -> dict:
    bits = (e.graph.adjacency.reshape(-1) + 48).astype(np.uint8)  # ASCII "0" and "1"
    record = {
        "n": e.graph.n,
        "adjacency": bits.tobytes().decode("ascii"),
        "v_init": e.graph.v_init,
        "v_target": e.graph.v_target,
    }
    record.update((key, getattr(e, name)) for key, name in _EXAMPLE_KEYS)
    return record


def save(d: Dataset, path) -> None:
    """Write the line-per-example file; gzip when the path ends in .gz.

    Output bytes are a pure function of the dataset (sorted keys, shortest
    round-trip floats, zeroed gzip timestamp, fixed compression level 6), so
    identical datasets give identical files. The file is replaced atomically.
    """
    header = {"format": _FORMAT, "version": _VERSION, "count": len(d.examples)}
    header.update((key, getattr(d, name)) for key, name in _HEADER_KEYS)
    lines = [compact_json(header)]
    lines.extend(compact_json(_example_record(e)) for e in d.examples)
    data = ("\n".join(lines) + "\n").encode("utf-8")
    if str(path).endswith(".gz"):
        raw = io.BytesIO()
        # filename="" keeps the gzip header free of the output path
        with gzip.GzipFile(
            fileobj=raw, filename="", mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
        ) as zf:
            zf.write(data)
        data = raw.getvalue()
    write_atomic(path, data)


def _parse_record(line: str, lineno: int) -> dict:
    """One example line as a JSON object with every required key, a
    well-formed vertex count and bitstring; its `Graph` and `Example` rules
    unchecked."""

    def fail(msg: str):
        raise DatasetFormatError(f"line {lineno}: {msg}")

    if not line.strip():
        fail("empty record")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        fail(f"invalid JSON: {exc}")
    if not isinstance(record, dict):
        fail("record must be a JSON object")
    for key in ("n", "adjacency", "v_init", "v_target", "label"):
        if key not in record:
            fail(f"missing field {key!r}")
    try:
        n = _integer("n", record["n"], 3)
    except (TypeError, ValueError) as exc:
        fail(str(exc))
    bits = record["adjacency"]
    if not isinstance(bits, str) or len(bits) != n * n or not bits.isascii():
        fail("adjacency must be a bitstring of length n*n")
    return record


def _record_graphs(records: list[dict]) -> tuple[list[Graph], tuple[int, str] | None]:
    """The graphs of the records, checked in one stack per vertex count.

    Returns the graphs before the first record (in file order) whose graph
    breaks a `Graph` rule, and that record's index and message, or None.
    """
    groups: dict[int, list[int]] = {}
    for k, record in enumerate(records):
        groups.setdefault(record["n"], []).append(k)
    graphs: list = [None] * len(records)
    first = None
    for n, members in groups.items():
        bits = "".join(records[k]["adjacency"] for k in members).encode("ascii")
        stack = (np.frombuffer(bits, np.uint8) - 48).reshape(-1, n, n)  # "0"/"1" to 0/1
        v_init = [records[k]["v_init"] for k in members]
        v_target = [records[k]["v_target"] for k in members]
        fault = _first_fault(stack, v_init, v_target)
        if fault is not None:
            index, message = fault
            if first is None or members[index] < first[0]:
                first = (members[index], message)
            stack, v_init, v_target = stack[:index], v_init[:index], v_target[:index]
        for k, graph in zip(members, _unchecked_stack(stack, v_init, v_target)):
            graphs[k] = graph
    end = len(records) if first is None else first[0]
    return graphs[:end], first


def load(path) -> Dataset:
    """Read a dataset file, validating every record.

    Records are parsed one by one; their graphs are checked in stacked
    blocks, one per vertex count, against the same rules `Graph` applies.
    Raises DatasetFormatError naming the first offending line on any parse
    or invariant failure, with the message the failed check gives.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if str(path).endswith(".gz"):
        try:
            data = gzip.decompress(data)
        except OSError as exc:
            raise DatasetFormatError(f"not a gzip file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not UTF-8 text: {exc}") from exc
    lines = text.splitlines()
    if not lines:
        raise DatasetFormatError("line 1: empty file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"line 1: invalid JSON: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise DatasetFormatError("line 1: missing dataset header")
    version = header.get("version")
    try:
        _integer("version", version, _VERSION, _VERSION)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"line 1: unsupported version {version!r}") from exc
    # A record's checks run in the order parse, graph, example; the error
    # raised is that of the first record in the file that fails any of them.
    records, parse_error = [], None
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            records.append(_parse_record(line, lineno))
        except DatasetFormatError as exc:
            parse_error = exc
            break
    graphs, graph_fault = _record_graphs(records)
    examples = []
    for lineno, (record, graph) in enumerate(zip(records, graphs), start=2):
        try:
            fields = {name: record[key] for key, name in _EXAMPLE_KEYS if key in record}
            examples.append(Example(graph, **fields))
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"line {lineno}: {exc}") from exc
    if graph_fault is not None:
        index, message = graph_fault
        raise DatasetFormatError(f"line {index + 2}: {message}")
    if parse_error is not None:
        raise parse_error
    count = header.get("count")
    try:
        _integer("count", count, len(examples), len(examples))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(
            f"header promises {count} examples, file has {len(examples)}"
        ) from exc
    fields = {name: header[key] for key, name in _HEADER_KEYS if key in header}
    try:
        return Dataset(tuple(examples), **fields)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"line 1: {exc}") from exc
