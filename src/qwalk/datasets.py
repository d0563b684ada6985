"""Labeled graph datasets: generation, splitting, and serialization.

A dataset is an ordered collection of labeled examples plus a split tag.
The on-disk format is one self-describing JSON record per line (gzip when
the path ends in .gz): a header line with format name, version, split tag,
and metadata, then one line per example carrying the packed adjacency
bitstring, endpoint indices, label, hitting times, and provenance.
An absent optional key takes the default of its `Example` or `Dataset`
field; the header's metadata must be a JSON object.

Records are checked and built in columns. `_example_fault` states the
`Example` rules once, over columns of field values: `Example` runs it on
one row and `load` on every record of a file. The examples that pass, and
those `build_line_dataset` and `build_random_dataset` make, which are
valid by construction, are built without running the rules again. `save` packs the adjacency
bitstrings of each vertex count from one stacked array.
"""

from __future__ import annotations

import gzip
import io
import json
import math
from dataclasses import MISSING, asdict, dataclass, field
from functools import partial
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from ._io import compact_json, write_atomic
from .graphs import (
    _FLOATS,
    Graph,
    _first_fault,
    _integer,
    _integers_in,
    _line_labelings,
    _path_graphs,
    _raised,
    _real,
    _unchecked,
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


def _instances(values, kind: type) -> np.ndarray:
    """Whether each of `values` is an instance of `kind`, as a boolean array."""
    if set(map(type, values)) <= {kind}:
        return np.ones(len(values), dtype=bool)
    return np.fromiter((isinstance(v, kind) for v in values), dtype=bool, count=len(values))


def _times_in(values) -> np.ndarray:
    """Whether each of `values` is None or a hit time `_real(name, t, 0)`
    passes, as a boolean array. A column of Python floats passes at once
    when they sum to a finite number and none is negative; any other goes
    through `_real` value by value."""
    numbers = [t for t in values if t is not None]
    if set(map(type, numbers)) <= {float} and 0 <= min(numbers, default=0) and (
        math.isfinite(sum(numbers))
    ):
        return np.ones(len(values), dtype=bool)
    return np.fromiter(
        (t is None or _raised(_real, "t", t, 0) is None for t in values),
        dtype=bool,
        count=len(values),
    )


def _stored(values: list) -> list:
    """Labels or hit times that keep their rules, as `Example` stores them:
    each a Python int or float (or None), which `save` can encode."""
    if set(map(type, values)) <= {int, float, type(None)}:
        return values
    return [None if v is None else float(v) if isinstance(v, _FLOATS) else int(v) for v in values]


def _example_fault(label, t_classical, t_quantum, indeterminate, provenance):
    """The first row of these `Example` field columns (given in
    `_EXAMPLE_KEYS` order) that breaks an `Example` rule, as (row, the
    exception `Example` raises for it), or None when every row keeps them.

    A row's exception is that of the first rule it breaks, in this order:
    the label is an integer in [0, 1] (`_integer`); each hit time is None or
    a finite number >= 0 (`_real`); the label is the one
    `label_from_hit_times` gives; the indeterminate flag is a bool; a
    flagged row has no hit times; the provenance is a dict. Each rule runs
    over whole columns.
    """
    typed = (
        (_integers_in(label, CLASSICAL, QUANTUM),
         lambda i: _raised(_integer, "label", label[i], CLASSICAL, QUANTUM)),
        (_times_in(t_classical), lambda i: _raised(_real, "classical_hit_time", t_classical[i], 0)),
        (_times_in(t_quantum), lambda i: _raised(_real, "quantum_hit_time", t_quantum[i], 0)),
    )
    numeric = np.logical_and.reduce([ok for ok, _ in typed])
    # The later rules read the label and hit times, so they run on the rows
    # before the first whose label or hit time breaks its rule.
    end = len(label) if numeric.all() else int(np.argmin(numeric))
    labels, t_c, t_q = (_stored(column[:end]) for column in (label, t_classical, t_quantum))
    flags = indeterminate[:end]
    later = (
        (np.equal(labels, list(map(label_from_hit_times, t_c, t_q))),
         lambda i: ValueError("label contradicts the stored hitting times")),
        (_instances(flags, bool),
         lambda i: ValueError(f"indeterminate must be true or false, got {indeterminate[i]!r}")),
        (np.fromiter((f is not True or c is q is None for f, c, q in zip(flags, t_c, t_q)),
                     dtype=bool, count=end),
         lambda i: ValueError("an indeterminate example cannot carry hitting times")),
        (_instances(provenance[:end], dict),
         lambda i: TypeError(f"provenance must be a dict, got {provenance[i]!r}")),
    )
    kept = np.logical_and.reduce([ok for ok, _ in later])
    if not kept.all():
        i, rules = int(np.argmin(kept)), later
    elif end < len(label):
        i, rules = end, typed
    else:
        return None
    return i, next(error(i) for ok, error in rules if not ok[i])


def _unchecked_examples(graphs: list[Graph], *columns) -> list[Example]:
    """The examples of `graphs` and of their field columns, given in
    `_EXAMPLE_KEYS` order, which keep every `Example` rule, as
    `_example_fault` found or as `_labeled_examples` made them."""
    names = [name for _, name in _EXAMPLE_KEYS]
    return _unchecked(Example, {"graph": graphs, **dict(zip(names, columns))})


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
        fault = _example_fault(*([getattr(self, name)] for _, name in _EXAMPLE_KEYS))
        if fault is not None:
            raise fault[1]
        for name in ("label", "classical_hit_time", "quantum_hit_time"):
            object.__setattr__(self, name, _stored([getattr(self, name)])[0])


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


def _labeled_examples(
    graphs: list[Graph], outcomes: list[WalkOutcome], provenance: list[dict]
) -> list[Example]:
    """The examples of graphs labeled by `label_graph`, one outcome and one
    provenance dict each, built unchecked: an outcome's label is the one its
    hit times give, its hit times are None or finite floats >= 0, and it is
    flagged indeterminate exactly when both are None."""
    fields = (
        list(map(attrgetter(name), outcomes)) if name != "provenance" else provenance
        for _, name in _EXAMPLE_KEYS
    )
    return _unchecked_examples(graphs, *fields)


def _random_example(seed: int, n: int, cfg: WalkConfig) -> Example:
    graph = random_graph(n, seed)
    provenance = {"kind": "random", "seed": seed}
    return _labeled_examples([graph], [label_graph(graph, cfg)], [provenance])[0]


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
    records as provenance. The graphs and examples are built unchecked, as
    paths with their `label_graph` outcomes are valid by construction.
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
    outcome = dict(zip(classes, labeled))
    provenance = [{"kind": "line", "labeling": perm} for perm in labelings.tolist()]
    examples = _labeled_examples(
        _path_graphs(labelings), [outcome[key] for key in keys], provenance
    )
    metadata = {"kind": "line", "n": n, "config": asdict(cfg)}
    return Dataset(tuple(examples), "unsplit", metadata)


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


def _groups(keys) -> dict:
    """The positions of each key in `keys`, in order, by key."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return groups


def _example_records(examples: Sequence[Example]) -> Iterator[dict]:
    """The file record of each example, one at a time. The adjacency
    bitstrings of each vertex count are packed from one stacked array."""
    graphs = list(map(attrgetter("graph"), examples))
    adjacency = list(map(attrgetter("adjacency"), graphs))
    sizes = list(map(len, adjacency))
    bits: list = [None] * len(graphs)
    for n, members in _groups(sizes).items():
        # entries are 0 or 1, so uint8 holds them exactly
        rows = np.concatenate([adjacency[k] for k in members], dtype=np.uint8, casting="unsafe")
        rows += 48  # ASCII "0" and "1"
        packed = rows.tobytes().decode("ascii")
        for k, start in zip(members, range(0, len(packed), n * n)):
            bits[k] = packed[start : start + n * n]
    keys = ("n", "adjacency", "v_init", "v_target", *(key for key, _ in _EXAMPLE_KEYS))
    columns = (
        sizes,
        bits,
        *(list(map(attrgetter(name), graphs)) for name in ("v_init", "v_target")),
        *(list(map(attrgetter(name), examples)) for _, name in _EXAMPLE_KEYS),
    )
    return (dict(zip(keys, row)) for row in zip(*columns))


def save(d: Dataset, path) -> None:
    """Write the line-per-example file; gzip when the path ends in .gz.

    Output bytes are a pure function of the dataset (sorted keys, shortest
    round-trip floats, zeroed gzip timestamp, fixed compression level 6), so
    identical datasets give identical files. The file is replaced atomically.
    """
    header = {"format": _FORMAT, "version": _VERSION, "count": len(d.examples)}
    header.update((key, getattr(d, name)) for key, name in _HEADER_KEYS)
    lines = [compact_json(header)]
    lines.extend(map(compact_json, _example_records(d.examples)))
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


_decode = json.JSONDecoder().raw_decode


def _line_error(lineno: int, message) -> DatasetFormatError:
    return DatasetFormatError(f"line {lineno}: {message}")


def _parse_record(line: str, lineno: int) -> dict:
    """One example line, read as `json.loads` reads it, as a JSON object
    with every required key; its other rules unchecked."""
    try:
        record, end = _decode(line)
    except json.JSONDecodeError:
        end = None
    if end != len(line):
        # no JSON text, or blanks around it: only `json.loads` reads these
        # as it does, and names the fault as it does
        if not line.strip():
            raise _line_error(lineno, "empty record")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise _line_error(lineno, f"invalid JSON: {exc}")
    if not isinstance(record, dict):
        raise _line_error(lineno, "record must be a JSON object")
    for key in ("n", "adjacency", "v_init", "v_target", "label"):
        if key not in record:
            raise _line_error(lineno, f"missing field {key!r}")
    return record


def _size_fault(records: list[dict]) -> tuple[int, str] | None:
    """The first record whose `n` is not an integer >= 3, or whose
    adjacency is not a string of n*n ASCII characters, as (index, message),
    or None when every record keeps both rules."""
    ns = list(map(itemgetter("n"), records))
    sizes = _integers_in(ns, 3)
    end = len(ns) if sizes.all() else int(np.argmin(sizes))
    for k, (n, bits) in enumerate(zip(ns[:end], map(itemgetter("adjacency"), records))):
        if not (isinstance(bits, str) and len(bits) == n * n and bits.isascii()):
            return k, "adjacency must be a bitstring of length n*n"
    if end < len(ns):
        return end, str(_raised(_integer, "n", ns[end], 3))
    return None


def _record_graphs(records: list[dict]) -> tuple[list[Graph], tuple[int, str] | None]:
    """The graphs of the records, checked in one stack per vertex count.

    Returns the graphs before the first record (in file order) whose graph
    breaks a `Graph` rule, and that record's index and message, or None.
    """
    graphs: list = [None] * len(records)
    first = None
    for n, members in _groups(map(itemgetter("n"), records)).items():
        group = [records[k] for k in members]
        bits = "".join(map(itemgetter("adjacency"), group)).encode("ascii")
        stack = (np.frombuffer(bits, np.uint8) - 48).reshape(-1, n, n)  # "0"/"1" to 0/1
        v_init, v_target = (list(map(itemgetter(key), group)) for key in ("v_init", "v_target"))
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


def _field_column(records: list[dict], key: str, name: str) -> list:
    """The `Example` field `name` of each record: its value under `key`,
    or the field's default when the record lacks the key."""
    try:
        return list(map(itemgetter(key), records))
    except KeyError:  # a record lacks the key
        spec = Example.__dataclass_fields__[name]
    if spec.default_factory is not MISSING:
        # a default of its own for each record, as `Example` gives one
        return [r[key] if key in r else spec.default_factory() for r in records]
    return [r.get(key, spec.default) for r in records]


def _text_lines(path) -> list[str]:
    """The lines of a dataset file, decompressed when its name ends in .gz."""
    with open(path, "rb") as fh:
        data = fh.read()
    if str(path).endswith(".gz"):
        try:
            data = gzip.decompress(data)
        except OSError as exc:
            raise DatasetFormatError(f"not a gzip file: {exc}") from exc
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not UTF-8 text: {exc}") from exc


def load(path) -> Dataset:
    """Read a dataset file, validating every record.

    Each line is parsed on its own, as `json.loads` reads it. The records'
    sizes and bitstrings are then checked over columns, their graphs in
    stacked blocks, one per vertex count, against the same rules `Graph`
    applies, and their other fields over columns against the rules
    `Example` applies; the records that pass are built without running the
    rules again. Raises DatasetFormatError naming the first offending line
    on any parse or invariant failure, with the message the failed check
    gives.
    """
    lines = _text_lines(path)
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
    del lines  # not needed past here; freeing it lowers the peak
    size_fault = _size_fault(records)
    if size_fault is not None:
        index, message = size_fault
        parse_error = _line_error(index + 2, message)
        records = records[:index]
    graphs, graph_fault = _record_graphs(records)
    records = records[: len(graphs)]
    columns = [_field_column(records, key, name) for key, name in _EXAMPLE_KEYS]
    example_fault = _example_fault(*columns)
    if example_fault is not None:
        index, exc = example_fault
        raise _line_error(index + 2, exc) from exc
    if graph_fault is not None:
        index, message = graph_fault
        raise _line_error(index + 2, message)
    if parse_error is not None:
        raise parse_error
    examples = _unchecked_examples(graphs, *columns)
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
