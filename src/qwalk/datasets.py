"""Labeled graph datasets: generation, splitting, and serialization.

A dataset is an ordered collection of labeled examples plus a split tag.
The on-disk format is one self-describing JSON record per line (gzip when
the path ends in .gz): a header line with format name, version, split tag,
and metadata, then one line per example carrying the packed adjacency
bitstring, endpoint indices, label, hitting times, indeterminate flag and
provenance. An absent optional key takes the default of its `Example` or
`Dataset` field (a flag, the one the hitting times give); the header's
metadata must be a JSON object.

An `Example` stores what was measured: its graph, two hitting times and
provenance; its label and indeterminate flag are derived from the hitting
times (`walkers._HitTimes`). `save` writes both, and `load` refuses a
record whose stored ones are not those its hitting times give.

A dataset holds its records in columns: one read-only int64 adjacency
stack per vertex count with each record's vertex count, row and endpoints
(`graphs._Stacks`), and one column of each `Example` field besides the
graph, in the form `Example` stores it. `examples` is built from these
columns on first read and then kept. `load`, the builders, `split`,
`merge`, `drop_indeterminate` and `save` read and write columns only, and
a dataset's input rows are encoded from its stacks, so none of them makes
an `Example` or a `Graph` per record.
"""

from __future__ import annotations

import gzip
import io
import json
import math
import itertools
from dataclasses import MISSING, FrozenInstanceError, asdict, dataclass, field
from functools import cached_property
from operator import attrgetter, is_, itemgetter
from typing import Callable, Iterator, Sequence

import numpy as np

from ._io import compact_json, write_atomic
from .graphs import (
    Graph,
    _first_fault,
    _integer,
    _integers_in,
    _line_labelings,
    _path_graphs,
    _raised,
    _real,
    _Stacks,
    _unchecked,
    random_graph,
)
from .walkers import (
    CLASSICAL,
    QUANTUM,
    WalkConfig,
    WalkOutcome,
    _HitTimes,
    _indeterminate,
    label_from_hit_times,
    label_graph,
)

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
# Record lines `save` compresses at once.
_SAVE_BLOCK_LINES = 256
# Record key of each `Example` field a dataset line carries besides its
# graph. `save` writes every one, with the derived "label" and
# "indeterminate"; `load` passes on the keys a record has, so an absent
# optional key takes the field's default in `Example`.
_EXAMPLE_KEYS = (
    ("t_classical", "classical_hit_time"),
    ("t_quantum", "quantum_hit_time"),
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


def _provenance(value) -> dict:
    """`value` when it is a dict, as an example's provenance must be."""
    if not isinstance(value, dict):
        raise TypeError(f"provenance must be a dict, got {value!r}")
    return value


def _record_fault(label, t_classical, t_quantum, indeterminate, provenance):
    """The first row of these example-record columns (its stored label,
    hitting times, indeterminate flag and provenance) that breaks a record
    rule, as (row, the exception for it), or None when every row keeps them.

    A row's exception is that of the first rule it breaks, in this order:
    the label is an integer in [0, 1] (`_integer`); each hit time is None or
    a finite number >= 0 (`_real`, as `Example` checks it); the label is the
    one `label_from_hit_times` gives; the indeterminate flag is a bool; it
    is the flag the hit times give; the provenance is a dict (`_provenance`).
    Each rule runs over whole columns.
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
    t_c, t_q, flags = t_classical[:end], t_quantum[:end], indeterminate[:end]
    later = (
        (np.equal(label[:end], list(map(label_from_hit_times, t_c, t_q))),
         lambda i: ValueError("label contradicts the stored hitting times")),
        (_instances(flags, bool),
         lambda i: ValueError(f"indeterminate must be true or false, got {indeterminate[i]!r}")),
        # `is` holds only for the bool the hit times give
        (np.fromiter(map(is_, flags, map(_indeterminate, t_c, t_q)), dtype=bool, count=end),
         lambda i: ValueError("an indeterminate example cannot carry hitting times" if flags[i]
                              else "indeterminate is false, but neither hitting time is stored")),
        (_instances(provenance[:end], dict), lambda i: _raised(_provenance, provenance[i])),
    )
    kept = np.logical_and.reduce([ok for ok, _ in later])
    if not kept.all():
        i, rules = int(np.argmin(kept)), later
    elif end < len(label):
        i, rules = end, typed
    else:
        return None
    return i, next(error(i) for ok, error in rules if not ok[i])


@dataclass(frozen=True)
class Example(_HitTimes):
    """One graph with the hitting times its two walkers were measured at
    (None for a walker that never crossed). Its `label` and `indeterminate`
    flag are derived from them on each read."""

    graph: Graph
    classical_hit_time: float | None = None
    quantum_hit_time: float | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.graph, Graph):
            raise TypeError(f"graph must be a Graph, got {self.graph!r}")
        for name in ("classical_hit_time", "quantum_hit_time"):
            if (t := getattr(self, name)) is not None:
                object.__setattr__(self, name, _real(name, t, 0))
        _provenance(self.provenance)


class Dataset:
    """Labeled examples in order, with a split tag and metadata.

    `Dataset(examples, split_tag, metadata)` keeps the examples it is given
    and derives its columns from them; the builders, `load` and the
    reshaping functions make datasets from columns alone, whose `examples`
    are built, unchecked, on first read. Two datasets are equal when their
    examples, split tags and metadata are. A dataset is immutable.
    """

    def __init__(self, examples: Sequence[Example], split_tag: str = "unsplit",
                 metadata: dict = MISSING) -> None:
        examples = tuple(examples)
        kinds = _instances(examples, Example)
        if not kinds.all():
            i = int(np.argmin(kinds))
            raise TypeError(f"example {i} must be an Example, got {examples[i]!r}")
        fields = {name: list(map(attrgetter(name), examples)) for _, name in _EXAMPLE_KEYS}
        self._init(_Stacks.of([e.graph for e in examples]), fields, split_tag, metadata)
        self.__dict__["examples"] = examples

    @classmethod
    def _of(cls, graphs: _Stacks, fields: dict, split_tag: str = "unsplit",
            metadata: dict = MISSING) -> Dataset:
        """The dataset of these graph columns and `Example` field columns
        (field name to a list, in `_EXAMPLE_KEYS` order), which keep every
        `Example` rule."""
        d = object.__new__(cls)
        d._init(graphs, fields, split_tag, metadata)
        return d

    def _init(self, graphs: _Stacks, fields: dict, split_tag: str, metadata: dict) -> None:
        if not len(graphs):
            raise ValueError("a dataset must contain at least one example")
        if split_tag not in _SPLIT_TAGS:
            raise ValueError(f"split_tag must be one of {_SPLIT_TAGS}, got {split_tag!r}")
        metadata = {} if metadata is MISSING else metadata
        if not isinstance(metadata, dict):
            raise TypeError(f"metadata must be a dict, got {metadata!r}")
        self.__dict__.update(
            split_tag=split_tag,
            metadata=metadata,
            _graphs=graphs,
            _fields=fields,
            # (key, rows) of the last `_rows_for` call: one copy of rows at most.
            _kept=None,
        )

    def _take(self, index, split_tag: str, metadata: dict) -> Dataset:
        """The records at the positions in the list `index`, in that order,
        sharing these stacks."""
        fields = {name: [column[k] for k in index] for name, column in self._fields.items()}
        return Dataset._of(self._graphs.take(index), fields, split_tag, metadata)

    @cached_property
    def examples(self) -> tuple[Example, ...]:
        columns = {"graph": self._graphs, **self._fields}
        return tuple(_unchecked(Example, columns))

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.examples, self.split_tag, self.metadata) == (
            other.examples, other.split_tag, other.metadata
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Dataset(examples={self.examples!r}, split_tag={self.split_tag!r}, "
                f"metadata={self.metadata!r})")

    def __len__(self) -> int:
        return len(self._graphs)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def _of_hit_times(self, rule: Callable) -> list:
        """`rule` of each example's two hit times, in order."""
        return list(map(rule, self._fields["classical_hit_time"], self._fields["quantum_hit_time"]))

    @property
    def class_fractions(self) -> tuple[float, float]:
        """Empirical (classical, quantum) fractions of the examples."""
        quantum = self._of_hit_times(label_from_hit_times).count(QUANTUM)
        total = len(self)
        return ((total - quantum) / total, quantum / total)

    @property
    def max_n(self) -> int:
        return int(self._graphs.n.max())

    @property
    def labels(self) -> np.ndarray:
        return np.array(self._of_hit_times(label_from_hit_times), dtype=np.int64)

    def _rows_for(self, key, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The rows `build` makes from this dataset's graphs, kept read-only and
        returned again while later calls pass an equal key. Only the last
        key's rows are kept; a call with another key replaces them."""
        if self._kept is None or self._kept[0] != key:
            rows = build()
            rows.setflags(write=False)
            self.__dict__["_kept"] = (key, rows)
        return self._kept[1]


# ====== generation ======


def _outcome_fields(outcomes: list[WalkOutcome], provenance: list[dict]) -> dict:
    """The `Example` field columns of graphs labeled by `label_graph`, one
    outcome and one provenance dict each. They keep every `Example` rule, as
    an outcome's hit times are None or finite floats >= 0."""
    return {
        name: provenance if name == "provenance" else list(map(attrgetter(name), outcomes))
        for _, name in _EXAMPLE_KEYS
    }


def build_line_dataset(n: int, cfg: WalkConfig = WalkConfig()) -> Dataset:
    """Label every distinct line graph on n vertices (n!/2 of them).

    The walks on a path depend only on the positions i and j of the start
    (vertex 0) and the target (vertex 1) along it, up to reversal, so the
    graphs fall into n(n-1)/2 classes keyed by min((i, j), (n-1-i, n-1-j)).
    One representative per class, 0 at i, 1 at j and 2..n-1 in order
    elsewhere, is labeled, and every graph of the class carries its outcome.
    Examples come in lexicographic order of their labeling, which each
    records as provenance. The paths are one stack and the outcomes columns,
    unchecked, as paths with their `label_graph` outcomes are valid by
    construction.
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
    fields = _outcome_fields([outcome[key] for key in keys], provenance)
    metadata = {"kind": "line", "n": n, "config": asdict(cfg)}
    return Dataset._of(_path_graphs(labelings), fields, "unsplit", metadata)


def build_random_dataset(
    n: int, count: int, seed: int, cfg: WalkConfig = WalkConfig()
) -> Dataset:
    """Label `count` random connected graphs, deterministically under `seed`.

    Each example gets its own child seed drawn up front, and its graph and
    label depend on that seed alone.
    """
    n, count, seed = _integer("n", n, 3), _integer("count", count, 1), _integer("seed", seed, 0)
    child_seeds = np.random.default_rng(seed).integers(2**63, size=count).tolist()
    graphs, outcomes = [], []
    for child in child_seeds:
        graphs.append(random_graph(n, child))
        outcomes.append(label_graph(graphs[-1], cfg))
    provenance = [{"kind": "random", "seed": child} for child in child_seeds]
    metadata = {"kind": "random", "n": n, "count": count, "seed": seed, "config": asdict(cfg)}
    fields = _outcome_fields(outcomes, provenance)
    return Dataset._of(_Stacks.of(graphs), fields, "unsplit", metadata)


# ====== reshaping ======


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random train/test partition; train size is round(fraction * size)."""
    train_fraction = _real("train_fraction", train_fraction, 0, 1, strict=True)
    seed = _integer("seed", seed, 0)
    size = len(d)
    n_train = int(math.floor(train_fraction * size + 0.5))
    if n_train == 0 or n_train == size:
        raise ValueError(f"split of {size} examples at {train_fraction} leaves one side empty")
    order = np.random.default_rng(seed).permutation(size)
    train_idx = np.sort(order[:n_train])
    test_idx = np.sort(order[n_train:])
    extra = {"split_seed": seed, "train_fraction": train_fraction}
    train = d._take(train_idx.tolist(), "train", {**d.metadata, **extra})
    test = d._take(test_idx.tolist(), "test", {**d.metadata, **extra})
    return train, test


def merge(parts: Sequence[Dataset]) -> Dataset:
    """Concatenate datasets, keeping a common split tag if they share one."""
    if not parts:
        raise ValueError("merge needs at least one dataset")
    if len(parts) == 1:
        return parts[0]
    tags = {d.split_tag for d in parts}
    tag = tags.pop() if len(tags) == 1 else "unsplit"
    graphs = _Stacks.concat([d._graphs for d in parts])
    fields = {
        name: list(itertools.chain.from_iterable(d._fields[name] for d in parts))
        for _, name in _EXAMPLE_KEYS
    }
    metadata = {"kind": "merged", "parts": [d.metadata for d in parts]}
    return Dataset._of(graphs, fields, tag, metadata)


def drop_indeterminate(d: Dataset) -> Dataset:
    """Remove examples whose walkers never crossed the threshold."""
    kept = [k for k, flag in enumerate(d._of_hit_times(_indeterminate)) if not flag]
    dropped = len(d) - len(kept)
    if dropped == 0:
        return d
    return d._take(kept, d.split_tag, {**d.metadata, "indeterminate_dropped": dropped})


# ====== serialization ======


def _records(d: Dataset) -> Iterator[dict]:
    """The file record of each example, one at a time, with the label and
    indeterminate flag its hit times give. The adjacency bitstrings of each
    vertex count are packed from its stack."""
    graphs = d._graphs
    bits: list = [None] * len(graphs)
    for members, stack, rows, _, _ in graphs.groups():
        n = stack.shape[1]
        # entries are 0 or 1, so uint8 holds them and ASCII "0" and "1"
        chars = np.add(stack, 48, dtype=np.uint8, casting="unsafe")[rows]
        packed = chars.tobytes().decode("ascii")
        for k, start in zip(members.tolist(), range(0, len(packed), n * n)):
            bits[k] = packed[start : start + n * n]
    keys = ("n", "adjacency", "v_init", "v_target", "label", "indeterminate",
            *(key for key, _ in _EXAMPLE_KEYS))
    columns = (
        graphs.n.tolist(),
        bits,
        graphs.v_init.tolist(),
        graphs.v_target.tolist(),
        d._of_hit_times(label_from_hit_times),
        d._of_hit_times(_indeterminate),
        *(d._fields[name] for _, name in _EXAMPLE_KEYS),
    )
    return (dict(zip(keys, row)) for row in zip(*columns))


def save(d: Dataset, path) -> None:
    """Write the line-per-example file; gzip when the path ends in .gz.

    Output bytes are a pure function of the dataset (sorted keys, shortest
    round-trip floats, zeroed gzip timestamp, fixed compression level 6), so
    identical datasets give identical files. The file is replaced atomically.
    A gzip file's lines are compressed in blocks as they are made, so its
    text is never held whole.
    """
    header = {"format": _FORMAT, "version": _VERSION, "count": len(d)}
    header.update((key, getattr(d, name)) for key, name in _HEADER_KEYS)
    lines = map(compact_json, itertools.chain([header], _records(d)))
    if str(path).endswith(".gz"):
        raw = io.BytesIO()
        # filename="" keeps the gzip header free of the output path
        with gzip.GzipFile(
            fileobj=raw, filename="", mode="wb", compresslevel=_GZIP_LEVEL, mtime=0
        ) as zf:
            while block := list(itertools.islice(lines, _SAVE_BLOCK_LINES)):
                zf.write(("\n".join(block) + "\n").encode("utf-8"))
        data = raw.getvalue()
    else:
        data = "\n".join([*lines, ""]).encode("utf-8")  # "" for the final newline
    write_atomic(path, data)


# The scanner `JSONDecoder.raw_decode` calls at index 0, called directly: it
# gives (value, end), or raises StopIteration where no value starts.
_scan = json.JSONDecoder().scan_once
# The keys every example line must have, in the order their absence is named.
_RECORD_KEYS = ("n", "adjacency", "v_init", "v_target", "label")
_REQUIRED_KEYS = frozenset(_RECORD_KEYS)


def _line_error(lineno: int, message) -> DatasetFormatError:
    return DatasetFormatError(f"line {lineno}: {message}")


def _parse_records(lines: list[str]) -> tuple[list[dict], DatasetFormatError | None]:
    """The records of the example lines, each read as `json.loads` reads
    it, as a JSON object with every required key (its other rules
    unchecked), up to the first line that is not one, and that line's
    error, or None."""
    records = []
    for line in lines:
        try:
            record, end = _scan(line, 0)
        except (json.JSONDecodeError, StopIteration):
            end = None
        if end != len(line):
            # no JSON text, or blanks around it: only `json.loads` reads these
            # as it does, and names the fault as it does
            if not line.strip():
                return records, _line_error(len(records) + 2, "empty record")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                return records, _line_error(len(records) + 2, f"invalid JSON: {exc}")
        if not isinstance(record, dict):
            return records, _line_error(len(records) + 2, "record must be a JSON object")
        if not record.keys() >= _REQUIRED_KEYS:
            missing = next(key for key in _RECORD_KEYS if key not in record)
            return records, _line_error(len(records) + 2, f"missing field {missing!r}")
        records.append(record)
    return records, None


def _size_fault(ns: list, strings: list) -> tuple[int, str] | None:
    """The first record whose `n` (in `ns`) is not an integer >= 3, or whose
    adjacency (in `strings`) is not a string of n*n ASCII characters, as
    (index, message), or None when every record keeps both rules."""
    sizes = _integers_in(ns, 3)
    end = len(ns) if sizes.all() else int(np.argmin(sizes))
    head = strings[:end]
    # a column of ASCII strings of the right lengths passes at once; any
    # other goes record by record
    if not (set(map(type, head)) <= {str} and all(map(str.isascii, head))
            and list(map(len, head)) == [n * n for n in ns[:end]]):
        for k, (n, bits) in enumerate(zip(ns, head)):
            if not (isinstance(bits, str) and len(bits) == n * n and bits.isascii()):
                return k, "adjacency must be a bitstring of length n*n"
    if end < len(ns):
        return end, str(_raised(_integer, "n", ns[end], 3))
    return None


def _record_graphs(ns: list, strings: list, v_init: list, v_target: list
                   ) -> tuple[_Stacks | None, tuple[int, str] | None]:
    """The graphs of records that keep the `_size_fault` rules, from their
    `n`, `adjacency`, `v_init` and `v_target` columns, checked in one stack
    per vertex count.

    Returns their columns and None when every graph keeps the `Graph`
    rules, or None and the index and message of the first record (in file
    order) whose graph breaks one.
    """
    sizes = np.array(ns, dtype=np.int64)
    row = np.empty(len(ns), dtype=np.int64)
    stacks, first = {}, None
    for n in dict.fromkeys(ns):
        members = np.flatnonzero(sizes == n)
        columns = (strings, v_init, v_target)
        if len(members) < len(ns):
            columns = ([column[k] for k in members.tolist()] for column in columns)
        bits, starts, targets = columns
        chars = np.frombuffer("".join(bits).encode("ascii"), np.uint8)
        stack = np.subtract(chars, 48, dtype=np.int64).reshape(-1, n, n)  # "0"/"1" to 0/1
        fault = _first_fault(stack, starts, targets)
        if fault is not None:
            index, message = int(members[fault[0]]), fault[1]
            if first is None or index < first[0]:
                first = (index, message)
        elif first is None:
            stack.setflags(write=False)
            stacks[n] = stack
            row[members] = np.arange(len(members))
    if first is not None:
        return None, first
    endpoints = (np.array(v, dtype=np.int64) for v in (v_init, v_target))
    return _Stacks(stacks, sizes, row, *endpoints), None


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
    applies, and their other fields over columns (`_record_fault`) against
    the rules `Example` applies and against the label and flag their
    hitting times give; an absent flag reads as that one. The records that
    pass become the dataset's columns, label and flag dropped, without
    running the rules again. Raises DatasetFormatError naming the first
    offending line on any parse or invariant failure, with the message the
    failed check gives.
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
    records, parse_error = _parse_records(lines[1:])
    del lines  # not needed past here; freeing it lowers the peak
    graph_keys = ("n", "adjacency", "v_init", "v_target")
    graph_columns = [list(map(itemgetter(key), records)) for key in graph_keys]
    size_fault = _size_fault(*graph_columns[:2])
    if size_fault is not None:
        index, message = size_fault
        parse_error = _line_error(index + 2, message)
        records = records[:index]
        graph_columns = [column[:index] for column in graph_columns]
    graphs, graph_fault = _record_graphs(*graph_columns)
    if graph_fault is not None:
        records = records[: graph_fault[0]]
    columns = [_field_column(records, key, name) for key, name in _EXAMPLE_KEYS]
    t_c, t_q, provenance = columns
    # a record without a flag reads as the one its hit times give
    flags = [r.get("indeterminate", _indeterminate(c, q)) for r, c, q in zip(records, t_c, t_q)]
    record_fault = _record_fault(list(map(itemgetter("label"), records)), t_c, t_q, flags, provenance)
    if record_fault is not None:
        index, exc = record_fault
        raise _line_error(index + 2, exc) from exc
    if graph_fault is not None:
        index, message = graph_fault
        raise _line_error(index + 2, message)
    if parse_error is not None:
        raise parse_error
    count = header.get("count")
    try:
        _integer("count", count, len(records), len(records))
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(
            f"header promises {count} examples, file has {len(records)}"
        ) from exc
    fields = dict(zip((name for _, name in _EXAMPLE_KEYS), columns))
    header_fields = {name: header[key] for key, name in _HEADER_KEYS if key in header}
    try:
        return Dataset._of(graphs, fields, **header_fields)
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"line 1: {exc}") from exc
