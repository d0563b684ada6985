"""Graph construction, sampling, and the two walk models of a graph.

Vertices are 0-based indices. Every constructor marks vertex 0 as the
walker's starting vertex and vertex 1 as the detection target, so a path
graph is "interesting" exactly when those two sit far apart along it.

The walk models are plain n x n matrices read straight from a `Graph`:
the classical walker's column-stochastic jump matrix with the target made
absorbing, and the quantum walker's effective Hamiltonian
A - (i gamma / 2)|target><target|, whose anti-Hermitian part is the
target's leak into the sink.

The seven `Graph` rules (`_first_fault`) run where graphs come in from
outside: in `Graph` and in `datasets.load`. The constructors check their
arguments and build graphs valid by construction without checking them
again: a path through every vertex breaks no rule, and a random draw is
tested for connectivity, the one rule it can break.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator

import numpy as np

__all__ = [
    "Graph",
    "line_graph",
    "random_graph",
    "random_connected_graph",
    "classical_variant",
    "quantum_variant",
]


def _connected(adjacency: np.ndarray) -> np.ndarray:
    """Whether vertex 0 reaches every vertex, for each graph of a (B, n, n)
    boolean stack."""
    # Squaring the walk-length-<=1 reachability k times covers every walk of
    # length <= 2^k; the clamp to 1 keeps the entries at most n, which
    # float32 holds exactly.
    n = adjacency.shape[1]
    reach = np.eye(n, dtype=np.float32) + adjacency
    square = np.empty_like(reach)
    for _ in range((n - 1).bit_length()):
        np.minimum(np.matmul(reach, reach, out=square), 1.0, out=reach)
    return reach[:, 0].all(axis=1)


# Built once: a tuple with a numpy attribute in it costs a lookup per call.
_INTEGERS, _FLOATS = (int, np.integer), (float, np.floating)


def _is_index(v) -> bool:
    """Whether v is an integer, numpy or Python, and not a bool."""
    return isinstance(v, _INTEGERS) and not isinstance(v, bool)


def _integer(name: str, value, low: int | None = None, high: int | None = None) -> int:
    """`value`, a Python or numpy integer, as a Python int in [low, high] (a
    None bound is open). This rule and `_real` check every scalar argument.

    Raises TypeError when it is not an integer, ValueError when out of range.
    """
    if not _is_index(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if (low is not None and value < low) or (high is not None and value > high):
        bound = f"be >= {low}" if high is None else f"lie in [{low}, {high}]"
        raise ValueError(f"{name} must {bound}, got {value}")
    return value


def _real(name: str, value, low: float, high: float = math.inf, strict: bool = False):
    """`value` as a finite Python int or float in [low, high], or in
    (low, high) when `strict`. A Python int or float comes back unchanged, a
    numpy one as the Python number a file can hold.

    Raises TypeError when it is not a number, ValueError when out of range.
    """
    if isinstance(value, _FLOATS):
        number = float(value)
    elif _is_index(value):
        number = int(value)
    else:
        number = None
    inside = number is not None and (low < number < high if strict else low <= number <= high)
    if not (inside and -math.inf < number < math.inf):
        if high == math.inf:
            bound = f"be finite and {'>' if strict else '>='} {low}"
        else:
            bound = f"lie in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"
        raise (TypeError if number is None else ValueError)(f"{name} must {bound}, got {value!r}")
    return number


def _raised(rule, *args) -> Exception | None:
    """The TypeError or ValueError that `rule(*args)` raises, or None."""
    try:
        rule(*args)
    except (TypeError, ValueError) as exc:
        return exc
    return None


def _integers_in(values, low: int, high: int | None = None) -> np.ndarray:
    """Whether each of `values` passes `_integer(name, value, low, high)`,
    as a boolean array. A column of Python ints in range passes at once;
    any other goes through `_integer` value by value."""
    if set(map(type, values)) <= {int} and low <= min(values, default=low) and (
        high is None or max(values, default=high) <= high
    ):
        return np.ones(len(values), dtype=bool)
    return np.fromiter(
        (_raised(_integer, "value", v, low, high) is None for v in values),
        dtype=bool,
        count=len(values),
    )


def _endpoint_fault(v_init, v_target, n: int) -> str | None:
    """The message of the first endpoint rule one graph breaks, or None."""
    for name, v in (("v_init", v_init), ("v_target", v_target)):
        try:
            _integer(name, v, 0, n - 1)
        except (TypeError, ValueError):
            return f"{name}={v!r} is not a vertex index in [0, {n})"
    if v_init == v_target:
        return "v_init and v_target must differ"
    return None


def _endpoints_kept(v_init, v_target, n: int) -> np.ndarray:
    """Whether each graph's endpoints keep their rules (`_endpoint_fault`
    finds none), as a boolean array."""
    indices = _integers_in(v_init, 0, n - 1) & _integers_in(v_target, 0, n - 1)
    if indices.all():
        return np.not_equal(v_init, v_target)
    # compared only where both are vertex indices
    pairs = zip(indices, v_init, v_target)
    return np.fromiter((ok and s != t for ok, s, t in pairs), dtype=bool, count=len(indices))


# Graphs checked at once: bounds the validator's working memory (a few bytes
# per matrix entry) whatever the stack's length.
_BLOCK_GRAPHS = 256


def _first_fault(adjacency: np.ndarray, v_init, v_target) -> tuple[int, str] | None:
    """The first graph of a (B, n, n) stack that breaks a `Graph` rule, as
    (index, message), or None when every graph keeps them all.

    `v_init` and `v_target` hold one endpoint per graph. The endpoint rules
    run over those columns at once, and the matrix rules on a block of up
    to `_BLOCK_GRAPHS` graphs at once. The message is the one of the first
    rule that graph breaks, in this order: at least 3 vertices, 0/1
    entries, symmetry, zero diagonal, endpoints in range, distinct
    endpoints, connectivity.
    """
    b, n = adjacency.shape[:2]
    if b and n < 3:
        return 0, f"need at least 3 vertices, got {n}"
    endpoints = _endpoints_kept(v_init, v_target, n)
    for start in range(0, b, _BLOCK_GRAPHS):
        block = slice(start, start + _BLOCK_GRAPHS)
        fault = _block_fault(adjacency[block], endpoints[block])
        if fault is not None:
            i, message = start + fault[0], fault[1]
            return i, message or _endpoint_fault(v_init[i], v_target[i], n)
    return None


def _block_fault(adjacency: np.ndarray, endpoints: np.ndarray) -> tuple[int, str | None] | None:
    """`_first_fault` of one block, whose graphs have at least 3 vertices,
    given whether each graph's endpoints keep their rules; the message is
    None when the first rule that graph breaks is an endpoint rule."""
    b, n = adjacency.shape[:2]
    edges = adjacency == 1
    binary = (adjacency == 0) | edges
    symmetric = adjacency == adjacency.transpose(0, 2, 1)
    loops = adjacency.reshape(b, n * n)[:, :: n + 1] != 0  # the diagonals
    kept = (binary & symmetric).reshape(b, n * n).all(axis=1) & ~loops.any(axis=1) & endpoints
    kept &= _connected(edges)
    if kept.all():
        return None
    i = int(np.argmin(kept))
    rules = (
        (binary[i].all(), "adjacency entries must be 0 or 1"),
        (symmetric[i].all(), "adjacency must be symmetric"),
        (not loops[i].any(), "adjacency diagonal must be zero"),
        (endpoints[i], None),
    )
    return i, next((message for ok, message in rules if not ok), "graph must be connected")


def _unchecked(cls: type, columns: dict) -> list:
    """Instances of the frozen dataclass `cls`, one per row of `columns`
    (field name to a column of values, in field order), with each field set
    as `cls.__init__` sets it and no `__post_init__` check."""
    names = list(columns)
    new, put = object.__new__, object.__setattr__
    objects = []
    # Each instance is filled before the next is made, as `cls(...)` does:
    # making them all first stops CPython from sharing one attribute key
    # table among them, which about doubles their size.
    for row in zip(*columns.values()):
        obj = new(cls)
        for name, value in zip(names, row):
            put(obj, name, value)
        objects.append(obj)
    return objects


def _unchecked_stack(adjacency: np.ndarray, v_init, v_target) -> list[Graph]:
    """The graphs of a (B, n, n) stack that keeps every `Graph` rule, as
    `_first_fault` found or as its constructor built it.

    They share one read-only int64 stack: `adjacency` itself when it is
    int64 already, so callers pass a stack they own.
    """
    a = np.asarray(adjacency, dtype=np.int64)
    a.setflags(write=False)
    columns = {"adjacency": a, "v_init": map(int, v_init), "v_target": map(int, v_target)}
    return _unchecked(Graph, columns)


@dataclass(frozen=True, eq=False)
class _Stacks:
    """Graphs kept in columns: one read-only adjacency stack per vertex
    count, and each graph's vertex count, row in the stack of that count,
    start and target (int64 arrays).

    Iterating gives the graphs, built unchecked on each pass as `Graph`s
    over read-only views of their stack rows, which are int64 for that;
    `cqcnn.encode` stacks a list of graphs in bytes and never iterates them.
    """

    stacks: dict
    n: np.ndarray
    row: np.ndarray
    v_init: np.ndarray
    v_target: np.ndarray

    @classmethod
    def of(cls, graphs, dtype=np.int64) -> _Stacks:
        """The columns of a list of graphs, their 0/1 matrices copied into
        one stack of `dtype` per vertex count."""
        sizes = np.fromiter((g.n for g in graphs), np.int64, count=len(graphs))
        row = np.empty(len(graphs), dtype=np.int64)
        stacks = {}
        for n in dict.fromkeys(sizes.tolist()):
            members = np.flatnonzero(sizes == n)
            matrices = [graphs[k].adjacency for k in members]
            stacks[n] = np.stack(matrices, dtype=dtype, casting="unsafe")
            stacks[n].setflags(write=False)
            row[members] = np.arange(len(members))
        endpoints = (np.fromiter(map(attrgetter(name), graphs), np.int64, count=len(graphs))
                     for name in ("v_init", "v_target"))
        return cls(stacks, sizes, row, *endpoints)

    @classmethod
    def concat(cls, parts: list[_Stacks]) -> _Stacks:
        """The graphs of `parts` in order, each vertex count's rows copied
        into one new stack."""
        n, v_init, v_target = (
            np.concatenate([getattr(p, name) for p in parts])
            for name in ("n", "v_init", "v_target")
        )
        row = np.empty(len(n), dtype=np.int64)
        stacks = {}
        for size in dict.fromkeys(n.tolist()):
            pieces = [p.stacks[size][p.row[p.n == size]] for p in parts if size in p.stacks]
            stacks[size] = np.concatenate(pieces)
            stacks[size].setflags(write=False)
            members = n == size
            row[members] = np.arange(np.count_nonzero(members))
        return cls(stacks, n, row, v_init, v_target)

    def take(self, index) -> _Stacks:
        """The graphs at `index`, sharing these stacks."""
        columns = (self.n, self.row, self.v_init, self.v_target)
        return _Stacks(self.stacks, *(column[index] for column in columns))

    def groups(self) -> Iterator[tuple]:
        """(positions, stack, rows, v_init, v_target) of each vertex count:
        the graphs at `positions`, in order, are the `rows` of `stack`."""
        for n, stack in self.stacks.items():
            members = np.flatnonzero(self.n == n)
            if len(members):
                ends = self.v_init[members], self.v_target[members]
                yield members, stack, self.row[members], *ends

    def __len__(self) -> int:
        return len(self.n)

    def __iter__(self) -> Iterator[Graph]:
        views = map(lambda n, r: self.stacks[n][r], self.n.tolist(), self.row.tolist())
        ends = {name: getattr(self, name).tolist() for name in ("v_init", "v_target")}
        return iter(_unchecked(Graph, {"adjacency": views, **ends}))


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected connected graph with a marked start and target vertex.

    The adjacency matrix is binary, symmetric, with a zero diagonal.
    Instances are immutable; the adjacency array is made read-only.
    """

    adjacency: np.ndarray
    v_init: int = 0
    v_target: int = 1

    def __post_init__(self) -> None:
        a = np.asarray(self.adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        fault = _first_fault(a[np.newaxis], [self.v_init], [self.v_target])
        if fault is not None:
            raise ValueError(fault[1])
        a = a.astype(np.int64)
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "v_init", int(self.v_init))
        object.__setattr__(self, "v_target", int(self.v_target))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.v_init == other.v_init
            and self.v_target == other.v_target
            and self.adjacency.shape == other.adjacency.shape
            and bool((self.adjacency == other.adjacency).all())
        )


# ====== constructors ======


def line_graph(n: int, labeling) -> Graph:
    """Build the path graph whose vertex sequence along the path is `labeling`.

    `labeling` must be a permutation of range(n); consecutive entries are
    joined by an edge. Start and target stay at vertices 0 and 1, so the
    permutation controls where they land on the path.
    """
    n = _integer("n", n, 3)
    entries = list(labeling)
    if not all(map(_is_index, entries)) or sorted(entries) != list(range(n)):
        raise ValueError(f"labeling {labeling!r} is not a permutation of range({n})")
    return list(_path_graphs(np.array([entries])))[0]


def _path_graphs(labelings: np.ndarray) -> _Stacks:
    """The path graphs of a (B, n) array of permutations of range(n), built
    as one (B, n, n) stack."""
    b, n = labelings.shape
    a = np.zeros((b, n, n), dtype=np.int64)
    rows = np.arange(b)[:, np.newaxis]
    a[rows, labelings[:, :-1], labelings[:, 1:]] = 1
    a[rows, labelings[:, 1:], labelings[:, :-1]] = 1
    a.setflags(write=False)
    ends = np.zeros(b, dtype=np.int64), np.ones(b, dtype=np.int64)
    return _Stacks({n: a}, np.full(b, n), np.arange(b), *ends)


def _line_labelings(n: int) -> np.ndarray:
    """(n!/2, n) array of each labeling of the n-vertex path that reads no
    later than its reverse, in lexicographic order."""
    # A labeling and its reverse first differ at their ends, so the one that
    # reads first is the one that starts with the smaller end.
    kept = (perm for perm in itertools.permutations(range(n)) if perm[0] < perm[-1])
    return np.fromiter(itertools.chain.from_iterable(kept), np.int64).reshape(-1, n)


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform connected graph with exactly m edges, by rejection sampling.

    Draws an m-subset of the vertex pairs uniformly and redraws (same m)
    until the result is connected, which preserves uniformity over
    connected graphs with that edge count.
    """
    n = _integer("n", n, 3)
    max_m = n * (n - 1) // 2
    m = _integer("m", m, n - 1, max_m)
    rows, cols = np.triu_indices(n, k=1)
    while True:
        chosen = rng.choice(max_m, size=m, replace=False)
        a = np.zeros((1, n, n), dtype=bool)
        a[0, rows[chosen], cols[chosen]] = True
        a = a | a.transpose(0, 2, 1)
        # A draw is binary, symmetric and loop-free by construction, so the
        # one rule it can break is connectivity.
        if _connected(a)[0]:
            return _unchecked_stack(a, [0], [1])[0]


def random_graph(n: int, rng_seed) -> Graph:
    """Random connected graph: edge count uniform in [n-1, n(n-1)/2].

    Deterministic for a fixed seed, an integer >= 0. `rng_seed` may also be
    a Generator, which callers with derived seed streams pass directly.
    """
    is_rng = isinstance(rng_seed, np.random.Generator)
    rng = rng_seed if is_rng else np.random.default_rng(_integer("seed", rng_seed, 0))
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
    return random_connected_graph(n, m, rng)


# ====== walk models ======


def _absorbing_walk(a: np.ndarray, v_target) -> np.ndarray:
    """Jump matrices of float adjacency matrices: of an (n, n) matrix with
    one target, or of a (B, n, n) stack with one target per graph.

    Column u spreads uniformly over u's neighbours; each target column is
    the unit vector at its target, so the walker cannot leave once it
    arrives.
    """
    graphs = () if a.ndim == 2 else (np.arange(len(a)),)
    t = a / a.sum(axis=-2, keepdims=True)
    t[(*graphs, slice(None), v_target)] = 0.0
    t[(*graphs, v_target, v_target)] = 1.0
    return t


def classical_variant(g: Graph) -> np.ndarray:
    """Read-only n x n column-stochastic jump matrix T of the classical
    walk, with the target made absorbing; the walker's generator is T - I."""
    t = _absorbing_walk(g.adjacency.astype(np.float64), g.v_target)
    t.setflags(write=False)
    return t


def quantum_variant(g: Graph, gamma: float = 1.0) -> np.ndarray:
    """Read-only n x n effective Hamiltonian A - (i gamma / 2)|target><target|.

    It drives the quantum walker's no-jump state; the imaginary part at the
    target is its decay, at rate `gamma`, into the sink.
    """
    gamma = _real("gamma", gamma, 0)
    h = g.adjacency.astype(np.complex128)
    h[g.v_target, g.v_target] -= 0.5j * gamma
    h.setflags(write=False)
    return h
