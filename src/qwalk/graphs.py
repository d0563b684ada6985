"""Graph construction, sampling, and the two walk models of a graph.

Vertices are 0-based indices. Every constructor marks vertex 0 as the
walker's starting vertex and vertex 1 as the detection target, so a path
graph is "interesting" exactly when those two sit far apart along it.

The walk models are plain n x n matrices read straight from a `Graph`:
the classical walker's column-stochastic jump matrix with the target made
absorbing, and the quantum walker's effective Hamiltonian
A - (i gamma / 2)|target><target|, whose anti-Hermitian part is the
target's leak into the sink.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "line_graph",
    "enumerate_line_graphs",
    "random_graph",
    "random_connected_graph",
    "permute_free_vertices",
    "classical_variant",
    "quantum_variant",
]


def _is_connected(adjacency: np.ndarray) -> bool:
    # Squaring the walk-length-<=1 reachability k times covers every walk of
    # length <= 2^k; the clamp to 1 keeps the entries from overflowing.
    n = adjacency.shape[0]
    reach = np.eye(n) + adjacency
    for _ in range((n - 1).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return bool(reach[0].all())


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
        n = a.shape[0]
        if n < 3:
            raise ValueError(f"need at least 3 vertices, got {n}")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        a = a.astype(np.int64)
        if (a != a.T).any():
            raise ValueError("adjacency must be symmetric")
        if np.diag(a).any():
            raise ValueError("adjacency diagonal must be zero")
        for name, v in (("v_init", self.v_init), ("v_target", self.v_target)):
            if not isinstance(v, (int, np.integer)) or not 0 <= v < n:
                raise ValueError(f"{name}={v!r} is not a vertex index in [0, {n})")
        if self.v_init == self.v_target:
            raise ValueError("v_init and v_target must differ")
        if not _is_connected(a):
            raise ValueError("graph must be connected")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "v_init", int(self.v_init))
        object.__setattr__(self, "v_target", int(self.v_target))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        return int(self.adjacency.sum()) // 2

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
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    seq = [int(v) for v in labeling]
    if sorted(seq) != list(range(n)):
        raise ValueError(f"labeling {labeling!r} is not a permutation of range({n})")
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in zip(seq, seq[1:]):
        a[u, v] = a[v, u] = 1
    return Graph(a)


def _line_labelings(n: int):
    """Each labeling of the n-vertex path that reads no later than its reverse."""
    return (perm for perm in itertools.permutations(range(n)) if perm <= perm[::-1])


def enumerate_line_graphs(n: int) -> list[Graph]:
    """All distinct path graphs on n vertices, one per reversal pair.

    A labeling and its reverse describe the same path, so exactly n!/2
    graphs come back, in lexicographic order of the kept labeling.
    """
    if not 3 <= n <= 12:
        raise ValueError(f"n must be in [3, 12], got {n}")
    return [line_graph(n, perm) for perm in _line_labelings(n)]


def random_connected_graph(n: int, m: int, rng: np.random.Generator) -> Graph:
    """Uniform connected graph with exactly m edges, by rejection sampling.

    Draws an m-subset of the vertex pairs uniformly and redraws (same m)
    until the result is connected, which preserves uniformity over
    connected graphs with that edge count.
    """
    max_m = n * (n - 1) // 2
    if not n - 1 <= m <= max_m:
        raise ValueError(f"m={m} out of range [{n - 1}, {max_m}] for n={n}")
    rows, cols = np.triu_indices(n, k=1)
    while True:
        chosen = rng.choice(max_m, size=m, replace=False)
        a = np.zeros((n, n), dtype=np.int64)
        a[rows[chosen], cols[chosen]] = 1
        a = a + a.T
        if _is_connected(a):
            return Graph(a)


def random_graph(n: int, rng_seed) -> Graph:
    """Random connected graph: edge count uniform in [n-1, n(n-1)/2].

    Deterministic for a fixed seed. `rng_seed` may also be a Generator,
    which callers with derived seed streams pass directly.
    """
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    m = int(rng.integers(n - 1, n * (n - 1) // 2 + 1))
    return random_connected_graph(n, m, rng)


def permute_free_vertices(g: Graph, perm) -> Graph:
    """Relabel vertices by `perm` (old index -> new index).

    The start and target vertices must stay fixed; walk dynamics are
    invariant under any such relabeling.
    """
    n = g.n
    p = [int(v) for v in perm]
    if sorted(p) != list(range(n)):
        raise ValueError(f"perm {perm!r} is not a permutation of range({n})")
    if p[g.v_init] != g.v_init or p[g.v_target] != g.v_target:
        raise ValueError("perm must fix v_init and v_target")
    inv = np.argsort(np.asarray(p))
    a = g.adjacency[np.ix_(inv, inv)]
    return Graph(a, v_init=g.v_init, v_target=g.v_target)


# ====== walk models ======


def _absorbing_walk(a: np.ndarray, v_target) -> np.ndarray:
    """(B, n, n) jump matrices of a (B, n, n) stack of float adjacency
    matrices, one target per graph.

    Column u spreads uniformly over u's neighbours; each target column is
    the unit vector at its target, so the walker cannot leave once it
    arrives.
    """
    take = np.arange(len(a))
    t = a / a.sum(axis=1, keepdims=True)
    t[take, :, v_target] = 0.0
    t[take, v_target, v_target] = 1.0
    return t


def classical_variant(g: Graph) -> np.ndarray:
    """Read-only n x n column-stochastic jump matrix T of the classical
    walk, with the target made absorbing; the walker's generator is T - I."""
    t = _absorbing_walk(g.adjacency[np.newaxis].astype(np.float64), [g.v_target])[0]
    t.setflags(write=False)
    return t


def quantum_variant(g: Graph, gamma: float = 1.0) -> np.ndarray:
    """Read-only n x n effective Hamiltonian A - (i gamma / 2)|target><target|.

    It drives the quantum walker's no-jump state; the imaginary part at the
    target is its decay, at rate `gamma`, into the sink.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    h = g.adjacency.astype(np.complex128)
    h[g.v_target, g.v_target] -= 0.5j * float(gamma)
    h.setflags(write=False)
    return h
