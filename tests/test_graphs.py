"""Graph construction, enumeration, sampling, and simulation variants.

Tests verify:
- Graph validation rejects malformed adjacency input
- the stacked validator accepts exactly the graphs `Graph` accepts one at
  a time, and names the first rejected one with `Graph`'s message
  (hypothesis)
- the constructors, which skip those checks, build only graphs that pass
  them: every enumerated line graph, line-dataset graph and random graph,
  and the stacked validator passes every relabeled graph
- line graphs and their exhaustive enumeration, as `build_line_dataset`
  makes it (n!/2, all distinct, in lexicographic order of the kept
  labeling)
- classical variant is a read-only column-stochastic n x n jump matrix with
  an absorbing target, generating the walk through T - I
- quantum variant is the read-only n x n effective Hamiltonian: the
  adjacency off the target diagonal, -i gamma/2 at (target, target)
- random connected graphs are uniform over the target support
- the relabeling the invariance tests use (`oracles.permute_free_vertices`)
  keeps the endpoints, the edge count and the degrees
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalk import (
    Graph,
    build_line_dataset,
    classical_variant,
    line_graph,
    quantum_variant,
    random_connected_graph,
    random_graph,
)
from qwalk.graphs import (
    _BLOCK_GRAPHS,
    _first_fault,
    _line_labelings,
    _path_graphs,
    _unchecked_stack,
)
from qwalk.walkers import _Ladder

from oracles import connected_graphs, loop_walk_matrix, permute_free_vertices

PATH4 = np.array([
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [0, 0, 1, 0],
])


def _edge_count(g):
    return int(g.adjacency.sum()) // 2


def _line_graphs(n):
    """Every distinct path graph on n vertices, as `build_line_dataset`
    enumerates them."""
    return list(_path_graphs(_line_labelings(n)))


# ====== Graph validation ======


def test_graph_accepts_valid_adjacency():
    g = Graph(PATH4)
    assert g.n == 4
    assert _edge_count(g) == 3
    assert g.v_init == 0 and g.v_target == 1


def test_graph_rejects_bad_input():
    """Every documented precondition violation raises ValueError."""
    with pytest.raises(ValueError):
        Graph(np.zeros((3, 4), dtype=np.int64))  # not square
    with pytest.raises(ValueError):
        Graph(np.array([[0, 1], [1, 0]]))  # n < 3
    a = PATH4.copy()
    a[0, 1] = 2
    with pytest.raises(ValueError):
        Graph(a)  # non-binary entry
    a = PATH4.copy()
    a[0, 1] = 0
    with pytest.raises(ValueError):
        Graph(a)  # asymmetric
    a = PATH4.copy()
    a[2, 2] = 1
    with pytest.raises(ValueError):
        Graph(a)  # self-loop
    a = np.zeros((4, 4), dtype=np.int64)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 2] = 1
    with pytest.raises(ValueError):
        Graph(a)  # disconnected
    with pytest.raises(ValueError):
        Graph(PATH4, v_init=1, v_target=1)  # endpoints must differ
    with pytest.raises(ValueError):
        Graph(PATH4, v_init=0, v_target=4)  # out of range


@pytest.mark.parametrize(
    "adjacency, v_init, v_target, message",
    [
        (np.zeros((3, 4)), 0, 1, "adjacency must be square, got shape (3, 4)"),
        (np.zeros((2, 2)), 0, 1, "need at least 3 vertices, got 2"),
        (PATH4 * 2, 0, 1, "adjacency entries must be 0 or 1"),
        (np.triu(PATH4), 0, 1, "adjacency must be symmetric"),
        (PATH4 + np.diag([0, 0, 1, 0]), 0, 1, "adjacency diagonal must be zero"),
        (PATH4, -1, 1, "v_init=-1 is not a vertex index in [0, 4)"),
        (PATH4, 0, 1.0, "v_target=1.0 is not a vertex index in [0, 4)"),
        (PATH4, 2, 2, "v_init and v_target must differ"),
        (np.kron(np.eye(2, dtype=int), [[0, 1], [1, 0]]), 0, 1, "graph must be connected"),
        # the first broken rule names the fault
        (np.triu(PATH4) + np.eye(4, dtype=int), 0, 0, "adjacency must be symmetric"),
        (np.zeros((4, 4)), 0, 0, "v_init and v_target must differ"),
        # a bool is a Python int, but not a vertex index
        (PATH4, 0, True, "v_target=True is not a vertex index in [0, 4)"),
        (PATH4, False, 1, "v_init=False is not a vertex index in [0, 4)"),
    ],
)
def test_graph_rejection_messages(adjacency, v_init, v_target, message):
    with pytest.raises(ValueError) as info:
        Graph(adjacency, v_init, v_target)
    assert str(info.value) == message


def test_graph_equality_covers_endpoints():
    g1 = Graph(PATH4)
    g2 = Graph(PATH4, v_init=0, v_target=2)
    assert g1 == Graph(PATH4)
    assert g1 != g2


@st.composite
def _stacks(draw):
    """A (B, n, n) 0/1 stack of random symmetric matrices, each of which may
    get one entry flipped (asymmetry or a self-loop) and endpoints that
    repeat or fall outside the vertex range."""
    n = draw(st.integers(3, 6))
    b = draw(st.integers(1, 6))
    stack = np.zeros((b, n, n), dtype=np.int64)
    rows, cols = np.triu_indices(n, k=1)
    v_init, v_target = [0] * b, [1] * b
    for k, a in enumerate(stack):
        a[rows, cols] = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
        a += a.T
        if draw(st.integers(0, 5)) == 0:
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            a[i, j] ^= 1
        if draw(st.integers(0, 5)) == 0:
            v_init[k], v_target[k] = draw(st.integers(-1, n)), draw(st.integers(-1, n))
    return stack, v_init, v_target


def _one_at_a_time(stack, v_init, v_target):
    """(index, message) of the first matrix `Graph` rejects, or None."""
    for k, (a, s, t) in enumerate(zip(stack, v_init, v_target)):
        try:
            Graph(a, s, t)
        except ValueError as exc:
            return k, str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(case=_stacks())
def test_stacked_validator_agrees_with_graph(case):
    stack, v_init, v_target = case
    expected = _one_at_a_time(stack, v_init, v_target)
    assert _first_fault(stack, v_init, v_target) == expected
    if expected is None:
        graphs = _unchecked_stack(stack, v_init, v_target)
        assert graphs == [Graph(a, s, t) for a, s, t in zip(stack, v_init, v_target)]
        assert all(not g.adjacency.flags.writeable for g in graphs)


@pytest.mark.parametrize(
    "bad", [[], [_BLOCK_GRAPHS + 3], [_BLOCK_GRAPHS + 3, 2 * _BLOCK_GRAPHS + 1]]
)
def test_stacked_validator_counts_across_blocks(bad):
    """Stacks longer than one block: the first bad graph is named by its
    index in the whole stack."""
    size = 2 * _BLOCK_GRAPHS + 10
    stack = np.repeat(PATH4[np.newaxis], size, axis=0)
    v_target = [1] * size
    for k in bad:
        v_target[k] = 0
    expected = (bad[0], "v_init and v_target must differ") if bad else None
    assert _first_fault(stack, [0] * size, v_target) == expected
    assert _one_at_a_time(stack, [0] * size, v_target) == expected


# ====== constructors keep the Graph rules ======


def _pass_graph_rules(graphs) -> bool:
    """Whether every graph is a read-only int64 one that `_first_fault`
    passes, checked in one stack per vertex count."""
    groups: dict[int, list] = {}
    for g in graphs:
        assert g.adjacency.dtype == np.int64 and not g.adjacency.flags.writeable
        groups.setdefault(g.n, []).append(g)
    return all(
        _first_fault(
            np.stack([g.adjacency for g in group]),
            [g.v_init for g in group],
            [g.v_target for g in group],
        ) is None
        for group in groups.values()
    )


@pytest.mark.parametrize("n", range(3, 9))
def test_enumerated_line_graphs_keep_the_graph_rules(n):
    assert _pass_graph_rules(_line_graphs(n))


@pytest.mark.parametrize("n", range(3, 8))
def test_line_dataset_graphs_keep_the_graph_rules(n):
    assert _pass_graph_rules([e.graph for e in build_line_dataset(n)])


def test_random_graphs_keep_the_graph_rules():
    """20 seeds at each n = 3..20, and trees, where rejection is most frequent."""
    rng = np.random.default_rng(7)
    graphs = [random_graph(n, seed) for n in range(3, 21) for seed in range(20)]
    graphs += [random_connected_graph(n, n - 1, rng) for n in range(3, 21) for _ in range(5)]
    assert _pass_graph_rules(graphs)


def test_relabeled_graphs_keep_the_graph_rules():
    """Relabeled graphs, which `Graph` accepts one at a time, pass the
    stacked validator."""
    rng = np.random.default_rng(5)
    graphs = []
    for n in range(3, 13):
        for seed in range(10):
            perm = [0, 1, *(2 + rng.permutation(n - 2)).tolist()]
            graphs.append(permute_free_vertices(random_graph(n, seed), perm))
    assert _pass_graph_rules(graphs)


# ====== line graphs ======


def test_line_graph_identity_labeling():
    """Labeling 1-2-3-4 produces the plain path adjacency."""
    g = line_graph(4, [0, 1, 2, 3])
    assert np.array_equal(g.adjacency, PATH4)


def test_line_graph_permuted_labeling():
    """Labeling 1-3-2 wires vertex 0 to 2 and 2 to 1 but not 0 to 1."""
    g = line_graph(3, [0, 2, 1])
    assert g.adjacency[0, 2] == 1
    assert g.adjacency[2, 1] == 1
    assert g.adjacency[0, 1] == 0


def test_line_graph_rejects_bad_labeling():
    with pytest.raises(ValueError):
        line_graph(4, [0, 1, 2])  # wrong length
    with pytest.raises(ValueError):
        line_graph(4, [0, 1, 2, 2])  # not a permutation
    with pytest.raises(ValueError):
        line_graph(2, [0, 1])  # below minimum size
    # entries that are not integers are refused, not truncated or read as 0/1
    for labeling in ([0, 2.7, 1.2], [0, 2.0, 1], [False, True, 2]):
        with pytest.raises(ValueError) as info:
            line_graph(3, labeling)
        assert str(info.value) == f"labeling {labeling!r} is not a permutation of range(3)"


def test_enumerate_line_graphs_counts():
    """Exhaustive enumeration has n!/2 members (reversal symmetry)."""
    for n, expect in ((3, 3), (4, 12), (5, 60)):
        graphs = _line_graphs(n)
        assert len(graphs) == expect, f"n={n}: got {len(graphs)}"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_line_graphs_order(n):
    kept = [perm for perm in itertools.permutations(range(n)) if perm <= perm[::-1]]
    assert _line_graphs(n) == [line_graph(n, perm) for perm in kept]


def test_enumerate_line_graphs_distinct():
    """No two enumerated labelings share an adjacency matrix."""
    graphs = _line_graphs(5)
    keys = {g.adjacency.tobytes() for g in graphs}
    assert len(keys) == len(graphs)


# ====== walk models ======


def test_classical_variant_columns():
    """Columns sum to one; the target column is the target unit vector;
    every entry matches the loop-built walk matrix; the matrix is read-only."""
    g = line_graph(4, [0, 2, 1, 3])
    t = classical_variant(g)
    assert t.shape == (4, 4)
    sums = t.sum(axis=0)
    assert np.allclose(sums, 1.0)
    target_col = np.zeros(4)
    target_col[g.v_target] = 1.0
    assert np.array_equal(t[:, g.v_target], target_col)
    assert np.allclose(t, loop_walk_matrix(g), rtol=0.0, atol=1e-15)
    assert not t.flags.writeable


def test_classical_variant_worked_example():
    """Path 1-2-3: vertex 0 sends all mass to 1, vertex 2 splits nowhere
    (degree 1), and column 1 is absorbing."""
    g = line_graph(3, [0, 1, 2])
    t = classical_variant(g)
    expect = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
    ])
    assert np.allclose(t, expect), f"transition:\n{t}"


def test_classical_generator_is_transition_minus_identity():
    """The classical walk's generator is T - I: from the start vertex, the
    first-order term of the label path's in-step Taylor series, over its
    step, is T's start column minus the start unit vector."""
    g = line_graph(5, [0, 3, 1, 4, 2])
    t = classical_variant(g)
    ladder = _Ladder(t - np.eye(5))
    velocity = ladder.series(np.eye(5)[g.v_init])[1] / ladder.step(0)
    assert np.allclose(velocity, (t - np.eye(5))[:, g.v_init], atol=1e-6)


def test_quantum_variant_shape_and_symmetry():
    """H_eff is n x n: the adjacency off the target diagonal, -i gamma/2 at
    (target, target), read-only."""
    g = line_graph(4, [0, 1, 2, 3])
    h = quantum_variant(g)
    assert h.shape == (4, 4)
    assert not h.flags.writeable
    off = np.ones((4, 4), dtype=bool)
    off[g.v_target, g.v_target] = False
    assert np.array_equal(h[off], g.adjacency[off])
    assert h[g.v_target, g.v_target] == -0.5j
    assert np.array_equal(h, h.T)


def test_quantum_variant_custom_gamma():
    g = line_graph(3, [0, 1, 2])
    assert quantum_variant(g, gamma=0.25)[g.v_target, g.v_target] == -0.125j
    for gamma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            quantum_variant(g, gamma=gamma)


# ====== random graphs ======


def test_random_connected_graph_edge_count():
    rng = np.random.default_rng(11)
    for m in (4, 6, 10):
        g = random_connected_graph(5, m, rng)
        assert _edge_count(g) == m
        assert g.n == 5


def test_random_connected_graph_rejects_bad_m():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_connected_graph(5, 3, rng)  # below tree threshold
    with pytest.raises(ValueError):
        random_connected_graph(5, 11, rng)  # above complete graph


def test_random_graph_is_deterministic():
    g1 = random_graph(8, 1234)
    g2 = random_graph(8, 1234)
    assert g1 == g2
    g3 = random_graph(8, 1235)
    assert g1 != g3  # overwhelmingly likely for n=8


def test_random_graph_edge_bounds():
    for seed in range(50):
        g = random_graph(6, seed)
        assert 5 <= _edge_count(g) <= 15


def test_connected_graph_counts_match_exhaustive_enumeration():
    """Sanity anchor for the sampler's support: the number of connected
    labeled graphs on 3, 4, 5 vertices is 4, 38, 728."""
    assert [len(connected_graphs(n)) for n in (3, 4, 5)] == [4, 38, 728]


def test_random_connected_graph_uniform_over_trees():
    """10,000 draws at n=5, m=4 land uniformly on the 125 labeled trees.

    Cayley's formula gives 5^3 = 125 trees on 5 labeled vertices, so each
    should appear about 80 times. We allow four standard deviations of
    multinomial noise, sigma = sqrt(N p (1-p)) ~ 8.9.
    """
    rng = np.random.default_rng(2026)
    draws = 10_000
    counts: dict[bytes, int] = {}
    for _ in range(draws):
        g = random_connected_graph(5, 4, rng)
        key = g.adjacency.tobytes()
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 125, f"saw {len(counts)} distinct trees, expected 125"
    p = 1.0 / 125.0
    expected = draws * p
    sigma = np.sqrt(draws * p * (1 - p))
    worst = max(abs(c - expected) for c in counts.values())
    assert worst < 4 * sigma, f"worst deviation {worst:.1f} vs 4 sigma = {4 * sigma:.1f}"


# ====== relabeling (`oracles.permute_free_vertices`) ======


def test_permute_free_vertices_fixes_endpoints():
    g = line_graph(5, [0, 2, 4, 1, 3])
    h = permute_free_vertices(g, [0, 1, 3, 2, 4])
    assert h.v_init == g.v_init and h.v_target == g.v_target
    assert _edge_count(h) == _edge_count(g)
    assert sorted(h.adjacency.sum(axis=0)) == sorted(g.adjacency.sum(axis=0))


def test_permute_free_vertices_rejects_non_integers():
    """A float or bool entry of a vertex permutation is refused, not
    truncated or read as 0/1. The relabeling helper is test-only, so the
    rule is checked where the package keeps it, in `line_graph`."""
    for perm in ([0, 1, 3.5, 2], [0, True, 2, 3]):
        with pytest.raises(ValueError) as info:
            line_graph(4, perm)
        assert str(info.value) == f"labeling {perm!r} is not a permutation of range(4)"


def test_permute_free_vertices_identity():
    g = line_graph(4, [0, 3, 1, 2])
    assert permute_free_vertices(g, [0, 1, 2, 3]) == g
