"""Network filters, features, encoded rows, loss, gradients, optimizer,
and persistence.

Every forward, loss and gradient check scores rows from `encode`, so the
batched path is the only one under test.

Tests verify:
- ETE/ETV filter worked values and brute-force oracle agreement, on the
  edge-to-edge filter the full variant runs (`_ete`), the closed-form
  vertex features and the unshifted edge-to-vertex collapse of a map
- feature extraction layout, padding, and relabeling equivariance
- encoded row widths and full-variant weight shapes wherever the channel
  count steps, batch consistency, and width checks
- the closed-form vertex features against the filter route (the
  unshifted collapse of the desymmetrized map and of its desymmetrized
  `_ete`) on padded random stacks, bit for bit
- encoded rows against a graph-by-graph loop oracle at n_max 4, 7, 15, 20
  over lists that mix vertex counts and cross a 64-graph block, bit for
  bit wherever the arithmetic is exact; rows independent of the list a
  graph is encoded in; encode's working memory independent of list length;
  equal rows for models that share the encoding key and differ otherwise
- a full-variant model without hidden units is refused
- full-variant scores against a loop-convolution oracle at n_max 4, 7, 15
- weighted cross-entropy worked values and limits
- analytic gradients of the backpropagation `train` steps by against
  central finite differences (both variants), and the conv-weight gradient
  against a loop oracle at n_max 4 and 15, batches of 1 and 3
- SGD update arithmetic by the model's own rate, the descent property,
  a rate set below 0 refused by `train`, whose input model keeps its weights
- a label count that does not match the rows, and inverse class weights
  over a zero class fraction refused
- prediction tie-breaking and monotone-transform invariance
- last-layer export layout (29 rows per class at n_max=7)
- model file round-trips (bit-exact weights over generated models,
  hypothesis; a numpy-integer seed) and malformed-file rejection, float
  or bool sizes, a weights list, non-finite weights, non-integer seeds,
  a missing or unknown variant and weight names of another variant
  included; the file holds exactly the model's
  fields, and absent optional fields take the class's defaults
- a failed save leaves the previous model file intact and no temporary file
"""
from __future__ import annotations

import dataclasses
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import qwalk._io
from qwalk import (
    CLASSICAL,
    QUANTUM,
    CqcnnModel,
    Example,
    Graph,
    ModelFormatError,
    Schedule,
    build_line_dataset,
    encode,
    export_last_layer,
    feature_slot,
    forward,
    line_graph,
    load_model,
    new_model,
    predicted_class,
    random_graph,
    save_model,
    score_loss,
    train,
)

from qwalk.cqcnn import (
    _backprop,
    _check_inputs,
    _class_weights,
    _ete,
    _shift_collapses,
    _step,
    _vertex_features,
)

from oracles import (
    brute_ete,
    brute_ete_from_edges,
    brute_etv,
    brute_full_scores,
    connected_graphs,
    loop_conv_gradient,
    loop_encoded_row,
    permute_free_vertices,
)

PATH4 = np.array([
    [0, 1, 0, 0],
    [1, 0, 1, 0],
    [0, 1, 0, 1],
    [0, 0, 1, 0],
], dtype=float)

K3 = np.array([
    [0, 1, 1],
    [1, 0, 1],
    [1, 1, 0],
], dtype=float)


def _example(labeling, label):
    g = line_graph(len(labeling), labeling)
    if label == QUANTUM:
        return Example(graph=g, classical_hit_time=9.0, quantum_hit_time=7.0)
    return Example(graph=g, classical_hit_time=3.0, quantum_hit_time=None)


def _rows(model, examples):
    """Encoded input rows and labels of a batch of examples."""
    return encode(model, [e.graph for e in examples]), [e.label for e in examples]


def _scores(model, g):
    return forward(model, encode(model, [g]))[0]


def _loss_and_gradients(model, rows, labels, kappas=(0.5, 0.5), inverse=False):
    """The batch loss and gradients `train` steps by: `_backprop` of the
    model's weights over the rows and their `_class_weights`."""
    arch = _check_inputs(model, rows)
    labels, weight = _class_weights(labels, len(rows), kappas, inverse)
    return _backprop(model.weights, arch, rows, labels, weight)


def _stepped(model, grads):
    """A copy of the model after the update `train` makes, one `_step` by
    the model's own rate."""
    stepped = model.copy()
    _step(stepped.weights, grads, stepped.learning_rate)
    return stepped


def _gradients(model, examples, kappas):
    return _loss_and_gradients(model, *_rows(model, examples), kappas=kappas)[1]


def _batch_loss(model, examples, kappas):
    rows, labels = _rows(model, examples)
    return score_loss(forward(model, rows), labels, kappas=kappas)


# ====== fixed filters ======


def _etv(m):
    """The edge-to-vertex collapse of one map or a stack of maps, as the full
    variant computes it: the unshifted one of the nine shift collapses,
    out[i] = rowsum[i] + colsum[i] - 2*m[i][i]."""
    m = np.asarray(m, dtype=float)
    return _shift_collapses(m.reshape(-1, *m.shape[-2:]))[:, 1, 1].reshape(m.shape[:-1])


def test_ete_on_path4():
    """Path 1-2-3-4: four edge entries count one neighbor, two count two."""
    out = _ete(PATH4)
    values = sorted(out[PATH4 == 1])
    assert values == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    assert np.all(out[PATH4 == 0] == 0)


def test_ete_on_triangle():
    """Every K_3 edge has exactly two neighboring edges."""
    out = _ete(K3)
    assert np.all(out[K3 == 1] == 2.0)
    assert np.all(np.diag(out) == 0)


def test_ete_zero_matrix():
    assert np.array_equal(_ete(np.zeros((4, 4))), np.zeros((4, 4)))


def test_ete_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = rng.normal(size=(5, 5))
        assert np.allclose(_ete(m), brute_ete(m))


def test_ete_matches_edge_list_counts_on_small_graphs():
    """On adjacency input the filter counts neighboring edges exactly."""
    for g in connected_graphs(4):
        a = g.adjacency.astype(float)
        assert np.array_equal(_ete(a), brute_ete_from_edges(g.adjacency))


def test_etv_on_desymmetrized_path4():
    """The degree feature is the collapse of the desymmetrized adjacency,
    and the neighboring-edge feature that of its desymmetrized `_ete`."""
    features = _vertex_features(PATH4.astype(np.int64)[np.newaxis], [0], [1], 4)[0]
    assert np.array_equal(features[:, 0], [1.0, 2.0, 2.0, 1.0])
    assert np.array_equal(features[:, 0], brute_etv(np.triu(PATH4)))
    assert np.array_equal(features[:, 1], [1.0, 3.0, 3.0, 1.0])
    assert np.array_equal(features[:, 1], brute_etv(np.triu(brute_ete(PATH4))))


def test_etv_on_identity():
    assert np.array_equal(_etv(np.eye(5)), np.zeros(5))


def test_etv_on_symmetric_path4():
    """On the raw symmetric adjacency the reduction doubles the degrees."""
    assert np.array_equal(_etv(PATH4), [2.0, 4.0, 4.0, 2.0])


def test_etv_matches_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = rng.normal(size=(6, 6))
        assert np.allclose(_etv(m), brute_etv(m))


def test_desymmetrize_cases():
    """np.triu, the encoder's desymmetrization, keeps each undirected edge
    of a symmetric map once, loses nothing, and is idempotent."""
    upper = np.triu(PATH4)
    assert upper.sum() == 3  # the three edges of the path, once each
    assert np.array_equal(upper + upper.T, PATH4)
    assert np.array_equal(np.triu(upper), upper)  # idempotent
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4))
    sym = m + m.T
    upper = np.triu(sym)
    assert np.array_equal(upper + np.triu(upper, 1).T, sym)


# ====== feature extraction ======


def _features(g, n_max):
    """The simple variant's input row of the one graph g."""
    return encode(new_model("simple", n_max, 0), [g])[0]


def test_feature_slots_are_distinct():
    slots = [0] + [feature_slot(v, f) for v in range(7) for f in (1, 2, 3, 4)]
    assert slots == list(range(29))


def test_features_on_path_132():
    """Middle vertex of line 1-3-2: degree 2, two neighboring edges,
    adjacent to both endpoints."""
    g = line_graph(3, [0, 2, 1])
    f = _features(g, 3)
    middle = 2  # the vertex the labeling places between initial and target
    got = [f[feature_slot(middle, k)] for k in (1, 2, 3, 4)]
    assert got == [2.0, 2.0, 1.0, 1.0]
    assert f[0] == 1.0  # bias slot


def test_feature_one_is_degree():
    g = line_graph(5, [3, 0, 4, 1, 2])
    f = _features(g, 5)
    degrees = g.adjacency.sum(axis=1)
    got = [f[feature_slot(v, 1)] for v in range(5)]
    assert np.array_equal(got, degrees)


def test_feature_three_marks_the_direct_edge():
    """Feature 3 at the target vertex is the initial-target edge bit."""
    joined = line_graph(3, [0, 1, 2])      # edge {0,1} present
    apart = line_graph(3, [0, 2, 1])       # endpoints separated
    f_joined = _features(joined, 3)
    f_apart = _features(apart, 3)
    assert f_joined[feature_slot(1, 3)] == 1.0
    assert f_apart[feature_slot(1, 3)] == 0.0


def test_features_zero_padded():
    g = line_graph(4, [0, 1, 2, 3])
    f = _features(g, 7)
    assert len(f) == 29
    for v in range(4, 7):
        for k in (1, 2, 3, 4):
            assert f[feature_slot(v, k)] == 0.0


def test_features_reject_oversized_graph():
    g = line_graph(5, [0, 1, 2, 3, 4])
    with pytest.raises(ValueError):
        _features(g, 4)


def test_features_are_equivariant_under_relabeling():
    """Permuting free vertices permutes the per-vertex feature blocks."""
    g = line_graph(5, [0, 4, 2, 3, 1])
    perm = [0, 1, 4, 2, 3]
    f = _features(g, 5)
    f_perm = _features(permute_free_vertices(g, perm), 5)
    assert f_perm[0] == f[0]
    for v in range(5):
        for k in (1, 2, 3, 4):
            assert f_perm[feature_slot(perm[v], k)] == f[feature_slot(v, k)], (
                f"vertex {v}->{perm[v]} feature {k}"
            )


# ====== forward pass ======


def test_forward_zero_weights_gives_zero_scores():
    for variant in ("simple", "full"):
        model = new_model(variant, n_max=4, seed=0)
        zeroed = model.copy()
        for w in zeroed.weights.values():
            w[:] = 0.0
        x = _scores(zeroed, line_graph(4, [0, 1, 2, 3]))
        assert np.array_equal(x, [0.0, 0.0])


def test_forward_simple_is_affine_in_features():
    """The simple variant is exactly last-layer-transpose times features."""
    model = new_model("simple", n_max=5, seed=8)
    for labeling in ([0, 1, 2, 3, 4], [2, 0, 3, 1, 4]):
        g = line_graph(5, labeling)
        f = _features(g, model.n_max)
        assert np.array_equal(encode(model, [g])[0], f)
        assert np.allclose(_scores(model, g), model.weights["last"].T @ f)


def test_forward_full_shapes():
    model = new_model("full", n_max=6, seed=1)
    x = _scores(model, line_graph(4, [0, 2, 1, 3]))
    assert x.shape == (2,)
    assert np.all(np.isfinite(x))


def test_encoded_row_widths():
    """Simple rows are the 4*n_max+1 feature vector; full rows hold the
    (9*C, n_max) collapsed-shift block (C = max(1, ceil(log2 n_max)) + 1) and
    the 8*n_max tail: 795 entries at n_max 15. The n_max values include each
    point where C steps. The full variant's conv weight is (n_max, C, 3, 3)
    and its hidden weight reads the bias, the n_max*n_max conv outputs and
    the tail."""
    graphs = [line_graph(4, [0, 2, 1, 3]), line_graph(3, [0, 1, 2])]
    for n_max, simple, full, channels, hidden_in in (
        (3, 13, 105, 3, 34),
        (4, 17, 140, 3, 49),
        (7, 29, 308, 4, 106),
        (8, 33, 352, 4, 129),
        (9, 37, 477, 5, 154),
        (15, 61, 795, 5, 346),
        (16, 65, 848, 5, 385),
        (17, 69, 1054, 6, 426),
    ):
        fits = [g for g in graphs if g.n <= n_max]
        assert encode(new_model("simple", n_max, seed=0), fits).shape == (len(fits), simple)
        model = new_model("full", n_max, seed=0)
        assert encode(model, fits).shape == (len(fits), full)
        assert {name: w.shape for name, w in model.weights.items()} == {
            "conv": (n_max, channels, 3, 3),
            "hidden": (hidden_in, 32),
            "last": (33, 2),
        }


def test_forward_batch_matches_single_rows():
    """Scoring a batch equals scoring each of its rows alone; an empty batch
    gets no scores."""
    graphs = [line_graph(5, lab) for lab in ([0, 1, 2, 3, 4], [2, 0, 3, 1, 4])]
    graphs.append(random_graph(6, 3))
    for variant in ("simple", "full"):
        model = new_model(variant, n_max=6, seed=4)
        rows = encode(model, graphs)
        assert forward(model, rows[:0]).shape == (0, 2)
        batch = forward(model, rows)
        assert batch.shape == (3, 2)
        for row, x in zip(rows, batch):
            assert np.allclose(forward(model, row[None, :])[0], x, rtol=1e-13, atol=0)


def test_forward_rejects_rows_of_another_width():
    simple = new_model("simple", n_max=5, seed=0)
    full = new_model("full", n_max=5, seed=0)
    g = line_graph(4, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        forward(full, encode(simple, [g]))
    with pytest.raises(ValueError):
        forward(simple, encode(new_model("simple", n_max=6, seed=0), [g]))
    with pytest.raises(ValueError):
        encode(full, [line_graph(6, [0, 1, 2, 3, 4, 5])])


def _mixed_graphs(n_max: int, seed: int) -> tuple[list[Graph], list[int]]:
    """A pool of graphs and a list of 69 + n_max indices into it: 70
    three-vertex graphs, more than one 64-graph block of one size, shuffled
    among one graph of every size 3..n_max and one more of n_max. Start and
    target sit on random vertices."""
    rng = np.random.default_rng(seed)

    def placed(n):
        v_init, v_target = rng.choice(n, size=2, replace=False)
        return Graph(random_graph(n, rng).adjacency, int(v_init), int(v_target))

    pool = [placed(3) for _ in range(12)] + [placed(n) for n in range(3, n_max + 1)]
    pool.append(placed(n_max))
    order = [int(k) for k in rng.integers(0, 12, size=70)] + list(range(12, len(pool)))
    rng.shuffle(order)
    return pool, order


@pytest.mark.parametrize("n_max", [4, 7, 15, 20])
def test_encode_matches_loop_oracle(n_max):
    """The closed-form vertex features equal the `_etv`/`_ete` filter route
    bit for bit, and rows equal the graph-by-graph loop oracle. Simple
    rows, and the parts of full rows made by exact arithmetic (integer sums
    of the adjacency channel, scaled vertex features, one-step transition
    rows), match bit for bit; the rest are sums of rounded floats that the
    oracle adds in another order, so they match to a few ulps of n_max-term
    sums."""
    pool, order = _mixed_graphs(n_max, seed=n_max)
    graphs = [pool[k] for k in order]
    # the closed-form vertex features equal the filter route, etv of the
    # desymmetrized matrix and of its desymmetrized ete, on padded stacks
    for n in range(3, n_max + 1):
        group = [g for g in pool if g.n == n]
        a = np.stack([g.adjacency for g in group])
        v_init, v_target = (np.array([getattr(g, name) for g in group])
                            for name in ("v_init", "v_target"))
        padded = np.zeros((len(group), n_max, n_max))
        padded[:, :n, :n] = a
        take = np.arange(len(group))
        route = np.stack([_etv(np.triu(padded)), _etv(np.triu(_ete(padded))),
                          padded[take, v_init], padded[take, v_target]], axis=-1)
        assert np.array_equal(_vertex_features(a, v_init, v_target, n_max), route)
    for variant in ("simple", "full"):
        model = new_model(variant, n_max, seed=0)
        rows = encode(model, graphs)
        want = np.array([loop_encoded_row(model, g) for g in pool])[order]
        assert rows.shape == want.shape
        if variant == "simple":
            assert np.array_equal(rows, want)
            continue
        width = rows.shape[1] - 8 * n_max
        exact = np.r_[0 : 9 * n_max, width : width + 6 * n_max]
        assert np.array_equal(rows[:, exact], want[:, exact])
        tolerance = 4 * n_max * np.finfo(float).eps * np.abs(want).max()
        assert np.abs(rows - want).max() <= tolerance


def test_encoded_row_does_not_depend_on_the_list():
    """A graph's row is the same, bit for bit, whether it is encoded alone
    or inside a list that mixes sizes and spans several blocks."""
    pool, order = _mixed_graphs(9, seed=5)
    graphs = [pool[k] for k in order]
    for variant in ("simple", "full"):
        model = new_model(variant, 9, seed=0)
        alone = np.array([encode(model, [g])[0] for g in graphs])
        assert encode(model, graphs).tobytes() == alone.tobytes()


def test_encode_empty_and_oversized_lists():
    for variant, width in (("simple", 21), ("full", 220)):
        model = new_model(variant, n_max=5, seed=0)
        assert encode(model, []).shape == (0, width)
        with pytest.raises(ValueError, match="6 vertices but the model allows 5"):
            encode(model, [line_graph(4, [0, 1, 2, 3]), line_graph(6, [0, 1, 2, 3, 4, 5])])


def test_encoding_key_covers_everything_encode_reads():
    """Models that share the encoding key but differ in seed, weights,
    learning rate and hidden width get identical rows; the key tells apart
    models whose rows differ."""
    from qwalk.cqcnn import _encoding_key

    pool, order = _mixed_graphs(7, seed=3)
    graphs = [pool[k] for k in order]
    for variant in ("simple", "full"):
        base = new_model(variant, 7, seed=0)
        others = [
            new_model(variant, 7, seed=1, learning_rate=0.5, hidden_width=3),
            _stepped(
                dataclasses.replace(base, learning_rate=0.3),
                {k: np.ones_like(w) for k, w in base.weights.items()},
            ),
        ]
        want = encode(base, graphs).tobytes()
        for other in others:
            assert _encoding_key(other) == _encoding_key(base)
            assert encode(other, graphs).tobytes() == want
    keys = {_encoding_key(new_model(v, n, seed=0)) for v in ("simple", "full") for n in (7, 8)}
    assert len(keys) == 4


def test_full_model_needs_hidden_units(tmp_path):
    """With no hidden units no input reaches the full variant's scores."""
    for width in (0, -1):
        with pytest.raises(ValueError, match=f"^hidden_width must be >= 1, got {width}$"):
            new_model("full", n_max=4, seed=0, hidden_width=width)
    weights = {k: w[..., :0] if k == "hidden" else w
               for k, w in new_model("full", n_max=4, seed=0, hidden_width=1).weights.items()}
    weights["last"] = weights["last"][:1]
    with pytest.raises(ValueError, match="^hidden_width must be >= 1, got 0$"):
        CqcnnModel("full", 4, weights, hidden_width=0)
    assert new_model("simple", n_max=4, seed=0, hidden_width=0).hidden_width == 0
    path = tmp_path / "m.json"
    save_model(new_model("full", n_max=4, seed=0, hidden_width=1), path)
    record = json.loads(path.read_text())
    record["hidden_width"] = 0
    path.write_text(json.dumps(record))
    message = "^invalid model record: hidden_width must be >= 1, got 0$"
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_encode_memory_does_not_grow_with_the_list():
    """Encoding 600 n=15 graphs (full variant) needs at most 256 KiB more
    working memory, beyond the returned rows, than encoding 300."""
    model = new_model("full", n_max=15, seed=0)
    graphs = [random_graph(15, seed) for seed in range(300)]

    def working_bytes(graph_list):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            rows = encode(model, graph_list)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - rows.nbytes

    assert working_bytes(graphs + graphs) <= working_bytes(graphs) + 256 * 1024


@pytest.mark.parametrize("n_max", [4, 7, 15])
def test_forward_full_matches_loop_oracle(n_max):
    """Full-variant scores equal an explicit loop convolution of the channel
    stack, collapsed vertex by vertex, on zero-padded graphs smaller than
    n_max."""
    graphs = [random_graph(n_max - 1, 11 * n_max), line_graph(3, [0, 2, 1])]
    if n_max > 4:
        graphs.append(random_graph(n_max - 2, 11 * n_max + 1))
    for seed in (1, 2):
        model = new_model("full", n_max=n_max, seed=seed)
        got = forward(model, encode(model, graphs))
        for g, x in zip(graphs, got):
            want = brute_full_scores(model, g)
            assert np.abs(x - want).max() < 1e-10, (g.n, x, want)


# ====== loss ======


def test_loss_uniform_scores():
    """Equal scores cost kappa * ln 2."""
    got = score_loss(np.array([[0.0, 0.0]]), [CLASSICAL], kappas=(0.5, 0.5))
    assert abs(got - 0.5 * math.log(2)) < 1e-12
    # through the model path as well
    model = new_model("simple", n_max=3, seed=0)
    zeroed = model.copy()
    zeroed.weights["last"][:] = 0.0
    ex = _example([0, 1, 2], CLASSICAL)
    assert abs(_batch_loss(zeroed, [ex], kappas=(0.5, 0.5)) - 0.3466) < 1e-4


def test_loss_worked_example():
    """x = (1, 0), class 0, kappa 0.6 -> 0.6 ln(1 + e^-1)."""
    got = score_loss(np.array([[1.0, 0.0]]), [CLASSICAL], kappas=(0.6, 0.4))
    assert abs(got - 0.6 * math.log(1 + math.exp(-1))) < 1e-12
    assert abs(got - 0.188) < 1e-3


def test_loss_saturates_to_zero():
    got = score_loss(np.array([[60.0, 0.0]]), [CLASSICAL], kappas=(0.5, 0.5))
    assert 0.0 <= got < 1e-12


def test_loss_is_nonnegative():
    rng = np.random.default_rng(12)
    for _ in range(200):
        x = rng.normal(scale=5.0, size=(1, 2))
        label = int(rng.integers(2))
        kappa = rng.uniform(0.05, 0.95)
        assert score_loss(x, [label], kappas=(kappa, 1 - kappa)) >= 0.0


def test_loss_inverse_weighting_switch():
    x = np.array([[0.0, 0.0]])
    plain = score_loss(x, [QUANTUM], kappas=(0.8, 0.2))
    inverse = score_loss(x, [QUANTUM], kappas=(0.8, 0.2), inverse_class_weights=True)
    assert abs(plain - 0.2 * math.log(2)) < 1e-12
    assert abs(inverse - 5.0 * math.log(2)) < 1e-12


@pytest.mark.parametrize(
    "rows, labels, kappas, message",
    [
        (2, [QUANTUM], (0.5, 0.5), "1 labels for 2 rows of scores"),
        (2, [CLASSICAL, QUANTUM], (1.0, 0.0), "cannot invert zero class fraction for label 1"),
    ],
    ids=["label-count", "inverse-of-zero-fraction"],
)
def test_loss_and_gradients_refuse_a_batch_they_cannot_weigh(rows, labels, kappas, message):
    """A batch has one label per row, and the inverse class weights (always
    asked for here) need every batch label's fraction > 0. `score_loss` and
    `train` weigh rows by the same `_class_weights`."""
    model = new_model("simple", n_max=4, seed=0)
    scores = forward(model, encode(model, [line_graph(4, [0, 1, 2, 3])] * rows))
    with pytest.raises(ValueError, match=f"^{message}$"):
        score_loss(scores, labels, kappas, inverse_class_weights=True)


def test_loss_of_rows_is_their_mean():
    """score_loss over rows is the mean of its one-row values, and it is the
    loss that the backpropagation reports."""
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 2))
    labels = [0, 1, 1, 0, 1]
    for inverse in (False, True):
        rows = [score_loss(x[i : i + 1], labels[i : i + 1], (0.7, 0.3), inverse) for i in range(5)]
        assert abs(score_loss(x, labels, (0.7, 0.3), inverse) - np.mean(rows)) < 1e-15
    with pytest.raises(ValueError):
        score_loss(x, labels[:4])
    batch = [_example([0, 2, 1, 3], QUANTUM), _example([0, 1, 2, 3], CLASSICAL)]
    for variant in ("simple", "full"):
        model = new_model(variant, n_max=5, seed=2)
        rows, batch_labels = _rows(model, batch)
        value, _ = _loss_and_gradients(model, rows, batch_labels, kappas=(0.6, 0.4))
        assert value == score_loss(forward(model, rows), batch_labels, kappas=(0.6, 0.4))


# ====== gradients ======


def _finite_difference_check(variant: str, pairs: int, seed: int) -> float:
    """Worst relative error between analytic and central-difference grads."""
    rng = np.random.default_rng(seed)
    labelings = [[0, 1, 2], [0, 2, 1], [2, 0, 1]]
    worst = 0.0
    h = 1e-5
    for k in range(pairs):
        model = new_model(variant, n_max=4, seed=int(rng.integers(1 << 31)), hidden_width=6)
        ex = _example(labelings[k % 3], QUANTUM if k % 2 else CLASSICAL)
        kappas = (0.7, 0.3)
        rows, labels = _rows(model, [ex])
        _, grads = _loss_and_gradients(model, rows, labels, kappas=kappas)
        for name, grad in grads.items():
            flat = model.weights[name].reshape(-1)
            gflat = grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                perturbed = model.copy()
                pflat = perturbed.weights[name].reshape(-1)
                pflat[idx] += h
                up = score_loss(forward(perturbed, rows), labels, kappas=kappas)
                pflat[idx] -= 2 * h
                down = score_loss(forward(perturbed, rows), labels, kappas=kappas)
                fd = (up - down) / (2 * h)
                denom = max(abs(fd), abs(gflat[idx]), 1.0)
                worst = max(worst, abs(fd - gflat[idx]) / denom)
    return worst


def test_gradients_match_finite_differences_simple():
    worst = _finite_difference_check("simple", pairs=60, seed=100)
    assert worst < 1e-5, f"simple variant: worst relative error {worst:.2e}"


def test_gradients_match_finite_differences_full():
    worst = _finite_difference_check("full", pairs=60, seed=200)
    assert worst < 1e-5, f"full variant: worst relative error {worst:.2e}"


@pytest.mark.parametrize("n_max", [4, 15])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv_gradient_matches_loop_oracle(n_max, batch):
    """The conv-weight gradient, one matrix product over rows and vertices,
    equals the loop oracle's term-by-term sum to 1e-12 of its largest entry."""
    pool, order = _mixed_graphs(n_max, seed=30 + n_max)
    rng = np.random.default_rng(batch)
    graphs = [pool[k] for k in rng.choice(order, size=batch, replace=False)]
    labels = rng.integers(0, 2, size=batch)
    model = new_model("full", n_max, seed=n_max + batch, hidden_width=8)
    rows = encode(model, graphs)
    kappas = (0.7, 0.3)
    conv = _loss_and_gradients(model, rows, labels, kappas)[1]["conv"]
    want = loop_conv_gradient(model, rows, labels, kappas)
    assert np.abs(want).max() > 0
    assert np.abs(conv - want).max() <= 1e-12 * np.abs(want).max()


def test_gradients_vanish_when_saturated():
    """Confident correct scores on every batch member kill the gradient."""
    model = new_model("simple", n_max=3, seed=0)
    zeroed = model.copy()
    zeroed.weights["last"][:] = 0.0
    zeroed.weights["last"][0, CLASSICAL] = 40.0  # bias slot drives the margin
    batch = [_example([0, 1, 2], CLASSICAL), _example([2, 0, 1], CLASSICAL)]
    grads = _gradients(zeroed, batch, kappas=(0.5, 0.5))
    norm = max(np.abs(g).max() for g in grads.values())
    assert norm < 1e-6, f"saturated gradient norm {norm:.2e}"


def test_gradient_of_duplicated_batch_equals_single():
    model = new_model("full", n_max=4, seed=3)
    ex = _example([0, 2, 1, 3], QUANTUM)
    single = _gradients(model, [ex], kappas=(0.5, 0.5))
    tripled = _gradients(model, [ex, ex, ex], kappas=(0.5, 0.5))
    for name in single:
        assert np.allclose(single[name], tripled[name], atol=1e-15)


def test_gradient_is_batch_mean():
    model = new_model("simple", n_max=3, seed=9)
    e1 = _example([0, 1, 2], CLASSICAL)
    e2 = _example([0, 2, 1], QUANTUM)
    g1 = _gradients(model, [e1], kappas=(0.5, 0.5))["last"]
    g2 = _gradients(model, [e2], kappas=(0.5, 0.5))["last"]
    both = _gradients(model, [e1, e2], kappas=(0.5, 0.5))["last"]
    assert np.allclose(both, (g1 + g2) / 2.0)


# ====== optimizer ======


def test_sgd_scalar_arithmetic():
    """w=1, grad=2, lr=0.1 -> w=0.8."""
    model = new_model("simple", n_max=3, seed=0, learning_rate=0.1)
    base = model.copy()
    base.weights["last"][:] = 0.0
    base.weights["last"][0, 0] = 1.0
    grads = {"last": np.zeros_like(base.weights["last"])}
    grads["last"][0, 0] = 2.0
    stepped = _stepped(base, grads)
    assert abs(stepped.weights["last"][0, 0] - 0.8) < 1e-15
    assert np.all(stepped.weights["last"].reshape(-1)[1:] == 0.0)


def test_sgd_zero_lr_is_identity():
    model = new_model("full", n_max=4, seed=2, learning_rate=0.0)
    grads = _gradients(model, [_example([0, 1, 2, 3], CLASSICAL)], kappas=(0.5, 0.5))
    same = _stepped(model, grads)
    for name in model.weights:
        assert np.array_equal(same.weights[name], model.weights[name])


def test_sgd_rejects_negative_lr():
    """A rate set below 0 after the model was made does not step: the copy
    `train` steps passes through CqcnnModel's rate rule."""
    model = new_model("simple", n_max=3, seed=0)
    model.learning_rate = -0.1
    with pytest.raises(ValueError, match="learning rate must be finite and >= 0, got -0.1"):
        train(model, build_line_dataset(3), None, Schedule(epochs=1))


@pytest.mark.parametrize("lr", [-0.1, math.nan, math.inf, -math.inf])
def test_models_refuse_a_rate_that_is_not_finite_and_nonnegative(tmp_path, lr):
    """The rate is checked when the model is made, by new_model, the
    constructor and load_model alike."""
    message = f"learning rate must be finite and >= 0, got {lr}"
    with pytest.raises(ValueError, match=message):
        new_model("simple", n_max=3, seed=0, learning_rate=lr)
    model = new_model("simple", n_max=3, seed=0)
    with pytest.raises(ValueError, match=message):
        CqcnnModel("simple", 3, model.weights, learning_rate=lr)
    path = tmp_path / "m.json"
    save_model(model, path)
    record = json.loads(path.read_text())
    record["learning_rate"] = lr
    path.write_text(json.dumps(record))
    with pytest.raises(ModelFormatError, match=message):
        load_model(path)


def test_sgd_leaves_input_model_alone():
    """`train` steps a copy: the model it is given keeps its weights."""
    model = new_model("simple", n_max=3, seed=4, learning_rate=0.5)
    before = model.weights["last"].copy()
    trained, _ = train(model, build_line_dataset(3), None, Schedule(epochs=3))
    assert not np.array_equal(trained.weights["last"], before)
    assert np.array_equal(model.weights["last"], before)


def test_sgd_descends_on_a_fixed_batch():
    """A small step against the gradient lowers the batch loss."""
    for variant in ("simple", "full"):
        model = new_model(variant, n_max=4, seed=11, learning_rate=1e-4)
        batch = [_example([0, 2, 1, 3], QUANTUM), _example([0, 1, 2, 3], CLASSICAL)]
        kappas = (0.5, 0.5)
        before = _batch_loss(model, batch, kappas)
        stepped = _stepped(model, _gradients(model, batch, kappas=kappas))
        after = _batch_loss(stepped, batch, kappas)
        assert after < before, f"{variant}: loss rose from {before} to {after}"


# ====== prediction ======


def test_predict_tie_goes_classical():
    model = new_model("simple", n_max=3, seed=0)
    zeroed = model.copy()
    zeroed.weights["last"][:] = 0.0
    assert predicted_class(_scores(zeroed, line_graph(3, [0, 2, 1]))) == CLASSICAL


def test_predict_matches_argmax():
    model = new_model("simple", n_max=4, seed=6)
    graphs = [line_graph(4, lab) for lab in ([0, 1, 2, 3], [1, 3, 0, 2], [3, 2, 1, 0])]
    scores = forward(model, encode(model, graphs))
    for x, got in zip(scores, predicted_class(scores)):
        expect = QUANTUM if x[QUANTUM] > x[CLASSICAL] else CLASSICAL
        assert got == expect
        assert predicted_class(x) == expect


def test_predict_invariant_under_monotone_output_transforms():
    """Scaling all weights by a positive constant (x -> 2x) and shifting
    both bias weights (x -> x + c) leave every prediction unchanged."""
    model = new_model("simple", n_max=4, seed=7)
    graphs = [line_graph(4, lab) for lab in ([0, 1, 2, 3], [0, 2, 1, 3], [2, 0, 3, 1])]
    rows = encode(model, graphs)
    base = predicted_class(forward(model, rows)).tolist()

    scaled = model.copy()
    scaled.weights["last"][:] *= 2.0
    assert predicted_class(forward(scaled, rows)).tolist() == base

    shifted = model.copy()
    shifted.weights["last"][0, :] += 3.5  # bias slot feeds both outputs
    assert predicted_class(forward(shifted, rows)).tolist() == base


# ====== export and persistence ======


def test_export_has_29_rows_per_class_at_nmax_7():
    model = new_model("simple", n_max=7, seed=0)
    rows = export_last_layer(model)
    per_class = {}
    for row in rows:
        per_class.setdefault(row["class"], []).append(row)
    assert set(per_class) == {"classical", "quantum"}
    assert len(per_class["classical"]) == 29
    assert len(per_class["quantum"]) == 29
    assert len(rows) == 58


def test_export_matches_recorded_initialization():
    """A freshly seeded model exports exactly its initial weights."""
    model = new_model("simple", n_max=3, seed=42)
    twin = new_model("simple", n_max=3, seed=42)
    for row in export_last_layer(model):
        c = {"classical": CLASSICAL, "quantum": QUANTUM}[row["class"]]
        if row["feature"] == "bias":
            slot = 0
        else:
            slot = feature_slot(int(row["vertex"]), int(row["feature"]))
        assert row["weight"] == twin.weights["last"][slot, c]


def test_model_roundtrip(tmp_path):
    for variant in ("simple", "full"):
        model = new_model(variant, n_max=5, seed=13, learning_rate=0.05, hidden_width=8)
        path = tmp_path / f"{variant}.json"
        save_model(model, path)
        back = load_model(path)
        assert back.variant == model.variant
        assert back.n_max == model.n_max
        assert back.learning_rate == model.learning_rate
        assert back.seed == model.seed
        for name in model.weights:
            assert np.array_equal(back.weights[name], model.weights[name]), name


def test_model_roundtrip_with_numpy_integer_seed(tmp_path):
    model = new_model("simple", 5, np.int64(3))
    assert type(model.seed) is int
    path = tmp_path / "m.json"
    save_model(model, path)
    back = load_model(path)
    assert back.seed == 3
    twin = new_model("simple", 5, 3)
    for name, w in twin.weights.items():
        assert np.array_equal(back.weights[name], w), name


def test_model_roundtrip_with_numpy_integer_sizes(tmp_path):
    """numpy-integer sizes are stored as Python ints, so the model saves, to
    the bytes its plain-int twin gives."""
    pairs = [
        (new_model("simple", np.int64(5), 0), new_model("simple", 5, 0)),
        (new_model("full", np.int64(4), 1, hidden_width=np.int32(4)),
         new_model("full", 4, 1, hidden_width=4)),
    ]
    for k, (model, twin) in enumerate(pairs):
        assert type(model.n_max) is int and type(model.hidden_width) is int
        path, twin_path = tmp_path / f"m{k}.json", tmp_path / f"twin{k}.json"
        save_model(model, path)
        save_model(twin, twin_path)
        assert path.read_bytes() == twin_path.read_bytes()
        back = load_model(path)
        assert (back.n_max, back.hidden_width) == (twin.n_max, twin.hidden_width)


@st.composite
def _models(draw) -> CqcnnModel:
    """Either variant with arbitrary finite weights of the right shapes."""
    shape = new_model(
        draw(st.sampled_from(["simple", "full"])),
        n_max=draw(st.integers(3, 5)),
        seed=draw(st.integers(0, 2**32 - 1)),
        learning_rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        hidden_width=draw(st.integers(1, 4)),
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    weights = {
        name: draw(arrays(np.float64, w.shape, elements=finite))
        for name, w in shape.weights.items()
    }
    return CqcnnModel(
        variant=shape.variant,
        n_max=shape.n_max,
        weights=weights,
        hidden_width=shape.hidden_width,
        learning_rate=shape.learning_rate,
        seed=shape.seed,
    )


@settings(max_examples=60, deadline=None)
@given(model=_models())
def test_model_roundtrip_is_bit_exact(model):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "m.json"
        save_model(model, path)
        back = load_model(path)
    assert (back.variant, back.n_max, back.hidden_width, back.seed) == (
        model.variant, model.n_max, model.hidden_width, model.seed
    )
    assert back.learning_rate == model.learning_rate
    assert set(back.weights) == set(model.weights)
    for name, w in model.weights.items():
        assert back.weights[name].shape == w.shape
        assert back.weights[name].tobytes() == w.tobytes(), name


def test_model_file_is_deterministic(tmp_path):
    model = new_model("simple", n_max=4, seed=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_save_keeps_the_previous_file(tmp_path, monkeypatch):
    """A save that fails leaves the file already at the path byte for byte
    and no temporary file beside it: a numpy seed set on the model after
    `new_model` cannot be serialized, and a failing final rename stands in
    for a write that dies late."""
    path = tmp_path / "model.json"
    save_model(new_model("simple", 5, 3), path)
    before = path.read_bytes()
    unsaveable = new_model("simple", 5, 3)
    unsaveable.seed = np.int64(3)
    with pytest.raises(TypeError):
        save_model(unsaveable, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(qwalk._io.os, "replace", refuse)
    with pytest.raises(OSError):
        save_model(new_model("simple", 5, 4), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_load_model_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ModelFormatError):
        load_model(path)

    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ModelFormatError):
        load_model(path)

    model = new_model("simple", n_max=3, seed=0)
    good = tmp_path / "good.json"
    save_model(model, good)
    record = json.loads(good.read_text())
    record["weights"]["last"] = [[0.0, 0.0]]  # wrong shape
    bad = tmp_path / "badshape.json"
    bad.write_text(json.dumps(record))
    with pytest.raises(ModelFormatError):
        load_model(bad)

    # the version is the integer 1, not a JSON `true` or `1.0`
    for version in (2, True, 1.0, "1", None):
        record = json.loads(good.read_text())
        record["version"] = version
        bad.write_text(json.dumps(record))
        with pytest.raises(ModelFormatError) as info:
            load_model(bad)
        assert str(info.value) == f"unsupported version {version!r}"

    # sizes must be integers, even where a float would give the same shapes
    save_model(new_model("full", n_max=4, seed=0), good)
    for key, value in (("n_max", 4.0), ("hidden_width", 32.0), ("n_max", True)):
        record = json.loads(good.read_text())
        record[key] = value
        bad.write_text(json.dumps(record))
        with pytest.raises(ModelFormatError, match=f"{key} must be an integer"):
            load_model(bad)

    # weights a mapping of finite numbers, the seed null or an integer >= 0,
    # the rate a number, and the variant present
    cases = [
        ("weights", [1, 2], "weights must map names to arrays, got list"),
        ("weights", "nan", "weight 'last' is not finite"),
        ("weights", "inf", "weight 'last' is not finite"),
        ("seed", "abc", "seed must be an integer, got 'abc'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("learning_rate", True, "learning rate must be finite and >= 0, got True"),
        ("variant", None, "missing 1 required positional argument: 'variant'"),
        ("variant", "deep", "variant must be 'simple' or 'full', got 'deep'"),
        ("weights", {"last": [[0.0] * 2] * 13, "hidden": [[0.0]]},
         "variant 'simple' needs weights ['last'], got ['hidden', 'last']"),
    ]
    save_model(new_model("simple", n_max=3, seed=0), good)
    for key, value, message in cases:
        record = json.loads(good.read_text())
        if key == "variant" and value is None:
            del record["variant"]
        elif value in ("nan", "inf"):
            record["weights"]["last"][2][1] = float(value)
        else:
            record[key] = value
        bad.write_text(json.dumps(record))
        with pytest.raises(ModelFormatError, match=f"invalid model record: .*{re.escape(message)}"):
            load_model(bad)


def test_model_file_holds_the_header_and_every_model_field(tmp_path):
    """save_model writes the header keys and exactly the CqcnnModel fields;
    a file without hidden_width, learning_rate or seed loads with the
    class's defaults (32, 0.01 and null)."""
    path = tmp_path / "m.json"
    model = new_model("full", n_max=4, seed=3, learning_rate=0.2)
    save_model(model, path)
    record = json.loads(path.read_text())
    names = {f.name for f in dataclasses.fields(CqcnnModel)}
    assert names == {"variant", "n_max", "weights", "hidden_width", "learning_rate", "seed"}
    assert set(record) == {"format", "version"} | names
    for name in ("hidden_width", "learning_rate", "seed"):
        del record[name]
    path.write_text(json.dumps(record))
    back = load_model(path)
    defaults = (CqcnnModel.hidden_width, CqcnnModel.learning_rate, None)
    assert (back.hidden_width, back.learning_rate, back.seed) == defaults == (32, 0.01, None)
    for name, w in model.weights.items():
        assert np.array_equal(back.weights[name], w)


# ====== initialization and training determinism ======


def test_new_model_is_seed_deterministic():
    a = new_model("full", n_max=5, seed=21)
    b = new_model("full", n_max=5, seed=21)
    c = new_model("full", n_max=5, seed=22)
    for name in a.weights:
        assert np.array_equal(a.weights[name], b.weights[name])
    assert any(not np.array_equal(a.weights[n], c.weights[n]) for n in a.weights)


def test_new_model_init_range():
    model = new_model("full", n_max=6, seed=1)
    for w in model.weights.values():
        assert np.all(w >= -0.1) and np.all(w <= 0.1)


def test_training_trajectories_are_bit_identical():
    """Same seed, same data, same every weight after training twice."""
    from qwalk import Schedule, train

    data = build_line_dataset(4)
    runs = []
    for _ in range(2):
        model = new_model("simple", n_max=4, seed=5)
        trained, _ = train(model, data, None, Schedule(epochs=50, seed=5))
        runs.append(trained)
    for name in runs[0].weights:
        assert np.array_equal(runs[0].weights[name], runs[1].weights[name])
