"""End-to-end acceptance gates, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
its measured numbers.

Criterion 8 documents a known shortfall: on the fixed desk-scale protocol
(n=15, 300/300 random graphs, 500 epochs x 20 batches x 3) the final
training loss clears its gate comfortably, but the best test accuracy any
swept configuration reaches (~0.89 across variants, learning rates
0.005-0.2, widths 4-128, and both class-weighting modes) sits below the
majority-class baseline plus three points (~0.92). The test asserts the
stated gate and is expected to fail until the gate or protocol changes.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from qwalk import (
    CLASSICAL,
    QUANTUM,
    Schedule,
    WalkConfig,
    build_line_dataset,
    build_random_dataset,
    classical_variant,
    ensemble_stats,
    evaluate,
    feature_slot,
    label_graph,
    line_graph,
    merge,
    new_model,
    quantum_variant,
    random_graph,
    split,
    train,
)
from qwalk.cli import main as cli_main
from qwalk.cqcnn import _ete, _vertex_features

from oracles import (
    brute_ete,
    brute_ete_from_edges,
    brute_etv,
    connected_graphs,
    liouvillian_expm_density,
    permute_free_vertices,
)
from test_cqcnn import _example, _finite_difference_check
from test_walkers import _rungs

LINES = {n: build_line_dataset(n) for n in (4, 5, 6, 7)}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_1_three_vertex_labels():
    """All three n=3 line labelings get the exact expected label."""
    out = label_graph(line_graph(3, [0, 2, 1]))
    assert out.label == QUANTUM, "opposite-ends labeling must be quantum"
    for lab in ([0, 1, 2], [2, 0, 1]):
        adjacent = label_graph(line_graph(3, lab))
        assert adjacent.label == CLASSICAL, f"labeling {lab} must be classical"
    print("criterion 1: labels quantum/classical/classical at p_th "
          f"{out.p_threshold:.3f} - pass")


def test_criterion_2_simulation_properties():
    """Physics suite over every connected graph with n <= 5 plus 100
    random graphs with n <= 12, run on the propagators that label them: the
    recorded sink curve against the Liouvillian oracle and never decreasing,
    classical rungs that conserve probability, quantum rungs that contract
    the no-jump state, and hit times unmoved by relabeling free vertices."""
    population = []
    for n in (3, 4, 5):
        population.extend(connected_graphs(n))
    assert len(population) == 770
    rng_sizes = [3 + (k % 10) for k in range(100)]
    population.extend(random_graph(n, 3000 + k) for k, n in enumerate(rng_sizes))

    worst_oracle = 0.0
    worst_drift = 0.0
    worst_excess = -np.inf
    worst_relabel = 0.0
    for g in population:
        out = label_graph(g, record_traces=True)
        sink = out.quantum_trace
        assert np.all(np.diff(sink.values) >= -1e-9), f"sink not monotone (n={g.n})"
        for want in (2.0, 6.0):
            k = int(np.argmin(np.abs(sink.times - want)))
            t = sink.times[k]
            ref = liouvillian_expm_density(g, t)[g.n, g.n].real
            err = abs(sink.values[k] - ref)
            worst_oracle = max(worst_oracle, err)
            assert err < 1e-5, f"oracle mismatch {err:.2e} (n={g.n}, t={t})"

        rungs = _rungs(classical_variant(g) - np.eye(g.n), out.t_max)
        drift = np.abs(rungs.sum(axis=1) - 1.0).max()
        worst_drift = max(worst_drift, drift)
        assert drift < 1e-9, f"probability leak {drift:.2e} (n={g.n})"
        assert rungs.min() >= -1e-12, f"negative probability (n={g.n})"
        # rho is psi psi^dagger plus the sink 1 - ||psi||^2: its trace,
        # Hermiticity and positivity hold while every propagator contracts psi.
        rungs = _rungs(-1j * quantum_variant(g), out.t_max)
        excess = (np.linalg.norm(rungs, 2, axis=(1, 2)) - 1.0).max()
        worst_excess = max(worst_excess, excess)
        assert excess <= 1e-8, f"a rung amplifies psi by {excess:.2e} (n={g.n})"

        free = [v for v in range(g.n) if v not in (g.v_init, g.v_target)]
        if len(free) >= 2:
            perm = list(range(g.n))
            perm[free[0]], perm[free[1]] = perm[free[1]], perm[free[0]]
            base = label_graph(g)
            other = label_graph(permute_free_vertices(g, perm))
            assert base.label == other.label
            for a, b in ((base.classical_hit_time, other.classical_hit_time),
                         (base.quantum_hit_time, other.quantum_hit_time)):
                assert (a is None) == (b is None)
                if a is not None:
                    worst_relabel = max(worst_relabel, abs(a - b))
                    assert abs(a - b) < 1e-4, f"hit time moved {abs(a - b):.2e} (n={g.n})"
    print(f"criterion 2: {len(population)} graphs, worst oracle error "
          f"{worst_oracle:.2e}, worst column-sum drift {worst_drift:.2e}, worst norm "
          f"excess {worst_excess:.2e}, worst relabel drift {worst_relabel:.2e} - pass")


def test_criterion_3_filter_oracles():
    """Filters match brute-force edge counting on every connected graph with
    n <= 5 and reproduce the worked path-4 values: the edge-to-edge filter
    `_ete` the full variant runs, and the closed-form degree and
    neighboring-edge features, the edge-to-vertex filter of the
    desymmetrized adjacency and of its desymmetrized edge-to-edge map."""
    checked = 0
    for n in (3, 4, 5):
        graphs = connected_graphs(n)
        ends = np.zeros(len(graphs), dtype=np.int64), np.ones(len(graphs), dtype=np.int64)
        features = _vertex_features(np.stack([g.adjacency for g in graphs]), *ends, n)
        for g, f in zip(graphs, features):
            a = g.adjacency.astype(float)
            assert np.array_equal(_ete(a), brute_ete_from_edges(g.adjacency))
            assert np.array_equal(f[:, 0], brute_etv(np.triu(a)))
            assert np.array_equal(f[:, 1], brute_etv(np.triu(brute_ete(a))))
            checked += 1
    path4 = line_graph(4, [0, 1, 2, 3]).adjacency
    ete = _ete(path4.astype(float))
    assert sorted(ete[path4 == 1]) == [1.0, 1.0, 1.0, 1.0, 2.0, 2.0]
    degree = _vertex_features(path4[np.newaxis], [0], [1], 4)[0, :, 0]
    assert np.array_equal(degree, [1.0, 2.0, 2.0, 1.0])
    print(f"criterion 3: {checked} graphs, worked values exact - pass")


def test_criterion_4_gradient_check():
    """Analytic vs central finite differences on 100+ model/example pairs."""
    worst_simple = _finite_difference_check("simple", pairs=60, seed=417)
    worst_full = _finite_difference_check("full", pairs=60, seed=418)
    assert worst_simple < 1e-5, f"simple variant worst {worst_simple:.2e}"
    assert worst_full < 1e-5, f"full variant worst {worst_full:.2e}"
    print(f"criterion 4: 120 pairs, worst relative error simple "
          f"{worst_simple:.2e} / full {worst_full:.2e} - pass")


def test_criterion_5_same_size_line_learning():
    """10-seed average held-out accuracy >= 0.85 on 90% of n=4,5 lines."""
    pool = merge([LINES[4], LINES[5]])
    accs = []
    for seed in range(10):
        tr, te = split(pool, 0.9, seed=seed)
        model = new_model("simple", n_max=5, seed=seed)
        model, _ = train(model, tr, te, Schedule(epochs=2000, seed=seed))
        accs.append(evaluate(model, te).accuracy)
    mean = float(np.mean(accs))
    print(f"criterion 5: held-out accuracy mean {mean:.4f} over 10 seeds "
          f"(min {min(accs):.4f}) - {'pass' if mean >= 0.85 else 'FAIL'}")
    assert mean >= 0.85, f"mean held-out accuracy {mean:.4f} < 0.85"


def test_criterion_6_cross_size_generalization():
    """Trained on n=4,5 lines; accuracy >= 0.55 on n=6 and on n=7."""
    model = new_model("simple", n_max=7, seed=0)
    model, _ = train(model, merge([LINES[4], LINES[5]]), None, Schedule(epochs=2000, seed=0))
    acc6 = evaluate(model, LINES[6]).accuracy
    acc7 = evaluate(model, LINES[7]).accuracy
    print(f"criterion 6: accuracy n=6 {acc6:.4f}, n=7 {acc7:.4f} - "
          f"{'pass' if min(acc6, acc7) >= 0.55 else 'FAIL'}")
    assert acc6 >= 0.55, f"n=6 accuracy {acc6:.4f}"
    assert acc7 >= 0.55, f"n=7 accuracy {acc7:.4f}"


def test_criterion_7_weight_interpretability():
    """20-seed ensemble: initial-target edge features weigh negative for
    the quantum class, positive for the classical class, and the class
    columns anti-correlate."""
    pool = merge([LINES[n] for n in (4, 5, 6, 7)])
    runs = []
    for seed in range(20):
        model = new_model("simple", n_max=7, seed=seed)
        runs.append(train(model, pool, None, Schedule(epochs=2000, seed=seed)))
    w = ensemble_stats(runs).last_layer_mean
    edge_slots = (feature_slot(1, 3), feature_slot(0, 4))  # both read edge {0,1}
    for slot in edge_slots:
        assert w[slot, QUANTUM] < 0, f"slot {slot} quantum weight {w[slot, QUANTUM]:+.4f}"
        assert w[slot, CLASSICAL] > 0, f"slot {slot} classical weight {w[slot, CLASSICAL]:+.4f}"
    r = float(np.corrcoef(w[:, CLASSICAL], w[:, QUANTUM])[0, 1])
    print(f"criterion 7: edge-feature weights quantum "
          f"{w[edge_slots[0], QUANTUM]:+.3f}/{w[edge_slots[1], QUANTUM]:+.3f}, "
          f"classical {w[edge_slots[0], CLASSICAL]:+.3f}/{w[edge_slots[1], CLASSICAL]:+.3f}, "
          f"column correlation {r:.4f} - {'pass' if r < -0.8 else 'FAIL'}")
    assert r < -0.8, f"class columns correlate at {r:.4f}, need < -0.8"


def test_criterion_8_random_graph_desk_scale():
    """Desk-scale random-graph gate: n=15, 300/300, 500 x 20 x 3.

    Expected to fail on the accuracy clause; see the module docstring.
    """
    train_set = build_random_dataset(15, 300, seed=20260817)
    test_set = build_random_dataset(15, 300, seed=20260818)
    baseline = max(test_set.class_fractions)

    model = new_model("full", n_max=15, seed=0, learning_rate=0.1)
    schedule = Schedule(epochs=500, batches_per_epoch=20, batch_size=3, seed=0)
    model, history = train(model, train_set, test_set, schedule)

    final_loss = history[-1]["train_loss"]
    metrics = evaluate(model, test_set)
    acc = metrics.accuracy
    gate = baseline + 0.03
    print(f"criterion 8: final training loss {final_loss:.4f} (gate < 0.05: "
          f"{'pass' if final_loss < 0.05 else 'FAIL'}); "
          f"test accuracy {acc:.4f} vs baseline {baseline:.4f} + 0.03 = {gate:.4f} "
          f"({'pass' if acc >= gate else 'FAIL'}); "
          f"recall classical {metrics.recall[CLASSICAL]:.3f}, "
          f"quantum {metrics.recall[QUANTUM]:.3f}")
    assert final_loss < 0.05, f"final training loss {final_loss:.4f} >= 0.05"
    assert acc >= gate, (
        f"test accuracy {acc:.4f} below majority baseline {baseline:.4f} + 3 points"
    )


def test_criterion_9_manifest_determinism(tmp_path):
    """Rerunning any command from its manifest reproduces identical bytes."""
    data = tmp_path / "d.jsonl"
    rc = cli_main(["gen-dataset", "random", "--n", "5", "--count", "10",
                   "--seed", "77", "--out", str(data)])
    assert rc == 0
    model = tmp_path / "m.json"
    rc = cli_main(["train", "--train", str(data), "--epochs", "25", "--seed", "6",
                   "--model-out", str(model)])
    assert rc == 0

    checks = []
    for artifact in (data, model):
        before = _sha(artifact)
        manifest = artifact.parent / (artifact.name + ".manifest.json")
        assert json.loads(manifest.read_text())["outputs"]
        rc = cli_main(["rerun", str(manifest)])
        assert rc == 0, f"rerun failed for {artifact.name}"
        assert _sha(artifact) == before, f"{artifact.name} drifted on rerun"
        checks.append(artifact.name)
    print(f"criterion 9: checksum-identical reruns for {', '.join(checks)} - pass")
