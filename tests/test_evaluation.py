"""Metrics, the training loop, ensembles, and CSV export.

Tests verify:
- hand-counted metrics on a 2-classical / 1-quantum set
- undefined precision/recall reported as absent, never zero
- evaluate leaves the model bit-identical
- history rows: untrained epoch-0 baseline, eval cadence, final epoch
- divergence raises a training error naming the epoch
- `train` gives the weights and history of a hand-driven step path (the
  same batch draws through `cqcnn._backprop` over `cqcnn._class_weights`,
  `cqcnn._step` on a fresh copy per batch, and `evaluate`) bit for bit,
  and diverges at the same epoch
- a dataset is encoded once per encoding key, however many train and
  evaluate calls read it in a row; it keeps one key's rows only; the kept
  rows are read-only, leave `==` and `repr` alone, and train exactly as
  freshly encoded rows do; the rows a merged, split dataset of several
  vertex counts reads from its stacks equal `encode` of its graphs
- ensemble mean/deviation identities, and the architecture, schedule and
  at-least-one-run checks
- CSV writers' layouts
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from qwalk import (
    CLASSICAL,
    LABEL_NAMES,
    QUANTUM,
    Dataset,
    Example,
    Schedule,
    TrainingError,
    build_line_dataset,
    encode,
    ensemble_stats,
    evaluate,
    forward,
    line_graph,
    load,
    new_model,
    save,
    score_loss,
    split,
    train,
    write_history_csv,
    write_metrics_csv,
)

from test_cqcnn import _loss_and_gradients, _stepped

LINES4 = build_line_dataset(4)


def _example(labeling, label):
    g = line_graph(len(labeling), labeling)
    if label == QUANTUM:
        return Example(graph=g, classical_hit_time=9.0, quantum_hit_time=7.0)
    return Example(graph=g, classical_hit_time=3.0, quantum_hit_time=None)


def _tiny_mixed() -> Dataset:
    """Two classical examples and one quantum one."""
    examples = (
        _example([0, 1, 2], CLASSICAL),
        _example([2, 0, 1], CLASSICAL),
        _example([0, 2, 1], QUANTUM),
    )
    return Dataset(examples=examples, split_tag="unsplit", metadata={})


def _all_classical_model(n_max=3):
    """Zero weights except a large classical bias: predicts class 0 always."""
    model = new_model("simple", n_max=n_max, seed=0)
    fixed = model.copy()
    fixed.weights["last"][:] = 0.0
    fixed.weights["last"][0, CLASSICAL] = 50.0
    return fixed


# ====== evaluate ======


def test_metrics_hand_count():
    """All-classical predictor on 2 classical + 1 quantum examples."""
    m = evaluate(_all_classical_model(), _tiny_mixed())
    assert abs(m.accuracy - 2 / 3) < 1e-15
    assert m.recall[CLASSICAL] == 1.0
    assert m.recall[QUANTUM] == 0.0
    assert m.precision[QUANTUM] is None  # no quantum predictions were made
    assert abs(m.precision[CLASSICAL] - 2 / 3) < 1e-15
    assert np.array_equal(m.confusion, [[2, 0], [1, 0]])


def test_metrics_confusion_sums_to_dataset_size():
    model = new_model("simple", n_max=4, seed=1)
    m = evaluate(model, LINES4)
    assert m.confusion.sum() == len(LINES4)
    trace = m.confusion[0, 0] + m.confusion[1, 1]
    assert abs(m.accuracy - trace / len(LINES4)) < 1e-15


def test_metrics_identities():
    """recall = diag/row-sum and precision = diag/col-sum, exactly."""
    model = new_model("simple", n_max=4, seed=2)
    m = evaluate(model, LINES4)
    for c in (CLASSICAL, QUANTUM):
        row = m.confusion[c].sum()
        col = m.confusion[:, c].sum()
        if row:
            assert m.recall[c] == m.confusion[c, c] / row
        else:
            assert m.recall[c] is None
        if col:
            assert m.precision[c] == m.confusion[c, c] / col
        else:
            assert m.precision[c] is None


def test_perfect_model_scores_one():
    """A model keyed to the initial-target edge separates the n=3 lines."""
    model = new_model("simple", n_max=3, seed=0)
    sharp = model.copy()
    sharp.weights["last"][:] = 0.0
    # feature 3 at the target vertex is the {v_init, v_target} edge bit;
    # its presence means no quantum advantage on three-vertex lines
    from qwalk import feature_slot

    sharp.weights["last"][feature_slot(1, 3), CLASSICAL] = 50.0
    sharp.weights["last"][0, QUANTUM] = 25.0
    m = evaluate(sharp, _tiny_mixed())
    assert m.accuracy == 1.0
    assert m.recall == (1.0, 1.0)
    assert m.precision == (1.0, 1.0)


def test_evaluate_uses_dataset_fractions_by_default():
    d = _tiny_mixed()
    model = _all_classical_model()
    default = evaluate(model, d)
    explicit = evaluate(model, d, kappas=d.class_fractions)
    assert default.mean_loss == explicit.mean_loss
    uniform = evaluate(model, d, kappas=(0.5, 0.5))
    assert default.mean_loss != uniform.mean_loss


def test_evaluate_never_mutates_the_model():
    model = new_model("full", n_max=4, seed=3)
    before = {k: w.copy() for k, w in model.weights.items()}
    evaluate(model, LINES4)
    for k in before:
        assert np.array_equal(model.weights[k], before[k])


# ====== train ======


def test_zero_epochs_returns_input_unchanged():
    model = new_model("simple", n_max=4, seed=4)
    trained, history = train(model, LINES4, None, Schedule(epochs=0))
    assert history == []
    for k in model.weights:
        assert np.array_equal(trained.weights[k], model.weights[k])


def test_history_epoch_zero_is_untrained_baseline():
    """Row 0 must equal an evaluate() call on the starting model."""
    model = new_model("simple", n_max=4, seed=5)
    baseline = evaluate(model, LINES4, kappas=LINES4.class_fractions).mean_loss
    _, history = train(model, LINES4, None, Schedule(epochs=3, seed=5))
    assert history[0]["epoch"] == 0
    assert history[0]["train_loss"] == baseline


def test_history_covers_every_epoch():
    _, history = train(
        new_model("simple", n_max=4, seed=6), LINES4, None, Schedule(epochs=25, seed=6)
    )
    assert [row["epoch"] for row in history] == list(range(26))
    for row in history:
        assert math.isfinite(row["train_loss"])


def test_history_test_columns_follow_cadence():
    """Test metrics appear at epoch 0, every eval_every, and the last epoch."""
    tr, te = LINES4, _tiny_mixed()
    _, history = train(
        new_model("simple", n_max=4, seed=7), tr, te, Schedule(epochs=25, seed=7, eval_every=10)
    )
    with_cols = [row["epoch"] for row in history if "test_accuracy" in row]
    assert with_cols == [0, 10, 20, 25]
    row = history[0]
    assert "test_loss" in row
    assert "test_precision_classical" in row and "test_recall_quantum" in row


def test_history_names_multiple_test_sets():
    t1, t2 = _tiny_mixed(), LINES4
    _, history = train(
        new_model("simple", n_max=4, seed=8), LINES4, [t1, t2], Schedule(epochs=10, seed=8)
    )
    assert "test_accuracy_1" in history[0] and "test_accuracy_2" in history[0]
    assert "test_accuracy" not in history[0]


def test_training_improves_on_line4():
    """2000 epochs of batch-3 SGD pushes the training loss toward zero."""
    model = new_model("simple", n_max=4, seed=9)
    trained, history = train(model, LINES4, None, Schedule(epochs=2000, seed=9))
    # be generous: seeds vary, but the loss should fall well below the start
    assert history[-1]["train_loss"] < 0.15
    assert history[-1]["train_loss"] < history[0]["train_loss"] / 3
    assert evaluate(trained, LINES4).accuracy > evaluate(model, LINES4).accuracy


def test_divergence_raises_with_epoch_index():
    """An absurd learning rate overflows the hidden layer within epochs."""
    model = new_model("full", n_max=4, seed=10, learning_rate=1e4)
    with np.errstate(all="ignore"), pytest.raises(TrainingError) as info:
        train(model, LINES4, None, Schedule(epochs=200, seed=10))
    assert "epoch" in str(info.value)


def _train_by_hand(model, train_set, test_sets, schedule):
    """`train`'s schedule driven by hand: the same batch draws, one
    backpropagation over the batch's class weights and one update of a
    fresh copy of the model per batch, and `evaluate` for the test
    columns."""
    kappas, inverse = train_set.class_fractions, schedule.inverse_class_weights
    rng = np.random.default_rng(schedule.seed)
    rows = encode(model, [e.graph for e in train_set])
    labels = train_set.labels

    def row_of(epoch, train_loss, scored):
        row = {"epoch": epoch, "train_loss": train_loss}
        for i, test in enumerate(test_sets if scored else []):
            suffix = "" if len(test_sets) == 1 else f"_{i + 1}"
            m = evaluate(model, test)
            row[f"test_loss{suffix}"] = m.mean_loss
            row[f"test_accuracy{suffix}"] = m.accuracy
            for c, name in LABEL_NAMES.items():
                row[f"test_precision_{name}{suffix}"] = m.precision[c]
                row[f"test_recall_{name}{suffix}"] = m.recall[c]
        return row

    history = [row_of(0, score_loss(forward(model, rows), labels, kappas, inverse), True)]
    for epoch in range(1, schedule.epochs + 1):
        epoch_loss = 0.0
        for _ in range(schedule.batches_per_epoch):
            picks = rng.integers(0, len(rows), size=schedule.batch_size)
            value, grads = _loss_and_gradients(
                model, rows[picks], labels[picks], kappas, inverse
            )
            if not math.isfinite(value):
                raise TrainingError(f"loss became non-finite at epoch {epoch}")
            model = _stepped(model, grads)
            epoch_loss += value
        scored = epoch % schedule.eval_every == 0 or epoch == schedule.epochs
        history.append(row_of(epoch, epoch_loss / schedule.batches_per_epoch, scored))
    return model, history


@pytest.mark.parametrize("variant", ["simple", "full"])
@pytest.mark.parametrize("inverse", [False, True], ids=["kappa", "inverse"])
def test_train_equals_the_public_step_path(variant, inverse):
    """`train` checks once and then steps one copy of the model in place:
    its weights and every history row equal those of the hand-driven loop,
    which checks and copies on every batch, bit for bit, over two test sets,
    and the model it is given keeps its weights."""
    train_set, holdout = split(build_line_dataset(5), 0.8, seed=2)
    schedule = Schedule(epochs=12, batches_per_epoch=4, batch_size=3, seed=3, eval_every=5,
                        inverse_class_weights=inverse)
    model = new_model(variant, n_max=5, seed=4, learning_rate=0.05, hidden_width=8)
    before = {k: w.copy() for k, w in model.weights.items()}
    trained, history = train(model, train_set, [holdout, LINES4], schedule)
    by_hand, hand_history = _train_by_hand(model, train_set, [holdout, LINES4], schedule)
    for name in model.weights:
        assert np.array_equal(trained.weights[name], by_hand.weights[name])
        assert np.array_equal(model.weights[name], before[name])
    assert history == hand_history
    assert "test_accuracy_2" in history[-1] and "test_accuracy_1" not in history[1]


def test_train_and_the_public_step_path_diverge_at_the_same_epoch():
    """The divergent run of `test_divergence_raises_with_epoch_index` stops
    both paths with the same error."""
    messages = []
    for run in (train, _train_by_hand):
        model = new_model("full", n_max=4, seed=10, learning_rate=1e4)
        with np.errstate(all="ignore"), pytest.raises(TrainingError) as info:
            run(model, LINES4, [], Schedule(epochs=200, seed=10))
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("loss became non-finite at epoch ")


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(epochs=-1)
    with pytest.raises(ValueError):
        Schedule(epochs=1, batch_size=0)
    with pytest.raises(ValueError):
        Schedule(epochs=1, eval_every=0)


# ====== encoded rows kept with the dataset ======


def test_each_dataset_is_encoded_once_per_key(monkeypatch):
    import qwalk.evaluation

    calls = []
    real = qwalk.evaluation.encode

    def counted(model, graphs):
        calls.append((model.variant, model.n_max, len(graphs)))
        return real(model, graphs)

    monkeypatch.setattr(qwalk.evaluation, "encode", counted)
    tr, te = split(build_line_dataset(5), 0.5, 0)
    model, _ = train(new_model("full", 5, seed=1), tr, te, Schedule(epochs=3, seed=1))
    for _ in range(3):
        evaluate(model, te)
    assert calls == [("full", 5, len(tr)), ("full", 5, len(te))]

    # same key, other seed, learning rate and hidden width: no new encoding
    other = new_model("full", 5, seed=2, learning_rate=0.5, hidden_width=4)
    train(other, tr, te, Schedule(epochs=2, seed=2))
    evaluate(other, tr)
    assert len(calls) == 2

    evaluate(new_model("full", 6, seed=1), te)
    assert calls[2:] == [("full", 6, len(te))]
    evaluate(new_model("simple", 5, seed=1), te)
    assert calls[3:] == [("simple", 5, len(te))]
    evaluate(new_model("simple", 5, seed=3), te)
    assert len(calls) == 4

    # a dataset keeps one key's rows: going back to an earlier key encodes
    # again, while the other dataset still holds its rows
    evaluate(model, te)
    evaluate(model, tr)
    assert calls[4:] == [("full", 5, len(te))]


def test_rows_of_reshaped_columns_match_encoding_their_graphs():
    """The rows a merged, split dataset of several vertex counts gets from
    its stacks equal `encode` of its examples' graphs, bit for bit."""
    from qwalk import build_random_dataset, merge
    from qwalk.evaluation import _rows

    mixed = merge([build_line_dataset(4), build_random_dataset(6, 9, 2), build_line_dataset(5)])
    for part in (mixed, *split(mixed, 0.6, 8)):
        for variant in ("simple", "full"):
            model = new_model(variant, 7, seed=0)
            rows = _rows(model, part)
            assert rows.tobytes() == encode(model, [e.graph for e in part]).tobytes()


def test_kept_rows_refuse_writes():
    d = build_line_dataset(4)
    evaluate(new_model("full", 4, seed=0), d)
    rows = d._kept[1]
    assert not rows.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 1.0


def test_warm_and_fresh_datasets_train_alike(tmp_path):
    """Weights, history and metrics are bit-identical whether the rows are
    kept from earlier calls or encoded afresh from a loaded file."""
    for variant in ("simple", "full"):
        paths = []
        for k, part in enumerate(split(build_line_dataset(5), 0.6, 4)):
            paths.append(tmp_path / f"{variant}{k}.jsonl")
            save(part, paths[-1])
        warm_tr, warm_te = load(paths[0]), load(paths[1])
        warmer = new_model(variant, 5, seed=9, learning_rate=0.2, hidden_width=5)
        train(warmer, warm_tr, warm_te, Schedule(epochs=2, seed=9))
        assert warm_tr._kept is not None and warm_te._kept is not None

        outcomes = []
        for tr, te in ((warm_tr, warm_te), (load(paths[0]), load(paths[1]))):
            model, history = train(new_model(variant, 5, seed=3, learning_rate=0.1), tr, te,
                                   Schedule(epochs=15, batches_per_epoch=4, seed=3, eval_every=5))
            outcomes.append((model, history, evaluate(model, te)))
        (m1, h1, e1), (m2, h2, e2) = outcomes
        for name in m1.weights:
            assert m1.weights[name].tobytes() == m2.weights[name].tobytes()
        assert h1 == h2
        assert (e1.mean_loss, e1.accuracy, e1.precision, e1.recall) == (
            e2.mean_loss, e2.accuracy, e2.precision, e2.recall
        )
        assert np.array_equal(e1.confusion, e2.confusion)


def test_kept_rows_leave_equality_and_repr_alone(tmp_path):
    path = tmp_path / "d.jsonl"
    save(build_line_dataset(4), path)
    warm, cold = load(path), load(path)
    before = repr(warm)
    evaluate(new_model("full", 4, seed=0), warm)
    evaluate(new_model("simple", 6, seed=0), warm)
    assert warm._kept[0] == ("simple", 6) and cold._kept is None
    assert warm == cold
    assert repr(warm) == before == repr(cold)
    assert "_kept" not in repr(warm)


# ====== ensembles ======


def _quick_runs(seeds, epochs=30):
    runs = []
    for seed in seeds:
        model = new_model("simple", n_max=4, seed=seed)
        runs.append(train(model, LINES4, _tiny_mixed(), Schedule(epochs=epochs, seed=seed)))
    return runs


def test_ensemble_of_identical_runs_has_zero_deviation():
    runs = _quick_runs([3, 3])
    stats = ensemble_stats(runs)
    assert stats.runs == 2
    assert np.all(stats.last_layer_msd == 0.0)
    assert np.array_equal(stats.last_layer_mean, runs[0][0].weights["last"])


def test_ensemble_mean_of_two_values():
    """Weights 1 and 3 average to 2 with squared deviation 1."""
    runs = _quick_runs([4, 5])
    a, b = runs[0][0].copy(), runs[1][0].copy()
    a.weights["last"][:] = 1.0
    b.weights["last"][:] = 3.0
    stats = ensemble_stats([(a, runs[0][1]), (b, runs[1][1])])
    assert np.all(stats.last_layer_mean == 2.0)
    assert np.all(stats.last_layer_msd == 1.0)


def test_ensemble_averages_history_curves():
    runs = _quick_runs([6, 7])
    stats = ensemble_stats(runs)
    losses = np.array([[row["train_loss"] for row in h] for _, h in runs])
    assert np.allclose(stats.history_mean["train_loss"], losses.mean(axis=0))
    # cadence gaps stay gaps: epochs without test metrics average to NaN
    gap = 1  # epoch 1 is not a multiple of eval_every
    assert math.isnan(stats.history_mean["test_accuracy"][gap])
    assert not math.isnan(stats.history_mean["test_accuracy"][0])


def test_ensemble_rejects_mixed_architectures():
    r4 = _quick_runs([8])[0]
    model5 = new_model("simple", n_max=5, seed=8)
    r5 = train(model5, build_line_dataset(5), None, Schedule(epochs=30, seed=8))
    with pytest.raises(ValueError):
        ensemble_stats([r4, r5])


def test_ensemble_rejects_mismatched_schedules():
    r1 = _quick_runs([9], epochs=30)[0]
    r2 = _quick_runs([9], epochs=40)[0]
    with pytest.raises(ValueError, match="^ensemble histories must share one schedule$"):
        ensemble_stats([r1, r2])
    # as long, but over other epochs
    shifted = [{**row, "epoch": row["epoch"] + 1} for row in r1[1]]
    with pytest.raises(ValueError, match="^ensemble histories must share one schedule$"):
        ensemble_stats([r1, (r1[0], shifted)])


def test_ensemble_needs_a_run():
    with pytest.raises(ValueError, match="^ensemble_stats needs at least one run$"):
        ensemble_stats([])


# ====== CSV export ======


def test_history_csv_layout(tmp_path):
    _, history = train(
        new_model("simple", n_max=4, seed=11), LINES4, _tiny_mixed(),
        Schedule(epochs=20, seed=11),
    )
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["epoch", "train_loss"]
    assert "test_accuracy" in header
    assert len(lines) == 1 + len(history)
    # epoch 1 has no test metrics: its row leaves those cells blank
    row1 = dict(zip(header, lines[2].split(",")))
    assert row1["test_accuracy"] == ""
    row0 = dict(zip(header, lines[1].split(",")))
    assert float(row0["train_loss"]) == history[0]["train_loss"]


def test_metrics_csv_layout(tmp_path):
    m = evaluate(_all_classical_model(), _tiny_mixed())
    path = tmp_path / "metrics.csv"
    write_metrics_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "metric,value"
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["accuracy"]) == m.accuracy
    assert table["precision_quantum"] == ""  # absent, not zero
    assert table["confusion_classical_classical"] == "2"
    assert table["confusion_quantum_classical"] == "1"
