"""Classification metrics, the training loop, and ensemble statistics.

evaluate() is strictly read-only on the model. train() runs an
epoch/batch schedule of with-replacement SGD and records a history row
per epoch: training loss always, test metrics on a fixed cadence and on
the final epoch. It checks its arguments once per call (the model's
fields, the row width and the class weight of every training row), then
steps a copy of the model in place through the private backpropagation
and update (`cqcnn._backprop`, `cqcnn._step`). Both score a dataset's
encoded input rows in batches; a training batch is a slice of the encoded
training rows. A dataset's rows
depend only on its graphs and on the model's encoding key (variant and
n_max), so they are encoded (`cqcnn.encode`) once and kept read-only with
the dataset; later train or evaluate calls on the same Dataset object with
the same key reuse them, whatever the model's weights. A dataset keeps the
rows of one key only: a call with another key encodes again and replaces
them. Metrics with a zero denominator (no examples or no predictions of a
class) are reported as None, never as 0, so ensemble averages are not
dragged toward zero by undefined entries. `ensemble_stats` applies one
mean/deviation rule to the readout weights and to the history table, in
which such an entry, or an absent one, is NaN and makes its epoch's mean
and deviation NaN. The history and metrics CSV writers go through
`_io.write_csv`, whose one cell rule leaves such an entry blank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import write_csv
from .cqcnn import (
    CqcnnModel,
    _backprop,
    _check_inputs,
    _class_weights,
    _encoding_key,
    _step,
    encode,
    forward,
    predicted_class,
    score_loss,
)
from .datasets import Dataset
from .graphs import _integer
from .walkers import LABEL_NAMES

__all__ = [
    "Metrics",
    "Schedule",
    "TrainingError",
    "EnsembleStats",
    "evaluate",
    "train",
    "ensemble_stats",
    "write_history_csv",
    "write_metrics_csv",
]


class TrainingError(RuntimeError):
    """The training loss stopped being finite."""


@dataclass(frozen=True, eq=False)
class Metrics:
    mean_loss: float
    accuracy: float
    confusion: np.ndarray  # [true class, predicted class] counts
    precision: tuple[float | None, float | None]
    recall: tuple[float | None, float | None]


def evaluate(
    model: CqcnnModel,
    dataset: Dataset,
    kappas: Sequence[float] | None = None,
) -> Metrics:
    """Score every example without touching the model.

    The loss is weighted by the evaluated dataset's own class fractions
    unless explicit kappas are given.
    """
    if kappas is None:
        kappas = dataset.class_fractions
    return _metrics(model, _rows(model, dataset), dataset.labels, kappas)


def _rows(model: CqcnnModel, dataset: Dataset) -> np.ndarray:
    """The dataset's read-only input rows for the model, kept with the
    dataset under the model's encoding key."""
    return dataset._rows_for(_encoding_key(model), lambda: encode(model, dataset._graphs))


def _metrics(model, rows, labels, kappas) -> Metrics:
    x = forward(model, rows)
    confusion = np.zeros((2, 2), dtype=np.int64)
    np.add.at(confusion, (labels, predicted_class(x)), 1)
    total = int(confusion.sum())
    diag = np.diagonal(confusion)
    row_sums = confusion.sum(axis=1)
    col_sums = confusion.sum(axis=0)
    recall = tuple(
        float(diag[c] / row_sums[c]) if row_sums[c] > 0 else None for c in (0, 1)
    )
    precision = tuple(
        float(diag[c] / col_sums[c]) if col_sums[c] > 0 else None for c in (0, 1)
    )
    return Metrics(
        mean_loss=score_loss(x, labels, kappas),
        accuracy=float(diag.sum()) / total,
        confusion=confusion,
        precision=precision,
        recall=recall,
    )


@dataclass(frozen=True)
class Schedule:
    """How long and how densely to train, and where the batch draws come from."""

    epochs: int = 2000
    batches_per_epoch: int = 1
    batch_size: int = 3
    seed: int = 0
    eval_every: int = 10
    inverse_class_weights: bool = False

    def __post_init__(self) -> None:
        for name, low in (("epochs", 0), ("batches_per_epoch", 1), ("batch_size", 1),
                          ("seed", 0), ("eval_every", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))


def _as_test_list(test_set) -> list[Dataset]:
    if test_set is None:
        return []
    if isinstance(test_set, Dataset):
        return [test_set]
    return list(test_set)


def _column_suffix(i: int, count: int) -> str:
    """Suffix of test set i's history columns, of `count` test sets."""
    return "" if count == 1 else f"_{i + 1}"


def _test_columns(model: CqcnnModel, tests: list[tuple], row: dict) -> None:
    """Metrics of each (rows, labels, class fractions) test set into row."""
    for i, (rows, labels, kappas) in enumerate(tests):
        suffix = _column_suffix(i, len(tests))
        m = _metrics(model, rows, labels, kappas)
        row[f"test_loss{suffix}"] = m.mean_loss
        row[f"test_accuracy{suffix}"] = m.accuracy
        for c, name in LABEL_NAMES.items():
            row[f"test_precision_{name}{suffix}"] = m.precision[c]
            row[f"test_recall_{name}{suffix}"] = m.recall[c]


def train(
    model: CqcnnModel,
    train_set: Dataset,
    test_set=None,
    schedule: Schedule = Schedule(),
) -> tuple[CqcnnModel, list[dict]]:
    """Run the schedule and return the trained model plus its history.

    Batches are drawn uniformly with replacement. The class weights come
    from the training set. `test_set` may be one dataset or a sequence;
    each gets its own suffixed history columns. Epoch 0 records the
    untrained baseline; zero-epoch schedules return an empty history.
    """
    if schedule.epochs == 0:
        return model, []
    # The checks, once: the model's fields (as its copy applies them), the
    # row width and the class weights. The steps then update the copy's
    # weights in place.
    model = model.copy()
    kappas = train_set.class_fractions
    rng = np.random.default_rng(schedule.seed)
    rows = _rows(model, train_set)
    arch = _check_inputs(model, rows)
    labels, class_weight = _class_weights(
        train_set.labels, len(rows), kappas, schedule.inverse_class_weights
    )
    tests = [
        (_rows(model, test), test.labels, test.class_fractions)
        for test in _as_test_list(test_set)
    ]

    first: dict = {
        "epoch": 0,
        "train_loss": score_loss(
            forward(model, rows), labels, kappas, schedule.inverse_class_weights
        ),
    }
    _test_columns(model, tests, first)
    history = [first]

    for epoch in range(1, schedule.epochs + 1):
        epoch_loss = 0.0
        for _ in range(schedule.batches_per_epoch):
            picks = rng.integers(0, len(rows), size=schedule.batch_size)
            value, grads = _backprop(
                model.weights, arch, rows[picks], labels[picks], class_weight[picks]
            )
            if not math.isfinite(value):
                raise TrainingError(f"loss became non-finite at epoch {epoch}")
            _step(model.weights, grads, model.learning_rate)
            epoch_loss += value
        row: dict = {"epoch": epoch, "train_loss": epoch_loss / schedule.batches_per_epoch}
        if tests and (epoch % schedule.eval_every == 0 or epoch == schedule.epochs):
            _test_columns(model, tests, row)
        history.append(row)
    return model, history


@dataclass(frozen=True, eq=False)
class EnsembleStats:
    """Elementwise mean and mean squared deviation across runs."""

    runs: int
    last_layer_mean: np.ndarray
    last_layer_msd: np.ndarray
    epochs: np.ndarray
    history_mean: dict[str, np.ndarray]
    history_msd: dict[str, np.ndarray]


def ensemble_stats(runs: Sequence[tuple[CqcnnModel, list[dict]]]) -> EnsembleStats:
    """Average an ensemble of (model, history) pairs sharing one architecture."""
    if not runs:
        raise ValueError("ensemble_stats needs at least one run")
    models = [m for m, _ in runs]
    histories = [h for _, h in runs]
    head = models[0]
    for m in models[1:]:
        if (
            m.variant != head.variant
            or m.n_max != head.n_max
            or m.weights["last"].shape != head.weights["last"].shape
        ):
            raise ValueError("ensemble runs must share one architecture")
    mean, msd = _mean_and_msd(np.stack([m.weights["last"] for m in models]))

    lengths = {len(h) for h in histories}
    if len(lengths) != 1:
        raise ValueError("ensemble histories must share one schedule")
    epochs = np.array([row["epoch"] for row in histories[0]], dtype=np.int64)
    for h in histories[1:]:
        if any(row["epoch"] != e for row, e in zip(h, epochs)):
            raise ValueError("ensemble histories must share one schedule")

    # (runs, columns, epochs), NaN where a run's entry is absent or None, so
    # that epoch's mean and deviation of that column come out NaN
    columns = list(dict.fromkeys(key for row in histories[0] for key in row if key != "epoch"))
    table = np.array(
        [[[row.get(key) for row in h] for key in columns] for h in histories], dtype=np.float64
    )
    col_mean, col_msd = _mean_and_msd(table)
    return EnsembleStats(
        runs=len(runs),
        last_layer_mean=mean,
        last_layer_msd=msd,
        epochs=epochs,
        history_mean=dict(zip(columns, col_mean)),
        history_msd=dict(zip(columns, col_msd)),
    )


def _mean_and_msd(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and mean squared deviation over the first axis of a stack."""
    mean = stack.mean(axis=0)
    return mean, ((stack - mean) ** 2).mean(axis=0)


# ====== CSV export ======


def write_history_csv(history: list[dict], path) -> None:
    """One row per epoch; columns appear in first-use order, blanks for absent."""
    columns = list(dict.fromkeys(["epoch", "train_loss", *(key for row in history for key in row)]))
    write_csv(path, columns, ([row.get(c) for c in columns] for row in history))


def write_metrics_csv(metrics: Metrics, path) -> None:
    """Long-format metric,value rows; undefined metrics stay blank."""
    rows: list[tuple[str, object]] = [
        ("accuracy", metrics.accuracy),
        ("mean_loss", metrics.mean_loss),
    ]
    for c, name in LABEL_NAMES.items():
        rows.append((f"precision_{name}", metrics.precision[c]))
        rows.append((f"recall_{name}", metrics.recall[c]))
    for t, t_name in LABEL_NAMES.items():
        for p, p_name in LABEL_NAMES.items():
            rows.append((f"confusion_{t_name}_{p_name}", int(metrics.confusion[t, p])))
    write_csv(path, ("metric", "value"), rows)
