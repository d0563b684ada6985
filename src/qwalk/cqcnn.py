"""Graph classifier built from fixed graph filters and learnable layers.

Feature extraction is deterministic: an edge-to-edge filter spreads edge
counts to neighboring edges, an edge-to-vertex filter collapses edge maps
onto vertices, and a desymmetrization step keeps each undirected edge
once. Two architectures share this frontend. The "simple" variant is a
single affine layer over the per-vertex feature vector. The "full"
variant adds learnable 3x3 convolutions over a stack of repeatedly
filtered adjacency maps, each convolved map collapsed onto its vertices,
plus transition-matrix rows for the special vertices and a rectified
hidden layer. Both end in two output neurons (classical, quantum) and
train by stochastic gradient descent on class-weighted cross entropy.

A graph is encoded once into a fixed input row (`encode`); `forward`,
`score_loss` and the training steps then work on batches of rows. The
full variant's convolution and the vertex collapse after it are both
linear, so the row holds the collapsed one-pixel shifts of each channel
map and the convolution becomes a matrix product with the kernel.
Rows are written by one private kernel (`_encode`) from adjacency stacks,
one per vertex count, in blocks of graphs: `encode` stacks its graphs by
vertex count for it, and a dataset hands it the stacks it holds. The
filters live where the rows are made. The vertex features are the two
filters in closed form in the degrees (`_vertex_features`). The full
variant's edge-to-edge filter (`_ete`) and edge-to-vertex collapses are
row and column sums over the last two axes, so they run on blocks of
zero-padded graphs at once, and each shift's collapse comes from window
sums of those sums, without building the shifted maps. `tests/oracles.py`
transcribes both filters with plain loops as their brute-force reference.
The kernel also refuses a graph larger than n_max.

All gradients are hand-derived; there is no autodiff anywhere. One
private backpropagation (`_backprop`) and one private update (`_step`)
work on plain weight arrays; `evaluation.train` checks its arguments once
per call and then steps through the two.

`CqcnnModel` states a model's fields, defaults and rules once; `new_model`,
the model file and the CLI take theirs from it. `load_model` also refuses
non-finite weights.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ._io import compact_json, write_atomic
from .graphs import Graph, _absorbing_walk, _integer, _real, _Stacks
from .walkers import CLASSICAL, LABEL_NAMES, QUANTUM

__all__ = [
    "CqcnnModel",
    "ModelFormatError",
    "feature_slot",
    "new_model",
    "encode",
    "forward",
    "score_loss",
    "predicted_class",
    "export_last_layer",
    "save_model",
    "load_model",
]

_MODEL_FORMAT = "qwalk-model"
_MODEL_VERSION = 1
# Graphs per stacked block in `encode`; bounds its working memory.
_BLOCK_GRAPHS = 64


class ModelFormatError(ValueError):
    """A model file failed to parse or carries inconsistent shapes."""


# ====== fixed graph filters ======


def _ete(m: np.ndarray) -> np.ndarray:
    """Edge-to-edge filter over the last two axes, of one matrix or a stack:
    each entry weighted by its neighboring-edge total,
    out[i][j] = (rowsum[i] + colsum[j] - 2*m[i][j]) * m[i][j]."""
    rows = m.sum(axis=-1, keepdims=True)
    cols = m.sum(axis=-2, keepdims=True)
    return (rows + cols - 2.0 * m) * m


def feature_slot(vertex: int, feature: int) -> int:
    """Index of (vertex >= 0, feature 1..4) in the feature vector; slot 0 is bias."""
    return 1 + 4 * _integer("vertex", vertex, 0) + (_integer("feature", feature, 1, 4) - 1)


def _vertex_features(a: np.ndarray, v_init, v_target, n_max: int) -> np.ndarray:
    """(B, n_max, 4) features of a (B, n, n) integer stack of adjacency
    matrices, zero-padded to n_max vertices: degree, neighboring-edge
    total, start and target adjacency.

    They are the edge-to-vertex filter, out[i] = rowsum[i] + colsum[i] -
    2*m[i][i], of the desymmetrized matrix and of its desymmetrized `_ete`,
    in closed form: on 0/1, symmetric, zero-diagonal matrices the degrees
    are d = A 1 and the neighboring-edge totals d^2 - 2d + A d, exact
    integers.
    """
    b, n = a.shape[:2]
    take = np.arange(b)
    degree = a.sum(axis=2, dtype=np.int64)
    features = np.zeros((b, n_max, 4))
    features[:, :n, 0] = degree
    features[:, :n, 1] = degree * (degree - 2) + (a @ degree[:, :, np.newaxis])[:, :, 0]
    features[:, :n, 2] = a[take, v_init]
    features[:, :n, 3] = a[take, v_target]
    return features


# ====== model ======


@dataclass(frozen=True)
class _Architecture:
    """Sizes of one architecture, shared by every model that has it.
    `shapes` lists the weights in draw order. A full-variant row is a
    (9 * channels, n_max) block of `block` floats, then a tail; a
    simple-variant row has no block (channels and block 0)."""

    shapes: Mapping[str, tuple]
    n_max: int
    channels: int
    block: int
    width: int


def _architecture(variant: str, n_max: int, hidden_width: int) -> _Architecture:
    """The sizes of an architecture, after checking its hyperparameters.

    Every weight shape and row width in this module is read from here.
    """
    if variant not in ("simple", "full"):
        raise ValueError(f"variant must be 'simple' or 'full', got {variant!r}")
    n_max = _integer("n_max", n_max, 3)
    # a full model without hidden units would learn only its output bias
    hidden_width = _integer("hidden_width", hidden_width, 1 if variant == "full" else 0)
    if variant == "simple":
        width = 4 * n_max + 1
        shapes = MappingProxyType({"last": (width, 2)})
        return _Architecture(shapes=shapes, n_max=n_max, channels=0, block=0, width=width)
    # the adjacency map plus ceil(log2 n_max) edge-to-edge stages, at least one
    channels = max(1, math.ceil(math.log2(n_max))) + 1
    block = 9 * channels * n_max
    tail = 8 * n_max
    return _Architecture(
        shapes=MappingProxyType({
            "conv": (n_max, channels, 3, 3),
            "hidden": (1 + n_max * n_max + tail, hidden_width),
            "last": (hidden_width + 1, 2),
        }),
        n_max=n_max,
        channels=channels,
        block=block,
        width=block + tail,
    )


@dataclass(eq=False)
class CqcnnModel:
    """Weights plus the hyperparameters that shaped and seeded them.

    The sizes and the seed (None or an integer >= 0) are stored as Python
    ints, the learning rate (finite and >= 0) as a Python number, and
    `weights` maps each weight name of the architecture to a float64 array
    of its shape.
    """

    variant: str
    n_max: int
    weights: dict[str, np.ndarray]
    hidden_width: int = 32
    learning_rate: float = 0.01
    seed: int | None = None

    def __post_init__(self) -> None:
        expected = _architecture(self.variant, self.n_max, self.hidden_width).shapes
        # the sizes as the Python ints `_architecture` checked, so they save
        self.n_max = operator.index(self.n_max)
        self.hidden_width = operator.index(self.hidden_width)
        self.learning_rate = _real("learning rate", self.learning_rate, 0)
        if self.seed is not None:
            self.seed = _integer("seed", self.seed, 0)
        if not isinstance(self.weights, Mapping):
            kind = type(self.weights).__name__
            raise TypeError(f"weights must map names to arrays, got {kind}")
        if set(self.weights) != set(expected):
            raise ValueError(
                f"variant {self.variant!r} needs weights {sorted(expected)}, "
                f"got {sorted(self.weights)}"
            )
        self.weights = {name: np.asarray(self.weights[name], np.float64) for name in expected}
        for name, shape in expected.items():
            got = self.weights[name].shape
            if got != shape:
                raise ValueError(f"weight {name!r} must have shape {shape}, got {got}")

    def copy(self) -> "CqcnnModel":
        return replace(self, weights={k: v.copy() for k, v in self.weights.items()})


def new_model(
    variant: str,
    n_max: int,
    seed: int,
    learning_rate: float = CqcnnModel.learning_rate,
    hidden_width: int = CqcnnModel.hidden_width,
) -> CqcnnModel:
    """Fresh model with all weights uniform in [-0.1, 0.1] from the seed.

    Draw order is fixed (conv, hidden, last) so a seed pins every weight.
    A numpy-integer seed is stored as a Python int, so the model can be saved.
    """
    rng = np.random.default_rng(_integer("seed", seed, 0))
    shapes = _architecture(variant, n_max, hidden_width).shapes
    weights = {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes.items()}
    return CqcnnModel(variant, n_max, weights, hidden_width, learning_rate, seed)


# ====== encoded input rows ======


def _shift_collapses(m: np.ndarray) -> np.ndarray:
    """(B, 3, 3, n_max) edge-to-vertex collapse of the 9 zero-padded one-pixel
    shifts of each map in a (B, n_max, n_max) stack, ordered like a 3x3 kernel.

    Shift (di, dj) of a map reads p[di + i, dj + j] of its copy p inside a
    zero border, so its row sums are windows of p's row sums over columns
    dj..dj+n_max-1, its column sums windows of p's column sums over rows
    di..di+n_max-1, and its diagonal is p[di + i, dj + i]; no shifted map is
    built.
    """
    b, n_max = len(m), m.shape[-1]
    p = np.zeros((b, n_max + 2, n_max + 2))
    p[:, 1:-1, 1:-1] = m
    window = np.lib.stride_tricks.sliding_window_view
    row_sums = np.stack([p[:, :, d : d + n_max].sum(2) for d in range(3)], axis=1)
    col_sums = np.stack([p[:, d : d + n_max].sum(1) for d in range(3)], axis=1)
    i, d = np.arange(n_max), np.arange(3)
    etv = window(row_sums, n_max, axis=-1).swapaxes(1, 2) + window(col_sums, n_max, axis=-1)
    etv -= 2.0 * p[:, d[:, None, None] + i, d[None, :, None] + i]
    return etv


def _write_full_rows(rows, index, a: np.ndarray, features: np.ndarray, v_init, v_target,
                     arch: _Architecture) -> None:
    b, n = a.shape[:2]
    n_max = arch.n_max
    take = np.arange(b)
    padded = np.zeros((b, n_max, n_max))
    padded[:, :n, :n] = a
    # Channel stack: the adjacency map plus repeatedly edge-to-edge filtered
    # copies, each rescaled to unit max per graph so deep stages stay O(1),
    # and each desymmetrized before its shifts are collapsed.
    span = 9 * n_max
    current = padded
    for c in range(arch.channels):
        if c:
            current = _ete(current)
            peak = np.abs(current).max(axis=(1, 2))
            current = current / np.where(peak > 0, peak, 1.0)[:, None, None]
        rows[index, c * span : (c + 1) * span] = _shift_collapses(np.triu(current)).reshape(b, -1)

    # The tail. First a scaled copy of the simple feature block: degree-like
    # features shrink with n_max so every tail entry stays O(1).
    scale = np.array([1.0 / n_max, 1.0 / n_max**2, 1.0, 1.0])
    features = features * scale

    # Then one- and two-step transition probabilities into the special
    # vertices, from the column-stochastic walk matrix with an absorbing target.
    t1 = _absorbing_walk(padded[:, :n, :n], v_target)
    t2 = t1 @ t1
    transitions = np.zeros((b, 4, n_max))
    transitions[:, :, :n] = np.stack(
        [t1[take, v_init], t1[take, v_target], t2[take, v_init], t2[take, v_target]], axis=1
    )
    rows[index, arch.block :] = np.concatenate(
        [features.reshape(b, -1), transitions.reshape(b, -1)], axis=1
    )


def _encoding_key(model: CqcnnModel) -> tuple:
    """Everything `encode` reads from a model: models with equal keys get
    identical rows for the same graphs. A change to what goes into a row
    extends this key in the same change."""
    return (model.variant, model.n_max)


def encode(model: CqcnnModel, graphs: Sequence[Graph]) -> np.ndarray:
    """Fixed input rows, one per graph, read by forward and the training steps.

    Simple variant: a bias slot, then four features per vertex, zero for
    vertices past the graph's n up to n_max: the degree, the
    neighboring-edge total of the edges meeting the vertex, and adjacency
    to the start and to the target; 4*n_max + 1 floats. Full variant: the
    edge-to-vertex collapse of each of the 9*C one-pixel shifts of the
    C = ceil(log2 n_max) + 1 channel maps, a (9*C, n_max) block, then an
    8*n_max tail of scaled vertex features and transition rows: 795 floats
    at n_max 15.

    The graphs are stacked by vertex count, one byte per matrix entry, and
    encoded from those stacks in blocks of at most 64 graphs, which every
    filter processes over its last two axes at once. Each block writes its
    rows straight into the returned array. The vertex features come in
    closed form from the degrees. The collapse of each one-pixel shift
    comes from window sums of the row and column sums of the zero-bordered
    channel map plus one diagonal gather, so no shifted map is built. A row
    does not depend on the other graphs in the list.
    """
    arch = _architecture(model.variant, model.n_max, model.hidden_width)
    return _encode(arch, graphs if isinstance(graphs, _Stacks) else _Stacks.of(graphs, np.uint8))


def _encode(arch: _Architecture, graphs: _Stacks) -> np.ndarray:
    """The rows of graphs held in stacks at an architecture: the one writer
    of every input row."""
    too_large = graphs.n > arch.n_max
    if too_large.any():
        n = graphs.n[np.argmax(too_large)]
        raise ValueError(f"graph has {n} vertices but the model allows {arch.n_max}")
    rows = np.empty((len(graphs), arch.width))
    for members, stack, at, v_init, v_target in graphs.groups():
        for start in range(0, len(members), _BLOCK_GRAPHS):
            block = slice(start, start + _BLOCK_GRAPHS)
            index, a = members[block], stack[at[block]]
            features = _vertex_features(a, v_init[block], v_target[block], arch.n_max)
            if arch.block:
                _write_full_rows(rows, index, a, features, v_init[block], v_target[block], arch)
            else:  # the simple variant: bias, then the vertex features
                rows[index, 0] = 1.0
                rows[index, 1:] = features.reshape(len(a), -1)
    return rows


def _check_inputs(model: CqcnnModel, inputs: np.ndarray) -> _Architecture:
    """The model's architecture, once its row width matches the inputs."""
    arch = _architecture(model.variant, model.n_max, model.hidden_width)
    if inputs.ndim != 2 or inputs.shape[1] != arch.width:
        raise ValueError(
            f"this model reads rows of width {arch.width}, got shape {inputs.shape}"
        )
    return arch


def _blocks(inputs: np.ndarray, arch: _Architecture) -> np.ndarray:
    """(N, 9*C, n_max) view of the collapsed-shift blocks of full-variant rows."""
    return inputs[:, : arch.block].reshape(len(inputs), 9 * arch.channels, arch.n_max)


def _full_layers(weights: Mapping, inputs: np.ndarray, blocks: np.ndarray, arch: _Architecture):
    """Hidden-layer input, pre-activation and biased activation per row."""
    n_max = arch.n_max
    ones = np.ones((len(inputs), 1))
    conv_w = weights["conv"].reshape(n_max, -1)
    conv_feats = (conv_w @ blocks).reshape(len(inputs), n_max * n_max) / n_max
    z = np.concatenate([ones, conv_feats, inputs[:, arch.block :]], axis=1)
    pre = z @ weights["hidden"]
    hidden_b = np.concatenate([np.maximum(pre, 0.0), ones], axis=1)
    return z, pre, hidden_b


def forward(model: CqcnnModel, inputs: np.ndarray) -> np.ndarray:
    """Raw output scores (classical, quantum), one row per encoded input row."""
    arch = _check_inputs(model, inputs)
    if model.variant == "simple":
        return inputs @ model.weights["last"]
    hidden_b = _full_layers(model.weights, inputs, _blocks(inputs, arch), arch)[2]
    return hidden_b @ model.weights["last"]


# ====== loss, gradients, optimizer ======


def _class_weights(labels, count: int, kappas, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The labels of `count` rows as an index array, and each row's class
    weight: its label's kappa, or that kappa's inverse."""
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) != count:
        raise ValueError(f"{len(labels)} labels for {count} rows of scores")
    weight = np.asarray(kappas, dtype=np.float64)[labels]
    if inverse:
        if np.any(weight <= 0):
            label = int(labels[np.argmax(weight <= 0)])
            raise ValueError(f"cannot invert zero class fraction for label {label}")
        weight = 1.0 / weight
    return labels, weight


def _cross_entropy(
    x: np.ndarray, labels: np.ndarray, weight: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean class-weighted cross entropy of rows of scores (max-subtracted
    softmax) and its gradient with respect to the scores, from the checked
    labels and row weights of `_class_weights`."""
    shifted = x - x.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    g_x = np.exp(log_p)
    g_x[rows, labels] -= 1.0
    g_x *= weight[:, None] / len(labels)
    return float(np.mean(-weight * log_p[rows, labels])), g_x


def score_loss(
    scores: np.ndarray,
    labels,
    kappas: Sequence[float] = (0.5, 0.5),
    inverse_class_weights: bool = False,
) -> float:
    """Mean class-weighted cross entropy over (N, 2) rows of raw output
    scores and their N labels."""
    labels, weight = _class_weights(labels, len(scores), kappas, inverse_class_weights)
    return _cross_entropy(scores, labels, weight)[0]


def _backprop(
    weights: Mapping,
    arch: _Architecture,
    inputs: np.ndarray,
    labels: np.ndarray,
    weight: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-mean loss and its analytic gradient for every weight, of plain
    weight arrays of the architecture, over a nonempty batch of rows of its
    width and their `_class_weights`."""
    if not arch.block:  # the simple variant
        value, g_x = _cross_entropy(inputs @ weights["last"], labels, weight)
        return value, {"last": inputs.T @ g_x}

    n_max = arch.n_max
    blocks = _blocks(inputs, arch)
    z, pre, hidden_b = _full_layers(weights, inputs, blocks, arch)
    value, g_x = _cross_entropy(hidden_b @ weights["last"], labels, weight)
    g_pre = np.where(pre > 0.0, g_x @ weights["last"][:-1, :].T, 0.0)
    g_z = g_pre @ weights["hidden"].T
    g_conv = g_z[:, 1 : 1 + n_max * n_max].reshape(len(inputs), n_max, n_max) / n_max
    # conv[k, q] = sum over rows r and vertices i of g_conv[r, k, i] * blocks[r, q, i],
    # one matrix product over the (r, i) pairs
    g_conv, blocks = g_conv.swapaxes(0, 1), blocks.swapaxes(0, 1)
    conv = g_conv.reshape(n_max, -1) @ blocks.reshape(len(blocks), -1).T
    return value, {
        "conv": conv.reshape(arch.shapes["conv"]),
        "hidden": z.T @ g_pre,
        "last": hidden_b.T @ g_x,
    }


def _step(weights: Mapping, grads: Mapping, rate: float) -> None:
    """One gradient-descent update, `w - rate * g`, in place."""
    for name, w in weights.items():
        w -= rate * grads[name]


def predicted_class(scores: np.ndarray) -> np.ndarray:
    """Argmax of each row of two output scores; an exact tie goes to the
    classical class."""
    return np.where(scores[..., QUANTUM] > scores[..., CLASSICAL], QUANTUM, CLASSICAL)


# ====== introspection and persistence ======


def export_last_layer(model: CqcnnModel) -> list[dict]:
    """Long-format rows (vertex, feature, class, weight) of the final layer.

    Simple variant rows name the (vertex, feature) slot each weight reads;
    the full variant's final layer reads hidden units instead, so rows are
    named h0, h1, ... Both include the bias row, giving 4*n_max + 1 rows
    per class (simple) or hidden_width + 1 (full).
    """
    if model.variant == "simple":
        vertices = range(model.n_max)
        names = {feature_slot(v, f): (str(v), str(f)) for v in vertices for f in (1, 2, 3, 4)}
        names[0] = ("bias", "bias")
    else:
        names = {slot: (f"h{slot}", "hidden") for slot in range(model.hidden_width)}
        names[model.hidden_width] = ("bias", "bias")
    w = model.weights["last"]
    return [
        {"vertex": vertex, "feature": feature, "class": name, "weight": float(w[slot, label])}
        for slot, (vertex, feature) in sorted(names.items())
        for label, name in LABEL_NAMES.items()
    ]


def save_model(model: CqcnnModel, path) -> None:
    """Write the model as deterministic JSON (sorted keys, exact floats): the
    header, then every `CqcnnModel` field, the weights as nested lists."""
    record = {f.name: getattr(model, f.name) for f in fields(CqcnnModel)}
    record.update(
        format=_MODEL_FORMAT,
        version=_MODEL_VERSION,
        weights={name: w.tolist() for name, w in model.weights.items()},
    )
    write_atomic(path, (compact_json(record) + "\n").encode("utf-8"))


def load_model(path) -> CqcnnModel:
    """Read a model file back; raises ModelFormatError on anything malformed.
    A `CqcnnModel` field the file leaves out takes the class's default."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != _MODEL_FORMAT:
        raise ModelFormatError("missing model header")
    version = record.get("version")
    try:
        _integer("version", version, _MODEL_VERSION, _MODEL_VERSION)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"unsupported version {version!r}") from exc
    names = [f.name for f in fields(CqcnnModel)]
    try:
        model = CqcnnModel(**{name: record[name] for name in names if name in record})
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model record: {exc}") from exc
    for name, w in model.weights.items():
        if not np.isfinite(w).all():
            raise ModelFormatError(f"invalid model record: weight {name!r} is not finite")
    return model
