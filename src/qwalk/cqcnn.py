"""Graph classifier built from fixed graph filters and learnable layers.

Feature extraction is deterministic: an edge-to-edge filter spreads edge
counts to neighboring edges, an edge-to-vertex filter collapses edge maps
onto vertices, and a desymmetrization step keeps each undirected edge
once. Two architectures share this frontend. The "simple" variant is a
single affine layer over the per-vertex feature vector. The "full"
variant adds learnable 3x3 convolutions over a stack of repeatedly
filtered adjacency maps, transition-matrix rows for the special vertices,
and a rectified hidden layer. Both end in two output neurons (classical,
quantum) and train by stochastic gradient descent on class-weighted
cross entropy.

All gradients are hand-derived; there is no autodiff anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, classical_variant
from .walkers import CLASSICAL, QUANTUM

__all__ = [
    "CqcnnModel",
    "ModelFormatError",
    "ete_filter",
    "etv_filter",
    "desymmetrize",
    "extract_features",
    "feature_slot",
    "new_model",
    "forward",
    "score_loss",
    "loss",
    "gradients",
    "sgd_step",
    "predicted_class",
    "predict",
    "export_last_layer",
    "save_model",
    "load_model",
]

_MODEL_FORMAT = "qwalk-model"
_MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """A model file failed to parse or carries inconsistent shapes."""


# ====== fixed graph filters ======


def ete_filter(m: np.ndarray) -> np.ndarray:
    """Edge-to-edge filter: weight each entry by its neighboring-edge total.

    out[i][j] = (rowsum[i] + colsum[j] - 2*m[i][j]) * m[i][j]
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    rows = m.sum(axis=1, keepdims=True)
    cols = m.sum(axis=0, keepdims=True)
    return (rows + cols - 2.0 * m) * m


def etv_filter(m: np.ndarray) -> np.ndarray:
    """Edge-to-vertex filter: collapse an edge map onto its vertices.

    out[i] = rowsum[i] + colsum[i] - 2*m[i][i]
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.sum(axis=1) + m.sum(axis=0) - 2.0 * np.diagonal(m)


def desymmetrize(m: np.ndarray) -> np.ndarray:
    """Zero the strictly lower triangle so each undirected edge appears once."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.triu(m)


def feature_slot(vertex: int, feature: int) -> int:
    """Index of (vertex, feature 1..4) in the feature vector; slot 0 is bias."""
    if feature not in (1, 2, 3, 4):
        raise ValueError(f"feature index must be 1..4, got {feature}")
    return 1 + 4 * vertex + (feature - 1)


def extract_features(g: Graph, n_max: int) -> np.ndarray:
    """Per-vertex feature vector of length 4*n_max + 1 (bias slot first).

    Feature 1 is the vertex degree, feature 2 the neighboring-edge total
    of the edges meeting the vertex, features 3 and 4 flag adjacency to
    the start and target vertices. Vertices beyond g.n are zero-padded.
    """
    if g.n > n_max:
        raise ValueError(f"graph has {g.n} vertices but the model allows {n_max}")
    a = g.adjacency.astype(np.float64)
    f1 = etv_filter(desymmetrize(a))
    f2 = etv_filter(desymmetrize(ete_filter(a)))
    f3 = a[g.v_init]
    f4 = a[g.v_target]
    out = np.zeros(4 * n_max + 1)
    out[0] = 1.0
    out[1 : 1 + 4 * g.n] = np.stack([f1, f2, f3, f4], axis=1).reshape(-1)
    return out


# ====== model ======


def _ete_stage_count(n_max: int) -> int:
    return max(1, math.ceil(math.log2(n_max)))


def _channel_count(n_max: int) -> int:
    return _ete_stage_count(n_max) + 1


def _full_feature_dim(n_max: int) -> int:
    return 1 + n_max * n_max + 8 * n_max


def _expected_shapes(variant: str, n_max: int, hidden_width: int) -> dict[str, tuple]:
    if variant == "simple":
        return {"last": (4 * n_max + 1, 2)}
    return {
        "conv": (n_max, _channel_count(n_max), 3, 3),
        "hidden": (_full_feature_dim(n_max), hidden_width),
        "last": (hidden_width + 1, 2),
    }


@dataclass(eq=False)
class CqcnnModel:
    """Weights plus the hyperparameters that shaped and seeded them."""

    variant: str
    n_max: int
    weights: dict[str, np.ndarray]
    hidden_width: int = 32
    learning_rate: float = 0.01
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in ("simple", "full"):
            raise ValueError(f"variant must be 'simple' or 'full', got {self.variant!r}")
        if self.n_max < 3:
            raise ValueError(f"n_max must be >= 3, got {self.n_max}")
        expected = _expected_shapes(self.variant, self.n_max, self.hidden_width)
        if set(self.weights) != set(expected):
            raise ValueError(
                f"variant {self.variant!r} needs weights {sorted(expected)}, "
                f"got {sorted(self.weights)}"
            )
        for name, shape in expected.items():
            got = self.weights[name].shape
            if got != shape:
                raise ValueError(f"weight {name!r} must have shape {shape}, got {got}")

    @property
    def last_layer_weights(self) -> np.ndarray:
        return self.weights["last"]

    @property
    def learnable_conv(self) -> np.ndarray | None:
        return self.weights.get("conv")

    def copy(self) -> "CqcnnModel":
        return CqcnnModel(
            variant=self.variant,
            n_max=self.n_max,
            weights={k: v.copy() for k, v in self.weights.items()},
            hidden_width=self.hidden_width,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )


def new_model(
    variant: str,
    n_max: int,
    seed: int,
    learning_rate: float = 0.01,
    hidden_width: int = 32,
) -> CqcnnModel:
    """Fresh model with all weights uniform in [-0.1, 0.1] from the seed.

    Draw order is fixed (conv, hidden, last) so a seed pins every weight.
    """
    rng = np.random.default_rng(seed)
    shapes = _expected_shapes(variant, n_max, hidden_width)
    weights = {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes.items()}
    return CqcnnModel(
        variant=variant,
        n_max=n_max,
        weights=weights,
        hidden_width=hidden_width,
        learning_rate=learning_rate,
        seed=seed,
    )


# ====== full-variant input pipeline ======


def _shift_stack(m: np.ndarray) -> np.ndarray:
    """Rows are the 9 one-pixel shifts of m (zero padded), flattened.

    A same-padded 3x3 cross-correlation of m is then a single dot product
    of the flattened kernel with this stack.
    """
    n = m.shape[0]
    padded = np.zeros((n + 2, n + 2))
    padded[1:-1, 1:-1] = m
    rows = [
        padded[di : di + n, dj : dj + n].reshape(-1) for di in (0, 1, 2) for dj in (0, 1, 2)
    ]
    return np.stack(rows)


@dataclass(frozen=True)
class _FullInput:
    shift_stack: np.ndarray  # (9 * channels, n_max^2)
    tail: np.ndarray  # (8 * n_max,) scaled vertex features + transition rows


def _full_input(g: Graph, n_max: int) -> _FullInput:
    if g.n > n_max:
        raise ValueError(f"graph has {g.n} vertices but the model allows {n_max}")
    a = np.zeros((n_max, n_max))
    a[: g.n, : g.n] = g.adjacency

    # Channel stack: the adjacency map plus repeatedly edge-to-edge filtered
    # copies, each rescaled to unit max so deep stages stay O(1).
    channels = [desymmetrize(a)]
    current = a
    for _ in range(_ete_stage_count(n_max)):
        current = ete_filter(current)
        peak = np.abs(current).max()
        if peak > 0:
            current = current / peak
        channels.append(desymmetrize(current))
    stack = np.concatenate([_shift_stack(c) for c in channels], axis=0)

    # Scaled copy of the simple feature block: degree-like features shrink
    # with n_max so every tail entry stays O(1).
    phi = extract_features(g, n_max)
    block = phi[1:].reshape(n_max, 4) * np.array(
        [1.0 / n_max, 1.0 / n_max**2, 1.0, 1.0]
    )

    # One- and two-step transition probabilities into the special vertices.
    t1 = classical_variant(g).transition
    t2 = t1 @ t1
    rows = np.zeros((4, n_max))
    rows[0, : g.n] = t1[g.v_init]
    rows[1, : g.n] = t1[g.v_target]
    rows[2, : g.n] = t2[g.v_init]
    rows[3, : g.n] = t2[g.v_target]

    tail = np.concatenate([block.reshape(-1), rows.reshape(-1)])
    return _FullInput(shift_stack=stack, tail=tail)


def _forward_full(model: CqcnnModel, g: Graph):
    """Full-variant forward pass, returning intermediates for backprop."""
    n_max = model.n_max
    inputs = _full_input(g, n_max)
    conv_w = model.weights["conv"].reshape(n_max, -1)
    maps = (conv_w @ inputs.shift_stack).reshape(n_max, n_max, n_max)
    diag = np.einsum("kii->ki", maps)
    etv_maps = maps.sum(axis=2) + maps.sum(axis=1) - 2.0 * diag
    conv_feats = etv_maps.reshape(-1) / n_max
    z = np.concatenate([[1.0], conv_feats, inputs.tail])
    pre = model.weights["hidden"].T @ z
    hidden = np.maximum(pre, 0.0)
    hidden_b = np.concatenate([hidden, [1.0]])
    x = model.weights["last"].T @ hidden_b
    return x, (inputs, z, pre, hidden_b)


def forward(model: CqcnnModel, g: Graph) -> np.ndarray:
    """Two raw output scores (classical, quantum)."""
    if model.variant == "simple":
        return model.weights["last"].T @ extract_features(g, model.n_max)
    x, _ = _forward_full(model, g)
    return x


# ====== loss, gradients, optimizer ======


def _class_weight(kappas: Sequence[float], label: int, inverse: bool) -> float:
    kappa = kappas[label]
    if not inverse:
        return kappa
    if kappa <= 0:
        raise ValueError(f"cannot invert zero class fraction for label {label}")
    return 1.0 / kappa


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max()
    return shifted - np.log(np.exp(shifted).sum())


def score_loss(
    x: np.ndarray,
    label: int,
    kappas: Sequence[float] = (0.5, 0.5),
    inverse_class_weights: bool = False,
) -> float:
    """Class-weighted cross entropy given the two raw output scores."""
    weight = _class_weight(kappas, label, inverse_class_weights)
    return float(-weight * _log_softmax(x)[label])


def loss(
    model: CqcnnModel,
    example,
    kappas: Sequence[float] = (0.5, 0.5),
    inverse_class_weights: bool = False,
) -> float:
    """Class-weighted cross entropy of one example (max-subtracted softmax)."""
    x = forward(model, example.graph)
    return score_loss(x, example.label, kappas, inverse_class_weights)


def _output_gradient(x: np.ndarray, label: int, weight: float) -> tuple[float, np.ndarray]:
    log_p = _log_softmax(x)
    g_x = weight * (np.exp(log_p) - np.eye(2)[label])
    return float(-weight * log_p[label]), g_x


def _zero_gradients(model: CqcnnModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(w) for name, w in model.weights.items()}


def loss_and_gradients(
    model: CqcnnModel,
    batch: Sequence,
    kappas: Sequence[float] = (0.5, 0.5),
    inverse_class_weights: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Batch-mean loss and matching analytic gradients for every weight."""
    if not batch:
        raise ValueError("batch must be nonempty")
    grads = _zero_gradients(model)
    total = 0.0
    n_max = model.n_max
    for example in batch:
        weight = _class_weight(kappas, example.label, inverse_class_weights)
        if model.variant == "simple":
            phi = extract_features(example.graph, n_max)
            x = model.weights["last"].T @ phi
            value, g_x = _output_gradient(x, example.label, weight)
            grads["last"] += np.outer(phi, g_x)
        else:
            x, (inputs, z, pre, hidden_b) = _forward_full(model, example.graph)
            value, g_x = _output_gradient(x, example.label, weight)
            grads["last"] += np.outer(hidden_b, g_x)
            g_hidden = model.weights["last"][:-1, :] @ g_x
            g_pre = np.where(pre > 0.0, g_hidden, 0.0)
            grads["hidden"] += np.outer(z, g_pre)
            g_z = model.weights["hidden"] @ g_pre
            g_etv = g_z[1 : 1 + n_max * n_max].reshape(n_max, n_max) / n_max
            g_maps = g_etv[:, :, None] + g_etv[:, None, :]
            idx = np.arange(n_max)
            g_maps[:, idx, idx] = 0.0
            grads["conv"] += (
                g_maps.reshape(n_max, -1) @ inputs.shift_stack.T
            ).reshape(model.weights["conv"].shape)
        total += value
    scale = 1.0 / len(batch)
    for name in grads:
        grads[name] *= scale
    return total * scale, grads


def gradients(
    model: CqcnnModel,
    batch: Sequence,
    kappas: Sequence[float] = (0.5, 0.5),
    inverse_class_weights: bool = False,
) -> dict[str, np.ndarray]:
    """Batch-mean analytic gradients of the class-weighted cross entropy."""
    _, grads = loss_and_gradients(model, batch, kappas, inverse_class_weights)
    return grads


def sgd_step(model: CqcnnModel, grads: dict[str, np.ndarray], lr: float | None = None) -> CqcnnModel:
    """One gradient-descent update; returns a new model, lr from the model
    unless given."""
    step = model.learning_rate if lr is None else lr
    if step < 0:
        raise ValueError(f"learning rate must be nonnegative, got {step}")
    if set(grads) != set(model.weights):
        raise ValueError("gradient set does not match model weights")
    updated = {name: w - step * grads[name] for name, w in model.weights.items()}
    return CqcnnModel(
        variant=model.variant,
        n_max=model.n_max,
        weights=updated,
        hidden_width=model.hidden_width,
        learning_rate=model.learning_rate,
        seed=model.seed,
    )


def predicted_class(scores: np.ndarray) -> int:
    """Argmax of the two output scores; an exact tie goes to the classical class."""
    return QUANTUM if scores[QUANTUM] > scores[CLASSICAL] else CLASSICAL


def predict(model: CqcnnModel, g: Graph) -> int:
    """Predicted class of g under the model (see predicted_class)."""
    return predicted_class(forward(model, g))


# ====== introspection and persistence ======


def export_last_layer(model: CqcnnModel) -> list[dict]:
    """Long-format rows (vertex, feature, class, weight) of the final layer.

    Simple variant rows name the (vertex, feature) slot each weight reads;
    the full variant's final layer reads hidden units instead, so rows are
    named h0, h1, ... Both include the bias row, giving 4*n_max + 1 rows
    per class (simple) or hidden_width + 1 (full).
    """
    w = model.weights["last"]
    rows = []
    for slot in range(w.shape[0]):
        if model.variant == "simple":
            if slot == 0:
                vertex, feature = "bias", "bias"
            else:
                vertex = str((slot - 1) // 4)
                feature = str((slot - 1) % 4 + 1)
        else:
            if slot == w.shape[0] - 1:
                vertex, feature = "bias", "bias"
            else:
                vertex, feature = f"h{slot}", "hidden"
        for label, name in ((CLASSICAL, "classical"), (QUANTUM, "quantum")):
            rows.append(
                {"vertex": vertex, "feature": feature, "class": name, "weight": float(w[slot, label])}
            )
    return rows


def save_model(model: CqcnnModel, path) -> None:
    """Write the model as deterministic JSON (sorted keys, exact floats)."""
    record = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "variant": model.variant,
        "n_max": model.n_max,
        "hidden_width": model.hidden_width,
        "learning_rate": model.learning_rate,
        "seed": model.seed,
        "weights": {name: w.tolist() for name, w in model.weights.items()},
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> CqcnnModel:
    """Read a model file back; raises ModelFormatError on anything malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"not a model file: {exc}") from exc
    if not isinstance(record, dict) or record.get("format") != _MODEL_FORMAT:
        raise ModelFormatError("missing model header")
    if record.get("version") != _MODEL_VERSION:
        raise ModelFormatError(f"unsupported version {record.get('version')!r}")
    try:
        weights = {
            name: np.asarray(values, dtype=np.float64)
            for name, values in record["weights"].items()
        }
        return CqcnnModel(
            variant=record["variant"],
            n_max=record["n_max"],
            weights=weights,
            hidden_width=record.get("hidden_width", 32),
            learning_rate=record.get("learning_rate", 0.01),
            seed=record.get("seed"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"invalid model record: {exc}") from exc
