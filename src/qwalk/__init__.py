"""Quantum-vs-classical walker speedup: simulation, datasets, and a classifier.

The package labels graphs by racing a continuous-time classical random
walk against a continuous-time quantum walk with a decaying sink, then
trains a small convolutional network to predict the winner directly from
the adjacency matrix.
"""

from .graphs import (
    Graph,
    classical_variant,
    enumerate_line_graphs,
    line_graph,
    permute_free_vertices,
    quantum_variant,
    random_connected_graph,
    random_graph,
)
from .walkers import (
    CLASSICAL,
    LABEL_NAMES,
    QUANTUM,
    Trace,
    WalkConfig,
    WalkOutcome,
    hitting_time,
    label_from_hit_times,
    label_graph,
    write_trace_csv,
)
from .datasets import (
    Dataset,
    DatasetFormatError,
    Example,
    build_line_dataset,
    build_random_dataset,
    drop_indeterminate,
    load,
    merge,
    save,
    split,
)
from .cqcnn import (
    CqcnnModel,
    ModelFormatError,
    desymmetrize,
    encode,
    ete_filter,
    etv_filter,
    export_last_layer,
    extract_features,
    feature_slot,
    forward,
    load_model,
    loss_and_gradients,
    new_model,
    predicted_class,
    save_model,
    score_loss,
    sgd_step,
)
from .evaluation import (
    EnsembleStats,
    Metrics,
    Schedule,
    TrainingError,
    ensemble_stats,
    evaluate,
    train,
    write_history_csv,
    write_metrics_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Graph",
    "line_graph",
    "enumerate_line_graphs",
    "random_connected_graph",
    "random_graph",
    "permute_free_vertices",
    "classical_variant",
    "quantum_variant",
    # walkers
    "CLASSICAL",
    "QUANTUM",
    "LABEL_NAMES",
    "WalkConfig",
    "Trace",
    "WalkOutcome",
    "hitting_time",
    "label_from_hit_times",
    "label_graph",
    "write_trace_csv",
    # datasets
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
    # cqcnn
    "CqcnnModel",
    "ModelFormatError",
    "ete_filter",
    "etv_filter",
    "desymmetrize",
    "extract_features",
    "feature_slot",
    "new_model",
    "encode",
    "forward",
    "score_loss",
    "loss_and_gradients",
    "sgd_step",
    "predicted_class",
    "export_last_layer",
    "save_model",
    "load_model",
    # evaluation
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
