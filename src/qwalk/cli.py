"""Command-line front end for simulation, datasets, training, and inspection.

Subcommands: simulate, gen-dataset, train, eval, inspect, rerun. Every
artifact-writing command also writes `<main output>.manifest.json` holding
the resolved flags, seeds, input/output checksums, and timing; `rerun`
re-executes a manifest in a temporary directory and verifies the
regenerated artifacts against the recorded checksums, leaving the recorded
artifacts and manifest untouched. Randomized commands either take an
explicit --seed or generate one and print it, so nothing depends on hidden
entropy.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import secrets
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cqcnn import (
    ModelFormatError,
    export_last_layer,
    load_model,
    new_model,
    save_model,
)
from .datasets import (
    Dataset,
    DatasetFormatError,
    build_line_dataset,
    build_random_dataset,
    drop_indeterminate,
    load,
    merge,
    save,
    split,
)
from .evaluation import (
    Schedule,
    TrainingError,
    ensemble_stats,
    evaluate,
    train,
    write_history_csv,
    write_metrics_csv,
)
from .graphs import Graph, line_graph
from .walkers import LABEL_NAMES, IntegratorError, WalkConfig, label_graph, write_trace_csv

_MANIFEST_FORMAT = "qwalk-manifest"
_MANIFEST_VERSION = 1


class UsageError(Exception):
    """Bad command-line input; reported with usage text and exit code 2."""


# ====== shared plumbing ======


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _check_overwrite(paths: list, force: bool) -> None:
    for path in paths:
        if path and Path(path).exists() and not force:
            raise RuntimeError(f"refusing to overwrite {path} (use --force)")


def _manifest_path(main_output) -> str:
    return str(main_output) + ".manifest.json"


def _args_record(args: argparse.Namespace) -> dict:
    record = {}
    for key, value in vars(args).items():
        if key in ("func", "command"):
            continue
        record[key] = value
    return record


def _write_manifest(
    command: str,
    args: argparse.Namespace,
    inputs: list,
    outputs: list,
    started: float,
    main_output,
) -> str:
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "tool_version": __version__,
        "command": command,
        "args": _args_record(args),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": {str(p): _sha256(p) for p in outputs},
        "duration_seconds": time.monotonic() - started,
    }
    path = _manifest_path(main_output)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    generated = secrets.randbits(63)
    print(f"seed: {generated} (generated; pass --seed to reproduce)")
    return generated


def _walk_config(args: argparse.Namespace) -> WalkConfig:
    return WalkConfig(
        gamma=args.gamma,
        p_threshold_override=args.p_th,
        t_max_cap=args.t_max,
        dt=args.dt,
        record_stride=args.stride,
    )


def _load_datasets(paths: list, drop_indet: bool) -> list[Dataset]:
    loaded = []
    for path in paths:
        if not Path(path).exists():
            raise RuntimeError(f"dataset file not found: {path}")
        d = load(path)
        loaded.append(drop_indeterminate(d) if drop_indet else d)
    return loaded


def _format_time(t: float | None) -> str:
    return "never" if t is None else f"{t:.6f}"


def _metric_cell(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _print_metrics(metrics) -> None:
    print(f"accuracy: {metrics.accuracy:.4f}")
    print(f"mean loss: {metrics.mean_loss:.6f}")
    print(
        "precision: classical "
        f"{_metric_cell(metrics.precision[0])}, quantum {_metric_cell(metrics.precision[1])}"
    )
    print(
        "recall:    classical "
        f"{_metric_cell(metrics.recall[0])}, quantum {_metric_cell(metrics.recall[1])}"
    )
    c = metrics.confusion
    print("confusion (rows true, columns predicted):")
    print(f"  classical: {c[0, 0]:6d} {c[0, 1]:6d}")
    print(f"  quantum:   {c[1, 0]:6d} {c[1, 1]:6d}")


# ====== subcommands ======


def _parse_line_flag(text: str) -> list[int]:
    try:
        labels = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"--line expects comma-separated integers, got {text!r}") from exc
    return [v - 1 for v in labels]


def _read_graph_file(path, v_init: int, v_target: int) -> Graph:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = line.split() if " " in line else list(line)
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise UsageError(f"graph file {path} has a non-binary row: {line!r}") from exc
    try:
        return Graph(np.array(rows, dtype=np.int64), v_init, v_target)
    except ValueError as exc:
        raise UsageError(f"graph file {path} is not a valid graph: {exc}") from exc


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if (args.line is None) == (args.graph is None):
        raise UsageError("give exactly one of --line or --graph")
    if args.line is not None:
        labeling = _parse_line_flag(args.line)
        try:
            graph = line_graph(len(labeling), labeling)
        except ValueError as exc:
            raise UsageError(f"bad --line value: {exc}") from exc
        inputs: list = []
    else:
        graph = _read_graph_file(args.graph, args.v_init, args.v_target)
        inputs = [args.graph]
    _check_overwrite([args.out], args.force)
    outcome = label_graph(graph, _walk_config(args), record_traces=True)
    write_trace_csv(outcome, args.out)
    print(f"p_threshold: {outcome.p_threshold:.6f}")
    print(f"t_classical: {_format_time(outcome.classical_hit_time)}")
    print(f"t_quantum: {_format_time(outcome.quantum_hit_time)}")
    print(f"label: {LABEL_NAMES[outcome.label]}")
    if outcome.indeterminate:
        print(f"note: neither walker crossed the threshold by t_max={outcome.t_max:g}")
    print(f"trace written to {args.out}")
    _write_manifest("simulate", args, inputs, [args.out], started, args.out)
    return 0


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_overwrite([args.out], args.force)
    cfg = _walk_config(args)
    if args.kind == "line":
        dataset = build_line_dataset(args.n, cfg, jobs=args.jobs)
    else:
        args.seed = _resolve_seed(args.seed)
        if args.count < 1:
            raise UsageError(f"--count must be >= 1, got {args.count}")
        dataset = build_random_dataset(args.n, args.count, args.seed, cfg, jobs=args.jobs)
    if args.drop_indeterminate:
        dataset = drop_indeterminate(dataset)
    save(dataset, args.out)
    kappa = dataset.class_fractions
    flagged = sum(1 for e in dataset if e.indeterminate)
    print(f"{len(dataset)} examples written to {args.out}")
    print(f"class fractions: classical {kappa[0]:.4f}, quantum {kappa[1]:.4f}")
    if flagged:
        print(f"indeterminate examples retained: {flagged}")
    _write_manifest("gen-dataset", args, [], [args.out], started, args.out)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    args.seed = _resolve_seed(args.seed)
    history_out = args.history_out or str(Path(args.model_out).with_suffix("")) + ".history.csv"
    args.history_out = history_out
    _check_overwrite([args.model_out, history_out], args.force)

    train_parts = _load_datasets(args.train, args.drop_indeterminate)
    test_sets = _load_datasets(args.test, args.drop_indeterminate)
    train_set = merge(train_parts)

    model_seed, batch_seed, holdout_seed = (
        int(s) for s in np.random.default_rng(args.seed).integers(2**63, size=3)
    )
    if args.holdout is not None:
        if not 0.0 < args.holdout < 1.0:
            raise UsageError(f"--holdout must lie in (0, 1), got {args.holdout}")
        train_set, held_out = split(train_set, 1.0 - args.holdout, holdout_seed)
        test_sets = [held_out] + test_sets

    needed = max(d.max_n for d in [train_set] + test_sets)
    n_max = args.n_max if args.n_max is not None else needed
    if n_max < needed:
        raise RuntimeError(
            f"--n-max {n_max} is smaller than the largest graph ({needed} vertices)"
        )

    model = new_model(args.variant, n_max, model_seed, args.lr, args.hidden_width)
    schedule = Schedule(
        epochs=args.epochs,
        batches_per_epoch=args.batches_per_epoch,
        batch_size=args.batch_size,
        seed=batch_seed,
        eval_every=args.eval_every,
        inverse_class_weights=args.inverse_class_weights,
    )
    model, history = train(model, train_set, test_sets, schedule)
    save_model(model, args.model_out)
    write_history_csv(history, history_out)
    print(f"trained {args.variant} model (n_max={n_max}) on {len(train_set)} examples")
    for i, test in enumerate(test_sets):
        metrics = evaluate(model, test)
        name = f"test set {i + 1}" if len(test_sets) > 1 else "test set"
        print(f"{name} ({len(test)} examples): accuracy {metrics.accuracy:.4f}")
    print(f"model written to {args.model_out}")
    print(f"history written to {history_out}")
    inputs = list(args.train) + list(args.test)
    _write_manifest(
        "train", args, inputs, [args.model_out, history_out], started, args.model_out
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.monotonic()
    _check_overwrite([args.out], args.force)
    if not Path(args.model).exists():
        raise RuntimeError(f"model file not found: {args.model}")
    model = load_model(args.model)
    dataset = _load_datasets([args.data], args.drop_indeterminate)[0]
    if dataset.max_n > model.n_max:
        raise RuntimeError(
            f"dataset has graphs with {dataset.max_n} vertices but the model "
            f"allows at most {model.n_max}"
        )
    metrics = evaluate(model, dataset)
    _print_metrics(metrics)
    write_metrics_csv(metrics, args.out)
    print(f"metrics written to {args.out}")
    _write_manifest("eval", args, [args.model, args.data], [args.out], started, args.out)
    return 0


def _inspect_single(model, out) -> None:
    rows = export_last_layer(model)
    lines = ["vertex,feature,class,weight"]
    lines.extend(
        f"{r['vertex']},{r['feature']},{r['class']},{r['weight']!r}" for r in rows
    )
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _inspect_ensemble(models: list, out) -> None:
    stats = ensemble_stats([(m, []) for m in models])
    reference = models[0].copy()
    reference.weights["last"] = stats.last_layer_mean
    rows = export_last_layer(reference)
    deviations = np.sqrt(stats.last_layer_msd).reshape(-1)
    lines = ["vertex,feature,class,mean,deviation"]
    lines.extend(
        f"{r['vertex']},{r['feature']},{r['class']},{r['weight']!r},{float(dev)!r}"
        for r, dev in zip(rows, deviations)
    )
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_inspect(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if (args.model is None) == (args.ensemble is None):
        raise UsageError("give exactly one of MODEL or --ensemble DIR")
    _check_overwrite([args.out], args.force)
    if args.model is not None:
        if not Path(args.model).exists():
            raise RuntimeError(f"model file not found: {args.model}")
        _inspect_single(load_model(args.model), args.out)
        inputs = [args.model]
    else:
        paths = sorted(Path(args.ensemble).glob("*.json"))
        paths = [p for p in paths if not p.name.endswith(".manifest.json")]
        if not paths:
            raise RuntimeError(f"no model files (*.json) under {args.ensemble}")
        _inspect_ensemble([load_model(p) for p in paths], args.out)
        inputs = [str(p) for p in paths]
    print(f"weight table written to {args.out}")
    _write_manifest("inspect", args, inputs, [args.out], started, args.out)
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "gen-dataset": cmd_gen_dataset,
    "train": cmd_train,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def _remap_paths(value, remap: dict):
    if isinstance(value, str):
        return remap.get(value, value)
    if isinstance(value, list):
        return [_remap_paths(v, remap) for v in value]
    return value


def cmd_rerun(args: argparse.Namespace) -> int:
    if not Path(args.manifest).exists():
        raise UsageError(f"manifest not found: {args.manifest}")
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise RuntimeError(f"{args.manifest} is not a run manifest")
    command = manifest.get("command")
    if command not in _DISPATCH:
        raise RuntimeError(f"manifest names unknown command {command!r}")
    outputs = manifest.get("outputs", {})
    print(f"replaying {command} from {args.manifest}")
    # Replay into a scratch directory so the recorded artifacts and their
    # manifest survive a mismatch as evidence. Each output keeps its file
    # name (the suffix selects gzip) in a directory of its own.
    with tempfile.TemporaryDirectory(prefix="qwalk-rerun-") as scratch:
        remap = {}
        for i, recorded_path in enumerate(outputs):
            slot = Path(scratch, str(i))
            slot.mkdir()
            remap[recorded_path] = str(slot / Path(recorded_path).name)
        replay = argparse.Namespace(
            **{key: _remap_paths(value, remap) for key, value in manifest["args"].items()}
        )
        code = _DISPATCH[command](replay)
        if code != 0:
            return code
        failures = 0
        for recorded_path, recorded in outputs.items():
            fresh_path = remap[recorded_path]
            if not Path(fresh_path).exists():
                print(f"MISSING {recorded_path}")
                failures += 1
                continue
            fresh = _sha256(fresh_path)
            if fresh == recorded:
                print(f"ok {recorded_path}")
            else:
                print(f"MISMATCH {recorded_path}: recorded {recorded}, got {fresh}")
                failures += 1
    return 1 if failures else 0


# ====== parser ======


def _add_walk_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gamma", type=float, default=1.0, help="sink decay rate (default 1)")
    sub.add_argument("--dt", type=float, default=0.01, help="integration step (default 0.01)")
    sub.add_argument(
        "--stride", type=int, default=10, help="integration steps per trace record (default 10)"
    )
    sub.add_argument(
        "--p-th", type=float, default=None, help="detection threshold override (default 1/ln n)"
    )
    sub.add_argument(
        "--t-max", type=float, default=None, help="simulation horizon override (default 10 n^3)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwalk",
        description="Label graphs by quantum-vs-classical walker speed and train "
        "a classifier to predict the label from the adjacency matrix.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    default_jobs = int(os.environ.get("QWALK_JOBS", "1"))

    sim = commands.add_parser("simulate", help="run both walkers on one graph")
    sim.add_argument("--line", help="1-based line-graph labeling, e.g. 1,3,2")
    sim.add_argument("--graph", help="path to an adjacency-matrix text file")
    sim.add_argument("--v-init", type=int, default=0, help="start vertex (default 0)")
    sim.add_argument("--v-target", type=int, default=1, help="target vertex (default 1)")
    _add_walk_flags(sim)
    sim.add_argument("--out", default="trace.csv", help="trace CSV path (default trace.csv)")
    sim.add_argument("--force", action="store_true", help="overwrite existing outputs")
    sim.set_defaults(func=cmd_simulate)

    gen = commands.add_parser("gen-dataset", help="generate a labeled dataset")
    gen.add_argument("kind", choices=("line", "random"), help="graph family")
    gen.add_argument("--n", type=int, required=True, help="vertex count")
    gen.add_argument(
        "--count", type=int, default=1000, help="random-graph count (line kind ignores this)"
    )
    gen.add_argument("--seed", type=int, default=None, help="generation seed")
    _add_walk_flags(gen)
    gen.add_argument(
        "--drop-indeterminate",
        action="store_true",
        help="exclude examples where neither walker crossed the threshold",
    )
    gen.add_argument(
        "--jobs", type=int, default=default_jobs, help="parallel workers (env QWALK_JOBS)"
    )
    gen.add_argument("--out", required=True, help="dataset path (.gz compresses)")
    gen.add_argument("--force", action="store_true", help="overwrite existing outputs")
    gen.set_defaults(func=cmd_gen_dataset)

    tr = commands.add_parser("train", help="train a classifier on labeled datasets")
    tr.add_argument("--train", nargs="+", required=True, help="training dataset files (merged)")
    tr.add_argument(
        "--test", nargs="*", default=[], help="test dataset files (evaluated separately)"
    )
    tr.add_argument(
        "--holdout",
        type=float,
        default=None,
        help="carve this fraction of the training data out as an extra test set",
    )
    tr.add_argument("--variant", choices=("simple", "full"), default="simple")
    tr.add_argument(
        "--n-max", type=int, default=None, help="feature size cap (default: largest graph seen)"
    )
    tr.add_argument("--epochs", type=int, default=2000)
    tr.add_argument("--batches-per-epoch", type=int, default=1)
    tr.add_argument("--batch-size", type=int, default=3)
    tr.add_argument("--lr", type=float, default=0.01, help="learning rate (default 0.01)")
    tr.add_argument("--hidden-width", type=int, default=32, help="full-variant hidden units")
    tr.add_argument("--eval-every", type=int, default=10, help="test-metric cadence in epochs")
    tr.add_argument(
        "--inverse-class-weights",
        action="store_true",
        help="weight the loss by 1/fraction instead of the fraction itself",
    )
    tr.add_argument("--drop-indeterminate", action="store_true")
    tr.add_argument("--seed", type=int, default=None, help="master seed (init, batches, holdout)")
    tr.add_argument("--model-out", required=True, help="model file path")
    tr.add_argument(
        "--history-out", default=None, help="history CSV path (default: <model>.history.csv)"
    )
    tr.add_argument("--force", action="store_true", help="overwrite existing outputs")
    tr.set_defaults(func=cmd_train)

    ev = commands.add_parser("eval", help="score a trained model on a dataset")
    ev.add_argument("--model", required=True, help="model file")
    ev.add_argument("--data", required=True, help="dataset file")
    ev.add_argument("--drop-indeterminate", action="store_true")
    ev.add_argument("--out", default="metrics.csv", help="metrics CSV path")
    ev.add_argument("--force", action="store_true", help="overwrite existing outputs")
    ev.set_defaults(func=cmd_eval)

    ins = commands.add_parser("inspect", help="export last-layer weights as CSV")
    ins.add_argument("model", nargs="?", default=None, help="model file")
    ins.add_argument("--ensemble", default=None, help="directory of model files to average")
    ins.add_argument("--out", default="weights.csv", help="weight CSV path")
    ins.add_argument("--force", action="store_true", help="overwrite existing outputs")
    ins.set_defaults(func=cmd_inspect)

    rr = commands.add_parser("rerun", help="re-execute a manifest and verify checksums")
    rr.add_argument("manifest", help="manifest file from a previous run")
    rr.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return 2
    except (
        IntegratorError,
        TrainingError,
        DatasetFormatError,
        ModelFormatError,
        RuntimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
