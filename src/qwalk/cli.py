"""Command-line front end for simulation, datasets, training, and inspection.

Subcommands: simulate, gen-dataset, train, eval, inspect, rerun. Every
artifact-writing command also writes `<first output>.manifest.json` holding
the resolved flags, seeds, input/output checksums, and timing; `rerun`
re-executes a manifest in a temporary directory and verifies the
regenerated artifacts against the recorded checksums, leaving the recorded
artifacts and manifest untouched. Relative paths in a manifest are taken
from the manifest's directory, so it replays from any working directory.
Randomized commands either take an
explicit --seed or generate one and print it, so nothing depends on hidden
entropy.

Each command names its input and output files once, to `_files`, which
checks them all after the usage checks and before any work: every input
is an existing file, and every written file (outputs and manifest) is
named once among the run's files, is not a directory, is in an existing
directory and is new unless --force is given. The manifest records the
same lists. Input contents are read only after these checks, and a file
that cannot be read as its kind is a runtime failure. Checks the library
makes, such as a graph too large for the model, are not restated here.

Exit codes: 0 success, 1 runtime or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import secrets
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from ._io import write_atomic, write_csv
from .cqcnn import (
    CqcnnModel,
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
    _column_suffix,
    ensemble_stats,
    evaluate,
    train,
    write_history_csv,
    write_metrics_csv,
)
from .graphs import Graph, _integer, _real, line_graph
from .walkers import LABEL_NAMES, WalkConfig, label_graph, write_trace_csv

_MANIFEST_FORMAT = "qwalk-manifest"
# Version 2 records relative paths against the manifest's directory;
# version 1 recorded them against the working directory of the run.
_MANIFEST_VERSION = 2
# Arguments that name files or directories, in any command.
_PATH_ARGS = (
    "graph", "out", "train", "test", "model_out", "history_out", "model", "data", "ensemble",
)


class UsageError(Exception):
    """Bad command-line input; reported with usage text and exit code 2."""


# ====== shared plumbing ======


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _files(args: argparse.Namespace, inputs: list, outputs: list) -> tuple[list, list]:
    """Check a run's files before any work, and return them as given.

    Every input must be an existing file. Every file the run writes (the
    outputs and `<first output>.manifest.json`) must be named once among
    all its files, paths compared once resolved, and must not be a
    directory. It must be in an existing directory, and must be new unless
    --force is given, so that no run replaces an earlier run's record.
    """
    for path in inputs:
        if not Path(path).is_file():
            raise RuntimeError(f"cannot read {path}: no such file")
    named = dict.fromkeys((Path(p).resolve() for p in inputs), "an input")
    manifest = _manifest_path(outputs[0])
    written = [(manifest, "the run's manifest")] + [(p, "another output") for p in outputs]
    for path, role in written:
        key = Path(path).resolve()
        if key in named:
            raise RuntimeError(f"cannot write {path}: the same file is {named[key]}")
        if Path(path).is_dir():
            raise RuntimeError(f"cannot write {path}: it is a directory")
        named[key] = role
    for path in [*outputs, manifest]:
        if not Path(path).parent.is_dir():
            raise RuntimeError(f"cannot write {path}: no directory {Path(path).parent}")
        if Path(path).exists() and not args.force:
            raise RuntimeError(f"refusing to overwrite {path} (use --force)")
    return inputs, outputs


def _manifest_path(main_output) -> str:
    return str(main_output) + ".manifest.json"


def _map_paths(key: str, value, fn):
    """Apply `fn` to the path, or each path in the list, of a path argument."""
    if key not in _PATH_ARGS:
        return value
    if isinstance(value, str):
        return fn(value)
    if isinstance(value, list):
        return [fn(v) for v in value]
    return value


def _write_manifest(command: str, args: argparse.Namespace, files: tuple, started: float) -> str:
    """Write the manifest of a run whose (inputs, outputs) `_files` checked,
    with relative paths taken from its directory.

    The manifest then replays from any working directory, and the run's
    directory may move as a whole.
    """
    inputs, outputs = files
    path = _manifest_path(outputs[0])
    home = os.path.dirname(path) or os.curdir

    def relative(p) -> str:
        return str(p) if os.path.isabs(p) else os.path.relpath(p, home)

    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "tool_version": __version__,
        "command": command,
        "args": {
            key: _map_paths(key, value, relative)
            for key, value in vars(args).items()
            if key not in ("func", "command")
        },
        "inputs": {relative(p): _sha256(p) for p in inputs},
        "outputs": {relative(p): _sha256(p) for p in outputs},
        "duration_seconds": time.monotonic() - started,
    }
    write_atomic(path, (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8"))
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
    )


def _load_datasets(paths: list, drop_indet: bool) -> list[Dataset]:
    loaded = []
    for path in paths:
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
        raise RuntimeError(f"cannot read graph file {path}: {exc}") from exc
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        cells = line.split()
        if len(cells) == 1:
            cells = list(line)
        try:
            rows.append([int(c) for c in cells])
        except ValueError as exc:
            raise ValueError(f"graph file {path} has a non-binary row: {line!r}") from exc
    try:
        return Graph(np.array(rows, dtype=np.int64), v_init, v_target)
    except ValueError as exc:
        raise ValueError(f"graph file {path} is not a valid graph: {exc}") from exc


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
    files = _files(args, [args.graph] if args.graph is not None else [], [args.out])
    if args.graph is not None:
        graph = _read_graph_file(args.graph, args.v_init, args.v_target)
    outcome = label_graph(graph, _walk_config(args), record_traces=True)
    write_trace_csv(outcome, args.out)
    print(f"p_threshold: {outcome.p_threshold:.6f}")
    print(f"t_classical: {_format_time(outcome.classical_hit_time)}")
    print(f"t_quantum: {_format_time(outcome.quantum_hit_time)}")
    print(f"label: {LABEL_NAMES[outcome.label]}")
    if outcome.indeterminate:
        print(f"note: neither walker crossed the threshold by t_max={outcome.t_max:g}")
    print(f"trace written to {args.out}")
    _write_manifest("simulate", args, files, started)
    return 0


def cmd_gen_dataset(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
    if args.kind == "random" and args.count < 1:
        raise UsageError(f"--count must be >= 1, got {args.count}")
    files = _files(args, [], [args.out])
    cfg = _walk_config(args)
    if args.kind == "line":
        dataset = build_line_dataset(args.n, cfg)
    else:
        args.seed = _resolve_seed(args.seed)
        dataset = build_random_dataset(args.n, args.count, args.seed, cfg)
    if args.drop_indeterminate:
        dataset = drop_indeterminate(dataset)
    save(dataset, args.out)
    kappa = dataset.class_fractions
    flagged = len(dataset) - len(drop_indeterminate(dataset))
    print(f"{len(dataset)} examples written to {args.out}")
    print(f"class fractions: classical {kappa[0]:.4f}, quantum {kappa[1]:.4f}")
    if flagged:
        print(f"indeterminate examples retained: {flagged}")
    _write_manifest("gen-dataset", args, files, started)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if args.epochs < 1:
        raise UsageError(f"--epochs must be >= 1, got {args.epochs}")
    if args.holdout is not None and not 0.0 < args.holdout < 1.0:
        raise UsageError(f"--holdout must lie in (0, 1), got {args.holdout}")
    try:
        _real("learning rate", args.lr, 0)
        schedule = Schedule(
            epochs=args.epochs,
            batches_per_epoch=args.batches_per_epoch,
            batch_size=args.batch_size,
            eval_every=args.eval_every,
            inverse_class_weights=args.inverse_class_weights,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    args.history_out = args.history_out or f"{Path(args.model_out).with_suffix('')}.history.csv"
    files = _files(args, args.train + args.test, [args.model_out, args.history_out])
    # the seed is printed, when generated, only once every flag and file has passed
    args.seed = _resolve_seed(args.seed)
    model_seed, batch_seed, holdout_seed = (
        int(s) for s in np.random.default_rng(args.seed).integers(2**63, size=3)
    )
    schedule = replace(schedule, seed=batch_seed)

    train_parts = _load_datasets(args.train, args.drop_indeterminate)
    test_sets = _load_datasets(args.test, args.drop_indeterminate)
    train_set = merge(train_parts)
    if args.holdout is not None:
        train_set, held_out = split(train_set, 1.0 - args.holdout, holdout_seed)
        test_sets = [held_out] + test_sets

    n_max = args.n_max
    if n_max is None:
        n_max = max(d.max_n for d in [train_set] + test_sets)
    model = new_model(args.variant, n_max, model_seed, args.lr, args.hidden_width)
    model, history = train(model, train_set, test_sets, schedule)
    save_model(model, args.model_out)
    write_history_csv(history, args.history_out)
    print(f"trained {args.variant} model (n_max={n_max}) on {len(train_set)} examples")
    # the final epoch's history row holds each test set's metrics
    for i, test in enumerate(test_sets):
        suffix = _column_suffix(i, len(test_sets))
        name = f"test set {i + 1}" if len(test_sets) > 1 else "test set"
        accuracy = history[-1][f"test_accuracy{suffix}"]
        print(f"{name} ({len(test)} examples): accuracy {accuracy:.4f}")
    print(f"model written to {args.model_out}")
    print(f"history written to {args.history_out}")
    _write_manifest("train", args, files, started)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.monotonic()
    files = _files(args, [args.model, args.data], [args.out])
    model = load_model(args.model)
    dataset = _load_datasets([args.data], args.drop_indeterminate)[0]
    metrics = evaluate(model, dataset)
    _print_metrics(metrics)
    write_metrics_csv(metrics, args.out)
    print(f"metrics written to {args.out}")
    _write_manifest("eval", args, files, started)
    return 0


def _inspect_single(model, out) -> None:
    columns = ("vertex", "feature", "class", "weight")
    write_csv(out, columns, ([r[c] for c in columns] for r in export_last_layer(model)))


def _inspect_ensemble(models: list, out) -> None:
    stats = ensemble_stats([(m, []) for m in models])
    # export_last_layer's rows run slot-major, then class, as the flattened weights do
    rows = export_last_layer(models[0])
    means = stats.last_layer_mean.reshape(-1)
    deviations = np.sqrt(stats.last_layer_msd).reshape(-1)
    write_csv(out, ("vertex", "feature", "class", "mean", "deviation"), (
        [r["vertex"], r["feature"], r["class"], mean, dev]
        for r, mean, dev in zip(rows, means, deviations)
    ))


def cmd_inspect(args: argparse.Namespace) -> int:
    started = time.monotonic()
    if (args.model is None) == (args.ensemble is None):
        raise UsageError("give exactly one of MODEL or --ensemble DIR")
    if args.model is not None:
        files = _files(args, [args.model], [args.out])
        _inspect_single(load_model(args.model), args.out)
    else:
        paths = sorted(Path(args.ensemble).glob("*.json"))
        paths = [str(p) for p in paths if not p.name.endswith(".manifest.json")]
        if not paths:
            raise RuntimeError(f"no model files (*.json) under {args.ensemble}")
        files = _files(args, paths, [args.out])
        _inspect_ensemble([load_model(p) for p in paths], args.out)
    print(f"weight table written to {args.out}")
    _write_manifest("inspect", args, files, started)
    return 0


def _command_parser(command) -> argparse.ArgumentParser | None:
    """The subparser of a command that writes a manifest, or None for any
    other value."""
    if not isinstance(command, str) or command == "rerun":
        return None
    actions = _parser()._actions
    subcommands = next(a for a in actions if isinstance(a, argparse._SubParsersAction))
    return subcommands.choices.get(command)


def _recorded_value_fault(action: argparse.Action, value) -> str | None:
    """Why a value read from a manifest is not one that `action` could have
    produced, or None if it is."""
    if value is None:
        return None if action.default is None and not action.required else "must not be null"
    if isinstance(action, argparse._StoreTrueAction):
        return None if isinstance(value, bool) else "must be true or false"
    if action.nargs in ("+", "*") and not isinstance(value, list):
        return "must be a list"
    kinds, noun = {None: ((str,), "a string"), int: ((int,), "an integer"),
                   float: ((int, float), "a number")}[action.type]
    for item in value if action.nargs in ("+", "*") else [value]:
        if isinstance(item, bool) or not isinstance(item, kinds):
            return f"must be {noun}"
        if action.choices is not None and item not in action.choices:
            return f"must be one of {', '.join(map(repr, action.choices))}"
    return None


def cmd_rerun(args: argparse.Namespace) -> int:
    if not Path(args.manifest).exists():
        raise UsageError(f"manifest not found: {args.manifest}")
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise RuntimeError(f"{args.manifest} is not a run manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise RuntimeError(f"{args.manifest} is not a run manifest")
    if not all(isinstance(manifest.get(k), dict) for k in ("args", "inputs", "outputs")):
        raise RuntimeError(f"{args.manifest}: args, inputs and outputs must be JSON objects")
    command = manifest.get("command")
    parser = _command_parser(command)
    if parser is None:
        raise RuntimeError(
            f"{args.manifest}: {command!r} is not a command that writes a manifest"
        )
    try:
        version = _integer("version", manifest.get("version", 1), 1, _MANIFEST_VERSION)
    except (TypeError, ValueError) as exc:
        raise RuntimeError(f"{args.manifest}: {exc}") from exc
    actions = {a.dest: a for a in parser._actions if a.dest != "help"}
    missing = sorted(actions.keys() - manifest["args"].keys())
    if missing:
        raise RuntimeError(f"{args.manifest}: args lack {', '.join(missing)}")
    for key, action in actions.items():
        value = manifest["args"][key]
        fault = _recorded_value_fault(action, value)
        if fault:
            raise RuntimeError(f"{args.manifest}: args.{key} {fault}, got {value!r}")
    home = Path(args.manifest).parent if version >= 2 else Path()

    def resolve(p: str) -> str:
        return str(home / p)  # an absolute p stays as it is

    # An input that changed since the run would make every output mismatch
    # without saying why; name it and stop instead.
    drifted = 0
    for recorded_path, recorded in manifest["inputs"].items():
        path = resolve(recorded_path)
        now = _sha256(path) if Path(path).is_file() else "missing"
        if now != recorded:
            print(f"DRIFTED {path}: recorded {recorded}, now {now}")
            drifted += 1
    if drifted:
        return 1
    outputs = manifest["outputs"]
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
            **{
                key: _map_paths(key, value, lambda p: remap.get(p) or resolve(p))
                for key, value in manifest["args"].items()
            }
        )
        code = parser.get_default("func")(replay)
        if code != 0:
            return code
        failures = 0
        for recorded_path, recorded in outputs.items():
            fresh_path = remap[recorded_path]
            shown = resolve(recorded_path)
            if not Path(fresh_path).exists():
                print(f"MISSING {shown}")
                failures += 1
                continue
            fresh = _sha256(fresh_path)
            if fresh == recorded:
                print(f"ok {shown}")
            else:
                print(f"MISMATCH {shown}: recorded {recorded}, got {fresh}")
                failures += 1
    return 1 if failures else 0


# ====== parser ======


def _add_walk_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--gamma",
        type=float,
        default=WalkConfig.gamma,
        help="sink decay rate (default %(default)s)",
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

    sim = commands.add_parser("simulate", help="run both walkers on one graph")
    sim.add_argument("--line", help="1-based line-graph labeling, e.g. 1,3,2")
    sim.add_argument("--graph", help="path to an adjacency-matrix text file")
    sim.add_argument(
        "--v-init", type=int, default=Graph.v_init, help="start vertex (default %(default)s)"
    )
    sim.add_argument(
        "--v-target", type=int, default=Graph.v_target, help="target vertex (default %(default)s)"
    )
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
        "--jobs",
        type=int,
        default=1,
        help="ignored, as every build runs in one process; must be >= 1 (default 1)",
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
    # the defaults of the schedule and the model, as their classes state them
    for flag, kind, default, text in (
        ("--epochs", int, Schedule.epochs, "training epochs"),
        ("--batches-per-epoch", int, Schedule.batches_per_epoch, "SGD steps per epoch"),
        ("--batch-size", int, Schedule.batch_size, "examples per SGD step"),
        ("--lr", float, CqcnnModel.learning_rate, "learning rate"),
        ("--hidden-width", int, CqcnnModel.hidden_width, "full-variant hidden units"),
        ("--eval-every", int, Schedule.eval_every, "test-metric cadence in epochs"),
    ):
        tr.add_argument(flag, type=kind, default=default, help=f"{text} (default %(default)s)")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, which `main` and `rerun` share: built
    on first use, as parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=sys.stderr)
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return 2
    except (
        TrainingError,
        DatasetFormatError,
        ModelFormatError,
        RuntimeError,
        ValueError,
        OSError,
    ) as exc:
        print(f"qwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
