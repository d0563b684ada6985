"""The three benchmark workloads, each a closed loop of one caller.

Every workload builds its inputs from the seed in `setup`, runs its unit of
work repeatedly for the requested seconds in `measure`, and checks the
outputs in `check`, outside the timed phase. Only public functions of
``qwalk`` and ``qwalk.cli.main`` are called, always through the module
attribute, so a `Tracer` that patches those attributes sees every call.

- label-random: `label_graph` on 300 random graphs, 75 each at n = 8, 12, 16, 20.
  The walkers do nearly all the work; the classifier does none.
- train-full: the desk protocol's model shape (full variant, n_max=15,
  lr 0.1, 20 batches x 3 per epoch, test scored every 10 epochs) on two
  checked-in n=15 datasets, then a standalone `evaluate`. The classifier
  and evaluation do all the work; the walkers do none.
- lines-cli: the line protocol through `qwalk.cli.main`: gen-dataset for
  n=4..7, train (simple variant) on n=4..6 scored on n=7, eval, simulate
  one line with a trace CSV, and rerun of the eval manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import statistics
import time
from pathlib import Path

import numpy as np

import qwalk
import qwalk.cli

HERE = Path(__file__).resolve().parent


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)


def _median(values) -> float:
    return float(statistics.median(values))


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Timings are the median of a run's repetitions. The fastest repetition
# would depend on how many repetitions fit into a run, and so on the speed
# of the program being measured.


def _paired_passes(run_pass, seconds: float, tracer, min_passes: int):
    """Run passes until `seconds` have elapsed; return (untraced, traced) times.

    Untraced, every pass is timed as is. Traced, passes come in pairs, one
    with the tracer installed and one without, in alternating order, so the
    pair difference is the tracing overhead under the same host conditions.
    """
    plain: list[float] = []
    traced: list[float] = []
    start = time.perf_counter()
    index = 0
    while index < min_passes or time.perf_counter() - start < seconds:
        if tracer is None:
            plain.append(run_pass(index, False))
        else:
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced.append(run_pass(index, True))
                    finally:
                        tracer.uninstall()
                else:
                    plain.append(run_pass(index, False))
        index += 1
    return plain, traced


# ====== label-random ======


class LabelRandom:
    name = "label-random"
    SIZES = (8, 12, 16, 20)
    # 300 graphs, so 15 lie beyond the p95 latency. The share of slow and
    # never-crossing walks varies from seed to seed; more graphs per run
    # make that variation a smaller share of wall_s.
    PER_N = 75

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.graphs: list = []
        self.passes = 0  # complete sweeps over the graph set, traced runs only

    def setup(self) -> None:
        """PER_N random_graph draws per n, in a seeded random order."""
        rng = np.random.default_rng(self.seed)
        seeds = rng.integers(2**63, size=(len(self.SIZES), self.PER_N))
        graphs = [qwalk.random_graph(n, int(s)) for n, row in zip(self.SIZES, seeds) for s in row]
        order = rng.permutation(len(graphs))
        self.graphs = [graphs[i] for i in order]
        self.outcomes: list = [None] * len(self.graphs)

    def _label(self, k: int) -> float:
        graph = self.graphs[k]
        self.ops.attempted += 1
        started = time.perf_counter()
        try:
            outcome = qwalk.label_graph(graph)
        except Exception as exc:  # a failed operation, counted and reported
            self.ops.fail(f"label_graph on graph {k}: {exc!r}")
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        first = self.outcomes[k]
        if first is None:
            self.outcomes[k] = outcome
        elif (first.classical_hit_time, first.quantum_hit_time, first.label) != (
            outcome.classical_hit_time,
            outcome.quantum_hit_time,
            outcome.label,
        ):
            self.ops.fail(f"graph {k}: repeated labeling gave a different outcome")
        return elapsed

    def measure(self, seconds: float, tracer) -> dict:
        count = len(self.graphs)
        plain: list[list[float]] = [[] for _ in range(count)]
        traced: list[list[float]] = [[] for _ in range(count)]
        start = time.perf_counter()
        i = 0
        if tracer is None:
            # Every graph at least once, then as many more as the time allows.
            while i < count or time.perf_counter() - start < seconds:
                plain[i % count].append(self._label(i % count))
                i += 1
        else:
            # Each graph twice, traced and untraced in alternating order;
            # stop only at the end of a sweep so per-sweep figures are exact.
            while i < count or time.perf_counter() - start < seconds:
                for k in range(count):
                    for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                        if with_trace:
                            tracer.install()
                            try:
                                traced[k].append(self._label(k))
                            finally:
                                tracer.uninstall()
                        else:
                            plain[k].append(self._label(k))
                i += count
                self.passes += 1
        sweep = [_median(v) for v in plain]
        result = {
            "wall_s": sum(sweep),
            "graphs_per_s": count / sum(sweep),
            "label_ms_p50": 1e3 * _median(sweep),
            "label_ms_p95": 1e3 * _percentile(sweep, 95),
            "graphs_labeled": i,
        }
        if tracer is not None:
            result["traced_wall_s"] = sum(_median(v) for v in traced)
        return result

    def check(self) -> None:
        import outcheck  # scipy.optimize: kept out of set-up and the peak RSS

        for k, (graph, outcome) in enumerate(zip(self.graphs, self.outcomes)):
            if outcome is None:
                continue
            verdict = outcheck.check(
                graph.adjacency,
                graph.v_init,
                graph.v_target,
                outcome.classical_hit_time,
                outcome.quantum_hit_time,
                outcome.label,
            )
            if not verdict.ok:
                self.ops.fail(f"graph {k} (n={graph.n}): {'; '.join(verdict.problems)}")


# ====== train-full ======


class TrainFull:
    name = "train-full"
    DATA = {
        "train-n15.jsonl.gz": "ecd36d77e1b7a32ca1737c7b1c3972c831ea87fe6de102d0c2591ac26313f0a1",
        "test-n15.jsonl.gz": "e0b31f998f76945cc676bdcd8e9127b4e4405a2bb7f7c741c1ed48e40d16c5ed",
    }
    EPOCHS = 30
    SCHEDULE = dict(batches_per_epoch=20, batch_size=3, eval_every=10)
    EVALS_PER_PASS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.passes = 0
        self.results: list[tuple] = []
        self.train_s: list[float] = []
        self.eval_s: list[float] = []

    def setup(self) -> None:
        for name, expected in self.DATA.items():
            actual = _sha256(HERE / "data" / name)
            if actual != expected:
                raise RuntimeError(f"data/{name}: sha256 {actual}, expected {expected}")
        self.train_set = qwalk.load(HERE / "data" / "train-n15.jsonl.gz")
        self.test_set = qwalk.load(HERE / "data" / "test-n15.jsonl.gz")
        rng = np.random.default_rng(self.seed)
        self.model_seed, self.batch_seed = (int(s) for s in rng.integers(2**63, size=2))

    def _pass(self, index: int, traced: bool) -> float:
        started = time.perf_counter()
        model = qwalk.new_model("full", 15, self.model_seed, learning_rate=0.1)
        schedule = qwalk.Schedule(epochs=self.EPOCHS, seed=self.batch_seed, **self.SCHEDULE)
        self.ops.attempted += 1
        try:
            model, history = qwalk.train(model, self.train_set, self.test_set, schedule)
        except Exception as exc:
            self.ops.fail(f"train: {exc!r}")
            return time.perf_counter() - started
        trained = time.perf_counter()
        metrics = None
        for _ in range(self.EVALS_PER_PASS):
            self.ops.attempted += 1
            t = time.perf_counter()
            try:
                metrics = qwalk.evaluate(model, self.test_set)
            except Exception as exc:
                self.ops.fail(f"evaluate: {exc!r}")
                continue
            if not traced:
                self.eval_s.append(time.perf_counter() - t)
        ended = time.perf_counter()
        if not traced:
            self.train_s.append(trained - started)
        self.results.append((model, history, metrics))
        return ended - started

    def measure(self, seconds: float, tracer) -> dict:
        plain, traced = _paired_passes(self._pass, seconds, tracer, min_passes=2)
        accuracy = self.results[0][2].accuracy if self.results[0][2] is not None else float("nan")
        result = {
            "wall_s": _median(plain),
            "train_examples_per_s": self.EPOCHS * 20 * 3 / _median(self.train_s),
            "eval_examples_per_s": len(self.test_set) / _median(self.eval_s),
            "test_accuracy": accuracy,
        }
        if tracer is not None:
            result["traced_wall_s"] = _median(traced)
            self.passes = len(traced)
        return result

    def check(self) -> None:
        reference = self.results[0]
        for index, (model, history, metrics) in enumerate(self.results):
            if metrics is None:
                continue
            problems = []
            if len(history) != self.EPOCHS + 1:
                problems.append(f"{len(history)} history rows for {self.EPOCHS} epochs")
            if not all(math.isfinite(row["train_loss"]) for row in history):
                problems.append("non-finite training loss")
            if history[-1].get("test_accuracy") != metrics.accuracy:
                problems.append("evaluate disagrees with the history's final test accuracy")
            confusion = metrics.confusion
            if int(confusion.sum()) != len(self.test_set):
                problems.append("confusion matrix does not count every test example")
            if abs(metrics.accuracy - np.trace(confusion) / confusion.sum()) > 1e-12:
                problems.append("accuracy is not the confusion-matrix diagonal share")
            ref_model = reference[0]
            if any(not np.array_equal(model.weights[k], ref_model.weights[k]) for k in ref_model.weights):
                problems.append("same seed, different trained weights")
            if metrics.accuracy != reference[2].accuracy:
                problems.append("same seed, different test accuracy")
            for problem in problems:
                self.ops.fail(f"pass {index}: {problem}")


# ====== lines-cli ======


class LinesCli:
    name = "lines-cli"
    SIZES = (4, 5, 6, 7)
    EPOCHS = 200
    ARTIFACTS = ("l4.jsonl.gz", "l5.jsonl.gz", "l6.jsonl.gz", "l7.jsonl.gz",
                 "model.json", "model.history.csv", "metrics.csv", "trace.csv")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.passes = 0
        self._tracer = None
        # per pass: command -> (exit code, stdout), plus "dir", "traced", "seconds"
        self.outputs: list[dict] = []

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.train_seed = int(rng.integers(2**31))
        self.line = [int(v) for v in rng.permutation(7)]

    def _cli(self, argv: list[str], log: dict, key: str, tracer_on: bool) -> None:
        """Run one command in-process; a nonzero exit code is a failed operation."""
        self.ops.attempted += 1
        out = io.StringIO()
        started = time.perf_counter()
        span = self._tracer.open(f"cli.{argv[0]}") if tracer_on else None
        try:
            with contextlib.redirect_stdout(out):
                code = qwalk.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception as exc:
            code = None
            self.ops.fail(f"{key}: {exc!r}")
        finally:
            if span is not None:
                self._tracer.close(span)
        elapsed = time.perf_counter() - started
        if code not in (0, None):
            self.ops.fail(f"{key}: exit code {code}")
        log[key] = (code, out.getvalue())
        log["seconds"][key] = elapsed

    def _pass(self, index: int, traced: bool) -> float:
        d = self.workdir / f"pass{index}{'t' if traced else ''}"
        d.mkdir(parents=True)
        log: dict = {"dir": d, "traced": traced, "seconds": {}}
        started = time.perf_counter()
        for n in self.SIZES:
            self._cli(["gen-dataset", "line", "--n", str(n), "--jobs", "1", "--out", str(d / f"l{n}.jsonl.gz")],
                      log, f"gen{n}", traced)
        self._cli(["train", "--train", *(str(d / f"l{n}.jsonl.gz") for n in (4, 5, 6)),
                   "--test", str(d / "l7.jsonl.gz"), "--variant", "simple", "--epochs", str(self.EPOCHS),
                   "--seed", str(self.train_seed), "--model-out", str(d / "model.json")],
                  log, "train", traced)
        self._cli(["eval", "--model", str(d / "model.json"), "--data", str(d / "l7.jsonl.gz"),
                   "--out", str(d / "metrics.csv")], log, "eval", traced)
        self._cli(["simulate", "--line", ",".join(str(v + 1) for v in self.line),
                   "--out", str(d / "trace.csv")], log, "simulate", traced)
        self._cli(["rerun", str(d / "metrics.csv.manifest.json")], log, "rerun", traced)
        elapsed = time.perf_counter() - started
        # Each output the rerun verified is one more operation.
        self.ops.attempted += len(re.findall(r"^(ok|MISMATCH|MISSING) ", log["rerun"][1], re.M))
        self.outputs.append(log)
        return elapsed

    def _typical(self, traced: bool) -> dict:
        """Median time of each command over the passes of one kind."""
        runs = [log["seconds"] for log in self.outputs if log["traced"] == traced]
        return {key: _median(r[key] for r in runs) for key in runs[0]}

    def measure(self, seconds: float, tracer) -> dict:
        self._tracer = tracer
        _paired_passes(self._pass, seconds, tracer, min_passes=1)
        typical = self._typical(False)
        graphs = sum(math.factorial(n) // 2 for n in self.SIZES)
        accuracy = re.search(r"accuracy: ([0-9.]+)", self.outputs[0]["eval"][1])
        result = {
            "wall_s": sum(typical.values()),
            "graphs_per_s": graphs / sum(typical[f"gen{n}"] for n in self.SIZES),
            "train_examples_per_s": self.EPOCHS * 3 / typical["train"],
            "eval_examples_per_s": math.factorial(7) // 2 / typical["eval"],
            "test_accuracy": float(accuracy.group(1)) if accuracy else float("nan"),
        }
        if tracer is not None:
            result["traced_wall_s"] = sum(self._typical(True).values())
            self.passes = sum(log["traced"] for log in self.outputs)
        return result

    def traced_mismatches(self) -> int:
        return sum(log["rerun"][1].count("MISMATCH") for log in self.outputs if log["traced"])

    def check(self) -> None:
        first = self.outputs[0]
        self._check_datasets(first)
        self._check_simulate(first)
        for index, log in enumerate(self.outputs):
            rerun = log["rerun"][1]
            for line in rerun.splitlines():
                if line.startswith(("MISMATCH", "MISSING")):
                    self.ops.fail(f"pass {index} rerun: {line}")
            train_acc = re.search(r"accuracy (\d\.\d+)", log["train"][1])
            eval_acc = re.search(r"accuracy: (\d\.\d+)", log["eval"][1])
            if not (train_acc and eval_acc and train_acc.group(1) == eval_acc.group(1)):
                self.ops.fail(f"pass {index}: eval accuracy differs from train's test accuracy")
            for name in self.ARTIFACTS:
                a, b = first["dir"] / name, log["dir"] / name
                if not b.exists() or (index and _sha256(a) != _sha256(b)):
                    self.ops.fail(f"pass {index}: {name} missing or differs from pass 0")

    def _check_datasets(self, log: dict) -> None:
        import outcheck

        for n in self.SIZES:
            path = log["dir"] / f"l{n}.jsonl.gz"
            try:
                dataset = qwalk.load(path)
            except Exception as exc:
                self.ops.fail(f"{path.name}: {exc!r}")
                continue
            if len(dataset) != math.factorial(n) // 2:
                self.ops.fail(f"{path.name}: {len(dataset)} records, expected {math.factorial(n) // 2}")
            bad = []
            for k, e in enumerate(dataset):
                verdict = outcheck.check(
                    e.graph.adjacency, e.graph.v_init, e.graph.v_target,
                    e.classical_hit_time, e.quantum_hit_time, e.label,
                )
                if not verdict.ok:
                    bad.append(f"record {k}: {'; '.join(verdict.problems)}")
            if bad:
                self.ops.fail(f"{path.name}: {len(bad)} records fail the exact check, first {bad[0]}")

    def _check_simulate(self, log: dict) -> None:
        import outcheck

        text = log["simulate"][1]
        fields = dict(re.findall(r"^(t_classical|t_quantum|label): (\S+)$", text, re.M))
        if set(fields) != {"t_classical", "t_quantum", "label"}:
            self.ops.fail("simulate: missing t_classical, t_quantum or label line")
            return
        times = [None if fields[k] == "never" else float(fields[k]) for k in ("t_classical", "t_quantum")]
        label = outcheck.QUANTUM if fields["label"] == "quantum" else outcheck.CLASSICAL
        graph = qwalk.line_graph(len(self.line), self.line)
        verdict = outcheck.check(graph.adjacency, graph.v_init, graph.v_target, times[0], times[1], label)
        if not verdict.ok:
            self.ops.fail(f"simulate: {'; '.join(verdict.problems)}")
        rows = (log["dir"] / "trace.csv").read_text().splitlines()
        if rows[0] != "t,p_classical,p_quantum" or len(rows) < 3:
            self.ops.fail("simulate: trace CSV lacks its header or rows")


WORKLOADS = {w.name: w for w in (LabelRandom, TrainFull, LinesCli)}
