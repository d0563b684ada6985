"""Benchmark for qwalk: one workload per run, one caller, BLAS on one thread.

    python3 perfbench/run.py --workload label-random --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: qwalk is imported from its ``src``
directory and nowhere else. With ``--trace 0`` the last stdout line is a
JSON object whose metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from spans recorded around
qwalk's public functions. The lines before it describe the machine, the
workload's own figures, and any failed operation.
"""

from __future__ import annotations

import os

# The pin must be in place before numpy loads its BLAS.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "QWALK_JOBS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
PROBE_REPEATS = 3


def _import_qwalk() -> None:
    """Import qwalk from this checkout's src directory, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import qwalk

    if not Path(qwalk.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"qwalk imported from {qwalk.__file__}, not from {src}")


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ====== machine record ======


def _probe_kernel() -> float:
    """Median time of a fixed complex matmul chain: host speed, not code speed."""
    import numpy as np

    rng = np.random.default_rng(0)
    m = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 16
    times = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        acc = m
        for _ in range(1500):
            acc = acc @ m
            acc /= np.abs(acc).max()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_pin": BLAS_PIN,
    }


# ====== set-up time ======


def _setup_times(args, count: int) -> list[float]:
    """Wall times of `count` fresh interpreters that import and build the inputs."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(count):
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - started)
    return times


# ====== per-layer figures ======


def _statistic(spans, kind: str) -> float:
    if kind == "calls":
        return len(spans)
    if kind == "busy_s":
        return sum(s.duration for s in spans)
    if kind == "self_s":
        return sum(s.self_s for s in spans)
    if kind == "q_never_s":
        return sum(s.duration for s in spans if s.attrs.get("q_never"))
    # a count or total observed at the span's boundary: q_never, bytes, ...
    return sum(s.attrs.get(kind, 0) for s in spans)


def _layer_metrics(names, tracer, setup_end: int, workload, measured: dict) -> dict:
    """Per-layer values named `<span>.<statistic>`.

    Set-up spans count once; spans of traced passes are averaged per pass.
    `<span>.ms_p50.n<k>` is the median duration of the pass spans on graphs
    with k vertices (0 without such graphs).
    """
    by_name: dict[str, tuple[list, list]] = {}
    for i, span in enumerate(tracer.spans):
        by_name.setdefault(span.name, ([], []))[i >= setup_end].append(span)
    passes = max(workload.passes, 1)
    values = {}
    for metric in names:
        if metric == "trace.overhead_s":
            values[metric] = measured["traced_wall_s"] - measured["wall_s"]
        elif metric == "cli.rerun.mismatches":
            values[metric] = getattr(workload, "traced_mismatches", lambda: 0)() / passes
        elif ".ms_p50.n" in metric:
            span_name, size = metric.split(".ms_p50.n")
            ms = [1e3 * s.duration for s in by_name.get(span_name, ([], []))[1] if s.attrs.get("n") == int(size)]
            values[metric] = statistics.median(ms) if ms else 0.0
        else:
            span_name, kind = metric.rsplit(".", 1)
            setup_spans, pass_spans = by_name.get(span_name, ([], []))
            values[metric] = _statistic(setup_spans, kind) + _statistic(pass_spans, kind) / passes
    return values


# ====== main ======


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    _import_qwalk()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_probe:
        workload.setup()
        return 0

    machine = _machine()
    probe_start = _probe_kernel()
    # Set-up is timed before and after the measured phase, so that its
    # median spans the host's speed over the run and not over a few seconds.
    setup_times = _setup_times(args, SETUP_REPEATS - SETUP_REPEATS // 2) if not args.trace else []

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_end = len(tracer.spans) if tracer is not None else 0

    workdir.mkdir(parents=True)
    try:
        measured = workload.measure(args.seconds, tracer)
        # Read before the check, whose oracle is the benchmark's, not qwalk's.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not args.trace:
            setup_times += _setup_times(args, SETUP_REPEATS // 2)
        workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()
    machine["probe_s"] = [round(probe_start, 6), round(_probe_kernel(), 6)]

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload: {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for key, value in measured.items():
        print(f"  {key}: {value:.6g}")
    for problem in workload.ops.problems:
        print(f"FAILED {problem}")

    if args.trace:
        units = _declared("per_layer")
        values = _layer_metrics(units, tracer, setup_end, workload, measured)
        if tracer.absent:
            print("absent spans (reported as 0): " + ", ".join(tracer.absent))
        print(f"  traced passes: {workload.passes}")
    else:
        units = _declared("end_to_end")
        values = {"setup_s": statistics.median(setup_times), "wall_s": measured["wall_s"], "peak_rss_mb": peak_rss_mb}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    ops = workload.ops
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
