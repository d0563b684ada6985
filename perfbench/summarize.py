"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --workloads label-random train-full lines-cli \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace 0 --out perfbench/BENCH_baseline.json

Each run is a fresh process, one after another. For every workload and
metric the summary gives the median, the quartiles (statistics.quantiles
with n=4) and the spread, which is the interquartile distance as a share of
the median. The workload's own figures (the lines `run.py` prints before
its result) are summarized the same way.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "values": values,
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    figures = {}
    for line in lines[:-1]:
        match = re.match(r"^  (\S+): ([-0-9.e+]+)$", line)
        if match:
            figures[match.group(1)] = float(match.group(2))
        elif line.startswith("machine: "):
            figures["probe_s"] = json.loads(line[len("machine: "):])["probe_s"][0]
    return result, figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write the summary as JSON here")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    report: dict = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        metrics: dict[str, list[float]] = {}
        figures: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in args.seeds:
            result, extra = run_once(workload, seed, seconds, args.trace)
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            for name, value in extra.items():
                figures.setdefault(name, []).append(value)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items() if args.trace == 0
            ), flush=True)
        entry = {
            "failed": failed,
            "metrics": {k: {"unit": units[k], **_summary(v)} for k, v in metrics.items()},
            "figures": {k: _summary(v) for k, v in figures.items()},
        }
        report["workloads"][workload] = entry
        for kind in ("metrics", "figures"):
            for name, s in entry[kind].items():
                print(f"  {workload} {name}: median {s['median']:.6g} "
                      f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
