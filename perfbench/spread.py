"""Run one workload under several seeds and print each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload cold_corpus --seeds 1-10 \\
        --seconds 20 [--trace 0]

For every metric it prints the median of the runs and the distance between
their first and third quartile as a share of that median, the figure the
bounds in ``BENCHMARK.json`` are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    sys.path[:1] = [ROOT]
    from perfbench.stats import quartile_spread
    from statistics import median

    values = {}
    for seed in _seeds(args.seeds):
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{name}={metric['value']:.6g}"
                         for name, metric in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, series in values.items():
        middle = median(series)
        spread = quartile_spread(series) if len(series) > 1 and middle else 0.0
        print(f"{name:24s} median {middle:12.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
