"""Steadiness command: run one workload repeatedly, seeds 1..runs, and
print each end-to-end metric's median and quartiles next to its bound.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload paper-days --runs 10

The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its
median.  A metric is steady when that spread stays below a third of its
bound; ``setup_s`` is reported but, as a set-up time, judged on its median
alone.  The share of failed operations is printed too: it must be the same
in every set of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable if command[0] == "python3" else command[0],
         *command[1:], "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def summarize(results: list[dict], bench: dict) -> list[str]:
    lines = [f"{'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
             f"{'spread':>7} {'bound':>6}  verdict"]
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        bound = metric["bound"]
        if name == "setup_s":
            verdict = "median only"
        else:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        lines.append(f"{name:<16} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                     f"{spread:>7.3f} {bound:>6.2f}  {verdict}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    walls = [r["wall_s"] for r in results]
    lines.append(f"failed {failed} of {attempted} operations; "
                 f"correct in {sum(r['correct'] for r in results)}/"
                 f"{len(results)} runs; run wall {min(walls):.1f}-"
                 f"{max(walls):.1f} s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    results = []
    for seed in range(1, args.runs + 1):
        results.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in
            results[-1]["metrics"].items()), flush=True)
    print(f"{args.workload}: {args.runs} runs, seeds 1..{args.runs}, "
          f"{seconds} s each")
    print("\n".join(summarize(results, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
