"""Recompute the reference report hashes of the benchmark's inputs.

Usage (from the repository root)::

    python3 perfbench/hashes.py

For each workload it runs, in process and untimed, every scenario of the
workload's seed panel — the scenarios every run performs, whatever its
``--seed`` — and prints one line per report: workload,
scenario, scenario seed and the sha256 of the report's canonical JSON —
the hash ``RPRT`` advertises.  A change that moves one of these hashes
changed behaviour, not only speed.  (``remote-sweep`` lists its
interactive runs; its matrix cells are hashed into the store.)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as w  # noqa: E402


def hashes(workload: str):
    """``(scenario, scenario seed, sha256)`` of every report a run makes."""
    from repro import run_scenario
    for s in sorted(w.SEED_PANELS[workload]):
        if workload == "remote-sweep":
            for preset, sha in w.reference_shas(s, smoke=False).items():
                yield preset, s, sha
        else:
            spec, months = w.workload_spec(workload, s, smoke=False)
            yield spec.name, s, w.report_sha(
                run_scenario(spec, months=months)[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args(argv)
    for workload in w.WORKLOADS:
        for scenario, seed, sha in hashes(workload):
            print(f"{workload:<14} {scenario:<14} seed {seed:<4} {sha}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
