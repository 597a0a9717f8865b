"""Set-up probe: a fresh interpreter runs to its first simulated event.

Usage: ``python probe.py <workload> <seed> <smoke 0|1>`` (with ``src`` and
this directory on ``PYTHONPATH``).  Prints ``time.monotonic()`` right after
the first event, so the parent, which noted the same clock before starting
this process, gets process start to first event.
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    workload, seed, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    from repro import FrameworkBuilder
    from workloads import workload_spec

    spec, _months = workload_spec(workload, seed, smoke)
    fw = FrameworkBuilder(spec).build()
    for _ in range(spec.backlog_faults):
        fw.injector.inject()
    fw.start(workload=True, faults=True, testing=spec.framework_enabled)
    if not fw.sim.step():
        raise SystemExit("the world scheduled no event")
    print(time.monotonic(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
