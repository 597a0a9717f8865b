"""Simulator service process for the ``remote-sweep`` workload.

Usage: ``python server.py --store PATH [--trace 0|1] [--spans PATH]``
(with ``src`` and this directory on ``PYTHONPATH``).

Serves on an ephemeral localhost port and prints ``PORT <n>`` once bound.
It stops when its standard input closes, then prints one JSON line: its
peak RSS, the calibration of the matrix cells it ran and, when traced, the
per-layer counts and self times (the spans themselves go to ``--spans``).

Untraced, the server takes host-speed calibration points (see
:mod:`calibrate`) in the matrix cells a ``SUBM`` runs: it wraps ``on_tick``
of every registered scheduling strategy, leaving the decisions unchanged.
Interactive ``RUN``s schedule through ``ExternalProtocolStrategy``, which
is not registered, so no point falls inside a decision round the client
times.  The client, which times the ``SUBM`` from outside, takes the
points' time back out and scales the rest by their speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def calibrate_cells():
    """A :class:`~calibrate.Calibrator` polled before every strategy tick
    of the registered strategies (a subclass calling ``super()`` polls
    twice; the second poll finds no point due)."""
    import functools

    from calibrate import Calibrator
    from repro.scheduling.policies import get_strategy, strategy_names

    calibrator = Calibrator()
    for cls in {get_strategy(name) for name in strategy_names()}:
        if "on_tick" not in vars(cls):
            continue
        inner = vars(cls)["on_tick"]

        @functools.wraps(inner)
        def on_tick(self, view, _inner=inner):
            calibrator.poll()
            return _inner(self, view)

        cls.on_tick = on_tick
    return calibrator


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = calibrator = None
    if args.trace:
        from tracer import Tracer, install
        tracer = install(Tracer())
    else:
        calibrator = calibrate_cells()
    from repro.service import SimulatorService

    service = SimulatorService(port=0, store=args.store)
    service.start()
    try:
        print(f"PORT {service.address[1]}", flush=True)
        sys.stdin.read()  # until the benchmark closes our stdin
    finally:
        service.stop()
    report: dict = {"peak_rss_mb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if calibrator is not None:
        report["calibration"] = {"slice_s": calibrator.slice_s,
                                 "factor": calibrator.factor}
    if tracer is not None:
        report["counts"] = dict(tracer.counts)
        report["self_s"] = tracer.self_times()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
