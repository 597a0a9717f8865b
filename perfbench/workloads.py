"""The benchmark's three workloads and the rounds they repeat.

Every workload is built from one client process, single-threaded, with at
most one connection to a server process:

* ``paper-days`` — the ``paper-baseline`` campaign (894 nodes, 50-fault
  backlog, the full testing loop) for :data:`PAPER_DAYS` simulated days
  from a cold world; OAR placement and replanning carry the cost.
* ``elastic-steal`` — ``elastic-burst`` under ``steal-agreement`` on the
  bundled ``tiny-g5k`` trace, run over the preset's horizon, which the
  trace's jobs drain well inside; elastic negotiation and OAR's
  grow/shrink paths carry the cost.
* ``remote-sweep`` — a simulator service in its own process with a JSONL
  store, driven by one :class:`~repro.service.ReferenceClient`
  connection: interactive remote runs, a ``SUBM`` matrix, the same matrix
  again (all cached), ``RPRT store`` and ``CMPR``.

A *round* is one repetition of a workload's operations; a run repeats
rounds until its measuring time is spent.  Rounds of one run use the same
seed, so they double as the determinism check.  Nothing here is timed
against a stored copy of today's output: :mod:`checks` derives every
expectation from the inputs or from a property the method must have.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from calibrate import Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Run artefacts (stores, span files); ignored by git.
OUT = ROOT / ".perfbench"

DAY = 86_400.0
MONTH = 30 * DAY

#: Simulated days per ``paper-days`` round.
PAPER_DAYS = 1.0
#: Remote ``RUN`` presets per ``remote-sweep`` round (full preset horizon).
REMOTE_RUNS = ("tiny-smoke", "trace-replay")
#: The ``SUBM`` matrix: presets x (seed offsets), each cell this long.
MATRIX_PRESETS = ("tiny-smoke", "trace-replay")
MATRIX_SEEDS = 4
MATRIX_MONTHS = 1.5 * DAY / MONTH

WORKLOADS = ("paper-days", "elastic-steal", "remote-sweep")

#: Scenario seeds of each workload.  What a round costs differs from seed
#: to seed by more than the host's own noise (one simulated
#: ``paper-baseline`` day took 3.1-5.2 s on the reference host; the median
#: ``remote-sweep`` decision round 0.62 ms at seed 6 and 0.82-0.97 ms at
#: seeds 1-5; an ``elastic-steal`` round 8-13 % longer at seed 1 than at
#: seed 4, at reference speed), so every run covers its workload's fixed
#: panel: ``--seed`` picks where in the panel a run starts, and all runs
#: do the same work.  ``elastic-steal``'s round takes 25-40 s, so its panel
#: holds two seeds.
SEED_PANELS = {"paper-days": (1, 2, 3, 4), "elastic-steal": (1, 2),
               "remote-sweep": (1, 2, 3, 4)}

#: Rounds every run makes before its measuring time counts: the whole
#: panel and then its first seed again, so every run checks that repeated
#: rounds of one seed report identically.  ``elastic-steal`` makes its
#: panel only, which fills a run; its repeat happens in the traced run.
MIN_ROUNDS = {"paper-days": 5, "elastic-steal": 2, "remote-sweep": 5}


def more_rounds(workload: str, done: int, elapsed_s: float,
                seconds: float) -> bool:
    """Whether a run that has made ``done`` rounds in ``elapsed_s`` makes
    another: until :data:`MIN_ROUNDS` are made and ``seconds`` spent, and
    then on to the end of a whole panel, so every run holds each seed of
    its panel equally often (the first seed once more)."""
    extra = done - MIN_ROUNDS[workload]
    return extra < 0 or elapsed_s < seconds \
        or extra % len(SEED_PANELS[workload]) != 0


def round_seed(workload: str, seed: int, k: int) -> int:
    """Scenario seed of round ``k`` of a run with ``--seed seed``."""
    panel = SEED_PANELS[workload]
    return panel[(seed + k) % len(panel)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def report_sha(report) -> str:
    """sha256 of a report's canonical JSON (what ``RPRT`` advertises)."""
    from repro.util.serialization import canonical_json
    return hashlib.sha256(
        canonical_json(report.to_dict()).encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- in-process workloads --------------------------------------------------------


def workload_spec(workload: str, seed: int, smoke: bool):
    """``(spec, months)`` of one in-process round."""
    from repro import scenarios
    if workload == "paper-days":
        days = 2.0 / 24.0 if smoke else PAPER_DAYS
        spec = scenarios.get("paper-baseline").derive(seed=seed)
        return spec, days * DAY / MONTH
    if workload == "elastic-steal":
        spec = scenarios.get("elastic-burst").derive(
            seed=seed, strategy="steal-agreement")
        if smoke:
            from dataclasses import replace
            spec = spec.derive(workload=replace(spec.workload,
                                                load_scale=0.1),
                               months=2.0 * DAY / MONTH)
        return spec, spec.months
    raise ValueError(f"{workload} has no in-process spec")


class TickClock:
    """Wall time between consecutive scheduler decision rounds.

    A decision round is a scheduler tick with due test cells — the ticks a
    remote scheduler is asked about (``ExternalProtocolStrategy`` skips the
    others).  A strategy subclass, handed to the builder through its public
    ``scheduling_strategy`` extra, notes when each round starts and ends;
    the decisions themselves are the parent class's, unchanged.  Before
    every tick it lets its :class:`~calibrate.Calibrator` take a point when
    one is due (unless ``calibrate`` is off, as in the traced run, whose
    self times must hold program work only); slices count neither in the
    gaps nor in the program time.
    """

    def __init__(self, calibrate: bool) -> None:
        self.gaps_ms: list[float] = []
        self.calibrator = Calibrator()
        self.calibrate = calibrate
        self._last_end: Optional[float] = None
        self._slices_at_end = 0.0

    def strategy_factory(self, name: str):
        from repro.scheduling.policies import get_strategy
        clock = self
        cal = self.calibrator

        class TimedStrategy(get_strategy(name)):
            def on_tick(self, view) -> None:
                if clock.calibrate:
                    cal.poll()
                start = time.perf_counter()
                if not view.due_cells():
                    super().on_tick(view)
                    return
                if clock._last_end is not None:
                    clock.gaps_ms.append(
                        (start - clock._last_end
                         - (cal.slice_s - clock._slices_at_end)) * 1e3)
                try:
                    super().on_tick(view)
                finally:
                    clock._last_end = time.perf_counter()
                    clock._slices_at_end = cal.slice_s

        return TimedStrategy


@dataclass
class CellRound:
    """One in-process campaign cell, timed."""

    fw: object
    report: object
    sim_wall_s: float    # from the built world to the report, no slices
    gaps_ms: list[float] = field(default_factory=list)
    factor: float = 1.0  # reference-speed time per program second
    slice_ms: float = 0.0  # median calibration slice

    @property
    def sim_ref_s(self) -> float:
        """:attr:`sim_wall_s` at reference host speed."""
        return self.sim_wall_s * self.factor

    @property
    def sha(self) -> str:
        return report_sha(self.report)


def run_cell(spec, months: float, calibrate: bool = True) -> CellRound:
    from repro import run_scenario
    clock = TickClock(calibrate)

    def on_builder(builder) -> None:
        builder.with_extra("scheduling_strategy",
                           clock.strategy_factory(spec.strategy))

    def on_built(_fw) -> None:
        clock.calibrator.start()

    fw, report = run_scenario(spec, months=months, on_builder=on_builder,
                              on_built=on_built)
    cal = clock.calibrator
    cal.stop()
    return CellRound(fw=fw, report=report, sim_wall_s=cal.program_s,
                     gaps_ms=clock.gaps_ms, factor=cal.factor,
                     slice_ms=statistics.median(cal.points) * 1e3)


def measure_setup(workload: str, seed: int, smoke: bool) -> float:
    """Process start to the first simulated event, in a fresh interpreter.

    Wall time, not calibrated: the set-up runs in another process, and
    calibration points taken in this one while it waits read the host's
    speed too loosely for half a second of work (README, "Host-speed
    calibration").
    """
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed),
         "1" if smoke else "0"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=120, check=True)
    return float(out.stdout.split()[-1]) - start


# -- remote-sweep ------------------------------------------------------------------


class MeteredTransport:
    """Client-side transport wrapper: decision-round latency and traffic.

    A round is timed from sending ``REDY`` to receiving the next ``TICK``
    or ``DONE``; lines and bytes are counted in both directions.  Before a
    ``REDY`` the meter's calibrator may take a point, while the server
    waits for it; the point is not part of the round.
    """

    def __init__(self, inner, meter: "Meter") -> None:
        self.inner = inner
        self._meter = meter

    def send_line(self, line: str) -> None:
        meter = self._meter
        meter.sent += 1
        meter.bytes += len(line) + 1
        if line == "REDY":
            meter.calibrator.poll()
            meter.redy_at = time.perf_counter()
        self.inner.send_line(line)

    def recv_line(self) -> str:
        line = self.inner.recv_line()
        meter = self._meter
        meter.received += 1
        meter.bytes += len(line) + 1
        if meter.redy_at is not None and line[:4] in ("TICK", "DONE"):
            meter.rounds_ms.append((time.perf_counter() - meter.redy_at) * 1e3)
            meter.redy_at = None
        return line

    def close(self) -> None:
        self.inner.close()


class Meter:
    def __init__(self) -> None:
        self.sent = 0
        self.received = 0
        self.bytes = 0
        self.rounds_ms: list[float] = []
        self.redy_at: Optional[float] = None
        self.calibrator = Calibrator()

    def wrap(self, transport) -> MeteredTransport:
        return MeteredTransport(transport, self)


def _store_client():
    from repro.service import ReferenceClient, ClientError

    class StoreClient(ReferenceClient):
        """Adds ``RPRT store``: the reference client's ``fetch_report``
        hashes only the first line of a data block, so it cannot verify
        the store answer, whose hash covers the whole list."""

        def fetch_store(self) -> list[dict]:
            self._send("RPRT", "store")
            advertised = self._expect("RPRT").args[0]
            lines = self._read_data_block()
            body = "[" + ",".join(lines) + "]"
            digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
            if digest != advertised:
                raise ClientError(f"store hash mismatch: {digest} != "
                                  f"{advertised}")
            return [json.loads(line) for line in lines]

    return StoreClient


@dataclass
class RemoteRound:
    seed: int
    setup_s: float              # wall time, as measure_setup's
    run_wall_s: float           # the RUN phase, slices excluded
    subm_wall_s: float          # the first SUBM, server slices excluded
    run_factor: float           # reference-speed time per second, RUN
    subm_factor: float          # the same over the first SUBM's cells
    conv_wall_s: float          # HELO answered to the last CMPR answer
    runs: list[dict]            # ReferenceClient.run_scenario results
    cells: list[tuple]
    cells_again: list[tuple]
    store_docs: list[dict]
    deltas: dict
    meter: Meter
    server: dict                # the server's exit report
    store_path: Path
    matrix_seeds: list[int]
    run_months: Optional[float]
    baseline: str = MATRIX_PRESETS[0]

    @property
    def sim_days(self) -> float:
        return sum(r["report"]["months"] * MONTH / DAY for r in self.runs)

    @property
    def jobs_completed(self) -> int:
        return sum(r["report"]["jobs_completed"] for r in self.runs)


def remote_params(seed: int, smoke: bool):
    """``(run_months, matrix_seeds, matrix_months)`` of one round."""
    if smoke:
        return 0.02, [seed], 0.25 * DAY / MONTH
    return None, [seed + k for k in range(MATRIX_SEEDS)], MATRIX_MONTHS


def remote_round(seed: int, smoke: bool, index: int, trace: bool,
                 tag: str) -> RemoteRound:
    """One server process, one connection, the whole conversation."""
    run_months, matrix_seeds, matrix_months = remote_params(seed, smoke)
    OUT.mkdir(exist_ok=True)
    store = OUT / f"{tag}-store-{index}.jsonl"
    spans = OUT / f"{tag}-server-spans.txt"
    for path in (store, spans):
        if path.exists():
            path.unlink()
    start = time.monotonic()
    server = subprocess.Popen(
        [sys.executable, str(HERE / "server.py"), "--store", str(store),
         "--trace", "1" if trace else "0", "--spans", str(spans)],
        env=child_env(), cwd=ROOT, stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True)
    try:
        port = int(server.stdout.readline().split()[-1])
        meter = Meter()
        client = _store_client()(port=port, timeout_s=120.0,
                                 transport_wrap=meter.wrap,
                                 name="perfbench")
        setup = time.monotonic() - start
        try:
            t0 = time.perf_counter()
            meter.calibrator.start()
            runs = [client.run_scenario(p, seed=seed, months=run_months)
                    for p in REMOTE_RUNS]
            meter.calibrator.stop()
            t1 = time.perf_counter()
            matrix = dict(scenarios=list(MATRIX_PRESETS), seeds=matrix_seeds,
                          months=matrix_months, workers=1)
            cells = client.submit_campaign(**matrix)
            t2 = time.perf_counter()
            cells_again = client.submit_campaign(**matrix)
            store_docs = client.fetch_store()
            deltas = client.compare(MATRIX_PRESETS[0])
            t3 = time.perf_counter()
        finally:
            client.close()
        server.stdin.close()
        report = json.loads(server.stdout.read().strip().splitlines()[-1])
        server.wait(timeout=60)
        # the server's calibration points all fall in the first SUBM
        cells_cal = report.get("calibration", {"slice_s": 0.0, "factor": 1.0})
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    return RemoteRound(seed=seed, setup_s=setup,
                       run_wall_s=meter.calibrator.program_s,
                       subm_wall_s=t2 - t1 - cells_cal["slice_s"],
                       run_factor=meter.calibrator.factor,
                       subm_factor=cells_cal["factor"], conv_wall_s=t3 - t0,
                       runs=runs, cells=cells, cells_again=cells_again,
                       store_docs=store_docs, deltas=deltas, meter=meter,
                       server=report, store_path=store,
                       matrix_seeds=matrix_seeds, run_months=run_months)


def reference_shas(seed: int, smoke: bool) -> dict[str, str]:
    """In-process report hashes of the remote runs (outside any timing)."""
    from repro import run_scenario, scenarios
    run_months = remote_params(seed, smoke)[0]
    return {p: report_sha(run_scenario(scenarios.get(p), seed=seed,
                                       months=run_months)[1])
            for p in REMOTE_RUNS}
