"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-days --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation in
the program.  ``--trace 1`` is the traced run: one untraced round, then the
same round again with every entry point in :mod:`tracer` wrapped; it prints
the per-layer metrics, including the tracing overhead, and stores the spans
under ``.perfbench/``.  ``--smoke`` shrinks every workload so the
benchmark's own tests can exercise all checks in seconds.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; progress, report hashes and check failures go to standard
error.  Metric names, units and order come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end set-up samples per run (fresh interpreters).
SETUP_SAMPLES = 5


class Outcome:
    """Operations attempted/failed and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.metrics: dict[str, float] = {}

    def op(self, count: int, failures: list[str], what: str) -> None:
        """Record ``count`` operations; each failed check fails one."""
        self.attempted += count
        if failures:
            self.correct = False
            self.failed += min(count, len(failures))
            for line in failures:
                log(f"CHECK FAILED [{what}]: {line}")


def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def log_rounds(samples: list[float]) -> None:
    """Log the decision-round times.  The 90th percentile is not reported:
    its run-to-run spread exceeded the largest bound allowed (README)."""
    from workloads import percentile
    log(f"decision rounds: {len(samples)} samples, p50 "
        f"{percentile(samples, 50):.4f} ms, p90 {percentile(samples, 90):.4f} "
        f"ms, mean {statistics.fmean(samples):.4f} ms")


# -- in-process workloads ------------------------------------------------------------


def _check_cell(workload: str, cell, spec) -> list[str]:
    import checks
    if workload == "paper-days":
        return checks.paper_days(cell.fw, cell.report)
    return checks.elastic_steal(cell.fw, cell.report, spec)


def run_inprocess(args, out: Outcome) -> None:
    import workloads as w

    if args.trace:
        traced_inprocess(args, out)
        return
    first = w.round_seed(args.workload, args.seed, 0)
    setups = [w.measure_setup(args.workload, first, args.smoke)
              for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    rates, jobs, cells, gaps, shas = [], [], [], [], {}
    start = time.perf_counter()
    k = 0
    while w.more_rounds(args.workload, k, time.perf_counter() - start,
                        args.seconds):
        seed = w.round_seed(args.workload, args.seed, k)
        spec, months = w.workload_spec(args.workload, seed, args.smoke)
        cell = w.run_cell(spec, months)
        k += 1
        failures = _check_cell(args.workload, cell, spec)
        if shas.setdefault(seed, cell.sha) != cell.sha:
            failures.append(f"seed {seed}: report {cell.sha[:12]} differs "
                            f"from the earlier round's {shas[seed][:12]}")
        out.op(1, failures, f"{args.workload} round {k}")
        log(f"round {k}: seed {seed}, {cell.sim_wall_s:.3f} s "
            f"({cell.sim_ref_s:.3f} s at reference speed, median slice "
            f"{cell.slice_ms:.3f} ms) for "
            f"{months * 30:.3f} simulated days, report sha256 {cell.sha}")
        rates.append(months * 30 / cell.sim_ref_s)
        jobs.append(cell.report.jobs_completed / cell.sim_ref_s)
        cells.append(cell.report.total_builds / cell.sim_ref_s)
        gaps.extend(ms * cell.factor for ms in cell.gaps_ms)
        # Rounds are independent scenario runs: free one round's cyclic
        # garbage before the next starts, so the peak RSS is that of the
        # heaviest round and not of whatever the collector left behind.
        del cell
        gc.collect()
    log_rounds(gaps)
    out.metrics.update({
        "setup_s": statistics.median(setups),
        "sim_days_per_s": statistics.median(rates),
        "jobs_per_s": statistics.median(jobs),
        "cells_per_s": statistics.median(cells),
        # In process the gaps are heavy-tailed (elastic-steal: p50 0.8 ms,
        # mean 49 ms) and their pooled median is not steady from run to
        # run, so the metric reads their mean here (README).
        "round_p50_ms": statistics.fmean(gaps),
        "peak_rss_mb": w.peak_rss_mb(),
    })
    log(f"{k} rounds")


def traced_inprocess(args, out: Outcome) -> None:
    import workloads as w
    from tracer import Tracer, install

    spec, months = w.workload_spec(
        args.workload, w.round_seed(args.workload, args.seed, 0), args.smoke)
    plain = w.run_cell(spec, months, calibrate=False)
    out.op(1, _check_cell(args.workload, plain, spec), "untraced round")
    plain_wall, plain_sha = plain.sim_wall_s, plain.sha
    del plain
    tracer = install(Tracer())
    traced = w.run_cell(spec, months, calibrate=False)
    failures = _check_cell(args.workload, traced, spec)
    if traced.sha != plain_sha:
        failures.append("traced report differs from the untraced one")
    out.op(1, failures, "traced round")
    log(f"report sha256 {traced.sha}; traced {traced.sim_wall_s:.3f} s, "
        f"untraced {plain_wall:.3f} s")
    spans = w.OUT / f"{args.workload}-{args.seed}-spans.txt"
    w.OUT.mkdir(exist_ok=True)
    tracer.write(str(spans))
    out.metrics.update(layer_metrics(
        tracer.counts, tracer.self_times(), plain_wall,
        overhead=traced.sim_wall_s / plain_wall - 1.0))


# -- remote-sweep ------------------------------------------------------------------


def _remote_ops(rnd) -> int:
    """Scenario runs + matrix cells (both submissions) + client requests."""
    return len(rnd.runs) + len(rnd.cells) + len(rnd.cells_again) \
        + rnd.meter.sent


def run_remote(args, out: Outcome) -> None:
    import checks
    import workloads as w

    tag = f"remote-sweep-{args.seed}"
    if args.trace:
        seed = w.round_seed(args.workload, args.seed, 0)
        rounds = [w.remote_round(seed, args.smoke, 0, False, tag),
                  w.remote_round(seed, args.smoke, 1, True, tag)]
    else:
        rounds = []
        start = time.perf_counter()
        while w.more_rounds(args.workload, len(rounds),
                            time.perf_counter() - start, args.seconds):
            seed = w.round_seed(args.workload, args.seed, len(rounds))
            rounds.append(w.remote_round(seed, args.smoke, len(rounds),
                                         False, tag))
            rnd = rounds[-1]
            log(f"round {len(rounds)}: seed {seed}, RUN "
                f"{rnd.run_wall_s:.3f} s ({rnd.run_wall_s * rnd.run_factor:.3f}"
                f" s at reference speed), SUBM {rnd.subm_wall_s:.3f} s "
                f"({rnd.subm_wall_s * rnd.subm_factor:.3f} s)")
    reference = {s: w.reference_shas(s, args.smoke)
                 for s in sorted({r.seed for r in rounds})}
    log(f"in-process report sha256 {reference}")
    first: dict[int, list] = {}
    for i, rnd in enumerate(rounds, start=1):
        failures = checks.remote_sweep(rnd, reference[rnd.seed])
        docs = [d["report"] for d in rnd.store_docs]
        if first.setdefault(rnd.seed, docs) != docs:
            failures.append(f"round {i} stored reports differ from an "
                            f"earlier round's of seed {rnd.seed}")
        out.op(_remote_ops(rnd), failures, f"remote-sweep round {i}")
    if args.trace:
        plain, traced = rounds
        layers = traced.server
        out.metrics.update(layer_metrics(
            layers["counts"], layers["self_s"], plain.conv_wall_s,
            overhead=traced.conv_wall_s / plain.conv_wall_s - 1.0,
            meter=traced.meter))
        return
    latencies = [ms * rnd.run_factor for rnd in rounds
                 for ms in rnd.meter.rounds_ms]
    log_rounds(latencies)
    run_ref_s = sum(r.run_wall_s * r.run_factor for r in rounds)
    out.metrics.update({
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "sim_days_per_s": sum(r.sim_days for r in rounds) / run_ref_s,
        "jobs_per_s": sum(r.jobs_completed for r in rounds) / run_ref_s,
        "cells_per_s": sum(len(r.cells) for r in rounds)
        / sum(r.subm_wall_s * r.subm_factor for r in rounds),
        "round_p50_ms": w.percentile(latencies, 50),
        "peak_rss_mb": statistics.median(
            r.server["peak_rss_mb"] for r in rounds),
    })
    log(f"{len(rounds)} rounds")


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(counts: dict, self_s: dict, untraced_wall: float,
                  overhead: float, meter=None) -> dict[str, float]:
    def c(name: str) -> int:
        return int(counts.get(name, 0))

    def t(name: str) -> float:
        return float(self_s.get(name, 0.0))

    rounds = len(meter.rounds_ms) if meter is not None else 0
    lines = meter.sent + meter.received if meter is not None else 0
    nbytes = meter.bytes if meter is not None else 0
    table = {
        "events.scheduled": c("events.scheduled"),
        "events.us_per_event": untraced_wall * 1e6 / c("events.scheduled"),
        "events.self_s": t("events.run"),
        "oar.submit.calls": c("oar.submit"),
        "oar.submit.self_s": t("oar.submit"),
        "oar.node_state.calls": c("oar.node_state"),
        "oar.profile_earliest.calls": c("oar.profile_earliest"),
        "oar.profile_earliest.self_s": t("oar.profile_earliest"),
        "oar.earliest_per_reserve":
            c("oar.profile_earliest") / max(1, c("oar.reserve")),
        "oar.parse_request.calls": c("oar.parse_request"),
        "oar.parse_request.self_s": t("oar.parse_request"),
        "oar.gantt_update.self_s": t("oar.reserve") + t("oar.release")
        + t("oar.truncate"),
        "oar.replan_now.calls": c("oar.replan_now"),
        "oar.replan_now.self_s": t("oar.replan_now"),
        "oar.running_jobs.calls": c("oar.running_jobs"),
        "oar.running_jobs.self_s": t("oar.running_jobs"),
        "oar.grow_candidates.calls": c("oar.grow_candidates"),
        "oar.grow_candidates.self_s": t("oar.grow_candidates"),
        "oar.grow.calls": c("oar.grow"),
        "oar.shrink.calls": c("oar.shrink"),
        "scheduling.on_tick.calls": c("scheduling.on_tick"),
        "scheduling.on_tick.self_s": t("scheduling.on_tick"),
        "scheduling.elastic_tick.calls": c("scheduling.elastic_tick"),
        "scheduling.elastic_tick.self_s": t("scheduling.elastic_tick"),
        "checksuite.run.self_s": t("checksuite.run"),
        "ci.trigger.calls": c("ci.trigger"),
        "kadeploy.deploy.calls": c("kadeploy.deploy"),
        "faults.inject.calls": c("faults.inject"),
        "core.file_from_outcome.calls": c("core.file_from_outcome"),
        "testbed.build.self_s": t("testbed.build"),
        "core.build.calls": c("core.build"),
        "core.build.self_s": t("core.build"),
        "core.store_record.calls": c("core.store_record"),
        "core.store_record.self_s": t("core.store_record"),
        "service.rounds": rounds,
        "service.lines_per_round": lines / rounds if rounds else 0.0,
        "service.bytes_per_round": nbytes / rounds if rounds else 0.0,
        "service.decision_round.self_s": t("service.decision_round"),
        "trace.overhead_pct": overhead * 100.0,
    }
    return table


# -- entry point -----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-days", "elastic-steal",
                                 "remote-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        log(f"error: {ROOT} lacks src/repro or BENCHMARK.json; run from "
            "the root of a repository checkout")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    bench = json.loads(bench_file.read_text(encoding="utf-8"))

    out = Outcome()
    if args.workload == "remote-sweep":
        run_remote(args, out)
    else:
        run_inprocess(args, out)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": out.metrics[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": out.correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
