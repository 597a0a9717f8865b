"""Output checks, derived from the inputs or from properties the method
must have — never from a stored copy of a report.

Each function returns a list of failure messages (empty when the output
is right), so a caller can count a failed check as a failed operation and
report every failure rather than the first.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

_REL = 1e-9


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=_REL, abs_tol=1e-9)


def _intervals(fw, horizon: float):
    """(job, start, end) of every job that held nodes, clipped at horizon."""
    for job in fw.oar.jobs.values():
        if job.started_at is None or job.started_at > horizon:
            continue
        end = job.finished_at if job.finished_at is not None else horizon
        yield job, job.started_at, min(end, horizon)


def _total_nodes(fw) -> int:
    return sum(c.node_count for c in fw.testbed.iter_clusters())


def job_order(fw) -> list[str]:
    """submitted <= started <= finished for every job."""
    bad = []
    for job in fw.oar.jobs.values():
        times = [t for t in (job.submitted_at, job.started_at,
                             job.finished_at) if t is not None]
        if times != sorted(times):
            bad.append(f"job {job.job_id}: times out of order {times}")
    return bad[:5]


def paper_days(fw, report) -> list[str]:
    horizon = report.months * 30 * 86_400.0
    failures = job_order(fw)
    by_node: dict[str, list[tuple[float, float, int]]] = defaultdict(list)
    for job, start, end in _intervals(fw, horizon):
        for uid in job.assigned_nodes:
            by_node[uid].append((start, end, job.job_id))
    for uid, spans in by_node.items():
        spans.sort()
        for (s0, e0, j0), (s1, e1, j1) in zip(spans, spans[1:]):
            if s1 < e0:
                failures.append(f"node {uid} in jobs {j0} and {j1} at once")
                break
    completed = sum(1 for job in fw.oar.jobs.values()
                    if not job.immediate and job.started_at is not None
                    and job.finished_at is not None)
    if completed != report.jobs_completed:
        failures.append(f"jobs_completed {report.jobs_completed} != "
                        f"recount {completed}")
    node_s = sum(len(job.assigned_nodes) * (end - start)
                 for job, start, end in _intervals(fw, horizon))
    utilization = node_s / (_total_nodes(fw) * horizon)
    if not _close(utilization, report.node_utilization):
        failures.append(f"node_utilization {report.node_utilization} != "
                        f"recount {utilization}")
    if report.faults_detected > report.faults_injected:
        failures.append("more faults detected than injected")
    if report.bugs_fixed > report.bugs_filed:
        failures.append("more bugs fixed than filed")
    return failures


def trace_job_count(path: Path, load_scale: float) -> int:
    """Jobs a replay of the JSONL trace at ``path`` submits: every record
    line, duplicated or thinned by ``load_scale`` in submission order."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    records = [r for r in records if "submit_s" in r]
    total = 0
    for i in range(len(records)):
        total += math.floor((i + 1) * load_scale) - math.floor(i * load_scale)
    return total


def elastic_steal(fw, report, spec) -> list[str]:
    import repro.oar as oar_pkg
    horizon = report.months * 30 * 86_400.0
    failures = job_order(fw)
    trace_file = Path(oar_pkg.__file__).parent / "builtin_traces" / \
        f"{spec.workload.path}.jsonl"
    expected = trace_job_count(trace_file, spec.workload.load_scale)
    user_jobs = [j for j in fw.oar.jobs.values() if not j.immediate]
    if len(user_jobs) != expected:
        failures.append(f"{len(user_jobs)} user jobs submitted, the trace "
                        f"holds {expected}")
    unfinished = [j.job_id for j in user_jobs if j.finished_at is None]
    if unfinished:
        failures.append(f"{len(unfinished)} trace jobs never finished")
    for job in user_jobs:
        if job.assignment and not job.min_nodes <= job.width <= job.max_nodes:
            failures.append(f"job {job.job_id} ends at width {job.width} "
                            f"outside {job.min_nodes}..{job.max_nodes}")
            break
    capacity = _total_nodes(fw) * horizon
    allocated = fw.oar.allocated_node_seconds(until=horizon)
    if not 0 < allocated <= capacity:
        failures.append(f"allocated {allocated} node-s of {capacity}")
    if report.grow_events <= 0:
        failures.append("no grow event: the elastic path did not run")
    return failures


def remote_sweep(rnd, reference: dict[str, str]) -> list[str]:
    """One remote round: hashes, cache, CMPR, store.  The expected matrix
    is the one the round submitted, never what the server answered."""
    from repro.core.store import fsck_store
    from workloads import MATRIX_PRESETS
    failures = []
    for run in rnd.runs:
        want = reference[run["scenario"]]
        if run["sha256"] != want:
            failures.append(f"remote {run['scenario']} sha {run['sha256'][:12]}"
                            f" != in-process {want[:12]}")
    matrix = sorted((p, s) for p in MATRIX_PRESETS for s in rnd.matrix_seeds)
    for what, cells, status in (("first submission", rnd.cells, "ok"),
                                ("resubmission", rnd.cells_again, "cached")):
        answered = sorted(c[:2] for c in cells)
        if answered != matrix:
            failures.append(f"{what} answered cells {answered}, the matrix "
                            f"is {matrix}")
        if any(c[2] != status for c in cells):
            failures.append(f"{what} not all {status}: {cells}")
    stored = sorted((d["scenario"], d["seed"]) for d in rnd.store_docs)
    if stored != matrix:
        failures.append(f"RPRT store holds cells {stored}, the matrix is "
                        f"{matrix}")
    failures += cmpr_matches(rnd.deltas, rnd.store_docs, rnd.baseline,
                             MATRIX_PRESETS)
    fsck = fsck_store(rnd.store_path)
    if not fsck.clean or fsck.valid != len(matrix):
        failures.append(f"store fsck: {fsck} (matrix of {len(matrix)})")
    return failures


def cmpr_matches(deltas: dict, store_docs: list[dict], baseline: str,
                 presets) -> list[str]:
    """CMPR answers every submitted scenario but the baseline, and each
    delta equals the scenario's mean minus the baseline's, recomputed from
    the stored reports (NaN samples dropped)."""
    by_scenario: dict[str, list[dict]] = defaultdict(list)
    for doc in store_docs:
        if doc["error"] is None and doc["report"] is not None:
            by_scenario[doc["scenario"]].append(doc["report"])

    def mean(scenario: str, metric: str) -> float:
        values = [float(r[metric]) for r in by_scenario[scenario]
                  if r[metric] is not None]
        values = [v for v in values if not math.isnan(v)]
        return sum(values) / len(values) if values else float("nan")

    failures = []
    if sorted(deltas) != sorted(set(presets) - {baseline}):
        failures.append(f"CMPR scenarios {sorted(deltas)}, the matrix "
                        f"compares {sorted(set(presets) - {baseline})}")
    for scenario, rows in deltas.items():
        for row in rows:
            metric = row["metric"]
            want = mean(scenario, metric) - mean(baseline, metric)
            if not _close(float(row["delta"]), want):
                failures.append(f"{scenario}.{metric}: CMPR delta "
                                f"{row['delta']} != {want}")
    return failures
