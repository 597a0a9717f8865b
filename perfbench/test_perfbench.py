"""The benchmark's own tests: every workload end to end in smoke mode, and
every output check shown to fail on a corrupted output.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads as w  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [x["name"] for x in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace == "0":
            assert got["value"] > 0, m["name"]


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "paper-days", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks catch wrong outputs ---------------------------------------------


@pytest.fixture(scope="module")
def paper_cell():
    spec, months = w.workload_spec("paper-days", 3, smoke=True)
    return w.run_cell(spec, months)


@pytest.fixture(scope="module")
def elastic_cell():
    spec, months = w.workload_spec("elastic-steal", 3, smoke=True)
    return spec, w.run_cell(spec, months)


def test_paper_checks_pass_then_catch_corruption(paper_cell):
    fw, report = paper_cell.fw, paper_cell.report
    assert checks.paper_days(fw, report) == []
    for field, value in (("jobs_completed", report.jobs_completed + 1),
                         ("node_utilization", report.node_utilization * 1.01),
                         ("faults_detected", report.faults_injected + 1),
                         ("bugs_fixed", report.bugs_filed + 1)):
        bad = copy.copy(report)
        setattr(bad, field, value)
        assert checks.paper_days(fw, bad), field


def test_paper_checks_catch_a_doubly_booked_node(paper_cell):
    fw, report = paper_cell.fw, paper_cell.report
    started = [j for j in fw.oar.jobs.values() if j.started_at is not None
               and j.assignment and len(j.assignment) == 1]

    def end(job):
        return job.finished_at if job.finished_at is not None else 1e18

    a, b = next((a, b) for a in started for b in started if a is not b
                and max(a.started_at, b.started_at) < min(end(a), end(b)))
    saved = b.assignment
    b.assignment = (tuple(a.assigned_nodes[:1]) + saved[0],) + saved[1:]
    try:
        assert any("at once" in f for f in checks.paper_days(fw, report))
    finally:
        b.assignment = saved


def test_paper_checks_catch_time_travel(paper_cell):
    fw, report = paper_cell.fw, paper_cell.report
    job = next(j for j in fw.oar.jobs.values() if j.started_at is not None)
    saved = job.started_at
    job.started_at = job.submitted_at - 1.0
    try:
        assert checks.paper_days(fw, report)
    finally:
        job.started_at = saved


def test_elastic_checks_pass_then_catch_corruption(elastic_cell):
    spec, cell = elastic_cell
    fw, report = cell.fw, cell.report
    assert checks.elastic_steal(fw, report, spec) == []
    bad = copy.copy(report)
    bad.grow_events = 0
    assert checks.elastic_steal(fw, bad, spec)
    from dataclasses import replace
    other = spec.derive(workload=replace(spec.workload, load_scale=0.2))
    assert checks.elastic_steal(fw, report, other)
    job = next(j for j in fw.oar.jobs.values()
               if not j.immediate and j.assignment)
    saved = job.assignment
    job.assignment = (saved[0] * (job.max_nodes + 1),)
    try:
        assert any("width" in f for f in checks.elastic_steal(fw, report, spec))
    finally:
        job.assignment = saved


def test_trace_job_count_reads_the_file():
    import repro.oar as oar_pkg
    path = Path(oar_pkg.__file__).parent / "builtin_traces" / "tiny-g5k.jsonl"
    records = sum(1 for line in path.read_text().splitlines()
                  if '"submit_s"' in line)
    assert checks.trace_job_count(path, 1.0) == records
    assert checks.trace_job_count(path, 2.0) == 2 * records
    assert checks.trace_job_count(path, 0.5) == records // 2


def test_cmpr_check_recomputes_deltas():
    docs = [
        {"scenario": "a", "error": None, "report": {"x": 1.0, "y": None}},
        {"scenario": "a", "error": None, "report": {"x": 3.0, "y": None}},
        {"scenario": "b", "error": None, "report": {"x": 5.0, "y": 2.0}},
        {"scenario": "b", "error": "boom", "report": None},
    ]
    good = {"b": [{"metric": "x", "delta": 3.0},
                  {"metric": "y", "delta": float("nan")}]}
    assert checks.cmpr_matches(good, docs, "a", ("a", "b")) == []
    bad = {"b": [{"metric": "x", "delta": 2.5}]}
    assert checks.cmpr_matches(bad, docs, "a", ("a", "b"))
    assert checks.cmpr_matches({}, docs, "a", ("a", "b"))
    # a submitted scenario the store and CMPR both lack is still missed
    assert checks.cmpr_matches(good, docs, "a", ("a", "b", "c"))


@pytest.fixture(scope="module")
def remote_round():
    rnd = w.remote_round(3, smoke=True, index=0, trace=False,
                         tag="test-remote")
    return rnd, w.reference_shas(3, smoke=True)


def test_remote_checks_pass_then_catch_a_lost_scenario(remote_round):
    rnd, reference = remote_round
    assert checks.remote_sweep(rnd, reference) == []
    lost = w.MATRIX_PRESETS[-1]
    bad = copy.copy(rnd)
    bad.cells = [c for c in rnd.cells if c[0] != lost]
    bad.cells_again = [c for c in rnd.cells_again if c[0] != lost]
    bad.store_docs = [d for d in rnd.store_docs if d["scenario"] != lost]
    bad.deltas = {k: v for k, v in rnd.deltas.items() if k != lost}
    failures = checks.remote_sweep(bad, reference)
    assert any("first submission" in f for f in failures)
    assert any("resubmission" in f for f in failures)
    assert any("RPRT store" in f for f in failures)
    assert any("CMPR scenarios" in f for f in failures)
    uncached = copy.copy(rnd)
    uncached.cells_again = [c[:2] + ("ok",) for c in rnd.cells_again]
    assert checks.remote_sweep(uncached, reference)


# -- the tracer --------------------------------------------------------------------


def test_tracer_self_time_and_generator_resumptions():
    tracer = Tracer()
    clock = iter(range(100))
    import tracer as tracer_mod
    saved = tracer_mod._clock
    tracer_mod._clock = lambda: float(next(clock))
    try:
        def inner():
            return None

        inner_w = tracer.span(inner, "inner")

        def outer():
            inner_w()
            return 7

        outer_w = tracer.span(outer, "outer")

        def gen():
            inner_w()
            got = yield "a"
            yield got
            return "done"

        gen_w = tracer.generator_span(gen, "gen")
        assert outer_w() == 7
        g = gen_w()
        assert next(g) == "a"
        assert g.send("b") == "b"
        with pytest.raises(StopIteration) as stop:
            next(g)
        assert stop.value.value == "done"
    finally:
        tracer_mod._clock = saved
    times = tracer.self_times()
    assert tracer.counts["outer"] == 1 and tracer.counts["gen"] == 1
    assert tracer.counts["inner"] == 2
    # outer: clock 0..3 with inner 1..2 inside -> 3 - 1 = 2
    assert times["outer"] == 2.0
    # gen: three resumptions (4..7 holding inner 5..6, 8..9, 10..11)
    assert times["gen"] == (3 - 1) + 1 + 1
    assert times["inner"] == 2.0


def test_tracer_folds_same_name_reentry():
    tracer = Tracer()

    class Base:
        def on_tick(self):
            return 1

    class Child(Base):
        def on_tick(self):
            return super().on_tick() + 1

    tracer.patch_method(Base, "on_tick", "tick")
    tracer.patch_method(Child, "on_tick", "tick")
    tracer.patch_method(Child, "on_tick", "tick")  # second patch: no-op
    assert Child().on_tick() == 2
    assert tracer.counts["tick"] == 1
    assert len(tracer.starts) == 1


# -- host-speed calibration --------------------------------------------------------


def test_calibrator_scales_program_time_by_slice_speed(monkeypatch):
    import calibrate
    now = [0.0]
    slice_s = [0.002]  # the host runs at half the reference speed

    def fake_slice(_table):
        now[0] += slice_s[0]
        return 0

    monkeypatch.setattr(calibrate, "_clock", lambda: now[0])
    monkeypatch.setattr(calibrate, "work_slice", fake_slice)
    monkeypatch.setattr(calibrate, "REFERENCE_SLICE_S", 0.001)
    cal = calibrate.Calibrator()
    cal.start()
    now[0] += 0.01
    cal.poll()                  # not yet due: no slice
    assert len(cal.points) == 1
    now[0] += 0.09
    cal.poll()                  # 0.1 s of program time at half speed
    slice_s[0] = 0.001          # the host speeds up to the reference
    now[0] += 0.1
    cal.stop()
    assert cal.program_s == pytest.approx(0.2)
    assert cal.slice_s == pytest.approx(6 * 0.002 + 3 * 0.001)
    # first segment: slices of 2 ms on both sides -> 0.05 s at reference
    # speed; second: 2 ms before, 1 ms after -> 0.1 * 1 / 1.5
    assert cal.scaled_s == pytest.approx(0.05 + 0.1 / 1.5)
    assert cal.factor == pytest.approx(cal.scaled_s / 0.2)

