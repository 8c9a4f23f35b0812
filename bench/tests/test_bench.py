"""Tests of the benchmark itself.  Run with: python3 -m pytest bench/tests -q"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.prepare()

import calibrate  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# Smallest sizes that still exercise every branch of each workload.
TINY = {
    "qubit-points": {"min_optimized": 3},
    "gaussian-csv": {"min_invocations": 4},
    "verify-all": {"min_runs": 1},
}
FIGURES = {
    "setup_s", "points_per_s", "point_ms_p50", "point_ms_p90", "sweep_ms_p50",
    "sweep_ms_p90", "verify_s", "fail_frac", "peak_rss_mb",
}


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(100)), 90) == (89, 10)
    assert run.percentile(list(range(99)), 90) == (None, 9)
    assert run.percentile(list(range(1000)), 99) == (989, 10)
    assert run.percentile(list(range(200)), 99) == (None, 2)
    assert run.percentile([], 50) == (None, 0)


def test_self_time_subtracts_the_union_of_child_spans():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping) and
    # c [8, 12] (running past its parent); a has a child [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_wrappers_reach_every_namespace_and_are_removed():
    from tabounds import bounds, optimize, verify

    original = optimize.maximize_scalar
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert bounds.maximize_scalar is not original
        assert verify.maximize_scalar is bounds.maximize_scalar
        assert verify.SUITES["all"][0] is verify.linalg_suite
        tracer.current_op = 0
        bounds.report("qubit", 0.8, 0.1)
    assert bounds.maximize_scalar is original
    assert verify.SUITES["all"][0].__name__ == "linalg_suite"
    agg = spans.totals(tracer)
    assert agg["optimize.maximize_scalar"]["calls"] == 2
    assert agg["bounds.report"]["calls"] == 1
    assert agg["linalg.DensityMatrix"]["calls"] > 0
    assert tracer.evaluations >= 2 * spans.SCAN_POINTS
    assert set(tracer.op) == {0}


def test_oracles_agree_with_known_values():
    lower, upper = oracles.qubit_bounds(0.8, 0.1)
    report = workloads.tabounds.report("qubit", 0.8, 0.1)
    assert abs(lower - report.lower) < 1e-9 and abs(upper - report.uppers["extended"]) < 1e-9
    row = oracles.gaussian_row(Fraction(9, 10), Fraction(1, 10))
    assert len(row) == 1 and abs(row[0]["plob"] - 2.8536817186182027) < 1e-12
    # On the entanglement-breaking threshold either regime is accepted.
    assert len(oracles.gaussian_row(Fraction(8, 10), Fraction(4))) == 2


def _args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=7, seconds=0.01, trace=trace, setup_probe=False)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    if workload == "verify-all":  # the smallest suite stands in for "all"
        from tabounds import verify

        monkeypatch.setitem(verify.SUITES, "all", verify.SUITES["gaussian"])
    result = run.run(_args(workload, trace), str(tmp_path), TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = CONTRACT["end_to_end"] if trace == 0 else CONTRACT["per_layer"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    full = json.loads(next(tmp_path.glob("result-*.json")).read_text())
    assert full["provenance"]["seed"] == 7
    if trace == 0:
        table = {row["name"]: row for row in full["figures"]}
        assert set(table) == FIGURES
        assert all(row["unit"] and row["samples"] >= 0 for row in table.values())
        out = capsys.readouterr().out
        assert all(name in out for name in FIGURES)
    else:
        assert (tmp_path / f"spans-{workload}.tsv.gz").is_file()


def test_contract_lists_the_metrics_the_runner_emits():
    assert [(m["name"], m["unit"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == list(spans.PER_LAYER)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_gaussian_eta_one_rows_must_render_inf(tmp_path):
    wl = workloads.GaussianCsv(1, str(tmp_path))
    job = workloads.SweepJob("eta", workloads.Axis(900, 50, 3), workloads.Axis(100, 1, 1))
    rec = workloads.Record(0)
    with open(wl.out, "w") as fh:
        fh.write(workloads.GAUSSIAN_HEADER + "\n0.9,1,1,1,1,1,1,0\n0.95,1,1,1,1,1,1,0\n1,50,56,51,50,51,50,0\n")
    wl.check(job, 0, rec)
    assert rec.wrong and "inf" in rec.errors[0]


def test_gaussian_rows_are_counted_and_short_circuits_found(tmp_path):
    wl = workloads.GaussianCsv(1, str(tmp_path))
    job = workloads.SweepJob("grid", workloads.Axis(500, 250, 3), workloads.Axis(0, 2000, 2))
    assert wl.call(job) == 0
    rec = workloads.Record(0)
    wl.check(job, 0, rec)
    assert not rec.failed and rec.items == wl.rows_written == 6
    # (0.5, 2), past the threshold N = 1, and both rows at eta = 1 take the
    # short-circuit; (0.75, 2) lies below its threshold N = 3.
    assert wl.rows_short_circuit == 3
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_jobs_follow_the_callers_table():
    jobs = list(itertools.islice(workloads.sweep_jobs(5), 2 * len(workloads.CALLERS)))
    assert jobs == list(itertools.islice(workloads.sweep_jobs(5), len(jobs)))
    assert jobs != list(itertools.islice(workloads.sweep_jobs(6), len(jobs)))
    shapes = [job.shape for job in jobs[: len(workloads.CALLERS)]]
    assert (shapes.count("eta"), shapes.count("noise"), shapes.count("grid")) == (5, 2, 4)
    for job in jobs:
        for axis in (job.eta, job.noise):
            assert axis.start >= 0 and axis.step >= 1 and axis.count >= 1
        assert job.eta.start + (job.eta.count - 1) * job.eta.step < 1000
        assert min(job.eta.count, job.noise.count) == 1 or job.shape == "grid"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "qubit-points", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_calibration_clock_stops_during_bursts():
    cal = calibrate.Calibrator()
    # Bursts over [1, 2] and [5, 5.5], with kernel repetitions of 1 ms and 3 ms.
    cal.starts, cal.ends, cal.rep_ms, cal._spent = [1.0, 5.0], [2.0, 5.5], [1.0, 3.0], [1.0, 1.5]
    assert [cal.clock(t) for t in (0.5, 1.5, 3.0, 5.2, 6.0)] == [0.5, 1.0, 2.0, 4.0, 4.5]
    assert cal.scale(2.5, 6.0) == calibrate.REF_MS / 3.0  # the burst inside the interval
    assert cal.scale(2.5, 3.0) == calibrate.REF_MS / 2.0  # none inside: the two either side


def test_reservoir_is_seeded_and_bounded():
    def sample(seed):
        res = workloads.Reservoir(seed, 5)
        for i in range(1000):
            res.offer(i)
        return res.items

    assert sample(3) == sample(3) != sample(4)
    assert len(sample(3)) == 5 and len(set(sample(3))) == 5


def test_a_late_failure_counts_an_operation_once():
    tally = run.Tally()
    rec = workloads.Record(0)
    rec.fail("refused", wrong=False)
    tally.add(0.0, 1.0, 1.0, rec)
    tally.add(1.0, 2.0, 1.0, workloads.Record(1))
    tally.fail(0, "also wrong")
    tally.fail(1, "wrong")
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 2, True)


def test_share_under_counts_only_nested_layer_time():
    tracer = spans.Tracer()
    tracer.names = ["bounds.report", "optimize.maximize_scalar", "linalg.partial_trace"]
    # report [0, 10] > optimize [1, 9] > linalg [2, 5]; a second linalg [20, 25] outside any report.
    tracer.name_id.extend([0, 1, 2, 2])
    tracer.start.extend([0.0, 1.0, 2.0, 20.0])
    tracer.end.extend([10.0, 9.0, 5.0, 25.0])
    tracer.parent.extend([-1, 0, 1, -1])
    assert spans.share_under(tracer, "bounds.report", ("optimize", "linalg")) == 0.8
