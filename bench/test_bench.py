"""Tests of the benchmark itself.

    python3 -m pytest bench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import semigrav  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, METRICS, Tracer  # noqa: E402


@pytest.mark.parametrize("name, trials", [
    ("kg_wavepacket", None), ("eds_fit", None), ("rindler_unruh", None), ("epr_collapse", 500),
])
def test_tracing_leaves_scenario_json_byte_identical(name, trials):
    plain = semigrav.emit(semigrav.run_scenario(name, trials=trials), "json")
    with Tracer() as tracer:
        traced = semigrav.emit(semigrav.run_scenario(name, trials=trials), "json")
    assert traced == plain
    assert tracer.metrics()["scenarios.run_scenario.self_s"] > 0.0
    # every binding is restored on exit
    assert not hasattr(semigrav.scenarios.stress_sample, "__wrapped__")
    assert not hasattr(semigrav.run_scenario, "__wrapped__")
    assert not hasattr(semigrav.modes.MinkowskiModeBasis.field_coeffs, "__wrapped__")


def test_layer_self_times_sum_to_at_most_traced_wall_time(tmp_path):
    suite = workloads.Suite(0, tmp_path)
    with Tracer() as tracer:
        rnd = suite.run_round()
    metrics = tracer.metrics()
    assert set(metrics) == {name for name, _ in METRICS}
    assert all(value >= 0.0 for value in metrics.values())
    layer_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert 0.0 < layer_total <= rnd.seconds
    assert all(metrics[f"{layer}.self_s"] > 0.0 for layer in LAYERS)


@pytest.mark.parametrize("make", [
    lambda tmp: workloads.Collapse(1, epr_trials=1000, pg_trials=500, chunks=2),
    lambda tmp: workloads.Field(1, kg_n_max=16, kg_points=40, lattice=4, packet_n_max=1),
    lambda tmp: workloads.Suite(1, tmp),
], ids=["collapse", "field", "suite"])
def test_short_pass_of_each_workload_passes_every_check(make, tmp_path):
    workload = make(tmp_path)
    rounds = [workload.run_round() for _ in range(2)]
    for rnd in rounds:
        assert rnd.failures == []
        assert rnd.attempted > 0 and rnd.work > 0 and rnd.seconds > 0.0
    assert rounds[0].fingerprint == rounds[1].fingerprint


def test_known_wrong_input_counts_as_failed_operation():
    # 96 lattice points are below Nyquist for a 257-term packet (at x0 = 5
    # the lattice gives 23.94 against an exact 15.88)
    field = workloads.Field(1, kg_points=96, lattice=4, packet_n_max=1)
    rnd = field.run_round()
    assert rnd.attempted == 3
    assert len(rnd.failures) == 1
    assert rnd.failures[0].startswith("kg_wavepacket:")
    assert "lattice energy" in rnd.failures[0] and "15.8795973368" in rnd.failures[0]


def test_run_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "suite", "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 20
    assert set(result["metrics"]) == {"ops_per_ref_s", "setup_s", "peak_rss_mib"}
    assert all(m["value"] > 0.0 for m in result["metrics"].values())
    assert lines[0].startswith("env python=") and "git_sha=" in lines[0]
    assert any(line.startswith("runs_per_s = ") for line in lines)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "field",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
