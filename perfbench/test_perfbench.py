"""The benchmark's own tests: each workload's quick spec through the same
run.py, tracer and reference checks as a timed run.

They stay out of tier-1 (pytest collects tests/ only). Run them with

    python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import worker  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_quick_run_is_correct_and_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "table1", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_mismatch_fails_the_row():
    prepared, _ = worker.set_up("table1", 0, quick=True)
    references = json.loads(worker.REFERENCES.read_text())
    assert worker.timed_pass(prepared, references).failures == {}
    key = worker.spec_label(prepared.specs[0])
    wrong = copy.deepcopy(references)
    wrong["workloads"]["table1"][key]["S_reported"] += 100
    failures = worker.timed_pass(prepared, wrong).failures
    assert list(failures) == [key]


def test_tracer_reports_a_bypassed_entry_point():
    import gateflow

    system = gateflow.build_two_spin_benchmark()
    grid = gateflow.ControlGrid(t_final=1.0, amplitudes=[[0.1, 0.2], [0.3, 0.4]])
    original = gateflow.gradient.propagate
    tr = tracing.Tracer()
    with tr:
        assert gateflow.gradient.propagate is not original
        gateflow.gradient.propagate(system, grid)
    assert gateflow.gradient.propagate is original
    problems = tracing.self_check(tr, {"gradient.flow_evaluation", "system.propagate"},
                                  checks_unitarity=False)
    assert "wrapped entry point gradient.flow_evaluation never fired" in problems
    assert "system.propagate.calls 1 != gradient.flow_evaluation.calls 0" in problems


def test_speed_probe_interrupts_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe:
        deadline = time.perf_counter() + 4 * speed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.probes >= 2 and probe.calls() == probe.probes * speed.CALLS_PER_PROBE
    assert 0 < probe.kernel_s <= probe.probe_s
    assert speed.rescale(2.0, probe.kernel_s, probe.calls()) == pytest.approx(
        2.0 * speed.REF_KERNEL_S * probe.calls() / probe.kernel_s)
