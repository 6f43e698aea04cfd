"""Shared fixtures: the benchmark system, the comparison runs reused by
several acceptance checks, a registry that prints one PASS/FAIL line per
acceptance criterion at the end of the session, and the hypothesis
profile every property test runs under."""

import pytest
from hypothesis import settings

from gateflow import (ExperimentSpec, FlowConfig, build_two_spin_benchmark,
                      execute_experiment, gate_target)

# Derandomized, so reruns see the same examples; no example database, so
# nothing a previous run found changes what the next one checks.
settings.register_profile("gateflow", derandomize=True, deadline=None, database=None)
settings.load_profile("gateflow")

# criterion number -> (label, passed, detail)
_ACCEPTANCE = {}


def record_criterion(num, label, ok, detail=""):
    _ACCEPTANCE[num] = (label, bool(ok), detail)


def check_criterion(num, label, ok, detail=""):
    """Record the outcome for the end-of-run summary, then assert it."""
    record_criterion(num, label, ok, detail)
    assert ok, f"acceptance criterion {num} ({label}) failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        label, ok, detail = _ACCEPTANCE[num]
        line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def benchmark_system():
    return build_two_spin_benchmark()


@pytest.fixture(scope="session")
def cnot():
    return gate_target("cnot")


@pytest.fixture(scope="session")
def swap():
    return gate_target("swap")


# The comparison runs behind the reproduction criteria. Horizon-limited
# cases get s_max equal to the bound they must fail to converge within;
# converging cases get the full default horizon and stop early on j_stop.
BENCH_CASES = {
    "cnot_t5_m0": ("cnot", 5.0, 150, 0, 5000.0),
    "cnot_t5_m1": ("cnot", 5.0, 150, 1, 5000.0),
    "swap_t5_m0": ("swap", 5.0, 300, 0, 2000.0),
    "swap_t5_m1": ("swap", 5.0, 300, 1, 5000.0),
    "cnot_t10_m0": ("cnot", 10.0, 150, 0, 2000.0),
    "cnot_t10_m1": ("cnot", 10.0, 150, 1, 5000.0),
    "cnot_t05_m0": ("cnot", 0.5, 300, 0, 5000.0),
    "cnot_t05_m1": ("cnot", 0.5, 300, 1, 5000.0),
}


@pytest.fixture(scope="session")
def bench_runs():
    """name -> (RunRecord, FlowResult) for every comparison case, run once
    per session with unitarity checking and descent tracking on."""
    runs = {}
    for name, (gate, t_final, n_slices, order, s_max) in BENCH_CASES.items():
        spec = ExperimentSpec(
            gate=gate, t_final=t_final, n_slices=n_slices, order=order,
            cfg=FlowConfig(s_max=s_max, check_unitarity=True, track_descent=True),
        )
        runs[name] = execute_experiment(spec, scan_cap=s_max)
    return runs
