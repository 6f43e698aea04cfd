"""Adaptive integrator: scalar decay oracle, stepper order, stop conditions,
tolerance behavior and determinism of full flow runs."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gateflow
from gateflow import (ControlGrid, FlowConfig, GateTarget, QuantumSystem, RhsEvaluation,
                      build_two_spin_benchmark, dormand_prince_step, gate_target,
                      integrate_flow)

from conftest import BENCH_CASES


def decay(sys, grid, target, order=1, *, check_unitarity=False, track_descent=False):
    """Stand-in for flow_evaluation: dy/ds = -y on a one-entry grid, with
    |y| as the objective."""
    amps = grid.amplitudes
    return RhsEvaluation(values=-amps, objective=abs(amps[0, 0]))


@pytest.fixture
def run_decay(monkeypatch):
    """Integrate the decay stand-in from y(0) = y0 under cfg."""
    monkeypatch.setattr("gateflow.flow.flow_evaluation", decay)

    def run(y0, cfg):
        grid = ControlGrid(t_final=1.0, amplitudes=[[y0]])
        return integrate_flow(None, grid, None, 1, cfg)

    return run


class TestConfigValidation:
    def test_accepts_defaults(self):
        cfg = FlowConfig(s_max=100.0)
        assert cfg.abs_tol == 1e-4
        assert cfg.rel_tol == 1e-4
        assert cfg.j_stop == 1e-7
        assert cfg.h_init == 1.0
        assert cfg.h_min == 1e-12

    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError, match="abs_tol"):
            FlowConfig(s_max=10.0, abs_tol=0.0)
        with pytest.raises(ValueError, match="rel_tol"):
            FlowConfig(s_max=10.0, rel_tol=-1e-4)
        with pytest.raises(ValueError, match="j_stop"):
            FlowConfig(s_max=10.0, j_stop=0.0)

    def test_rejects_bad_step_bounds(self):
        with pytest.raises(ValueError, match="step bounds"):
            FlowConfig(s_max=10.0, h_min=2.0, h_init=1.0)
        with pytest.raises(ValueError, match="step bounds"):
            FlowConfig(s_max=10.0, h_init=20.0)
        with pytest.raises(ValueError, match="step bounds"):
            FlowConfig(s_max=10.0, h_min=0.0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="max_rhs_evals"):
            FlowConfig(s_max=10.0, max_rhs_evals=0)

    def test_rejects_infinite_horizon(self):
        # An infinite horizon would leave only the evaluation budget to stop a run.
        with pytest.raises(ValueError, match="^s_max must be finite$"):
            FlowConfig(s_max=float("inf"))

    @pytest.mark.parametrize("name", ["abs_tol", "rel_tol", "j_stop"])
    def test_rejects_infinite_tolerance(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            FlowConfig(s_max=10.0, **{name: float("inf")})

    @pytest.mark.parametrize("budget", [2.5, True], ids=["fraction", "bool"])
    def test_budget_must_be_an_integer(self, budget):
        with pytest.raises(ValueError, match="^max_rhs_evals must be a positive integer$"):
            FlowConfig(s_max=10.0, max_rhs_evals=budget)
        assert FlowConfig(s_max=10.0, max_rhs_evals=np.int64(3)).max_rhs_evals == 3


class TestStepper:
    def test_single_step_accuracy(self):
        f = lambda y: -y
        y = np.array([1.0])
        y_new, err, k_last = dormand_prince_step(f, y, 0.1, f(y))
        assert abs(y_new[0] - np.exp(-0.1)) <= 1e-9
        assert np.abs(err).max() <= 1e-6
        assert np.array_equal(k_last, f(y_new))

    def test_fifth_order_convergence(self):
        # Fixed-step global error on y' = -2y over [0, 1] should shrink
        # like h^5; the measured slope brackets 5.
        f = lambda y: -2.0 * y

        def final_error(n_steps):
            h = 1.0 / n_steps
            y = np.array([1.0])
            k1 = f(y)
            for _ in range(n_steps):
                y, _, k1 = dormand_prince_step(f, y, h, k1)
            return abs(y[0] - np.exp(-2.0))

        errs = [final_error(n) for n in (8, 16, 32)]
        slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for slope in slopes:
            assert 4.0 <= slope <= 6.0


class TestAdaptiveScalar:
    def test_matches_exponential_decay(self, run_decay):
        cfg = FlowConfig(s_max=5.0, abs_tol=1e-8, rel_tol=1e-8, j_stop=1e-30,
                         h_init=0.5)
        result = run_decay(1.0, cfg)
        assert result.stop_reason == "horizon"
        assert result.s_stop == 5.0
        assert abs(result.final_grid.amplitudes[0, 0] - np.exp(-5.0)) <= 1e-7
        assert result.rhs_evals == 1 + 6 * (result.accepted_steps + result.rejected_steps)
        assert tuple(result.j_trace[0]) == (0.0, 1.0)
        assert np.all(np.diff(result.j_trace[:, 0]) > 0)

    def test_objective_stop(self, run_decay):
        cfg = FlowConfig(s_max=100.0, j_stop=0.5, h_init=0.1)
        result = run_decay(1.0, cfg)
        assert result.stop_reason == "j_reached"
        assert result.final_grid.amplitudes[0, 0] <= 0.5
        assert result.j_trace[-1, 1] <= 0.5
        assert result.s_stop < 100.0

    def test_immediate_stop_when_already_converged(self, run_decay):
        cfg = FlowConfig(s_max=10.0, j_stop=1e-7)
        result = run_decay(1e-9, cfg)
        assert result.stop_reason == "j_reached"
        assert result.s_stop == 0.0
        assert result.rhs_evals == 1
        assert result.j_trace.shape == (1, 2)
        assert result.accepted_steps == 0 and result.rejected_steps == 0

    def test_eval_budget_stop(self, run_decay):
        cfg = FlowConfig(s_max=1e6, abs_tol=1e-10, rel_tol=1e-10, j_stop=1e-30,
                         h_init=0.5, max_rhs_evals=20)
        result = run_decay(1.0, cfg)
        assert result.stop_reason == "eval_budget"
        assert 20 <= result.rhs_evals <= 25


class TestFlowRuns:
    @pytest.fixture()
    def short_cnot(self, benchmark_system, cnot):
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        return benchmark_system, grid, cnot

    def test_zero_control_hamiltonians_are_stationary(self):
        # With the zero matrix as the only control the velocities vanish
        # identically, every step is error-free, and the grid never moves.
        sys = QuantumSystem(h0=np.diag([1.0, -1.0]).astype(complex),
                            controls=np.zeros((1, 2, 2)))
        grid = ControlGrid(t_final=1.0, amplitudes=np.full((1, 3), 0.25))
        target = GateTarget(matrix=np.eye(2, dtype=complex), label="id")
        cfg = FlowConfig(s_max=10.0, j_stop=1e-30)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "horizon"
        assert result.s_stop == 10.0
        assert np.array_equal(result.final_grid.amplitudes, grid.amplitudes)
        assert np.all(result.j_trace[:, 1] == result.j_trace[0, 1])
        assert result.rejected_steps == 0

    def test_descent_on_short_run(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=50.0, j_stop=1e-30, track_descent=True,
                         check_unitarity=True)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "horizon"
        assert result.descent_trace is not None
        assert result.descent_trace.shape[0] == result.j_trace.shape[0]
        assert (result.descent_trace[:, 1] <= 0).all()
        assert result.j_trace[-1, 1] < result.j_trace[0, 1]
        assert result.max_unitarity_defect is not None
        assert result.max_unitarity_defect <= 1e-10

    def test_diagnostics_off_by_default(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=5.0, j_stop=1e-30)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.max_unitarity_defect is None
        assert result.descent_trace is None

    def test_deterministic_rerun(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=50.0, j_stop=1e-30)
        a = integrate_flow(sys, grid, target, 1, cfg)
        b = integrate_flow(sys, grid, target, 1, cfg)
        assert np.array_equal(a.final_grid.amplitudes, b.final_grid.amplitudes)
        assert np.array_equal(a.j_trace, b.j_trace)
        assert a.rhs_evals == b.rhs_evals
        assert a.s_stop == b.s_stop

    def test_step_underflow(self, short_cnot):
        # Demanding an impossible tolerance with the step floor right under
        # the initial step leaves the controller nowhere to go.
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=5.0, abs_tol=1e-14, rel_tol=1e-14, j_stop=1e-30,
                         h_init=0.5, h_min=0.4)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "step_underflow"
        assert result.accepted_steps == 0

    def test_eval_budget(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=1e6, j_stop=1e-30, max_rhs_evals=20)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "eval_budget"
        assert result.rhs_evals >= 20

    def test_non_finite_velocities_name_the_entry(self, monkeypatch):
        def stub(sys, grid, target, order=1, *, check_unitarity=False,
                 track_descent=False):
            values = np.zeros((2, 5))
            values[1, 2] = np.inf
            values[1, 3] = np.nan
            return RhsEvaluation(values=values, objective=0.4)

        monkeypatch.setattr("gateflow.flow.flow_evaluation", stub)
        sys = build_two_spin_benchmark()
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 5)))
        cfg = FlowConfig(s_max=10.0)
        with pytest.raises(ValueError, match="control 1, slice 3"):
            integrate_flow(sys, grid, gate_target("cnot"), 1, cfg)


# (rhs_evals, accepted steps, rejected steps) of each bench_runs case.
BENCH_COUNTS = {
    "cnot_t5_m0": (523, 75, 12),
    "cnot_t5_m1": (337, 51, 5),
    "swap_t5_m0": (979, 149, 14),
    "swap_t5_m1": (295, 37, 12),
    "cnot_t10_m0": (913, 137, 15),
    "cnot_t10_m1": (787, 124, 7),
    "cnot_t05_m0": (343, 56, 1),
    "cnot_t05_m1": (331, 53, 2),
}


@pytest.mark.parametrize("case", list(BENCH_CASES))
def test_bench_run_counts(bench_runs, case):
    result = bench_runs[case][1]
    counts = (result.rhs_evals, result.accepted_steps, result.rejected_steps)
    assert counts == BENCH_COUNTS[case]
    assert result.rhs_evals == 1 + 6 * (result.accepted_steps + result.rejected_steps)


class TestToleranceBehavior:
    def base_cfg(self, **kw):
        return FlowConfig(s_max=200.0, j_stop=1e-30, **kw)

    def test_halving_tolerances_tracks_same_trajectory(self, benchmark_system, cnot):
        # Both runs follow the same flow to the same horizon; the tighter
        # run may land a hair above or below, so allow a 0.1% band instead
        # of demanding strict improvement.
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        base = integrate_flow(benchmark_system, grid, cnot, 1, self.base_cfg())
        half = integrate_flow(benchmark_system, grid, cnot, 1,
                              self.base_cfg(abs_tol=5e-5, rel_tol=5e-5))
        assert base.stop_reason == "horizon"
        assert half.stop_reason == "horizon"
        assert half.j_trace[-1, 1] <= base.j_trace[-1, 1] * 1.001

    def test_halving_tolerances_still_converges(self, benchmark_system, cnot):
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        cfg = FlowConfig(s_max=5000.0)
        cfg_half = FlowConfig(s_max=5000.0, abs_tol=5e-5, rel_tol=5e-5)
        base = integrate_flow(benchmark_system, grid, cnot, 1, cfg)
        half = integrate_flow(benchmark_system, grid, cnot, 1, cfg_half)
        assert base.stop_reason == "j_reached"
        assert half.stop_reason == "j_reached"
        assert base.j_trace[-1, 1] <= 1e-7
        assert half.j_trace[-1, 1] <= 1e-7


# Two order-1 runs in one fresh interpreter; prints the minor page faults of
# the second run and its evaluation count.
HEAP_SCRIPT = """
import resource
import numpy as np
from gateflow import ControlGrid, FlowConfig, build_two_spin_benchmark, gate_target, integrate_flow

system, target = build_two_spin_benchmark(), gate_target("cnot")
grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
cfg = FlowConfig(s_max=5000.0, max_rhs_evals=300, check_unitarity=True, track_descent=True)
integrate_flow(system, grid, target, 1, cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
result = integrate_flow(system, grid, target, 1, cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, result.rhs_evals)
"""


def test_evaluations_do_not_refault_the_heap():
    # Under glibc, an evaluation that returned the heap top to the OS would
    # fault those pages back in on the next one, tens of faults each. Run in
    # a fresh interpreter so that this session's heap history cannot decide it.
    src = str(Path(gateflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], env=env, check=True,
                         capture_output=True, text=True).stdout
    faults, evals = map(int, out.split())
    assert evals >= 300
    if platform.libc_ver()[0] == "glibc":
        assert faults < evals, f"{faults} minor faults over {evals} evaluations"
