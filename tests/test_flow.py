"""Adaptive integrator: scalar decay oracle, stepper order, stop conditions,
tolerance behavior and determinism of full flow runs."""

import math
import multiprocessing
import platform
import subprocess
import sys
import warnings
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

import gateflow
from gateflow import (EXACT, S_GRANULARITY, ControlGrid, ExperimentSpec, FlowConfig,
                      FlowResult, GateTarget, QuantumSystem, RhsEvaluation, RunRecord,
                      build_initial_grid, build_two_spin_benchmark, dormand_prince_step,
                      gate_target, integrate_flow)
from gateflow.flow import H_MIN, MIN_SHRINK

from conftest import BENCH_CASES
from helpers import accepted, checkout_env
from oracles import final_propagator


def decay(sys, grid, target, order=1, *, check_unitarity=False):
    """Stand-in for flow_evaluation: dy/ds = -y on a one-entry grid, with
    |y| as the objective. Like the real one, it carries the grid it was given."""
    amps = grid.amplitudes
    return RhsEvaluation(values=-amps, objective=abs(amps[0, 0]), grid=grid)


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
        assert FlowConfig().s_max == 5000.0
        cfg = FlowConfig(s_max=100.0)
        assert cfg.tol == 1e-4
        assert cfg.j_stop == 1e-7
        assert cfg.h_init == 1.0
        assert len(fields(FlowConfig)) == 7  # the step floor is the constant H_MIN

    @pytest.mark.parametrize("name, value, message", [
        ("s_max", float("inf"), "s_max must be finite"),
        ("tol", 0.0, "tol must be positive"),
        ("j_stop", float("nan"), "j_stop must be finite"),
        ("h_init", True, "h_init must be a number, not a bool"),
        ("max_rhs_evals", 2.5, "max_rhs_evals must be a positive integer, got 2.5"),
    ], ids=["s_max", "tol", "j_stop", "h_init", "max_rhs_evals"])
    def test_each_field_is_checked_by_its_owner(self, name, value, message):
        # The wiring of gateflow.system's checks, whose rules TestInputRules covers.
        with pytest.raises(ValueError, match=f"^{message}$"):
            FlowConfig(**{"s_max": 10.0, name: value})

    def test_h_init_must_clear_the_step_floor(self):
        # The one rule FlowConfig owns itself. An h_init past the horizon is
        # kept, since the first step is clipped to it.
        with pytest.raises(ValueError, match="^h_init must be larger than 1e-12, got 1e-12$"):
            FlowConfig(s_max=10.0, h_init=H_MIN)
        assert FlowConfig(s_max=10.0, h_init=2 * H_MIN).h_init == 2 * H_MIN
        assert FlowConfig(s_max=10.0, h_init=20.0).h_init == 20.0
        assert FlowConfig(s_max=0.5).h_init == 1.0

    def test_frozen(self):
        # A checked config cannot be made invalid afterwards; replace() builds
        # and checks a new one.
        cfg = FlowConfig(s_max=10.0)
        with pytest.raises(FrozenInstanceError):
            cfg.tol = -1.0
        with pytest.raises(FrozenInstanceError):
            cfg.s_max = float("nan")
        assert (cfg.tol, cfg.s_max) == (1e-4, 10.0)


@pytest.mark.parametrize("record, name", [
    (RunRecord("cnot", 5.0, 150, 1, 1200.0, 8.9e-08, 4370, 0.5, "j_reached"), "final_j"),
    (FlowResult(final_grid=None, steps=np.zeros(1), stop_reason="horizon", s_stop=1.0), "s_stop"),
    (RhsEvaluation(values=np.zeros((1, 1)), objective=0.5), "values"),
], ids=["RunRecord", "FlowResult", "RhsEvaluation"])
def test_records_are_immutable(record, name):
    # What a run reported cannot be rewritten after the fact.
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    assert getattr(record, name) is before


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
        cfg = FlowConfig(s_max=5.0, tol=1e-8, j_stop=1e-30, h_init=0.5)
        result = run_decay(1.0, cfg)
        assert result.stop_reason == "horizon"
        assert result.s_stop == 5.0
        assert abs(result.final_grid.amplitudes[0, 0] - np.exp(-5.0)) <= 1e-7
        assert result.rhs_evals == 1 + 6 * (result.accepted_steps + result.rejected_steps)
        rows = accepted(result)
        assert (rows["s"][0], rows["J"][0]) == (0.0, 1.0)
        assert np.all(np.diff(rows["s"]) > 0)

    def test_objective_stop(self, run_decay):
        cfg = FlowConfig(s_max=100.0, j_stop=0.5, h_init=0.1)
        result = run_decay(1.0, cfg)
        assert result.stop_reason == "j_reached"
        assert result.final_grid.amplitudes[0, 0] <= 0.5
        assert accepted(result)["J"][-1] <= 0.5
        assert result.s_stop < 100.0

    def test_immediate_stop_when_already_converged(self, run_decay):
        cfg = FlowConfig(s_max=10.0, j_stop=1e-7)
        result = run_decay(1e-9, cfg)
        assert result.stop_reason == "j_reached"
        assert result.s_stop == 0.0
        assert result.rhs_evals == 1
        assert len(result.steps) == 1
        assert result.accepted_steps == 0 and result.rejected_steps == 0

    def test_rejected_attempt_below_j_stop_does_not_stop(self, monkeypatch):
        # dy/ds = -y with J = y on [0, 1] and 0 beyond: only the overlong first
        # attempt, which its error norm rejects, lands where J is below j_stop.
        def dip(sys, grid, target, order=1, *, check_unitarity=False):
            y = grid.amplitudes[0, 0]
            return RhsEvaluation(values=-grid.amplitudes, objective=y if abs(y) <= 1 else 0.0,
                                 grid=grid)

        monkeypatch.setattr("gateflow.flow.flow_evaluation", dip)
        cfg = FlowConfig(s_max=20.0, j_stop=1e-30, h_init=5.0)
        result = integrate_flow(None, ControlGrid(t_final=1.0, amplitudes=[[1.0]]), None, 1, cfg)
        first = result.steps[1]
        assert not first["accepted"] and first["J"] <= cfg.j_stop
        assert (result.stop_reason, result.s_stop) == ("horizon", 20.0)
        assert (accepted(result)["J"] > cfg.j_stop).all()

    @pytest.mark.parametrize("budget", [13, 31], ids=["ends_rejected", "ends_accepted"])
    def test_final_grid_is_the_last_accepted_evaluations(self, monkeypatch, budget):
        # The reported grid is the one whose J the record reports last, the grid
        # of the evaluation counted at the last accepted row, not a rebuild. With
        # h_init = 5 the first two attempts are rejected: a budget of 13 stops
        # there, on the start point, and one of 31 after three accepted steps.
        seen = []

        def recording(sys, grid, *args, **kwargs):
            seen.append(grid)
            return decay(sys, grid, *args, **kwargs)

        monkeypatch.setattr("gateflow.flow.flow_evaluation", recording)
        cfg = FlowConfig(s_max=100.0, tol=1e-6, j_stop=1e-30, h_init=5.0, max_rhs_evals=budget)
        result = integrate_flow(None, ControlGrid(t_final=1.0, amplitudes=[[1.0]]), None, 1, cfg)
        assert result.steps["accepted"][-1] == (budget == 31)
        last = accepted(result)[-1]
        assert result.final_grid is seen[last["evals"] - 1]
        assert result.final_grid.amplitudes[0, 0] == last["J"]

    def test_eval_budget_stop(self, run_decay):
        # The budget is tested before every step, the first included, and a
        # step makes 6 evaluations: a run ends at most 5 past its budget.
        for budget in (1, 2, 7, 20):
            cfg = FlowConfig(s_max=1e6, tol=1e-10, j_stop=1e-30, h_init=0.5,
                             max_rhs_evals=budget)
            result = run_decay(1.0, cfg)
            assert result.stop_reason == "eval_budget"
            assert budget <= result.rhs_evals <= budget + 5, budget


# The audit event of every process this interpreter starts from here on, in order;
# multiprocessing's fork start method raises os.fork.
PROCESS_STARTS = []


def _record_process_start(event, args):
    if event in ("os.fork", "os.forkpty", "os.posix_spawn", "os.spawn", "os.system",
                 "subprocess.Popen"):
        PROCESS_STARTS.append(event)


sys.addaudithook(_record_process_start)


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
        assert np.all(accepted(result)["J"] == result.steps["J"][0])
        assert result.rejected_steps == 0

    def test_descent_on_short_run(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=50.0, j_stop=1e-30, track_descent=True,
                         check_unitarity=True)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "horizon"
        rows = accepted(result)
        # J never rose, so no accepted row carries a rate.
        assert (np.diff(rows["J"]) <= 0).all()
        assert np.isnan(result.steps["dJ_ds"]).all()
        assert rows["J"][-1] < rows["J"][0]
        assert result.max_unitarity_defect is not None
        assert result.max_unitarity_defect <= 1e-10

    @pytest.mark.parametrize("track", [True, False], ids=["tracked", "untracked"])
    def test_descent_rate_formed_once_per_row(self, benchmark_system, swap, monkeypatch, track):
        # swap T=5 L=300 order 0 first raises J on the step s = 31 -> 156, after 25
        # evaluations. A tracked run forms dJ/ds at both ends of each rise, once per
        # row, from the evaluation records it holds: this process propagates once
        # per evaluation and starts no process, tracked or not.
        calls = {"rate": 0, "propagate": 0}
        amplitudes = []  # the grid of every evaluation, in call order
        rate, evaluate = gateflow.gradient.descent_rate, gateflow.flow.flow_evaluation

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def recording(sys, grid, *args, **kwargs):
            amplitudes.append(grid.amplitudes)
            return evaluate(sys, grid, *args, **kwargs)

        monkeypatch.setattr("gateflow.flow.descent_rate", counting("rate", rate))
        monkeypatch.setattr("gateflow.gradient.descent_rate", counting("rate", rate))
        monkeypatch.setattr("gateflow.gradient.propagate",
                            counting("propagate", gateflow.gradient.propagate))
        monkeypatch.setattr("gateflow.flow.flow_evaluation", recording)
        grid = build_initial_grid(ExperimentSpec(gate="swap", t_final=5.0, n_slices=300))
        cfg = FlowConfig(s_max=200.0, j_stop=1e-30, track_descent=track)
        starts, children = len(PROCESS_STARTS), set(multiprocessing.active_children())
        result = integrate_flow(benchmark_system, grid, swap, 0, cfg)
        assert PROCESS_STARTS[starts:] == []
        assert set(multiprocessing.active_children()) == children
        assert result.rejected_steps > 0
        rated = result.steps[~np.isnan(result.steps["dJ_ds"])]
        assert [tuple(row[["s", "evals"]]) for row in rated] == ([(31.0, 19), (156.0, 25)]
                                                                 if track else [])
        assert calls == {"rate": len(rated), "propagate": result.rhs_evals}
        # Row evals = e holds the point of evaluation e, call e - 1.
        for row in rated:
            ev = evaluate(benchmark_system, grid.with_amplitudes(amplitudes[row["evals"] - 1]),
                          swap, 0)
            assert row["dJ_ds"] == rate(ev)

    def test_diagnostics_off_by_default(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=5.0, j_stop=1e-30)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.max_unitarity_defect is None
        assert np.isnan(result.steps["dJ_ds"]).all()

    def test_deterministic_rerun(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=50.0, j_stop=1e-30)
        a = integrate_flow(sys, grid, target, 1, cfg)
        b = integrate_flow(sys, grid, target, 1, cfg)
        assert np.array_equal(a.final_grid.amplitudes, b.final_grid.amplitudes)
        assert a.steps.tobytes() == b.steps.tobytes()  # NaN rates compare as bytes
        assert a.rhs_evals == b.rhs_evals
        assert a.s_stop == b.s_stop

    def test_step_underflow(self, short_cnot):
        # An unreachable tolerance rejects every step, so the controller
        # shrinks h by MIN_SHRINK per attempt until it falls below H_MIN.
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=5.0, tol=1e-300, j_stop=1e-30, h_init=0.5)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "step_underflow"
        assert result.accepted_steps == 0
        assert result.steps["h"][-1] * MIN_SHRINK < H_MIN <= result.steps["h"][-1]

    def test_subnormal_tolerance_underflows_without_a_warning(self, short_cnot):
        # err / scale overflows on a subnormal tol; the infinite norm rejects the step.
        sys, grid, target = short_cnot
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = integrate_flow(sys, grid, target, 1, FlowConfig(s_max=20.0, tol=5e-324))
        assert result.stop_reason == "step_underflow"
        assert np.isinf(result.steps["err_norm"]).any()

    def test_horizon_shorter_than_the_first_step(self, short_cnot):
        # The default h_init of 1 is clipped to the horizon 0.5.
        sys, grid, target = short_cnot
        result = integrate_flow(sys, grid, target, 1, FlowConfig(s_max=0.5))
        assert result.stop_reason == "horizon"
        assert result.s_stop == 0.5
        assert result.steps["h"][1] == 0.5

    def test_eval_budget(self, short_cnot):
        sys, grid, target = short_cnot
        cfg = FlowConfig(s_max=1e6, j_stop=1e-30, max_rhs_evals=20)
        result = integrate_flow(sys, grid, target, 1, cfg)
        assert result.stop_reason == "eval_budget"
        assert result.rhs_evals >= 20

    def test_non_finite_velocities_name_the_entry(self, monkeypatch):
        def stub(sys, grid, target, order=1, *, check_unitarity=False):
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


# (rhs_evals, accepted steps, rejected steps, rows with a dJ/ds) of each bench_runs case.
BENCH_COUNTS = {
    "cnot_t5_m0": (523, 75, 12, 0),
    "cnot_t5_m1": (337, 51, 5, 0),
    "swap_t5_m0": (979, 149, 14, 72),
    "swap_t5_m1": (295, 37, 12, 0),
    "cnot_t10_m0": (913, 137, 15, 86),
    "cnot_t10_m1": (787, 124, 7, 31),
    "cnot_t05_m0": (343, 56, 1, 0),
    "cnot_t05_m1": (331, 53, 2, 0),
}


@pytest.mark.parametrize("case", list(BENCH_CASES))
def test_bench_run_counts(bench_runs, case):
    result = bench_runs[case][1]
    counts = (result.rhs_evals, result.accepted_steps, result.rejected_steps)
    assert counts == BENCH_COUNTS[case][:3]
    assert result.rhs_evals == 1 + 6 * (result.accepted_steps + result.rejected_steps)


@pytest.mark.parametrize("case", list(BENCH_CASES))
def test_bench_run_record(bench_runs, case):
    # Every attempt after the start point costs six evaluations; a rejected
    # one records its J but no descent rate. The rows with a rate are exactly
    # the two ends of each accepted step that raised J.
    steps = bench_runs[case][1].steps
    rejected = steps[~steps["accepted"]]
    assert len(rejected) == BENCH_COUNTS[case][2]
    assert steps["evals"][0] == 1 and (np.diff(steps["evals"]) == 6).all()
    assert np.isnan(rejected["dJ_ds"]).all()
    rows = np.flatnonzero(steps["accepted"])
    rises = np.diff(steps["J"][rows]) > 0
    ends = np.union1d(rows[:-1][rises], rows[1:][rises])
    assert np.array_equal(np.flatnonzero(~np.isnan(steps["dJ_ds"])), ends)
    assert len(ends) == BENCH_COUNTS[case][3]


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_time_energy_scaling_of_a_whole_run(bench_runs, c):
    # Energies times c with T, s_max and h_init over c: every dt * H_l
    # is unchanged, velocities grow by c and flow time shrinks by c, so each
    # Dormand-Prince increment h * v, the error norm and the step controller
    # are unchanged. A power of two scales without rounding: bit for bit.
    # The step floor H_MIN is not scaled, but no step of this run comes near it.
    # The reference is tracked and checked, the scaled runs are not: neither
    # changes a run's trajectory.
    base = build_two_spin_benchmark()
    sys = QuantumSystem(h0=c * base.h0, controls=c * base.controls)
    cfg = FlowConfig(s_max=5000.0 / c, h_init=1.0 / c)
    run = integrate_flow(sys, ControlGrid(5.0 / c, np.zeros((2, 150))), gate_target("cnot"),
                         1, cfg)
    ref = bench_runs["cnot_t5_m1"][1]
    assert (run.rhs_evals, run.accepted_steps, run.rejected_steps, run.stop_reason) == \
        (ref.rhs_evals, ref.accepted_steps, ref.rejected_steps, ref.stop_reason)
    assert np.array_equal(run.final_grid.amplitudes, ref.final_grid.amplitudes)
    assert np.array_equal(accepted(run)["J"], accepted(ref)["J"])
    assert np.array_equal(accepted(run)["s"] * c, accepted(ref)["s"])
    assert run.s_stop * c == ref.s_stop


# The bare SWAP: conjugating by it exchanges the two spins.
SWAP = np.eye(4)[[0, 2, 1, 3]]


@pytest.mark.parametrize("case", ["cnot_t5_m0", "cnot_t5_m1", "cnot_t10_m1"])
def test_spin_exchange_of_a_whole_run(bench_runs, case):
    # SWAP exchanges the two x controls, so SWAP h0 SWAP + e1 c1 + e2 c2 is
    # SWAP (h0 + e2 c1 + e1 c2) SWAP: the exchanged system flowing to SWAP cnot
    # SWAP is the cnot run with its amplitude rows exchanged. The permuted
    # products sum in another order, so the amplitudes agree to rounding, not
    # bit for bit.
    _, t_final, n_slices, order, s_max = BENCH_CASES[case]
    record, ref = bench_runs[case]
    target = GateTarget(SWAP @ gate_target("cnot").matrix @ SWAP, "cnot_exchanged")
    sys = build_two_spin_benchmark()
    run = integrate_flow(QuantumSystem(SWAP @ sys.h0 @ SWAP, sys.controls),
                         ControlGrid(t_final, np.zeros((2, n_slices))), target, order,
                         FlowConfig(s_max=s_max))
    s_reported = math.ceil(run.s_stop / S_GRANULARITY) * S_GRANULARITY
    assert (run.stop_reason, run.rhs_evals, run.accepted_steps, s_reported) == \
        (ref.stop_reason, ref.rhs_evals, ref.accepted_steps, record.s_reported)
    assert np.abs(run.final_grid.amplitudes[::-1] - ref.final_grid.amplitudes).max() <= 1e-9


@pytest.mark.parametrize("gate", ["cnot", "swap"])
@pytest.mark.parametrize("order", [0, 1, EXACT])
def test_target_at_the_start_stops_at_once(benchmark_system, gate, order):
    # A target equal to U(T) of the start grid has J at rounding level, so
    # the run stops on j_stop at s = 0 after its first evaluation.
    grid = build_initial_grid(ExperimentSpec(gate=gate, t_final=5.0, n_slices=150))
    target = GateTarget(final_propagator(benchmark_system, grid), "start")
    run = integrate_flow(benchmark_system, grid, target, order, FlowConfig(s_max=5000.0))
    assert (run.stop_reason, run.s_stop, run.rhs_evals) == ("j_reached", 0.0, 1)
    assert (run.accepted_steps, run.rejected_steps) == (0, 0)
    assert len(run.steps) == 1 and run.steps["J"][0] <= 1e-12
    assert np.array_equal(run.final_grid.amplitudes, grid.amplitudes)


@pytest.mark.parametrize("rows", [1, 3])
def test_control_count_mismatch_stops_the_run(benchmark_system, rows):
    # Neither broadcast onto both controls nor failing deep inside numpy: the
    # first evaluation names both counts.
    grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((rows, 10)))
    with pytest.raises(ValueError, match=f"^control count mismatch: {rows} vs 2$"):
        integrate_flow(benchmark_system, grid, gate_target("cnot"), 1, FlowConfig(s_max=50.0))


class TestToleranceBehavior:
    def base_cfg(self, **kw):
        return FlowConfig(s_max=200.0, j_stop=1e-30, **kw)

    def test_halving_tolerances_tracks_same_trajectory(self, benchmark_system, cnot):
        # Both runs follow the same flow to the same horizon; the tighter
        # run may land a hair above or below, so allow a 0.1% band instead
        # of demanding strict improvement.
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        base = integrate_flow(benchmark_system, grid, cnot, 1, self.base_cfg())
        half = integrate_flow(benchmark_system, grid, cnot, 1, self.base_cfg(tol=5e-5))
        assert base.stop_reason == "horizon"
        assert half.stop_reason == "horizon"
        assert accepted(half)["J"][-1] <= accepted(base)["J"][-1] * 1.001

    def test_halving_tolerances_still_converges(self, benchmark_system, cnot, bench_runs):
        # The base run is bench_runs' cnot T=5 L=150 order-1 run at the default tol.
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        base = bench_runs["cnot_t5_m1"][1]
        half = integrate_flow(benchmark_system, grid, cnot, 1,
                              FlowConfig(s_max=5000.0, tol=5e-5))
        assert base.stop_reason == "j_reached"
        assert half.stop_reason == "j_reached"
        assert accepted(base)["J"][-1] <= 1e-7
        assert accepted(half)["J"][-1] <= 1e-7


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
    out = subprocess.run([sys.executable, "-c", HEAP_SCRIPT], env=checkout_env(), check=True,
                         capture_output=True, text=True).stdout
    faults, evals = map(int, out.split())
    assert evals >= 300
    if platform.libc_ver()[0] == "glibc":
        assert faults < evals, f"{faults} minor faults over {evals} evaluations"
