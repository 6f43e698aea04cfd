"""Gradient engine: objective values, slice averages against quadrature,
series structure, and the finite-difference identity for the exact flow."""

import math

import numpy as np
import pytest

from gateflow import (ControlGrid, EXACT, ExperimentSpec, FlowConfig, GateTarget,
                      MAX_SERIES_ORDER, QuantumSystem, UNITARY_TOL, build_initial_grid,
                      build_two_spin_benchmark, descent_rate, execute_experiment,
                      flow_evaluation, gate_target, normalize_order, propagate,
                      unitarity_defect)
from gateflow.gradient import DRIFT_K, exact_weights
from gateflow.system import SCAN_BLOCK, step_exponentials
from helpers import random_hermitian
from oracles import (control_average_exact, control_average_series,
                     expm_hermitian_generator, final_propagator, finite_difference_gradient,
                     from_real_embedding, objective, phi1, slice_hamiltonian,
                     slice_hamiltonians, step_propagator)

# Grid lengths for the oracle comparisons: the blocked scan's edge cases (one
# slice, one chain, exactly full chains and one step past them) plus the
# benchmark lengths. A grid of L slices scans L + 1 entries.
ORACLE_LENGTHS = (1, 2, 3, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 2 * SCAN_BLOCK - 1,
                  2 * SCAN_BLOCK + 1, 150, 300)
ALL_ORDERS = (*range(MAX_SERIES_ORDER + 1), EXACT)


def random_target(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return GateTarget(matrix=q, label="random")


def random_instance(seed, dim=2, n_controls=1, n_slices=4, t_final=1.0):
    rng = np.random.default_rng(seed)
    sys = QuantumSystem(
        h0=random_hermitian(rng, dim),
        controls=np.stack([random_hermitian(rng, dim) for _ in range(n_controls)]),
    )
    grid = ControlGrid(t_final=t_final,
                       amplitudes=rng.uniform(-1, 1, (n_controls, n_slices)))
    return sys, grid, random_target(rng, dim)


# The exact average's systems: the real benchmark, a complex one, and one whose
# only complex term is its control.
EXACT_AVERAGE_CASES = ("benchmark", "complex", "complex_control")


def exact_average_case(kind, benchmark_system):
    """(sys, grid, target) of an EXACT_AVERAGE_CASES kind, on a 9-slice grid at T = 5."""
    rng = np.random.default_rng(56)
    if kind == "benchmark":
        sys, target = benchmark_system, gate_target("cnot")
    elif kind == "complex":
        sys, _, target = random_instance(56, dim=4, n_controls=2)
    else:
        sys = QuantumSystem(h0=np.diag([1.0, -1.0]),
                            controls=np.stack([np.array([[0, -1j], [1j, 0]])]))
        target = random_target(rng, 2)
    return sys, ControlGrid(5.0, rng.uniform(-1, 1, (len(sys.controls), 9))), target


def naive_rhs(sys, grid, target, order):
    """Straightforward per-slice, per-control loop over the single-slice
    kernels, used as an oracle for the batched path. Its prefixes come
    from a sequential product of step propagators, not from propagate."""
    prefixes = [np.eye(sys.dim, dtype=complex)]
    for l in range(1, grid.n_slices + 1):
        prefixes.append(step_propagator(sys, grid, l) @ prefixes[-1])
    a = target.matrix.conj().T @ prefixes[-1]
    out = np.empty(grid.amplitudes.shape)
    for l in range(1, grid.n_slices + 1):
        p = prefixes[l - 1]
        w = p @ a @ p.conj().T
        h = slice_hamiltonian(sys, grid, l)
        for k in range(len(sys.controls)):
            if order == EXACT:
                m = control_average_exact(h, sys.controls[k], grid.dt)
            else:
                m = control_average_series(h, sys.controls[k], grid.dt, order)
            out[k, l - 1] = np.trace(w @ m).imag / (2 * sys.dim)
    return out


class TestObjective:
    """J as flow_evaluation reports it, against targets built from the
    grid's own evolution U = U(T)."""

    @pytest.fixture
    def instance(self):
        sys, grid, _ = random_instance(30, dim=4, n_controls=2)
        return sys, grid, final_propagator(sys, grid)

    @staticmethod
    def objective_at(sys, grid, matrix):
        target = GateTarget(matrix=matrix, label="u")
        return flow_evaluation(sys, grid, target, order=0).objective

    def test_zero_at_target(self, instance):
        sys, grid, u = instance
        assert abs(self.objective_at(sys, grid, u)) <= 1e-15

    def test_one_at_negated_target(self, instance):
        sys, grid, u = instance
        assert abs(self.objective_at(sys, grid, -u) - 1.0) <= 1e-15

    def test_global_phase_raises_objective(self, instance):
        sys, grid, u = instance
        for phase in (0.3, np.pi / 2, 2.0):
            got = self.objective_at(sys, grid, np.exp(1j * phase) * u)
            assert abs(got - (1 - np.cos(phase)) / 2) <= 1e-14

    def test_range_on_unitaries(self, instance):
        sys, grid, _ = instance
        rng = np.random.default_rng(30)
        for _ in range(20):
            j = flow_evaluation(sys, grid, random_target(rng, 4), order=0).objective
            assert -1e-12 <= j <= 1 + 1e-12

    def test_shape_mismatch(self, monkeypatch):
        # Raised before any propagation runs.
        calls = []

        def counting(*args):
            calls.append(args)
            return propagate(*args)

        monkeypatch.setattr("gateflow.gradient.propagate", counting)
        sys, grid, _ = random_instance(31)
        with pytest.raises(ValueError, match="shape mismatch"):
            flow_evaluation(sys, grid, gate_target("cnot"))
        assert calls == []

    @pytest.mark.parametrize("rows", [1, 3])
    def test_control_count_mismatch(self, benchmark_system, monkeypatch, rows):
        # One amplitude row per control: the two-spin system has two, and a
        # grid with another count is refused before anything is propagated.
        calls = []
        monkeypatch.setattr("gateflow.gradient.propagate", lambda *args: calls.append(args))
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((rows, 10)))
        with pytest.raises(ValueError, match=f"^control count mismatch: {rows} vs 2$"):
            flow_evaluation(benchmark_system, grid, gate_target("cnot"))
        assert calls == []


class TestPhi1:
    def test_at_zero(self):
        assert phi1(0.0) == 1.0

    def test_closed_form(self):
        assert abs(phi1(1.0) - (np.e - 1.0)) <= 1e-15

    def test_imaginary_argument(self):
        z = 0.5j
        assert abs(phi1(z) - (np.exp(z) - 1.0) / z) <= 1e-15

    def test_matches_taylor_reference(self):
        # phi1(z) = sum_j z^j / (j+1)!; thirty terms leave a remainder far
        # below rounding for |z| <= 0.5, on every ray and down to tiny |z|,
        # where (e^z - 1) / z would lose digits to cancellation.
        r = np.logspace(-10, np.log10(0.5), 60)[:, None]
        z = (r * np.exp(1j * np.linspace(0, 2 * np.pi, 17))).ravel()
        reference = np.full_like(z, 1 / math.factorial(30))
        for j in range(28, -1, -1):
            reference = reference * z + 1 / math.factorial(j + 1)
        assert np.abs(phi1(z) / reference - 1).max() <= 2e-15

    def test_array_input(self):
        z = np.array([0.0, 1e-6, 1.0, -2.0 + 0.5j])
        out = phi1(z)
        assert out.shape == (4,)
        assert abs(out[2] - (np.e - 1.0)) <= 1e-15

    def test_closed_form_exact_weights(self):
        # The package's weights e^(i theta/2) sinc(theta / 2 pi) against the
        # oracle's (e^z - 1) / z at z = i theta, across zero, tiny and large
        # slice phases of both signs.
        r = np.logspace(-12, np.log10(200.0), 120)
        theta = np.concatenate([-r[::-1], [0.0], r])
        weights = exact_weights(theta)
        assert weights[r.size] == 1.0
        assert np.abs(weights - phi1(1j * theta)).max() <= 4 * np.finfo(float).eps


class TestOrderValidation:
    def test_valid_range(self):
        assert normalize_order(0) == 0
        assert normalize_order(MAX_SERIES_ORDER) == MAX_SERIES_ORDER
        assert normalize_order(np.int64(2)) == 2
        assert normalize_order("exact") == EXACT

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="0..8"):
            normalize_order(MAX_SERIES_ORDER + 1)
        with pytest.raises(ValueError, match="0..8"):
            normalize_order(-1)

    def test_wrong_type(self):
        with pytest.raises(ValueError):
            normalize_order("EXACT")
        with pytest.raises(ValueError):
            normalize_order(1.0)
        with pytest.raises(ValueError):
            normalize_order(True)


class TestSliceAverages:
    def test_commuting_case_returns_control(self):
        # Diagonal slice Hamiltonian and diagonal control commute, so the
        # average is the control itself, at every order and exactly.
        h = np.diag([3.0, -1.0]).astype(complex)
        hk = np.diag([1.0, 2.0]).astype(complex)
        for order in (0, 1, 3, EXACT):
            assert np.allclose(control_average_series(h, hk, 0.7, order), hk,
                               atol=1e-14)

    def test_order_zero_is_control(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(rng, 4)
        hk = random_hermitian(rng, 4)
        assert np.array_equal(control_average_series(h, hk, 0.3, 0),
                              hk.astype(complex))

    def test_first_order_term_structure(self):
        # Order m adds dt^m / (m+1)! times the m-fold nested commutator
        # with iH on top of order m-1.
        rng = np.random.default_rng(32)
        h = random_hermitian(rng, 3)
        hk = random_hermitian(rng, 3)
        dt = 0.2
        m0 = control_average_series(h, hk, dt, 0)
        m1 = control_average_series(h, hk, dt, 1)
        m2 = control_average_series(h, hk, dt, 2)
        ih = 1j * h
        ad1 = ih @ hk - hk @ ih
        ad2 = ih @ ad1 - ad1 @ ih
        assert np.abs((m1 - m0) - (dt / 2) * ad1).max() <= 1e-12
        assert np.abs((m2 - m1) - (dt**2 / 6) * ad2).max() <= 1e-12

    def test_series_converges_to_exact(self):
        rng = np.random.default_rng(33)
        h = random_hermitian(rng, 3)
        hk = random_hermitian(rng, 3)
        dt = 0.1
        exact = control_average_exact(h, hk, dt)
        errs = [np.abs(control_average_series(h, hk, dt, m) - exact).max()
                for m in range(0, 7)]
        assert errs[-1] <= 1e-8
        assert all(errs[i + 1] < errs[i] for i in range(4))

    def test_exact_string_routes_to_exact(self):
        rng = np.random.default_rng(34)
        h = random_hermitian(rng, 3)
        hk = random_hermitian(rng, 3)
        assert np.array_equal(control_average_series(h, hk, 0.4, EXACT),
                              control_average_exact(h, hk, 0.4))

    def test_exact_average_is_hermitian(self):
        rng = np.random.default_rng(35)
        h = random_hermitian(rng, 4)
        hk = random_hermitian(rng, 4)
        avg = control_average_exact(h, hk, 0.6)
        assert np.abs(avg - avg.conj().T).max() <= 1e-13

    def test_exact_average_against_quadrature(self):
        # Independent oracle: trapezoid quadrature of U^dagger(tau) Hk U(tau)
        # with the matrix exponential from scipy.
        expm = pytest.importorskip("scipy.linalg").expm
        rng = np.random.default_rng(36)
        h = random_hermitian(rng, 2)
        hk = random_hermitian(rng, 2)
        dt = 0.3
        taus = np.linspace(0.0, dt, 10001)
        samples = np.empty((taus.size, 2, 2), dtype=complex)
        for i, tau in enumerate(taus):
            u = expm(-1j * tau * h)
            samples[i] = u.conj().T @ hk @ u
        quad = np.trapezoid(samples, taus, axis=0) / dt
        assert np.abs(control_average_exact(h, hk, dt) - quad).max() <= 1e-9

    def test_exact_average_small_dt_limit(self):
        # As dt -> 0 the average collapses to the control Hamiltonian.
        rng = np.random.default_rng(37)
        h = random_hermitian(rng, 3, scale=1e-3)
        hk = random_hermitian(rng, 3, scale=1e-3)
        avg = control_average_exact(h, hk, 1e-6)
        assert np.abs(avg - hk).max() <= 1e-9


class TestFlowRhs:
    def test_batched_matches_naive_loop(self, benchmark_system, cnot):
        # The real two-spin system at the benchmark's dt = 1/30 and a
        # complex random one, at every order; max-abs normalised error.
        for n_slices in ORACLE_LENGTHS:
            rng = np.random.default_rng(41 + n_slices)
            two_spin = ControlGrid(t_final=n_slices / 30,
                                   amplitudes=rng.uniform(-1, 1, (2, n_slices)))
            cases = [(benchmark_system, two_spin, cnot),
                     random_instance(41 + n_slices, dim=4, n_controls=2,
                                     n_slices=n_slices, t_final=n_slices / 10)]
            for sys, grid, target in cases:
                for order in ALL_ORDERS:
                    got = flow_evaluation(sys, grid, target, order=order).values
                    want = naive_rhs(sys, grid, target, order)
                    err = np.abs(got - want).max() / np.abs(want).max()
                    assert err <= 1e-12, (n_slices, order, err)

    def test_zero_at_exact_optimum(self):
        # When the target is the propagator itself the overlap is the
        # identity and every trace in the velocity formula is real.
        sys, grid, _ = random_instance(44, dim=4, n_controls=2)
        target = GateTarget(matrix=final_propagator(sys, grid), label="self")
        for order in (0, 1, EXACT):
            values = flow_evaluation(sys, grid, target, order=order).values
            assert np.abs(values).max() <= 1e-13

    def test_zero_in_commuting_frame(self):
        # Diagonal drift, diagonal control, diagonal target: nothing can
        # generate an imaginary part, so the flow is stationary.
        h0 = np.diag([2.0, -1.0, 0.5]).astype(complex)
        sys = QuantumSystem(h0=h0, controls=np.stack([np.diag([1.0, 0.0, -1.0])]))
        grid = ControlGrid(t_final=1.0, amplitudes=np.full((1, 4), 0.3))
        hams = [slice_hamiltonian(sys, grid, l) for l in range(1, 5)]
        total = expm_hermitian_generator(sum(hams) / 4, 1.0)
        target = GateTarget(matrix=total, label="diag")
        values = flow_evaluation(sys, grid, target, order=EXACT).values
        assert np.abs(values).max() <= 1e-13

    def test_flow_evaluation_reports_objective(self):
        sys, grid, target = random_instance(45)
        ev = flow_evaluation(sys, grid, target, order=1)
        assert ev.objective == objective(final_propagator(sys, grid), target)
        assert ev.unitarity_defect is None
        # The evaluation keeps the inputs descent_rate reads, not a rate, not
        # the prefixes and nothing derived from the system or grid but the
        # pass's own generators, and it is finished when it is returned.
        assert ev.sys is sys and ev.grid is grid
        for derived in ("order", "cache", "prefixes", "hamiltonians", "probes", "dt"):
            assert not hasattr(ev, derived)
        with pytest.raises(AttributeError):
            ev.values = None

    def test_flow_evaluation_diagnostics(self):
        sys, grid, target = random_instance(46, dim=4, n_controls=2)
        ev = flow_evaluation(sys, grid, target, order=1, check_unitarity=True)
        # The defect is read off the embedded prefixes, with no complex copy.
        prefixes = propagate(sys, grid)[1]
        assert ev.unitarity_defect == unitarity_defect(prefixes,
                                                       prefixes.transpose(0, 2, 1).copy())
        assert ev.unitarity_defect <= 1e-10
        assert type(descent_rate(ev)) is float
        plain = flow_evaluation(sys, grid, target, order=1)
        assert np.array_equal(ev.values, plain.values)
        assert ev.objective == plain.objective
        assert descent_rate(ev) == descent_rate(plain)

    def test_descent_rate_contracts_exact_with_followed(self):
        sys, grid, target = random_instance(55, dim=4, n_controls=2, n_slices=7)
        rate = descent_rate(flow_evaluation(sys, grid, target, order=1))
        followed = flow_evaluation(sys, grid, target, order=1).values
        exact = flow_evaluation(sys, grid, target, order=EXACT).values
        assert not np.allclose(followed, exact)
        expected = -grid.dt * float(np.sum(exact * followed))
        assert abs(rate - expected) <= 1e-12 * abs(expected)

    def test_single_precision_horizon_is_widened(self):
        # The grid stores T as a Python float, so a float32 5.0 (exactly 5)
        # gives dt = 5/150 in double precision, not float32's 0.033333335.
        sys, _, target = random_instance(57, dim=4, n_controls=2)
        amps = np.random.default_rng(58).uniform(-1, 1, (2, 150))
        narrow = ControlGrid(t_final=np.float32(5.0), amplitudes=amps)
        assert type(narrow.t_final) is float and narrow.dt == 5.0 / 150
        for order in (1, EXACT):
            a = flow_evaluation(sys, narrow, target, order=order)
            b = flow_evaluation(sys, ControlGrid(t_final=5.0, amplitudes=amps), target,
                                order=order)
            assert np.array_equal(a.values, b.values) and a.objective == b.objective
            assert descent_rate(a) == descent_rate(b)

    @pytest.mark.parametrize("kind", EXACT_AVERAGE_CASES)
    def test_exact_average_diagonalises_the_generators(self, benchmark_system, monkeypatch,
                                                       kind):
        # The exact average reads H_l off the one propagation's generators
        # X_l = real_embedding(i H_l): Re H_l = X_l[N:, :N], Im H_l = -X_l[:N, :N].
        # A real system hands eigh a real view of them, its real-symmetric
        # route; an imaginary part in any term makes the stack complex. The
        # rate of a series-order record diagonalises that record's generators.
        sys, grid, target = exact_average_case(kind, benchmark_system)
        passes, stacks, eigh = [], [], np.linalg.eigh

        def recording_propagate(*args):
            passes.append(propagate(*args))
            return passes[-1]

        def recording_eigh(a):
            stacks.append(a)
            return eigh(a)

        monkeypatch.setattr("gateflow.gradient.propagate", recording_propagate)
        monkeypatch.setattr("numpy.linalg.eigh", recording_eigh)
        flow_evaluation(sys, grid, target, order=EXACT)
        descent_rate(flow_evaluation(sys, grid, target, order=1))
        assert len(passes) == len(stacks) == 2
        for (generators, *_), h in zip(passes, stacks):
            assert h.dtype == (float if kind == "benchmark" else complex)
            assert np.shares_memory(h, generators) == (kind == "benchmark")
            assert np.abs(h - slice_hamiltonians(sys, grid)).max() <= 1e-14

    @pytest.mark.parametrize("kind", EXACT_AVERAGE_CASES)
    def test_exact_average_weighs_the_embedded_eigenbasis_matrix(self, benchmark_system, kind):
        # The weights applied to the embedded V^dagger W V against
        # V ((V^dagger W V) o phi) V^dagger formed slice by slice in complex arithmetic.
        sys, grid, target = exact_average_case(kind, benchmark_system)
        p = from_real_embedding(propagate(sys, grid)[1])
        a = target.matrix.conj().T @ p[-1]
        want = np.empty(grid.amplitudes.shape)
        for l, h in enumerate(slice_hamiltonians(sys, grid)):
            lam, v = np.linalg.eigh(h)
            w_eig = v.conj().T @ p[l] @ a @ p[l].conj().T @ v
            w = v @ (w_eig * exact_weights(grid.dt * (lam[None, :] - lam[:, None]))) @ v.conj().T
            want[:, l] = np.trace(w @ sys.controls, axis1=1, axis2=2).imag / (2 * sys.dim)
        got = flow_evaluation(sys, grid, target, order=EXACT).values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_checked_evaluation_transposes_the_prefixes_once(self, monkeypatch):
        # W and the unitarity check share one contiguous P^T of all L + 1 prefixes.
        sys, grid, target = random_instance(48, dim=4, n_controls=2, n_slices=9)
        passes, copies, checks, contiguous = [], [], [], np.ascontiguousarray

        def recording_propagate(*args):
            passes.append(propagate(*args))
            return passes[-1]

        def recording_contiguous(a, *args, **kwargs):
            copies.append((a, contiguous(a, *args, **kwargs)))
            return copies[-1][1]

        def recording_defect(*args):
            checks.append(args)
            return unitarity_defect(*args)

        monkeypatch.setattr("gateflow.gradient.propagate", recording_propagate)
        monkeypatch.setattr("numpy.ascontiguousarray", recording_contiguous)
        monkeypatch.setattr("gateflow.gradient.unitarity_defect", recording_defect)
        flow_evaluation(sys, grid, target, order=1, check_unitarity=True)
        prefixes = passes[0][1]
        transposed = [out for a, out in copies if np.shares_memory(a, prefixes)]
        assert len(transposed) == 1 and len(checks) == 1
        assert checks[0][0] is prefixes and checks[0][1] is transposed[0]
        assert np.array_equal(transposed[0], prefixes.transpose(0, 2, 1))
        assert transposed[0].flags.c_contiguous

    def test_checked_evaluation_sums_the_generator_rows_once(self, monkeypatch):
        # The squaring count and the drift bound read one (L, 2N) stack of row sums of
        # |X_l|, formed by the step exponential and handed on by propagate.
        sys, grid, target = random_instance(49, dim=4, n_controls=2, n_slices=9)
        passes, magnitudes, magnitude = [], [], np.abs

        def recording_propagate(*args):
            passes.append(propagate(*args))
            return passes[-1]

        def recording_abs(a, *args, **kwargs):
            magnitudes.append(a)
            return magnitude(a, *args, **kwargs)

        monkeypatch.setattr("gateflow.gradient.propagate", recording_propagate)
        monkeypatch.setattr("numpy.abs", recording_abs)
        flow_evaluation(sys, grid, target, order=1, check_unitarity=True)
        generators, _, _ = passes[0]
        assert sum(np.shares_memory(a, generators) for a in magnitudes) == 1

    def test_unitarity_check_raises_on_drift(self, monkeypatch):
        # The bound scales with the run: from the zero grid at T = 1.5e5 the
        # prefixes drift by about 2.6e-9, past UNITARY_TOL but inside the run's
        # bound of about 1.0e-7, so the checked run ends on its evaluation budget.
        spec = ExperimentSpec(gate="cnot", t_final=1.5e5, n_slices=1000,
                              cfg=FlowConfig(check_unitarity=True, max_rhs_evals=1))
        result = execute_experiment(spec)[1]
        assert result.stop_reason == "eval_budget"
        assert UNITARY_TOL < result.max_unitarity_defect < 1e-7
        # Past DRIFT_K * eps * (2N + sum_l dt ||X_l||_inf) the check raises and
        # prints the bound it used.
        sys, grid, target = random_instance(53)
        norms = np.linalg.norm(propagate(sys, grid)[0], np.inf, axis=(1, 2))
        bound = DRIFT_K * np.finfo(float).eps * (2 * sys.dim + grid.dt * norms.sum())
        monkeypatch.setattr("gateflow.gradient.unitarity_defect",
                            lambda p, p_dagger: 2 * bound)
        flow_evaluation(sys, grid, target, order=1)
        with pytest.raises(ValueError, match=rf"^propagator prefixes drifted off the unitary "
                                             rf"group: max\|P\^dagger P - I\| = {2 * bound:.3e} "
                                             rf"exceeds {bound:.3e}$"):
            flow_evaluation(sys, grid, target, order=1, check_unitarity=True)

    @pytest.mark.parametrize("t_final, n_slices, off", [(10.0, 150, 1e-9), (1.5e5, 1000, 1e-6)],
                             ids=["T10", "T150000"])
    def test_off_unitary_step_fails_the_check(self, monkeypatch, t_final, n_slices, off):
        # One step exponential scaled by 1 + off moves the later prefixes about 2 off
        # from the unitary group, past the run's bound: about 6.7e-12 at T = 10 and
        # 1.0e-7 at T = 1.5e5, where an off of 1e-9 would pass.
        def perturbed(x, dt):
            steps, rows = step_exponentials(x, dt)
            steps[len(steps) // 2] *= 1 + off
            return steps, rows

        monkeypatch.setattr("gateflow.system.step_exponentials", perturbed)
        spec = ExperimentSpec(gate="cnot", t_final=t_final, n_slices=n_slices,
                              cfg=FlowConfig(check_unitarity=True, max_rhs_evals=1))
        with pytest.raises(ValueError, match=rf"^cnot T={t_final:g} L={n_slices} order=1: "
                                             r"propagator prefixes drifted off the unitary group"):
            execute_experiment(spec)

    def test_exact_order_rate_is_minus_dt_norm_squared(self):
        # At exact order the followed velocities are the exact reference, and
        # descent_rate forms that reference again from the same inputs by the
        # same routine, so the rate is -dt * |v|^2 < 0 bit for bit.
        sys, grid, target = random_instance(47, dim=4, n_controls=2)
        ev = flow_evaluation(sys, grid, target, order=EXACT)
        rate = descent_rate(ev)
        assert rate == -grid.dt * float(np.sum(ev.values * ev.values))
        assert rate < 0


class TestFiniteDifference:
    def test_matches_exact_flow_velocities(self):
        # The flow at exact order satisfies dJ/deps = -dt * velocity as an
        # identity of the discretized dynamics, not just to O(dt).
        sys, grid, target = random_instance(48, dim=4, n_controls=2, n_slices=4)
        fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
        exact = flow_evaluation(sys, grid, target, order=EXACT).values
        rel = np.abs(fd + grid.dt * exact).max() / np.abs(fd).max()
        assert rel <= 1e-6

    def test_richardson_order_two(self):
        # Central differences converge at second order in delta, so halving
        # delta should shrink the error by about four.
        sys, grid, target = random_instance(49, dim=2, n_controls=1, n_slices=4)
        exact = -grid.dt * flow_evaluation(sys, grid, target, order=EXACT).values
        err = {d: np.abs(finite_difference_gradient(sys, grid, target, d) - exact).max()
               for d in (1e-3, 5e-4)}
        ratio = err[1e-3] / err[5e-4]
        assert 3.0 <= ratio <= 5.0

    def test_descent_pairing(self):
        # Contracting the gradient with the exact velocities gives
        # -dt * sum of squared velocities, the ideal descent rate.
        sys, grid, target = random_instance(50, dim=4, n_controls=2, n_slices=4)
        fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
        exact = flow_evaluation(sys, grid, target, order=EXACT).values
        paired = float(np.sum(fd * exact))
        ideal = -grid.dt * float(np.sum(exact * exact))
        assert paired < 0
        assert abs(paired - ideal) <= 1e-6 * abs(ideal)

    def test_descent_rate_helper(self):
        # The reported descent rate is dJ/ds along the followed velocities:
        # the finite-difference gradient contracted with them.
        sys, grid, target = random_instance(51, dim=4, n_controls=2)
        ev = flow_evaluation(sys, grid, target, order=1)
        rate = descent_rate(ev)
        fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
        paired = float(np.sum(fd * ev.values))
        assert rate < 0
        assert abs(rate - paired) <= 1e-6 * abs(paired)

    def test_rejects_bad_delta(self):
        sys, grid, target = random_instance(52)
        with pytest.raises(ValueError, match="delta"):
            finite_difference_gradient(sys, grid, target, delta=0.0)


class _JStopReached(Exception):
    pass


# (gate, T, L): the starting grids of the benchmark cells the yardstick runs.
LBFGS_CELLS = [("cnot", 5.0, 150), ("cnot", 10.0, 150), ("swap", 5.0, 300),
               ("cnot", 0.5, 300), ("cnot", 10.0, 300), ("cnot", 5.0, 300)]


@pytest.mark.parametrize("gate,t_final,n_slices", LBFGS_CELLS,
                         ids=[f"{g}_T{t:g}_L{n}" for g, t, n in LBFGS_CELLS])
def test_lbfgs_on_the_exact_gradient_reaches_j_stop(gate, t_final, n_slices):
    # A quasi-Newton yardstick on the full-size exact gradient -dt * values:
    # a sign or slice-offset error in it stalls the line search, which the
    # 16-slice identity checks would not see (a constant scale error it
    # absorbs; those checks catch that). With scipy 1.17 the cells take
    # 27-46 evaluations, so 100 keeps 2x headroom across L-BFGS-B versions.
    minimize = pytest.importorskip("scipy.optimize").minimize
    grid0 = build_initial_grid(ExperimentSpec(gate=gate, t_final=t_final, n_slices=n_slices))
    sys, target = build_two_spin_benchmark(), gate_target(gate)
    objectives = []

    def objective_and_gradient(x):
        ev = flow_evaluation(sys, grid0.with_amplitudes(x.reshape(grid0.amplitudes.shape)),
                             target, order=EXACT)
        objectives.append(ev.objective)
        if ev.objective <= 1e-7:
            raise _JStopReached
        return ev.objective, -grid0.dt * ev.values.ravel()

    with pytest.raises(_JStopReached):
        minimize(objective_and_gradient, grid0.amplitudes.ravel(), jac=True,
                 method="L-BFGS-B",
                 options={"gtol": 0, "ftol": 0, "maxfun": 100, "maxiter": 100})
    assert len(objectives) <= 100
