"""Gradient engine: objective values, slice averages against quadrature,
series structure, and the finite-difference identity for the exact flow."""

import math

import numpy as np
import pytest

from gateflow import (ControlGrid, EXACT, GateTarget, MAX_SERIES_ORDER, QuantumSystem,
                      UNITARY_TOL, dagger, flow_evaluation, gate_target, normalize_order,
                      phi1, propagate, slice_hamiltonians)
from helpers import random_hermitian
from oracles import (control_average_exact, control_average_series,
                     expm_hermitian_generator, finite_difference_gradient, objective,
                     slice_hamiltonian, step_propagator)

# Grid lengths for the oracle comparisons: the doubling scan's edge cases
# (one slice, powers of two and their neighbours) plus a benchmark length.
ORACLE_LENGTHS = (1, 2, 3, 7, 150)
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


def naive_rhs(sys, grid, target, order):
    """Straightforward per-slice, per-control loop over the single-slice
    kernels, used as an oracle for the batched path. Its prefixes come
    from a sequential product of step propagators, not from propagate."""
    prefixes = [np.eye(sys.dim, dtype=complex)]
    for l in range(1, grid.n_slices + 1):
        prefixes.append(step_propagator(sys, grid, l) @ prefixes[-1])
    a = dagger(target.matrix) @ prefixes[-1]
    out = np.empty(grid.amplitudes.shape)
    for l in range(1, grid.n_slices + 1):
        p = prefixes[l - 1]
        w = p @ a @ dagger(p)
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
        return sys, grid, propagate(sys, grid).total

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
        target = GateTarget(matrix=propagate(sys, grid).total, label="self")
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
        assert ev.objective == objective(propagate(sys, grid).total, target)
        assert ev.unitarity_defect is None
        assert ev.descent_rate is None

    def test_flow_evaluation_diagnostics(self):
        sys, grid, target = random_instance(46, dim=4, n_controls=2)
        ev = flow_evaluation(sys, grid, target, order=1, check_unitarity=True,
                             track_descent=True)
        assert ev.unitarity_defect is not None
        assert ev.unitarity_defect <= 1e-10
        assert type(ev.descent_rate) is float
        plain = flow_evaluation(sys, grid, target, order=1)
        assert np.array_equal(ev.values, plain.values)
        assert ev.objective == plain.objective

    def test_descent_rate_contracts_exact_with_followed(self):
        sys, grid, target = random_instance(55, dim=4, n_controls=2, n_slices=7)
        rate = flow_evaluation(sys, grid, target, order=1, track_descent=True).descent_rate
        followed = flow_evaluation(sys, grid, target, order=1).values
        exact = flow_evaluation(sys, grid, target, order=EXACT).values
        assert not np.allclose(followed, exact)
        expected = -grid.dt * float(np.sum(exact * followed))
        assert abs(rate - expected) <= 1e-12 * abs(expected)

    def test_slice_hamiltonians_built_once(self, monkeypatch):
        # propagate builds them and the series generator reads them from
        # the cache; patched in gradient too, a second build would count.
        calls = []

        def counting(*args):
            calls.append(args)
            return slice_hamiltonians(*args)

        monkeypatch.setattr("gateflow.system.slice_hamiltonians", counting)
        monkeypatch.setattr("gateflow.gradient.slice_hamiltonians", counting, raising=False)
        sys, grid, target = random_instance(56, dim=4, n_controls=2)
        flow_evaluation(sys, grid, target, order=1)
        assert len(calls) == 1

    def test_unitarity_check_raises_on_drift(self, monkeypatch):
        sys, grid, target = random_instance(53)
        monkeypatch.setattr("gateflow.gradient.unitarity_defect",
                            lambda cache: 2 * UNITARY_TOL)
        flow_evaluation(sys, grid, target, order=1)
        with pytest.raises(RuntimeError, match="drifted off the unitary group"):
            flow_evaluation(sys, grid, target, order=1, check_unitarity=True)

    def test_exact_reference_reuses_exact_values(self):
        # At exact order the followed velocities are the exact reference,
        # so the rate is -dt * |v|^2 <= 0 from the same values.
        sys, grid, target = random_instance(47, dim=4, n_controls=2)
        ev = flow_evaluation(sys, grid, target, order=EXACT, track_descent=True)
        assert ev.descent_rate == -grid.dt * float(np.sum(ev.values * ev.values))
        assert ev.descent_rate < 0


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
        ev = flow_evaluation(sys, grid, target, order=1, track_descent=True)
        fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
        paired = float(np.sum(fd * ev.values))
        assert ev.descent_rate < 0
        assert abs(ev.descent_rate - paired) <= 1e-6 * abs(paired)

    def test_rejects_bad_delta(self):
        sys, grid, target = random_instance(52)
        with pytest.raises(ValueError, match="delta"):
            finite_difference_gradient(sys, grid, target, delta=0.0)
