"""System assembly and propagation: the two-spin benchmark numbers, slice
Hamiltonians, unitarity of the prefix chain, and an ODE cross-check."""

import numpy as np
import pytest

from gateflow import (GATE_TARGETS, ControlGrid, GateTarget, QuantumSystem,
                      build_two_spin_benchmark, dagger, gate_target, propagate,
                      slice_hamiltonians, unitarity_defect)
from gateflow.linalg import from_real_embedding, real_embedding
from helpers import random_hermitian
from oracles import expm_hermitian_generator, slice_hamiltonian, step_propagator


def two_level_system(seed):
    rng = np.random.default_rng(seed)
    return QuantumSystem(
        h0=random_hermitian(rng, 2),
        controls=np.stack([random_hermitian(rng, 2)]),
    ), rng


class TestBenchmarkSystem:
    def test_drift_diagonal(self, benchmark_system):
        r = 1 / np.sqrt(2)
        expected = np.array([50 * r + 65, -10 * r - 65, 10 * r - 65, -50 * r + 65])
        assert np.allclose(np.diag(benchmark_system.h0), expected, atol=1e-12)

    def test_drift_antidiagonal(self, benchmark_system):
        h0 = benchmark_system.h0
        # x and y couplings add on |00><11| and cancel partially on |01><10|.
        assert abs(h0[0, 3] - (-5.0)) <= 1e-12
        assert abs(h0[1, 2] - 115.0) <= 1e-12
        assert abs(h0[0, 1]) <= 1e-14
        assert abs(h0[0, 2]) <= 1e-14

    def test_drift_hermitian_and_traceless(self, benchmark_system):
        h0 = benchmark_system.h0
        assert np.abs(h0 - h0.conj().T).max() <= 1e-14
        assert abs(np.trace(h0)) <= 1e-12

    def test_controls_are_local_x(self, benchmark_system):
        c = benchmark_system.controls
        assert c.shape == (2, 4, 4)
        r = 1 / np.sqrt(2)
        first = np.zeros((4, 4))
        first[0, 2] = first[2, 0] = first[1, 3] = first[3, 1] = r
        second = np.zeros((4, 4))
        second[0, 1] = second[1, 0] = second[2, 3] = second[3, 2] = r
        assert np.allclose(c[0], first, atol=1e-14)
        assert np.allclose(c[1], second, atol=1e-14)

    def test_custom_constants(self):
        sys = build_two_spin_benchmark(omega1=0.0, omega2=0.0, cx=0.0, cy=0.0, cz=2.0)
        assert np.allclose(sys.h0, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-14)


class TestGateTargets:
    def test_both_unitary(self):
        assert list(GATE_TARGETS) == ["cnot", "swap"]
        for t in GATE_TARGETS.values():
            gram = dagger(t.matrix) @ t.matrix
            assert np.abs(gram - np.eye(4)).max() <= 1e-15

    def test_cnot_squares_to_phase(self):
        cnot = gate_target("cnot").matrix
        assert np.allclose(cnot @ cnot, np.exp(1j * np.pi / 2) * np.eye(4), atol=1e-15)

    def test_swap_exchanges_middle_basis_states(self):
        swap = gate_target("swap").matrix
        phase = np.exp(1j * np.pi / 4)
        e1 = np.array([0, 1, 0, 0], dtype=complex)
        e2 = np.array([0, 0, 1, 0], dtype=complex)
        assert np.allclose(swap @ e1, phase * e2, atol=1e-15)
        assert np.allclose(swap @ e2, phase * e1, atol=1e-15)

    def test_global_phase_value(self):
        cnot = gate_target("cnot").matrix
        assert abs(cnot[0, 0] - np.exp(1j * np.pi / 4)) <= 1e-15

    def test_determinants_are_one(self):
        for t in GATE_TARGETS.values():
            assert abs(np.linalg.det(t.matrix) - 1.0) <= 1e-12

    def test_unknown_gate_rejected(self):
        with pytest.raises(ValueError, match="^unknown gate 'toffoli', expected one of: "
                                             "cnot, swap$"):
            gate_target("toffoli")

    def test_case_insensitive_lookup(self):
        assert gate_target("CNOT").label == "cnot"


class TestValidation:
    def test_non_hermitian_control_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumSystem(h0=np.eye(2), controls=np.stack([bad]))

    def test_control_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumSystem(h0=np.eye(2), controls=np.zeros((1, 3, 3)))

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(ValueError, match="T must be positive"):
            ControlGrid(t_final=0.0, amplitudes=np.zeros((1, 4)))

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError, match="^T must be finite$"):
            ControlGrid(t_final=np.inf, amplitudes=np.zeros((1, 4)))

    def test_non_finite_drift_rejected(self):
        with pytest.raises(ValueError, match="^h0 has non-finite entries$"):
            QuantumSystem(h0=np.full((2, 2), np.nan), controls=np.eye(2)[None])

    def test_infinite_control_rejected(self):
        control = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValueError, match=r"^controls\[0\] has non-finite entries$"):
            QuantumSystem(h0=np.eye(2), controls=control[None])

    def test_non_finite_amplitudes_rejected(self):
        amps = np.zeros((1, 4))
        amps[0, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ControlGrid(t_final=1.0, amplitudes=amps)

    def test_non_unitary_target_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            GateTarget(matrix=2.0 * np.eye(2), label="scaled")

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            GateTarget(matrix=np.full((2, 2), np.nan), label="nan")

    def test_real_input_is_stored_real(self, benchmark_system):
        # Zero imaginary parts put a system on the real eigh path; any
        # nonzero imaginary part keeps it complex.
        assert benchmark_system.h0.dtype == float
        assert benchmark_system.controls.dtype == float
        sys, _ = two_level_system(24)
        assert sys.h0.dtype == complex and sys.controls.dtype == complex
        mixed = QuantumSystem(h0=np.eye(2, dtype=complex),
                              controls=np.stack([np.array([[0, -1j], [1j, 0]])]))
        assert mixed.h0.dtype == complex

    def test_grid_amplitudes_read_only(self):
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((1, 4)))
        with pytest.raises(ValueError):
            grid.amplitudes[0, 0] = 1.0

    def test_grid_dt(self):
        grid = ControlGrid(t_final=5.0, amplitudes=np.zeros((2, 150)))
        assert grid.dt == 5.0 / 150
        assert grid.amplitudes.shape == (2, 150)
        assert grid.n_slices == 150

    def test_with_amplitudes_keeps_horizon(self):
        grid = ControlGrid(t_final=3.0, amplitudes=np.zeros((1, 6)))
        new = grid.with_amplitudes(np.ones((1, 6)))
        assert new.t_final == 3.0
        assert np.array_equal(new.amplitudes, np.ones((1, 6)))


class TestSliceHamiltonian:
    def test_zero_controls_give_drift(self, benchmark_system):
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 3)))
        for l in (1, 2, 3):
            assert np.array_equal(slice_hamiltonian(benchmark_system, grid, l),
                                  benchmark_system.h0)

    def test_unit_amplitude_assembly(self, benchmark_system):
        amps = np.zeros((2, 2))
        amps[0, 0] = 1.0
        amps[1, 0] = -1.0
        grid = ControlGrid(t_final=1.0, amplitudes=amps)
        expected = (benchmark_system.h0
                    + benchmark_system.controls[0]
                    - benchmark_system.controls[1])
        assert np.allclose(slice_hamiltonian(benchmark_system, grid, 1), expected,
                           atol=1e-15)
        assert np.array_equal(slice_hamiltonian(benchmark_system, grid, 2),
                              benchmark_system.h0)

    def test_affine_in_amplitudes_exactly(self):
        # Integer entries make the sums exact, so affinity holds bit for bit:
        # H(a + b) + H(0) == H(a) + H(b).
        rng = np.random.default_rng(13)
        h0 = np.diag([1.0, -1.0]).astype(complex)
        controls = np.stack([np.array([[0, 1], [1, 0]], dtype=complex),
                             np.array([[2, 0], [0, -2]], dtype=complex)])
        sys = QuantumSystem(h0=h0, controls=controls)
        a = rng.integers(-3, 4, (2, 5)).astype(float)
        b = rng.integers(-3, 4, (2, 5)).astype(float)
        for l in range(1, 6):
            lhs = (slice_hamiltonian(sys, ControlGrid(1.0, a + b), l) + h0)
            rhs = (slice_hamiltonian(sys, ControlGrid(1.0, a), l)
                   + slice_hamiltonian(sys, ControlGrid(1.0, b), l))
            assert np.array_equal(lhs, rhs)

    def test_batched_matches_single(self, benchmark_system):
        rng = np.random.default_rng(14)
        grid = ControlGrid(t_final=2.0, amplitudes=rng.uniform(-1, 1, (2, 5)))
        batch = slice_hamiltonians(benchmark_system, grid)
        assert batch.shape == (5, 4, 4)
        for l in range(1, 6):
            assert np.allclose(batch[l - 1],
                               slice_hamiltonian(benchmark_system, grid, l),
                               atol=1e-15)

    def test_slice_index_out_of_range(self, benchmark_system):
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 3)))
        with pytest.raises(IndexError):
            slice_hamiltonian(benchmark_system, grid, 0)
        with pytest.raises(IndexError):
            slice_hamiltonian(benchmark_system, grid, 4)


class TestPropagation:
    def test_step_propagator_diagonal_case(self):
        sys = QuantumSystem(h0=np.diag([2.0, -1.0]).astype(complex),
                            controls=np.zeros((1, 2, 2)))
        grid = ControlGrid(t_final=0.5, amplitudes=np.zeros((1, 1)))
        expected = np.diag(np.exp(-1j * 0.5 * np.array([2.0, -1.0])))
        assert np.allclose(step_propagator(sys, grid, 1), expected, atol=1e-14)

    def test_step_propagator_unitary_on_benchmark(self, benchmark_system):
        rng = np.random.default_rng(15)
        grid = ControlGrid(t_final=5.0, amplitudes=rng.uniform(-1, 1, (2, 4)))
        for l in range(1, 5):
            u = step_propagator(benchmark_system, grid, l)
            assert np.abs(dagger(u) @ u - np.eye(4)).max() <= 1e-12

    def test_single_slice_total_is_step(self, benchmark_system):
        rng = np.random.default_rng(16)
        grid = ControlGrid(t_final=0.3, amplitudes=rng.uniform(-1, 1, (2, 1)))
        cache = propagate(benchmark_system, grid)
        assert np.allclose(cache.total, step_propagator(benchmark_system, grid, 1),
                           atol=1e-14)
        assert np.array_equal(cache.prefixes[0], np.eye(4))

    def test_zero_controls_exponentiate_drift(self, benchmark_system):
        grid = ControlGrid(t_final=2.0, amplitudes=np.zeros((2, 7)))
        cache = propagate(benchmark_system, grid)
        expected = expm_hermitian_generator(benchmark_system.h0, 2.0)
        assert np.abs(cache.total - expected).max() <= 1e-12

    def test_against_ode_solver(self):
        # Integrate the Schrodinger equation slice by slice with a generic
        # ODE solver and compare against the eigendecomposition product.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        sys, rng = two_level_system(21)
        grid = ControlGrid(t_final=1.0, amplitudes=rng.uniform(-1, 1, (1, 4)))
        cache = propagate(sys, grid)
        u = np.eye(2, dtype=complex)
        for l in range(1, 5):
            h = slice_hamiltonian(sys, grid, l)
            sol = solve_ivp(lambda t, y: (-1j * h @ y.reshape(2, 2)).ravel(),
                            (0.0, grid.dt), u.ravel(), method="DOP853",
                            rtol=1e-12, atol=1e-12)
            u = sol.y[:, -1].reshape(2, 2)
            assert np.abs(cache.prefixes[l] - u).max() <= 1e-8
        assert np.abs(cache.total - u).max() <= 1e-8

    def test_prefix_chain_consistency(self, benchmark_system):
        # The real two-spin system and a complex one, at lengths around
        # the doubling scan's powers of two.
        complex_sys, rng = two_level_system(17)
        for sys in (benchmark_system, complex_sys):
            for n_slices in (1, 2, 3, 6, 7, 150):
                amps = rng.uniform(-1, 1, (len(sys.controls), n_slices))
                grid = ControlGrid(t_final=n_slices / 4, amplitudes=amps)
                p = propagate(sys, grid).prefixes
                assert np.array_equal(p[0], np.eye(sys.dim))
                for l in range(1, n_slices + 1):
                    step = step_propagator(sys, grid, l)
                    assert np.abs(p[l] - step @ p[l - 1]).max() <= 1e-12

    def test_unitarity_defect_small_on_long_grid(self, benchmark_system):
        rng = np.random.default_rng(18)
        grid = ControlGrid(t_final=5.0, amplitudes=rng.uniform(-1, 1, (2, 300)))
        cache = propagate(benchmark_system, grid)
        assert unitarity_defect(cache.prefixes) <= 1e-10

    def test_unitarity_defect_of_a_matrix_and_a_stack(self):
        # A scaled identity is off by |c|^2 - 1 on the diagonal; a stack
        # reports its worst member.
        assert unitarity_defect(np.eye(3)) == 0.0
        assert unitarity_defect(1.5j * np.eye(2)) == 1.25
        stack = np.stack([np.eye(2), 0.5 * np.eye(2), np.eye(2)])
        assert unitarity_defect(stack) == 0.75

    def test_cache_shapes(self, benchmark_system):
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 5)))
        cache = propagate(benchmark_system, grid)
        assert cache.prefixes.shape == (6, 4, 4)
        assert cache.embedded.shape == (6, 8, 8)
        assert np.array_equal(from_real_embedding(cache.embedded), cache.prefixes)
        assert cache.eigvals.shape == (5, 4)
        assert cache.eigvecs.shape == (5, 8, 8)
        assert cache.hamiltonians.shape == (5, 4, 4)
        hams = slice_hamiltonians(benchmark_system, grid)
        assert np.array_equal(cache.hamiltonians, hams)
        assert np.array_equal(cache.eigvecs, real_embedding(np.linalg.eigh(hams)[1]))
