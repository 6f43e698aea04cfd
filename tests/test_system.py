"""System assembly and propagation: the two-spin benchmark numbers, slice
Hamiltonians, the scaled Taylor step exponentials, unitarity of the prefix
chain, an ODE cross-check, and the owners of the input rules."""

import re

import numpy as np
import pytest

from gateflow import (GATE_TARGETS, ControlGrid, GateTarget, QuantumSystem,
                      gate_target, propagate, unitarity_defect)
from gateflow.system import (MAX_SQUARINGS, SCAN_BLOCK, real_embedding, require_count,
                             require_finite, require_positive_finite, squarings,
                             step_exponentials)
from helpers import random_hermitian
from oracles import (expm_hermitian_generator, from_real_embedding, slice_hamiltonian,
                     slice_hamiltonians, step_propagator)


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


class TestGateTargets:
    def test_both_unitary(self):
        assert list(GATE_TARGETS) == ["cnot", "swap"]
        for t in GATE_TARGETS.values():
            gram = t.matrix.conj().T @ t.matrix
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
        with pytest.raises(ValueError, match="^gate must be cnot or swap, got 'toffoli'$"):
            gate_target("toffoli")

    def test_case_insensitive_lookup(self):
        assert gate_target("CNOT").label == "cnot"

    def test_embedded_once_and_read_only(self):
        # The target is embedded when it is built, as the system's terms are.
        for t in GATE_TARGETS.values():
            assert np.array_equal(t.embedded, real_embedding(t.matrix))
            with pytest.raises(ValueError, match="read-only"):
                t.embedded[0, 0] = 0.0
        with pytest.raises(TypeError):
            GateTarget(matrix=np.eye(2), label="i", embedded=np.eye(4))


class TestValidation:
    def test_non_hermitian_control_rejected(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError, match="not Hermitian"):
            QuantumSystem(h0=np.eye(2), controls=np.stack([bad]))

    def test_control_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumSystem(h0=np.eye(2), controls=np.zeros((1, 3, 3)))

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: QuantumSystem(h0=np.zeros((2, 3)), controls=np.zeros((1, 2, 3))),
                     "h0 must be a square matrix", id="rectangular_drift"),
        pytest.param(lambda: QuantumSystem(h0=np.eye(2), controls=np.zeros((0, 2, 2))),
                     "at least one control Hamiltonian is required", id="no_controls"),
        pytest.param(lambda: ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 0))),
                     r"amplitudes must have shape \(n, L\) with n, L >= 1", id="no_slices"),
        pytest.param(lambda: ControlGrid(t_final=1.0, amplitudes=np.zeros(4)),
                     r"amplitudes must have shape \(n, L\) with n, L >= 1", id="flat_amplitudes"),
        pytest.param(lambda: GateTarget(matrix=np.eye(2)[:, :1], label="column"),
                     "target must be a square matrix", id="rectangular_target"),
    ])
    def test_shape_rules(self, make, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()

    def test_nonpositive_horizon_rejected(self):
        # The grid's wiring of require_positive_finite, whose rules TestInputRules checks.
        with pytest.raises(ValueError, match="^T must be positive$"):
            ControlGrid(t_final=0.0, amplitudes=np.zeros((1, 4)))

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


def check_rule(rule, args, message):
    """Call rule(*args) and expect it to pass (message None) or to raise
    ValueError with exactly message."""
    if message is None:
        assert rule(*args) is None
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rule(*args)


NOT_A_NUMBER = "x must be a number, not a bool"


class TestInputRules:
    """The owners of the input rules, each with one table. A caller's test
    passes one bad value per field, to check that it calls the owner."""

    @pytest.mark.parametrize("value, message", [
        pytest.param(True, NOT_A_NUMBER, id="true"),
        pytest.param(False, NOT_A_NUMBER, id="false"),
        pytest.param(np.True_, NOT_A_NUMBER, id="numpy_true"),
        pytest.param(np.False_, NOT_A_NUMBER, id="numpy_false"),
        pytest.param(np.inf, "x must be finite", id="inf"),
        pytest.param(-np.inf, "x must be finite", id="minus_inf"),
        pytest.param(np.nan, "x must be finite", id="nan"),
        pytest.param(-2.5, None, id="negative"),
        pytest.param(0, None, id="zero"),
        pytest.param(np.float32(1e-30), None, id="numpy_float"),
    ])
    def test_require_finite(self, value, message):
        check_rule(require_finite, (value, "x"), message)

    @pytest.mark.parametrize("value, zero_ok, message", [
        # A bool is refused even where 0 is allowed, False included.
        pytest.param(True, False, NOT_A_NUMBER, id="true"),
        pytest.param(np.False_, True, NOT_A_NUMBER, id="numpy_false_zero_ok"),
        # Finiteness comes first, so -inf reads as not finite, not as negative.
        pytest.param(np.inf, False, "x must be finite", id="inf"),
        pytest.param(-np.inf, True, "x must be finite", id="minus_inf_zero_ok"),
        pytest.param(np.nan, False, "x must be finite", id="nan"),
        pytest.param(0.0, False, "x must be positive", id="zero"),
        pytest.param(0.0, True, None, id="zero_zero_ok"),
        pytest.param(-1e-300, False, "x must be positive", id="negative"),
        pytest.param(-1e-300, True, "x must be non-negative", id="negative_zero_ok"),
        pytest.param(5e-324, False, None, id="subnormal"),
    ])
    def test_require_positive_finite(self, value, zero_ok, message):
        check_rule(require_positive_finite, (value, "x", zero_ok), message)

    @pytest.mark.parametrize("value, most, message", [
        pytest.param(1, None, None, id="one"),
        pytest.param(10**12, None, None, id="unbounded"),
        pytest.param(np.int64(3), None, None, id="numpy_integer"),
        pytest.param(10, 10, None, id="at_most"),
        pytest.param(0, None, "x must be a positive integer, got 0", id="zero"),
        pytest.param(-3, None, "x must be a positive integer, got -3", id="negative"),
        pytest.param(2.5, None, "x must be a positive integer, got 2.5", id="fraction"),
        pytest.param(3.0, None, "x must be a positive integer, got 3.0", id="whole_float"),
        pytest.param("3", None, "x must be a positive integer, got '3'", id="string"),
        pytest.param(True, None, "x must be a positive integer, got True", id="true"),
        pytest.param(np.True_, None, f"x must be a positive integer, got {np.True_!r}",
                     id="numpy_true"),
        pytest.param(11, 10, "x must be a positive integer of at most 10, got 11",
                     id="above_most"),
        pytest.param(np.int64(11), 10,
                     f"x must be a positive integer of at most 10, got {np.int64(11)!r}",
                     id="numpy_integer_above_most"),
        pytest.param(0, 10, "x must be a positive integer of at most 10, got 0",
                     id="zero_with_most"),
    ])
    def test_require_count(self, value, most, message):
        check_rule(require_count, (value, "x", most), message)


class TestRealEmbedding:
    def test_real_embedding_layout_and_round_trip(self):
        z = np.array([[1 + 2j, 3 - 4j], [5j, 6]])
        expected = np.array([[1, 3, -2, 4],
                             [0, 6, -5, 0],
                             [2, -4, 1, 3],
                             [5, 0, 0, 6]], dtype=float)
        assert np.array_equal(real_embedding(z), expected)
        assert np.array_equal(from_real_embedding(real_embedding(z)), z)

    def test_real_embedding_of_real_input_is_block_diagonal(self):
        a = np.arange(4.0).reshape(2, 2)
        e = real_embedding(a)
        assert np.array_equal(e[:2, :2], a) and np.array_equal(e[2:, 2:], a)
        assert not e[:2, 2:].any() and not e[2:, :2].any()

    def test_real_embedding_maps_products_and_daggers(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        b = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        ea, eb = real_embedding(a), real_embedding(b)
        assert ea.shape == (5, 6, 6)
        assert np.abs(from_real_embedding(ea @ eb) - a @ b).max() <= 1e-14
        assert np.array_equal(real_embedding(a.conj().transpose(0, 2, 1)),
                              ea.transpose(0, 2, 1))
        # The trace of an embedding is twice the real part of the trace.
        assert abs(np.trace(ea[0]) - 2 * np.trace(a[0]).real) <= 1e-14


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
            assert np.abs(u.conj().T @ u - np.eye(4)).max() <= 1e-12

    def test_single_slice_total_is_step(self, benchmark_system):
        rng = np.random.default_rng(16)
        grid = ControlGrid(t_final=0.3, amplitudes=rng.uniform(-1, 1, (2, 1)))
        prefixes = propagate(benchmark_system, grid)[1]
        assert np.allclose(from_real_embedding(prefixes[-1]),
                           step_propagator(benchmark_system, grid, 1), atol=1e-14)
        assert np.array_equal(from_real_embedding(prefixes)[0], np.eye(4))

    def test_zero_controls_exponentiate_drift(self, benchmark_system):
        grid = ControlGrid(t_final=2.0, amplitudes=np.zeros((2, 7)))
        prefixes = propagate(benchmark_system, grid)[1]
        expected = expm_hermitian_generator(benchmark_system.h0, 2.0)
        assert np.abs(from_real_embedding(prefixes[-1]) - expected).max() <= 1e-12

    def test_against_ode_solver(self):
        # Integrate the Schrodinger equation slice by slice with a generic
        # ODE solver and compare against the propagated prefixes.
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        sys, rng = two_level_system(21)
        grid = ControlGrid(t_final=1.0, amplitudes=rng.uniform(-1, 1, (1, 4)))
        prefixes = from_real_embedding(propagate(sys, grid)[1])
        u = np.eye(2, dtype=complex)
        for l in range(1, 5):
            h = slice_hamiltonian(sys, grid, l)
            sol = solve_ivp(lambda t, y: (-1j * h @ y.reshape(2, 2)).ravel(),
                            (0.0, grid.dt), u.ravel(), method="DOP853",
                            rtol=1e-12, atol=1e-12)
            u = sol.y[:, -1].reshape(2, 2)
            assert np.abs(prefixes[l] - u).max() <= 1e-8
        assert np.abs(prefixes[-1] - u).max() <= 1e-8

    def test_prefix_chain_consistency(self, benchmark_system):
        # The real two-spin system and a complex one, at lengths where the
        # blocked scan's L + 1 entries fill one or two chains exactly, or
        # spill one entry into a padded chain, and at the benchmark lengths.
        complex_sys, rng = two_level_system(17)
        for sys in (benchmark_system, complex_sys):
            for n_slices in (1, 2, 3, 6, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
                             2 * SCAN_BLOCK - 1, 2 * SCAN_BLOCK + 1, 150, 300):
                amps = rng.uniform(-1, 1, (len(sys.controls), n_slices))
                grid = ControlGrid(t_final=n_slices / 4, amplitudes=amps)
                p = from_real_embedding(propagate(sys, grid)[1])
                assert np.array_equal(p[0], np.eye(sys.dim))
                for l in range(1, n_slices + 1):
                    step = step_propagator(sys, grid, l)
                    assert np.abs(p[l] - step @ p[l - 1]).max() <= 1e-12

    def test_unitarity_defect_small_on_long_grid(self, benchmark_system):
        rng = np.random.default_rng(18)
        grid = ControlGrid(t_final=5.0, amplitudes=rng.uniform(-1, 1, (2, 300)))
        p = from_real_embedding(propagate(benchmark_system, grid)[1])
        assert unitarity_defect(p, p.conj().transpose(0, 2, 1)) <= 1e-10

    def test_unitarity_defect_of_a_matrix_and_a_stack(self):
        # A scaled identity is off by |c|^2 - 1 on the diagonal; a stack
        # reports its worst member.
        assert unitarity_defect(np.eye(3), np.eye(3)) == 0.0
        assert unitarity_defect(1.5j * np.eye(2), -1.5j * np.eye(2)) == 1.25
        stack = np.stack([np.eye(2), 0.5 * np.eye(2), np.eye(2)])
        assert unitarity_defect(stack, stack) == 0.75
        # P^dagger P - I from the adjoint the caller passes: a complex matrix with
        # its conjugate transpose, a real stack with its contiguous transpose.
        rng = np.random.default_rng(19)
        z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert unitarity_defect(z, z.conj().T) == np.abs(z.conj().T @ z - np.eye(3)).max()
        stack = rng.normal(size=(5, 4, 4))
        want = max(np.abs(s.T @ s - np.eye(4)).max() for s in stack)
        got = unitarity_defect(stack, np.ascontiguousarray(stack.transpose(0, 2, 1)))
        assert abs(got - want) <= 1e-14 * want

    def test_cache_shapes(self, benchmark_system):
        grid = ControlGrid(t_final=1.0, amplitudes=np.zeros((2, 5)))
        generators, prefixes, rows = propagate(benchmark_system, grid)
        assert prefixes.shape == (6, 8, 8)
        assert np.array_equal(prefixes[0], np.eye(8))
        assert generators.shape == (5, 8, 8)
        assert rows.shape == (5, 8)
        assert np.allclose(rows, np.abs(generators).sum(-1), rtol=1e-15, atol=0)
        hams = slice_hamiltonians(benchmark_system, grid)
        assert np.array_equal(generators, real_embedding(1j * hams))

    @pytest.mark.parametrize("complex_system", [False, True])
    def test_generators_from_the_embedded_terms(self, benchmark_system, complex_system):
        # The system keeps its inputs complex and embeds i h0 and i H_k once,
        # read-only; by linearity the slice generators built from that stack
        # equal the embedded slice Hamiltonians exactly (a zero may differ in sign).
        sys = two_level_system(5)[0] if complex_system else benchmark_system
        assert sys.h0.dtype == sys.controls.dtype == complex
        n = sys.controls.shape[0]
        assert sys.embedded_terms.shape == (n + 1, 2 * sys.dim, 2 * sys.dim)
        assert np.array_equal(sys.embedded_terms[0], real_embedding(1j * sys.h0))
        assert np.array_equal(sys.embedded_terms[1:], real_embedding(1j * sys.controls))
        with pytest.raises(ValueError, match="read-only"):
            sys.embedded_terms[0, 0, 0] = 1.0
        grid = ControlGrid(3.0, np.random.default_rng(6).uniform(-2, 2, (n, 9)))
        expected = real_embedding(1j * slice_hamiltonians(sys, grid))
        assert np.array_equal(propagate(sys, grid)[0], expected)


EPS = np.finfo(float).eps


class TestStepExponentials:
    @pytest.mark.parametrize("n_slices", [1, 2, 3, 7, 150])
    def test_matches_eigendecomposition_oracle(self, benchmark_system, n_slices):
        # dt * ||H|| from 1e-3 to 1e3 on the real two-spin system and on
        # random complex ones. Squaring s times grows the rounding by up to
        # 2**s; the prefix products add about eps per slice.
        rng = np.random.default_rng(40 + n_slices)
        systems = [benchmark_system]
        for dim in (2, 3, 4):
            systems.append(QuantumSystem(
                h0=random_hermitian(rng, dim),
                controls=np.stack([random_hermitian(rng, dim) for _ in range(2)])))
        for sys in systems:
            amps = rng.uniform(-1, 1, (2, n_slices))
            hams = slice_hamiltonians(sys, ControlGrid(1.0, amps))
            h_norm = np.linalg.norm(hams, 2, axis=(-2, -1)).max()
            for dt_norm in 10.0 ** np.arange(-3, 4):
                grid = ControlGrid(dt_norm * n_slices / h_norm, amps)
                generators, prefixes, rows = propagate(sys, grid)
                s = squarings(rows, grid.dt)
                steps, step_rows = step_exponentials(generators, grid.dt)
                assert np.array_equal(step_rows, rows)
                oracle = np.stack([step_propagator(sys, grid, l)
                                   for l in range(1, n_slices + 1)])
                assert np.abs(steps - real_embedding(oracle)).max() <= 32 * 2**s * EPS
                assert np.array_equal(prefixes[1:2], steps[:1])
                bound = 32 * (n_slices + 2**s) * EPS
                p = from_real_embedding(prefixes)
                assert unitarity_defect(p, p.conj().transpose(0, 2, 1)) <= bound

    def test_squarings_bring_the_norm_below_one(self):
        # Every row of |real_embedding(i sigma_x)| sums to 1, so the norm is dt itself.
        x = real_embedding(1j * np.array([[[0.0, 1.0], [1.0, 0.0]]]))
        rows = step_exponentials(x, 0.5)[1]
        assert np.array_equal(rows, np.ones((1, 4)))
        assert squarings(rows, 0.5) == 0
        assert squarings(rows, 1.0) == 1
        assert squarings(rows, 3.0) == 2
        assert squarings(rows, np.nextafter(2.0**MAX_SQUARINGS, 0)) == MAX_SQUARINGS
        with pytest.raises(ValueError, match=rf"needs more than {MAX_SQUARINGS} squarings"):
            squarings(rows, 2.0**MAX_SQUARINGS)

    @pytest.mark.parametrize("t_final, shown", [(1e300, r"9\.354e\+301"),
                                                 (1.7e308, "inf")], ids=["huge", "overflow"])
    def test_too_long_or_non_finite_step_rejected(self, benchmark_system, t_final, shown):
        # The norm product overflows to inf in Python floats, without a warning.
        grid = ControlGrid(t_final=t_final, amplitudes=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=rf"^slice step too long for the exponential: "
                                             rf"largest dt\*\|\|X\|\|_inf = {shown} needs more "
                                             rf"than {MAX_SQUARINGS} squarings; use more slices, "
                                             rf"a shorter T or smaller amplitudes$"):
            propagate(benchmark_system, grid)

    def test_nan_generator_rejected(self):
        x = np.full((1, 2, 2), np.nan)
        with pytest.raises(ValueError, match="= nan needs more than"):
            step_exponentials(x, 1.0)
