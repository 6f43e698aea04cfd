"""Property tests of the batched kernels on random Hermitian systems, real
and complex, against the single-slice oracles, and the exact velocities'
invariance under grid refinement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gateflow import (EXACT, ControlGrid, GateTarget, QuantumSystem, flow_evaluation,
                      gate_target, propagate, unitarity_defect)
from oracles import expm_hermitian_generator, finite_difference_gradient, from_real_embedding

unit = st.floats(-1, 1)


@st.composite
def instances(draw):
    """(system, grid, target) with N in 2..4, one or two controls, L <= 6,
    entries and amplitudes in [-1, 1]; complex or real Hermitian matrices."""
    dim = draw(st.integers(2, 4))
    n_controls = draw(st.integers(1, 2))
    n_slices = draw(st.integers(1, 6))
    is_complex = draw(st.booleans())

    def hermitian():
        a = draw(arrays(float, (dim, dim), elements=unit))
        if is_complex:
            a = a + 1j * draw(arrays(float, (dim, dim), elements=unit))
        return (a + a.conj().T) / 2

    sys = QuantumSystem(h0=hermitian(),
                        controls=np.stack([hermitian() for _ in range(n_controls)]))
    grid = ControlGrid(t_final=draw(st.floats(0.1, 1.0)),
                       amplitudes=draw(arrays(float, (n_controls, n_slices), elements=unit)))
    target = GateTarget(matrix=expm_hermitian_generator(hermitian(), 1.0), label="random")
    return sys, grid, target


@given(instances())
def test_exact_velocities_are_the_gradient(instance):
    # -dt times the exact-average velocities is dJ/deps of the discretized
    # dynamics; relative to the gradient's size, with 1e-4 as the smallest
    # size so that a vanishing gradient is compared absolutely.
    sys, grid, target = instance
    fd = finite_difference_gradient(sys, grid, target, delta=1e-5)
    gradient = -grid.dt * flow_evaluation(sys, grid, target, order=EXACT).values
    assert np.abs(gradient - fd).max() <= 1e-5 * max(np.abs(fd).max(), 1e-4)


@given(instances(), st.sampled_from([0.5, 2.0, 4.0]), st.sampled_from([0, 1, 3, EXACT]))
def test_time_energy_scaling_of_one_evaluation(instance, c, order):
    # H -> c H with T -> T / c leaves every dt * H_l, hence every propagator
    # and J, unchanged and multiplies the velocities by c. A power of two
    # scales without rounding, so the relation holds bit for bit.
    sys, grid, target = instance
    scaled = QuantumSystem(h0=c * sys.h0, controls=c * sys.controls)
    ev = flow_evaluation(sys, grid, target, order=order)
    ev_c = flow_evaluation(scaled, ControlGrid(grid.t_final / c, grid.amplitudes), target,
                           order=order)
    assert ev_c.objective == ev.objective
    assert np.array_equal(ev_c.values, c * ev.values)


@given(instances())
def test_prefixes_stay_unitary(instance):
    sys, grid, _ = instance
    p = from_real_embedding(propagate(sys, grid)[1])
    assert unitarity_defect(p, p.conj().transpose(0, 2, 1)) <= 1e-10


def assert_refinement_invariant(sys, grid, target, k, bound):
    # Repeating each amplitude k times leaves every propagator unchanged, and the
    # exact average over a slice is the mean of the averages over its k sub-slices,
    # so the velocities at L are the block means of those at kL and J is unchanged.
    ev = flow_evaluation(sys, grid, target, order=EXACT)
    fine_grid = ControlGrid(grid.t_final, np.repeat(grid.amplitudes, k, axis=1))
    fine = flow_evaluation(sys, fine_grid, target, order=EXACT)
    block_means = fine.values.reshape(*grid.amplitudes.shape, k).mean(axis=2)
    assert np.abs(ev.values - block_means).max() <= bound
    assert abs(ev.objective - fine.objective) <= bound


@given(instances(), st.sampled_from([2, 3]))
def test_exact_velocities_are_block_means_under_refinement(instance, k):
    assert_refinement_invariant(*instance, k, 1e-13)


@pytest.mark.parametrize("t_final", [5.0, 10.0])
@pytest.mark.parametrize("gate", ["cnot", "swap"])
def test_benchmark_exact_velocities_are_block_means_under_refinement(benchmark_system, gate,
                                                                    t_final):
    # An absolute bound: rounding does not shrink with the velocities, and a
    # relative error of 5.9e-13 was seen on a draw where max|v| was 5.6e-3.
    amplitudes = np.random.default_rng(14).normal(0.0, 3.0, (2, 150))
    assert_refinement_invariant(benchmark_system, ControlGrid(t_final, amplitudes),
                                gate_target(gate), 2, 1e-12)
