"""Property tests of the batched kernels on random Hermitian systems, real
and complex, against the single-slice oracles."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gateflow import (EXACT, ControlGrid, GateTarget, QuantumSystem, flow_evaluation,
                      propagate, unitarity_defect)
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
