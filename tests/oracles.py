"""Single-slice reference implementations of what the batched kernels in
gateflow compute: slice Hamiltonians, step propagators, phi1, the series
and exact slice averages, the objective J and a central-difference
gradient of it, with the complex matrices read back from real embeddings.

Each works on one slice (or one perturbation) at a time, apart from the
stack `slice_hamiltonians` of complex H_l, independently of the doubling
scan and the W_l contractions of `propagate` and `flow_evaluation`, which
makes them oracles for the kernel tests, `naive_rhs` and acceptance
criteria 1-2. Nothing in the package calls them.
"""

import math

import numpy as np

from gateflow import EXACT, normalize_order, propagate
from gateflow.system import require_hermitian


def expm_hermitian_generator(h, theta):
    """exp(-i * theta * h) for Hermitian h, via eigendecomposition.

    The eigendecomposition route keeps the result unitary to rounding,
    which is what keeps long products of step propagators on the unitary
    group. Non-Hermitian input is rejected.
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h, "generator")
    lam, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * lam)) @ v.conj().T


def phi1(z):
    """(e^z - 1) / z with the removable singularity at z = 0 filled in.

    expm1 keeps the numerator's digits for small |z|, where e^z - 1 would
    lose them to cancellation.
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def slice_hamiltonian(sys, grid, l):
    """Hamiltonian on slice l (1-based): h0 + sum_k eps[k][l] H_k."""
    if not 1 <= l <= grid.n_slices:
        raise IndexError(f"slice index {l} out of range 1..{grid.n_slices}")
    return sys.h0 + np.tensordot(grid.amplitudes[:, l - 1], sys.controls, axes=1)


def slice_hamiltonians(sys, grid):
    """All L slice Hamiltonians h0 + sum_k eps[k][l] H_k at once, shape (L, N, N)."""
    return sys.h0[None, :, :] + np.einsum("kl,kab->lab", grid.amplitudes, sys.controls)


def step_propagator(sys, grid, l):
    """exp(-i * dt * H_l) for slice l (1-based)."""
    return expm_hermitian_generator(slice_hamiltonian(sys, grid, l), grid.dt)


def control_average_series(h_slice, h_control, dt, order):
    """Commutator-series approximation of the slice average of
    U^dagger(tau) H_k U(tau): sum_{j=0}^{order} dt^j/(j+1)! ad_{iH}^j(H_k)."""
    order = normalize_order(order)
    if order == EXACT:
        return control_average_exact(h_slice, h_control, dt)
    ih = 1j * np.asarray(h_slice)
    cur = np.asarray(h_control, dtype=complex)
    acc = cur
    for j in range(1, order + 1):
        cur = ih @ cur - cur @ ih
        acc = acc + (dt**j / math.factorial(j + 1)) * cur
    return acc


def control_average_exact(h_slice, h_control, dt):
    """Exact slice average (1/dt) integral of U^dagger(tau) H_k U(tau).

    In the eigenbasis of the slice Hamiltonian the integrand is diagonal in
    phase: entry (a, b) picks up phi1(i (lam_a - lam_b) dt).
    """
    lam, v = np.linalg.eigh(np.asarray(h_slice))
    b = v.conj().T @ np.asarray(h_control) @ v
    gaps = lam[:, None] - lam[None, :]
    return v @ (b * phi1(1j * gaps * dt)) @ v.conj().T


def objective(u_final, target):
    """J = 1/2 - Re Tr(target^dagger u_final) / (2N).

    Zero when the evolution hits the target exactly, one when it lands on
    the negated target; in [0, 1] for unitary input.
    """
    if target.matrix.shape != u_final.shape:
        raise ValueError(f"shape mismatch: {target.matrix.shape} vs {u_final.shape}")
    n = u_final.shape[0]
    return 0.5 - np.trace(target.matrix.conj().T @ u_final).real / (2 * n)


def from_real_embedding(e):
    """The complex matrix (or stack) whose real_embedding is e."""
    n = e.shape[-1] // 2
    return e[..., :n, :n] + 1j * e[..., n:, :n]


def final_propagator(sys, grid):
    """The complex U(T, 0) of a grid, from propagate's embedded prefixes."""
    return from_real_embedding(propagate(sys, grid)[1][-1])


def finite_difference_gradient(sys, grid, target, delta):
    """Central-difference dJ/deps, one propagation per perturbation.

    Matches -dt times the exact-order velocities; series velocities differ
    from that by their O(dt^(m+1)) truncation error.
    """
    if not delta > 0:
        raise ValueError("delta must be positive")
    amps = grid.amplitudes
    out = np.empty_like(amps)
    for k in range(amps.shape[0]):
        for l in range(amps.shape[1]):
            plus = amps.copy()
            plus[k, l] += delta
            minus = amps.copy()
            minus[k, l] -= delta
            j_plus = objective(final_propagator(sys, grid.with_amplitudes(plus)), target)
            j_minus = objective(final_propagator(sys, grid.with_amplitudes(minus)), target)
            out[k, l] = (j_plus - j_minus) / (2 * delta)
    return out
