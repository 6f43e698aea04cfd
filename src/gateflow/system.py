"""Controlled quantum system, piecewise-constant control grids and the
propagation of the evolution operator across time slices."""

from dataclasses import dataclass, field

import numpy as np

from .linalg import real_embedding, require_hermitian, step_exponentials

# Tolerance for unitarity of propagator prefixes. The scaled Taylor step
# exponentials drift by about 2**s * eps after s squarings, which
# linalg.MAX_SQUARINGS keeps below this with room for a thousand slice
# products.
UNITARY_TOL = 1e-10

# Chain length of the blocked prefix scan in propagate.
SCAN_BLOCK = 8


def _readonly(a):
    a.flags.writeable = False
    return a


def is_integer(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_positive_finite(value, name, zero_ok=False):
    """Raise ValueError unless value is a number, not a bool, with 0 < value < inf
    (0 <= value < inf if zero_ok)."""
    if isinstance(value, (bool, np.bool_)):  # a bool compares as 0 or 1
        raise ValueError(f"{name} must be a number, not a bool")
    if value < 0 or (value == 0 and not zero_ok):
        raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'positive'}")
    if not value < np.inf:
        # NaN fails every comparison, so it is reported as not finite.
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class QuantumSystem:
    """Drift Hamiltonian plus n control Hamiltonians, all N x N Hermitian, kept
    complex as given and read-only. The engine reads only embedded_terms, built
    once here, so real and complex systems run the same code."""

    h0: np.ndarray
    controls: np.ndarray  # shape (n, N, N)
    embedded_terms: np.ndarray = field(init=False)  # real_embedding(i h0), real_embedding(i H_k)

    def __post_init__(self):
        h0 = np.array(self.h0, dtype=complex)
        controls = np.array(self.controls, dtype=complex)
        if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
            raise ValueError("h0 must be a square matrix")
        if controls.ndim != 3 or controls.shape[1:] != h0.shape:
            raise ValueError("controls must have shape (n, N, N) matching h0")
        if controls.shape[0] < 1:
            raise ValueError("at least one control Hamiltonian is required")
        require_hermitian(h0, "h0")
        for k, hk in enumerate(controls):
            require_hermitian(hk, f"controls[{k}]")
        object.__setattr__(self, "h0", _readonly(h0))
        object.__setattr__(self, "controls", _readonly(controls))
        terms = real_embedding(1j * np.concatenate([h0[None], controls]))
        object.__setattr__(self, "embedded_terms", _readonly(terms))

    @property
    def dim(self):
        return self.h0.shape[0]


@dataclass(frozen=True, eq=False)
class ControlGrid:
    """Piecewise-constant control amplitudes on L equal slices of [0, T].

    Row k of amplitudes holds the values of control k on slices 1..L.
    """

    t_final: float
    amplitudes: np.ndarray  # shape (n, L)

    def __post_init__(self):
        require_positive_finite(self.t_final, "T")
        object.__setattr__(self, "t_final", float(self.t_final))
        amps = np.array(self.amplitudes, dtype=float)
        if amps.ndim != 2 or amps.shape[0] < 1 or amps.shape[1] < 1:
            raise ValueError("amplitudes must have shape (n, L) with n, L >= 1")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _readonly(amps))

    @property
    def n_slices(self):
        return self.amplitudes.shape[1]

    @property
    def dt(self):
        return self.t_final / self.n_slices

    def with_amplitudes(self, amplitudes):
        """Same time span, new amplitude values."""
        return ControlGrid(self.t_final, amplitudes)


@dataclass(frozen=True, eq=False)
class GateTarget:
    """A unitary gate to synthesize, with a short label for reporting."""

    matrix: np.ndarray
    label: str
    embedded: np.ndarray = field(init=False)  # real_embedding(matrix)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("target must be a square matrix")
        if not unitarity_defect(m, m.conj().T) <= UNITARY_TOL:
            raise ValueError(f"target '{self.label}' is not unitary to {UNITARY_TOL:g}")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "embedded", _readonly(real_embedding(m)))


def propagate(sys, grid):
    """(generators, prefixes): the slice generators X_l = real_embedding(i H_l),
    formed by linearity as X_0 + sum_k eps_kl X_k over sys.embedded_terms, and
    the real-embedded prefix propagators P_0 = I, ..., P_L = U(T, 0), later
    slices applied on the left; shapes (L, 2N, 2N) and (L+1, 2N, 2N).

    The steps exp(-dt X_l), real forms of exp(-i dt H_l), come from one batched
    scaled Taylor exponential (linalg.step_exponentials, which raises ValueError
    for a slice too long to exponentiate). The products run as a blocked scan
    over [I, step_1, ..., step_L], padded with identities to whole chains of
    SCAN_BLOCK entries: the chains are multiplied out side by side, a doubling
    scan over their totals gives each chain the product of all chains before
    it, and one batched pass applies that from the right. That is about 2L
    matrix products where a doubling scan over the whole sequence takes
    L log2 L (Blelloch, CMU-CS-90-190, 1990).
    """
    x = sys.embedded_terms
    n_slices, m = grid.n_slices, x.shape[-1]
    gens = x[0] + (grid.amplitudes.T @ x[1:].reshape(len(x) - 1, -1)).reshape(n_slices, m, m)
    chains = n_slices // SCAN_BLOCK + 1  # ceil((L + 1) / SCAN_BLOCK)
    scan = np.empty((chains, SCAN_BLOCK, m, m))
    flat = scan.reshape(-1, m, m)
    flat[0] = flat[n_slices + 1:] = np.eye(m)
    flat[1:n_slices + 1] = step_exponentials(gens, grid.dt)
    for j in range(1, SCAN_BLOCK):
        scan[:, j] = scan[:, j] @ scan[:, j - 1]
    totals = scan[:-1, -1].copy()  # chain c's total; the last chain's is not needed
    d = 1
    while d < len(totals):
        totals[d:] = totals[d:] @ totals[:-d]
        d *= 2
    tail = scan[1:].reshape(chains - 1, SCAN_BLOCK * m, m)
    tail[:] = tail @ totals
    return gens, flat[:n_slices + 1]


def unitarity_defect(p, p_dagger):
    """max|P^dagger P - I| over a matrix P, or over every matrix of a stack, given its adjoint
    (for a stack, contiguous: a transposed view would leave BLAS's fast path)."""
    return float(np.abs(p_dagger @ p - np.eye(p.shape[-1])).max())
