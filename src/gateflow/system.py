"""Controlled quantum system, piecewise-constant control grids and the
propagation of the evolution operator across time slices."""

from dataclasses import dataclass

import numpy as np

from .linalg import from_real_embedding, real_embedding, require_hermitian

# Tolerance for unitarity of propagator prefixes. Rounding in the
# eigendecomposition-based exponentials stays orders of magnitude below
# this even after a thousand slice products.
UNITARY_TOL = 1e-10


def _readonly(a):
    a.flags.writeable = False
    return a


def is_integer(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_positive_finite(value, name):
    """Raise ValueError unless 0 < value < inf."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be {'finite' if value > 0 else 'positive'}")


@dataclass(frozen=True, eq=False)
class QuantumSystem:
    """Drift Hamiltonian plus n control Hamiltonians, all N x N Hermitian.

    When every entry has zero imaginary part the matrices are stored real,
    so slice Hamiltonians and their eigensystems come out real and the
    batched eigh takes its cheaper real-symmetric route. Everything
    downstream is dtype-generic: real and complex systems run the same code.
    """

    h0: np.ndarray
    controls: np.ndarray  # shape (n, N, N)

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
        if not (h0.imag.any() or controls.imag.any()):
            h0, controls = h0.real.copy(), controls.real.copy()
        object.__setattr__(self, "h0", _readonly(h0))
        object.__setattr__(self, "controls", _readonly(controls))

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

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("target must be a square matrix")
        if not unitarity_defect(m) <= UNITARY_TOL:
            raise ValueError(f"target '{self.label}' is not unitary to {UNITARY_TOL:g}")
        object.__setattr__(self, "matrix", _readonly(m))


@dataclass(frozen=True, eq=False)
class PropagationCache:
    """Prefix propagators P_l = U(t_l, 0) in real-embedded form, together
    with the slice Hamiltonians and eigensystems that produced them (all
    reused by the gradient engine)."""

    hamiltonians: np.ndarray  # (L, N, N), slice_hamiltonians(sys, grid)
    eigvals: np.ndarray       # (L, N), eigenvalues of each slice Hamiltonian
    eigvecs: np.ndarray       # (L, 2N, 2N), real_embedding of the eigenvectors
    embedded: np.ndarray      # (L+1, 2N, 2N), real_embedding(P_l), embedded[0] = I

    @property
    def prefixes(self):
        """The complex prefixes P_0..P_L, shape (L+1, N, N)."""
        return from_real_embedding(self.embedded)

    @property
    def total(self):
        """U(T, 0)."""
        return from_real_embedding(self.embedded[-1])


def slice_hamiltonians(sys, grid):
    """All L slice Hamiltonians at once, shape (L, N, N)."""
    return sys.h0[None, :, :] + np.einsum("kl,kab->lab", grid.amplitudes, sys.controls)


def propagate(sys, grid):
    """All prefix propagators P_0..P_L, with later slices applied on the left.

    One batched eigendecomposition covers every slice (a real-symmetric one
    when the system is real); the slice Hamiltonians and eigensystems are
    kept in the cache because the gradient engine reuses them for the
    series and exact slice averages. The step propagators
    V e^{-i dt lam} V^dagger and their products are formed on real
    2N x 2N embeddings (see real_embedding), the products by a
    Hillis-Steele doubling scan over [I, step_1, ..., step_L]: the pass
    with offset d = 1, 2, 4, ... multiplies every entry l >= d by entry
    l - d from the right, after which entry l holds the product of
    entries max(0, l - 2d + 1)..l. Once 2d >= L every entry covers steps
    1..l, so ceil(log2 L) batched matmuls replace L sequential ones.
    """
    hams = slice_hamiltonians(sys, grid)
    lam, vecs = np.linalg.eigh(hams)
    v = real_embedding(vecs)
    phased = real_embedding(vecs * np.exp(-1j * grid.dt * lam)[:, None, :])
    scan = np.empty((grid.n_slices + 1,) + v.shape[1:])
    scan[0] = np.eye(v.shape[-1])
    np.matmul(phased, v.transpose(0, 2, 1), out=scan[1:])
    d = 1
    while d < grid.n_slices:
        scan[d:] = scan[d:] @ scan[:-d]
        d *= 2
    return PropagationCache(hamiltonians=hams, eigvals=lam, eigvecs=v, embedded=scan)


def unitarity_defect(p):
    """max|P^dagger P - I| over a matrix P, or over every matrix of a stack."""
    gram = np.swapaxes(p.conj(), -1, -2) @ p
    return float(np.abs(gram - np.eye(p.shape[-1])).max())
