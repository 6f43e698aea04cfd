"""Controlled quantum system, piecewise-constant control grids and the
propagation of the evolution operator across time slices, with the input rules
every module checks (finiteness, positivity, counts, Hermiticity) and the dense
kernels propagation runs on: the real embedding of complex matrices and the
batched matrix exponential of the slice steps.

Matrices are dense, complex128 or their float64 embeddings, and stay small
(N <= 64), so there is no sparse or structured path anywhere.
"""

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance for the unitarity of a GateTarget, one given matrix. A run's prefixes
# have their own bound, scaled with the run (gradient.DRIFT_K).
UNITARY_TOL = 1e-10

# Chain length of the blocked prefix scan in propagate.
SCAN_BLOCK = 8


def _readonly(a):
    a.flags.writeable = False
    return a


def is_integer(value):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def require_finite(value, name):
    """Raise ValueError unless value is a finite number and not a bool."""
    if isinstance(value, (bool, np.bool_)):  # a bool compares as 0 or 1
        raise ValueError(f"{name} must be a number, not a bool")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")


def require_positive_finite(value, name, zero_ok=False):
    """require_finite, then raise ValueError unless value > 0 (value >= 0 if zero_ok)."""
    require_finite(value, name)
    if value < 0 or (value == 0 and not zero_ok):
        raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'positive'}")


def require_count(value, name, most=None):
    """Raise ValueError unless value is an integer, not a bool, from 1 to most (if given)."""
    if not (is_integer(value) and 1 <= value and (most is None or value <= most)):
        bound = "" if most is None else f" of at most {most}"
        raise ValueError(f"{name} must be a positive integer{bound}, got {value!r}")


# Relative tolerance of the Hermiticity guard, scaled by the largest entry
# magnitude of the matrix under test. A violation means a construction bug
# upstream, so it is an error rather than a silent symmetrization.
HERMITIAN_RTOL = 1e-10

# Taylor degree of the scaled exponential. After scaling to an inf-norm below 1
# the truncated tail is at most sum_{j>18} 1/j! ~ 8.6e-18, under double
# rounding. The polynomial runs Paterson-Stockmeyer style in blocks of
# PS_BLOCK powers: 3 products form A^2..A^4, 4 more run Horner's rule in A^4.
TAYLOR_DEGREE = 18
PS_BLOCK = 4
# Row i holds the coefficients 1/j! of A^j for j = PS_BLOCK*i + (0..PS_BLOCK-1).
_PS_COEFFS = np.array([[1 / math.factorial(j) if j <= TAYLOR_DEGREE else 0.0
                        for j in range(start, start + PS_BLOCK)]
                       for start in range(0, TAYLOR_DEGREE + 1, PS_BLOCK)])

# Each squaring can double the rounding error of a step, so s squarings leave about 2**s * eps.
# The cap bounds that at 2**16 * 2.2e-16 = 1.5e-11 per step, within the step's share,
# dt * ||X||_inf >= 2**(s-1), of gradient.DRIFT_K's prefix bound. A longer step is refused.
MAX_SQUARINGS = 16


def require_hermitian(a, name="matrix"):
    """Raise ValueError unless a is finite and Hermitian to HERMITIAN_RTOL."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    scale = np.abs(a).max()
    bound = HERMITIAN_RTOL * (scale if scale > 0 else 1.0)
    dev = np.abs(a - a.conj().T).max()
    if not dev <= bound:
        raise ValueError(
            f"{name} is not Hermitian: max|A - A^dagger| = {dev:.3e} exceeds {bound:.3e}"
        )


def real_embedding(z):
    """Real 2N x 2N form [[Re z, -Im z], [Im z, Re z]] of z, or of each
    matrix of a stack.

    The embedding maps sums to sums, products to products and conjugate
    transposes to transposes, so a chain of complex products can run as
    real matmuls, which numpy does several times faster for small matrices.
    """
    n = z.shape[-1]
    out = np.empty(z.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = out[..., n:, n:] = np.real(z)
    out[..., n:, :n] = np.imag(z)
    out[..., :n, n:] = -out[..., n:, :n]
    return out


def squarings(rows, dt):
    """The fewest squarings s that bring dt * ||X||_inf below 1 for every
    matrix X of a stack, given rows, the row sums of each |X|.

    Raises ValueError when that norm is not finite or needs more than
    MAX_SQUARINGS. The norm is formed in Python floats, which overflow to
    inf without a warning.
    """
    norm = float(dt) * float(rows.max())
    if not norm < 2.0**MAX_SQUARINGS:
        raise ValueError(f"slice step too long for the exponential: largest dt*||X||_inf = "
                         f"{norm:.3e} needs more than {MAX_SQUARINGS} squarings; "
                         f"use more slices, a shorter T or smaller amplitudes")
    return max(0, math.frexp(norm)[1])


def step_exponentials(x, dt):
    """(exp(-dt * X) for each matrix X of a stack x, row sums of each |X|),
    by scaling and squaring.

    The stack is scaled by 2**-s (s from squarings), its degree-18 Taylor
    polynomial is evaluated in 7 batched products, and the result is
    squared s times (Moler & Van Loan, SIAM Rev. 45, 2003). For the real
    embedding X of i H, with H Hermitian, this is the real embedding of
    the step propagator exp(-i dt H).
    """
    # Every row sum in one product. The norm is submultiplicative, so it bounds
    # the Taylor tail; for the antisymmetric generators it equals the 1-norm.
    m = x.shape[-1]
    rows = (np.abs(x).reshape(-1, m) @ np.ones(m)).reshape(x.shape[:-1])
    s = squarings(rows, dt)
    powers = np.empty((PS_BLOCK,) + x.shape)  # I, A, A^2, A^3
    powers[0] = np.eye(m)
    np.multiply(x, -dt / 2.0**s, out=powers[1])
    for j in range(2, PS_BLOCK):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    a_block = powers[-1] @ powers[1]  # A^PS_BLOCK
    blocks = (_PS_COEFFS @ powers.reshape(PS_BLOCK, -1)).reshape((-1,) + x.shape)
    # Horner's rule accumulates into the blocks; a spent power takes each product.
    out, spare = blocks[-1], powers[2]
    for block in blocks[-2::-1]:
        block += np.matmul(out, a_block, out=spare)
        out = block
    for _ in range(s):
        np.matmul(out, out, out=spare)
        out, spare = spare, out
    return out, rows


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
    """(generators, prefixes, rows): the slice generators X_l = real_embedding(i H_l),
    formed by linearity as X_0 + sum_k eps_kl X_k over sys.embedded_terms, the real-embedded
    prefix propagators P_0 = I, ..., P_L = U(T, 0), later slices applied on the left, and the
    row sums of each |X_l|; shapes (L, 2N, 2N), (L+1, 2N, 2N) and (L, 2N).

    The steps exp(-dt X_l), real forms of exp(-i dt H_l), come from one batched
    scaled Taylor exponential (step_exponentials, which raises ValueError
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
    flat[1:n_slices + 1], rows = step_exponentials(gens, grid.dt)
    for j in range(1, SCAN_BLOCK):
        scan[:, j] = scan[:, j] @ scan[:, j - 1]
    totals = scan[:-1, -1].copy()  # chain c's total; the last chain's is not needed
    d = 1
    while d < len(totals):
        totals[d:] = totals[d:] @ totals[:-d]
        d *= 2
    tail = scan[1:].reshape(chains - 1, SCAN_BLOCK * m, m)
    tail[:] = tail @ totals
    return gens, flat[:n_slices + 1], rows


def unitarity_defect(p, p_dagger):
    """max|P^dagger P - I| over a matrix P, or over every matrix of a stack, given its adjoint
    (for a stack, contiguous: a transposed view would leave BLAS's fast path)."""
    return float(np.abs(p_dagger @ p - np.eye(p.shape[-1])).max())
