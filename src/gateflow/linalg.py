"""Dense complex matrix kernels: the conjugate transpose, the Hermiticity
check and the real embedding of complex matrices.

Everything here is a pure function of numpy arrays. Matrices are dense
complex128 and stay small (N <= 64), so there is no sparse or structured
path anywhere.
"""

import numpy as np

# Relative tolerance of the Hermiticity guard, scaled by the largest entry
# magnitude of the matrix under test. A violation means a construction bug
# upstream, so it is an error rather than a silent symmetrization.
HERMITIAN_RTOL = 1e-10


def dagger(a):
    """Conjugate transpose."""
    return np.asarray(a).conj().T


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


def from_real_embedding(e):
    """The complex matrix (or stack) whose real_embedding is e."""
    n = e.shape[-1] // 2
    return e[..., :n, :n] + 1j * e[..., n:, :n]
