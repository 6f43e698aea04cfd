"""Dense matrix kernels: the Hermiticity check, the real embedding of
complex matrices and the batched matrix exponential of the slice steps.

Everything here is a pure function of numpy arrays. Matrices are dense,
complex128 or their float64 embeddings, and stay small (N <= 64), so there
is no sparse or structured path anywhere.
"""

import math

import numpy as np

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
