"""Objective and flow right-hand sides for the control gradient flow.

The flow moves the piecewise-constant amplitudes along the descent
direction of J = 1/2 - Re Tr(target^dagger U(T,0)) / (2N). The exact
descent direction involves the average of U^dagger(tau) H_k U(tau) over
each slice; the series variants replace that average with its commutator
expansion truncated at a chosen order, which is cheaper per evaluation
but only accurate to O((dt ||H||)^(m+1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, from_real_embedding, real_embedding
from .system import UNITARY_TOL, propagate, slice_hamiltonians, unitarity_defect

# Truncation orders past this are a sign of misuse: the factorial
# denominators push the extra terms below rounding while the nested
# commutators keep costing matrix products.
MAX_SERIES_ORDER = 8

# Marker for the exact slice-average mode of the right-hand side.
EXACT = "exact"


def normalize_order(order):
    """Validate a correction order: an integer in 0..MAX_SERIES_ORDER or 'exact'."""
    if order == EXACT:
        return EXACT
    if isinstance(order, (int, np.integer)) and not isinstance(order, bool):
        if 0 <= order <= MAX_SERIES_ORDER:
            return int(order)
        raise ValueError(f"correction order must be in 0..{MAX_SERIES_ORDER}, got {order}")
    raise ValueError(f"correction order must be an integer or '{EXACT}', got {order!r}")


@dataclass
class RhsEvaluation:
    """Everything one propagation pass yields: the flow velocities deps/ds
    (one row per control), the objective, and the optional diagnostics the
    integrator can ask for."""

    values: np.ndarray  # shape (n, L)
    objective: float
    unitarity_defect: float | None = None
    exact_rhs: np.ndarray | None = None


def objective(u_final, target):
    """J = 1/2 - Re Tr(target^dagger u_final) / (2N).

    Zero when the evolution hits the target exactly, one when it lands on
    the negated target; in [0, 1] for unitary input.
    """
    if target.matrix.shape != u_final.shape:
        raise ValueError(f"shape mismatch: {target.matrix.shape} vs {u_final.shape}")
    n = u_final.shape[0]
    return 0.5 - np.trace(dagger(target.matrix) @ u_final).real / (2 * n)


def phi1(z):
    """(e^z - 1) / z with the removable singularity filled in.

    Below |z| = 1e-4 the closed form loses digits to cancellation, so a
    short Taylor series takes over there.
    """
    z = np.asarray(z, dtype=complex)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    closed = (np.exp(safe) - 1.0) / safe
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return np.where(small, series, closed)


def flow_evaluation(sys, grid, target, order=1, *, check_unitarity=False,
                    exact_reference=False):
    """One propagation pass: flow velocities and the objective value.

    Entry (k, l) of the velocities is Im Tr[W_l M_k^l] / (2N) with
    W_l = P_{l-1} (target^dagger P_L) P_{l-1}^dagger and M_k^l the slice
    average of control k (series-truncated or exact, per order). The
    averages are never formed per control; each slice's average operator
    is moved onto W_l instead, giving one W~_l per slice that is then
    contracted with every control at once:

    - series: Tr[W ad_X^j(H_k)] = Tr[(-ad_X)^j(W) H_k] with X = i H_l, so
      W~_l = sum_j dt^j/(j+1)! (-ad_X)^j(W_l);
    - exact: in the eigenbasis V_l of H_l the average multiplies entry
      (a, b) by phi1(i (lam_a - lam_b) dt), so
      W~_l = V_l ((V_l^dagger W_l V_l) o phi1(i (lam_b - lam_a) dt)) V_l^dagger.

    All the products run on the real embeddings of the propagation cache.
    With check_unitarity the prefixes are verified against UNITARY_TOL and
    the measured defect is reported; with exact_reference the exact-average
    velocities come along for descent diagnostics, reusing the same
    eigensystems.
    """
    order = normalize_order(order)
    cache = propagate(sys, grid)
    defect = None
    if check_unitarity:
        defect = unitarity_defect(cache.prefixes)
        if defect > UNITARY_TOL:
            raise RuntimeError(
                f"propagator prefixes drifted off the unitary group: "
                f"max|P^dagger P - I| = {defect:.3e}"
            )
    dim, dt = sys.dim, grid.dt
    j_value = objective(cache.total, target)
    a = dagger(target.matrix) @ cache.total
    p = cache.embedded[:-1]
    w = p @ real_embedding(a) @ p.transpose(0, 2, 1)
    # Tr[real_embedding(Y) real_embedding(-i H_k)] = 2 Im Tr[Y H_k].
    probes = real_embedding(-1j * sys.controls)

    def velocities(w_avg):
        return np.einsum("lab,kba->kl", w_avg, probes) / (4 * dim)

    exact_values = None
    if order == EXACT or exact_reference:
        v = real_embedding(cache.eigvecs)
        vt = v.transpose(0, 2, 1)
        lam = cache.eigvals
        phases = phi1(1j * dt * (lam[:, None, :] - lam[:, :, None]))
        w_eig = from_real_embedding(vt @ w @ v) * phases
        exact_values = velocities(v @ real_embedding(w_eig) @ vt)
    if order == EXACT:
        values = exact_values
    else:
        x = real_embedding(1j * slice_hamiltonians(sys, grid))
        cur = w_avg = w
        for j in range(1, order + 1):
            cur = cur @ x - x @ cur
            w_avg = w_avg + (dt**j / math.factorial(j + 1)) * cur
        values = velocities(w_avg)
    return RhsEvaluation(values=values, objective=j_value, unitarity_defect=defect,
                         exact_rhs=exact_values if exact_reference else None)


def descent_rate(grid, exact_rhs, followed_rhs):
    """Estimated dJ/ds: the objective gradient (-dt times the exact
    velocities) contracted with the velocities actually followed.
    Negative as long as the truncated direction still descends."""
    return float(-grid.dt * np.sum(exact_rhs * followed_rhs))
