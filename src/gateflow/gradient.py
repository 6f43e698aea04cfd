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
from .system import UNITARY_TOL, PropagationCache, is_integer, propagate, unitarity_defect

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
    if is_integer(order):
        if 0 <= order <= MAX_SERIES_ORDER:
            return int(order)
        raise ValueError(f"correction order must be in 0..{MAX_SERIES_ORDER}, got {order}")
    raise ValueError(f"correction order must be an integer or '{EXACT}', got {order!r}")


@dataclass
class RhsEvaluation:
    """What one propagation pass yields: the flow velocities deps/ds (one row
    per control), the objective, the optional unitarity defect, and the pass
    data that descent_rate reads afterwards instead of propagating again."""

    values: np.ndarray  # shape (n, L)
    objective: float
    unitarity_defect: float | None = None
    order: int | str | None = None
    cache: PropagationCache | None = None
    w: np.ndarray | None = None       # (L, 2N, 2N), real_embedding(W_l)
    probes: np.ndarray | None = None  # (n, 2N, 2N), real_embedding(-i H_k)
    dt: float | None = None


def phi1(z):
    """(e^z - 1) / z with the removable singularity at z = 0 filled in.

    expm1 keeps the numerator's digits for small |z|, where e^z - 1 would
    lose them to cancellation.
    """
    z = np.asarray(z, dtype=complex)
    zero = z == 0
    safe = np.where(zero, 1.0, z)
    return np.where(zero, 1.0, np.expm1(safe) / safe)


def _velocities(w_avg, probes):
    # Tr[real_embedding(Y) real_embedding(-i H_k)] = 2 Im Tr[Y H_k]; 2 * 2N = 4N.
    return np.einsum("lab,kba->kl", w_avg, probes) / (2 * probes.shape[-1])


def exact_velocities(ev):
    """The exact slice-average velocities, from an evaluation's pass data
    and the eigensystems of its slice Hamiltonians."""
    lam, vecs = np.linalg.eigh(ev.cache.hamiltonians)
    v = real_embedding(vecs)
    phases = phi1(1j * ev.dt * (lam[:, None, :] - lam[:, :, None]))
    w_eig = from_real_embedding(v.transpose(0, 2, 1) @ ev.w @ v) * phases
    return _velocities(v @ real_embedding(w_eig) @ v.transpose(0, 2, 1), ev.probes)


def descent_rate(ev):
    """Estimated dJ/ds along ev.values, negative while they still descend:
    -dt times the exact velocities (ev.values at exact order) contracted with them."""
    exact = ev.values if ev.order == EXACT else exact_velocities(ev)
    return float(-ev.dt * np.sum(exact * ev.values))


def flow_evaluation(sys, grid, target, order=1, *, check_unitarity=False):
    """One propagation pass: flow velocities and the objective value.

    With A = target^dagger U(T), J = 1/2 - Re Tr(A) / (2N), and entry
    (k, l) of the velocities is Im Tr[W_l M_k^l] / (2N) with
    W_l = P_{l-1} A P_{l-1}^dagger and M_k^l the slice average of control k
    (series-truncated or exact, per order). The averages are never formed
    per control; each slice's average operator is moved onto W_l instead,
    giving one W~_l per slice that is then contracted with every control
    at once:

    - series: Tr[W ad_X^j(H_k)] = Tr[(-ad_X)^j(W) H_k] with X = i H_l, so
      W~_l = sum_j dt^j/(j+1)! (-ad_X)^j(W_l);
    - exact: in the eigenbasis V_l of H_l the average multiplies entry
      (a, b) by phi1(i (lam_a - lam_b) dt), so
      W~_l = V_l ((V_l^dagger W_l V_l) o phi1(i (lam_b - lam_a) dt)) V_l^dagger.

    The prefixes, the slice Hamiltonians and their generators X all come
    from the one propagation pass, and the products run on real
    embeddings. Only the exact average diagonalises the slice Hamiltonians.
    With check_unitarity the prefixes are verified against UNITARY_TOL and
    the measured defect is reported; descent_rate reads the rest later.
    """
    order = normalize_order(order)
    if target.matrix.shape != sys.h0.shape:
        raise ValueError(f"shape mismatch: {target.matrix.shape} vs {sys.h0.shape}")
    cache = propagate(sys, grid)
    defect = None
    if check_unitarity:
        defect = unitarity_defect(cache.prefixes)
        if defect > UNITARY_TOL:
            raise RuntimeError(
                f"propagator prefixes drifted off the unitary group: "
                f"max|P^dagger P - I| = {defect:.3e}"
            )
    a = dagger(target.matrix) @ cache.total
    p = cache.embedded[:-1]
    ev = RhsEvaluation(None, 0.5 - np.trace(a).real / (2 * sys.dim), defect, order=order,
                       cache=cache, w=p @ real_embedding(a) @ p.transpose(0, 2, 1),
                       probes=real_embedding(-1j * sys.controls), dt=grid.dt)
    if order == EXACT:
        ev.values = exact_velocities(ev)
    else:
        x = cache.generators
        cur = w_avg = ev.w
        for j in range(1, order + 1):
            cur = cur @ x - x @ cur
            w_avg = w_avg + (ev.dt**j / math.factorial(j + 1)) * cur
        ev.values = _velocities(w_avg, ev.probes)
    return ev
