"""Objective and flow right-hand sides for the control gradient flow.

The flow moves the piecewise-constant amplitudes along the descent
direction of J = 1/2 - Re Tr(target^dagger U(T,0)) / (2N). The exact
descent direction involves the average of U^dagger(tau) H_k U(tau) over
each slice; the series variants replace that average with its commutator
expansion truncated at a chosen order, which is cheaper per evaluation
but only accurate to O((dt ||H||)^(m+1)).
"""

import math
from typing import NamedTuple

import numpy as np

from .system import (ControlGrid, QuantumSystem, is_integer, propagate, real_embedding,
                     unitarity_defect)

# Truncation orders past this are a sign of misuse: the factorial
# denominators push the extra terms below rounding while the nested
# commutators keep costing matrix products.
MAX_SERIES_ORDER = 8

# Marker for the exact slice-average mode of the right-hand side.
EXACT = "exact"

# Prefix drift allowed under check_unitarity, in units of eps * (2N + sum_l dt ||X_l||_inf).
# Rounding carries the prefixes off the unitary group about in proportion to that sum, and
# the 2N term covers the gram's own rounding on short, weak runs.
DRIFT_K = 16


def normalize_order(order):
    """Validate a correction order: an integer in 0..MAX_SERIES_ORDER or 'exact'."""
    if order == EXACT:
        return EXACT
    if is_integer(order):
        if 0 <= order <= MAX_SERIES_ORDER:
            return int(order)
        raise ValueError(f"order must be in 0..{MAX_SERIES_ORDER}, got {order}")
    raise ValueError(f"order must be an integer or '{EXACT}', got {order!r}")


class RhsEvaluation(NamedTuple):
    """One propagation pass's velocities deps/ds (one row per control), objective and optional
    unitarity defect, with the inputs descent_rate reads later instead of propagating again.
    A plain immutable record: nothing here is checked or derived."""

    values: np.ndarray  # shape (n, L)
    objective: float
    unitarity_defect: float | None = None
    w: np.ndarray | None = None  # (L, 2N, 2N), real_embedding(W_l)
    generators: np.ndarray | None = None  # (L, 2N, 2N), X_l = real_embedding(i H_l)
    sys: QuantumSystem | None = None
    grid: ControlGrid | None = None


def exact_weights(theta):
    """phi1(i theta) = (e^(i theta) - 1) / (i theta) for real theta, in closed form."""
    return np.exp(0.5j * theta) * np.sinc(theta / (2 * np.pi))


def _slice_velocities(order, sys, grid, w, generators):
    """Entry (k, l): Im Tr[W~_l H_k] / (2N), W~_l the order's slice average of W_l."""
    if order == EXACT:
        # Re H_l = X_l[N:, :N], Im H_l = -X_l[:N, :N]: a real system's H_l stay
        # real, so its eigh takes the real-symmetric route.
        n = sys.dim
        h = generators[:, n:, :n]
        if sys.embedded_terms[:, :n, :n].any():
            h = h - 1j * generators[:, :n, :n]
        lam, vecs = np.linalg.eigh(h)
        v = real_embedding(vecs)
        vt = np.ascontiguousarray(v.transpose(0, 2, 1))
        c = vt @ w @ v  # real_embedding(C), C = V^dagger W V
        phi = exact_weights(grid.dt * (lam[:, None, :] - lam[:, :, None]))
        w = v @ real_embedding((c[:, :n, :n] + 1j * c[:, n:, :n]) * phi) @ vt
    else:
        cur = w
        for j in range(1, order + 1):
            cur = cur @ generators - generators @ cur
            w = w + (grid.dt**j / math.factorial(j + 1)) * cur
    # Tr[real_embedding(Y) real_embedding(i H_k)] = -2 Im Tr[Y H_k]; 2 * 2N = 4N.
    controls = sys.embedded_terms[1:]
    m = controls.shape[-1]
    return (controls.transpose(0, 2, 1).reshape(-1, m * m) @ w.reshape(-1, m * m).T) / (-2 * m)


def descent_rate(ev):
    """Estimated dJ/ds along ev.values, negative while they still descend:
    -dt times the exact velocities contracted with them."""
    exact = _slice_velocities(EXACT, ev.sys, ev.grid, ev.w, ev.generators)
    return float(-ev.grid.dt * np.sum(exact * ev.values))


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
      (a, b) by exact_weights(theta) with theta = (lam_b - lam_a) dt, so
      W~_l = V_l ((V_l^dagger W_l V_l) o exact_weights(theta)) V_l^dagger.

    All of it runs on the real embeddings of the target, of the pass's prefixes
    and generators and of the system's terms; the embedding doubles a trace's
    real part, so J = 1/2 - Tr(A) / (4N) on the embedded A. The exact average
    diagonalises H_l as read off the generators, real for a real system. With
    check_unitarity the prefixes' defect is reported, and a ValueError raised past
    DRIFT_K * eps * (2N + sum_l dt ||X_l||_inf); the record keeps only what descent_rate reads.
    """
    order = normalize_order(order)
    if target.matrix.shape != sys.h0.shape:
        raise ValueError(f"shape mismatch: {target.matrix.shape} vs {sys.h0.shape}")
    if len(grid.amplitudes) != len(sys.controls):
        raise ValueError(f"control count mismatch: {len(grid.amplitudes)} vs {len(sys.controls)}")
    generators, prefixes, rows = propagate(sys, grid)
    # One contiguous P^T, the embedded P^dagger, serves W and the unitarity check.
    pt = np.ascontiguousarray(prefixes.transpose(0, 2, 1))
    defect = unitarity_defect(prefixes, pt) if check_unitarity else None
    if check_unitarity:
        # ||X_l||_inf is X_l's largest row sum; numpy takes the max far faster over a (2N, L) copy.
        m = pt.shape[-1]
        bound = DRIFT_K * np.finfo(float).eps * (m + grid.dt * rows.T.copy().max(0).sum())
        if defect > bound:
            raise ValueError(f"propagator prefixes drifted off the unitary group: "
                             f"max|P^dagger P - I| = {defect:.3e} exceeds {bound:.3e}")
    a = target.embedded.T @ prefixes[-1]
    p = prefixes[:-1]
    pa = (p.reshape(-1, a.shape[0]) @ a).reshape(p.shape)  # P A as one (L 2N, 2N) product
    w = pa @ pt[:-1]
    values = _slice_velocities(order, sys, grid, w, generators)
    return RhsEvaluation(values, 0.5 - np.trace(a) / (4 * sys.dim), defect,
                         w=w, generators=generators, sys=sys, grid=grid)
