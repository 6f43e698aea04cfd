"""Adaptive Dormand-Prince integration of the control flow in the
artificial flow variable s."""

from dataclasses import dataclass

import numpy as np

from .gradient import flow_evaluation
from .system import ControlGrid, is_integer, require_positive_finite

# Dormand-Prince 5(4) tableau: stage matrix A and embedded error weights
# E = B - B_hat. The last row of A doubles as the fifth-order propagation
# weights B, so the seventh stage sits at the fifth-order solution and its
# evaluation is the first stage of the next step (FSAL). The flow is
# autonomous, so the stage nodes C are not needed.
DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

SAFETY = 0.9
MIN_SHRINK = 0.2
MAX_GROW = 5.0

STOP_J_REACHED = "j_reached"
STOP_HORIZON = "horizon"
STOP_UNDERFLOW = "step_underflow"
STOP_BUDGET = "eval_budget"


@dataclass
class FlowConfig:
    """Integration limits and tolerances for one flow run."""

    s_max: float
    abs_tol: float = 1e-4
    rel_tol: float = 1e-4
    j_stop: float = 1e-7
    h_init: float = 1.0
    h_min: float = 1e-12
    max_rhs_evals: int = 1_000_000
    check_unitarity: bool = False
    track_descent: bool = False

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "j_stop"):
            require_positive_finite(getattr(self, name), name)
        if not 0 < self.h_min < self.h_init < self.s_max:
            raise ValueError("step bounds must satisfy 0 < h_min < h_init < s_max")
        require_positive_finite(self.s_max, "s_max")
        if not (is_integer(self.max_rhs_evals) and self.max_rhs_evals >= 1):
            raise ValueError("max_rhs_evals must be a positive integer")


@dataclass
class FlowResult:
    """Outcome of one flow run.

    j_trace rows are (s, J) at s = 0 and at every accepted step; s_stop is
    where integration ended; descent_trace rows are (s, estimated dJ/ds)
    when descent tracking was on.
    """

    final_grid: ControlGrid
    j_trace: np.ndarray
    stop_reason: str
    s_stop: float
    rhs_evals: int
    accepted_steps: int
    rejected_steps: int
    max_unitarity_defect: float | None = None
    descent_trace: np.ndarray | None = None


def dormand_prince_step(f, y, h, k1):
    """One embedded step of dy/ds = f(y) from y with k1 = f(y): returns
    (y5, error vector, f(y5)); pass f(y5) back as k1 to chain steps
    without re-evaluating."""
    k = np.empty((7,) + y.shape)
    k[0] = k1
    for i in range(1, 6):
        k[i] = f(y + h * np.tensordot(DP_A[i], k[:i], axes=1))
    y5 = y + h * np.tensordot(DP_A[6], k[:6], axes=1)
    k[6] = f(y5)
    err = h * np.tensordot(DP_E, k, axes=1)
    return y5, err, k[6]


def integrate_flow(sys, grid0, target, order, cfg):
    """Flow the control grid along the chosen velocity field from s = 0
    until, in priority order, J <= j_stop, the horizon s_max, the
    evaluation budget or a step underflow stops it. A non-finite velocity
    raises ValueError naming its control and slice."""
    # When glibc frees an mmapped block above its mmap threshold, it raises
    # that threshold to the block's size and its trim threshold to twice that
    # (mallopt(3)): here 4 MB and 8 MB, so evaluations stop returning the heap
    # top to the OS for the next one to fault back in. Elsewhere this is just
    # one short-lived allocation.
    np.empty(1 << 22, np.uint8)
    evals, max_defect, ev = 0, 0.0, None

    def f(amplitudes):
        nonlocal evals, max_defect, ev
        ev = flow_evaluation(sys, grid0.with_amplitudes(amplitudes), target, order,
                             check_unitarity=cfg.check_unitarity,
                             track_descent=cfg.track_descent)
        bad = ~np.isfinite(ev.values)
        if bad.any():
            control, sl = np.argwhere(bad)[0]
            raise ValueError(f"flow right-hand side not finite at control {control}, "
                             f"slice {sl + 1}")
        evals += 1
        if cfg.check_unitarity:
            max_defect = max(max_defect, ev.unitarity_defect)
        return ev.values

    # Rows are (s, J, dJ/ds) of the last evaluation: the FSAL stage at y.
    y = grid0.amplitudes
    k1 = f(y)
    rows = [(0.0, ev.objective, ev.descent_rate)]
    s, h, n_acc, n_rej = 0.0, cfg.h_init, 0, 0
    reason = STOP_J_REACHED if ev.objective <= cfg.j_stop else None
    while reason is None:
        h = min(h, cfg.s_max - s)
        y_new, err, k_last = dormand_prince_step(f, y, h, k1)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.abs(err / scale).max())
        if err_norm <= 1.0:
            s += h
            y, k1 = y_new, k_last
            n_acc += 1
            rows.append((s, ev.objective, ev.descent_rate))
        else:
            n_rej += 1
        factor = SAFETY * err_norm ** -0.2 if err_norm > 0 else MAX_GROW
        h *= min(MAX_GROW, max(MIN_SHRINK, factor))
        # A rejected step leaves rows[-1], whose J is above j_stop.
        if rows[-1][1] <= cfg.j_stop:
            reason = STOP_J_REACHED
        elif cfg.s_max - s <= cfg.h_min:
            reason = STOP_HORIZON
        elif evals >= cfg.max_rhs_evals:
            reason = STOP_BUDGET
        elif h < cfg.h_min:
            reason = STOP_UNDERFLOW
    return FlowResult(
        final_grid=grid0.with_amplitudes(y),
        j_trace=np.array([(s, j) for s, j, _ in rows]),
        stop_reason=reason,
        s_stop=min(s, cfg.s_max),
        rhs_evals=evals,
        accepted_steps=n_acc,
        rejected_steps=n_rej,
        max_unitarity_defect=max_defect if cfg.check_unitarity else None,
        descent_trace=(np.array([(s, rate) for s, _, rate in rows])
                       if cfg.track_descent else None),
    )
