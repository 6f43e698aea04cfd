"""Adaptive Dormand-Prince integration of the control flow in the
artificial flow variable s."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gradient import descent_rate, flow_evaluation
from .system import ControlGrid, require_count, require_positive_finite

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
# Step floor in units of s: a run stops on its horizon within H_MIN of s_max,
# and on a step underflow once the controller asks for a step below it.
H_MIN = 1e-12

STOP_J_REACHED = "j_reached"
STOP_HORIZON = "horizon"
STOP_UNDERFLOW = "step_underflow"
STOP_BUDGET = "eval_budget"


@dataclass(frozen=True)
class FlowConfig:
    """Integration limits and tolerances for one flow run; s_max is the horizon."""

    s_max: float = 5000.0
    tol: float = 1e-4
    j_stop: float = 1e-7
    h_init: float = 1.0
    max_rhs_evals: int = 1_000_000
    check_unitarity: bool = False
    track_descent: bool = False

    def __post_init__(self):
        for name in ("s_max", "tol", "j_stop", "h_init"):
            require_positive_finite(getattr(self, name), name)
        # An h_init at or past s_max is fine: the first step is clipped to the horizon.
        if self.h_init <= H_MIN:
            raise ValueError(f"h_init must be larger than {H_MIN:g}, got {self.h_init:g}")
        require_count(self.max_rhs_evals, "max_rhs_evals")


# One row per step attempt after row 0, the start point (h = err_norm = 0): s and J
# at the attempt's fifth-order point, the step h tried and its error norm, whether
# it was accepted, the evaluations so far, and the followed direction's dJ/ds
# (in a tracked run, at both ends of each accepted step that raised J; NaN elsewhere).
STEP_DTYPE = np.dtype([("s", float), ("h", float), ("err_norm", float), ("accepted", bool),
                       ("J", float), ("evals", np.int64), ("dJ_ds", float)])


class FlowResult(NamedTuple):
    """Outcome of one flow run: steps is its STEP_DTYPE record, whose
    accepted rows trace (s, J) and, when tracked, dJ/ds at both ends of each
    step that raised J; s_stop is where integration ended."""

    final_grid: ControlGrid
    steps: np.ndarray
    stop_reason: str
    s_stop: float
    max_unitarity_defect: float | None = None

    @property
    def rhs_evals(self):
        return int(self.steps["evals"][-1])

    @property
    def accepted_steps(self):
        return int(self.steps["accepted"][1:].sum())

    @property
    def rejected_steps(self):
        return len(self.steps) - 1 - self.accepted_steps


def dormand_prince_step(f, y, h, k1):
    """One embedded step of dy/ds = f(y) from y with k1 = f(y): returns
    (y5, error vector, f(y5)); pass f(y5) back as k1 to chain steps
    without re-evaluating."""
    k = np.empty((7,) + y.shape)
    k[0] = k1
    for i in range(1, 6):
        k[i] = f(y + h * (DP_A[i] @ k.reshape(7, -1)[:i]).reshape(y.shape))
    y5 = y + h * (DP_A[6] @ k.reshape(7, -1)[:6]).reshape(y.shape)
    k[6] = f(y5)
    err = h * (DP_E @ k.reshape(7, -1)).reshape(y.shape)
    return y5, err, k[6]


def integrate_flow(sys, grid0, target, order, cfg):
    """Flow the control grid along the chosen velocity field from s = 0
    until, in priority order, J <= j_stop, the horizon s_max, the
    evaluation budget or a step underflow stops it. A non-finite velocity
    raises ValueError naming its control and slice.

    Every run keeps the evaluation record of its last accepted point, and each
    step starts from it. A tracked run forms dJ/ds from the records at both ends
    of each accepted step that raises J; every other row's dJ_ds is NaN."""
    # When glibc frees an mmapped block above its mmap threshold, it raises
    # that threshold to the block's size and its trim threshold to twice that
    # (mallopt(3)): here 4 MB and 8 MB, so evaluations stop returning the heap
    # top to the OS for the next one to fault back in. Elsewhere this is just
    # one short-lived allocation.
    np.empty(1 << 22, np.uint8)
    evals, max_defect, ev = 0, 0.0, None

    def f(amplitudes):
        nonlocal evals, max_defect, ev
        ev = None  # free the last record's W_l before this pass allocates its own
        ev = flow_evaluation(sys, grid0.with_amplitudes(amplitudes), target, order,
                             check_unitarity=cfg.check_unitarity)
        bad = ~np.isfinite(ev.values)
        if bad.any():
            control, sl = np.argwhere(bad)[0]
            raise ValueError(f"flow right-hand side not finite at control {control}, "
                             f"slice {sl + 1}")
        evals += 1
        if cfg.check_unitarity:
            max_defect = max(max_defect, ev.unitarity_defect)
        return ev.values

    f(grid0.amplitudes)
    rows = [(0.0, 0.0, 0.0, True, ev.objective, evals, np.nan)]
    # The last accepted point's row and evaluation record: its grid, velocities and J
    # are the next step's start.
    s, h, start, last, reason = 0.0, cfg.h_init, 0, ev, None
    while reason is None:
        # Tested before every step, the first included. last is the last accepted
        # point: a rejected attempt cannot stop the run.
        if last.objective <= cfg.j_stop:
            reason = STOP_J_REACHED
        elif cfg.s_max - s <= H_MIN:
            reason = STOP_HORIZON
        elif evals >= cfg.max_rhs_evals:
            reason = STOP_BUDGET
        elif h < H_MIN:
            reason = STOP_UNDERFLOW
        else:
            h = min(h, cfg.s_max - s)
            y5, err, _ = dormand_prince_step(f, last.grid.amplitudes, h, last.values)
            # Not tol * (1 + ...), which rounds differently and so changes runs' bytes.
            scale = cfg.tol + cfg.tol * np.maximum(np.abs(last.grid.amplitudes), np.abs(y5))
            # A subnormal tol can overflow the ratio: inf rejects the step, as it should.
            with np.errstate(over="ignore"):
                err_norm = float(np.abs(err / scale).max())
            accepted = err_norm <= 1.0
            rises = cfg.track_descent and accepted and ev.objective > last.objective
            if rises and np.isnan(rows[start][-1]):
                rows[start] = rows[start][:-1] + (descent_rate(last),)
            rows.append((s + h, h, err_norm, accepted, ev.objective, evals,
                         descent_rate(ev) if rises else np.nan))
            if accepted:
                s, start, last = s + h, len(rows) - 1, ev
            factor = SAFETY * err_norm ** -0.2 if err_norm > 0 else MAX_GROW
            h *= min(MAX_GROW, max(MIN_SHRINK, factor))
    return FlowResult(final_grid=last.grid, steps=np.array(rows, STEP_DTYPE),
                      stop_reason=reason, s_stop=min(s, cfg.s_max),
                      max_unitarity_defect=max_defect if cfg.check_unitarity else None)
