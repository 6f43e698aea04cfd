"""Gradient-flow synthesis of quantum gate controls, with commutator-series
corrected descent directions and a benchmark harness comparing correction
orders."""

from .experiments import (CSV_COLUMNS, MAX_SLICES, S_GRANULARITY, ExperimentSpec, RunRecord,
                          build_initial_grid, compare_methods, execute_experiment,
                          load_experiment, write_comparison)
from .flow import FlowConfig, FlowResult, dormand_prince_step, integrate_flow
from .gradient import (EXACT, MAX_SERIES_ORDER, RhsEvaluation, descent_rate, flow_evaluation,
                       normalize_order)
from .linalg import require_hermitian
from .system import (UNITARY_TOL, ControlGrid, GateTarget, QuantumSystem, propagate,
                     unitarity_defect)
from .twospin import GATE_TARGETS, build_two_spin_benchmark, gate_target

__version__ = "0.1.0"
