"""Gradient-flow synthesis of quantum gate controls, with commutator-series
corrected descent directions and a benchmark harness comparing correction
orders."""

from .experiments import (CSV_COLUMNS, GATE_TARGETS, MAX_SLICES, S_GRANULARITY, ExperimentSpec,
                          RunRecord, build_initial_grid, build_two_spin_benchmark,
                          compare_methods, execute_experiment, gate_target, load_experiment,
                          write_comparison)
from .flow import FlowConfig, FlowResult, dormand_prince_step, integrate_flow
from .gradient import (EXACT, MAX_SERIES_ORDER, RhsEvaluation, descent_rate, flow_evaluation,
                       normalize_order)
from .system import (UNITARY_TOL, ControlGrid, GateTarget, QuantumSystem, propagate,
                     require_hermitian, unitarity_defect)

__version__ = "0.1.0"
