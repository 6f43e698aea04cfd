"""Gradient-flow synthesis of quantum gate controls, with commutator-series
corrected descent directions and a benchmark harness comparing correction
orders."""

from .experiments import (CSV_COLUMNS, DEFAULT_GRANULARITY, DEFAULT_SCAN_CAP,
                          MAX_SLICES, ExperimentSpec, RunRecord, build_initial_grid,
                          compare_methods, execute_experiment, load_experiment,
                          write_comparison)
from .flow import FlowConfig, FlowResult, dormand_prince_step, integrate_flow
from .gradient import (EXACT, MAX_SERIES_ORDER, RhsEvaluation, flow_evaluation,
                       normalize_order, phi1)
from .linalg import HERMITIAN_RTOL, dagger, require_hermitian
from .system import (UNITARY_TOL, ControlGrid, GateTarget, PropagationCache,
                     QuantumSystem, propagate, slice_hamiltonians, unitarity_defect)
from .twospin import GATE_TARGETS, I2, SX, SY, SZ, build_two_spin_benchmark, gate_target

__version__ = "0.1.0"
