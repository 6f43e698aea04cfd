"""Benchmark experiment descriptions, the runner, and the comparison
table writer behind the command-line interface."""

import csv
import functools
import json
import math
import os
import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .flow import FlowConfig, integrate_flow
from .gradient import EXACT, normalize_order
from .system import ControlGrid, is_integer, require_positive_finite
from .twospin import build_two_spin_benchmark, gate_target

DEFAULT_SCAN_CAP = 5000.0
DEFAULT_GRANULARITY = 100.0
# Largest slice count a spec may ask for, about 33x the largest in any
# shipped config; each propagation holds O(L) 2N x 2N blocks.
MAX_SLICES = 10_000

# Table header, one column per RunRecord field in field order.
CSV_COLUMNS = ("gate", "T", "L", "order", "S_reported", "final_J",
               "rhs_evals", "wall_time_s", "stop_reason")

SEED_MODES = ("zero", "sine_seed")


def _default_cfg():
    return FlowConfig(s_max=DEFAULT_SCAN_CAP)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: gate, time grid, correction order and limits.

    initial_controls defaults by gate: zero for cnot, sine_seed for swap
    (the all-zero grid is a stationary point of the swap flow, so it needs
    the seed to move at all).
    """

    gate: str
    t_final: float
    n_slices: int
    order: int | str = 1  # integer order or "exact"
    s_granularity: float = DEFAULT_GRANULARITY
    cfg: FlowConfig = field(default_factory=_default_cfg)
    initial_controls: str | None = None
    sine_amplitude: float = 1e-5

    def __post_init__(self):
        object.__setattr__(self, "gate", gate_target(self.gate).label)
        require_positive_finite(self.t_final, "T")
        if not (is_integer(self.n_slices) and 1 <= self.n_slices <= MAX_SLICES):
            raise ValueError(f"L must be a positive integer of at most {MAX_SLICES}, "
                             f"got {self.n_slices!r}")
        object.__setattr__(self, "n_slices", int(self.n_slices))
        object.__setattr__(self, "order", normalize_order(self.order))
        require_positive_finite(self.s_granularity, "s_granularity")
        if self.initial_controls is None:
            object.__setattr__(self, "initial_controls",
                               "zero" if self.gate == "cnot" else "sine_seed")
        if self.initial_controls not in SEED_MODES:
            raise ValueError(
                f"initial_controls must be one of: {', '.join(SEED_MODES)}")
        require_positive_finite(self.sine_amplitude, "sine_amplitude")
        # Plain floats, so that the CSV and JSON writers see a float.
        for name in ("t_final", "s_granularity", "sine_amplitude"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class RunRecord:
    """What one run reports: the ExperimentSpec fields echoed back plus
    the outcome fields."""

    gate: str
    t_final: float
    n_slices: int
    order: int | str
    s_reported: float
    final_j: float
    rhs_evals: int
    wall_time_s: float
    stop_reason: str


def build_initial_grid(spec):
    """The starting control grid for a spec: all zeros, or both controls
    seeded with amplitude * sin(t / T) sampled at slice midpoints."""
    n_slices = spec.n_slices
    if spec.initial_controls == "zero":
        amps = np.zeros((2, n_slices))
    else:
        dt = spec.t_final / n_slices
        t_mid = (np.arange(1, n_slices + 1) - 0.5) * dt
        amps = np.tile(spec.sine_amplitude * np.sin(t_mid / spec.t_final), (2, 1))
    return ControlGrid(t_final=spec.t_final, amplitudes=amps)


def _effective_horizon(spec, scan_cap):
    """s_max pushed out by whole s_granularity steps while within scan_cap."""
    cap = float(scan_cap)
    if not math.isfinite(cap):
        raise ValueError(f"scan cap must be finite, got {cap}")
    s_max, step = spec.cfg.s_max, spec.s_granularity
    if not math.isfinite(max(cap, s_max) / step):
        raise ValueError(f"s_granularity {step!r} is too small for horizon {max(cap, s_max):g}")
    return s_max + max(0, math.floor((cap - s_max) / step)) * step


def execute_experiment(spec, scan_cap=DEFAULT_SCAN_CAP):
    """Run one spec and return (RunRecord, FlowResult).

    The horizon scan quotes the smallest horizon multiple that converges:
    s_max is pushed out by whole s_granularity steps while it stays within
    scan_cap, and the flow is integrated once to that effective horizon.
    The adaptive integrator uses the horizon only to clip the step that
    would cross it, so any shorter multiple would follow the same
    trajectory up to its own end. S_reported is s_stop rounded up to the
    granularity.
    """
    cfg = replace(spec.cfg, s_max=_effective_horizon(spec, scan_cap))
    started = time.perf_counter()
    result = integrate_flow(build_two_spin_benchmark(), build_initial_grid(spec),
                            gate_target(spec.gate), spec.order, cfg)
    wall = time.perf_counter() - started
    s_reported = math.ceil(result.s_stop / spec.s_granularity) * spec.s_granularity
    record = RunRecord(gate=spec.gate, t_final=spec.t_final, n_slices=spec.n_slices,
                       order=spec.order, s_reported=float(s_reported),
                       final_j=float(result.j_trace[-1, 1]), rhs_evals=result.rhs_evals,
                       wall_time_s=wall, stop_reason=result.stop_reason)
    return record, result


def _output_paths(out_path, json_path):
    """(CSV path, JSON mirror path), checked to be two different writable
    files in existing directories, neither of them a directory itself."""
    out_path = Path(out_path)
    json_path = out_path.with_suffix(".json") if json_path is None else Path(json_path)
    for path in (out_path, json_path):
        if not path.parent.is_dir():
            raise ValueError(f"{path}: {path.parent} is not an existing directory")
        if path.is_dir():
            raise ValueError(f"{path}: is a directory, not a file")
        # Rewriting a file needs its own write permission; creating one, its directory's.
        target = path if path.exists() else path.parent
        if not os.access(target, os.W_OK):
            raise ValueError(f"{path}: {target} is not writable")
    if json_path.resolve() == out_path.resolve():
        raise ValueError(f"{json_path}: the JSON mirror would overwrite the CSV output")
    return out_path, json_path


def write_comparison(records, out_path, json_path=None):
    """Write records as CSV plus a JSON mirror (out path with .json suffix
    unless given explicitly; a mirror path naming the CSV file is an error).

    Both carry the same rows; the CSV writes floats as %.17g, which
    round-trips them exactly.
    """
    rows = [dict(zip(CSV_COLUMNS, astuple(r))) for r in records]
    out_path, json_path = _output_paths(out_path, json_path)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v
                             for v in row.values()])
    with open(json_path, "w") as fh:
        json.dump(rows, fh, indent=2)
        fh.write("\n")


def compare_methods(specs, out_path, json_path=None, parallel=1, scan_cap=DEFAULT_SCAN_CAP):
    """Run every spec and write the comparison table.

    Every spec's horizon and the two output paths (see _output_paths) are
    checked before any run starts. Specs may run in parallel (they share
    no state) on at most min(parallel, number of specs, CPU count) worker
    processes; rows are written in spec order regardless of completion
    order. Returns the records.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    for spec in specs:
        _effective_horizon(spec, scan_cap)
    _output_paths(out_path, json_path)
    run = functools.partial(execute_experiment, scan_cap=scan_cap)
    workers = min(parallel, len(specs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run, specs))
    else:
        outcomes = [run(spec) for spec in specs]
    records = [record for record, _ in outcomes]
    write_comparison(records, out_path, json_path)
    return records


def _real(value):
    if isinstance(value, bool):
        raise TypeError("booleans are not numbers")
    return float(value)


def _count(value):
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError("not an integer")
    return int(value)


def _order(value):
    return EXACT if value == EXACT else _count(value)


# Config keys: the ExperimentSpec or FlowConfig field each one sets and the
# parser of its raw value (a string, or a JSON scalar). Any other key is
# rejected so typos fail loudly instead of silently running defaults.
_KEYS = {
    "gate": ("gate", str), "initial_controls": ("initial_controls", str),
    "T": ("t_final", _real), "L": ("n_slices", _count), "order": ("order", _order),
    "max_rhs_evals": ("max_rhs_evals", _count),
    **{key: (key, _real) for key in ("s_granularity", "sine_amplitude", "s_max", "abs_tol",
                                     "rel_tol", "j_stop", "h_init", "h_min")},
}
_FLOW_FIELDS = {f.name for f in fields(FlowConfig)}


def parse_config_value(key, value, where):
    """Parse one raw value of a known config key; errors name where."""
    parse = _KEYS[key][1]
    try:
        parsed = parse(value)
    except (TypeError, ValueError, OverflowError):
        expected = f"an integer or '{EXACT}'" if parse is _order else "a number"
        raise ValueError(f"{where}: {key} must be {expected}, got {value!r}") from None
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise ValueError(f"{where}: {key} must be finite, got {value!r}")
    return parsed


def _spec_from_mapping(entries, where):
    """Build one ExperimentSpec from {key: (value, where)} entries; keys
    left out take the dataclass defaults."""
    spec_kwargs, cfg_kwargs = {}, {}
    for key, (raw, item_where) in entries.items():
        if key not in _KEYS:
            raise ValueError(f"{item_where}: unknown key '{key}'")
        name = _KEYS[key][0]
        kwargs = cfg_kwargs if name in _FLOW_FIELDS else spec_kwargs
        kwargs[name] = parse_config_value(key, raw, item_where)
    for required in ("gate", "T", "L"):
        if required not in entries:
            raise ValueError(f"{where}: missing required key '{required}'")
    try:
        return ExperimentSpec(cfg=replace(_default_cfg(), **cfg_kwargs), **spec_kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _unique_keys(pairs):
    """json object_pairs_hook: the object as a dict, unless a key repeats."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key '{key}'")
        obj[key] = value
    return obj


def load_experiment(path):
    """Parse a config file into a list of ExperimentSpec.

    The native format is blocks of 'key: value' lines separated by blank
    lines, with '#' starting a comment; a comment-only line does not end a
    block. A file whose first non-space character is '[' or '{' is read as
    JSON instead: a list of objects with the same keys, or a single object
    for one spec. A file of either format that holds no experiment is an
    error.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        data = (json.loads(text, object_pairs_hook=_unique_keys)
                if text.lstrip()[:1] in ("[", "{") else None)
    except (ValueError, RecursionError) as exc:  # bad UTF-8; bad, too deep or key-repeating JSON
        raise ValueError(f"{path.name}: {exc}") from None
    specs = []
    if data is not None:
        for i, item in enumerate(data if isinstance(data, list) else [data]):
            where = f"{path.name} entry {i + 1}"
            if not isinstance(item, dict):
                raise ValueError(f"{where}: expected an object of key/value pairs")
            entries = {k: (v, where) for k, v in item.items()}
            specs.append(_spec_from_mapping(entries, where))
    else:
        block, block_line = {}, None
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:  # only a blank line ends a block; comment lines do not
                if block and not raw.strip():
                    specs.append(_spec_from_mapping(block, f"{path.name} line {block_line}"))
                    block, block_line = {}, None
                continue
            key, sep, value = line.partition(":")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise ValueError(f"{path.name} line {lineno}: expected 'key: value'")
            if key in block:
                raise ValueError(f"{path.name} line {lineno}: duplicate key '{key}'")
            if block_line is None:
                block_line = lineno
            block[key] = (value, f"{path.name} line {lineno}")
        if block:
            specs.append(_spec_from_mapping(block, f"{path.name} line {block_line}"))
    if not specs:
        raise ValueError(f"{path.name}: no experiments found")
    return specs
