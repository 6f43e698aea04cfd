"""The two-spin benchmark system and its gate targets, benchmark experiment
descriptions, the runner, and the comparison table writer behind the
command-line interface."""

import contextlib
import csv
import functools
import json
import math
import os
import re
import signal
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .flow import FlowConfig, integrate_flow
from .gradient import EXACT, normalize_order
from .system import (ControlGrid, GateTarget, QuantumSystem, require_count, require_finite,
                     require_positive_finite)

# S_reported is the stopping flow time rounded up to a multiple of this.
S_GRANULARITY = 100.0
# Largest slice count a spec may ask for, about 33x the largest in any
# shipped config; each propagation holds O(L) 2N x 2N blocks.
MAX_SLICES = 10_000
# Largest config file read, about a thousand times the largest shipped one.
MAX_CONFIG_BYTES = 1 << 20

# Table header, one column per RunRecord field in field order.
CSV_COLUMNS = ("gate", "T", "L", "order", "S_reported", "final_J",
               "rhs_evals", "wall_time_s", "stop_reason")


# Spin-1/2 matrices scaled so that S_i = sigma_i / sqrt(2). The coupling
# and frequency constants below assume exactly this normalization.
SX = np.array([[0, 1], [1, 0]], dtype=complex) / np.sqrt(2)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex) / np.sqrt(2)
SZ = np.array([[1, 0], [0, -1]], dtype=complex) / np.sqrt(2)

I2 = np.eye(2, dtype=complex)


def build_two_spin_benchmark():
    """Two coupled spins with an x control on each spin.

    Its drift has spin frequencies 20 and 30 and couplings 110 (xx), 120 (yy), 130 (zz).
    Basis ordering is |q1 q2> with the first spin as the leading tensor
    factor, so the row/column index is 2*q1 + q2.
    """
    h0 = (
        20.0 * np.kron(SZ, I2)
        + 30.0 * np.kron(I2, SZ)
        + 110.0 * np.kron(SX, SX)
        + 120.0 * np.kron(SY, SY)
        + 130.0 * np.kron(SZ, SZ)
    )
    controls = np.stack([np.kron(SX, I2), np.kron(I2, SX)])
    return QuantumSystem(h0=h0, controls=controls)


def _phased_permutation(perm):
    """exp(i pi/4) times the identity with its rows reordered as perm.

    The traceless Hamiltonians can only generate unitaries of determinant
    one; the bare CNOT and SWAP have determinant -1, and the global phase
    lines that up.
    """
    return np.exp(1j * np.pi / 4) * np.eye(4, dtype=complex)[list(perm)]


# The benchmark targets by label, built once and read-only.
GATE_TARGETS = MappingProxyType({
    label: GateTarget(matrix=_phased_permutation(perm), label=label)
    for label, perm in (("cnot", (0, 1, 3, 2)), ("swap", (0, 2, 1, 3)))})


def gate_target(name):
    """Look up a benchmark target by label ('cnot' or 'swap', any case)."""
    try:
        return GATE_TARGETS[str(name).lower()]
    except KeyError:
        raise ValueError(f"gate must be {' or '.join(GATE_TARGETS)}, got {name!r}") from None


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: gate, time grid, correction order, limits and
    the amplitude of the start grid (see build_initial_grid).

    sine_amplitude must be finite and at least 0, which is the all-zero
    grid. It defaults by gate: 0 for cnot, 1e-5 for swap (the all-zero grid
    is a stationary point of the swap flow, so it needs the seed to move
    at all).
    """

    gate: str
    t_final: float
    n_slices: int
    order: int | str = 1  # integer order or "exact"
    cfg: FlowConfig = field(default_factory=FlowConfig)
    sine_amplitude: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "gate", gate_target(self.gate).label)
        require_positive_finite(self.t_final, "T")
        require_count(self.n_slices, "L", most=MAX_SLICES)
        object.__setattr__(self, "n_slices", int(self.n_slices))
        object.__setattr__(self, "order", normalize_order(self.order))
        if self.sine_amplitude is None:
            object.__setattr__(self, "sine_amplitude", 0.0 if self.gate == "cnot" else 1e-5)
        require_positive_finite(self.sine_amplitude, "sine_amplitude", zero_ok=True)
        # Plain floats, so that the CSV and JSON writers see a float.
        for name in ("t_final", "sine_amplitude"):
            object.__setattr__(self, name, float(getattr(self, name)))


class RunRecord(NamedTuple):
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


def run_label(run):
    """'gate T=.. L=.. order=..' for an ExperimentSpec or a RunRecord."""
    return f"{run.gate} T={run.t_final:g} L={run.n_slices} order={run.order}"


def build_initial_grid(spec):
    """The starting control grid for a spec: both controls set to
    sine_amplitude * sin(t / T) sampled at slice midpoints, so an amplitude
    of 0 gives the all-zero grid."""
    t_mid = (np.arange(1, spec.n_slices + 1) - 0.5) * (spec.t_final / spec.n_slices)
    amps = np.tile(spec.sine_amplitude * np.sin(t_mid / spec.t_final), (2, 1))
    return ControlGrid(t_final=spec.t_final, amplitudes=amps)


def execute_experiment(spec, scan_cap=0.0):
    """Run one spec and return (RunRecord, FlowResult).

    The flow runs once to the horizon max(s_max, scan_cap), where scan_cap
    must be finite. S_reported is s_stop rounded up to a multiple of
    S_GRANULARITY. A ValueError from the run comes back naming the spec.
    """
    require_finite(scan_cap, "scan cap")
    cfg = replace(spec.cfg, s_max=max(spec.cfg.s_max, float(scan_cap)))
    started = time.perf_counter()
    try:
        result = integrate_flow(build_two_spin_benchmark(), build_initial_grid(spec),
                                gate_target(spec.gate), spec.order, cfg)
    except ValueError as exc:
        raise ValueError(f"{run_label(spec)}: {exc}") from exc
    wall = time.perf_counter() - started
    s_reported = math.ceil(result.s_stop / S_GRANULARITY) * S_GRANULARITY
    record = RunRecord(gate=spec.gate, t_final=spec.t_final, n_slices=spec.n_slices,
                       order=spec.order, s_reported=float(s_reported), rhs_evals=result.rhs_evals,
                       final_j=float(result.steps["J"][result.steps["accepted"]][-1]),
                       wall_time_s=wall, stop_reason=result.stop_reason)
    return record, result


def output_paths(out_path, json_path=None):
    """The given paths as a list of Paths: the CSV, then the JSON mirror if
    one is named. Each must be a writable file in an existing directory,
    not a directory itself, and the mirror must not be the CSV file."""
    paths = [Path(path) for path in (out_path, json_path) if path is not None]
    for path in paths:
        if not path.parent.is_dir():
            raise ValueError(f"{path}: {path.parent} is not an existing directory")
        if path.is_dir():
            raise ValueError(f"{path}: is a directory, not a file")
        # Rewriting a file needs its own write permission; creating one, its directory's.
        target = path if path.exists() else path.parent
        if not os.access(target, os.W_OK):
            raise ValueError(f"{path}: {target} is not writable")
    if len(paths) == 2 and (paths[1].resolve() == paths[0].resolve() or (
            paths[1].exists() and paths[0].exists() and paths[1].samefile(paths[0]))):
        raise ValueError(f"{paths[1]}: the JSON mirror would overwrite the CSV output")
    return paths


@contextlib.contextmanager
def _writing(path, **open_kwargs):
    try:
        with open(path, "w", **open_kwargs) as fh:
            yield fh
    except OSError as exc:
        raise OSError(f"{path}: {exc.strerror or exc}") from exc


def write_comparison(records, out_path, json_path=None):
    """Write records as CSV, plus a JSON mirror of the same rows if
    json_path names one (see output_paths for the path checks).

    The CSV writes floats as %.17g, which round-trips them exactly. An
    OSError writing either file names its path.
    """
    out_path, *mirror = output_paths(out_path, json_path)
    with _writing(out_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in r])
    for path in mirror:
        with _writing(path) as fh:
            json.dump([dict(zip(CSV_COLUMNS, r)) for r in records], fh, indent=2)
            fh.write("\n")


def compare_methods(specs, out_path, json_path=None, parallel=1, scan_cap=0.0):
    """Run every spec, write the table (see write_comparison) and return the records.

    The scan cap (see execute_experiment) and the output paths (see
    output_paths) are checked before any run starts. Specs may run in
    parallel (they share no state) on at most min(parallel, number of
    specs, usable CPUs) worker processes, which ignore SIGINT; rows keep
    spec order. A failed spec, an interrupt or a lost worker (ValueError
    'a worker process ended abruptly', naming no spec: a lost worker fails
    every pending spec alike) ends the run at once: queued specs are
    cancelled, the run's own workers ended and no table is written. Other
    child processes of the caller keep running.
    """
    require_count(parallel, "parallel")
    require_finite(scan_cap, "scan cap")
    output_paths(out_path, json_path)
    run = functools.partial(execute_experiment, scan_cap=scan_cap)
    # The CPUs this process may run on: an affinity mask can allow fewer than cpu_count.
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(parallel, len(specs), usable)
    if workers > 1:
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import active_children

        # The caller's own child processes, which a failed run leaves running.
        others = set(active_children())
        # Workers ignore SIGINT, so only this process acts on it.
        with ProcessPoolExecutor(max_workers=workers, initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            try:
                futures = [pool.submit(run, spec) for spec in specs]
                wait(futures, return_when=FIRST_EXCEPTION)
                for future in futures:
                    # Only a done future is read, so a failure never waits on a running spec.
                    error = future.exception() if future.done() else None
                    if isinstance(error, BrokenProcessPool):
                        raise ValueError("a worker process ended abruptly")
                    if error is not None:
                        raise error
                outcomes = [future.result() for future in futures]
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                for worker in set(active_children()) - others:
                    worker.terminate()
                raise
    else:
        outcomes = [run(spec) for spec in specs]
    records = [record for record, _ in outcomes]
    write_comparison(records, out_path, json_path)
    return records


def _count(value):
    """A whole number: '150', '150.0' and '1e3' count, '2.5' does not."""
    if value.lstrip("+-").isdigit():
        return int(value)
    number = float(value)
    if not number.is_integer():
        raise ValueError("not an integer")
    return int(number)


def _order(value):
    return EXACT if value == EXACT else _count(value)


# Config keys: the ExperimentSpec or FlowConfig field each one sets and the
# parser of its raw value string. Any other key, tol, j_stop and h_init
# included, is rejected: typos fail loudly, and every row of a table stops at
# FlowConfig's one target under its one step control.
_KEYS = {
    "gate": ("gate", str), "T": ("t_final", float), "L": ("n_slices", _count),
    "order": ("order", _order), "max_rhs_evals": ("max_rhs_evals", _count),
    "sine_amplitude": ("sine_amplitude", float), "s_max": ("s_max", float),
}
_FLOW_FIELDS = {f.name for f in fields(FlowConfig)}


def _spec_from_mapping(entries, where):
    """Build one ExperimentSpec from {key: (raw value string, where)}
    entries; keys left out take the dataclass defaults. Errors name the
    line of the key at fault, or where for a missing key."""
    spec_kwargs, cfg_kwargs = {}, {}
    for key, (raw, item_where) in entries.items():
        if key not in _KEYS:
            raise ValueError(f"{item_where}: unknown key '{key}'")
        name, parse = _KEYS[key]
        try:
            value = parse(raw)
        except ValueError:
            expected = {_order: f"an integer or '{EXACT}'", _count: "a whole number"}
            raise ValueError(f"{item_where}: {key} must be "
                             f"{expected.get(parse, 'a number')}, got {raw!r}") from None
        (cfg_kwargs if name in _FLOW_FIELDS else spec_kwargs)[name] = value
    for required in ("gate", "T", "L"):
        if required not in entries:
            raise ValueError(f"{where}: missing required key '{required}'")
    try:
        return ExperimentSpec(cfg=FlowConfig(**cfg_kwargs), **spec_kwargs)
    except ValueError as exc:  # the message starts with the failing value's key
        key = str(exc).split(" ", 1)[0]
        raise ValueError(f"{entries[key][1] if key in entries else where}: {exc}") from None


def load_experiment(path):
    """Parse a config file into a list of ExperimentSpec.

    The format is blocks of 'key: value' lines separated by blank lines,
    with '#' starting a comment; a comment-only line does not end a block.
    Lines end only at '\n', '\r\n' or '\r', so line numbers match an editor's.
    The file is read as UTF-8 with any leading byte-order mark dropped. A
    file larger than MAX_CONFIG_BYTES, one that starts like JSON ('[' or
    '{'), and one that holds no experiment are errors that name the file.
    """
    path = Path(path)
    with path.open("rb") as fh:
        data = fh.read(MAX_CONFIG_BYTES + 1)
    if len(data) > MAX_CONFIG_BYTES:
        raise ValueError(f"{path.name}: config is larger than {MAX_CONFIG_BYTES >> 20} MiB")
    try:
        text = data.decode("utf-8-sig")
    except ValueError as exc:
        raise ValueError(f"{path.name}: {exc}") from None
    if text.lstrip()[:1] in ("[", "{"):
        raise ValueError(f"{path.name}: JSON configs are not supported; use 'key: value' blocks")
    specs, block = [], {}
    # The appended blank line ends the last block like every other.
    for lineno, raw in enumerate(re.split(r"\r\n?|\n", text) + [""], 1):
        line = raw.split("#", 1)[0].strip()
        if not line:  # only a blank line ends a block; comment lines do not
            if block and not raw.strip():
                specs.append(_spec_from_mapping(block, next(iter(block.values()))[1]))
                block = {}
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path.name} line {lineno}: expected 'key: value'")
        if key in block:
            raise ValueError(f"{path.name} line {lineno}: duplicate key '{key}'")
        block[key] = (value, f"{path.name} line {lineno}")
    if not specs:
        raise ValueError(f"{path.name}: no experiments found")
    return specs
