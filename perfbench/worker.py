"""One workload in a fresh interpreter: set-up, timed passes, output checks.

run.py starts this script; it prints one JSON object as its last line.

    python3 perfbench/worker.py setup WORKLOAD [--quick]
    python3 perfbench/worker.py run WORKLOAD --seed N --seconds S --trace 0|1 [--quick]

A pass produces the workload's whole comparison table, as a user waits
for it. The seed only shuffles the order of the specs in a pass.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy

import speed
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCES = HERE / "references.json"

# Kernel calls timed right after a set-up, to rescale it (see speed.py).
SETUP_KERNEL_CALLS = 40

# The eight cases of BENCH_CASES in tests/conftest.py: gate, T, L, order,
# s_max. They run as that file's bench_runs fixture runs them.
ACCEPTANCE_CASES = (
    ("cnot", 5.0, 150, 0, 5000.0),
    ("cnot", 5.0, 150, 1, 5000.0),
    ("swap", 5.0, 300, 0, 2000.0),
    ("swap", 5.0, 300, 1, 5000.0),
    ("cnot", 10.0, 150, 0, 2000.0),
    ("cnot", 10.0, 150, 1, 5000.0),
    ("cnot", 0.5, 300, 0, 5000.0),
    ("cnot", 0.5, 300, 1, 5000.0),
)

_CLI_SPANS = {"cli.main", "experiments.load_experiment", "experiments.compare_methods",
              "experiments.execute_experiment", "flow.integrate_flow",
              "experiments.write_comparison", "gradient.flow_evaluation",
              "system.propagate"}

# Every workload has this spec; --quick runs only it.
QUICK_SPEC = "cnot T=5 L=150 order=1"

# config: the file run through `qoc run` (None: the cases above, run
# through execute_experiment). uses: the spans a traced pass must produce.
WORKLOADS = {
    "table1": {
        "config": ROOT / "configs" / "table1.cfg",
        "flags": [],
        "uses": _CLI_SPANS,
    },
    "acceptance_checked": {
        "config": None,
        "uses": {"experiments.execute_experiment", "flow.integrate_flow",
                 "experiments.write_comparison", "gradient.flow_evaluation",
                 "system.propagate", "system.unitarity_defect"},
    },
    "horizon_scan": {
        "config": HERE / "horizon_scan.cfg",
        "flags": ["--scan-cap", "1200"],
        "uses": _CLI_SPANS,
    },
}


def label(gate, t_final, n_slices, order):
    return f"{gate} T={t_final:g} L={n_slices} order={order}"


def spec_label(spec):
    return label(spec.gate, spec.t_final, spec.n_slices, spec.order)


def row_label(row):
    return label(row["gate"], row["T"], row["L"], row["order"])


def config_blocks(text):
    """The spec blocks of a key: value config, as text, in file order."""
    blocks, current = [], []
    for line in text.splitlines() + [""]:
        if line.strip():
            current.append(line)
        elif current:
            if any(raw.split("#", 1)[0].strip() for raw in current):
                blocks.append("\n".join(current))
            current = []
    return blocks


@dataclass
class Prepared:
    """A workload ready to run: its specs and a function making one table."""

    name: str
    specs: list
    run_pass: Callable[[], int | None]
    stem: str
    table_path: Path


def set_up(name, seed, quick):
    """Import the program, build its inputs and warm it up.

    Returns (Prepared, seconds); the time is one unscaled setup_s sample.
    """
    started = time.perf_counter()
    import gateflow
    import gateflow.cli
    from gateflow import (ExperimentSpec, FlowConfig, build_initial_grid,
                          build_two_spin_benchmark, flow_evaluation, gate_target)

    w = WORKLOADS[name]
    if w["config"] is not None:
        specs = gateflow.load_experiment(w["config"])
        blocks = config_blocks(w["config"].read_text())
        if len(blocks) != len(specs):
            raise RuntimeError(f"{w['config']}: {len(blocks)} blocks for {len(specs)} specs")
        items = list(zip(specs, blocks))
    else:
        items = [(ExperimentSpec(gate=gate, t_final=t_final, n_slices=n_slices, order=order,
                                 cfg=FlowConfig(s_max=s_max, check_unitarity=True,
                                                track_descent=True)), None)
                 for gate, t_final, n_slices, order, s_max in ACCEPTANCE_CASES]
    if quick:
        items = [item for item in items if spec_label(item[0]) == QUICK_SPEC]
    random.Random(seed).shuffle(items)
    specs = [spec for spec, _ in items]

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}{'-quick' if quick else ''}"
    csv_path, json_path = OUT / f"{stem}.csv", OUT / f"{stem}.json"
    if w["config"] is not None:
        config_path = OUT / f"{stem}.cfg"
        config_path.write_text("\n\n".join(block for _, block in items) + "\n")
        argv = ["run", str(config_path), "--out", str(csv_path), "--json", str(json_path),
                *w["flags"]]

        def run_pass():
            with contextlib.redirect_stdout(io.StringIO()):
                return gateflow.cli.main(argv)
    else:
        def run_pass():
            records = [gateflow.experiments.execute_experiment(spec, scan_cap=spec.cfg.s_max)[0]
                       for spec in specs]
            gateflow.experiments.write_comparison(records, csv_path, json_path)
            return None

    first = specs[0]
    flow_evaluation(build_two_spin_benchmark(), build_initial_grid(first),
                    gate_target(first.gate), first.order)
    return Prepared(name, specs, run_pass, stem, json_path), time.perf_counter() - started


def check_pass(prepared, exit_code, references):
    """Compare one pass's table with the committed references.

    Returns (rows, failures) where failures maps a spec label to what was
    wrong with its row.
    """
    refs = references["workloads"][prepared.name]
    rtol = references["final_J_rtol"]
    rows = json.loads(prepared.table_path.read_text())
    by_label = {row_label(row): row for row in rows}
    failures = {}
    for spec in prepared.specs:
        key, ref = spec_label(spec), refs[spec_label(spec)]
        row = by_label.get(key)
        if row is None:
            failures[key] = "missing from the table"
        elif row["S_reported"] != ref["S_reported"] or row["stop_reason"] != ref["stop_reason"]:
            failures[key] = (f"S_reported {row['S_reported']} ({row['stop_reason']}), "
                             f"expected {ref['S_reported']} ({ref['stop_reason']})")
        elif row["stop_reason"] == "j_reached" and not row["final_J"] <= spec.cfg.j_stop:
            failures[key] = f"final_J {row['final_J']} above j_stop {spec.cfg.j_stop}"
        elif abs(row["final_J"] - ref["final_J"]) > rtol * abs(ref["final_J"]):
            failures[key] = f"final_J {row['final_J']!r}, expected {ref['final_J']!r}"
    if exit_code is not None:
        expected = 0 if all(refs[spec_label(s)]["stop_reason"] == "j_reached"
                            for s in prepared.specs) else 2
        if exit_code != expected:
            for spec in prepared.specs:
                failures.setdefault(spec_label(spec), f"exit code {exit_code}, expected {expected}")
    return rows, failures


@dataclass
class Pass:
    wall_s: float
    ref_s: float | None
    rows: list
    failures: dict

    def rhs_evals(self):
        return sum(row["rhs_evals"] for row in self.rows)


def timed_pass(prepared, references, run_pass=None, rescaled=False):
    """Run and check one pass; a pass that raises fails all its specs.

    wall_s is the pass's wall time. With rescaled, a SpeedProbe runs
    during the pass; its probes are taken out of wall_s, and ref_s is
    wall_s at the reference speed.
    """
    probe = speed.SpeedProbe()
    started = time.perf_counter()
    raised = False
    try:
        with probe if rescaled else contextlib.nullcontext():
            exit_code = (run_pass or prepared.run_pass)()
    except Exception:
        traceback.print_exc()
        raised = True
    wall = time.perf_counter() - started - probe.probe_s
    ref_s = None
    if rescaled:
        kernel_s, calls = probe.kernel_s, probe.calls()
        if not calls:  # a pass shorter than one probe interval
            calls = speed.CALLS_PER_PROBE
            kernel_s = speed.kernel_seconds(calls)
        ref_s = speed.rescale(wall, kernel_s, calls)
    if raised:
        return Pass(wall, ref_s, [], {spec_label(s): "raised" for s in prepared.specs})
    try:
        rows, failures = check_pass(prepared, exit_code, references)
    except (OSError, ValueError, KeyError) as exc:
        return Pass(wall, ref_s, [], {spec_label(s): f"unreadable table: {exc!r}"
                                      for s in prepared.specs})
    return Pass(wall, ref_s, rows, failures)


def measure_untraced(prepared, references, seconds):
    """Passes for about `seconds`: (passes, metrics, the same unscaled).

    Another pass starts while it would, taking as long as the last one,
    still end within `seconds`; there is always at least one.
    """
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(timed_pass(prepared, references, rescaled=True))
        if time.perf_counter() - started + passes[-1].wall_s > seconds:
            break
    evals = passes[-1].rhs_evals()
    wall = statistics.median(p.ref_s for p in passes)
    raw = statistics.median(p.wall_s for p in passes)
    return (passes, {"wall_s": wall, "evals_per_s": evals / wall, "rhs_evals": evals},
            {"wall_s": raw, "evals_per_s": evals / raw})


def measure_traced(prepared, references):
    """Per-layer figures of a traced pass, and what tracing costs.

    The spans come from a pass without the speed probe, because a probe
    inside a span would count as that span's self time. The cost of
    tracing compares an untraced and a traced pass, both probed, so that
    it is measured at the reference speed.
    """
    tr = tracing.Tracer()
    with tr:
        traced = timed_pass(prepared, references,
                            lambda: tr.span("bench.pass", prepared.run_pass))
    metrics = tracing.summary(tr, "bench.pass", traced.rhs_evals(), len(traced.rows))
    problems = tracing.self_check(
        tr, WORKLOADS[prepared.name]["uses"],
        checks_unitarity=any(spec.cfg.check_unitarity for spec in prepared.specs))
    (OUT / f"{prepared.stem}-spans.json").write_text(json.dumps(
        {"fields": ["name", "parent", "start_s", "end_s"], "spans": tr.spans}))
    untraced = timed_pass(prepared, references, rescaled=True)
    with tracing.Tracer():
        probed = timed_pass(prepared, references, rescaled=True)
    metrics["trace.overhead_ratio"] = probed.ref_s / untraced.ref_s - 1
    return [traced, untraced, probed], metrics, problems


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its config and returns None
        blas = {}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    prepared, setup_raw = set_up(args.workload, args.seed, args.quick)
    setup_s = speed.rescale(setup_raw, speed.kernel_seconds(SETUP_KERNEL_CALLS),
                            SETUP_KERNEL_CALLS)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "unscaled_setup_s": setup_raw}))
        return 0
    references = json.loads(REFERENCES.read_text())
    if args.trace:
        passes, metrics, problems = measure_traced(prepared, references)
        unscaled = {}
    else:
        passes, metrics, unscaled = measure_untraced(prepared, references, args.seconds)
        problems = []
    failures = [f"pass {i}: {key}: {why}" for i, p in enumerate(passes)
                for key, why in sorted(p.failures.items())]
    print(json.dumps({
        "setup_s": setup_s,
        "unscaled_setup_s": setup_raw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "metrics": metrics,
        "unscaled": unscaled,
        "attempted": sum(len(prepared.specs) for _ in passes),
        "failed": sum(len(p.failures) for p in passes),
        "failures": failures,
        "trace_problems": problems,
        "passes": [{"wall_s": p.wall_s, "ref_s": p.ref_s, "rows": p.rows} for p in passes],
        "specs": [spec_label(s) for s in prepared.specs],
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
