"""gateflow benchmark: time to a comparison table, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the metrics of one workload and, as its last line, one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1 they
are the per-layer ones of a traced pass. Leaving out --workload runs every
workload, and leaving out --trace runs both kinds. --quick runs one short
spec per workload, for the benchmark's own tests.

Every measurement runs in a fresh interpreter (worker.py), one after
another, so set-up time includes importing gateflow and peak memory is
the workload's own. End-to-end times are given at a reference machine
speed (speed.py). Results, with the environment, go to .perfbench_out/.
See README.md in this directory for the metrics and what should move them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table1", "acceptance_checked", "horizon_scan")

# setup_s is the median over this many fresh interpreters.
SETUP_SAMPLES = 5

# The matrices are 4 x 4: threads in BLAS would only add noise.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# One measurement, worker processes included, must end within this.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "rhs_evals": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
}

PER_LAYER = {
    "system.propagate.calls": "count",
    "system.propagate.self_s": "s",
    "system.propagate.ms_p50": "ms",
    "system.propagate.ms_p99": "ms",
    "system.self_share": "ratio",
    "system.unitarity_defect.calls": "count",
    "system.unitarity_defect.self_s": "s",
    "gradient.flow_evaluation.calls": "count",
    "gradient.self_s": "s",
    "gradient.flow_evaluation.ms_p50": "ms",
    "gradient.flow_evaluation.ms_p99": "ms",
    "gradient.self_share": "ratio",
    "flow.integrate_flow.calls": "count",
    "flow.self_s": "s",
    "flow.self_share": "ratio",
    "flow.accepted_steps": "count",
    "flow.rejected_steps": "count",
    "flow.accept_ratio": "ratio",
    "experiments.execute_experiment.calls": "count",
    "experiments.self_s": "s",
    "experiments.integrations_per_run": "count",
    "experiments.useful_evals_ratio": "ratio",
    "experiments.load_experiment.s": "s",
    "experiments.write_comparison.s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def call_worker(args, deadline):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran out of time") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure(workload, trace, args):
    """One workload at one trace setting.

    Returns (metrics, the unscaled end-to-end times, attempted, failed,
    problems); problems lists failed checks, of the outputs or the tracer.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    quick = ["--quick"] if args.quick else []
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(call_worker(["setup", workload, "--seed", str(args.seed), *quick],
                                      deadline))
    res = call_worker(["run", workload, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace), *quick], deadline)
    metrics, unscaled = dict(res["metrics"]), dict(res["unscaled"])
    if not trace:
        setups.append(res)
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        unscaled["setup_s"] = statistics.median(s["unscaled_setup_s"] for s in setups)
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
        metrics["passed_ratio"] = (res["attempted"] - res["failed"]) / res["attempted"]
    problems = res["failures"] + res["trace_problems"]
    OUT.mkdir(exist_ok=True)
    record = dict(res, workload=workload, seed=args.seed, seconds=args.seconds, trace=trace,
                  quick=args.quick, reported=metrics, unscaled=unscaled,
                  setup_samples=[[s["setup_s"], s["unscaled_setup_s"]] for s in setups],
                  repetitions={"passes": len(res["passes"]), "setup_samples": len(setups)})
    stem = f"{workload}-seed{args.seed}-trace{trace}{'-quick' if args.quick else ''}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    units = PER_LAYER if trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(sorted(missing))}")
    return ({name: metrics[name] for name in units}, unscaled, res["attempted"], res["failed"],
            problems)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "gateflow" / "__init__.py", ROOT / "configs" / "table1.cfg"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a gateflow checkout",
                  file=sys.stderr)
            return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.trace is None else (args.trace,)
    single = len(workloads) * len(traces) == 1

    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            for trace in traces:
                metrics, unscaled, attempted, failed, problems = measure(workload, trace, args)
                units = PER_LAYER if trace else END_TO_END
                for name, value in metrics.items():
                    note = f"  (unscaled {unscaled[name]:.6g})" if name in unscaled else ""
                    print(f"{workload:<20} {name:<38} {value:>14.6g} {units[name]}{note}")
                for problem in problems:
                    print(f"{workload}: FAILED {problem}", file=sys.stderr)
                out["correct"] = out["correct"] and not problems
                out["attempted"] += attempted
                out["failed"] += failed
                for name, value in metrics.items():
                    key = name if single else f"{workload}.{name}"
                    out["metrics"][key] = {"value": value, "unit": units[name]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
