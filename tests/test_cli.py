"""Command-line interface: what `qoc` adds to the library. That is its
exit codes, one `error:` line with nothing written, usage errors, the guard
against overwriting the config, signals and lost workers, unwritable
stdout and tables, and removed keys and flags. The input and output-path
rules `qoc` reaches through the library are tested where they are owned."""

import contextlib
import errno
import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import BENCH_CASES
from gateflow import ExperimentSpec, FlowConfig, FlowResult, execute_experiment, load_experiment
from gateflow.cli import build_parser, main
from gateflow.flow import STEP_DTYPE
from helpers import checkout_env, read_rows, rows_without_wall_time, write_cfg

ROOT = Path(__file__).resolve().parents[1]

TINY = "gate: cnot\nT: 5\nL: 50\norder: 1\ns_max: 50\n"
CONVERGENT = "gate: cnot\nT: 5\nL: 150\norder: 1\n"


def test_parser_defaults():
    args = build_parser().parse_args(["run", "exp.cfg"])
    assert args.config == "exp.cfg"
    assert args.out == "results.csv"
    assert args.json is None
    assert args.parallel == 1
    assert args.scan_cap == 0.0


def test_convergent_run_exits_zero(tmp_path, capsys):
    # Without --json the run writes the CSV alone: a results.json already
    # beside it keeps its bytes.
    cfg = write_cfg(tmp_path, CONVERGENT)
    out, stale = tmp_path / "results.csv", tmp_path / "results.json"
    stale.write_bytes(b"[]\n")
    code = main(["run", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {out}" in captured.out
    assert "S=400" in captured.out
    assert "(j_reached)" in captured.out
    rows = read_rows(out)
    assert len(rows) == 2
    assert rows[1][0] == "cnot"
    assert rows[1][4] == "400"
    assert rows[1][8] == "j_reached"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "results.csv",
                                                          "results.json"]
    assert stale.read_bytes() == b"[]\n"


def test_horizon_run_exits_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "results.csv"
    code = main(["run", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "(horizon)" in captured.out
    assert read_rows(out)[1][8] == "horizon"


def test_run_stops_on_its_own_horizon(tmp_path, capsys):
    # With no --scan-cap, s_max is the horizon: this run would reach j_stop near s = 1136.
    cfg = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 150\norder: 0\ns_max: 300\n")
    out = tmp_path / "results.csv"
    code = main(["run", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "cnot T=5 L=150 order=0: S=300 " in captured.out
    assert "(horizon)" in captured.out
    header, row = read_rows(out)
    assert [row[header.index(k)] for k in ("S_reported", "rhs_evals", "stop_reason")] == [
        "300", "229", "horizon"]


def test_benchmark_horizons(tmp_path, monkeypatch):
    # Pinned without integrating: table1 runs its default s_max, horizon_scan's
    # s_max of 100 is lifted to its cap of 1200, and each acceptance case runs
    # to its own s_max, as the benchmark's workloads call them.
    horizons = []

    def recording(system, grid, target, order, cfg):
        horizons.append(cfg.s_max)
        steps = np.zeros(1, STEP_DTYPE)
        steps["accepted"] = True
        return FlowResult(final_grid=grid, steps=steps, stop_reason="horizon", s_stop=cfg.s_max)

    monkeypatch.setattr("gateflow.experiments.integrate_flow", recording)
    for config, flags, horizon in [(ROOT / "configs" / "table1.cfg", [], 5000.0),
                                   (ROOT / "perfbench" / "horizon_scan.cfg",
                                    ["--scan-cap", "1200"], 1200.0)]:
        horizons.clear()
        assert main(["run", str(config), "--out", str(tmp_path / "r.csv"), *flags]) == 2
        assert horizons == [horizon] * len(load_experiment(config)), config.name
    horizons.clear()
    for gate, t_final, n_slices, order, s_max in BENCH_CASES.values():
        spec = ExperimentSpec(gate=gate, t_final=t_final, n_slices=n_slices, order=order,
                              cfg=FlowConfig(s_max=s_max, check_unitarity=True,
                                             track_descent=True))
        execute_experiment(spec, scan_cap=s_max)
    assert horizons == [case[-1] for case in BENCH_CASES.values()]


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_bad_config_exits_one(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 150\nslices: 10\n")
    code = main(["run", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown key 'slices'" in captured.err


def test_step_underflow_exits_two(tmp_path, capsys, monkeypatch):
    # An unreachable tolerance shrinks every step until it falls below the floor.
    monkeypatch.setattr("gateflow.experiments.FlowConfig",
                        functools.partial(FlowConfig, tol=1e-300))
    cfg = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 20\norder: 1\n")
    out = tmp_path / "results.csv"
    code = main(["run", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "(step_underflow)" in captured.out
    assert read_rows(out)[1][8] == "step_underflow"


# Removed config keys, each with the text before it and the line it lands on.
REMOVED_KEYS = [
    # The reporting granularity is the constant 100; this case sits in a second block.
    ("s_granularity", "50", TINY + "\n" + TINY, 12),
    # The step floor is the constant flow.H_MIN.
    ("h_min", "1e-12", TINY, 6),
    # The step error has one tolerance, tol, not an absolute and a relative key.
    *((f"{prefix}_tol", "1e-4", TINY, 6) for prefix in ("abs", "rel")),
    # The start grid is set by sine_amplitude alone; 0 is the all-zero grid.
    ("initial_controls", "zero", TINY, 6),
    # Every row stops at FlowConfig's target under its step control.
    ("tol", "1e-4", TINY, 6), ("j_stop", "1e-7", TINY, 6), ("h_init", "1", TINY, 6),
]


@pytest.mark.parametrize("key, value, before, lineno", REMOVED_KEYS,
                         ids=[key for key, *_ in REMOVED_KEYS])
def test_removed_key_exits_one(tmp_path, capsys, key, value, before, lineno):
    cfg = write_cfg(tmp_path, before + f"{key}: {value}\n")
    code = main(["run", str(cfg), "--out", str(tmp_path / "results.csv")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: exp.cfg line {lineno}: unknown key '{key}'\n"
    assert captured.out == ""
    assert not (tmp_path / "results.csv").exists()


def test_parallel_is_bounded_by_usable_cpus(tmp_path, capsys, monkeypatch):
    # As under `taskset -c 0` on two CPUs: cpu_count reads 2, one CPU is usable.
    monkeypatch.setattr("gateflow.experiments.os.cpu_count", lambda: 2)
    monkeypatch.setattr("gateflow.experiments.os.sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", None)
    cfg = write_cfg(tmp_path, TINY + "\n" + TINY)
    out = tmp_path / "results.csv"
    assert main(["run", str(cfg), "--out", str(out), "--parallel", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert len(read_rows(out)) == 3


@pytest.mark.parametrize("config, flags", [
    ("a.cfg", ["--out", "a.cfg"]),
    ("b.cfg", ["--out", "r.csv", "--json", "b.cfg"]),
    ("exp.json", ["--out", "exp.csv"]),
], ids=["out", "json", "default_mirror"])
def test_output_on_the_config_exits_one(tmp_path, capsys, monkeypatch, config, flags):
    # Rejected before any run: the config keeps its bytes and no table is written.
    monkeypatch.chdir(tmp_path)
    if config == "exp.json":  # no mirror unless one is asked for, so nothing overwrites it
        cfg = write_cfg(tmp_path, CONVERGENT, name=config)
        before = cfg.read_bytes()
        assert main(["run", config] + flags) == 0
        assert capsys.readouterr().err == ""
        assert cfg.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.csv", config]
        return
    cfg = write_cfg(tmp_path, TINY, name=config)
    before = cfg.read_bytes()
    monkeypatch.setattr("gateflow.experiments.execute_experiment", None)
    code = main(["run", config] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {config}: would overwrite the config file\n"
    assert captured.out == ""
    assert cfg.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("flags", [[], ["--parallel", "2"]], ids=["sequential", "parallel"])
def test_run_time_error_names_its_spec(tmp_path, capsys, flags):
    # The first spec runs fine; the error line names the second, in a
    # sequential and in a parallel run alike. Without the squaring limit the
    # second would crawl toward the evaluation budget.
    cfg = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 20\ns_max: 50\n\n"
                              "gate: cnot\nT: 1e300\nL: 2\n")
    started = time.perf_counter()
    code = main(["run", str(cfg), "--out", str(tmp_path / "results.csv"), *flags])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "error: cnot T=1e+300 L=2 order=1: slice step too long for the exponential")
    assert captured.err.endswith("use more slices, a shorter T or smaller amplitudes\n")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    if not flags:  # the bound leaves out a pool's start-up
        assert elapsed < 1.0
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("flags", [["--scan-cap", "abc"], ["--parallel", "x"], ["--bogus"],
                                   ["--order-override", "0"]],
                         ids=["scan_cap", "parallel", "unknown", "order_override"])
def test_usage_errors_exit_one(tmp_path, capsys, flags):
    cfg = write_cfg(tmp_path, TINY)
    code = main(["run", str(cfg), "--out", str(tmp_path / "results.csv")] + flags)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("usage: qoc")
    assert not (tmp_path / "results.csv").exists()


def test_help_exits_zero(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--scan-cap" in out and "--order-override" not in out


# LONG runs for minutes: its flow stalls at J = 0.5, far above the target.
# SHORT meets its budget with its first evaluation and stops before taking a
# step, so in a parallel run of both one worker sits idle in its queue read
# when the signal comes.
LONG = "gate: cnot\nT: 5\nL: 150\norder: 3\ns_max: 1000000\n"
SHORT = "gate: cnot\nT: 5\nL: 20\norder: 1\nmax_rhs_evals: 1\n"

# A spec that fails at once: its one slice step is too long for the exponential.
FAILING = "gate: cnot\nT: 1e300\nL: 2\n"

# The CLI with every spec reporting 'started <pid>' on stdout as it begins, in
# whichever process runs it. SIGINT raises KeyboardInterrupt however the test
# run was launched: a background job of a non-interactive shell starts with it
# ignored, and the CLI would inherit that.
REPORTING_CLI = """import os
import signal
import sys
import gateflow.experiments
from gateflow.cli import main

run = gateflow.experiments.execute_experiment


def started(*args, **kwargs):
    # One write, so two workers' lines cannot interleave.
    os.write(1, f"started {os.getpid()}\\n".encode())
    return run(*args, **kwargs)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.default_int_handler)
    gateflow.experiments.execute_experiment = started
    sys.exit(main(sys.argv[1:]))
"""


def start_in_own_session(args, stdout=subprocess.PIPE, preexec_fn=None):
    """Popen of the Python interpreter with args, in a session of its own and
    with this checkout's package on the path."""
    return subprocess.Popen([sys.executable, *args], env=checkout_env(), stdout=stdout,
                            stderr=subprocess.PIPE, text=True, start_new_session=True,
                            preexec_fn=preexec_fn)


def cli_after_ready(args):
    """`python -c` code that prints 'ready', then runs the CLI on args."""
    return ("import sys; from gateflow.cli import main; print('ready', flush=True); "
            f"sys.exit(main({args!r}))")


def group_ends(pgid, within_s=10.0):
    """True once no process of the group is left, polling for within_s seconds."""
    deadline = time.monotonic() + within_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


@pytest.mark.parametrize("flags", [[], ["--parallel", "2"]], ids=["sequential", "parallel"])
def test_interrupt_exits_130_and_writes_nothing(tmp_path, flags):
    # Ctrl-C signals the whole foreground process group: the CLI runs in a
    # session of its own, and the test signals that group.
    # SIGINT raises KeyboardInterrupt however the test run was launched.
    cfg = write_cfg(tmp_path, LONG + "\n" + SHORT)
    out = tmp_path / "results.csv"
    code = ("import signal; signal.signal(signal.SIGINT, signal.default_int_handler); "
            + cli_after_ready(["run", str(cfg), "--out", str(out), *flags]))
    proc = start_in_own_session(["-c", code])
    try:
        assert proc.stdout.readline() == "ready\n"
        time.sleep(1.0)  # into the runs, with the workers started
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == "interrupted\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]
        assert group_ends(proc.pid), "a process of the run outlived it"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def test_interrupt_of_the_parent_alone_ends_the_workers(tmp_path):
    # `kill -INT` on the qoc process signals it alone: its workers never see
    # the signal, so it must end them itself rather than wait for their specs.
    cfg = write_cfg(tmp_path, LONG + "\n" + LONG)
    script = tmp_path / "reporting_cli.py"
    script.write_text(REPORTING_CLI)
    proc = start_in_own_session([str(script), "run", str(cfg), "--parallel", "2",
                                 "--out", str(tmp_path / "results.csv")])
    try:
        assert all(proc.stdout.readline().startswith("started ") for _ in range(2))
        os.kill(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=20)  # the specs would run for minutes
        assert proc.returncode == 130
        assert err == "interrupted\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "reporting_cli.py"]
        assert group_ends(proc.pid), "a worker outlived the run"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM],
                         ids=["SIGKILL", "SIGTERM"])
def test_workers_end_with_a_killed_parent(tmp_path, signum):
    # A killed qoc ends nothing itself, and its workers never see the signal: they
    # end at EOF on the pipe whose other end only qoc held.
    cfg = write_cfg(tmp_path, LONG + "\n" + LONG)
    script = tmp_path / "reporting_cli.py"
    script.write_text(REPORTING_CLI)
    proc = start_in_own_session([str(script), "run", str(cfg), "--parallel", "2",
                                 "--out", str(tmp_path / "results.csv")])
    try:
        assert all(proc.stdout.readline().startswith("started ") for _ in range(2))
        os.kill(proc.pid, signum)
        assert proc.wait(timeout=20) == -signum
        assert group_ends(proc.pid, within_s=5), "a worker outlived a killed run"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def test_failure_ends_a_parallel_run_at_once(tmp_path):
    # The failing spec fails beside a running LONG one, with another LONG queued:
    # the run ends with its error rather than wait minutes for either.
    cfg = write_cfg(tmp_path, LONG + "\n" + FAILING + "\n" + LONG)
    proc = start_in_own_session(["-m", "gateflow.cli", "run", str(cfg), "--parallel", "2",
                                 "--out", str(tmp_path / "results.csv")])
    try:
        _, err = proc.communicate(timeout=20)
        assert proc.returncode == 1
        assert err.startswith(
            "error: cnot T=1e+300 L=2 order=1: slice step too long for the exponential")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]
        assert group_ends(proc.pid), "a worker outlived the run"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def test_lost_worker_ends_the_run_with_one_error_line(tmp_path):
    # As when the OOM killer takes a worker: the run ends with one error line, not a
    # traceback. The line names no spec, since every pending spec fails alike.
    cfg = write_cfg(tmp_path, LONG + "\n" + LONG)
    script = tmp_path / "reporting_cli.py"
    script.write_text(REPORTING_CLI)
    proc = start_in_own_session([str(script), "run", str(cfg), "--parallel", "2",
                                 "--out", str(tmp_path / "results.csv")])
    try:
        worker = int(proc.stdout.readline().split()[1])
        os.kill(worker, signal.SIGKILL)
        _, err = proc.communicate(timeout=20)
        assert proc.returncode == 1
        assert err == "error: a worker process ended abruptly\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "reporting_cli.py"]
        assert group_ends(proc.pid), "a worker outlived the run"
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def test_ignored_interrupt_is_ignored_with_or_without_a_pool(tmp_path):
    # Started with SIGINT ignored, as `nohup qoc ...` or `qoc ... &` in a script is,
    # a run finishes through a group SIGINT, and a parallel run just as a sequential one.
    # Both rows stop on their budget far above the target, after about two seconds each.
    spec = "gate: cnot\nL: 150\ns_max: 1000000\nmax_rhs_evals: 5000\n"
    cfg = write_cfg(tmp_path, spec + "T: 5\norder: 3\n\n" + spec + "T: 10\norder: 0\n")
    procs = {}
    try:
        for name, flags in [("sequential", []), ("parallel", ["--parallel", "2"])]:
            args = ["run", str(cfg), "--out", str(tmp_path / f"{name}.csv"), *flags]
            procs[name] = start_in_own_session(
                ["-c", cli_after_ready(args)],
                preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
        for proc in procs.values():
            assert proc.stdout.readline() == "ready\n"
        time.sleep(1.0)  # into the runs, with the workers started
        for proc in procs.values():
            os.killpg(proc.pid, signal.SIGINT)
        for name, proc in procs.items():
            _, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (2, ""), name
        assert rows_without_wall_time(tmp_path / "parallel.csv") == rows_without_wall_time(
            tmp_path / "sequential.csv")
    finally:
        for proc in procs.values():
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("table", ["csv", "mirror"])
def test_full_device_table_exits_one_naming_it(tmp_path, capsys, table):
    # The CSV is written first, so a full mirror leaves it written.
    cfg = write_cfg(tmp_path, TINY)
    out, mirror = tmp_path / "r.csv", tmp_path / "m.json"
    flags = (["--out", "/dev/full", "--json", str(mirror)] if table == "csv"
             else ["--out", str(out), "--json", "/dev/full"])
    code = main(["run", str(cfg), *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: /dev/full: {os.strerror(errno.ENOSPC)}\n"
    assert captured.out == ""
    assert not mirror.exists()
    assert out.exists() == (table == "mirror")


@pytest.mark.parametrize("stream", ["closed_pipe", "full_device"])
def test_unwritable_stdout_exits_one_after_the_tables(tmp_path, stream):
    # `qoc run ... | head -c 0` and `qoc run ... > /dev/full`: the summary cannot be
    # written, but the tables already are.
    if stream == "full_device" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    cfg = write_cfg(tmp_path, TINY)
    out, mirror = tmp_path / "results.csv", tmp_path / "results.json"
    args = ["-m", "gateflow.cli", "run", str(cfg), "--out", str(out), "--json", str(mirror)]
    with contextlib.ExitStack() as stack:
        if stream == "closed_pipe":
            proc = start_in_own_session(args)
            proc.stdout.close()  # the reader is gone before the summary is printed
        else:
            proc = start_in_own_session(args, stdout=stack.enter_context(open("/dev/full", "w")))
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err.startswith("error: stdout: ") and err.count("\n") == 1, err
    assert len(read_rows(out)) == 2
    assert len(json.loads(mirror.read_text())) == 1
