"""Experiment specs, config parsing, the runner and the comparison
table writer."""

import concurrent.futures
import json
import multiprocessing
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from gateflow import (CSV_COLUMNS, MAX_SLICES, S_GRANULARITY, ExperimentSpec, FlowConfig,
                      RunRecord, build_initial_grid, compare_methods, execute_experiment,
                      flow_evaluation, gate_target, integrate_flow, load_experiment,
                      write_comparison)
from gateflow.experiments import MAX_CONFIG_BYTES, _KEYS
from helpers import read_rows, rows_without_wall_time, write_cfg


def fast_spec(order=1, s_max=50.0, n_slices=50):
    return ExperimentSpec(gate="cnot", t_final=5.0, n_slices=n_slices, order=order,
                          cfg=FlowConfig(s_max=s_max))


@pytest.fixture
def recording_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an in-process stand-in that runs each
    submitted call at once, and return the list of pool sizes it was built
    with, so no worker is ever started."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers, **worker_setup):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def set_usable_cpus(monkeypatch, n):
    """Make compare_methods see n usable CPUs, whatever this machine has."""
    monkeypatch.setattr("gateflow.experiments.os.sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


class TestExperimentSpec:
    def test_defaults(self):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150)
        assert spec.order == 1
        assert spec.cfg == FlowConfig() and spec.cfg.s_max == 5000.0
        assert spec.sine_amplitude == 0.0

    def test_swap_defaults_to_sine_seed(self):
        spec = ExperimentSpec(gate="swap", t_final=5.0, n_slices=300)
        assert spec.sine_amplitude == 1e-5

    def test_explicit_seed_mode_wins(self):
        # An explicit amplitude wins over the gate default, 0 included.
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, sine_amplitude=1e-3)
        assert spec.sine_amplitude == 1e-3
        spec = ExperimentSpec(gate="swap", t_final=5.0, n_slices=300, sine_amplitude=0)
        assert spec.sine_amplitude == 0.0 and type(spec.sine_amplitude) is float

    def test_validation(self):
        with pytest.raises(ValueError, match="^gate must be cnot or swap, got 'toffoli'$"):
            ExperimentSpec(gate="toffoli", t_final=5.0, n_slices=150)
        ExperimentSpec(gate="cnot", t_final=5.0, n_slices=MAX_SLICES)
        with pytest.raises(ValueError, match="^order must be in 0..8, got 9$"):
            ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=9)
        with pytest.raises(TypeError, match="initial_controls"):
            ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, initial_controls="zero")

    @pytest.mark.parametrize("name, value, message", [
        ("t_final", float("nan"), "T must be finite"),
        ("n_slices", MAX_SLICES + 1,
         f"L must be a positive integer of at most {MAX_SLICES}, got {MAX_SLICES + 1}"),
        ("sine_amplitude", -1e-5, "sine_amplitude must be non-negative"),
    ], ids=["T", "L", "sine_amplitude"])
    def test_each_field_is_checked_by_its_owner(self, name, value, message):
        # The wiring of gateflow.system's checks, whose rules TestInputRules covers:
        # L with its bound MAX_SLICES, sine_amplitude with zero allowed.
        kwargs = {"gate": "swap", "t_final": 5.0, "n_slices": 50, name: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentSpec(**kwargs)

    def test_numpy_integers_are_stored_as_ints(self, tmp_path):
        spec = fast_spec(order=np.int64(1), n_slices=np.int64(50))
        assert type(spec.n_slices) is int and type(spec.order) is int
        out, mirror = tmp_path / "out.csv", tmp_path / "out.json"
        compare_methods([spec], out, json_path=mirror)
        (row,) = json.loads(mirror.read_text())
        assert (row["L"], row["order"]) == (50, 1)

    def test_numpy_floats_are_stored_as_floats(self, tmp_path):
        # The writers need plain floats: json cannot serialise np.float32,
        # and the CSV writes only float values through %.17g.
        t_final = np.float32(4.9)
        spec = ExperimentSpec(gate="cnot", t_final=t_final, n_slices=50,
                              sine_amplitude=np.float32(1e-5), cfg=FlowConfig(s_max=50.0))
        assert all(type(v) is float for v in (spec.t_final, spec.sine_amplitude))
        out, mirror = tmp_path / "out.csv", tmp_path / "out.json"
        compare_methods([spec], out, json_path=mirror)
        (row,) = json.loads(mirror.read_text())
        assert row["T"] == float(t_final)
        header, csv_row = read_rows(out)
        assert csv_row[header.index("T")] == f"{float(t_final):.17g}" == "4.9000000953674316"

    def test_gate_label_is_canonical(self):
        assert ExperimentSpec(gate="CNOT", t_final=5.0, n_slices=150).gate == "cnot"


class TestInitialGrid:
    def test_zero_grid(self):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150)
        grid = build_initial_grid(spec)
        assert grid.t_final == 5.0
        assert grid.amplitudes.shape == (2, 150)
        assert not grid.amplitudes.any()
        assert not np.signbit(grid.amplitudes).any()  # +0.0, as np.zeros gives

    def test_sine_seed_samples_slice_midpoints(self):
        spec = ExperimentSpec(gate="swap", t_final=5.0, n_slices=300)
        grid = build_initial_grid(spec)
        t_mid = (np.arange(1, 301) - 0.5) * (5.0 / 300)
        expected = 1e-5 * np.sin(t_mid / 5.0)
        assert np.array_equal(grid.amplitudes[0], expected)
        assert np.array_equal(grid.amplitudes[0], grid.amplitudes[1])

    @pytest.mark.parametrize("gate, amplitude", [("cnot", "1e-3"), ("swap", "0")])
    def test_config_amplitude_sets_the_start_grid(self, tmp_path, gate, amplitude):
        path = write_cfg(tmp_path, f"gate: {gate}\nT: 5\nL: 150\nsine_amplitude: {amplitude}\n")
        (spec,) = load_experiment(path)
        t_mid = (np.arange(1, 151) - 0.5) * (5.0 / 150)
        expected = float(amplitude) * np.sin(t_mid / 5.0)
        assert np.array_equal(build_initial_grid(spec).amplitudes, [expected, expected])

    def test_swap_zero_grid_is_stationary(self, benchmark_system):
        # This is why the swap runs default to the sine seed: at zero
        # controls the swap velocities vanish identically and the flow
        # would sit still forever.
        spec = ExperimentSpec(gate="swap", t_final=5.0, n_slices=40, sine_amplitude=0)
        grid = build_initial_grid(spec)
        assert not grid.amplitudes.any()
        values = flow_evaluation(benchmark_system, grid, gate_target("swap"),
                                 order=1).values
        assert np.all(values == 0.0)
        seeded = build_initial_grid(ExperimentSpec(gate="swap", t_final=5.0,
                                                   n_slices=40))
        values = flow_evaluation(benchmark_system, seeded, gate_target("swap"),
                                 order=1).values
        assert np.abs(values).max() > 0.0

    def test_cnot_zero_grid_is_not_stationary(self, benchmark_system):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=40)
        grid = build_initial_grid(spec)
        values = flow_evaluation(benchmark_system, grid, gate_target("cnot"),
                                 order=1).values
        assert np.abs(values).max() > 1e-3


class TestConfigParsing:
    def test_minimal_block(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 150\n")
        (spec,) = load_experiment(path)
        assert spec.gate == "cnot"
        assert spec.t_final == 5.0
        assert spec.n_slices == 150
        assert spec.order == 1
        assert spec.cfg == FlowConfig()

    def test_comments_and_blank_lines(self, tmp_path):
        text = ("# comparison pair\n\n"
                "gate: cnot   # the gate\n"
                "T: 5\nL: 150\norder: 0\n\n\n"
                "gate: swap\nT: 5\nL: 300\norder: exact\n")
        specs = load_experiment(write_cfg(tmp_path, text))
        assert [s.gate for s in specs] == ["cnot", "swap"]
        assert specs[0].order == 0
        assert specs[1].order == "exact"
        assert [s.sine_amplitude for s in specs] == [0.0, 1e-5]

    def test_comment_lines_do_not_end_a_block(self, tmp_path):
        # Only a blank (or whitespace-only) line ends a block.
        text = ("gate: cnot\n# note\nT: 5\nL: 150\n \t\n"
                "gate: swap\nT: 5\n  # L below\nL: 300\n")
        specs = load_experiment(write_cfg(tmp_path, text))
        assert [(s.gate, s.n_slices) for s in specs] == [("cnot", 150), ("swap", 300)]
        text = "gate: cnot\n# note\nT: 5\n\ngate: swap\nT: x\n"
        with pytest.raises(ValueError, match="^exp.cfg line 1: missing required key 'L'$"):
            load_experiment(write_cfg(tmp_path, text))

    def test_flow_config_keys(self, tmp_path):
        # The step tolerance, target and first step are FlowConfig's defaults for every row.
        text = ("gate: cnot\nT: 5\nL: 150\norder: exact\ns_max: 250\nmax_rhs_evals: 500\n"
                "sine_amplitude: 1e-4\n")
        (spec,) = load_experiment(write_cfg(tmp_path, text))
        assert spec == ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order="exact",
                                      cfg=FlowConfig(s_max=250.0, max_rhs_evals=500),
                                      sine_amplitude=1e-4)
        assert len(_KEYS) == 7

    def test_unknown_key_names_the_line(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 150\nslices: 10\n")
        with pytest.raises(ValueError, match=r"exp\.cfg line 4: unknown key 'slices'"):
            load_experiment(path)

    def test_duplicate_key_names_the_line(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\nT: 10\nL: 150\n")
        with pytest.raises(ValueError, match=r"line 3: duplicate key 'T'"):
            load_experiment(path)

    def test_malformed_line(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT = 5\nL: 150\n")
        with pytest.raises(ValueError, match=r"line 2: expected 'key: value'"):
            load_experiment(path)

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\n")
        with pytest.raises(ValueError, match="missing required key 'L'"):
            load_experiment(path)

    def test_non_numeric_value(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: fast\nL: 150\n")
        with pytest.raises(ValueError, match="T must be a number"):
            load_experiment(path)

    def test_non_finite_values_name_the_line(self, tmp_path):
        # Every key, with non-finite and out-of-range values. The bad value is the
        # last line of a second block, below its first line, and the error names
        # the value's own line.
        non_finite = [(v, "must be finite") for v in ("inf", "-inf", "nan")]
        cases = {
            "gate": [("toffoli", "must be cnot or swap, got 'toffoli'")],
            "T": non_finite + [("-1", "must be positive"), ("0", "must be positive")],
            "L": [("0", "must be a positive integer of at most 10000, got 0"),
                  ("10001", "must be a positive integer of at most 10000, got 10001"),
                  ("1e400", "must be a whole number, got '1e400'"),
                  ("nan", "must be a whole number, got 'nan'")],
            "order": [("9", "must be in 0..8, got 9"), ("-1", "must be in 0..8, got -1"),
                      ("inf", "must be an integer or 'exact', got 'inf'")],
            "sine_amplitude": non_finite + [("-1e-3", "must be non-negative")],
            "s_max": non_finite + [("-5", "must be positive"), ("0", "must be positive")],
            "max_rhs_evals": [("0", "must be a positive integer, got 0"),
                              ("-3", "must be a positive integer, got -3"),
                              ("1e400", "must be a whole number, got '1e400'")],
        }
        assert sorted(cases) == sorted(_KEYS)
        first_block = "gate: cnot\nT: 5\nL: 150\n\n"
        for key, bad_values in cases.items():
            for value, message in bad_values:
                lines = [f"{k}: {v}" for k, v in (("gate", "cnot"), ("T", "5"), ("L", "150"))
                         if k != key] + [f"{key}: {value}"]
                path = write_cfg(tmp_path, first_block + "\n".join(lines) + "\n")
                with pytest.raises(ValueError, match=re.escape(
                        f"exp.cfg line {4 + len(lines)}: {key} {message}") + "$"):
                    load_experiment(path)

    def test_fractional_slice_count(self, tmp_path):
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 2.5\n")
        with pytest.raises(ValueError, match="^exp.cfg line 3: L must be a whole number, got '2.5'$"):
            load_experiment(path)

    def test_spec_errors_carry_location(self, tmp_path):
        path = write_cfg(tmp_path, "gate: toffoli\nT: 5\nL: 150\n")
        with pytest.raises(ValueError, match=r"^exp.cfg line 1: gate must be cnot or swap, "
                                             r"got 'toffoli'$"):
            load_experiment(path)
        path = write_cfg(tmp_path, f"# big\ngate: cnot\nT: 5\nL: {MAX_SLICES + 1}\n")
        with pytest.raises(ValueError, match=f"exp.cfg line 4: L must be a positive "
                                             f"integer of at most {MAX_SLICES}"):
            load_experiment(path)
        path = write_cfg(tmp_path, "gate: cnot\nT: 5\nL: 150\nsine_amplitude: -1e-3\n")
        with pytest.raises(ValueError, match="^exp.cfg line 4: sine_amplitude must be non-negative$"):
            load_experiment(path)

    def test_unknown_gate_is_echoed_as_written(self, tmp_path):
        path = write_cfg(tmp_path, "gate: Toffoli\nT: 5\nL: 150\n")
        with pytest.raises(ValueError, match=r"line 1: gate must be cnot or swap, got 'Toffoli'"):
            load_experiment(path)

    def test_empty_file(self, tmp_path):
        path = write_cfg(tmp_path, "# nothing here\n")
        with pytest.raises(ValueError, match="no experiments found"):
            load_experiment(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_experiment(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["native", "crlf"])
    def test_one_whole_number_rule_for_both_formats(self, tmp_path, newline):
        # Whole values written as floats load, with either line ending;
        # fractional ones are rejected, naming the line.
        text = "gate: cnot\nT: 5\nL: {}\nmax_rhs_evals: {}\norder: {}\n".replace("\n", newline)
        where = {"L": "exp.cfg line 3", "order": "exp.cfg line 5"}
        (spec,) = load_experiment(write_cfg(tmp_path, text.format("150.0", "1e3", "1.0")))
        assert (spec.n_slices, spec.cfg.max_rhs_evals, spec.order) == (150, 1000, 1)
        assert all(type(v) is int for v in (spec.n_slices, spec.cfg.max_rhs_evals, spec.order))
        for key, bad, values, expected in (
                ("L", "2.5", ("2.5", "1e3", "1"), "a whole number"),
                ("order", "1.5", ("150", "1e3", "1.5"), "an integer or 'exact'")):
            path = write_cfg(tmp_path, text.format(*values))
            with pytest.raises(ValueError, match=re.escape(
                    f"{where[key]}: {key} must be {expected}, got '{bad}'")):
                load_experiment(path)

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"],
                             ids=["vt", "ff", "fs", "gs", "rs", "nel", "ls", "ps"])
    def test_lines_end_only_at_universal_newlines(self, tmp_path, char):
        # str.splitlines() breaks at these and an editor does not: at the end of a
        # value or inside a comment they neither end the block nor shift line numbers.
        path = tmp_path / "exp.cfg"
        path.write_text(f"gate: cnot\nT: 5{char}\nL: 150\n", encoding="utf-8")
        [spec] = load_experiment(path)
        assert (spec.t_final, spec.n_slices) == (5.0, 150)
        path.write_text(f"gate: cnot\n# a{char}b\nT: 5\nL: 150\n\ngate: cnot\nT: 5\nL: x\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="^exp.cfg line 8: L must be a whole number, got 'x'$"):
            load_experiment(path)

    @pytest.mark.parametrize("content", [
        b'[{"gate":"cnot",',
        b"gate: cnot\nT: \xff\xfe5\nL: 150\n",
        b"[" * 100_000,
    ], ids=["malformed_json", "not_utf8", "deep_json"])
    def test_unreadable_file_names_the_file(self, tmp_path, content):
        path = tmp_path / "broken.cfg"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=r"^broken\.cfg: "):
            load_experiment(path)

    @pytest.mark.parametrize("text", ["gate: cnot\nT: 5\nL: 150\n",
                                      "# the gate first\ngate: cnot\nT: 5\nL: 150\n"],
                             ids=["native", "comment_first"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text):
        # Some editors save UTF-8 with a leading byte-order mark.
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        [spec] = load_experiment(path)
        assert (spec.gate, spec.t_final, spec.n_slices) == ("cnot", 5.0, 150)

    @pytest.mark.parametrize("content", [
        b"[]", b'{"gate": "cnot", "T": 5, "L": 150}', b' \n\t[{"gate": "cnot"}]',
        b"\xef\xbb\xbf[]",
    ], ids=["empty_list", "one_spec_object", "leading_whitespace", "byte_order_mark"])
    def test_json_config_is_refused(self, tmp_path, content):
        path = tmp_path / "x.json"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="^" + re.escape(
                "x.json: JSON configs are not supported; use 'key: value' blocks") + "$"):
            load_experiment(path)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_file_is_refused(self):
        # Read to its end, /dev/zero would exhaust memory.
        with pytest.raises(ValueError, match="^zero: config is larger than 1 MiB$"):
            load_experiment("/dev/zero")

    def test_config_size_is_bounded(self, tmp_path):
        # Padded up to the limit a config loads; one byte more and it is refused.
        text = "gate: cnot\nT: 5\nL: 150\n"
        path = write_cfg(tmp_path, text + "#" * (MAX_CONFIG_BYTES - len(text)))
        [spec] = load_experiment(path)
        assert spec.n_slices == 150
        path.write_text(path.read_text() + "#")
        with pytest.raises(ValueError, match="^exp.cfg: config is larger than 1 MiB$"):
            load_experiment(path)

    def test_shipped_comparison_grid(self):
        specs = load_experiment("configs/table1.cfg")
        assert [(s.gate, s.t_final, s.n_slices, s.order) for s in specs] == [
            ("cnot", 10.0, 300, 0), ("cnot", 10.0, 300, 1),
            ("cnot", 10.0, 150, 0), ("cnot", 10.0, 150, 1),
            ("cnot", 5.0, 300, 0), ("cnot", 5.0, 300, 1),
            ("cnot", 5.0, 150, 0), ("cnot", 5.0, 150, 1),
        ]

    def test_shipped_method_pair(self):
        specs = load_experiment("configs/cnot_t5.cfg")
        assert [(s.gate, s.t_final, s.n_slices, s.order) for s in specs] == [
            ("cnot", 5.0, 150, 0), ("cnot", 5.0, 150, 1),
        ]


class TestRunner:
    def test_corrected_cnot_run(self):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=1)
        record, result = execute_experiment(spec)
        assert record.stop_reason == "j_reached"
        assert record.s_reported == 400.0
        assert record.final_j <= 1e-7
        assert record.s_reported >= result.s_stop
        assert record.rhs_evals == result.rhs_evals
        assert record.wall_time_s > 0
        assert record.gate == "cnot" and record.order == 1

    @pytest.fixture
    def horizons(self, monkeypatch):
        """The horizon of every integration execute_experiment starts."""
        calls = []

        def counting(*args):
            calls.append(args[-1].s_max)
            return integrate_flow(*args)

        monkeypatch.setattr("gateflow.experiments.integrate_flow", counting)
        return calls

    def test_scan_extends_horizon_until_convergence(self, horizons):
        # The run converges near s = 375, past its horizon of 300, so the
        # cap lifts the horizon to 600 and the flow is integrated once; the
        # report quotes the granularity multiple above s_stop.
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=1,
                              cfg=FlowConfig(s_max=300.0))
        record, result = execute_experiment(spec, scan_cap=600.0)
        assert record.stop_reason == "j_reached"
        assert record.s_reported == 400.0
        assert 300.0 < result.s_stop <= 400.0
        assert horizons == [600.0]
        assert record.rhs_evals == result.rhs_evals

    def test_scan_cap_is_the_lifted_horizon(self, horizons):
        # The horizon is the cap itself, not s_max plus whole steps of 100
        # (350 here, which would stop this run short of its j_stop near 375).
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=1,
                              cfg=FlowConfig(s_max=150.0))
        record, result = execute_experiment(spec, scan_cap=420.0)
        assert horizons == [420.0]
        assert (record.s_reported, record.stop_reason) == (400.0, "j_reached")
        assert 350.0 < result.s_stop < 420.0

    def test_run_without_a_cap_stops_on_its_own_horizon(self, horizons):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=1,
                              cfg=FlowConfig(s_max=300.0))
        record, result = execute_experiment(spec)
        assert horizons == [300.0]
        assert (record.s_reported, record.stop_reason) == (300.0, "horizon")
        assert result.s_stop == 300.0

    def test_scan_cap_limits_extension(self):
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=150, order=1,
                              cfg=FlowConfig(s_max=300.0))
        record = execute_experiment(spec, scan_cap=300.0)[0]
        assert record.stop_reason == "horizon"
        assert record.s_reported == 300.0
        assert record.final_j > 1e-7

    def test_scan_cap_far_below_the_horizon_keeps_it(self):
        # A cap far below s_max leaves the horizon at s_max.
        spec = ExperimentSpec(gate="cnot", t_final=5.0, n_slices=50,
                              cfg=FlowConfig(s_max=1e308, max_rhs_evals=1))
        record, result = execute_experiment(spec, scan_cap=-1.7e308)
        assert (record.stop_reason, record.s_reported, result.rhs_evals) == ("eval_budget", 0, 1)

    def test_reported_horizon_is_granularity_multiple(self):
        spec = fast_spec(s_max=50.0)
        record = execute_experiment(spec)[0]
        assert record.stop_reason == "horizon"
        assert record.s_reported == 100.0
        assert S_GRANULARITY == 100.0
        assert record.s_reported % S_GRANULARITY == 0


class TestComparisonTable:
    def sample_records(self):
        return [
            RunRecord(gate="cnot", t_final=5.0, n_slices=150, order=0,
                      s_reported=1200.0, final_j=8.9230000000000004e-08,
                      rhs_evals=337, wall_time_s=np.pi, stop_reason="j_reached"),
            RunRecord(gate="swap", t_final=10.0, n_slices=300, order="exact",
                      s_reported=100.0, final_j=1 / 3, rhs_evals=55,
                      wall_time_s=0.25, stop_reason="horizon"),
        ]

    def test_header_and_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        write_comparison(self.sample_records(), out)
        rows = read_rows(out)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 3
        assert rows[1][0] == "cnot"
        assert rows[2][3] == "exact"
        assert rows[2][8] == "horizon"

    def test_floats_round_trip(self, tmp_path):
        out = tmp_path / "table.csv"
        records = self.sample_records()
        write_comparison(records, out)
        rows = read_rows(out)
        for row, record in zip(rows[1:], records):
            assert float(row[5]) == record.final_j
            assert float(row[7]) == record.wall_time_s

    def test_empty_records_write_header_only(self, tmp_path):
        out, mirror = tmp_path / "empty.csv", tmp_path / "empty.json"
        write_comparison([], out, json_path=mirror)
        assert read_rows(out) == [list(CSV_COLUMNS)]
        assert json.loads(mirror.read_text()) == []

    def test_json_mirror_default_path(self, tmp_path):
        # No mirror is written unless one is asked for.
        write_comparison(self.sample_records(), tmp_path / "table.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]

    def test_json_explicit_path(self, tmp_path):
        out = tmp_path / "table.csv"
        mirror = tmp_path / "elsewhere.json"
        write_comparison(self.sample_records(), out, json_path=mirror)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["elsewhere.json", "table.csv"]
        data = json.loads(mirror.read_text())
        assert len(data) == 2
        assert data[0]["gate"] == "cnot"
        assert data[0]["S_reported"] == 1200.0
        assert data[0]["final_J"] == 8.9230000000000004e-08
        assert data[1]["order"] == "exact"
        assert set(data[0]) == set(CSV_COLUMNS)

    def test_compare_methods_deterministic_modulo_wall_time(self, tmp_path):
        specs = [fast_spec(order=0), fast_spec(order=1)]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        compare_methods(specs, first)
        compare_methods(specs, second)
        assert rows_without_wall_time(first) == rows_without_wall_time(second)
        wall = CSV_COLUMNS.index("wall_time_s")
        for row in read_rows(first)[1:]:
            assert float(row[wall]) > 0

    @pytest.mark.parametrize("arguments, message", [
        ({"parallel": 0}, "parallel must be a positive integer, got 0"),
        ({"parallel": 2, "scan_cap": float("inf")}, "scan cap must be finite"),
    ], ids=["parallel", "scan_cap"])
    def test_arguments_checked_before_any_run_or_pool(self, tmp_path, monkeypatch,
                                                      recording_pool, arguments, message):
        # The wiring of gateflow.system's checks, whose rules TestInputRules covers.
        set_usable_cpus(monkeypatch, 2)
        runs = []
        monkeypatch.setattr("gateflow.experiments.execute_experiment",
                            lambda spec, scan_cap: runs.append(spec))
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare_methods([fast_spec(order=0), fast_spec(order=1)], out, **arguments)
        assert runs == [] and recording_pool == []
        assert not out.exists()

    def test_parallel_pool_is_clamped(self, tmp_path, monkeypatch, recording_pool):
        specs = [fast_spec(order=0), fast_spec(order=1)]
        out = tmp_path / "out.csv"
        set_usable_cpus(monkeypatch, 1)
        compare_methods(specs, out, parallel=2)
        compare_methods(specs[:1], out, parallel=2)
        assert recording_pool == []
        set_usable_cpus(monkeypatch, 2)
        compare_methods(specs, out, parallel=2)
        assert recording_pool == [2]

    def test_parallel_pool_without_affinity_is_clamped_by_cpu_count(self, tmp_path, monkeypatch,
                                                                    recording_pool):
        # As where the OS has no affinity call (macOS, Windows).
        monkeypatch.delattr("gateflow.experiments.os.sched_getaffinity", raising=False)
        specs = [fast_spec(order=0), fast_spec(order=1)]
        out = tmp_path / "out.csv"
        monkeypatch.setattr("gateflow.experiments.os.cpu_count", lambda: 1)
        compare_methods(specs, out, parallel=2)
        assert recording_pool == []
        monkeypatch.setattr("gateflow.experiments.os.cpu_count", lambda: 2)
        compare_methods(specs, out, parallel=2)
        assert recording_pool == [2]

    @pytest.mark.parametrize("lost", [False, True], ids=["spec_fails", "worker_lost"])
    def test_parallel_failure_ends_the_run(self, tmp_path, monkeypatch, recording_pool, lost):
        # Every spec is submitted at once; the first failure in spec order ends the
        # run with no table, and a broken pool, which fails every pending spec alike,
        # is reported without a spec.
        def run(spec, scan_cap):
            if spec.order == 1:
                raise BrokenProcessPool("terminated abruptly") if lost else ValueError("failed")
            if spec.order == 2:
                raise ValueError("a later failure")
            return None, None

        set_usable_cpus(monkeypatch, 2)
        monkeypatch.setattr("gateflow.experiments.execute_experiment", run)
        out = tmp_path / "out.csv"
        message = "a worker process ended abruptly" if lost else "failed"
        with pytest.raises(ValueError, match=f"^{message}$"):
            compare_methods([fast_spec(order=m) for m in range(4)], out, parallel=2)
        assert recording_pool == [2]
        assert not out.exists()

    def test_parallel_runs_every_spec_once_in_spec_order(self, tmp_path, monkeypatch,
                                                         recording_pool):
        set_usable_cpus(monkeypatch, 2)
        specs = [fast_spec(order=0, n_slices=n) for n in (46, 47, 48, 49, 50)]
        out = tmp_path / "out.csv"
        records = compare_methods(specs, out, parallel=2)
        assert recording_pool == [2]
        assert [r.n_slices for r in records] == [46, 47, 48, 49, 50]
        assert [row[2] for row in read_rows(out)[1:]] == ["46", "47", "48", "49", "50"]

    def test_parallel_failure_ends_only_its_own_workers(self, tmp_path, monkeypatch):
        # A child process the caller started before the run outlives the run's failure.
        set_usable_cpus(monkeypatch, 2)
        bystander = multiprocessing.Process(target=time.sleep, args=(60,))
        bystander.start()
        try:
            failing = ExperimentSpec(gate="cnot", t_final=1e300, n_slices=2)
            with pytest.raises(ValueError, match="slice step too long for the exponential"):
                compare_methods([fast_spec(), failing], tmp_path / "out.csv", parallel=2)
            bystander.join(timeout=0.5)  # time for a SIGTERM to take effect
            assert bystander.exitcode is None, "the run ended a process it did not start"
        finally:
            bystander.terminate()
            bystander.join()

    @pytest.mark.parametrize("out_name, json_name", [("r.json", None), ("r.csv", "r.csv"),
                                                     ("r.csv", "sub/../r.csv"),
                                                     ("h.csv", "h.json")],
                             ids=["json_suffix_out", "same_path", "same_file", "hard_link"])
    def test_json_mirror_must_not_be_the_csv(self, tmp_path, monkeypatch, recording_pool,
                                              out_name, json_name):
        # Checked before any run or pool starts. The two names of a hard link
        # resolve to two paths; only samefile tells they are one file.
        monkeypatch.chdir(tmp_path)
        set_usable_cpus(monkeypatch, 2)
        (tmp_path / "sub").mkdir()
        (tmp_path / "h.csv").write_text("kept\n")
        os.link(tmp_path / "h.csv", tmp_path / "h.json")
        if json_name is None:  # no mirror is asked for, so r.json is just the CSV's name
            write_comparison(self.sample_records(), out_name)
            rows = read_rows(out_name)
            assert rows[0] == list(CSV_COLUMNS) and len(rows) == 3
            assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "h.json", "r.json",
                                                                  "sub"]
            return
        message = f"{json_name}: the JSON mirror would overwrite the CSV output"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            compare_methods([fast_spec(order=0), fast_spec(order=1)], out_name,
                            json_path=json_name, parallel=2)
        assert recording_pool == []
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            write_comparison(self.sample_records(), out_name, json_path=json_name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "h.json", "sub"]
        assert (tmp_path / "h.csv").read_text() == "kept\n"

    @pytest.mark.parametrize("out_name, json_name, bad_name",
                             [("r.csv", "nodir/x.json", "nodir/x.json"),
                              ("nodir/y.csv", None, "nodir/y.csv"),
                              ("afile/y.csv", "r.json", "afile/y.csv")],
                             ids=["json_missing_dir", "out_missing_dir", "out_under_a_file"])
    def test_output_directories_must_exist(self, tmp_path, monkeypatch, recording_pool,
                                           out_name, json_name, bad_name):
        # Checked before any run or pool starts; the error echoes the path as written.
        monkeypatch.chdir(tmp_path)
        set_usable_cpus(monkeypatch, 2)
        (tmp_path / "afile").write_text("")
        message = f"{bad_name}: {Path(bad_name).parent} is not an existing directory"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            compare_methods([fast_spec(order=0), fast_spec(order=1)], out_name,
                            json_path=json_name, parallel=2)
        assert recording_pool == []
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            write_comparison(self.sample_records(), out_name, json_path=json_name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]

    @pytest.mark.parametrize("out_name, json_name, bad_name",
                             [("adir", "r.json", "adir"), ("r.csv", "adir", "adir"),
                              ("", None, ".")],
                             ids=["out_is_a_dir", "json_is_a_dir", "out_is_empty"])
    def test_output_paths_must_not_be_directories(self, tmp_path, monkeypatch,
                                                  recording_pool, out_name, json_name,
                                                  bad_name):
        # Checked before any run or pool starts. An empty path, as `--out ''`
        # passes it, is the current directory.
        monkeypatch.chdir(tmp_path)
        set_usable_cpus(monkeypatch, 2)
        (tmp_path / "adir").mkdir()
        message = f"{bad_name}: is a directory, not a file"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            compare_methods([fast_spec(order=0), fast_spec(order=1)], out_name,
                            json_path=json_name, parallel=2)
        assert recording_pool == []
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            write_comparison(self.sample_records(), out_name, json_path=json_name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]

    @pytest.mark.parametrize("existing, denied, bad_name",
                             [((), ".", "r.csv"), (("r.csv", "r.json"), "r.csv", "r.csv"),
                              (("r.csv", "r.json"), "r.json", "r.json")],
                             ids=["directory", "csv_file", "json_file"])
    def test_output_paths_must_be_writable(self, tmp_path, monkeypatch, recording_pool,
                                           existing, denied, bad_name):
        # Checked before any run or pool starts: an existing file for its own
        # permission, a new one for its directory's. Mode bits do not bind
        # root, so the permission answer is stubbed rather than set by chmod.
        set_usable_cpus(monkeypatch, 2)
        for name in existing:
            (tmp_path / name).write_text("old")
        real_access = os.access
        monkeypatch.setattr("gateflow.experiments.os.access",
                            lambda path, mode: (Path(path) != tmp_path / denied
                                                and real_access(path, mode)))
        message = f"{tmp_path / bad_name}: {tmp_path / denied} is not writable"
        out, mirror = tmp_path / "r.csv", tmp_path / "r.json"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            compare_methods([fast_spec(order=0), fast_spec(order=1)], out,
                            json_path=mirror, parallel=2)
        assert recording_pool == []
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(existing)
        assert all((tmp_path / name).read_text() == "old" for name in existing)

    def test_parallel_matches_sequential(self, tmp_path):
        specs = [fast_spec(order=0), fast_spec(order=1)]
        seq = tmp_path / "seq.csv"
        par = tmp_path / "par.csv"
        compare_methods(specs, seq)
        compare_methods(specs, par, parallel=2)
        assert rows_without_wall_time(seq) == rows_without_wall_time(par)
