"""Small helpers shared by several test modules: random Hermitian
matrices, config files written to a temporary directory, CSV rows, and
the accepted rows of a flow run's step record."""

import csv

from gateflow import CSV_COLUMNS


def random_hermitian(rng, n, scale=1.0):
    a = rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    return (a + a.conj().T) / 2


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def rows_without_wall_time(path):
    """The CSV's rows, header included, without the wall_time_s column, the
    one column that differs between reruns."""
    wall = CSV_COLUMNS.index("wall_time_s")
    return [row[:wall] + row[wall + 1:] for row in read_rows(path)]


def accepted(result):
    """The start point and every accepted step of a FlowResult's record."""
    return result.steps[result.steps["accepted"]]
