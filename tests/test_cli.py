"""End-to-end tests for the command-line interface.

Everything goes through ``cli.main`` with an explicit argv so the tests
exercise exactly what a shell invocation would, including exit codes.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from circulant import CirculantParams, cli, diameter_exact
from circulant.diameter import DiameterResult
from circulant.distance import wrap_limit
from circulant.formulas import FormulaCase, FormulaResult
from circulant.paths import class_lengths


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# ---------------------------------------------------------------- distance


def test_distance_text(capsys):
    code, out, err = run_cli(capsys, ["distance", "--n", "10", "--s", "4", "--from", "0", "--to", "6"])
    assert code == 0
    assert out == "distance = 1\n"
    assert err == ""


def test_distance_text_witness(capsys):
    code, out, _ = run_cli(
        capsys,
        ["distance", "--n", "10", "--s", "4", "--from", "0", "--to", "6", "--witness"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "distance = 1"
    assert lines[1].startswith("class = ")
    assert lines[2].startswith("path = 0 ->")
    assert lines[2].endswith(" 6")


def test_distance_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["distance", "--n", "10", "--s", "4", "--from", "2", "--to", "8", "--format", "json", "--witness"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 10
    assert payload["s"] == 4
    assert payload["from"] == 2
    assert payload["to"] == 8
    assert payload["distance"] == 1
    assert payload["class"] == "(0, 1c-)"
    # Rendered path is translated to start at the requested source vertex.
    assert payload["path"].startswith("2 ->")
    assert payload["path"].endswith(" 8")


def test_distance_json_no_witness_omits_path(capsys):
    code, out, _ = run_cli(
        capsys,
        ["distance", "--n", "10", "--s", "4", "--from", "0", "--to", "6", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert "path" not in payload
    assert "class" not in payload


def test_plain_distance_runs_no_class_scan(capsys, monkeypatch):
    # the value comes from the closest lattice point; the class scan is
    # linear in n at s ~ n/2, and only --witness needs its class and path
    def no_scan(*args):
        raise AssertionError("class scan called")

    monkeypatch.setattr(cli, "distance", no_scan)
    # circulant.distance is rebound to the function of that name
    distance_mod = importlib.import_module("circulant.distance")
    monkeypatch.setattr(distance_mod, "distance_from_zero", no_scan)
    for n, s, src, dst, value in [(10, 4, 0, 6, 1), (10**9, 3, 0, 5 * 10**8, 166_666_668)]:
        argv = ["distance", "--n", str(n), "--s", str(s), "--from", str(src), "--to", str(dst)]
        assert run_cli(capsys, argv) == (0, f"distance = {value}\n", "")
    # both patches bite: the witness route and the scan's own entry hit them
    with pytest.raises(AssertionError, match="class scan called"):
        cli.main(["distance", "--n", "10", "--s", "4", "--from", "0", "--to", "6", "--witness"])
    with pytest.raises(AssertionError, match="class scan called"):
        distance_mod.distance(CirculantParams(10, 4), 0, 6)


def test_plain_distance_at_huge_n_matches_multiplier_image(capsys):
    # i -> u*i with u = s^-1 mod n maps C_n(1, s) onto C_n(1, 2) here, where
    # the class scan needs only a couple of wrap counts
    n, s = 10**9 + 1, 5 * 10**8
    u = pow(s, -1, n)
    image = CirculantParams(n, min(u, n - u))
    assert image.s == 2
    rng = random.Random(9)
    for _ in range(20):
        src, dst = rng.randrange(n), rng.randrange(n)
        argv = ["distance", "--n", str(n), "--s", str(s), "--from", str(src), "--to", str(dst)]
        code, out, _ = run_cli(capsys, argv)
        value, _, _ = min(class_lengths(image, u * (dst - src) % n, wrap_limit(image)))
        assert (code, out) == (0, f"distance = {value}\n"), (src, dst)


# ---------------------------------------------------------------- diameter


def test_diameter_algorithm_text(capsys):
    code, out, _ = run_cli(capsys, ["diameter", "--n", "12", "--s", "3"])
    assert code == 0
    assert out.splitlines()[0] == "diameter = 3"


def test_diameter_witness_listing(capsys):
    code, out, _ = run_cli(capsys, ["diameter", "--n", "10", "--s", "4", "--witness"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "diameter = 2"
    assert lines[1] == "witnesses = 2 3 5"


def test_diameter_formula_covered(capsys):
    code, out, _ = run_cli(
        capsys, ["diameter", "--n", "16", "--s", "5", "--method", "formula", "--witness"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "diameter = 4"
    assert lines[1] == "case = even_odd"
    assert "witness = 8" in lines


def test_diameter_formula_uncovered_is_null(capsys):
    code, out, _ = run_cli(capsys, ["diameter", "--n", "10", "--s", "4", "--method", "formula"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "diameter = null (no closed form)"
    assert lines[1] == "case = uncovered"


def test_diameter_formula_json_null(capsys):
    code, out, _ = run_cli(
        capsys, ["diameter", "--n", "10", "--s", "4", "--method", "formula", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["diameter"] is None
    assert payload["case"] == "uncovered"


def test_diameter_oracle_method(capsys):
    code, out, _ = run_cli(capsys, ["diameter", "--n", "13", "--s", "5", "--method", "oracle"])
    assert code == 0
    assert out.splitlines()[0] == "diameter = 2"


# Whole stdout of `distance`, `diameter` and `bounds`, byte for byte.
# C_13(1,5) has a subcase line and no constructed witness, C_10(1,4) has no
# closed form and C_16(1,5) has a constructed witness.
_C13 = ["--n", "13", "--s", "5"]
_C13_FORMULA = "diameter = 2\ncase = lambda_le_gamma\nsubcase = p1_minus_1\n"
_C13_FORMULA_JSON = (
    '{"n": 13, "s": 5, "method": "formula", "diameter": 2, '
    '"case": "lambda_le_gamma", "subcase": "p1_minus_1"'
)
_GOLDEN = [
    *[
        (["diameter", *_C13, "--method", method, *extra], expected)
        for method in ("algorithm", "oracle")
        for extra, expected in [
            ([], "diameter = 2\n"),
            (["--witness"], "diameter = 2\nwitnesses = 2 3 4 6\n"),
            (
                ["--format", "json"],
                f'{{"n": 13, "s": 5, "method": "{method}", "diameter": 2}}\n',
            ),
            (
                ["--format", "json", "--witness"],
                f'{{"n": 13, "s": 5, "method": "{method}", "diameter": 2, '
                '"witnesses": [2, 3, 4, 6]}\n',
            ),
        ]
    ],
    (["diameter", *_C13, "--method", "formula"], _C13_FORMULA),
    (["diameter", *_C13, "--method", "formula", "--witness"], _C13_FORMULA + "witness = null\n"),
    (["diameter", *_C13, "--method", "formula", "--format", "json"], _C13_FORMULA_JSON + "}\n"),
    (
        ["diameter", *_C13, "--method", "formula", "--format", "json", "--witness"],
        _C13_FORMULA_JSON + ', "witness": null}\n',
    ),
    (
        ["diameter", "--n", "10", "--s", "4", "--method", "formula"],
        "diameter = null (no closed form)\ncase = uncovered\n",
    ),
    (
        ["diameter", "--n", "10", "--s", "4", "--method", "formula", "--witness"],
        "diameter = null (no closed form)\ncase = uncovered\nwitness = null\n",
    ),
    (
        ["diameter", "--n", "10", "--s", "4", "--method", "formula", "--format", "json"],
        '{"n": 10, "s": 4, "method": "formula", "diameter": null, "case": "uncovered"}\n',
    ),
    (
        ["diameter", "--n", "10", "--s", "4", "--method", "formula", "--format", "json", "--witness"],
        '{"n": 10, "s": 4, "method": "formula", "diameter": null, "case": "uncovered", '
        '"witness": null}\n',
    ),
    (
        ["diameter", "--n", "16", "--s", "5", "--method", "formula", "--witness"],
        "diameter = 4\ncase = even_odd\nwitness = 8\n",
    ),
    (
        ["diameter", "--n", "16", "--s", "5", "--method", "formula", "--format", "json", "--witness"],
        '{"n": 16, "s": 5, "method": "formula", "diameter": 4, "case": "even_odd", '
        '"witness": 8}\n',
    ),
    # the small-gamma witness rules at s = 5 and s = 3
    (
        ["diameter", "--n", "28", "--s", "5", "--method", "formula", "--witness"],
        "diameter = 4\ncase = even_odd\nwitness = 20\n",
    ),
    (
        ["diameter", "--n", "14", "--s", "3", "--method", "formula", "--witness"],
        "diameter = 3\ncase = even_odd\nwitness = 9\n",
    ),
    (
        ["diameter", "--n", "11", "--s", "3", "--method", "formula", "--witness"],
        "diameter = 2\ncase = odd_odd\nwitness = 6\n",
    ),
    (
        ["distance", "--n", "16", "--s", "5", "--from", "3", "--to", "12", "--witness"],
        "distance = 3\nclass = (1a-, 2c+)\npath = 3 ->a- 2 ->c+ 7 ->c+ 12\n",
    ),
    (
        ["distance", "--n", "16", "--s", "5", "--from", "3", "--to", "12", "--witness",
         "--format", "json"],
        '{"n": 16, "s": 5, "from": 3, "to": 12, "distance": 3, "class": "(1a-, 2c+)", '
        '"path": "3 ->a- 2 ->c+ 7 ->c+ 12"}\n',
    ),
    (["bounds", *_C13], "du=3 gn=3 new=4 combined=3 diam=2 slack=1\n"),
    (
        ["bounds", *_C13, "--format", "json"],
        '{"n": 13, "s": 5, "du": 3, "gobel_neutel": 3, "new_bound": 4, "combined": 3, '
        '"diam_algorithm": 2, "slack": 1}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected", _GOLDEN, ids=[" ".join(argv) for argv, _ in _GOLDEN]
)
def test_stdout_is_golden(capsys, argv, expected):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (0, expected, "")


# ---------------------------------------------------------------- bounds


def test_bounds_text(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--n", "16", "--s", "5"])
    assert code == 0
    assert out == "du=4 gn=4 new=4 combined=4 diam=4 slack=0\n"


def test_bounds_json(capsys):
    code, out, _ = run_cli(capsys, ["bounds", "--n", "10", "--s", "4", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "n": 10,
        "s": 4,
        "du": 3,
        "gobel_neutel": 3,
        "new_bound": 3,
        "combined": 3,
        "diam_algorithm": 2,
        "slack": 1,
    }


# ---------------------------------------------------------------- sweep


def sweep_lines(capsys, extra):
    code, out, err = run_cli(capsys, ["sweep", *extra])
    return code, out.splitlines(), err


def test_sweep_csv_row_content(capsys):
    code, lines, _ = sweep_lines(capsys, ["--n-min", "13", "--n-max", "13", "--verify-oracle"])
    assert code == 0
    assert lines[0] == (
        "n,s,diam_algorithm,diam_formula,formula_case,diam_oracle,"
        "bound_du,bound_gn,bound_new,bound_combined,agree_formula,agree_oracle,witness_min"
    )
    # n=13 admits s in {2..6}: five data rows.
    assert len(lines) == 6
    row = next(line for line in lines if line.startswith("13,5,"))
    assert row == "13,5,2,2,lambda_le_gamma,2,3,3,4,3,true,true,2"


def test_sweep_uncovered_cell_has_empty_formula_fields(capsys):
    code, lines, _ = sweep_lines(capsys, ["--n-min", "14", "--n-max", "14", "--s", "6"])
    assert code == 0
    assert lines[1] == "14,6,3,,uncovered,,3,4,4,3,,,3"


def test_sweep_empty_range_is_header_only(capsys):
    code, lines, _ = sweep_lines(capsys, ["--n-min", "9", "--n-max", "8"])
    assert code == 0
    assert len(lines) == 1
    assert lines[0].startswith("n,s,")


def test_sweep_fixed_s_skips_invalid_cells(capsys):
    # s=4 needs n >= 9; n=8 must be silently skipped, not an error.
    code, lines, _ = sweep_lines(capsys, ["--n-min", "8", "--n-max", "10", "--s", "4"])
    assert code == 0
    assert [line.split(",")[0] for line in lines[1:]] == ["9", "10"]


def test_sweep_deterministic_across_runs_and_jobs(capsys, tmp_path):
    args = ["sweep", "--n-min", "5", "--n-max", "24", "--verify-oracle"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    parallel = tmp_path / "c.csv"
    assert cli.main([*args, "--out", str(first)]) == 0
    assert cli.main([*args, "--out", str(second)]) == 0
    assert cli.main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert blob == parallel.read_bytes()
    assert blob.endswith(b"\n")


def test_sweep_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--n-min", "10", "--n-max", "14", "--format", "json", "--verify-oracle"]
    )
    assert code == 0
    rows = json.loads(out)
    assert json.loads(json.dumps(rows)) == rows
    assert all(row["agree_oracle"] is True for row in rows)
    uncovered = [row for row in rows if row["formula_case"] == "uncovered"]
    assert uncovered and all(row["diam_formula"] is None for row in uncovered)
    covered = [row for row in rows if row["formula_case"] != "uncovered"]
    assert covered and all(row["agree_formula"] is True for row in covered)


def test_sweep_ndjson_lines_parse(capsys):
    code, out, _ = run_cli(
        capsys, ["sweep", "--n-min", "12", "--n-max", "13", "--format", "ndjson"]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    cells = [(row["n"], row["s"]) for row in rows]
    assert cells == [
        (12, 2), (12, 3), (12, 4), (12, 5),
        (13, 2), (13, 3), (13, 4), (13, 5), (13, 6),
    ]


def test_sweep_out_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, ["sweep", "--n-min", "12", "--n-max", "12", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    content = target.read_text()
    assert content.startswith("n,s,")
    assert "12,3,3," in content


def test_sweep_verify_oracle_checks_every_cell_across_n_2000(capsys):
    # n crosses 2**11, so both oracle_diameter routes run; verification used
    # to stop above n = 2000 with only a warning on stderr
    argv = ["sweep", "--n-min", "2045", "--n-max", "2052", "--s", "7", "--verify-oracle"]
    code, out, err = run_cli(capsys, [*argv, "--format", "json"])
    assert code == 0
    assert err == ""
    rows = json.loads(out)
    assert [row["n"] for row in rows] == list(range(2045, 2053))
    assert all(row["diam_oracle"] == row["diam_algorithm"] for row in rows)
    assert all(row["agree_oracle"] is True for row in rows)


def test_sweep_verify_oracle_fills_csv_oracle_fields_above_n_2000(capsys):
    # above n = 2000 the csv oracle fields used to be left empty unless a
    # separate flag overrode the skip; now --verify-oracle alone fills them
    argv = ["sweep", "--n-min", "2047", "--n-max", "2049", "--s", "7", "--verify-oracle"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(fields[0]) for fields in rows] == [2047, 2048, 2049]
    assert all(fields[5] == fields[2] for fields in rows)  # diam_oracle
    assert all(fields[11] == "true" for fields in rows)  # agree_oracle


def test_sweep_formats_share_one_column_order(capsys):
    argv = ["sweep", "--n-min", "5", "--n-max", "14", "--verify-oracle", "--format"]
    columns = list(cli._SWEEP_COLUMNS)
    code, out, _ = run_cli(capsys, [*argv, "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == columns
    assert len(lines) == 1 + sum((n - 1) // 2 - 1 for n in range(5, 15))
    assert all(len(line.split(",")) == len(columns) for line in lines[1:])
    code, out, _ = run_cli(capsys, [*argv, "json"])
    assert code == 0
    json_rows = json.loads(out)
    assert len(json_rows) == len(lines) - 1
    assert all(list(row) == columns for row in json_rows)
    code, out, _ = run_cli(capsys, [*argv, "ndjson"])
    assert code == 0
    ndjson_rows = [json.loads(line) for line in out.splitlines()]
    assert all(list(row) == columns for row in ndjson_rows)
    assert ndjson_rows == json_rows


def test_sweep_mismatch_exits_2(capsys, monkeypatch):
    def wrong_formula(p):
        return FormulaResult(value=99, case=FormulaCase.GAMMA_ZERO)

    monkeypatch.setattr(cli, "diameter_formula", wrong_formula)
    code, out, _ = run_cli(capsys, ["sweep", "--n-min", "12", "--n-max", "12", "--s", "3"])
    assert code == 2
    assert "12,3,3,99,gamma_zero" in out


def test_sweep_oracle_witness_mismatch_exits_2(capsys, monkeypatch):
    # right value, one witness short: the BFS check covers witnesses too
    real_oracle = cli.oracle_diameter

    def short_witnesses(p):
        res = real_oracle(p)
        return DiameterResult(res.value, res.witnesses[1:])

    monkeypatch.setattr(cli, "oracle_diameter", short_witnesses)
    code, out, _ = run_cli(
        capsys, ["sweep", "--n-min", "13", "--n-max", "13", "--s", "5", "--verify-oracle"]
    )
    assert code == 2
    assert out.splitlines()[1] == "13,5,2,2,lambda_le_gamma,2,3,3,4,3,true,false,2"


def test_sweep_jobs_clamped_to_cpus_and_cells(monkeypatch):
    pools = []

    class NoCellPool:
        """Records its workers and chunk size, and computes no cell."""

        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize=1):
            pools.append((self.processes, chunksize))
            return iter(())

    monkeypatch.setattr(multiprocessing, "Pool", NoCellPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    def sweep(n_min, n_max, *extra):
        argv = ["sweep", "--n-min", str(n_min), "--n-max", str(n_max), "--jobs", "64"]
        assert cli.main([*argv, *extra, "--out", os.devnull]) == 0

    # workers: one task per n, so 12 n get 4, 2 n get 2, and one n no pool
    for n_min, n_max in [(9, 20), (9, 10), (7, 7)]:
        sweep(n_min, n_max)
    assert [workers for workers, _ in pools] == [4, 2]
    # chunks: 1/8 of a worker's share of the 990 n, one chord each
    pools.clear()
    sweep(11, 1000, "--s", "5")
    assert pools == [(4, 990 // 32)]
    # at most _TASK_CELLS cells where that binds (n = 400 has 198 chords),
    # and still one n where a single n has more (n = 2100 has 1048)
    pools.clear()
    sweep(5, 400)
    [(_, chunk)] = pools
    assert 1 <= chunk < 396 // 32 and chunk * 198 <= cli._TASK_CELLS
    pools.clear()
    sweep(2000, 2100)
    assert pools == [(4, 1)]


_SWEEP_TASK = cli._sweep_task


def _logged_sweep_task(task):
    """cli._sweep_task that also appends one byte per cell of its n to a log file.

    Module-level, so pool workers can unpickle it; they inherit the log path
    through the environment.  The sleep makes the 400 cells take long next
    to the pool's own start and stop.
    """
    cells = len(task[2])
    with open(os.environ["CIRC_TEST_CELL_LOG"], "a", encoding="utf-8") as fh:
        fh.write("." * cells)
    time.sleep(0.005 * cells)
    return _SWEEP_TASK(task)


class ClosedAfterFirstRows:
    """An output whose reader goes away after the header and one write of rows."""

    writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 2:
            raise BrokenPipeError
        return len(text)


def test_sweep_pool_stops_when_the_reader_closes_early(monkeypatch, tmp_path):
    log = tmp_path / "cells.log"
    log.write_text("")
    monkeypatch.setenv("CIRC_TEST_CELL_LOG", str(log))
    monkeypatch.setattr(cli, "_sweep_task", _logged_sweep_task)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sys, "stdout", ClosedAfterFirstRows())
    # n in [5, 43] has 400 cells
    args = cli.build_parser().parse_args(["sweep", "--n-min", "5", "--n-max", "43", "--jobs", "2"])
    with pytest.raises(BrokenPipeError):
        cli._cmd_sweep(args)
    assert 0 < len(log.read_text()) < 400 // 2


def test_sweep_exits_0_when_its_reader_closes_the_pipe():
    # main's BrokenPipeError handler, in a real process with a real pipe: the
    # whole grid would take far longer than the timeout
    argv = [sys.executable, "-m", "circulant.cli", "sweep", "--n-min", "5", "--n-max", "2000"]
    proc = subprocess.Popen(
        argv, env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        assert proc.stdout.readline().startswith(b"n,s,")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 0
    assert err == b""


def test_sweep_memory_does_not_grow_with_the_grid(monkeypatch):
    # 2.25 million cells; the sweep must not hold them before the first row
    diameter_exact(CirculantParams(13, 5))  # numpy loads outside the trace
    monkeypatch.setattr(sys, "stdout", ClosedAfterFirstRows())
    args = cli.build_parser().parse_args(["sweep", "--n-min", "5", "--n-max", "3000", "--jobs", "1"])
    tracemalloc.start()
    try:
        with pytest.raises(BrokenPipeError):
            cli._cmd_sweep(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_sweep_unwritable_out_exits_1_before_any_cell(capsys, monkeypatch, tmp_path):
    def no_cells(task):
        raise AssertionError(f"cells {task} computed before --out was opened")

    monkeypatch.setattr(cli, "_sweep_task", no_cells)
    target = tmp_path / "missing" / "rows.csv"
    code, out, err = run_cli(capsys, ["sweep", "--n-min", "5", "--n-max", "8", "--out", str(target)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(target) in err


def test_sweep_verified_above_oracle_limit_exits_1_before_any_cell(capsys, monkeypatch):
    def no_cells(task):
        raise AssertionError(f"cells {task} computed before the oracle limit was checked")

    monkeypatch.setattr(cli, "_sweep_task", no_cells)
    argv = ["sweep", "--n-min", "16777214", "--n-max", "16777217", "--s", "3", "--verify-oracle"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: n=16777217") and "2**24" in err
    # the old override of a skip that no longer exists is a usage error
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--force-oracle"])
    assert excinfo.value.code == 1
    assert "--force-oracle" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "ndjson"])
def test_streamed_sweep_is_identical_across_jobs(capsys, tmp_path, fmt):
    args = ["sweep", "--n-min", "5", "--n-max", "24", "--verify-oracle", "--format", fmt]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main([*args, "--out", str(serial)]) == 0
    assert cli.main([*args, "--jobs", "2", "--out", str(parallel)]) == 0
    capsys.readouterr()
    text = serial.read_text()
    assert text == parallel.read_text()
    if fmt == "json":
        rows = json.loads(text)
    else:
        rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == sum((n - 1) // 2 - 1 for n in range(5, 25))
    # rows are written one by one; the bytes are those of the whole list
    if fmt == "json":
        assert text == json.dumps(rows, indent=2) + "\n"
    else:
        assert text == "".join(json.dumps(row) + "\n" for row in rows)


@pytest.mark.parametrize("fmt", ["csv", "json", "ndjson"])
@pytest.mark.parametrize("case", ["fixed-s", "all-small-blocks"])
def test_sweep_bytes_are_identical_across_jobs(capsys, monkeypatch, tmp_path, fmt, case):
    args = ["sweep", "--n-min", "5", "--n-max", "60", "--format", fmt]
    if case == "fixed-s":
        args += ["--s", "5"]  # 50 n: pool chunks of 3 leave a short last one
    reference = tmp_path / "reference"
    assert cli.main([*args, "--out", str(reference)]) == 0
    if case == "all-small-blocks":
        # kernel passes split chord groups and run single chords in vertex
        # ranges; pool workers are forked after the patch, so they see it too
        monkeypatch.setattr(importlib.import_module("circulant.distance"), "_CHUNK", 7)
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main([*args, "--jobs", jobs, "--out", str(out)]) == 0
        assert out.read_bytes() == reference.read_bytes()
    capsys.readouterr()


def test_streamed_json_of_empty_sweep_is_empty_array(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--n-min", "9", "--n-max", "8", "--format", "json"])
    assert code == 0
    assert out == "[]\n"


def test_streamed_sweep_mismatch_before_last_row_exits_2(capsys, monkeypatch):
    def wrong_on_12(p):
        return FormulaResult(value=99 if p.n == 12 else 3, case=FormulaCase.GAMMA_ZERO)

    monkeypatch.setattr(cli, "diameter_formula", wrong_on_12)
    code, out, _ = run_cli(
        capsys, ["sweep", "--n-min", "12", "--n-max", "13", "--s", "3", "--format", "ndjson"]
    )
    assert code == 2
    assert [json.loads(line)["agree_formula"] for line in out.splitlines()] == [False, True]


# ---------------------------------------------------------------- cold start

# Run in one fresh interpreter; each step records whether numpy and the
# process pool are loaded after it.  Only the bulk kernel, here through
# diameter_exact, may load numpy; only sweep --jobs > 1 needs the pool.
_COLD_START = """
import json, sys
steps = []
def step(name):
    steps.append([name, "numpy" in sys.modules, "multiprocessing.pool" in sys.modules])
import circulant, circulant.cli
from circulant import CirculantParams, bounds_report, diameter_formula, formula_witness
step("import")
circulant.cli.main(["distance", "--n", "16", "--s", "5", "--from", "3", "--to", "12", "--witness"])
step("cli distance")
for method in ("formula", "oracle"):
    circulant.cli.main(["diameter", "--n", "16", "--s", "5", "--method", method, "--witness"])
    step("cli diameter " + method)
p = CirculantParams(16, 5)
bounds_report(p), diameter_formula(p), formula_witness(p)
step("bounds and formulas")
circulant.diameter_exact(p)
step("diameter_exact")
print(json.dumps(steps))
"""


def test_scalar_routes_leave_numpy_unloaded():
    done = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert steps[-1][:2] == ["diameter_exact", True]
    assert [name for name, loaded, _ in steps if loaded] == ["diameter_exact"]
    assert [name for name, _, pool in steps[:-1] if pool] == []


# ---------------------------------------------------------------- failures


def test_invalid_n_exits_1(capsys):
    code, out, err = run_cli(capsys, ["diameter", "--n", "4", "--s", "2"])
    assert code == 1
    assert out == ""
    assert "n=4" in err


def test_invalid_s_exits_1(capsys):
    code, _, err = run_cli(capsys, ["distance", "--n", "10", "--s", "5", "--from", "0", "--to", "3"])
    assert code == 1
    assert "s=5" in err


def test_vertex_out_of_range_exits_1(capsys):
    code, _, err = run_cli(capsys, ["distance", "--n", "10", "--s", "4", "--from", "0", "--to", "10"])
    assert code == 1
    assert "vertex" in err


@pytest.mark.parametrize("command", ["diameter", "bounds"])
def test_n_above_kernel_range_exits_1(capsys, command):
    # distance_range is exact for n <= 2**40; above it the CLI used to print
    # a ValueError traceback
    code, out, err = run_cli(capsys, [command, "--n", "2000000000000", "--s", "3"])
    assert code == 1
    assert out == ""
    assert err == "error: n=2000000000000 exceeds 2**40, the int64 limit of the bulk lattice kernel\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_above_kernel_range_exits_1_before_any_output(capsys, tmp_path, fmt):
    # not even the csv header or json's "[" comes out before the error
    first = 2**40 + 1
    argv = ["sweep", "--n-min", str(first), "--n-max", str(first + 1), "--s", "3", "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: n={first} ") and "2**40" in err
    target = tmp_path / "rows"
    assert run_cli(capsys, [*argv, "--out", str(target)])[0] == 1
    assert not target.exists()


def test_oracle_above_its_range_exits_1_at_once(capsys):
    # bfs_distances used to allocate its n-slot list first: a MemoryError
    # traceback, or the host's memory exhausted
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["diameter", "--method", "oracle", "--n", "10000000000", "--s", "3"]
    )
    assert time.perf_counter() - start < 2
    assert code == 1
    assert out == ""
    assert err == "error: n=10000000000 exceeds 2**24, the BFS oracle's memory limit\n"


def test_sweep_bad_s_string_exits_1(capsys):
    # not an integer, then integers below the smallest chord
    for s in ("many", "1", "0"):
        code, _, err = run_cli(capsys, ["sweep", "--n-min", "5", "--n-max", "6", "--s", s])
        assert code == 1
        assert "--s" in err


def test_sweep_nonpositive_jobs_exits_1(capsys):
    code, _, err = run_cli(capsys, ["sweep", "--n-min", "5", "--n-max", "6", "--jobs", "0"])
    assert code == 1
    assert "--jobs" in err


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 1
    assert "frobnicate" in capsys.readouterr().err


def test_missing_required_argument_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["diameter", "--n", "12"])
    assert excinfo.value.code == 1
    assert "--s" in capsys.readouterr().err


# --------------------------------------------------------- huge-n deadline

HUGE_N = str(2**62 + 1)


class _Deadline(BaseException):
    """Raised by the alarm; a BaseException, so main's handlers pass it on."""


@pytest.mark.parametrize(
    "argv, code, out, limit",
    [
        (["distance", "--n", "1000000000001", "--s", "500000000000", "--from", "0", "--to", "2"],
         0, "distance = 2\n", None),
        (["diameter", "--n", HUGE_N, "--s", "3"], 1, "", "2**40"),
        (["bounds", "--n", HUGE_N, "--s", "3"], 1, "", "2**40"),
        (["diameter", "--n", HUGE_N, "--s", "3", "--method", "formula", "--witness"], 0,
         "diameter = 768614336404564651\ncase = odd_odd\nwitness = 2305843009213693953\n", None),
        (["diameter", "--n", HUGE_N, "--s", "3", "--method", "oracle"], 1, "", "2**24"),
    ],
    ids=["distance-1e12", "diameter-2^62", "bounds-2^62", "formula-2^62", "oracle-2^62"],
)
def test_huge_cells_answer_or_raise_within_a_deadline(capsys, argv, code, out, limit):
    # every command at huge n either answers or names the limit it hit,
    # within a deadline far above the 0.1 s each of these takes.  Still to
    # come: diameter and bounds at C_10^12(1, 10), which run the O(n) kernel
    # below its 2**40 ceiling, and distance --witness at the scan's cliff
    def expire(signum, frame):
        raise _Deadline(f"{argv} ran past 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        got = run_cli(capsys, argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got[:2] == (code, out)
    if limit is None:
        assert got[2] == ""
    else:
        assert got[2].startswith("error: ") and got[2].count("\n") == 1 and limit in got[2]
