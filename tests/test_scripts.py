"""Smoke runs of the experiment scripts at tiny sizes."""

import csv
import os
import runpy
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from qharm.classes import MAX_PROOF_STEP_U
from qharm.verify import MAX_TRIALS

ROOT = Path(__file__).resolve().parent.parent
STEP_MAP = runpy.run_path(str(ROOT / "scripts" / "proof_step_map.py"))
MAX_LATTICE_SIDE = STEP_MAP["MAX_LATTICE_SIDE"]
MAX_WEIGHT_ENTRIES = STEP_MAP["MAX_WEIGHT_ENTRIES"]
TARGETS = runpy.run_path(str(ROOT / "scripts" / "boundary_sweep.py"))["TARGETS"]


def run_script(name, *args, stdout=subprocess.PIPE, unbuffered=False):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def csv_header(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


def assert_csv_written(proc, out):
    # the emitter's bytes: csv's CRLF line ends, then one "wrote PATH" line
    assert proc.stdout.splitlines()[-1] == f"wrote {out}"
    lines = out.read_bytes().splitlines(keepends=True)
    assert lines and all(line.endswith(b"\r\n") for line in lines)


def test_a_crash_in_a_script_is_exit_three_with_its_traceback(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["proof_step_map.py", "--u-max", "4", "--out", str(tmp_path / "m.csv")])
    main = STEP_MAP["main"]  # run_path returns a copy of the globals main reads
    with mock.patch.dict(main.__globals__, proof_step_violations=mock.Mock(side_effect=RuntimeError("boom"))):
        assert main() == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):") and err.endswith("RuntimeError: boom\n")
    assert not (tmp_path / "m.csv").exists()


def test_boundary_sweep_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("boundary_sweep.py", "--per-target", "1", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert_csv_written(proc, out)
    assert csv_header(out) == [
        "target",
        "worst_re_margin",
        "worst_sense_margin",
        "worst_injectivity_margin",
        "probe_failures",
        "earliest_failure_radius",
    ]


def test_proof_step_map_runs(tmp_path):
    out = tmp_path / "map.csv"
    proc = run_script("proof_step_map.py", "--u-max", "8", "--m-max", "1", "--q-steps", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert_csv_written(proc, out)
    assert csv_header(out) == ["m", "q=0.333333", "q=0.666667"]


def test_proof_step_map_draws_past_an_overflowing_weight(tmp_path):
    # [64]_0.9**m overflows a float from m = 309 on; those rows read 0, the rows below are
    # those of a map that stops before the overflow
    out, below = tmp_path / "map.csv", tmp_path / "below.csv"
    proc = run_script("proof_step_map.py", "--u-max", "64", "--m-max", "400", "--q-steps", "9", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert_csv_written(proc, out)
    proc = run_script("proof_step_map.py", "--u-max", "64", "--m-max", "308", "--q-steps", "9", "--out", str(below))
    assert proc.returncode == 0, proc.stderr
    rows = out.read_bytes().splitlines()
    assert len(rows) == 402 and rows[:310] == below.read_bytes().splitlines()
    assert rows[-1] == b"400" + b",0" * 9


@pytest.mark.parametrize("u_max", [MAX_PROOF_STEP_U + 1, 10**12])
def test_proof_step_map_refuses_u_max_above_the_limit(tmp_path, u_max):
    out = tmp_path / "map.csv"
    proc = run_script("proof_step_map.py", "--u-max", str(u_max), "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr == f"error: max_u {u_max} exceeds the limit {MAX_PROOF_STEP_U}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "name, args, missing_dir",
    [
        ("proof_step_map.py", ["--m-max", "-1"], False),
        ("proof_step_map.py", ["--q-steps", "0"], False),
        ("proof_step_map.py", ["--u-max", "8", "--m-max", "0", "--q-steps", "1"], True),
        ("boundary_sweep.py", ["--seed", "1", "--alpha", "2"], False),
        ("boundary_sweep.py", ["--seed", "1", "--per-target", "0"], False),
        ("boundary_sweep.py", ["--seed", "1", "--per-target", "1"], True),
        ("boundary_sweep.py", ["--seed", "-1", "--per-target", "1"], False),
        ("boundary_sweep.py", ["--seed", "1", "--per-target", str(MAX_TRIALS + 1)], False),
        ("proof_step_map.py", ["--m-max", str(MAX_LATTICE_SIDE + 1)], False),
        ("proof_step_map.py", ["--q-steps", str(MAX_LATTICE_SIDE + 1)], False),
    ],
)
def test_scripts_refuse_bad_input_with_one_error_line(tmp_path, name, args, missing_dir):
    # A tool or input error prints one error line, exits 2 and writes no CSV.
    out = (tmp_path / "missing" if missing_dir else tmp_path) / "x.csv"
    proc = run_script(name, *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "name, args, message",
    [
        (
            "proof_step_map.py",
            ["--m-max", "1000", "--q-steps", "1000", "--u-max", str(MAX_PROOF_STEP_U)],
            f"weight entries (--m-max + 1) * --q-steps * --u-max {1001 * 1000 * MAX_PROOF_STEP_U}",
        ),
        (
            "proof_step_map.py",
            ["--m-max", "0", "--q-steps", str(MAX_WEIGHT_ENTRIES // MAX_PROOF_STEP_U + 1), "--u-max", str(MAX_PROOF_STEP_U)],
            f"weight entries (--m-max + 1) * --q-steps * --u-max {MAX_WEIGHT_ENTRIES + MAX_PROOF_STEP_U}",
        ),
        (
            "boundary_sweep.py",
            ["--seed", "1", "--per-target", str(MAX_TRIALS // len(TARGETS) + 1)],
            f"drawn functions --per-target * {len(TARGETS)} targets {(MAX_TRIALS // len(TARGETS) + 1) * len(TARGETS)}",
        ),
    ],
)
def test_scripts_refuse_a_run_beyond_their_total_work_limit(tmp_path, name, args, message):
    # each flag is within its own limit; the work they ask for together is not
    out = tmp_path / "x.csv"
    proc = run_script(name, *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1, proc.stderr
    assert " exceeds the limit " in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "name, args",
    [
        ("boundary_sweep.py", ["--seed", "1", "--per-target", "1"]),
        ("proof_step_map.py", ["--u-max", "8", "--m-max", "1", "--q-steps", "2"]),
    ],
)
def test_closed_stdout_pipe_exits_two_without_traceback(tmp_path, name, args, unbuffered):
    # the progress lines come before the CSV, so a closed stdout leaves no CSV
    out = tmp_path / "x.csv"
    for argv in ([*args, "--out", str(out)], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_script(name, *argv, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr.splitlines() == ["error: cannot write <stdout>: [Errno 32] Broken pipe"], argv
        assert not out.exists()
