"""Smoke runs of the experiment scripts at tiny sizes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qharm.classes import MAX_PROOF_STEP_U

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def csv_header(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.reader(fh))


def test_boundary_sweep_runs(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script("boundary_sweep.py", "--per-target", "1", "--seed", "7", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
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
    assert csv_header(out) == ["m", "q=0.333333", "q=0.666667"]


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
    ],
)
def test_scripts_refuse_bad_input_with_one_error_line(tmp_path, name, args, missing_dir):
    # A tool or input error prints one error line, exits 2 and writes no CSV.
    out = (tmp_path / "missing" if missing_dir else tmp_path) / "x.csv"
    proc = run_script(name, *args, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()
