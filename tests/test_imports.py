"""numpy is loaded only where the disc is sampled.

``import qharm`` and every subcommand except verify and scan must run
without numpy; the names of qharm.verify stay reachable from the package.
Each numpy check runs in a fresh interpreter, since this process has
numpy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qharm

SRC = str(Path(__file__).resolve().parents[1] / "src")
MEMBER = {"trunc": 4, "h": [[1, 0], [-0.2, 0]], "g": [[0.1, 0]]}
CLS = ["--m", "0", "--alpha", "0.5", "--q", "0.5"]
NUMPY_FREE = {
    "qint": ["qint", "--u", "3", "--q", "0.5"],
    "dq": ["dq", "--in", "{member}", "--q", "0.5"],
    "salagean": ["salagean", "--in", "{member}", "--m", "2", "--q", "0.5"],
    "transform": ["transform", "--in", "{member}", "--m", "2", "--q", "0.5"],
    "check": ["check", "--in", "{member}", *CLS],
    "probe": ["probe", "--in", "{member}", *CLS],
    "extremal": ["extremal", "--u", "3", "--kind", "coanalytic", *CLS],
    "combine": ["combine", "--point", "2:analytic:0.5", "--point", "1:coanalytic:0.5", *CLS],
    "witness": ["witness", "--x", "2=0.5", "--y", "1=0.5j", *CLS],
    "growth": ["growth", "--b1", "0.2", "--r", "0.5", *CLS],
}
SAMPLING = {
    "verify": ["verify", "--in", "{member}", *CLS, "--radii", "0.5,0.9", "--angles", "8"],
    "scan": ["scan", "--trials", "3", "--seed", "1", *CLS],
}


def fresh(code, *args):
    """Run ``code`` in a new interpreter that finds qharm in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)


def run_fresh(tmp_path, argv):
    """Exit status of cli.run(argv) in a new interpreter, and whether numpy was loaded."""
    member = tmp_path / "member.json"
    member.write_text(json.dumps(MEMBER))
    argv = [a.format(member=member) for a in argv]
    code = "import sys; from qharm import cli; rc = cli.run(sys.argv[1:]); print(rc, 'numpy' in sys.modules)"
    rc, numpy_loaded = fresh(code, *argv).stdout.split()[-2:]
    return int(rc), numpy_loaded == "True"


def test_import_qharm_does_not_load_numpy():
    assert fresh("import sys, qharm; print('numpy' in sys.modules)").stdout == "False\n"


@pytest.mark.parametrize("command", sorted(NUMPY_FREE))
def test_subcommand_does_not_load_numpy(tmp_path, command):
    assert run_fresh(tmp_path, NUMPY_FREE[command]) == (0, False)


@pytest.mark.parametrize("command", sorted(SAMPLING))
def test_sampling_subcommand_loads_verify(tmp_path, command):
    assert run_fresh(tmp_path, SAMPLING[command]) == (0, True)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qharm import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(qharm.__all__)


def test_verify_names_resolve_to_the_verify_objects():
    from qharm import classes, verify

    assert qharm.DiskGrid is verify.DiskGrid
    assert qharm.counterexample_scan is verify.counterexample_scan
    assert qharm.necessity_probe is verify.necessity_probe is classes.necessity_probe
    assert qharm.ProbeReport is verify.ProbeReport is classes.ProbeReport
    assert qharm.proof_step_violations is verify.proof_step_violations is classes.proof_step_violations
    assert verify.DEFAULT_PROBE_RADII is classes.DEFAULT_PROBE_RADII
    assert qharm.DEFAULT_TOLERANCE is verify.DEFAULT_TOLERANCE


def test_dir_lists_every_exported_name():
    assert set(qharm.__all__) <= set(dir(qharm))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qharm.no_such_name
    assert not hasattr(qharm, "no_such_name")
