"""Measurements that need a fresh interpreter, and the machine record.

Times are CPU times (user + system): on a shared virtual machine they leave
out the time other tenants take from this one, and every program measured
here is single-threaded and CPU-bound.  The caller scales them by a
reference child measured next to them (calib.py).

Run as a script, ``probes.py setup WORKLOAD SEED WORKDIR`` is the child
of the set-up measurement: it imports qharm, builds the workload's inputs,
prints its CPU time since process start and exits.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

CHILD_TIMEOUT_S = 60


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("QHARM_TOL", None)
    # qharm calls no BLAS routine; idle BLAS threads spinning at start-up
    # would only add noise to the CPU times measured here.
    env["OPENBLAS_NUM_THREADS"] = "1"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_seconds(root: Path, workload: str, seed: int, workdir: Path) -> float:
    """CPU seconds of a fresh process from its start to the end of set-up
    (qharm imported, inputs built and written), as the child reports them."""
    argv = [sys.executable, str(Path(__file__).resolve()), "setup", workload, str(seed), str(workdir)]
    out = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True).stdout
    return float(out)


def cli_cold_ms(root: Path, argv: list[str]) -> tuple[float, int]:
    """CPU time of ``python -m qharm ARGV`` in a fresh interpreter, start to
    exit, and its exit status."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    rc = subprocess.run([sys.executable, "-m", "qharm", *argv], cwd=root, env=child_env(root),
                        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S).returncode
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return cpu * 1e3, rc


def reference_child_s(root: Path) -> float:
    """CPU seconds of a fresh interpreter that imports numpy and exits: the
    yardstick for the other children (calib.py)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=root, env=child_env(root),
                   timeout=CHILD_TIMEOUT_S, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def import_ms(root: Path) -> float:
    """CPU time of ``import qharm`` measured inside a fresh interpreter."""
    code = "import time; t = time.process_time(); import qharm; print(time.process_time() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root), capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True).stdout
    return float(out) * 1e3


def machine_record(seed: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }


def _setup_child(workload: str, seed: str, workdir: str) -> None:
    import workloads  # imports qharm from PYTHONPATH, set by child_env

    wl = workloads.WORKLOADS[workload](int(seed), Path(workdir))
    print(time.process_time(), flush=True)
    wl.close()


if __name__ == "__main__":
    if sys.argv[1:2] != ["setup"] or len(sys.argv) != 5:
        sys.exit("usage: probes.py setup WORKLOAD SEED WORKDIR")
    _setup_child(*sys.argv[2:])
