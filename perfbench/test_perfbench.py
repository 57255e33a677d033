"""Tests of the benchmark itself, on tiny inputs:

    python3 -m pytest perfbench -q
"""

import json
import shutil
import sys

import pytest

import calib
import run

sys.path.insert(0, str(run.ROOT / "src"))
import workloads  # noqa: E402  (needs qharm from src/)

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_REPEATS = {"setup": 1, "cold": 1, "import": 1}
# verify refuses the member with b1 = 1 that member_t_iff accepts.
KNOWN_DEFECT = "b1 magnitude must lie in [0, 1)"


def one_pass(name, seed, workdir):
    """Inputs and the digest of one untimed pass."""
    wl = workloads.WORKLOADS[name](seed, workdir, tiny=True)
    try:
        inputs = [(op.pname, op.trunc, op.kind, op.args, op.functional) for op in wl.ops]
        files = [p.read_bytes() for p in sorted(wl.workdir.glob("in*.json"))]
        tally = run.Tally()
        digest = run.one_pass(wl, tally)
    finally:
        wl.close()
    assert tally.wrong == 0
    return inputs, files, digest


def test_workload_names_match_benchmark_json():
    assert list(workloads.WORKLOADS) == list(run.NAMES) == [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", run.NAMES)
def test_same_seed_same_inputs_and_digest(name):
    first = one_pass(name, 7, run.WORK / f"test-{name}-a")
    again = one_pass(name, 7, run.WORK / f"test-{name}-b")
    other = one_pass(name, 8, run.WORK / f"test-{name}-c")
    assert first == again
    assert other[0] != first[0]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.NAMES)
def test_smoke_run_prints_every_metric(name, trace, capsys):
    result, record = run.execute(name, 3, 0.2, trace, tiny=True, repeats=TINY_REPEATS)
    run.print_run(name, result, record)
    printed = capsys.readouterr().out
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f" {m['name']} " in printed
    assert result["correct"] and result["attempted"] >= 1
    assert record["wrong"] == 0
    assert all(KNOWN_DEFECT in reason for reason in record["failures"])
    for key in ("nproc", "cpu_model", "python", "numpy", "loadavg_start", "seed"):
        assert key in record["machine"]
    assert len(record["digest"]) == 64


@pytest.mark.parametrize("name", ["verify", "scan"])
def test_counts_depend_on_the_seed_alone(name):
    """Attempted and failed count inputs, however many runs fit in the time."""
    short, _ = run.execute(name, 5, 0.05, False, tiny=True, repeats=TINY_REPEATS)
    long, _ = run.execute(name, 5, 1.5, False, tiny=True, repeats=TINY_REPEATS)
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])


def test_speed_factors_follow_nearby_samples():
    speed = calib.SpeedTrack()
    speed.positions = list(range(0, 400, 2))
    speed.samples_ns = [calib.NOMINAL_NS] * 100 + [2 * calib.NOMINAL_NS] * 100
    factors = speed.factors(400)
    assert factors[0] == 1.0 and factors[-1] == 2.0
    assert all(a <= b for a, b in zip(factors, factors[1:]))


def test_missing_sources_exit_without_result(monkeypatch, capsys):
    empty = run.WORK / "test-empty"
    empty.mkdir(parents=True, exist_ok=True)
    monkeypatch.setattr(run, "ROOT", empty)
    try:
        assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"]) != 0
    finally:
        shutil.rmtree(empty)
    assert capsys.readouterr().out == ""
