import contextlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qharm import (
    AnalyticSeries,
    ClassParams,
    HarmonicFunction,
    OperatorParams,
    QParam,
    class_transform,
    coeff_functional,
    convex_combination,
    extreme_point,
    harmonic_from_json,
    harmonic_to_json,
    member_t_iff,
    satisfies_sufficient,
    sharpness_witness,
)
from qharm.qcore import DEFAULT_TOLERANCE, MEMBERSHIP_TOL
from qharm.series import MAX_JSON_TRUNC
from qharm.verify import MAX_ANGULAR_COUNT, MAX_GRID_POINTS, MAX_PAIR_BUDGET, MAX_TRIALS
from qharm import cli, series, verify
from qharm.cli import build_parser, run

IDENTITY_DOC = {"trunc": 4, "h": [[1, 0]], "g": []}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_qint_prints_value(capsys):
    assert run(["qint", "--u", "3", "--q", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1.75"


def test_qint_with_power(capsys):
    assert run(["qint", "--u", "2", "--q", "0.5", "--m", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2.25"


def test_qint_bad_q_is_usage_error(capsys):
    assert run(["qint", "--u", "3", "--q", "1.5"]) == 2


def test_qint_overflow_is_usage_error(capsys):
    assert run(["qint", "--u", "32", "--q", "0.99", "--m", "2000"]) == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["salagean", "transform"])
def test_classical_weight_overflow_is_domain_error(tmp_path, capsys, command):
    # a nonzero coefficient at u = 32, and 32**400 does not fit in a float
    doc = {"trunc": 32, "h": [[1, 0]] + [[0, 0]] * 30 + [[-1e-3, 0]], "g": []}
    path = write_json(tmp_path / "f.json", doc)
    assert run([command, "--in", path, "--m", "400", "--q", "0.5", "--classical"]) == 2
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["salagean", "transform"])
def test_trailing_zeros_do_not_decide_the_domain(tmp_path, capsys, command):
    # the u = 3 extreme point is stored at trunc 32; only 3**400 is needed
    out = str(tmp_path / "f.json")
    cls = ["--m", "0", "--alpha", "0", "--q", "0.5"]
    assert run(["extremal", "--u", "3", "--kind", "analytic", *cls, "--out", out]) == 0
    assert run([command, "--in", out, "--m", "400", "--q", "0.5", "--classical"]) == 0
    doc = json.loads(capsys.readouterr().out)
    if command == "salagean":  # series JSON stops at the last coefficient that is not +0+0j
        assert doc["trunc"] == 32
        coeffs = harmonic_from_json(doc).h.coeffs
    else:
        coeffs = [complex(re, im) for re, im in doc["coeffs"]]
    assert len(coeffs) == 32
    assert coeffs[2] == -float(3**400)
    assert all(c == 0 for c in coeffs[3:])


def test_verify_accepts_b1_one_extreme_point(tmp_path, capsys):
    out = str(tmp_path / "f.json")
    cls = ["--m", "0", "--alpha", "0", "--q", "0.5"]
    assert run(["extremal", "--u", "1", "--kind", "coanalytic", "--positive-coanalytic", *cls, "--out", out]) == 0
    assert run(["check", "--in", out, *cls]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", out, *cls]) != 2
    reports = {r["check"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports["growth_bounds"]["passed"]


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["florp"]) == 2


def test_extremal_emits_expected_series(capsys):
    assert run(["extremal", "--u", "2", "--kind", "analytic", "--m", "1", "--alpha", "0", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"][0] == [1.0, 0.0]
    assert doc["h"][1][0] == pytest.approx(-1.0 / 1.5, abs=1e-15)


def test_extremal_writes_no_padding(capsys):
    # z - (1/[2]_q) z**2 at trunc 32: the +0+0j padding is left to the reader
    assert run(["extremal", "--u", "2", "--kind", "analytic", "--m", "1", "--alpha", "0", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"trunc": 32, "h": [[1.0, 0.0], [-1.0 / 1.5, 0.0]], "g": [[0.0, 0.0]]}
    assert harmonic_from_json(doc) == extreme_point(2, "analytic", ClassParams(m=1, alpha=0.0, q=QParam(0.5)))


def test_extremal_round_trip_bitwise(tmp_path, capsys):
    out = tmp_path / "f.json"
    assert run(
        ["extremal", "--u", "3", "--kind", "coanalytic", "--positive-coanalytic",
         "--m", "2", "--alpha", "0.25", "--q", "0.7", "--out", str(out)]
    ) == 0
    reloaded = harmonic_from_json(json.loads(out.read_text()))
    p = ClassParams(m=2, alpha=0.25, q=QParam(0.7))
    direct = extreme_point(3, "coanalytic", p, coanalytic_sign=1)
    assert reloaded.h.coeffs == direct.h.coeffs
    assert reloaded.g.coeffs == direct.g.coeffs
    # and the emitted file is accepted by check and verify
    assert run(["check", "--in", str(out), "--m", "2", "--alpha", "0.25", "--q", "0.7"]) == 0
    assert run(["verify", "--in", str(out), "--m", "2", "--alpha", "0.25", "--q", "0.7"]) == 0
    capsys.readouterr()


def test_verify_identity_passes(tmp_path, capsys):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    code = run(["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"])
    reports = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(r["passed"] for r in reports)
    assert {r["check"] for r in reports} == {"re_condition", "sense_preserving", "injectivity", "growth_bounds"}


def test_verify_failing_function_exits_one(tmp_path, capsys):
    doc = {"trunc": 4, "h": [[1, 0], [-1.5, 0]], "g": []}
    path = write_json(tmp_path / "bad.json", doc)
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0", "--q", "0.5"]) == 1
    capsys.readouterr()


def test_verify_csv_dump(tmp_path, capsys):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    csv_path = tmp_path / "grid.csv"
    assert run(
        ["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5",
         "--radii", "0.5,0.9", "--angles", "8", "--csv", str(csv_path)]
    ) == 0
    capsys.readouterr()
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("re,im,re_condition_margin,sense_preserving_margin")
    assert len(lines) == 1 + 16


def test_verify_empty_csv_path_writes_no_table(tmp_path, monkeypatch, capsys):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    monkeypatch.chdir(tmp_path)
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5", "--csv", ""]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4
    assert sorted(p.name for p in tmp_path.iterdir()) == ["id.json"]


def test_verify_no_axis_writes_the_table_of_the_offset_grid(tmp_path, capsys):
    f = HarmonicFunction.from_t_magnitudes({2: 0.25}, {1: 0.25}, trunc=4)
    p = ClassParams(m=0, alpha=0.25, q=QParam(0.5))
    path = write_json(tmp_path / "f.json", harmonic_to_json(f))
    csv_path = tmp_path / "grid.csv"
    argv = ["verify", "--in", path, "--m", "0", "--alpha", "0.25", "--q", "0.5", "--no-axis", "--csv", str(csv_path)]
    assert run(argv) == 0
    capsys.readouterr()

    def table(grid):
        buf = io.StringIO()
        verify.disc_checks(f, p, grid, 256, csv=lambda: contextlib.nullcontext(buf))
        return buf.getvalue().encode()

    expected = table(verify.DiskGrid(include_positive_axis=False))
    assert csv_path.read_bytes() == expected
    assert expected != table(verify.DiskGrid())


def run_counting_horner(argv):
    """Exit status of qharm argv, and the Horner evaluations the run made."""
    # the harmonic Horner reaches _horner through qharm.series
    with mock.patch.object(series, "_horner", wraps=series._horner) as in_series, \
            mock.patch.object(verify, "_horner", wraps=verify._horner) as in_verify:
        status = run(argv)
    return status, in_series.call_count + in_verify.call_count


def test_verify_csv_reuses_the_grid_evaluations_of_the_checks(tmp_path, capsys):
    f = HarmonicFunction.from_t_magnitudes({2: 0.25}, {1: 0.25}, trunc=4)
    path = write_json(tmp_path / "f.json", harmonic_to_json(f))
    argv = ["verify", "--in", path, "--m", "0", "--alpha", "0.25", "--q", "0.5"]
    calls = []
    for csv in ([], ["--csv", str(tmp_path / "grid.csv")]):
        status, count = run_counting_horner([*argv, *csv])
        assert status == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["check"] for r in reports][-1] == "growth_bounds"
        calls.append(count)
    assert calls[0] == calls[1]


@pytest.mark.parametrize(
    "f,checks",
    [
        (HarmonicFunction.from_t_magnitudes({2: 0.25}, {1: 0.25}, trunc=4), 4),  # t_form member
        (HarmonicFunction.from_t_magnitudes({2: 0.6}, {1: 0.25}, trunc=4), 3),  # t_form, functional > 1
        (HarmonicFunction(AnalyticSeries([1, 0.1j], trunc=4)), 3),  # not t_form
    ],
)
def test_verify_evaluates_each_polynomial_once(tmp_path, capsys, f, checks):
    # T, h' and g' on the grid, then h and g once: on the grid for the
    # growth margins, which injectivity reads, or else at the pair ends
    path = write_json(tmp_path / "f.json", harmonic_to_json(f))
    status, count = run_counting_horner(["verify", "--in", path, "--m", "0", "--alpha", "0.25", "--q", "0.5"])
    assert status in (0, 1)
    assert len(json.loads(capsys.readouterr().out)) == checks
    assert count == 5


def test_malformed_json_names_field(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"trunc": 4, "h": [[0.5, 0]], "g": []})
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    assert "h[0]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "verify"])
def test_coefficient_beyond_the_float_range_names_field(tmp_path, capsys, command):
    path = write_json(tmp_path / "big.json", {"trunc": 4, "h": [[1, 0], [10**400, 0]], "g": []})
    assert run([command, "--in", path, "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    assert "h[1]" in capsys.readouterr().err


def test_unparseable_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(["verify", "--in", str(path), "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        b'{"trunc": 4, "h": [[1, 0], [' + b"7" * 5000 + b', 0]], "g": []}',  # past Python's int-string limit
        b"\xff\xfe{}",  # not UTF-8
    ],
    ids=["5000-digit-integer", "not-utf8"],
)
def test_unreadable_json_names_the_file(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["check", "--in", str(path), "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed JSON: ")
    assert err.count("\n") == 1


def test_missing_file_is_usage_error(tmp_path, capsys):
    assert run(["check", "--in", str(tmp_path / "nope.json"), "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    capsys.readouterr()


def test_check_member_and_violator(tmp_path, capsys):
    member = write_json(tmp_path / "m.json", {"trunc": 4, "h": [[1, 0], [-0.2, 0]], "g": []})
    assert run(["check", "--in", member, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_form"] is True and doc["t_member"] is True

    violator = write_json(tmp_path / "v.json", {"trunc": 4, "h": [[1, 0], [-0.8, 0]], "g": []})
    assert run(["check", "--in", violator, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["functional"] == pytest.approx(1.6, abs=1e-12)


@pytest.mark.parametrize(
    "h, t_form, decided",
    [
        ([[1, 0], [-0.2, 0]], True, True),
        ([[1, 0], [-0.8, 0]], True, False),
        ([[1, 0], [0.2, 0.1]], False, True),
        ([[1, 0], [0.8, 0]], False, False),
    ],
)
def test_check_decides_with_one_sufficiency_call(tmp_path, capsys, h, t_form, decided):
    # On t_form input member_t_iff is satisfies_sufficient, so check asks once.
    path = write_json(tmp_path / "f.json", {"trunc": 4, "h": h, "g": []})
    with mock.patch.object(cli, "satisfies_sufficient", wraps=satisfies_sufficient) as sufficient, mock.patch.object(
        cli, "member_t_iff", wraps=member_t_iff, create=True
    ) as member:
        assert run(["check", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == (0 if decided else 1)
    assert sufficient.call_count == 1 and member.call_count == 0
    assert json.loads(capsys.readouterr().out) == {
        "functional": pytest.approx(abs(h[1][0] + 1j * h[1][1]) / 0.5),
        "sufficient": decided,
        "t_form": t_form,
        "t_member": decided if t_form else None,
    }


def test_probe_member_vs_violator(tmp_path, capsys):
    member = write_json(tmp_path / "m.json", {"trunc": 4, "h": [[1, 0], [-0.2, 0]], "g": []})
    assert run(["probe", "--in", member, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 0
    capsys.readouterr()
    violator = write_json(tmp_path / "v.json", {"trunc": 4, "h": [[1, 0], [-0.8, 0]], "g": []})
    assert run(["probe", "--in", violator, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["first_failure"] is not None


def test_probe_fails_a_non_member_that_no_sampled_radius_shows(tmp_path, capsys):
    # functional 1 + 1e-6: the axis margin dips below -MEMBERSHIP_TOL only past r = 0.9999
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    path = write_json(tmp_path / "f.json", harmonic_to_json(verify.random_t_form(p, 1 + 1e-6, np.random.default_rng(7))))
    cls = ["--m", "3", "--alpha", "0.25", "--q", "0.9"]
    assert run(["check", "--in", path, *cls]) == 1
    assert json.loads(capsys.readouterr().out)["t_member"] is False
    assert run(["probe", "--in", path, *cls]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False and doc["first_failure"] is None and doc["limit_margin"] < -MEMBERSHIP_TOL


def test_dq_emits_power_series(tmp_path, capsys):
    path = write_json(tmp_path / "f.json", {"trunc": 2, "h": [[1, 0], [1, 0]], "g": []})
    assert run(["dq", "--in", path, "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"]["start_power"] == 0
    assert doc["h"]["coeffs"] == [[1.0, 0.0], [1.5, 0.0]]


def test_salagean_command_round_trips(tmp_path, capsys):
    path = write_json(tmp_path / "f.json", {"trunc": 2, "h": [[1, 0], [1, 0]], "g": [[0.5, 0]]})
    assert run(["salagean", "--in", path, "--m", "1", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    out = harmonic_from_json(doc)
    assert out.h.coeffs[1] == 1.5
    assert out.g.coeffs[0] == -0.5  # odd order flips the co-analytic sign


def test_transform_command(tmp_path, capsys):
    src = {"trunc": 2, "h": [[1, 0], [-0.2, 0]], "g": []}
    path = write_json(tmp_path / "f.json", src)
    assert run(["transform", "--in", path, "--m", "1", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["start_power"] == 0
    assert doc["coeffs"][0] == [1.0, 0.0]
    assert doc["coeffs"][1][0] == pytest.approx(-0.3, abs=1e-15)
    expected = class_transform(harmonic_from_json(src), OperatorParams(1, QParam(0.5))).coeffs
    assert doc["coeffs"] == [[c.real, c.imag] for c in expected]


def test_combine_command(capsys):
    assert run(
        ["combine", "--point", "2:analytic:0.5", "--point", "1:analytic:0.5",
         "--m", "0", "--alpha", "0", "--q", "0.5"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"][1] == [-0.5, 0.0]


def test_combine_bad_spec_is_usage_error(capsys):
    assert run(["combine", "--point", "2-analytic-0.5", "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    capsys.readouterr()


def test_witness_command(capsys):
    assert run(
        ["witness", "--x", "2=0.5", "--y", "1=0.5", "--m", "0", "--alpha", "0", "--q", "0.5"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"][1] == [0.5, 0.0]
    assert doc["g"][0] == [0.5, 0.0]


def test_witness_complex_weight(capsys):
    assert run(["witness", "--y", "1=0.5j", "--y", "2=0.5", "--m", "0", "--alpha", "0", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["g"][0] == [0.0, 0.5]


def test_witness_round_trip_bitwise(capsys):
    assert run(
        ["witness", "--x", "3=0.25j", "--y", "1=0.3", "--y", "2=-0.45",
         "--m", "1", "--alpha", "0.25", "--q", "0.7"]
    ) == 0
    reloaded = harmonic_from_json(json.loads(capsys.readouterr().out))
    p = ClassParams(m=1, alpha=0.25, q=QParam(0.7))
    direct = sharpness_witness([0j, 0.25j], [0.3, -0.45], p)
    assert reloaded.h.coeffs == direct.h.coeffs
    assert reloaded.g.coeffs == direct.g.coeffs


def test_combine_round_trip_bitwise(capsys):
    assert run(
        ["combine", "--point", "2:analytic:0.4", "--point", "1:coanalytic:0.6",
         "--m", "1", "--alpha", "0.25", "--q", "0.7"]
    ) == 0
    reloaded = harmonic_from_json(json.loads(capsys.readouterr().out))
    p = ClassParams(m=1, alpha=0.25, q=QParam(0.7))
    direct = convex_combination([(2, "analytic", 0.4), (1, "coanalytic", 0.6)], p)
    assert reloaded.h.coeffs == direct.h.coeffs
    assert reloaded.g.coeffs == direct.g.coeffs
    assert reloaded.t_form


def test_growth_command(capsys):
    assert run(["growth", "--b1", "0", "--r", "0.5", "--m", "0", "--alpha", "0", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["upper"] == pytest.approx(0.75, abs=1e-15)
    assert doc["lower"] == pytest.approx(0.25, abs=1e-15)


def test_scan_command_deterministic(capsys):
    argv = ["scan", "--m", "0", "--alpha", "0", "--q", "0.5", "--trials", "8", "--seed", "4"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_scan_answers_where_a_weight_past_its_candidates_overflows(capsys):
    # the candidates reach u = 7, whose weight [7]_0.99**250 (about 1.05e208) fits; the
    # step map's weights overflow from u = 19 and are no violations
    assert run(["scan", "--m", "250", "--alpha", "0", "--q", "0.99", "--trials", "5", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 5 and doc["step_violations"] == []


def test_scan_requires_seed(capsys):
    assert run(["scan", "--m", "0", "--alpha", "0", "--q", "0.5", "--trials", "8"]) == 2


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    monkeypatch.setenv("QHARM_TOL", "not-a-number")
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 2
    capsys.readouterr()
    monkeypatch.setenv("QHARM_TOL", "1e-6")
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert all(r["tolerance"] == 1e-6 for r in reports)


@pytest.mark.parametrize(
    "argv",
    [["qint", "--u", "3", "--q", "0.5"], ["check", "--in", "{id}", "--m", "0", "--alpha", "0.5", "--q", "0.5"]],
)
def test_tolerance_env_reaches_only_verify_and_scan(tmp_path, capsys, monkeypatch, argv):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    monkeypatch.setenv("QHARM_TOL", "abc")
    assert run([a.format(id=path) for a in argv]) == 0
    assert capsys.readouterr().err == ""
    cls = ["--m", "0", "--alpha", "0.5", "--q", "0.5"]
    for sampled in (["verify", "--in", path, *cls], ["scan", "--trials", "1", "--seed", "0", *cls]):
        assert run(sampled) == 2
        assert "QHARM_TOL: not a real number" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qharm", "qint", "--u", "3", "--q", "0.5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.75"


# --- output errors --------------------------------------------------------------


class ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_stdout_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["qint", "--u", "3", "--q", "0.5"]) == 2
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    assert run(["probe", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: cannot write <stdout>: [Errno 32] Broken pipe"] * 2


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_two_without_traceback(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # argparse prints --help itself and would swallow the write error
    for argv in (["qint", "--u", "3", "--q", "0.5"], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qharm", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2, argv
        assert proc.stderr.splitlines() == ["error: cannot write <stdout>: [Errno 32] Broken pipe"], argv


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_unwritable_output_path_is_usage_error(tmp_path, capsys, flag):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    target = tmp_path / "missing" / "result"
    assert run(["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5", flag, str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {target}: ")


# --- one parser per process -----------------------------------------------------


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_append_flags_do_not_accumulate_across_runs(capsys):
    argv = ["combine", "--point", "2:analytic:0.5", "--point", "1:analytic:0.5", "--m", "0", "--alpha", "0", "--q", "0.5"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    # with the first run's points still attached the weights would sum to 2
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_csv_flag_does_not_carry_over(tmp_path, capsys):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    csv_path = tmp_path / "grid.csv"
    argv = ["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5", "--radii", "0.5", "--angles", "4"]
    assert run([*argv, "--csv", str(csv_path)]) == 0
    assert csv_path.exists()
    csv_path.unlink()
    assert run(argv) == 0
    assert not csv_path.exists()
    capsys.readouterr()


def test_tolerance_is_read_on_every_run(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    argv = ["verify", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]
    monkeypatch.setenv("QHARM_TOL", "1e-6")
    assert run(argv) == 0
    assert {r["tolerance"] for r in json.loads(capsys.readouterr().out)} == {1e-6}
    monkeypatch.delenv("QHARM_TOL")
    assert run(argv) == 0
    assert {r["tolerance"] for r in json.loads(capsys.readouterr().out)} == {DEFAULT_TOLERANCE}


def test_help_twice(capsys):
    assert run(["--help"]) == 0
    first = capsys.readouterr().out
    assert run(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("usage: qharm")


def test_series_trunc_above_limit_is_usage_error(tmp_path, capsys):
    # short lists: at the parent the parser padded to trunc before any check
    path = write_json(tmp_path / "f.json", {"trunc": MAX_JSON_TRUNC + 1, "h": [[1, 0]], "g": []})
    assert run(["check", "--in", path, "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid series JSON: field trunc: expected an integer in [1, {MAX_JSON_TRUNC}], "
        f"got {MAX_JSON_TRUNC + 1}\n"
    )


# --- the membership threshold ---------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--u", str(MAX_JSON_TRUNC), "--kind", "analytic"],
        ["extremal", "--u", str(MAX_JSON_TRUNC), "--kind", "coanalytic", "--positive-coanalytic"],
        ["combine", "--point", f"{MAX_JSON_TRUNC}:coanalytic:1"],
        ["witness", "--y", f"{MAX_JSON_TRUNC}=1"],
    ],
)
def test_construction_at_the_limit_reads_back(tmp_path, capsys, argv):
    out = str(tmp_path / "f.json")
    cls = ["--m", "1", "--alpha", "0.5", "--q", "0.5"]
    assert run([*argv, *cls, "--out", out]) == 0
    assert run(["check", "--in", out, *cls]) == 0
    assert json.loads(capsys.readouterr().out)["functional"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("u", [MAX_JSON_TRUNC + 1, 10**12])
@pytest.mark.parametrize(
    "argv",
    [
        ["extremal", "--u", "{u}", "--kind", "analytic"],
        ["combine", "--point", "{u}:coanalytic:1"],
        ["witness", "--x", "{u}=1"],
        ["witness", "--y", "{u}=1"],
    ],
)
def test_construction_beyond_the_limit_is_usage_error(tmp_path, capsys, argv, u):
    out = tmp_path / "f.json"
    argv = [a.format(u=u) for a in argv]
    assert run([*argv, "--m", "1", "--alpha", "0.5", "--q", "0.5", "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(MAX_JSON_TRUNC) in err and "Traceback" not in err


@pytest.mark.parametrize("excess,accepted", [(0.5, True), (2.0, False)])
def test_membership_threshold_is_membership_tol(tmp_path, capsys, excess, accepted):
    # alpha = 0.5 and a single b_1: the functional is 2 b_1 = 1 + excess * MEMBERSHIP_TOL
    doc = {"trunc": 2, "h": [[1, 0]], "g": [[(1.0 + excess * MEMBERSHIP_TOL) / 2, 0]]}
    f = harmonic_from_json(doc)
    p = ClassParams(m=3, alpha=0.5, q=QParam(0.5))
    assert f.t_form
    assert coeff_functional(f, p) == 1.0 + excess * MEMBERSHIP_TOL
    assert satisfies_sufficient(f, p) is accepted
    assert member_t_iff(f, p) is accepted
    path = write_json(tmp_path / "f.json", doc)
    assert run(["check", "--in", path, "--m", "3", "--alpha", "0.5", "--q", "0.5"]) == (0 if accepted else 1)
    assert json.loads(capsys.readouterr().out)["t_member"] is accepted


# --- one emit path ----------------------------------------------------------------

CLS = ["--m", "0", "--alpha", "0.5", "--q", "0.5"]
GRID = ["--radii", "0.5,0.9", "--angles", "8"]
EMIT_CASES = {
    "dq": ["dq", "--in", "{member}", "--q", "0.5"],
    "salagean": ["salagean", "--in", "{member}", "--m", "2", "--q", "0.5"],
    "transform": ["transform", "--in", "{member}", "--m", "2", "--q", "0.5"],
    "check-member": ["check", "--in", "{member}", *CLS],
    "check-violator": ["check", "--in", "{violator}", *CLS],
    "extremal": ["extremal", "--u", "3", "--kind", "coanalytic", *CLS],
    "combine": ["combine", "--point", "2:analytic:0.5", "--point", "1:coanalytic:0.5", *CLS],
    "witness": ["witness", "--x", "2=0.5", "--y", "1=0.5j", *CLS],
    "growth": ["growth", "--b1", "0.2", "--r", "0.5", *CLS],
    "verify-member": ["verify", "--in", "{member}", *CLS, *GRID],
    "verify-violator": ["verify", "--in", "{violator}", *CLS, *GRID],
    "probe-member": ["probe", "--in", "{member}", *CLS],
    "probe-violator": ["probe", "--in", "{violator}", *CLS],
    "scan": ["scan", "--trials", "3", "--seed", "1", *CLS],
}
VERDICTS = {
    "check": lambda doc: doc["t_member"] if doc["t_form"] else doc["sufficient"],
    "verify": lambda doc: all(r["passed"] for r in doc),
    "probe": lambda doc: doc["passed"],
}


def test_emit_cases_cover_every_out_command():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    with_out = {name for name, sub in subparsers.items() if any("--out" in a.option_strings for a in sub._actions)}
    assert with_out == {argv[0] for argv in EMIT_CASES.values()}


@pytest.mark.parametrize("case", sorted(EMIT_CASES))
def test_out_file_holds_stdout_bytes_and_exit_is_verdict(tmp_path, capsys, case):
    inputs = {
        "member": write_json(tmp_path / "m.json", {"trunc": 4, "h": [[1, 0], [-0.2, 0]], "g": [[0.1, 0]]}),
        "violator": write_json(tmp_path / "v.json", {"trunc": 4, "h": [[1, 0], [-0.8, 0]], "g": []}),
    }
    argv = [a.format(**inputs) for a in EMIT_CASES[case]]
    code = run(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "result.json"
    assert run([*argv, "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    verdict = VERDICTS.get(argv[0], lambda doc: True)(json.loads(stdout))
    assert code == (0 if verdict else 1)
    if case.endswith("-member"):
        assert code == 0
    if case.endswith("-violator"):
        assert code == 1


def test_library_and_json_agree_on_t_form(tmp_path, capsys):
    f = HarmonicFunction(AnalyticSeries.identity(4))
    p = ClassParams(m=0, alpha=0.5, q=QParam(0.5))
    path = write_json(tmp_path / "id.json", harmonic_to_json(f))
    assert run(["check", "--in", path, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["t_form"] is f.t_form is True
    assert doc["t_member"] is member_t_iff(f, p) is True


@pytest.mark.parametrize(
    "argv,name,limit",
    [
        (["qint", "--q", "0.5", "--u", "{n}"], "u", MAX_JSON_TRUNC),
        (["scan", "--seed", "0", "--trials", "{n}"], "trials", MAX_TRIALS),
        (["scan", "--seed", "0", "--trials", "1", "--pair-budget", "{n}"], "pair_budget", MAX_PAIR_BUDGET),
        (["verify", "--in", "{id}", "--radii", "0.5", "--pair-budget", "{n}"], "pair_budget", MAX_PAIR_BUDGET),
        (["verify", "--in", "{id}", "--radii", "0.5", "--angles", "{n}"], "angular_count", MAX_ANGULAR_COUNT),
    ],
)
@pytest.mark.parametrize("excess", [1, 10**12])
def test_sizes_beyond_their_limit_are_usage_errors(tmp_path, capsys, argv, name, limit, excess):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    cls = [] if argv[0] == "qint" else ["--m", "0", "--alpha", "0.5", "--q", "0.5"]
    assert run([*(a.format(n=limit + excess, id=path) for a in argv), *cls]) == 2
    assert capsys.readouterr().err == f"error: {name} {limit + excess} exceeds the limit {limit}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["qint", "--q", "0.5", "--u", "0"], "u must be >= 1, got 0"),
        (["scan", "--seed", "0", "--trials", "0"], "trials must be >= 1, got 0"),
        (["scan", "--seed", "0", "--trials", "1", "--pair-budget", "0"], "pair_budget must be >= 1, got 0"),
        (["verify", "--in", "{id}", "--radii", "0.5", "--pair-budget", "0"], "pair_budget must be >= 1, got 0"),
        (["verify", "--in", "{id}", "--radii", "0.5", "--angles", "3"], "angular_count must be >= 4, got 3"),
        (["verify", "--in", "{id}", "--radii", "0.5", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["scan", "--seed", "-1", "--trials", "1"], "seed must be >= 0, got -1"),
        (["witness", "--x=1=0.5"], "--x power must be >= 2, got 1"),
    ],
)
def test_sizes_below_their_minimum_are_usage_errors(tmp_path, capsys, argv, message):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    cls = [] if argv[0] == "qint" else ["--m", "0", "--alpha", "0.5", "--q", "0.5"]
    assert run([*(a.format(id=path) for a in argv), *cls]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,env,message",
    [
        (["verify", "--in", "{id}", "--radii", "0.5,x"], None, "--radii: expected comma-separated reals, got '0.5,x'"),
        (["verify", "--in", "{id}"], "-1", "QHARM_TOL must lie in [0, inf), got -1.0"),
        (["witness", "--x", "2"], None, "--x: expected U=COMPLEX, got '2'"),
        (["combine", "--point", "2:analytic:x"], None, "--point: expected U:KIND:WEIGHT, got '2:analytic:x'"),
        (["combine", "--point", "2:analytic"], None, "--point: expected U:KIND:WEIGHT, got '2:analytic'"),
        (["combine", "--point", "2:analytic:0.5:x"], None, "--point: expected U:KIND:WEIGHT, got '2:analytic:0.5:x'"),
    ],
)
def test_unparseable_arguments_are_one_line_usage_errors(tmp_path, capsys, monkeypatch, argv, env, message):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    if env is not None:
        monkeypatch.setenv("QHARM_TOL", env)
    assert run([*(a.format(id=path) for a in argv), "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_grid_size_beyond_its_limit_is_usage_error(tmp_path, capsys):
    path = write_json(tmp_path / "id.json", IDENTITY_DOC)
    radii = ",".join(str(i / 4098) for i in range(1, 4098))
    assert run(["verify", "--in", path, "--radii", radii, "--m", "0", "--alpha", "0.5", "--q", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: grid size {4097 * 256} exceeds the limit {MAX_GRID_POINTS}\n"


def test_qint_at_its_limit(capsys):
    assert run(["qint", "--q", "0.5", "--u", str(MAX_JSON_TRUNC)]) == 0
    assert float(capsys.readouterr().out) == 2.0


# --- one driver for qharm and the experiment scripts ----------------------------


def drive_stub(handler, argv=(), emit=None):
    """cli.drive over a one-flag parser whose handler is ``handler``; returns
    the exit status and the emitter's calls."""
    parser = cli.Parser(prog="stub")
    parser.add_argument("--out", default="stub.out")
    parser.set_defaults(handler=handler)
    calls = []
    code = cli.drive(parser, list(argv), emit or (lambda payload, out: calls.append((payload, out))))
    return code, calls


def raising(exc):
    def handler(args):
        raise exc

    return handler


@pytest.mark.parametrize("passed, code", [(True, 0), (False, 1)])
def test_drive_maps_the_verdict_and_emits_once(capsys, passed, code):
    assert drive_stub(lambda args: ({"k": 1}, passed), ["--out", "o.json"]) == (code, [({"k": 1}, "o.json")])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "exc, message",
    [
        (ValueError("x"), "error: x\n"),
        (series.SchemaError("h[0]", "m"), "error: invalid series JSON: field h[0]: m\n"),
    ],
)
def test_drive_turns_a_handler_error_into_one_line_and_exit_two(capsys, exc, message):
    assert drive_stub(raising(exc)) == (2, [])
    assert capsys.readouterr().err == message


def test_drive_reports_an_emitter_write_failure_as_exit_two(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert drive_stub(lambda args: ([{"a": 1}], True), ["--out", str(out)], emit=cli.write_csv) == (2, [])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("argv, code", [(["--bogus"], 2), (["--help"], 0)])
def test_drive_maps_parser_exits(capsys, argv, code):
    assert drive_stub(raising(AssertionError("handler must not run")), argv) == (code, [])
    capsys.readouterr()


def test_a_crash_in_a_handler_is_exit_three_with_its_traceback(capsys):
    # exit 1 is reserved for a failed check; a bug must not end with it
    with mock.patch.object(cli, "q_integer", side_effect=RuntimeError("boom")):
        assert run(["qint", "--u", "3", "--q", "0.5"]) == cli.EXIT_CRASH == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):") and err.endswith("RuntimeError: boom\n")


def test_drive_lets_an_interrupt_through():
    with pytest.raises(KeyboardInterrupt):
        drive_stub(raising(KeyboardInterrupt()))


def test_write_csv_writes_crlf_rows_then_reports_the_path(tmp_path, capsys):
    out = tmp_path / "t.csv"
    cli.write_csv([{"a": 1, "b": ""}, {"a": 2.5, "b": "x"}], str(out))
    assert out.read_bytes() == b"a,b\r\n1,\r\n2.5,x\r\n"
    assert capsys.readouterr().out == f"wrote {out}\n"


# --- the exit contract over every integer flag -------------------------------------

ALPHA_Q = ["--alpha", "0.5", "--q", "0.5"]
# subcommand -> (its other arguments, {integer flag: limit or None})
INT_FLAGS = {
    "qint": (["--q", "0.5"], {"--u": MAX_JSON_TRUNC, "--m": None}),
    "dq": (["--in", "{member}", "--q", "0.5"], {}),
    "salagean": (["--in", "{member}", "--q", "0.5"], {"--m": None}),
    "transform": (["--in", "{member}", "--q", "0.5"], {"--m": None}),
    "check": (["--in", "{member}", *ALPHA_Q], {"--m": None}),
    "extremal": (["--kind", "coanalytic", *ALPHA_Q], {"--u": MAX_JSON_TRUNC, "--m": None}),
    "combine": (ALPHA_Q, {"--point": MAX_JSON_TRUNC, "--m": None}),
    "witness": (ALPHA_Q, {"--x": MAX_JSON_TRUNC, "--y": MAX_JSON_TRUNC, "--m": None}),
    "growth": (["--b1", "0.2", "--r", "0.5", *ALPHA_Q], {"--m": None}),
    "verify": (
        ["--in", "{member}", *ALPHA_Q],
        {"--m": None, "--angles": MAX_ANGULAR_COUNT, "--pair-budget": MAX_PAIR_BUDGET, "--seed": None},
    ),
    "probe": (["--in", "{member}", *ALPHA_Q], {"--m": None}),
    "scan": (ALPHA_Q, {"--m": None, "--trials": MAX_TRIALS, "--seed": None, "--pair-budget": MAX_PAIR_BUDGET}),
}
# flags whose value holds a power among other fields
VALUE_FORMS = {"--point": "{n}:coanalytic:1", "--x": "{n}=0.5", "--y": "{n}=0.5"}


def test_int_flags_cover_every_subcommand():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(INT_FLAGS) == set(subparsers)
    for name, sub in subparsers.items():
        typed = {a.option_strings[0] for a in sub._actions if a.type is int}
        assert typed <= set(INT_FLAGS[name][1]), name


@st.composite
def int_flag_argv(draw):
    """A subcommand with each integer flag omitted or set to an edge value;
    --flag=value, so that argparse takes a negative value as a value."""
    command = draw(st.sampled_from(sorted(INT_FLAGS)))
    fixed, limits = INT_FLAGS[command]
    argv = [command, *fixed]
    for flag, limit in limits.items():
        n = draw(st.sampled_from([None, -1, 0, 1, 2, 10**12] + ([] if limit is None else [limit + 1])))
        if n is not None:
            argv.append(f"{flag}=" + VALUE_FORMS.get(flag, "{n}").format(n=n))
    return argv


@pytest.fixture(scope="module")
def member_path(tmp_path_factory):
    return write_json(tmp_path_factory.mktemp("member") / "m.json", {"trunc": 4, "h": [[1, 0], [-0.2, 0]], "g": [[0.1, 0]]})


@settings(max_examples=300, deadline=None)
@given(argv=int_flag_argv())
def test_every_integer_flag_keeps_the_exit_contract(member_path, argv):
    # exit 1 means only "a check failed"; any tool or input error is one error line and exit 2
    argv = [a.format(member=member_path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    lines = err.getvalue().splitlines()
    if code == 2:
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and errors == lines[-1:], argv
    else:
        assert code == 0 or (code == 1 and argv[0] in ("check", "verify", "probe")), argv
        assert lines == [], argv


# --- the exit contract over every real flag ------------------------------------------

REAL_VALUES = ["0.5", "0", "-0.0", "5e-324", "1", "1e308", "nan", "inf", "-inf"]
# subcommand -> (its other arguments, its real flags); QHARM_TOL is drawn for every one
REAL_FLAGS = {
    "qint": (["--u", "3"], ["--q"]),
    "dq": (["--in", "{series}"], ["--q"]),
    "salagean": (["--in", "{series}"], ["--q"]),
    "transform": (["--in", "{series}"], ["--q"]),
    "check": (["--in", "{series}"], ["--alpha", "--q"]),
    "extremal": (["--u", "2", "--kind", "coanalytic"], ["--alpha", "--q"]),
    "combine": ([], ["--alpha", "--q", "--point"]),
    "witness": ([], ["--alpha", "--q", "--x", "--y"]),
    "growth": ([], ["--alpha", "--q", "--b1", "--r"]),
    "verify": (["--in", "{series}"], ["--alpha", "--q", "--radii"]),
    "probe": (["--in", "{series}"], ["--alpha", "--q", "--radii"]),
    "scan": (["--trials", "2", "--seed", "0"], ["--alpha", "--q"]),
}
# repeatable flags whose value holds a real among other fields: the forms of their items
LIST_FORMS = {"--point": ["2:analytic:{v}", "3:coanalytic:{v}"], "--x": ["2={v}", "3={v}j"], "--y": ["1={v}j", "2={v}"]}


def test_real_flags_cover_every_subcommand():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(REAL_FLAGS) == set(subparsers)
    for name, sub in subparsers.items():
        options = {a.option_strings[0]: a.type for a in sub._actions if a.option_strings}
        real = {flag for flag, kind in options.items() if kind is float or flag in LIST_FORMS or flag == "--radii"}
        assert real == set(REAL_FLAGS[name][1]), name


@st.composite
def real_flag_case(draw):
    """(argv, QHARM_TOL or None, series document): a subcommand with each
    real flag omitted or set to an edge value, as --flag=value, and a
    series whose coefficients may reach +-1.7e308."""
    command = draw(st.sampled_from(sorted(REAL_FLAGS)))
    fixed, flags = REAL_FLAGS[command]
    argv = [command, *fixed]
    if command not in ("qint", "dq"):
        argv.append("--m=" + draw(st.sampled_from(["0", "3"])))
    value = st.sampled_from(REAL_VALUES)
    for flag in flags:
        if flag in LIST_FORMS:
            forms = LIST_FORMS[flag]
            for form in forms[: draw(st.integers(0, len(forms)))]:
                argv.append(f"{flag}=" + form.format(v=draw(value)))
        elif flag == "--radii":
            if draw(st.booleans()):
                argv.append("--radii=" + ",".join(draw(st.lists(value, min_size=1, max_size=2))))
        elif draw(st.integers(0, 9)) < 9:  # omitted one time in ten
            # alpha and q take an edge value one time in four, so that most runs get past them
            usual = flag in ("--alpha", "--q") and draw(st.integers(0, 3)) < 3
            argv.append(f"{flag}=" + ("0.5" if usual else draw(value)))
    if command == "verify" and draw(st.booleans()):
        argv.append("--csv={csv}")
    big = draw(st.booleans())
    mag = st.sampled_from([0, 0.1, 0.2] + [4e307, 1.7e308] * big)
    t_form = draw(st.booleans())  # then h's tail is <= 0, g is >= 0, and both are real
    signed = mag if t_form else st.builds(operator.mul, mag, st.sampled_from([1, -1]))
    imag = st.just(0) if t_form else signed
    h = [[-draw(signed), draw(imag)] for _ in range(draw(st.integers(0, 3)))]
    g = [[draw(signed), draw(imag)] for _ in range(draw(st.integers(0, 4)))]
    doc = {"trunc": 4, "h": [[1, 0], *h], "g": g}
    return argv, draw(st.none() | value), doc


FS = {"trunc": 4, "h": [[1, 0], [1.7e308, 0], [1.7e308, 0]], "g": []}
FST = {"trunc": 4, "h": [[1, 0], [-1.7e308, 0], [-1.7e308, 0]], "g": []}
OVF = {"trunc": 4, "h": [[1, 0], [4e307, 0], [4e307, 0]], "g": [[0, 0], [4e307, 0], [4e307, 0]]}
CLS = ["--m", "0", "--alpha", "0", "--q", "0.5"]
# grids of coincident points, of rings one ulp apart, and the ring ladder on which
# the P1 co-analytic extreme point at u = 1334 is not sense-preserving
SUBNORMAL = {"trunc": 4, "h": [[1, 0], [-0.1, 0]], "g": []}
UNIVALENT = {"trunc": 4, "h": [[1, 0], [-0.45, 0]], "g": []}
P1 = ["--m", "3", "--alpha", "0.25", "--q", "0.9"]
LADDER = "0.99,0.999999,0.9999999"
U1334 = harmonic_to_json(extreme_point(1334, "coanalytic", ClassParams(3, 0.25, QParam(0.9)), coanalytic_sign=1))


def refuse_constant(name):
    raise AssertionError(f"not JSON: {name}")


@pytest.fixture(scope="module")
def real_flag_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("real")


@settings(max_examples=500, deadline=None)
@given(case=real_flag_case())
@example(case=(["check", "--in", "{series}", *CLS], None, FS))
@example(case=(["probe", "--in", "{series}", "--m", "0", "--alpha", "0.5", "--q", "0.5"], None, FST))
@example(case=(["combine", "--point", "2:analytic:1e308", "--point", "3:analytic:1e308", *CLS], None, OVF))
@example(case=(["witness", "--x", "2=1e308", "--x", "3=1e308", *CLS], None, OVF))
@example(case=(["check", "--in", "{series}", "--m", "0", "--alpha", "0.5", "--q", "0.5"], None, FST))
@example(case=(["probe", "--in", "{series}", "--m", "3", "--alpha", "0.5", "--q", "0.9"], None, FST))
@example(case=(["verify", "--in", "{series}", *CLS, "--csv", "{csv}"], None, OVF))
@example(case=(["check", "--in", "{series}", *CLS], None, {"trunc": 4, "h": [[1, 0], [1.7e308, 1.7e308]], "g": []}))
@example(case=(["verify", "--in", "{series}", *CLS, "--radii=5e-324"], None, SUBNORMAL))
@example(case=(["verify", "--in", "{series}", *CLS, "--radii=0.5,0.5000000000000001"], None, UNIVALENT))
@example(case=(["verify", "--in", "{series}", *P1, "--radii=" + LADDER], None, U1334))
def test_every_real_flag_keeps_the_exit_contract(real_flag_dir, case):
    # no exception escapes, exit 2 is one error line, exit 1 is a failed check,
    # and every result is JSON without NaN or Infinity
    argv, tol, doc = case
    series, csv = real_flag_dir / "s.json", real_flag_dir / "n.csv"
    series.write_text(json.dumps(doc))
    csv.unlink(missing_ok=True)
    argv = [a.format(series=series, csv=csv) for a in argv]
    env = {} if tol is None else {"QHARM_TOL": tol}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), warnings.catch_warnings(record=True) as caught:
        if tol is None:
            os.environ.pop("QHARM_TOL", None)
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    if code == 2:
        errors = [line for line in lines if "error: " in line]
        assert len(errors) == 1 and errors == lines[-1:], (argv, tol, lines)
        assert out.getvalue() == "" and not csv.exists(), (argv, tol)
    else:
        assert code == 0 or (code == 1 and argv[0] in ("check", "verify", "probe")), (argv, tol, code, lines)
        assert lines == [], (argv, tol, lines)
        json.loads(out.getvalue(), parse_constant=refuse_constant)


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (["check", "--in", "{series}", *CLS], FS, "the coefficient functional must lie in [0, inf), got inf"),
        (["combine", "--point", "2:analytic:1e308", "--point", "3:analytic:1e308", *CLS], IDENTITY_DOC, "weights must sum to 1 within 1e-12, got inf"),
        (["witness", "--x", "2=nanj", *CLS], IDENTITY_DOC, "weight moduli must sum to 1 within 1e-12, got nan"),
        (["verify", "--in", "{series}", *CLS, "--csv", "{csv}"], OVF, "the worst sense_preserving margin is not finite, got nan"),
    ],
    ids=["check-functional", "combine-weights", "witness-nan-weight", "verify-margin"],
)
def test_a_value_beyond_the_float_range_is_one_error_line_and_exit_2(tmp_path, capsys, argv, doc, message):
    # the run writes nothing: no result on stdout and no --csv table
    series = write_json(tmp_path / "s.json", doc)
    csv = tmp_path / "n.csv"
    assert run([a.format(series=series, csv=csv) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not csv.exists()


def test_an_overflowing_input_above_the_cut_exits_2_and_writes_no_table(tmp_path, capsys):
    # as OVF does on Horner's path: degree 16 is above the default grid's cut of 8,
    # so the FFT sums the coefficients of T and h', and those sums overflow
    doc = {"trunc": 16, "h": [[1, 0]] + [[1e307, 0]] * 15, "g": [[0, 0]] + [[1e307, 0]] * 15}
    path = write_json(tmp_path / "ovf16.json", doc)
    csv = tmp_path / "ovf16.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["verify", "--in", path, *CLS, "--csv", str(csv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not csv.exists()
    assert len(captured.err.splitlines()) == 1 and re.match(r"^error: the worst \w+ margin is not finite, got nan$", captured.err)


def test_a_grid_with_no_resolvable_pair_is_refused_by_the_injectivity_check(tmp_path, capsys):
    # at radius 5e-324 the angles round onto 8 points, and seed 1 draws one pair of equal ones
    path = write_json(tmp_path / "m.json", SUBNORMAL)
    argv = ["verify", "--in", path, *CLS, "--radii", "5e-324"]
    assert run([*argv, "--pair-budget", "1", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "error: no drawn pair of grid points is more than 5e-07 of the larger modulus apart"
    assert captured.err.splitlines() == [message]
    assert run(argv) == 0  # the default budget draws distinct points too
    reports = json.loads(capsys.readouterr().out)
    assert reports[2]["check"] == "injectivity" and 0 < reports[2]["samples"] < 256


@pytest.mark.parametrize(
    "radii, budget, used", [("0.5,0.5000000000000001", "65536", 65410), ("0.3,0.30000000000000004", "200000", 199657)]
)
def test_rings_one_ulp_apart_pass_on_their_resolvable_pairs(tmp_path, capsys, radii, budget, used):
    # z - 0.45 z**2 is univalent; on rings one ulp apart its values round together,
    # so the pairs across them are dropped and samples counts the pairs used
    path = write_json(tmp_path / "u.json", UNIVALENT)
    assert run(["verify", "--in", path, *CLS, "--radii", radii, "--pair-budget", budget]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    injectivity = json.loads(captured.out)[2]
    assert injectivity["check"] == "injectivity" and injectivity["passed"] and injectivity["samples"] == used


def test_the_u1334_ring_ladder_fails_sense_preservation(tmp_path, capsys):
    # the P1 co-analytic extreme point at u = 1334 stops being sense-preserving past 1 - 3.8e-7
    path = write_json(tmp_path / "p1.json", U1334)
    assert run(["verify", "--in", path, *P1, "--radii", LADDER]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [r["check"] for r in json.loads(captured.out) if not r["passed"]]
    assert failed == ["sense_preserving"]


# Every subcommand with a path flag: its arguments, {in} standing for a readable
# series, and its path flags.
PATH_FLAGS = {
    "dq": (["--in", "{in}", "--q", "0.5"], ["--in", "--out"]),
    "salagean": (["--in", "{in}", "--m", "2", "--q", "0.5"], ["--in", "--out"]),
    "transform": (["--in", "{in}", "--m", "2", "--q", "0.5"], ["--in", "--out"]),
    "check": (["--in", "{in}", *CLS], ["--in", "--out"]),
    "verify": (["--in", "{in}", *CLS], ["--in", "--out", "--csv"]),
    "probe": (["--in", "{in}", *CLS], ["--in", "--out"]),
    "extremal": (["--u", "2", "--kind", "analytic", *CLS], ["--out"]),
    "combine": (["--point", "2:analytic:1", *CLS], ["--out"]),
    "witness": (["--x", "2=1", *CLS], ["--out"]),
    "growth": (["--b1", "0", "--r", "0.5", *CLS], ["--out"]),
    "scan": ([*CLS, "--trials", "1", "--seed", "0"], ["--out"]),
}
BAD_PATHS = {"missing file": "absent.json", "directory": "dir", "missing parent": "absent/x"}


@pytest.mark.parametrize(
    "command, flag, kind",
    [(c, f, k) for c, (_, flags) in PATH_FLAGS.items() for f in flags for k in BAD_PATHS if f == "--in" or k != "missing file"],
)
def test_every_path_flag_keeps_the_exit_contract(tmp_path, capsys, command, flag, kind):
    # a path that cannot be read or written ends in one error line and exit 2;
    # a missing output file is created, so for outputs only its parent can be missing
    (tmp_path / "dir").mkdir()
    path = str(tmp_path / BAD_PATHS[kind])
    source = path if flag == "--in" else write_json(tmp_path / "id.json", IDENTITY_DOC)
    argv = [command, *(source if a == "{in}" else a for a in PATH_FLAGS[command][0])]
    assert run(argv if flag == "--in" else [*argv, flag, path]) == 2
    out, err = capsys.readouterr()
    verb = "read" if flag == "--in" else "write"
    assert out == "" and len(err.splitlines()) == 1 and err.startswith(f"error: cannot {verb} {path}: "), err
