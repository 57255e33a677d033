"""Cross-command agreement ledger.

Each row is a function and its family (m, alpha, q), one of the
benchmark's P1-P4, built in code from its defining expression.  The test
runs ``qharm check``, ``qharm probe`` and ``qharm verify`` in process on
the row, with the family's flags, and compares the verdicts that must
agree: check's t_member with probe's passed, and with the verdict of
verify's Re-condition report.  Known disagreements are data, not skips:
KNOWN lists each with the ROADMAP item that closes it, and the test
asserts that every listed disagreement still occurs and that no other
does.  So closing an item fails the test until its row leaves KNOWN, and
a new disagreement fails it at once.
"""

import json

import numpy as np
import pytest

from qharm import AnalyticSeries, ClassParams, HarmonicFunction, QParam, harmonic_to_json, q_integer_pow, random_t_form
from qharm.cli import run

# the benchmark's parameter sets, (m, alpha, q)
FAMILIES = {"P1": (3, 0.25, 0.9), "P2": (0, 0.0, 0.5), "P3": (1, 0.5, 0.99), "P4": (6, 0.1, 0.7)}


def family(name):
    m, alpha, q = FAMILIES[name]
    return ClassParams(m=m, alpha=alpha, q=QParam(q)), ["--m", str(m), "--alpha", repr(alpha), "--q", repr(q)]


def pair(h, g, trunc=4):
    return HarmonicFunction(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))


def violator(p):
    """z - c z**2 with c = 1.2 (1 - alpha) / [2]_q**m: analytic, functional 1.2 (to rounding)."""
    return pair([1.0, -1.2 * (1.0 - p.alpha) / q_integer_pow(2, p.q, p.m)], [])


P1, _ = family("P1")

# name -> (family, function)
ROWS = {
    # ROADMAP item 1: t_form, Re T = 1 everywhere, functional 4.573
    "z - z**2/4 + conj(z)**2/4": ("P1", pair([1.0, -0.25], [0.0, 0.25])),
    # ROADMAP item 1: t_form, functional 1.2, Re T - alpha >= 1.65
    "z + 0.9 conj(z)": ("P1", pair([1.0], [0.9])),
    # ROADMAP item 9: functional 1 + 1e-6, which check and probe both reject
    "random_t_form(P1, 1 + 1e-6, rng 7)": ("P1", random_t_form(P1, 1 + 1e-6, np.random.default_rng(7))),
    "member random_t_form(P1, 0.9, rng 7)": ("P1", random_t_form(P1, 0.9, np.random.default_rng(7))),
    # analytic, so no co-analytic coefficient cancels in T: functional 1.372
    "violator z - 0.15 z**2": ("P1", pair([1.0, -0.15], [])),
}
for name in ("P2", "P3", "P4"):
    p = family(name)[0]
    ROWS[f"member random_t_form({name}, 0.9, rng 7)"] = (name, random_t_form(p, 0.9, np.random.default_rng(7)))
    ROWS[f"violator z - 1.2 (1 - alpha) z**2 / [2]_q**m at {name}"] = (name, violator(p))

# (row, (command, command)) -> the ROADMAP item that closes the disagreement
KNOWN = {
    # class_transform adds g verbatim, so g >= 0 cancels h's tail <= 0 in T
    ("z - z**2/4 + conj(z)**2/4", ("check", "verify")): "item 1",
    ("z + 0.9 conj(z)", ("check", "verify")): "item 1",
    # the same cancellation (Re margin 1.06); even without it the grid's outer ring
    # 0.999 could not see a functional 1e-6 above 1
    ("random_t_form(P1, 1 + 1e-6, rng 7)", ("check", "verify")): "item 1",
}


def verdicts(tmp_path, capsys, name, f):
    """check's t_member, probe's passed and verify's Re-condition verdict on f in the family name."""
    path = tmp_path / "f.json"
    path.write_text(json.dumps(harmonic_to_json(f)))
    out = {}
    for command in ("check", "probe", "verify"):
        status = run([command, "--in", str(path), *family(name)[1]])
        out[command] = (status, json.loads(capsys.readouterr().out))
    (check_status, check), (probe_status, probe), (_, reports) = out.values()
    re_report = next(r for r in reports if r["check"] == "re_condition")
    assert check_status == (0 if check["t_member"] else 1) and probe_status == (0 if probe["passed"] else 1)
    return {"check": check["t_member"], "probe": probe["passed"], "verify": re_report["passed"]}


@pytest.mark.parametrize("row", list(ROWS))
def test_the_commands_agree_except_where_known(tmp_path, capsys, row):
    assert {name for name, _ in KNOWN} <= set(ROWS)
    verdict = verdicts(tmp_path, capsys, *ROWS[row])
    compared = [("check", "probe"), ("check", "verify")]
    disagreements = {(a, b) for a, b in compared if verdict[a] != verdict[b]}
    assert disagreements == {commands for (name, commands) in KNOWN if name == row}, verdict
