"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion FAIL).
"""

import json

import numpy as np
import pytest

from qharm import (
    AnalyticSeries,
    ClassParams,
    DiskGrid,
    QParam,
    coeff_functional,
    counterexample_scan,
    eval_analytic,
    eval_power,
    extreme_point,
    growth_bound_check,
    growth_bounds,
    growth_witness_lower,
    growth_witness_upper,
    eval_harmonic,
    hadamard,
    harmonic_from_json,
    injectivity_sample_check,
    member_t_iff,
    necessity_probe,
    proof_step_violations,
    q_derivative,
    q_integer,
    q_integer_pow,
    random_t_form,
    re_condition_margin,
    salagean,
    salagean_harmonic,
    salagean_kernel,
    sense_preserving_margin,
    sharpness_witness,
    HarmonicFunction,
    OperatorParams,
)
from qharm.cli import run


def _passed(n, label):
    print(f"[acceptance] criterion {n} ({label}): PASS")


def random_series(rng, max_n=32):
    n = int(rng.integers(2, max_n + 1))
    re = rng.uniform(-1.0, 1.0, n)
    im = rng.uniform(-1.0, 1.0, n)
    return AnalyticSeries(
        [complex(a, b) * 0.5**k for k, (a, b) in enumerate(zip(re, im))], trunc=n
    )


def test_criterion_1_q_integer_identities():
    rng = np.random.default_rng(1001)
    qs = rng.uniform(1e-6, 1.0 - 1e-6, 100)
    for qv in qs:
        qp = QParam(qv)
        for u in range(1, 65):
            lhs = q_integer(u + 1, qp)
            rhs = 1.0 + qv * q_integer(u, qp)
            assert abs(lhs - rhs) <= 1e-14 * abs(rhs)
    qp = QParam(1.0 - 1e-8)
    for u in range(1, 21):
        assert abs(q_integer(u, qp) - u) <= 1e-6 * u
    _passed(1, "q-integer recurrence and classical limit")


def test_criterion_2_operator_oracle_equivalence():
    rng = np.random.default_rng(1002)
    for _ in range(200):
        s = random_series(rng)
        # q is kept away from 1, where the difference-quotient oracle itself
        # loses ~|1-q|**-1 digits to cancellation
        q = QParam(rng.uniform(0.05, 0.95))
        d = q_derivative(s, q)
        radii = 0.05 + 0.85 * rng.uniform(0.0, 1.0, 100)
        angles = rng.uniform(0.0, 2.0 * np.pi, 100)
        zs = radii * np.exp(1j * angles)
        for z in zs:
            z = complex(z)
            oracle = (eval_analytic(s, z) - eval_analytic(s, q.q * z)) / ((1.0 - q.q) * z)
            got = eval_power(d, z)
            assert abs(got - oracle) <= 1e-10 * max(1.0, abs(oracle))
    _passed(2, "coefficientwise q-derivative equals difference quotient")


def test_criterion_3_convolution_identity_bitwise():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        s = random_series(rng)
        p = OperatorParams(int(rng.integers(0, 6)), QParam(rng.uniform(0.02, 0.98)))
        via_kernel = hadamard(s, salagean_kernel(s.trunc_degree, p))
        assert salagean(s, p).coeffs == via_kernel.coeffs
    _passed(3, "operator equals kernel convolution bitwise")


def test_criterion_4_harmonic_sign_law():
    rng = np.random.default_rng(1004)
    for _ in range(50):
        n = 8
        h = AnalyticSeries([1.0] + list(rng.uniform(-0.3, 0.3, n - 1)), trunc=n)
        g = AnalyticSeries(rng.uniform(0.01, 0.2, n), trunc=n)
        f = HarmonicFunction(h, g)
        q = QParam(rng.uniform(0.1, 0.9))
        # order 0 is the identity, bitwise
        out0 = salagean_harmonic(f, OperatorParams(0, q))
        assert out0.h.coeffs == f.h.coeffs and out0.g.coeffs == f.g.coeffs
        for m in range(5):
            out = salagean_harmonic(f, OperatorParams(m, q))
            ref = salagean(f.g, OperatorParams(m, q)).coeffs
            if m % 2:
                ref = tuple(-c for c in ref)
            # the stored co-analytic part is exactly the signed operator image,
            # so consecutive orders flip the sign of every coefficient exactly
            assert out.g.coeffs == ref
            sign = -1.0 if m % 2 else 1.0
            for c in out.g.coeffs:
                assert c == sign * abs(c)
    _passed(4, "co-analytic sign alternation and order-0 identity")


# Parameter sets for which u (1 - alpha) <= [u]_q**m holds for every u <= 32,
# so the chain from the coefficient condition to univalence and
# sense-preservation is valid; outside this regime the conclusion can fail
# (see criterion 10), so soundness is tested inside it.
SOUND_COMBOS = [(2, 0.9), (3, 0.9), (3, 0.8), (4, 0.7)]
SOUND_ALPHAS = [0.1, 0.25, 0.5]


def test_criterion_5_sufficiency_soundness():
    for m, q in SOUND_COMBOS:
        for a in SOUND_ALPHAS:
            assert proof_step_violations(ClassParams(m=m, alpha=a, q=QParam(q))) == ()
    grid = DiskGrid()
    for i in range(500):
        rng = np.random.default_rng([123, i])
        m, q = SOUND_COMBOS[int(rng.integers(0, len(SOUND_COMBOS)))]
        a = SOUND_ALPHAS[int(rng.integers(0, len(SOUND_ALPHAS)))]
        p = ClassParams(m=m, alpha=a, q=QParam(q))
        target = 0.2 + 0.8 * rng.random()
        f = random_t_form(p, target, rng)
        assert coeff_functional(f, p) <= 1.0 + 1e-12
        r1 = re_condition_margin(f, p, grid)
        r2 = sense_preserving_margin(f, grid)
        r3 = injectivity_sample_check(f, grid, 128, seed=i)
        assert r1.min_margin >= -1e-9 and r1.passed
        assert r2.min_margin >= -1e-9 and r2.passed
        assert r3.passed
    _passed(5, "500 members pass re-condition, sense-preservation, injectivity")


def test_criterion_6_sharpness_witnesses():
    rng = np.random.default_rng(1006)
    for i in range(50):
        p = ClassParams(
            m=int(rng.integers(0, 5)),
            alpha=float(rng.uniform(0.0, 0.9)),
            q=QParam(float(rng.uniform(0.1, 0.9))),
        )
        nx = int(rng.integers(0, 5))
        ny = int(rng.integers(1, 5))
        x = rng.uniform(-1, 1, nx) + 1j * rng.uniform(-1, 1, nx)
        y = rng.uniform(-1, 1, ny) + 1j * rng.uniform(-1, 1, ny)
        total = np.abs(x).sum() + np.abs(y).sum()
        x, y = x / total, y / total
        f = sharpness_witness(list(x), list(y), p)
        assert abs(coeff_functional(f, p) - 1.0) <= 1e-12
    _passed(6, "50 sharpness witnesses have functional 1 within 1e-12")


def test_criterion_7_necessity():
    ms = [0, 1, 2, 3, 4]
    alphas = [0.0, 0.25, 0.6]
    qs = [0.2, 0.5, 0.9]
    for i in range(500):
        rng = np.random.default_rng([456, i])
        p = ClassParams(
            m=ms[int(rng.integers(0, len(ms)))],
            alpha=alphas[int(rng.integers(0, len(alphas)))],
            q=QParam(qs[int(rng.integers(0, len(qs)))]),
        )
        target = 1.01 + 0.79 * rng.random()
        f = random_t_form(p, target, rng)
        assert coeff_functional(f, p) >= 1.01 - 1e-9
        rep = necessity_probe(f, p)
        assert not rep.passed
        assert rep.first_failure is not None and rep.first_failure <= 0.9999
    _passed(7, "500 violators fail the axis probe by r = 0.9999")


def test_criterion_8_extreme_points():
    for m in (0, 1, 3):
        for alpha in (0.0, 0.25, 0.75):
            for qv in (0.1, 0.5, 0.9):
                p = ClassParams(m=m, alpha=alpha, q=QParam(qv))
                for u in range(1, 33):
                    fa = extreme_point(u, "analytic", p)
                    expected = 0.0 if u == 1 else 1.0
                    assert abs(coeff_functional(fa, p) - expected) <= 1e-12
                    assert member_t_iff(fa, p)
                    fc = extreme_point(u, "coanalytic", p, coanalytic_sign=1)
                    assert abs(coeff_functional(fc, p) - 1.0) <= 1e-12
                    assert member_t_iff(fc, p)
                    # default (as-printed) sign variant has the same functional
                    fc_neg = extreme_point(u, "coanalytic", p)
                    assert abs(coeff_functional(fc_neg, p) - 1.0) <= 1e-12
    _passed(8, "extreme points sit on the boundary and are accepted, u <= 32")


def test_criterion_9_growth_bounds():
    grid = DiskGrid()
    for i in range(200):
        rng = np.random.default_rng([789, i])
        p = ClassParams(
            m=int(rng.integers(0, 5)),
            alpha=float(rng.uniform(0.0, 0.8)),
            q=QParam(float(rng.uniform(0.1, 0.9))),
        )
        f = random_t_form(p, rng.uniform(0.2, 1.0), rng)
        rep = growth_bound_check(f, p, grid)
        assert rep.passed
    for m, alpha, qv in [(0, 0.0, 0.5), (1, 0.25, 0.5), (3, 0.1, 0.9)]:
        p = ClassParams(m=m, alpha=alpha, q=QParam(qv))
        for b1 in (0.0, 0.3, 1.0 - alpha - 0.05):
            up = growth_witness_upper(b1, p)
            low = growth_witness_lower(b1, p)
            for r in (0.25, 0.5, 0.9):
                bounds = growth_bounds(b1, r, p)
                assert abs(bounds.upper - abs(eval_harmonic(up, r))) <= 1e-9
                assert abs(bounds.lower - abs(eval_analytic(low, r))) <= 1e-9
    _passed(9, "200 members inside growth bounds; witnesses attain them")


def test_criterion_10_proof_step_map_and_scan():
    # direct evaluation: u = 2 fails at order 0 for any q (weight is 1)...
    for qv in (0.1, 0.5, 0.9):
        p0 = ClassParams(m=0, alpha=0.0, q=QParam(qv))
        assert 2 * (1.0 - 0.0) > q_integer_pow(2, p0.q, 0)
        assert 2 in proof_step_violations(p0)
    # ...and holds at order 3 with q = 0.9: [2]_0.9**3 = 6.859 >= 2
    p3 = ClassParams(m=3, alpha=0.0, q=QParam(0.9))
    assert q_integer_pow(2, p3.q, 3) == pytest.approx(1.9**3, rel=1e-15)
    assert 2 * (1.0 - 0.0) <= q_integer_pow(2, p3.q, 3)
    assert 2 not in proof_step_violations(p3)

    # deterministic flag list, regression-pinned for a fixed seed
    p = ClassParams(m=0, alpha=0.0, q=QParam(0.5))
    rep = counterexample_scan(p, 40, 20250810)
    assert rep.step_violations == tuple(range(2, 33))
    assert [g.trial for g in rep.gap_examples] == [18]
    assert rep.gap_examples[0].functional == pytest.approx(1.124190, abs=1e-5)
    assert counterexample_scan(p, 40, 20250810) == rep
    _passed(10, "proof-step validity map and pinned scan flags")


def test_criterion_11_cli_contract(tmp_path, capsys):
    # value printing
    assert run(["qint", "--u", "3", "--q", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "1.75"

    # round-trip: emitted series re-parse bitwise through verify's loader
    out = tmp_path / "e.json"
    assert run(
        ["extremal", "--u", "2", "--kind", "analytic", "--m", "1",
         "--alpha", "0", "--q", "0.5", "--out", str(out)]
    ) == 0
    capsys.readouterr()
    reloaded = harmonic_from_json(json.loads(out.read_text()))
    direct = extreme_point(2, "analytic", ClassParams(m=1, alpha=0.0, q=QParam(0.5)))
    assert reloaded.h.coeffs == direct.h.coeffs
    assert reloaded.g.coeffs == direct.g.coeffs
    assert reloaded.h.coeffs[1] == -(1.0 / 1.5)

    # exit 0: a passing verify run
    ident = tmp_path / "id.json"
    ident.write_text(json.dumps({"trunc": 4, "h": [[1, 0]], "g": []}))
    assert run(["verify", "--in", str(ident), "--m", "0", "--alpha", "0.5",
                "--q", "0.5"]) == 0
    capsys.readouterr()

    # exit 1: a valid run with a failing check
    viol = tmp_path / "v.json"
    viol.write_text(json.dumps({"trunc": 4, "h": [[1, 0], [-1.5, 0]], "g": []}))
    assert run(["verify", "--in", str(viol), "--m", "0", "--alpha", "0",
                "--q", "0.5"]) == 1
    capsys.readouterr()

    # exit 2: malformed JSON, diagnostic names the field
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"trunc": 4, "h": [[0.5, 0]], "g": []}))
    assert run(["verify", "--in", str(bad), "--m", "0", "--alpha", "0", "--q", "0.5"]) == 2
    assert "h[0]" in capsys.readouterr().err
    _passed(11, "CLI round-trip and exit-code contract")
