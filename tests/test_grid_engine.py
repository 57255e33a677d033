"""Oracle test for the grid engine behind the disc checks.

The reference below is the plain engine: a fresh point array per call, built
point by point from the first octant of each ring, a zero-seeded Horner
loop over every stored coefficient, the whole grid evaluated for the
injectivity pairs, and margin_rows with its own margin formulas.  The
library builds each ring with array operations, trims the high-order +0+0j
coefficients of each part once, caches the grid points, and gets every
value through one evaluator, which is given an index array for the
injectivity pairs unless f's grid values are at hand; at those indices its
values must be the grid values bit for bit.  A polynomial of degree above
floor(log2 M) it evaluates by one FFT per ring at the exact ring angles: a
margin that reads such a polynomial must lie within the FFT's error bound
plus Horner's of the reference margin, and every other report and margin
must equal the reference bit for bit, zero signs included.  The CSV text must hold the
reprs of margin_rows, whose writer calls repr once per distinct magnitude
of a block and puts "-" before the text of a negative cell that is not a
NaN, and disc_checks, which shares each margin array between the reports
and the table, must equal the single checks bit for bit.  The transform
itself is checked against mpmath at the exact ring points.  A polynomial
whose coefficients are all real, whatever the rest of f, takes an rfft that
fills the mirrored angles itself, so each of them must hold the exact
conjugate of its mirror, within the FFT bound of a complex transform of the
same terms.  Likewise the scan builds its candidates at their highest drawn
power and stops each trial at its first failed check, and its reports must
equal those of candidates padded to DEFAULT_TRUNC with every check run.  The
library's Horner updates one array in place from 2 points up, so eval_power
must equal the out-of-place loop on every form of z it meets.  Its
candidates and random_t_form draw their uniforms in one call, so each must
equal a body drawing one scalar at a time.
"""

import cmath
import contextlib
import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qharm import (
    DEFAULT_TRUNC,
    AnalyticSeries,
    ClassParams,
    DiskGrid,
    HarmonicFunction,
    OperatorParams,
    PowerSeries,
    QParam,
    class_transform,
    classical_derivative,
    coeff_functional,
    counterexample_scan,
    eval_power,
    extreme_point,
    growth_bound_check,
    growth_bounds,
    injectivity_sample_check,
    margin_rows,
    member_t_iff,
    proof_step_violations,
    random_t_form,
    re_condition_margin,
    salagean_harmonic,
    sense_preserving_margin,
    sharpness_witness,
    write_margin_csv,
)
from qharm import series, verify
from qharm.classes import _from_shares
from qharm.qcore import DomainError, weights

# --- reference engine ---------------------------------------------------------------


def ref_points(grid):
    """Each ring point from its first octant, one at a time: angle j is
    n = 4j units of pi/(2k) (4j + 2 off the axis), t units into quadrant
    n // k; past t = k/2 the angle folds to k - t with cos and sin swapped,
    at t = k/2 both take the cosine, and each quarter turn maps (c, s) to
    (-s, c).  Exact zeros are stored as +0.0."""
    k = grid.angular_count
    ring = []
    for j in range(k):
        quadrant, t = divmod(4 * j + (0 if grid.include_positive_axis else 2), k)
        e = cmath.exp(1j * min(t, k - t) * (math.pi / (2 * k)))
        if 2 * t > k:
            c, s = e.imag, e.real
        elif 2 * t == k:
            c, s = e.real, e.real
        else:
            c, s = e.real, e.imag
        for _ in range(quadrant):
            c, s = -s, c
        ring.append((c, s))
    return np.array([complex(r * c + 0.0, r * s + 0.0) for r in grid.radii for c, s in ring])


def ref_poly(coeffs, z):
    acc = np.zeros(z.shape, dtype=np.complex128)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def ref_harmonic(f, z):
    return ref_poly(f.h.coeffs, z) * z + np.conjugate(ref_poly(f.g.coeffs, z) * z)


def ref_report(name, margins, where, tolerance, strict=False):
    i = int(np.argmin(margins))
    worst = float(margins[i])
    passed = worst > tolerance if strict else worst >= -tolerance
    return {
        "check": name,
        "min_margin": worst,
        "argmin": [complex(where[i]).real, complex(where[i]).imag],
        "passed": passed,
        "samples": int(margins.size),
        "tolerance": float(tolerance),
    }


U = 2.0**-53  # the unit roundoff


def ring_length(grid):
    """M: the angular count on the axis grid, twice it off the axis."""
    return grid.angular_count * (1 if grid.include_positive_axis else 2)


def top_power(coeffs, start):
    """The highest power of a series read from z**start that eval_power
    evaluates: that of its last coefficient that is not +0+0j, or its first."""
    kept = np.flatnonzero(np.array(coeffs, dtype=complex).view(np.uint64).reshape(-1, 2).any(axis=1))
    return start + (int(kept[-1]) if kept.size else 0)


def error_bound(grid, *series):
    """None if the polynomial made of the (coeffs, start) series has a degree
    d <= floor(log2 M), so that the library evaluates it by Horner, bitwise as
    the reference does; else (4 log2 M + 2d) u sum |c_u| r**u at each grid
    point, the FFT's error bound plus Horner's."""
    m = ring_length(grid)
    d = max(top_power(c, start) for c, start in series)
    if d <= m.bit_length() - 1:
        return None
    r = np.array(grid.radii)[:, None]
    total = sum((np.abs(np.array(c)) * r ** (start + np.arange(len(c)))).sum(axis=1) for c, start in series)
    return np.repeat((4 * math.log2(m) + 2 * d) * U * total, grid.angular_count)


def margin_bound(grid, *polynomials):
    """The sum of the error bounds of the polynomials a margin reads, each a
    list of (coeffs, start) series; None if every one is evaluated by Horner."""
    bounds = [b for b in (error_bound(grid, *series) for series in polynomials) if b is not None]
    return sum(bounds) if bounds else None


def ref_columns(f, p, grid):
    """The reference margin columns of margin_rows by name, each with its
    bound (margin_bound)."""
    z = ref_points(grid)
    t = class_transform(f, p.operator_params()).coeffs
    hp = classical_derivative(f.h).coeffs
    gp = classical_derivative(f.g).coeffs
    columns = {
        "re_condition_margin": (np.real(ref_poly(t, z)) - p.alpha, margin_bound(grid, [(t, 0)])),
        "sense_preserving_margin": (np.abs(ref_poly(hp, z)) - np.abs(ref_poly(gp, z)), margin_bound(grid, [(hp, 0)], [(gp, 0)])),
    }
    if f.t_form and member_t_iff(f, p):
        lowers, uppers, mod = ref_growth_arrays(f, p, grid)
        bound = harmonic_bound(f, grid)
        columns["growth_lower_margin"] = (mod - lowers, bound)
        columns["growth_upper_margin"] = (uppers - mod, bound)
    return columns


def harmonic_bound(f, grid):
    """The bound of f = h + conj(g), which the library evaluates as one polynomial."""
    return margin_bound(grid, [(f.h.coeffs, 1), (f.g.coeffs, 1)])


def ref_pairs(f, grid, pair_budget, seed):
    """The reference injectivity ratios of the drawn pairs, their first
    points, and the ratios' bound: those of f at both ends over the distance."""
    z = ref_points(grid)
    n = z.size
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=pair_budget)
    j = rng.integers(0, n, size=pair_budget)
    j = np.where(i == j, (j + 1) % n, j)
    fz = ref_harmonic(f, z)
    dist = np.abs(z[i] - z[j])
    bound = harmonic_bound(f, grid)
    return np.abs(fz[i] - fz[j]) / dist, z[i], None if bound is None else (bound[i] + bound[j]) / dist


def ref_growth_arrays(f, p, grid):
    b1 = f.g.coeffs[0].real
    k = grid.angular_count
    lowers = np.repeat([growth_bounds(b1, r, p).lower for r in grid.radii], k)
    uppers = np.repeat([growth_bounds(b1, r, p).upper for r in grid.radii], k)
    return lowers, uppers, np.abs(ref_harmonic(f, ref_points(grid)))


def slack(margins, bound):
    """A margin's bound plus two ulps of it, for its own last rounding."""
    return bound + 2 * np.spacing(np.abs(margins))


def assert_report(report, name, margins, where, bound, tolerance, strict=False):
    """report is the reference report of name bit for bit if bound is None.
    Else its margins lie within the slack of the reference margins: its
    min_margin is that close to theirs, its argmin falls on a point whose
    reference margin is that close to their minimum, and its verdict is
    theirs wherever their minimum lies farther than that from the threshold."""
    expected = ref_report(name, margins, where, tolerance, strict)
    got = report.to_dict()
    if bound is None:
        assert_same(got, expected)
        return
    for key in ("check", "samples", "tolerance"):
        assert_same(got[key], expected[key])
    s = slack(margins, bound)
    r = int(np.argmin(margins))
    m = report.min_margin
    assert (margins - s).min() <= m <= margins[r] + s[r], (name, m, margins[r])
    at = np.flatnonzero(where == report.argmin_point)
    assert any(abs(m - margins[i]) <= s[i] and margins[i] - margins[r] <= s[i] + s[r] for i in at), name
    threshold = tolerance if strict else -tolerance
    if abs(margins[r] - threshold) > s.max():
        assert report.passed == expected["passed"]


def ref_margin_rows(f, p, grid):
    z = ref_points(grid)
    columns = {"re": np.real(z), "im": np.imag(z), **{name: m for name, (m, _) in ref_columns(f, p, grid).items()}}
    return list(columns), [[float(col[i]) for col in columns.values()] for i in range(z.size)]


def csv_text(header, rows):
    return "".join(",".join(line) + "\n" for line in [header, *([repr(v) for v in row] for row in rows)])


def ref_csv(f, p, grid):
    return csv_text(*ref_margin_rows(f, p, grid))


def assert_same(a, b):
    """Equality that also tells the two signed zeros apart."""
    if isinstance(a, float):
        assert isinstance(b, float)
        assert (a == b and np.signbit(a) == np.signbit(b)) or (math.isnan(a) and math.isnan(b)), (a, b)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_same(a[key], b[key])
    else:
        assert a == b and type(a) is type(b), (a, b)


# --- generated inputs ----------------------------------------------------------------

SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
parts = st.floats(min_value=-0.3, max_value=0.3, allow_nan=False, allow_subnormal=False)
coefficient = st.one_of(
    st.builds(complex, parts, parts),
    st.builds(complex, parts, st.just(0.0)),
    st.sampled_from(SIGNED_ZEROS),
)


@st.composite
def functions(draw):
    """A harmonic pair stored at trunc 1..64 whose nonzero coefficients stop
    at a drawn degree, so a run of trailing zeros follows; zeros of either
    sign appear anywhere.  Optionally a t_form member, or the image under
    an odd-order Salagean operator, which negates every co-analytic zero."""
    trunc = draw(st.integers(min_value=1, max_value=64))
    degree = draw(st.integers(min_value=1, max_value=trunc))
    tail = draw(st.sampled_from(SIGNED_ZEROS))
    h = [1.0] + draw(st.lists(coefficient, min_size=degree - 1, max_size=degree - 1))
    g = draw(st.lists(coefficient, min_size=degree, max_size=degree))
    h += [tail] * (trunc - degree)
    g += [tail] * (trunc - degree)
    if draw(st.booleans()):
        # t_form signs; functional stays small enough for membership often
        h = [h[0]] + [complex(-abs(c.real) / 8.0, 0.0) for c in h[1:]]
        g = [complex(abs(c.real) / 8.0, 0.0) for c in g]
    f = HarmonicFunction(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))
    if draw(st.booleans()):
        m = draw(st.sampled_from([1, 3]))
        f = salagean_harmonic(f, OperatorParams(m, QParam(draw(st.sampled_from([0.5, 0.9])))))
    return f


grids = st.builds(
    DiskGrid,
    radii=st.lists(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9, 0.99]), min_size=1, max_size=4, unique=True).map(
        lambda rs: tuple(sorted(rs))
    ),
    angular_count=st.integers(min_value=4, max_value=48),
    include_positive_axis=st.booleans(),
)
class_params = st.builds(
    ClassParams,
    m=st.integers(min_value=0, max_value=4),
    alpha=st.sampled_from([0.0, 0.25, 0.5]),
    q=st.sampled_from([QParam(0.5), QParam(0.9), QParam(0.99)]),
)


def harmonic(h, g, trunc):
    return HarmonicFunction(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))


# A real t_form member, so that the growth margins and the mirrored grid values of f are read too.
T_MEMBER = harmonic([1.0, -0.1, -0.05], [0.1, 0.05], 4)
P0 = ClassParams(m=0, alpha=0.0, q=QParam(0.5))
# Above the cut: of degree 24, which folds on rings of M = 4 and 8 angles, real
# and complex; of degree 12, above the cut of a prime angular count (13, M = 13
# or 26); with -0.0 imaginary parts at degree 10; and with b_1 = -1 at degree 6.
FOLDING = harmonic([1.0, *(0.3 * (-1) ** u / u**2 for u in range(2, 25))], [0.2 / u**2 for u in range(1, 25)], 24)
FOLDING_PHASED = harmonic([1.0, *(0.3j**u / u**2 for u in range(2, 25))], [0.2 * (0.6 - 0.8j) / u**2 for u in range(1, 25)], 24)
DEGREE_12 = harmonic([1.0, *(-0.02 / u for u in range(2, 13))], [0.01 / u for u in range(1, 13)], 12)
NEGATIVE_ZEROS = harmonic([1.0, *(complex(-0.02 / u, -0.0) for u in range(2, 11))], [complex(0.01, -0.0)] * 10, 10)
B1_MINUS_ONE = harmonic([1.0, -0.25, 0.05, 0.02, 0.01, 0.01], [-1.0, 0.125, 0.01, 0.01, 0.005, 0.002], 6)
# Inputs built as qharm extremal, witness and random_t_form build them.  At (2, 0, 0.5):
# the + co-analytic extreme point at u = 2 and a witness with complex h, both below the
# cut.  At P1 = (3, 0.25, 0.9), above it: the + co-analytic extreme point at u = 1334,
# which folds at M = 256; a trunc-64 real member; and trunc-64 witnesses with complex h
# and real g, and with real h and complex g.
P2_2 = ClassParams(m=2, alpha=0.0, q=QParam(0.5))
P1 = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
EXTREME_2 = extreme_point(2, "coanalytic", P2_2, coanalytic_sign=1)
WITNESS_3 = sharpness_witness([0.3 + 0.4j], [0j, 0j, 0.5], P2_2)
EXTREME_1334 = extreme_point(1334, "coanalytic", P1, coanalytic_sign=1)
MEMBER_64 = random_t_form(P1, 0.9, np.random.default_rng(7), trunc=64)
WITNESS_64 = sharpness_witness([0j] * 62 + [0.3 + 0.4j], [0j] * 39 + [0.5], P1)
WITNESS_64G = sharpness_witness([0j] * 62 + [0.5], [0j] * 39 + [0.3 + 0.4j], P1)
SEVEN_OFF_AXIS = DiskGrid(angular_count=7, include_positive_axis=False)


@settings(max_examples=150, deadline=None)
@given(
    f=functions(),
    p=class_params,
    grid=st.one_of(grids, st.just(DiskGrid())),
    pair_budget=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
)
# the smallest rings, and odd angular counts, on both axis settings
@example(f=T_MEMBER, p=P0, grid=DiskGrid(radii=(0.5, 0.9), angular_count=4), pair_budget=40, seed=1)
@example(f=T_MEMBER, p=P0, grid=DiskGrid(radii=(0.5, 0.9), angular_count=4, include_positive_axis=False), pair_budget=40, seed=2)
@example(f=T_MEMBER, p=P0, grid=DiskGrid(radii=(0.3, 0.99), angular_count=7), pair_budget=40, seed=3)
@example(f=T_MEMBER, p=P0, grid=DiskGrid(radii=(0.3, 0.99), angular_count=7, include_positive_axis=False), pair_budget=40, seed=4)
# b_1 = -1: T's constant is exactly 0
@example(f=harmonic([1.0, -0.25], [-1.0, 0.125], 3), p=P0, grid=DiskGrid(radii=(0.5, 0.9), angular_count=8), pair_budget=40, seed=5)
# imaginary parts of -0.0, a t_form member and not
@example(
    f=harmonic([1.0, complex(-0.1, -0.0)], [complex(0.1, -0.0), complex(0.05, -0.0)], 3),
    p=P0,
    grid=DiskGrid(radii=(0.5, 0.9), angular_count=6),
    pair_budget=40,
    seed=6,
)
@example(
    f=harmonic([complex(1.0, -0.0), complex(0.2, -0.0), complex(-0.0, -0.0)], [complex(-0.0, -0.0), complex(0.1, -0.0)], 3),
    p=ClassParams(m=1, alpha=0.25, q=QParam(0.9)),
    grid=DiskGrid(radii=(0.5, 0.9), angular_count=5, include_positive_axis=False),
    pair_budget=40,
    seed=7,
)
# above the cut: folding, a prime angular count, -0.0 parts and b_1 = -1
@example(f=FOLDING, p=P0, grid=DiskGrid(radii=(0.5, 0.9), angular_count=4), pair_budget=40, seed=8)
@example(f=FOLDING_PHASED, p=P0, grid=DiskGrid(radii=(0.5, 0.9), angular_count=4, include_positive_axis=False), pair_budget=40, seed=9)
@example(f=DEGREE_12, p=P0, grid=DiskGrid(radii=(0.3, 0.99), angular_count=13), pair_budget=40, seed=10)
@example(f=DEGREE_12, p=P0, grid=DiskGrid(radii=(0.3, 0.99), angular_count=13, include_positive_axis=False), pair_budget=40, seed=11)
@example(f=NEGATIVE_ZEROS, p=ClassParams(m=1, alpha=0.25, q=QParam(0.9)), grid=DiskGrid(radii=(0.5, 0.9), angular_count=8), pair_budget=40, seed=12)
@example(f=B1_MINUS_ONE, p=ClassParams(m=0, alpha=0.25, q=QParam(0.5)), grid=DiskGrid(radii=(0.5, 0.9), angular_count=8), pair_budget=40, seed=13)
# the CLI-built inputs, on the default grid and on 7 angles off the axis
@example(f=EXTREME_2, p=P2_2, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=EXTREME_2, p=P2_2, grid=DiskGrid(radii=(0.3, 0.9), angular_count=7, include_positive_axis=False), pair_budget=256, seed=0)
@example(f=WITNESS_3, p=P2_2, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=EXTREME_1334, p=P1, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=EXTREME_1334, p=P1, grid=SEVEN_OFF_AXIS, pair_budget=256, seed=0)
@example(f=MEMBER_64, p=P1, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=MEMBER_64, p=P1, grid=SEVEN_OFF_AXIS, pair_budget=256, seed=0)
@example(f=WITNESS_64, p=P1, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=WITNESS_64, p=P1, grid=SEVEN_OFF_AXIS, pair_budget=256, seed=0)
@example(f=WITNESS_64G, p=P1, grid=DiskGrid(), pair_budget=256, seed=0)
@example(f=WITNESS_64G, p=P1, grid=SEVEN_OFF_AXIS, pair_budget=256, seed=0)
def test_engine_matches_reference_bitwise(f, p, grid, pair_budget, seed):
    # Polynomials of degree <= floor(log2 M) take Horner and give the
    # reference's bits; the others take one FFT per ring, whose margins lie
    # within their error bounds of the reference's (assert_report).
    z = ref_points(grid)
    for s in (f.h, f.g):
        assert np.array_equal(eval_power(s, z).view(np.uint64), ref_poly(s.coeffs, z).view(np.uint64))
    tol = 1e-9
    columns = ref_columns(f, p, grid)
    reports = [
        re_condition_margin(f, p, grid, tolerance=tol),
        sense_preserving_margin(f, grid, tolerance=tol),
        injectivity_sample_check(f, grid, pair_budget, seed=seed, tolerance=tol),
    ]
    assert_report(reports[0], "re_condition", columns["re_condition_margin"][0], z, columns["re_condition_margin"][1], tol)
    assert_report(reports[1], "sense_preserving", columns["sense_preserving_margin"][0], z, columns["sense_preserving_margin"][1], tol)
    ratios, first, bound = ref_pairs(f, grid, pair_budget, seed)
    assert_report(reports[2], "injectivity", ratios, first, bound, tol, strict=True)
    if "growth_lower_margin" in columns:
        (lower, bound), (upper, _) = columns["growth_lower_margin"], columns["growth_upper_margin"]
        reports.append(growth_bound_check(f, p, grid, tolerance=tol))
        assert_report(reports[3], "growth_bounds", np.minimum(upper, lower), z, bound, tol)
    header, rows = margin_rows(f, p, grid)
    assert header == ["re", "im", *columns]
    table = np.array(rows).reshape(z.size, len(header))
    assert_bits(table[:, 0], z.real)
    assert_bits(table[:, 1], z.imag)
    for column, (margins, bound) in zip(table[:, 2:].T, columns.values()):
        if bound is None:
            assert_bits(column, margins)
        else:
            assert (np.abs(column - margins) <= slack(margins, bound)).all()
    # the CSV holds the reprs of margin_rows, and disc_checks the single checks' reports, bit for bit
    text = csv_text(header, rows)
    buf = io.StringIO()
    write_margin_csv(buf, f, p, grid)
    assert buf.getvalue() == text
    buf = io.StringIO()
    checks = verify.disc_checks(f, p, grid, pair_budget, seed=seed, tolerance=tol, csv=lambda: contextlib.nullcontext(buf))
    assert buf.getvalue() == text
    assert_same([r.to_dict() for r in checks], [r.to_dict() for r in reports])


def test_the_cli_built_inputs_take_the_engines_they_stand_for():
    # T, h', g' and f of each: Horner below the cut, else the real or complex transform
    def engines(f, p):
        grid = DiskGrid()
        polynomials = (class_transform(f, p.operator_params()), classical_derivative(f.h), classical_derivative(f.g), f)
        return [name for name, _, _ in transforms(lambda: [verify._grid_values(s, grid) for s in polynomials])]

    assert engines(EXTREME_2, P2_2) == engines(WITNESS_3, P2_2) == []
    assert any(c.imag for c in WITNESS_3.h.coeffs)
    assert engines(EXTREME_1334, P1) == ["rfft"] * 3  # h' = 1 stays on Horner
    assert engines(MEMBER_64, P1) == ["rfft"] * 4
    assert engines(WITNESS_64, P1) == ["ifft", "ifft", "rfft", "ifft"]
    assert engines(WITNESS_64G, P1) == ["ifft", "rfft", "ifft", "ifft"]


def test_margin_csv_spanning_two_blocks_matches_reference():
    # 8,192 rows: the writer formats the table in blocks of at most 4,096 rows.
    # M = 4096, so the trunc-8 member and the u = 2 extreme point stay below the cut
    # (and give the reference's bytes) and the trunc-16 and trunc-64 members are above it.
    grid = DiskGrid(radii=(0.5, 0.9), angular_count=4096)
    assert grid.size > verify._CSV_BLOCK_ROWS
    members = [(P1, random_t_form(P1, 0.9, np.random.default_rng(7), trunc=trunc)) for trunc in (8, 16, 64)]
    for p, f in [*members, (P2_2, EXTREME_2)]:
        buf = io.StringIO()
        write_margin_csv(buf, f, p, grid)
        assert buf.getvalue() == csv_text(*margin_rows(f, p, grid))
        if harmonic_bound(f, grid) is None:
            assert buf.getvalue() == ref_csv(f, p, grid)


@given(grid=grids)
def test_grid_points_cached_and_read_only(grid):
    z = grid.points()
    assert z is grid.points()
    assert z is DiskGrid(grid.radii, grid.angular_count, grid.include_positive_axis).points()
    assert not z.flags.writeable
    fresh = ref_points(grid)
    assert np.array_equal(z.view(np.uint64), fresh.view(np.uint64))


# Angular counts of the ring tests: every count up to 64, and two large ones.
RING_COUNTS = [*range(4, 65), 256, 4096]


def assert_bits(a, b):
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_rings_are_bitwise_symmetric_and_hold_no_negative_zero():
    for k in RING_COUNTS:
        for axis in (True, False):
            z = DiskGrid(radii=(0.3, 0.999), angular_count=k, include_positive_axis=axis).points().reshape(2, k)
            for part in (z.real, z.imag):
                assert not np.signbit(part[part == 0.0]).any(), (k, axis)
            j = np.arange(k)
            # the conjugate of angle j is angle -j on the axis grid, -j - 1 off it
            w = z[:, (-j - (0 if axis else 1)) % k]
            assert_bits(w.real, z.real)
            assert_bits(w.imag, -z.imag + 0.0)
            if k % 2 == 0:
                w = z[:, (j + k // 2) % k]
                assert_bits(w.real, -z.real + 0.0)
                assert_bits(w.imag, -z.imag + 0.0)
            if k % 4 == 0:
                w = z[:, (j + k // 4) % k]
                assert_bits(w.real, -z.imag + 0.0)
                assert_bits(w.imag, z.real)


def test_ring_coordinates_are_within_2_to_the_minus_52_of_the_circle():
    mpmath = pytest.importorskip("mpmath")
    for k in RING_COUNTS:
        for axis in (True, False):
            # radius 0.5 scales the unit ring exactly
            z = 2.0 * DiskGrid(radii=(0.5,), angular_count=k, include_positive_axis=axis).points()
            with mpmath.workdps(40):
                for j, point in enumerate(z.tolist()):
                    theta = 2 * mpmath.pi * (j + (0 if axis else mpmath.mpf(0.5))) / k
                    assert abs(point.real - mpmath.cos(theta)) <= 2.0**-52, (k, axis, j)
                    assert abs(point.imag - mpmath.sin(theta)) <= 2.0**-52, (k, axis, j)


def test_real_coefficient_margins_repeat_bitwise_at_mirrored_points():
    # f(conj z) = conj f(z) for real coefficients, so on a conjugation-symmetric
    # ring the reference engine gives the same margin at z and at conj z; the
    # library's real FFT fills the mirrored angles with conjugates and relies on this
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    f = random_t_form(p, 0.9, np.random.default_rng(7))
    for grid in (DiskGrid(), DiskGrid(angular_count=5), DiskGrid(radii=(0.5, 0.9), angular_count=7, include_positive_axis=False)):
        header, rows = ref_margin_rows(f, p, grid)
        assert header[4:] == ["growth_lower_margin", "growth_upper_margin"]
        k = grid.angular_count
        table = np.array(rows).reshape(len(grid.radii), k, len(header))
        mirrored = table[:, (-np.arange(k) - (0 if grid.include_positive_axis else 1)) % k]
        assert_bits(mirrored[..., 1], -table[..., 1] + 0.0)
        for column in (0, *range(2, len(header))):
            assert_bits(mirrored[..., column], table[..., column])


def evaluated_sizes(run):
    """run() and the size of every point array that the Horner core received."""
    sizes = []
    horner = series._horner

    def recording(coeffs, z):
        sizes.append(np.size(z))
        return horner(coeffs, z)

    # the harmonic Horner reaches _horner through qharm.series
    with mock.patch.object(series, "_horner", recording), mock.patch.object(verify, "_horner", recording):
        run()
    return sizes


def transforms(run):
    """run() and the name, input shape and dtype kind of every FFT it made."""
    calls = []

    def recording(name):
        transform = getattr(np.fft, name)

        def record(x, *args, **kwargs):
            calls.append((name, x.shape, x.dtype.kind))
            return transform(x, *args, **kwargs)

        return record

    with mock.patch.object(np.fft, "rfft", recording("rfft")), mock.patch.object(np.fft, "ifft", recording("ifft")):
        run()
    return calls


def phased(f):
    """f with one nonzero imaginary part in h, so that f, T and h' are complex and g' stays real."""
    h = list(f.h.coeffs)
    h[5] = complex(h[5].real, 1e-3)
    return HarmonicFunction(AnalyticSeries(h, trunc=f.h.trunc_degree), f.g)


def test_each_polynomial_is_evaluated_once_on_the_whole_grid():
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    grid = DiskGrid()  # M = 256, cut 8

    def checks(f):
        # each single check, the margin table and disc_checks, whose injectivity
        # pairs read the mirrored grid values of f
        def run():
            re_condition_margin(f, p, grid), sense_preserving_margin(f, grid), margin_rows(f, p, grid)
            if f.t_form:
                growth_bound_check(f, p, grid)
            verify.disc_checks(f, p, grid, 256)

        return run

    # trunc 8: T, h' and g' have degree 7 and f degree 8, so Horner takes every one
    low = random_t_form(p, 0.9, np.random.default_rng(7), trunc=8)
    assert low.t_form and member_t_iff(low, p)
    assert transforms(checks(low)) == transforms(checks(phased(low))) == []
    real_sizes = evaluated_sizes(checks(low))
    assert len(real_sizes) == 15 and set(real_sizes) == {2816}
    phased_sizes = evaluated_sizes(checks(phased(low)))
    assert len(phased_sizes) == 11 and set(phased_sizes) == {2816, 2 * 256}
    # trunc 64: every polynomial takes one real FFT of the 11 rings, f (h + conj(g)) included,
    # and nothing reaches Horner
    member = random_t_form(p, 0.9, np.random.default_rng(7), trunc=64)
    assert member.t_form and member_t_iff(member, p)
    assert evaluated_sizes(checks(member)) == []
    assert transforms(checks(member)) == [("rfft", (11, 256), "f")] * 12
    # the phased function's T, h' and f take complex ones, its real g' a real one; its
    # injectivity pairs read f on the grid
    assert evaluated_sizes(checks(phased(member))) == []
    t = hp = f = ("ifft", (11, 256), "c")
    gp = ("rfft", (11, 256), "f")
    assert transforms(checks(phased(member))) == [
        t,  # re_condition_margin
        *(hp, gp),  # sense_preserving_margin
        *(t, hp, gp),  # margin_rows
        *(t, hp, gp, f),  # disc_checks
    ]


def test_no_scan_candidate_reaches_the_ring_transform():
    # the candidates have degree <= 7, below the default grid's cut of 8
    for mat in SCAN_PARAMS:
        p = ClassParams(m=mat[0], alpha=mat[1], q=QParam(mat[2]))
        with mock.patch.object(verify, "_ring_values", side_effect=AssertionError("FFT")) as ring:
            sizes = evaluated_sizes(lambda: counterexample_scan(p, 200, 7))
        assert not ring.called and len(sizes) > 200


def test_each_part_is_trimmed_once_and_horner_takes_the_trimmed_parts():
    # each part is trimmed once, when it is built, and the dispatch walks nothing; Horner never
    # sees the +0+0j tail, which keeps a long series on Horner, while a -0j tail is kept and takes the FFT
    grid = DiskGrid()
    walk = mock.patch.object(series, "_stored_length", side_effect=AssertionError("walked"))
    ring = mock.patch.object(verify, "_ring_values", return_value=np.zeros(grid.size, complex))
    horner = mock.patch.object(verify, "_horner", wraps=verify._horner)
    grid_values = verify._grid_values

    def without_walking(*args, **kwargs):
        with walk:
            return grid_values(*args, **kwargs)

    # the scan's evaluations walk nothing either, and Horner gets no +0+0j tail
    with mock.patch.object(verify, "_grid_values", side_effect=without_walking) as dispatch, horner as core:
        counterexample_scan(ClassParams(m=3, alpha=0.25, q=QParam(0.9)), 50, 7)
    assert dispatch.call_count > 0 and core.call_count > 0
    for (coeffs, _), _ in core.call_args_list:
        assert top_power(coeffs, 0) == len(coeffs) - 1
    zero_tail, signed_tail = PowerSeries([0.5] * 9 + [0j] * 100), PowerSeries([0.5] * 9 + [-0j] * 100)
    assert (zero_tail._end, signed_tail._end) == (9, 109)
    for s in [PowerSeries([0.5] * 9), harmonic([1.0, *[0.5] * 7], [0.5] * 8, 8), zero_tail]:
        with walk, ring as fft:
            verify._grid_values(s, grid)
        assert not fft.called
    with walk, horner as core:
        verify._grid_values(zero_tail, grid)
        (coeffs, _), _ = core.call_args
        assert coeffs == (0.5 + 0j,) * 9
    above = [PowerSeries([0.5] * 10), harmonic([1.0, *[0.5] * 8], [0.5], 9)]
    with walk, ring as fft:
        for s in above:
            verify._grid_values(s, grid)
        assert fft.call_count == 2
        verify._grid_values(signed_tail, grid)
        (coeffs, low, _), _ = fft.call_args
        assert len(coeffs) == 109 and low == 0


@st.composite
def ring_cases(draw):
    """A grid and a polynomial whose degree is above the grid's cut, up to
    three times its ring length M so that its exponents fold: a PowerSeries,
    or a harmonic f read as h + conj(g), with real or complex coefficients,
    which choose a real or a complex transform."""
    grid = DiskGrid(
        radii=tuple(sorted(draw(st.lists(st.sampled_from([0.3, 0.9, 0.999]), min_size=1, max_size=2, unique=True)))),
        angular_count=draw(st.sampled_from([4, 5, 7, 8, 13, 16, 31, 64])),
        include_positive_axis=draw(st.booleans()),
    )
    m = ring_length(grid)
    degree = draw(st.integers(m.bit_length(), min(3 * m, 150)))
    real = draw(st.booleans())
    part = st.floats(min_value=-0.7, max_value=0.7, allow_nan=False, allow_subnormal=False)
    coefficient = st.builds(complex, part, st.just(0.0) if real else part)
    top = 0.5 if real else 0.3 + 0.4j  # nonzero, so that the degree is the drawn one
    if draw(st.booleans()):
        h = [1.0, *draw(st.lists(coefficient, min_size=degree - 2, max_size=degree - 2)), top]
        g = [*draw(st.lists(coefficient, min_size=degree - 1, max_size=degree - 1)), top]
        return grid, harmonic(h, g, degree)
    c = [*draw(st.lists(coefficient, min_size=degree, max_size=degree)), top]
    return grid, PowerSeries(c)


@settings(max_examples=40, deadline=None)
@given(case=ring_cases())
def test_ring_transform_is_within_its_bound_of_mpmath(case):
    # values at the exact angles 2 pi (j + 1/2 off the axis) / K, within
    # 4 u log2(M) sum |c_u| r**u of the exact sum, with the conjugate of g
    mpmath = pytest.importorskip("mpmath")
    grid, s = case
    values = verify._grid_values(s, grid)
    k = grid.angular_count
    m = ring_length(grid)
    harmonic_part = isinstance(s, HarmonicFunction)
    series = [(s.h.coeffs, 1), (s.g.coeffs, 1)] if harmonic_part else [(s.coeffs, 0)]
    with mpmath.workdps(30):
        for ring, r in enumerate(grid.radii):
            bound = 4 * U * math.log2(m) * sum(abs(c) * r ** (start + u) for coeffs, start in series for u, c in enumerate(coeffs))
            for j in range(k):
                w = mpmath.mpf(r) * mpmath.expjpi(2 * (j + (0 if grid.include_positive_axis else mpmath.mpf(0.5))) / mpmath.mpf(k))
                exact = [mpmath.polyval([mpmath.mpc(c) for c in reversed(coeffs)], w) * w**start for coeffs, start in series]
                exact = exact[0] + mpmath.conj(exact[1]) if harmonic_part else exact[0]
                assert abs(mpmath.mpc(values[ring * k + j]) - exact) <= bound, (ring, j)


def ring_terms(s):
    """The coefficients of s as one sum and the exponent of the first: f =
    h + conj(g) with conj(b_u) at exponent -u, a negative e standing for
    conj(z)**-e."""
    if isinstance(s, HarmonicFunction):
        return [*(b.conjugate() for b in reversed(s.g.coeffs)), 0j, *s.h.coeffs], -len(s.g.coeffs)
    return list(s.coeffs), 0


def complex_ring_values(coeffs, low, grid):
    """The complex transform of the terms: each c r**|e| added at e mod M,
    one ifft(norm="forward") of all the rings, then angle j at (M / K)(j + 1) - 1."""
    m = ring_length(grid)
    e = low + np.arange(len(coeffs))
    x = np.zeros((len(grid.radii), m), complex)
    np.add.at(x.T, e % m, np.array(coeffs)[:, None] * np.power.outer(grid.radii, np.abs(e)).T)
    step = m // grid.angular_count
    return np.fft.ifft(x, norm="forward")[:, step - 1 :: step]


def assert_mirrored_conjugates(s, grid):
    """s takes one rfft, and its values at mirrored angles are exact
    conjugates, real at a self-mirrored angle, each within the FFT bound of
    the complex transform of the same terms."""
    got = []
    calls = transforms(lambda: got.append(verify._grid_values(s, grid)))
    assert [name for name, _, _ in calls] == ["rfft"]
    k = grid.angular_count
    j = np.arange(k)
    mirror = (-j - (0 if grid.include_positive_axis else 1)) % k
    v = got[0].reshape(len(grid.radii), k)
    assert_bits(v[:, mirror[j != mirror]].ravel(), np.conjugate(v[:, j != mirror]).ravel())
    assert (v[:, j == mirror].imag == 0).all()
    coeffs, low = ring_terms(s)
    e = np.abs(low + np.arange(len(coeffs)))
    bound = 4 * U * math.log2(ring_length(grid)) * (np.abs(coeffs) * np.power.outer(grid.radii, e)).sum(axis=1)
    assert (np.abs(v - complex_ring_values(coeffs, low, grid)) <= bound[:, None]).all()


def test_real_transform_fills_mirrored_angles_with_exact_conjugates():
    # For real coefficients the rfft gives the angles j <= mirror(j) and the
    # other angles are filled from it: each must be the exact conjugate of its
    # mirror, and every value within the FFT bound of the complex transform of
    # the same terms.  A self-mirrored angle lies on the real axis, where f is real.
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    member = random_t_form(p, 0.9, np.random.default_rng(7), trunc=64)
    for f in (FOLDING, member):
        polynomials = (f, class_transform(f, p.operator_params()), classical_derivative(f.h), classical_derivative(f.g))
        for k in (4, 5, 7, 8, 256):
            for axis in (True, False):
                grid = DiskGrid(radii=(0.3, 0.9, 0.999), angular_count=k, include_positive_axis=axis)
                for s in polynomials:
                    assert_mirrored_conjugates(s, grid)


def test_a_real_polynomial_of_a_complex_function_takes_the_real_transform():
    # complex h and real g above the cut: whether a transform is real is read
    # from the polynomial, so g' takes one rfft and fills its mirrored angles
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    f = phased(random_t_form(p, 0.9, np.random.default_rng(7), trunc=64))
    gp = classical_derivative(f.g)
    assert any(c.imag for c in f.h.coeffs) and not any(c.imag for c in gp.coeffs)
    for grid in (DiskGrid(), DiskGrid(radii=(0.3, 0.9, 0.999), angular_count=7, include_positive_axis=False)):
        assert [name for name, _, _ in transforms(lambda: verify._sense_preserving_margins(f, grid))] == ["ifft", "rfft"]
        assert_mirrored_conjugates(gp, grid)


def test_values_at_an_index_array_are_the_grid_values_there():
    # Horner evaluates only the points asked for and the FFT gathers from the
    # whole grid; either way the values are those of the whole grid, bit for bit
    p = ClassParams(m=3, alpha=0.25, q=QParam(0.9))
    low = random_t_form(p, 0.9, np.random.default_rng(7), trunc=8)
    high = random_t_form(p, 0.9, np.random.default_rng(7), trunc=64)
    witness = harmonic([1.0, *(0.01 / u**2 for u in range(2, 41))], [0.1 * (0.6 + 0.8j) / u**2 for u in range(1, 41)], 40)
    rng = np.random.default_rng(11)
    for f in (low, phased(low), high, phased(high), witness, FOLDING_PHASED):
        for s in (f, class_transform(f, p.operator_params()), classical_derivative(f.h), classical_derivative(f.g)):
            for grid in (DiskGrid(), DiskGrid(radii=(0.3, 0.9), angular_count=7, include_positive_axis=False)):
                values = verify._grid_values(s, grid)
                for size in (1, 2, 7, 2 * grid.size):
                    at = rng.integers(0, grid.size, size=size)
                    assert_bits(verify._grid_values(s, grid, at), values[at])


def test_negative_zero_coefficients_are_evaluated():
    # An odd-order image negates the co-analytic zeros.  Horner over a
    # -0.0 part gives zeros whose sign depends on z and on the number of
    # such steps, so such a coefficient must not be skipped like +0+0j.
    z = ref_points(DiskGrid(radii=(0.5,), angular_count=8))
    for trunc in (1, 3):
        f = HarmonicFunction(AnalyticSeries([1.0], trunc=trunc), AnalyticSeries([], trunc=trunc))
        g = salagean_harmonic(f, OperatorParams(1, QParam(0.5))).g
        assert all(np.signbit(c.real) and np.signbit(c.imag) for c in g.coeffs)
        assert np.array_equal(eval_power(g, z).view(np.uint64), ref_poly(g.coeffs, z).view(np.uint64))
    # one step leaves real zeros of either sign, three leave only +0.0
    assert np.signbit(ref_poly(g.coeffs[:1], z).real).any()
    assert not np.signbit(ref_poly(g.coeffs, z).real).any()


@given(trunc=st.integers(min_value=1, max_value=8), grid=grids)
def test_array_in_array_out(trunc, grid):
    # the trim keeps the first coefficient, so even an all-zero series
    # evaluates to an array shaped like z
    z = grid.points()
    for s in (AnalyticSeries.zero(trunc), AnalyticSeries.identity(trunc)):
        value = eval_power(s, z)
        assert isinstance(value, np.ndarray) and value.shape == z.shape
        assert np.array_equal(value.view(np.uint64), ref_poly(s.coeffs, z).view(np.uint64))


@st.composite
def evaluation_points(draw):
    """z in each form eval_power is given: flat and 2-D arrays of 1-600 or
    2,816 points, strided and gathered views, read-only arrays (the grid's
    among them), 0-d arrays and numpy scalars; signed zeros included."""
    form = draw(st.sampled_from(["flat", "2d", "strided", "gathered", "grid", "0d", "scalar"]))
    if form == "grid":
        return draw(st.one_of(grids, st.just(DiskGrid()))).points()
    size = draw(st.sampled_from([1, 2, 2816]) | st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0])

    def points(n):
        parts = rng.uniform(-1.2, 1.2, (2, n))
        special = rng.random((2, n)) < 0.1
        parts[special] = rng.choice(pool, special.sum())
        return parts[0] + 1j * parts[1]

    if form == "2d":
        rows = draw(st.integers(1, 4))
        z = points(rows * size).reshape((rows, size) if draw(st.booleans()) else (size, rows))
    elif form == "strided":
        step = draw(st.sampled_from([2, 3, -1, -2]))
        z = points(size * abs(step))[::step]
    elif form == "gathered":
        z = points(size)[rng.integers(0, size, size)]
    elif form == "0d":
        return np.array(points(1)[0])
    elif form == "scalar":
        return np.complex128(points(1)[0])
    else:
        z = points(size)
    z.flags.writeable = draw(st.booleans())
    return z


@settings(max_examples=300, deadline=None)
@given(f=functions(), z=evaluation_points())
def test_eval_power_kernel_matches_out_of_place_horner(f, z):
    # Arrays of 2 or more points are updated in place; smaller ones are not,
    # since in place a 1-element array rounds unlike the array loop.
    before = z.tobytes()
    for s in (f.h, f.g, classical_derivative(f.h)):
        got, want = eval_power(s, z), ref_poly(s.coeffs, z)
        assert type(got) is type(want) and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert z.tobytes() == before


def ref_gap_candidate(p, rng):
    """The scan's candidate with h and g padded to DEFAULT_TRUNC."""
    target = 1.001 + 0.4 * rng.random()
    nslots = 2 + int(rng.random() * 3)
    slots = []
    for _ in range(nslots):
        kind = "a" if rng.random() < 0.5 else "b"
        slots.append((kind, 2 + int(rng.random() * 6)))
    raws = np.array([0.2 + rng.random() for _ in slots])
    shares = raws / raws.sum() * target
    w = weights(max(u for _, u in slots), p.q, p.m)
    h = [0j] * DEFAULT_TRUNC
    g = [0j] * DEFAULT_TRUNC
    h[0] = 1.0
    for (kind, u), share in zip(slots, shares):
        mag = share * (1.0 - p.alpha) / w[u - 1]
        phase = complex(math.cos(2.0 * math.pi * rng.random()), math.sin(2.0 * math.pi * rng.random()))
        if kind == "a":
            h[u - 1] += mag * phase
        else:
            g[u - 1] += mag * phase
    return HarmonicFunction(AnalyticSeries(h), AnalyticSeries(g))


# The benchmark's parameter sets P1-P4.
SCAN_PARAMS = [(3, 0.25, 0.9), (0, 0.0, 0.5), (1, 0.5, 0.99), (6, 0.1, 0.7)]


@settings(max_examples=40, deadline=None)
@given(mat=st.sampled_from(SCAN_PARAMS), seed=st.integers(0, 2**63 - 1), trials=st.integers(1, 20))
def test_scan_matches_padded_candidates(mat, seed, trials):
    p = ClassParams(m=mat[0], alpha=mat[1], q=QParam(mat[2]))
    got = counterexample_scan(p, trials, seed).to_dict()
    with mock.patch.object(verify, "_random_gap_candidate", ref_gap_candidate):
        expected = counterexample_scan(p, trials, seed).to_dict()
    assert_same(got, expected)


def exhaustive_scan(p, trials, seed, pair_budget, tolerance):
    """counterexample_scan's report, padded candidates and all three checks
    run on every candidate whose functional exceeds 1."""
    grid = DiskGrid()
    flagged = []
    for trial in range(trials):
        f = ref_gap_candidate(p, np.random.default_rng([seed, trial]))
        functional = coeff_functional(f, p)
        if functional <= 1.0:
            continue
        re = re_condition_margin(f, p, grid, tolerance=tolerance)
        sp = sense_preserving_margin(f, grid, tolerance=tolerance)
        inj = injectivity_sample_check(f, grid, pair_budget, seed=trial, tolerance=tolerance)
        if re.passed and sp.passed and inj.passed:
            flagged.append({
                "trial": trial,
                "functional": functional,
                "re_condition_margin": re.min_margin,
                "sense_preserving_margin": sp.min_margin,
                "injectivity_margin": inj.min_margin,
            })
    return {"trials": trials, "seed": seed, "step_violations": list(proof_step_violations(p)), "gap_examples": flagged}


@settings(max_examples=30, deadline=None)
@given(
    mat=st.sampled_from(SCAN_PARAMS) | st.tuples(st.integers(0, 6), st.floats(0.0, 0.9), st.floats(0.05, 0.99)),
    seed=st.integers(0, 2**63 - 1),
    trials=st.integers(1, 40),
    tolerance=st.sampled_from([0.0, 1e-9, 1e-3]),
    pair_budget=st.integers(1, 128),
)
def test_scan_equals_exhaustive_reference(mat, seed, trials, tolerance, pair_budget):
    p = ClassParams(m=mat[0], alpha=mat[1], q=QParam(mat[2]))
    got = counterexample_scan(p, trials, seed, pair_budget=pair_budget, tolerance=tolerance)
    assert_same(got.to_dict(), exhaustive_scan(p, trials, seed, pair_budget, tolerance))


def coeff_parts(s):
    return [part for c in s.coeffs for part in (c.real, c.imag)]


@settings(max_examples=40, deadline=None)
@given(mat=st.sampled_from(SCAN_PARAMS), seed=st.integers(0, 2**63 - 1), trials=st.integers(1, 40))
def test_every_scan_candidate_equals_the_padded_reference(mat, seed, trials):
    # every trial, skipped or not: the scan's reports show only flagged ones
    p = ClassParams(m=mat[0], alpha=mat[1], q=QParam(mat[2]))
    for trial in range(trials):
        f = verify._random_gap_candidate(p, np.random.default_rng([seed, trial]))
        ref = ref_gap_candidate(p, np.random.default_rng([seed, trial]))
        for got, want in ((f.h, ref.h), (f.g, ref.g)):
            assert_same(coeff_parts(AnalyticSeries(got.coeffs, trunc=DEFAULT_TRUNC)), coeff_parts(want))


def ref_random_t_form(p, target, rng, trunc):
    """random_t_form's body with one scalar draw per slot."""
    slots = [("analytic", u) for u in range(2, trunc + 1)] + [("coanalytic", u) for u in range(1, trunc + 1)]
    raws = np.array([(0.5 + rng.random()) * 0.25**u for _, u in slots])
    shares = raws / raws.sum() * target
    b1_index = len(slots) - trunc
    b1_limit = 0.95 / (1.0 - p.alpha)
    if shares[b1_index] > b1_limit:
        if trunc == 1:
            raise DomainError(f"target functional {target!r} needs |b_1| > 0.95 at trunc 1")
        excess = shares[b1_index] - b1_limit
        shares[b1_index] = b1_limit
        shares[b1_index + 1] += excess
    terms = [(kind, u, share, -1.0 if kind == "analytic" else 1.0) for (kind, u), share in zip(slots, shares.tolist())]
    return _from_shares(p, trunc, terms)


@settings(max_examples=120, deadline=None)
@given(
    mat=st.sampled_from(SCAN_PARAMS),
    target=st.floats(0.0, 2.0) | st.sampled_from([0.95, 0.999, 1.0, 1.001]),
    trunc=st.integers(1, 130),
    seed=st.integers(0, 2**63 - 1),
)
def test_random_t_form_equals_its_scalar_draw_body(mat, target, trunc, seed):
    p = ClassParams(m=mat[0], alpha=mat[1], q=QParam(mat[2]))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        ref = ref_random_t_form(p, target, ref_rng, trunc)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            random_t_form(p, target, rng, trunc=trunc)
        return
    f = random_t_form(p, target, rng, trunc=trunc)
    for got, want in ((f.h, ref.h), (f.g, ref.g)):
        assert_same(coeff_parts(got), coeff_parts(want))
    assert rng.random() == ref_rng.random()  # both drew the same number of values
