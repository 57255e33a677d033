"""Oracle test for the grid engine behind the disc checks.

The reference below is the plain engine: a fresh point array per call, a
zero-seeded Horner loop over every stored coefficient, the whole grid
evaluated for the injectivity pairs, and margin_rows with its own margin
formulas.  The library skips high-order +0+0j coefficients, caches the grid
points, and evaluates f for the injectivity pairs either once on both pair
ends or not at all, reading the grid values of the growth margins; its
reports and margin tables must equal the reference bit for bit, zero signs
included, and so must the CSV text and the reports and table of
disc_checks, which share each margin array between them.  Likewise the scan
builds its candidates at their highest drawn power and stops each trial at
its first failed check, and its reports must equal those of candidates
padded to DEFAULT_TRUNC with every check run.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from qharm import (
    DEFAULT_TRUNC,
    AnalyticSeries,
    ClassParams,
    DiskGrid,
    HarmonicFunction,
    OperatorParams,
    QParam,
    class_transform,
    classical_derivative,
    coeff_functional,
    counterexample_scan,
    eval_power,
    growth_bound_check,
    growth_bounds,
    injectivity_sample_check,
    margin_rows,
    member_t_iff,
    proof_step_violations,
    re_condition_margin,
    salagean_harmonic,
    sense_preserving_margin,
    write_margin_csv,
)
from qharm import verify
from qharm.qcore import weights

# --- reference engine ---------------------------------------------------------------


def ref_points(grid):
    k = grid.angular_count
    offset = 0.0 if grid.include_positive_axis else 0.5
    theta = 2.0 * np.pi * (np.arange(k) + offset) / k
    ring = np.exp(1j * theta)
    return np.concatenate([r * ring for r in grid.radii])


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


def ref_re_condition(f, p, grid, tol):
    z = ref_points(grid)
    t = class_transform(f, p.operator_params())
    return ref_report("re_condition", np.real(ref_poly(t.coeffs, z)) - p.alpha, z, tol)


def ref_sense_preserving(f, grid, tol):
    z = ref_points(grid)
    hp = classical_derivative(f.h).coeffs
    gp = classical_derivative(f.g).coeffs
    margins = np.abs(ref_poly(hp, z)) - np.abs(ref_poly(gp, z))
    return ref_report("sense_preserving", margins, z, tol)


def ref_injectivity(f, grid, pair_budget, seed, tol):
    z = ref_points(grid)
    n = z.size
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=pair_budget)
    j = rng.integers(0, n, size=pair_budget)
    j = np.where(i == j, (j + 1) % n, j)
    fz = ref_harmonic(f, z)
    ratios = np.abs(fz[i] - fz[j]) / np.abs(z[i] - z[j])
    return ref_report("injectivity", ratios, z[i], tol, strict=True)


def ref_growth_arrays(f, p, grid):
    b1 = f.g.coeffs[0].real
    k = grid.angular_count
    lowers = np.repeat([growth_bounds(b1, r, p).lower for r in grid.radii], k)
    uppers = np.repeat([growth_bounds(b1, r, p).upper for r in grid.radii], k)
    return lowers, uppers, np.abs(ref_harmonic(f, ref_points(grid)))


def ref_growth(f, p, grid, tol):
    lowers, uppers, mod = ref_growth_arrays(f, p, grid)
    margins = np.minimum(uppers - mod, mod - lowers)
    return ref_report("growth_bounds", margins, ref_points(grid), tol)


def ref_margin_rows(f, p, grid):
    z = ref_points(grid)
    t = class_transform(f, p.operator_params())
    re_m = np.real(ref_poly(t.coeffs, z)) - p.alpha
    hp = classical_derivative(f.h).coeffs
    gp = classical_derivative(f.g).coeffs
    sp_m = np.abs(ref_poly(hp, z)) - np.abs(ref_poly(gp, z))
    header = ["re", "im", "re_condition_margin", "sense_preserving_margin"]
    columns = [np.real(z), np.imag(z), re_m, sp_m]
    if f.t_form and member_t_iff(f, p):
        lowers, uppers, mod = ref_growth_arrays(f, p, grid)
        header += ["growth_lower_margin", "growth_upper_margin"]
        columns += [mod - lowers, uppers - mod]
    return header, [[float(col[i]) for col in columns] for i in range(z.size)]


def ref_csv(f, p, grid):
    header, rows = ref_margin_rows(f, p, grid)
    return "".join(",".join(line) + "\n" for line in [header, *([repr(v) for v in row] for row in rows)])


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


@settings(max_examples=150, deadline=None)
@given(
    f=functions(),
    p=class_params,
    grid=st.one_of(grids, st.just(DiskGrid())),
    pair_budget=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_engine_matches_reference_bitwise(f, p, grid, pair_budget, seed):
    z = ref_points(grid)
    for s in (f.h, f.g):
        assert np.array_equal(eval_power(s, z).view(np.uint64), ref_poly(s.coeffs, z).view(np.uint64))
    tol = 1e-9
    expected = [
        ref_re_condition(f, p, grid, tol),
        ref_sense_preserving(f, grid, tol),
        ref_injectivity(f, grid, pair_budget, seed, tol),
    ]
    assert_same(re_condition_margin(f, p, grid, tolerance=tol).to_dict(), expected[0])
    assert_same(sense_preserving_margin(f, grid, tolerance=tol).to_dict(), expected[1])
    assert_same(injectivity_sample_check(f, grid, pair_budget, seed=seed, tolerance=tol).to_dict(), expected[2])
    if f.t_form and member_t_iff(f, p):
        expected.append(ref_growth(f, p, grid, tol))
        assert_same(growth_bound_check(f, p, grid, tolerance=tol).to_dict(), expected[3])
    assert_same(margin_rows(f, p, grid), ref_margin_rows(f, p, grid))
    text = ref_csv(f, p, grid)
    buf = io.StringIO()
    write_margin_csv(buf, f, p, grid)
    assert buf.getvalue() == text
    buf = io.StringIO()
    reports = verify.disc_checks(f, p, grid, pair_budget, seed=seed, tolerance=tol, csv=lambda: contextlib.nullcontext(buf))
    assert buf.getvalue() == text
    assert_same([r.to_dict() for r in reports], expected)


@given(grid=grids)
def test_grid_points_cached_and_read_only(grid):
    z = grid.points()
    assert z is grid.points()
    assert z is DiskGrid(grid.radii, grid.angular_count, grid.include_positive_axis).points()
    assert not z.flags.writeable
    fresh = ref_points(grid)
    assert np.array_equal(z.view(np.uint64), fresh.view(np.uint64))


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
