import io
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from qharm import (
    AnalyticSeries,
    ClassParams,
    DiskGrid,
    DomainError,
    HarmonicFunction,
    QParam,
    classical_derivative,
    coeff_functional,
    counterexample_scan,
    eval_power,
    extreme_point,
    growth_bound_check,
    growth_witness_upper,
    harmonic_from_json,
    harmonic_to_json,
    injectivity_sample_check,
    margin_rows,
    member_t_iff,
    necessity_probe,
    proof_step_violations,
    random_t_form,
    re_condition_margin,
    satisfies_sufficient,
    sense_preserving_margin,
    write_margin_csv,
)
from qharm import classes, verify
from qharm.classes import MAX_PROOF_STEP_U
from qharm.qcore import MAX_JSON_TRUNC, weights
from qharm.verify import MAX_ANGULAR_COUNT, MAX_GRID_POINTS, MAX_PAIR_BUDGET, MAX_TRIALS


def params(m=0, alpha=0.0, q=0.5):
    return ClassParams(m=m, alpha=alpha, q=QParam(q))


def pair(h_tail, g_coeffs, trunc=8):
    return HarmonicFunction(
        AnalyticSeries([1.0] + list(h_tail), trunc=trunc),
        AnalyticSeries(g_coeffs, trunc=trunc),
    )


IDENTITY = HarmonicFunction.from_t_magnitudes({}, {}, trunc=8)


# --- grid ------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5, 0.4))
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.0, 0.5))
    with pytest.raises(DomainError):
        DiskGrid(radii=(0.5, 1.0))
    with pytest.raises(DomainError):
        DiskGrid(angular_count=3)
    with pytest.raises(DomainError):
        DiskGrid(radii=())


def test_coincident_grid_points_give_no_pair_but_the_grid_stands():
    # at a subnormal radius the 256 angles round onto 8 points; the grid and its
    # pointwise checks stand, and the injectivity check drops the coincident pairs
    grid = DiskGrid(radii=(5e-324,))
    assert np.unique(grid.points()).size == 8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = injectivity_sample_check(IDENTITY, grid, 256)
        assert report.passed and report.min_margin == 1.0 and 0 < report.samples < 256
        # seed 1 draws one pair, and its ends coincide
        message = r"^no drawn pair of grid points is more than 5e-07 of the larger modulus apart$"
        with pytest.raises(DomainError, match=message):
            injectivity_sample_check(IDENTITY, grid, 1, seed=1)
    assert sense_preserving_margin(IDENTITY, DiskGrid(radii=(1e-323, 0.5), include_positive_axis=False)).passed


class PairDraws:
    """Stands in for the pair generator of _injectivity_report: its two
    integers() calls return the given first and second ends."""

    def __init__(self, i, j):
        self.draws = iter([i, j])

    def integers(self, low, high, size):
        return next(self.draws)


def closest_pairs(k):
    """Index pairs (i, j), i != j, of a two-ring grid of k angles: all of them
    for k <= 256; else each point with its next on the ring and the three nearest
    on the other ring, since every other pair is two angular steps apart or more."""
    if k <= 256:
        return np.triu_indices(2 * k, 1)
    t = np.arange(k)
    i = np.concatenate([t, t + k] + [t] * 3)
    j = np.concatenate([(t + 1) % k, (t + 1) % k + k] + [(t + d) % k + k for d in (-1, 0, 1)])
    return i, j


def test_the_pair_rule_keeps_every_pair_of_rings_the_old_gap_apart():
    # grids with consecutive radii b - a >= 1e-6 * b (the smallest such b) and
    # pairwise distinct points: every pair is kept, so their reports are unchanged
    rng = np.random.default_rng(22)
    starts = [1e-300, 0.3, 0.5, 0.998, *rng.uniform(1e-3, 0.998, 4).tolist()]
    skipped = 0
    for a in starts:
        b = a / (1.0 - 1e-6)
        while (c := float(np.nextafter(b, 0.0))) - a >= 1e-6 * c:
            b = c
        while b - a < 1e-6 * b:
            b = float(np.nextafter(b, 1.0))
        for k in (4, 7, 256, 2**16):
            i, j = closest_pairs(k)
            for axis in (True, False):
                grid = DiskGrid(radii=(a, b), angular_count=k, include_positive_axis=axis)
                with mock.patch.object(np.random, "default_rng", lambda seed: PairDraws(i, j)):
                    report = verify._injectivity_report(IDENTITY, grid, i.size, 0, 1e-9)
                skipped += i.size - report.samples
    assert skipped == 0
    # on the default grid every drawn pair is used
    for budget in (256, 65536):
        assert injectivity_sample_check(IDENTITY, DiskGrid(), budget).samples == budget


def test_the_u1334_extreme_point_fails_sense_preservation_on_a_ring_ladder():
    # the functional-1 extreme point stops being sense-preserving past 1 - 3.8e-7;
    # rings 9e-7 of the larger apart near the boundary make one grid
    p = ClassParams(3, 0.25, QParam(0.9))
    f = extreme_point(1334, "coanalytic", p, coanalytic_sign=1)
    grid = DiskGrid(radii=(0.99, 0.999999, 0.9999999))
    report = sense_preserving_margin(f, grid)
    assert satisfies_sufficient(f, p) and not report.passed
    assert report.min_margin == pytest.approx(-3.7e-4, rel=0.05)
    assert abs(report.argmin_point) == pytest.approx(1 - 1e-7)
    assert injectivity_sample_check(f, grid, 256).samples == 256


def test_grid_points_order_and_axis():
    grid = DiskGrid(radii=(0.5, 0.9), angular_count=4)
    z = grid.points()
    assert z.shape == (8,)
    assert z[0] == 0.5 + 0j  # positive axis point, exactly
    assert z[4] == 0.9 + 0j
    assert grid.size == 8


def test_grid_points_shared_by_equal_grids():
    z = DiskGrid().points()
    assert DiskGrid().points() is z
    assert DiskGrid(angular_count=128).points() is not z
    assert DiskGrid(include_positive_axis=False).points() is not z


def test_grid_axis_flag_must_be_a_bool():
    # a truthy string or None would otherwise pick one of the two grids silently
    with mock.patch.object(verify, "_grid_points") as build:
        for flag in ("no", "False", None, 0, 1, 1.0, [True]):
            with pytest.raises(DomainError, match=r"^include_positive_axis must be a bool, got "):
                DiskGrid(include_positive_axis=flag)
        assert not build.called
    assert DiskGrid(include_positive_axis=np.False_) == DiskGrid(include_positive_axis=False)
    assert type(DiskGrid(include_positive_axis=np.True_).include_positive_axis) is bool
    assert DiskGrid(include_positive_axis=np.True_).points() is DiskGrid().points()


def test_grid_axis_exclusion():
    grid = DiskGrid(radii=(0.5,), angular_count=4, include_positive_axis=False)
    z = grid.points()
    assert all(abs(zz.imag) > 1e-12 for zz in z)


# --- re-condition ------------------------------------------------------------------


def test_re_condition_constant_transform():
    p = params(0, 0.9, 0.5)
    rep = re_condition_margin(IDENTITY, p, DiskGrid())
    assert rep.passed
    assert rep.min_margin == 1.0 - 0.9
    assert rep.samples == DiskGrid().size


def test_re_condition_boundary_point_min_on_axis():
    # transform of the power-2 boundary function at order 0 is 1 - z
    p = params(0, 0.0, 0.5)
    f = extreme_point(2, "analytic", p)
    grid = DiskGrid(radii=(0.3, 0.6, 0.99), angular_count=8)
    rep = re_condition_margin(f, p, grid)
    assert rep.passed
    assert rep.argmin_point == 0.99 + 0j
    assert rep.min_margin == pytest.approx(0.01, abs=1e-12)


def test_re_condition_fails_for_violator():
    # functional 1.5 with all mass on the analytic power 2
    f = HarmonicFunction.from_t_magnitudes({2: 1.5}, {}, trunc=4)
    p = params(0, 0.0, 0.5)
    rep = re_condition_margin(f, p, DiskGrid())
    assert not rep.passed
    assert rep.min_margin < -0.4


def test_re_condition_deterministic():
    p = params(1, 0.25, 0.7)
    f = pair([-0.2, 0.1j], [0.3])
    a = re_condition_margin(f, p, DiskGrid())
    b = re_condition_margin(f, p, DiskGrid())
    assert a == b


# --- sense preservation ---------------------------------------------------------------


def test_sense_preserving_identity():
    rep = sense_preserving_margin(IDENTITY, DiskGrid())
    assert rep.passed
    assert rep.min_margin == 1.0


def test_sense_preserving_pointwise_values():
    f = pair([], [0.99, 0.02])
    hp = classical_derivative(f.h)
    gp = classical_derivative(f.g)
    assert abs(eval_power(hp, 0j)) - abs(eval_power(gp, 0j)) == pytest.approx(0.01, abs=1e-15)
    # away from the origin |g'| outgrows |h'| = 1: the grid check fails
    rep = sense_preserving_margin(f, DiskGrid())
    assert not rep.passed


def test_sense_preserving_member_passes():
    p = params(3, 0.25, 0.9)
    rng = np.random.default_rng(5)
    f = random_t_form(p, 0.97, rng)
    rep = sense_preserving_margin(f, DiskGrid())
    assert rep.passed


# --- injectivity -----------------------------------------------------------------------


def test_injectivity_identity_isometry():
    rep = injectivity_sample_check(IDENTITY, DiskGrid(), 100, seed=3)
    assert rep.passed
    assert rep.min_margin == 1.0


def test_injectivity_seeded_determinism():
    f = pair([-0.2], [0.1])
    a = injectivity_sample_check(f, DiskGrid(), 64, seed=9)
    b = injectivity_sample_check(f, DiskGrid(), 64, seed=9)
    assert a == b


def test_injectivity_rejects_bad_budget():
    with pytest.raises(DomainError):
        injectivity_sample_check(IDENTITY, DiskGrid(), 0)


# --- growth -----------------------------------------------------------------------------


def test_growth_check_identity_inside_bounds():
    p = params(0, 0.5, 0.5)
    rep = growth_bound_check(IDENTITY, p, DiskGrid())
    assert rep.passed
    assert rep.min_margin > 0.0


def test_growth_check_upper_witness_has_zero_margin():
    p = params(1, 0.25, 0.5)
    f = growth_witness_upper(0.3, p)
    rep = growth_bound_check(f, p, DiskGrid())
    assert rep.passed
    assert rep.min_margin >= -1e-12


def test_growth_check_requires_t_member():
    p = params(0, 0.5, 0.5)
    violator = HarmonicFunction.from_t_magnitudes({2: 1.5}, {}, trunc=4)
    with pytest.raises(DomainError):
        growth_bound_check(violator, p, DiskGrid())
    non_t = pair([0.1], [])
    with pytest.raises(DomainError):
        growth_bound_check(non_t, p, DiskGrid())


def test_growth_check_b1_within_membership_tolerance():
    p = params(1, 0.5, 0.5)
    f = HarmonicFunction.from_t_magnitudes({}, {1: 0.5 * (1.0 + 5e-13)}, trunc=4)
    assert growth_bound_check(f, p, DiskGrid()).passed


# --- necessity probe -------------------------------------------------------------------


def test_probe_requires_t_form():
    with pytest.raises(DomainError):
        necessity_probe(pair([0.1], []), params())


def test_probe_boundary_function_margin_to_zero():
    p = params(0, 0.25, 0.5)
    f = HarmonicFunction.from_t_magnitudes({2: 1.0 - p.alpha}, {}, trunc=4)
    rep = necessity_probe(f, p)
    assert rep.passed
    assert rep.limit_margin == pytest.approx(0.0, abs=1e-12)
    # margins decrease toward 0 from above
    margins = [m for _, m in rep.entries]
    assert all(a > b for a, b in zip(margins, margins[1:]))
    assert margins[-1] > 0.0


def test_probe_small_functional_bounded_away():
    p = params(1, 0.4, 0.6)
    rng = np.random.default_rng(21)
    f = random_t_form(p, 0.5, rng)
    rep = necessity_probe(f, p)
    assert rep.passed
    assert min(m for _, m in rep.entries) >= 0.5 * (1.0 - p.alpha) - 1e-9


def test_probe_violator_fails_where_bisection_says():
    p = params(0, 0.0, 0.5)
    f = HarmonicFunction.from_t_magnitudes({2: 0.9, 3: 0.3}, {}, trunc=4)
    assert coeff_functional(f, p) == pytest.approx(1.2, abs=1e-12)

    def axis_margin(r):
        return 1.0 - 0.9 * r - 0.3 * r * r - p.alpha

    # independent oracle: bisection for the crossing radius
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if axis_margin(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)

    rep = necessity_probe(f, p)
    assert not rep.passed
    assert rep.first_failure is not None
    assert rep.first_failure >= crossing
    # the sampled radius just before the failure is still fine
    earlier = [r for r, _ in rep.entries if r < crossing]
    for r in earlier:
        assert axis_margin(r) > 0.0


def test_probe_rejects_bad_radius_sequence():
    f = HarmonicFunction.from_t_magnitudes({2: 0.1}, {}, trunc=4)
    p = params()
    with pytest.raises(DomainError):
        necessity_probe(f, p, [0.5, 0.4])
    with pytest.raises(DomainError):
        necessity_probe(f, p, [0.5, 1.0])
    with pytest.raises(DomainError):
        necessity_probe(f, p, [])


RADIUS_CALLERS = {
    "radii": lambda rs: DiskGrid(radii=rs),
    "probe radii": lambda rs: necessity_probe(HarmonicFunction.from_t_magnitudes({2: 0.1}, {}, trunc=4), params(), rs),
}


@pytest.mark.parametrize("what", sorted(RADIUS_CALLERS))
@pytest.mark.parametrize(
    "radii, problem",
    [
        ((), "must be non-empty"),
        ((0.0, 0.5), "must lie in (0, 1), got 0.0"),
        ((0.5, 1.0), "must lie in (0, 1), got 1.0"),
        ((float("nan"),), "must lie in (0, 1), got nan"),
        ((0.5, 0.4), "must be strictly increasing, got (0.5, 0.4)"),
        ((0.5, 0.5), "must be strictly increasing, got (0.5, 0.5)"),
    ],
)
def test_radius_sequences_are_checked_alike(what, radii, problem):
    # DiskGrid and necessity_probe share one check, which names the caller's sequence.
    with pytest.raises(DomainError, match="^" + re.escape(f"{what} {problem}")):
        RADIUS_CALLERS[what](radii)


# --- generator -------------------------------------------------------------------------


def test_random_t_form_hits_target():
    p = params(2, 0.3, 0.6)
    rng = np.random.default_rng(77)
    for target in (0.25, 1.0, 1.5):
        f = random_t_form(p, target, rng)
        assert f.t_form
        assert coeff_functional(f, p) == pytest.approx(target, rel=1e-12)


def test_random_t_form_caps_b1():
    p = params(0, 0.0, 0.5)
    rng = np.random.default_rng(78)
    for _ in range(50):
        f = random_t_form(p, 1.9, rng)
        assert abs(f.g.coeffs[0]) <= 0.95 + 1e-12


def test_random_t_form_rejects_bad_target():
    p = params()
    rng = np.random.default_rng(1)
    with pytest.raises(DomainError):
        random_t_form(p, -0.5, rng)
    with pytest.raises(DomainError):
        random_t_form(p, float("nan"), rng)


def test_random_t_form_trunc_one():
    p = params(0, 0.0, 0.5)
    rng = np.random.default_rng(3)
    # the only slot is b_1, capped at max_b1 = 0.95: target 1 cannot be met
    with pytest.raises(DomainError):
        random_t_form(p, 1.0, rng, trunc=1)
    f = random_t_form(p, 0.5, rng, trunc=1)
    assert f.g.coeffs == (0.5 + 0j,)


def test_random_t_form_trunc_limit():
    p = params(3, 0.25, 0.9)
    f = random_t_form(p, 0.5, np.random.default_rng(1), trunc=MAX_JSON_TRUNC)
    assert harmonic_from_json(harmonic_to_json(f)) == f
    # refused before a single draw: the series could not be read back
    rng = mock.Mock(random=mock.Mock(side_effect=Reached))
    for n in (MAX_JSON_TRUNC + 1, 10**12):
        with pytest.raises(DomainError, match=f"trunc {n} exceeds the limit {MAX_JSON_TRUNC}"):
            random_t_form(p, 0.5, rng, trunc=n)


def test_random_t_form_envelope_underflows():
    # 0.25**u is 0 from u = 538 on, and the coefficients go to 0 a little
    # before it, so the longest series has nothing past power 532
    p = params(3, 0.25, 0.9)
    f = random_t_form(p, 0.5, np.random.default_rng(1), trunc=MAX_JSON_TRUNC)
    for part in (f.h, f.g):
        assert max(u for u, c in enumerate(part.coeffs, 1) if c != 0) == 532


# --- proof-step map and scan ------------------------------------------------------------


def test_step_violations_order_zero():
    # weight 1 for every u, so u (1 - alpha) > 1 whenever u >= 2
    for q in (0.1, 0.5, 0.9):
        vio = proof_step_violations(params(0, 0.0, q), max_u=8)
        assert vio == (2, 3, 4, 5, 6, 7, 8)


def test_step_violations_large_order_clear():
    # [2]_0.9**3 = 6.859 >= 2
    assert 2 not in proof_step_violations(params(3, 0.0, 0.9))


def test_step_violation_boundary_case():
    # m=1, q=0.5: [2]_q = 1.5 < 2 (1 - 0) -> invalid at u=2
    assert 2 in proof_step_violations(params(1, 0.0, 0.5))
    # but with alpha = 0.5: 2 * 0.5 = 1.0 <= 1.5 -> valid
    assert 2 not in proof_step_violations(params(1, 0.5, 0.5))


def table_step_violations(p, max_u):
    """The comparison over the whole weight table, which refuses where a weight overflows."""
    w = weights(max(max_u, 1), p.q, p.m)
    return tuple(u for u in range(2, max_u + 1) if u * (1.0 - p.alpha) > w[u - 1])


def test_step_violations_equal_the_table_comparison_where_no_weight_overflows():
    # the benchmark's P1-P4 (P1 fails from u = 1334, P4 from 1525) and a small lattice
    for m, alpha, q, max_u in [(3, 0.25, 0.9, 2000), (0, 0.0, 0.5, 64), (1, 0.5, 0.99, 2000), (6, 0.1, 0.7, 2000)]:
        p = params(m, alpha, q)
        assert proof_step_violations(p, max_u=max_u) == table_step_violations(p, max_u)
    for m in range(7):
        for alpha in (0.0, 0.25, 0.5):
            for q in (0.1, 0.5, 0.9):
                assert proof_step_violations(params(m, alpha, q), max_u=64) == table_step_violations(params(m, alpha, q), 64)


def test_step_violations_stop_below_the_first_overflowing_weight():
    # [u]_0.99**250 first overflows a float at u = 19, and every later weight overflows too,
    # so exceeds u (1 - alpha): no violation there.  weights itself still refuses the table.
    p = params(250, 0.0, 0.99)
    assert weights(18, p.q, p.m)[-1] < math.inf
    for n in (19, 32):
        with pytest.raises(DomainError, match=f"^the weight of u = {n} overflows a float at m = 250"):
            weights(n, p.q, p.m)
    expected = table_step_violations(p, 18)
    assert proof_step_violations(p) == proof_step_violations(p, max_u=19) == expected
    assert proof_step_violations(p, max_u=MAX_JSON_TRUNC) == expected


def test_step_violations_without_powers_to_check():
    # the comparison starts at u = 2, so there is nothing to report below it
    assert proof_step_violations(params(1, 0.0, 0.5), max_u=1) == ()
    assert proof_step_violations(params(1, 0.0, 0.5), max_u=0) == ()



def test_scan_reproducible():
    p = params(0, 0.0, 0.5)
    a = counterexample_scan(p, 12, 99)
    b = counterexample_scan(p, 12, 99)
    assert a == b


def test_scan_stops_each_trial_at_its_first_failed_check():
    # criterion 10's pinned call: Re-condition first, sense-preservation
    # only after it passed, injectivity only after both passed
    p = params(0, 0.0, 0.5)
    grid = DiskGrid()
    expected = []
    for trial in range(40):
        f = verify._random_gap_candidate(p, np.random.default_rng([20250810, trial]))
        if coeff_functional(f, p) <= 1.0:
            continue
        expected.append(("re_condition_margin", f))
        if re_condition_margin(f, p, grid).passed:
            expected.append(("sense_preserving_margin", f))
            if sense_preserving_margin(f, grid).passed:
                expected.append(("injectivity_sample_check", f))
    names = [name for name, _ in expected]
    # both early exits are taken at this seed
    assert 0 < names.count("sense_preserving_margin") < names.count("re_condition_margin")
    assert 0 < names.count("injectivity_sample_check") < names.count("sense_preserving_margin")

    calls = []

    def spy(name):
        real = getattr(verify, name)

        def wrapper(f, *args, **kwargs):
            calls.append((name, f))
            return real(f, *args, **kwargs)

        return mock.patch.object(verify, name, wrapper)

    with spy("re_condition_margin"), spy("sense_preserving_margin"), spy("injectivity_sample_check"):
        rep = counterexample_scan(p, 40, 20250810)
    assert calls == expected
    assert [g.trial for g in rep.gap_examples] == [18]


def test_scan_rejects_bad_trials():
    with pytest.raises(DomainError):
        counterexample_scan(params(), 0, 1)


def test_negative_seeds_are_domain_errors():
    # numpy refuses them too, but with a ValueError that names no seed
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        counterexample_scan(params(), 1, -1)
    with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
        injectivity_sample_check(IDENTITY, DiskGrid(), 8, seed=-1)


# --- reports and CSV ----------------------------------------------------------------------


def test_report_json_shape():
    rep = re_condition_margin(IDENTITY, params(0, 0.5, 0.5), DiskGrid())
    d = rep.to_dict()
    assert set(d) == {"check", "min_margin", "argmin", "passed", "samples", "tolerance"}
    assert d["argmin"] == [rep.argmin_point.real, rep.argmin_point.imag]


def test_margin_csv_layout():
    p = params(0, 0.25, 0.5)
    f = HarmonicFunction.from_t_magnitudes({2: 0.25}, {1: 0.25}, trunc=4)
    grid = DiskGrid(radii=(0.5,), angular_count=4)
    buf = io.StringIO()
    write_margin_csv(buf, f, p, grid)
    lines = buf.getvalue().strip().splitlines()
    header = lines[0].split(",")
    assert header[:2] == ["re", "im"]
    assert "re_condition_margin" in header
    assert "sense_preserving_margin" in header
    assert "growth_lower_margin" in header  # t_form member: growth columns present
    assert len(lines) == 1 + grid.size
    first = [float(v) for v in lines[1].split(",")]
    assert len(first) == len(header)
    assert first[0] == 0.5 and first[1] == 0.0


def test_margin_csv_skips_growth_for_non_member():
    p = params(0, 0.0, 0.5)
    f = pair([0.1], [])
    header, rows = margin_rows(f, p, DiskGrid(radii=(0.5,), angular_count=4))
    assert "growth_lower_margin" not in header
    assert len(rows) == 4


def csv_text(table, header):
    """_write_csv's text of the columns of table, named by header."""
    buf = io.StringIO()
    verify._write_csv(buf, dict(zip(header, table.T)))
    return buf.getvalue()


def test_csv_writer_equals_repr_per_cell():
    # The writer calls repr once per distinct magnitude of a block and puts "-"
    # before the text of a cell whose sign bit is set, unless it is a NaN.  Both
    # zeros, NaNs of either sign and any payload, infinities, subnormals of
    # either sign, one magnitude with both signs and runs of one value must each
    # come out as their own repr, across block boundaries and in a block of one row.
    signed_nan = float(np.uint64(0xFFF8000000000001).view(np.float64))
    specials = [0.0, -0.0, np.nan, -np.nan, signed_nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308]
    specials += [-2.2250738585072e-308, 1e-310, -1e-310, 0.1, -0.1]
    assert repr(signed_nan) == "nan" and np.array(signed_nan).view(np.uint64) == 0xFFF8000000000001
    rng = np.random.default_rng(17)
    header = ["re", "im", "a", "b", "c", "d"]
    pool = np.concatenate([specials, rng.standard_normal(64), rng.standard_normal(8) * 1e300])
    for rows in (2 * verify._CSV_BLOCK_ROWS + 7, verify._CSV_BLOCK_ROWS + 1, 1):
        table = pool[rng.integers(0, pool.size, size=(rows, 6))]
        if rows > 1:
            table[100:900, 2] = -0.0  # a run within one block
            table[verify._CSV_BLOCK_ROWS - 50 : verify._CSV_BLOCK_ROWS + 50, 3] = 0.0  # a run across a boundary
            table[::7, 4] = np.where(np.arange(table[::7].shape[0]) % 2, 0.0, -0.0)
            table[:200, 5] = np.where(np.arange(200) % 3, 2.5, -2.5)  # one magnitude, both signs
            table[200:260, 5] = [signed_nan, 1e-310, -1e-310, -5e-324] * 15
        lines = csv_text(table, header).split("\n")
        assert lines[0] == ",".join(header) and lines[-1] == ""
        expected = [",".join(map(repr, row)) for row in table.tolist()]
        assert len(lines) == rows + 2
        for got, want in zip(lines[1:-1], expected):
            assert got == want


def test_csv_writer_calls_repr_once_per_distinct_magnitude_per_block(monkeypatch):
    texts = []

    def counting(x):
        texts.append(repr(x))
        return texts[-1]

    monkeypatch.setattr(verify, "repr", counting, raising=False)
    nan = np.nan
    first = [[1.5, -1.5], [0.0, -0.0], [nan, -nan], [2.5, 1.5]]  # magnitudes 0, 1.5, 2.5 and the NaN
    table = np.array(first * (verify._CSV_BLOCK_ROWS // 4) + [[-1.5, 3.5], [-3.5, 1.5], [-0.0, -3.5]])
    text = csv_text(table, ["re", "im"])
    assert sorted(texts) == sorted(["0.0", "1.5", "2.5", "nan"] + ["0.0", "1.5", "3.5"])
    monkeypatch.undo()
    assert text.split("\n")[1:-1] == [",".join(map(repr, row)) for row in table.tolist()]


def test_removed_tolerance_and_generator_keywords_are_type_errors():
    # MEMBERSHIP_TOL, the scan's DiskGrid and the generator's envelope are
    # fixed
    p = params(1, 0.0, 0.5)
    f = HarmonicFunction.from_t_magnitudes({2: 0.1}, {1: 0.1}, trunc=4)
    rng = np.random.default_rng(0)
    calls = [
        lambda: satisfies_sufficient(f, p, tol=0.1),
        lambda: member_t_iff(f, p, tol=0.1),
        lambda: necessity_probe(f, p, tolerance=0.1),
        lambda: growth_bound_check(f, p, DiskGrid(), tail_allowance=0.1),
        lambda: counterexample_scan(p, 1, 0, grid=DiskGrid()),
        lambda: random_t_form(p, 0.5, rng, decay=0.5),
        lambda: random_t_form(p, 0.5, rng, max_b1=0.5),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


# --- the tolerance and non-finite margins ----------------------------------------------

@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf")])
def test_every_tolerance_keyword_lies_in_zero_to_inf(tolerance):
    # the parent failed the identity's Re check (margin 0.5) at nan and -1,
    # and passed the violator z - 1.5z**2 at inf
    p, grid = params(0, 0.5, 0.5), DiskGrid()
    violator = pair([-1.5], [], trunc=4)
    calls = [
        lambda: re_condition_margin(IDENTITY, p, grid, tolerance=tolerance),
        lambda: re_condition_margin(violator, params(), grid, tolerance=tolerance),
        lambda: sense_preserving_margin(IDENTITY, grid, tolerance=tolerance),
        lambda: injectivity_sample_check(IDENTITY, grid, 8, tolerance=tolerance),
        lambda: growth_bound_check(IDENTITY, p, grid, tolerance=tolerance),
        lambda: verify.disc_checks(IDENTITY, p, grid, 8, tolerance=tolerance),
        lambda: counterexample_scan(p, 1, 0, tolerance=tolerance),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"^tolerance must lie in \[0, inf\), got "):
            call()


def test_the_scan_checks_its_tolerance_before_its_first_trial():
    with mock.patch.object(verify, "_random_gap_candidate", side_effect=AssertionError("a trial ran")):
        with pytest.raises(DomainError, match="^tolerance must lie in"):
            counterexample_scan(params(), 1, 0, tolerance=-1.0)


def test_random_t_form_target_message():
    with pytest.raises(DomainError, match=r"^target functional must lie in \[0, inf\), got inf$"):
        random_t_form(params(), float("inf"), np.random.default_rng(1))


OVERFLOWING = pair([4e307, 4e307], [0.0, 4e307, 4e307], trunc=4)


def test_a_margin_that_is_not_finite_is_a_domain_error(recwarn):
    # sense-preservation subtracts two infinite moduli; the run opens no CSV
    # and leaves numpy's overflow warnings to the error it raises
    opened = mock.Mock(side_effect=AssertionError("csv opened"))
    with pytest.raises(DomainError, match="^the worst sense_preserving margin is not finite, got nan$"):
        verify.disc_checks(OVERFLOWING, params(), DiskGrid(), 256, csv=opened)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    with pytest.raises(DomainError, match="^the worst sense_preserving margin is not finite, got nan$"):
        sense_preserving_margin(OVERFLOWING, DiskGrid())


# --- size limits: each is checked before anything is allocated or looped over --


class Reached(Exception):
    """Raised by a patched step just past a size check, so that a size at
    the limit is seen to be accepted without doing the work it asks for."""


def test_angular_count_limit():
    # the grid points are built lazily, so the limit itself costs nothing here
    assert DiskGrid(angular_count=MAX_ANGULAR_COUNT).size == 11 * MAX_ANGULAR_COUNT
    for k in (MAX_ANGULAR_COUNT + 1, 10**12):
        with pytest.raises(DomainError, match=f"angular_count {k} exceeds the limit {MAX_ANGULAR_COUNT}"):
            DiskGrid(angular_count=k)


def test_grid_size_limit():
    # the limit admits the angular limit on the default radii
    assert MAX_GRID_POINTS >= 11 * MAX_ANGULAR_COUNT
    radii = tuple((i + 1) / 64 for i in range(32))
    assert DiskGrid(radii=radii[:16], angular_count=MAX_ANGULAR_COUNT).size == MAX_GRID_POINTS
    # 17 * 61681 == MAX_GRID_POINTS + 1
    with pytest.raises(DomainError, match=f"grid size {MAX_GRID_POINTS + 1} exceeds the limit {MAX_GRID_POINTS}"):
        DiskGrid(radii=radii[:17], angular_count=61681)


def test_pair_budget_limit():
    grid = DiskGrid(radii=(0.5,), angular_count=4)
    with mock.patch.object(verify.np.random, "default_rng", side_effect=Reached):
        with pytest.raises(Reached):
            injectivity_sample_check(IDENTITY, grid, MAX_PAIR_BUDGET)
        for n in (MAX_PAIR_BUDGET + 1, 10**12):
            with pytest.raises(DomainError, match=f"pair_budget {n} exceeds the limit {MAX_PAIR_BUDGET}"):
                injectivity_sample_check(IDENTITY, grid, n)
            with pytest.raises(DomainError, match=f"pair_budget {n} exceeds the limit"):
                counterexample_scan(params(), 1, 0, pair_budget=n)


def test_proof_step_u_limit():
    # far above the longest series and the ~2*10**5 a step map needs
    assert MAX_PROOF_STEP_U >= max(2**20, MAX_JSON_TRUNC)
    p = params(1, 0.0, 0.5)
    with mock.patch.object(classes, "weights", side_effect=Reached):
        with pytest.raises(Reached):
            proof_step_violations(p, max_u=MAX_PROOF_STEP_U)
        for n in (MAX_PROOF_STEP_U + 1, 10**12):
            with pytest.raises(DomainError, match=f"max_u {n} exceeds the limit {MAX_PROOF_STEP_U}"):
                proof_step_violations(p, max_u=n)


def test_proof_step_max_u_from_zero():
    p = params(1, 0.0, 0.5)
    assert proof_step_violations(p, max_u=0) == proof_step_violations(p, max_u=1) == ()
    with pytest.raises(DomainError, match="^max_u must be >= 0, got -1$"):
        proof_step_violations(p, max_u=-1)


def test_trials_limit():
    with mock.patch.object(verify, "_random_gap_candidate", side_effect=Reached):
        with pytest.raises(Reached):
            counterexample_scan(params(), MAX_TRIALS, 0)
        with pytest.raises(Reached):
            counterexample_scan(params(), 1, 0, pair_budget=MAX_PAIR_BUDGET)
        for n in (MAX_TRIALS + 1, 10**12):
            with pytest.raises(DomainError, match=f"trials {n} exceeds the limit {MAX_TRIALS}"):
                counterexample_scan(params(), n, 0)
