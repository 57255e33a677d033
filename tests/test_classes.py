import json
import math
import operator
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qharm import (
    DEFAULT_TRUNC,
    MEMBERSHIP_TOL,
    AnalyticSeries,
    ClassParams,
    DomainError,
    GrowthBounds,
    HarmonicFunction,
    QParam,
    coeff_functional,
    convex_combination,
    eval_analytic,
    eval_harmonic,
    extreme_point,
    growth_bounds,
    growth_witness_lower,
    growth_witness_upper,
    harmonic_to_json,
    member_t_iff,
    q_integer_pow,
    satisfies_sufficient,
    sharpness_witness,
)
from qharm import classes, cli, verify
from qharm.qcore import in_range, weights
from qharm.series import MAX_JSON_TRUNC, SchemaError, harmonic_from_json


def params(m=0, alpha=0.0, q=0.5):
    return ClassParams(m=m, alpha=alpha, q=QParam(q))


def pair(h_tail, g_coeffs, trunc=8):
    return HarmonicFunction(
        AnalyticSeries([1.0] + list(h_tail), trunc=trunc),
        AnalyticSeries(g_coeffs, trunc=trunc),
    )


def t_magnitudes(a_mags, b_mags, trunc):
    """h(z) = z - sum a_mags[u] z**u, g(z) = sum b_mags[u] z**u, of length
    max(trunc, highest power); a zero magnitude puts -0.0 in h."""
    n = max([trunc, *a_mags, *b_mags])
    h, g = [1.0] + [0.0] * (n - 1), [0.0] * n
    for part, sign, mags in ((h, -1.0, a_mags), (g, 1.0, b_mags)):
        for u, mag in mags.items():
            part[u - 1] = sign * mag
    return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries(g, trunc=n))


def test_class_params_validation():
    with pytest.raises(DomainError):
        ClassParams(m=-1, alpha=0.0, q=QParam(0.5))
    with pytest.raises(DomainError):
        ClassParams(m=0, alpha=1.0, q=QParam(0.5))
    with pytest.raises(DomainError):
        ClassParams(m=0, alpha=-0.1, q=QParam(0.5))


# --- coefficient functional -----------------------------------------------------


def test_functional_of_identity_is_zero():
    assert coeff_functional(pair([], []), params(3, 0.7, 0.2)) == 0.0


def test_functional_of_boundary_point_is_one():
    p = params(2, 0.25, 0.7)
    f = extreme_point(2, "analytic", p)
    assert abs(coeff_functional(f, p) - 1.0) <= 1e-12


def test_functional_weights_b1_by_one():
    # [1]_q**m = 1, so the b_1 term is just |b_1| / (1 - alpha)
    p = params(2, 0.4, 0.7)
    assert coeff_functional(pair([], [0.3]), p) == pytest.approx(0.5, abs=1e-15)


# --- membership verdicts ---------------------------------------------------------


def test_identity_is_sufficient_member():
    assert satisfies_sufficient(pair([], []), params())


def test_witness_sits_on_boundary():
    p = params(1, 0.25, 0.6)
    f = sharpness_witness([0.5], [0.5], p)
    assert abs(coeff_functional(f, p) - 1.0) <= 1e-12
    assert satisfies_sufficient(f, p)


def test_large_coefficient_fails_sufficient():
    # functional = 0.9 / 0.5 = 1.8
    f = pair([0.9], [])
    assert not satisfies_sufficient(f, params(0, 0.5, 0.5))


def test_member_t_iff_accepts_boundary():
    p = params(1, 0.3, 0.5)
    f = extreme_point(2, "analytic", p)
    assert member_t_iff(f, p)


def test_member_t_iff_near_boundary_b1():
    assert member_t_iff(pair([], [0.999]), params(0, 0.0, 0.5))


def test_member_t_iff_rejects_violator():
    f = pair([-0.8], [], trunc=4)
    assert not member_t_iff(f, params(0, 0.5, 0.5))


def test_member_t_iff_requires_t_form():
    f = pair([0.1], [])  # positive a_2: not t_form
    with pytest.raises(DomainError):
        member_t_iff(f, params())


# --- extreme points ----------------------------------------------------------------


def test_extreme_point_u1_analytic_is_identity():
    p = params(1, 0.25, 0.5)
    f = extreme_point(1, "analytic", p)
    assert f.h.coeffs[0] == 1.0
    assert all(c == 0 for c in f.h.coeffs[1:])
    assert all(c == 0 for c in f.g.coeffs)
    assert coeff_functional(f, p) == 0.0


def test_extreme_point_analytic_coefficient():
    p = params(1, 0.0, 0.5)
    f = extreme_point(2, "analytic", p)
    assert f.h.coeffs[1] == -(1.0 / 1.5)
    assert f.t_form


def test_extreme_point_coanalytic_default_sign():
    p = params(0, 0.25, 0.5)
    f = extreme_point(1, "coanalytic", p)
    # stored with the minus sign as printed in the hull statement
    assert f.g.coeffs[0] == -0.75
    assert not f.t_form


def test_extreme_point_refuses_a_zero_sign():
    with pytest.raises(DomainError, match=r"^coanalytic_sign must be -1 or \+1, got 0$"):
        extreme_point(2, "coanalytic", params(), coanalytic_sign=0)


def test_the_share_map_sizes_the_series():
    # max(trunc, highest u), zero shares included, checked before the powers
    p = params()
    assert classes._from_shares(p, 4, [("analytic", 6, 0.0, -1.0)]).trunc_degree == 6
    assert classes._from_shares(p, 8, [("coanalytic", 2, 0.5, 1.0)]).trunc_degree == 8
    assert classes._from_shares(p, 0, [("coanalytic", 1, 0.5, 1.0)]).trunc_degree == 1
    with pytest.raises(DomainError, match=r"^series length must be >= 1, got 0$"):
        classes._from_shares(p, 0, [])
    with pytest.raises(DomainError, match=rf"^series length {MAX_JSON_TRUNC + 1} exceeds the limit {MAX_JSON_TRUNC}$"):
        classes._from_shares(p, 1, [("analytic", 0, 1.0, -1.0), ("analytic", MAX_JSON_TRUNC + 1, 1.0, -1.0)])
    with pytest.raises(DomainError, match=r"^u must be >= 1, got 0$"):
        classes._from_shares(p, 1, [("analytic", 0, 1.0, -1.0)])


def test_extreme_point_coanalytic_positive_variant():
    p = params(0, 0.25, 0.5)
    f = extreme_point(1, "coanalytic", p, coanalytic_sign=1)
    assert f.g.coeffs[0] == 0.75
    assert f.t_form
    assert member_t_iff(f, p)


def test_extreme_point_functional_is_one_for_both_signs():
    p = params(2, 0.4, 0.7)
    for sign in (-1, 1):
        f = extreme_point(3, "coanalytic", p, coanalytic_sign=sign)
        assert abs(coeff_functional(f, p) - 1.0) <= 1e-12


def test_extreme_point_rejects_u0_and_bad_kind():
    p = params()
    with pytest.raises(DomainError):
        extreme_point(0, "analytic", p)
    with pytest.raises(DomainError):
        extreme_point(2, "meromorphic", p)


# --- convex combinations --------------------------------------------------------------


def test_single_identity_point():
    f = convex_combination([(1, "analytic", 1.0)], params())
    assert f.h.coeffs[0] == 1.0
    assert all(c == 0 for c in f.h.coeffs[1:])


def test_half_weight_halves_coefficient():
    f = convex_combination([(2, "analytic", 0.5), (1, "analytic", 0.5)], params(0, 0.0, 0.5))
    assert f.h.coeffs[1] == -0.5


def test_mixed_combination_matches_example():
    p = params(0, 0.0, 0.5)
    f = convex_combination([(2, "analytic", 0.4), (1, "coanalytic", 0.6)], p)
    assert f.h.coeffs[1] == -0.4
    assert f.g.coeffs[0] == 0.6
    assert abs(coeff_functional(f, p) - 1.0) <= 1e-12
    assert f.t_form


def test_combination_functional_equals_off_identity_mass():
    p = params(1, 0.25, 0.7)
    f = convex_combination(
        [(1, "analytic", 0.5), (3, "analytic", 0.2), (2, "coanalytic", 0.3)], p
    )
    assert coeff_functional(f, p) == pytest.approx(0.5, abs=1e-12)
    assert member_t_iff(f, p)


def test_combination_rejects_bad_weights():
    p = params()
    with pytest.raises(DomainError):
        convex_combination([(2, "analytic", -0.1), (1, "analytic", 1.1)], p)
    with pytest.raises(DomainError):
        convex_combination([(2, "analytic", 0.7)], p)
    with pytest.raises(DomainError):
        convex_combination([], p)


# --- sharpness witnesses ----------------------------------------------------------------


def test_witness_single_analytic_weight():
    p = params(1, 0.5, 0.5)
    f = sharpness_witness([1.0], [], p)
    assert f.h.coeffs[1] == pytest.approx(0.5 / 1.5, abs=1e-15)


def test_witness_single_coanalytic_weight():
    p = params(0, 0.2, 0.5)
    f = sharpness_witness([], [1.0], p)
    assert f.g.coeffs[0] == pytest.approx(0.8, abs=1e-15)


def test_witness_split_weights_functional_one():
    p = params(0, 0.0, 0.5)
    f = sharpness_witness([0.5], [0.5], p)
    assert abs(coeff_functional(f, p) - 1.0) <= 1e-12


def test_witness_complex_weights():
    p = params(1, 0.25, 0.4)
    f = sharpness_witness([0.5j], [-0.3, 0.2j], p)
    assert abs(coeff_functional(f, p) - 1.0) <= 1e-12


def test_witness_rejects_bad_weight_sum():
    with pytest.raises(DomainError):
        sharpness_witness([0.6], [0.6], params())


@pytest.mark.parametrize("weight", [float("nan"), complex("nanj"), float("inf")])
def test_witness_refuses_non_finite_weight_moduli(weight):
    with pytest.raises(DomainError, match="weight moduli must sum to 1"):
        sharpness_witness([weight], [], params())


def test_witness_weights_of_plus_zero_do_not_size_the_weight_table():
    # [3]_q**m overflows a float here and [2]_q**m does not.  A +0+0j weight
    # at power 3 places nothing and needs no weight; a nonzero weight there
    # refuses, and so does a zero with a -0.0 part, which is placed.
    p = params(1000, 0.0, 0.9)
    overflow = "^the weight of u = 3 overflows a float at m = 1000"
    f = sharpness_witness([1.0, 0j], [0j, 0j, 0j], p, trunc=2)
    assert f.trunc_degree == 3 and f.h.coeffs[1] == 1.0 / weights(2, p.q, p.m)[1]
    assert coeff_bits(f.h.coeffs[2:], f.g.coeffs) == coeff_bits([0j], [0j] * 3)
    for xs, ys in (([0.5, 0.5], []), ([1.0], [0j, 0j, complex(-0.0, 0.0)]), ([1.0, complex(0.0, -0.0)], [])):
        with pytest.raises(DomainError, match=overflow):
            sharpness_witness(xs, ys, p)
    # zero weights still count toward the series length
    with pytest.raises(DomainError, match="exceeds the limit"):
        sharpness_witness([1.0], [0j] * (MAX_JSON_TRUNC + 1), p)


# --- real parameters and overflowing sums ---------------------------------------------

INF = math.inf
NAN = math.nan
# each hand-written real check of the parent, as the predicate it accepted
REAL_CHECKS = {
    "q": (lambda x: QParam(x), lambda x: 0.0 < x < 1.0),
    "alpha": (lambda x: params(0, x, 0.5), lambda x: 0.0 <= x < 1.0),
    "b1 magnitude": (lambda x: growth_bounds(x, 0.5, params()), lambda x: 0.0 <= x <= 1.0),
    "radius": (lambda x: growth_bounds(0.0, x, params()), lambda x: 0.0 <= x < 1.0),
    "growth witness |b_1|": (lambda x: growth_witness_upper(x, params(0, 0.25)), lambda x: 0.0 <= x <= 0.75),
    "weight": (
        lambda x: convex_combination([(1, "analytic", 1.0), (2, "analytic", x)], params()),
        lambda x: x >= 0.0 and math.isfinite(x),
    ),
    "target functional": (
        lambda x: verify.random_t_form(params(), x, np.random.default_rng(0), trunc=4),
        lambda x: x >= 0.0 and math.isfinite(x),
    ),
}
EDGE_FLOATS = st.sampled_from([NAN, INF, -INF, -0.0, 0.0, 5e-324, 0.5, 0.75, 1.0, 1e308, -5e-324])


@settings(max_examples=300, deadline=None)
@given(what=st.sampled_from(sorted(REAL_CHECKS)), x=EDGE_FLOATS | st.floats())
def test_real_checks_accept_what_they_accepted(what, x):
    build, accepted = REAL_CHECKS[what]
    try:
        build(x)
        refused = False
    except DomainError as exc:
        refused = str(exc).startswith(f"{what} must lie in ")
    assert refused == (not accepted(x)), (what, x)


@settings(max_examples=200, deadline=None)
@given(x=EDGE_FLOATS | st.floats())
def test_magnitudes_and_b1_refuse_what_they_refused(x):
    # the parent refused an infinite magnitude later, as a coefficient that is not finite
    h = AnalyticSeries.identity(4)
    for build, accepted in (
        (lambda: HarmonicFunction(h, AnalyticSeries([x], trunc=4)), abs(x) <= 1.0),
    ):
        try:
            build()
            refused = False
        except ValueError:
            refused = True
        assert refused == (not accepted), x


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: params(0, 1.0, 0.5), "alpha must lie in [0, 1), got 1.0"),
        (lambda: QParam(0.0), "q must lie in (0, 1), got 0.0"),
        (lambda: growth_bounds(1.5, 0.5, params()), "b1 magnitude must lie in [0, 1], got 1.5"),
        (lambda: growth_bounds(0.0, NAN, params()), "radius must lie in [0, 1), got nan"),
        (lambda: growth_witness_upper(0.8, params(0, 0.25)), "growth witness |b_1| must lie in [0, 0.75], got 0.8"),
        (lambda: growth_witness_lower(-0.1, params()), "growth witness |b_1| must lie in [0, 1], got -0.1"),
        (lambda: convex_combination([(2, "analytic", -0.5), (3, "analytic", 1.5)], params()), "weight must lie in [0, inf), got -0.5"),
        (lambda: HarmonicFunction(AnalyticSeries.identity(4), AnalyticSeries([1.5])), "|b_1| must lie in [0, 1], got 1.5"),
    ],
)
def test_real_parameters_share_one_message(build, message):
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        build()


HUGE = 1.7e308  # two of these overflow an fsum


def test_overflowing_sums_are_domain_errors():
    f = pair([HUGE, HUGE], [])
    with pytest.raises(DomainError, match=r"^the coefficient functional must lie in \[0, inf\), got inf$"):
        coeff_functional(f, params())
    t = pair([-HUGE, -HUGE], [])
    with pytest.raises(DomainError, match=r"^the coefficient functional must lie in \[0, inf\), got inf$"):
        coeff_functional(t, params(0, 0.5))  # a term overflows, not the sum
    with pytest.raises(DomainError, match=r"^the axis sum must lie in \[0, inf\), got inf$"):
        classes.necessity_probe(t, params(0, 0.5))
    with pytest.raises(DomainError, match=r"^the axis sum must lie in \[0, inf\), got inf$"):
        classes.necessity_probe(t, params(3, 0.5, 0.9))
    with pytest.raises(DomainError, match=r"^weights must sum to 1 within 1e-12, got inf$"):
        convex_combination([(2, "analytic", 1e308), (3, "analytic", 1e308)], params())
    with pytest.raises(DomainError, match=r"^weight moduli must sum to 1 within 1e-12, got inf$"):
        sharpness_witness([1e308, 1e308], [], params())


def test_moduli_beyond_the_float_range_are_domain_errors():
    # abs of such a complex raises OverflowError, which would escape as a crash
    huge = complex(HUGE, HUGE)
    with pytest.raises(DomainError, match=r"^the coefficient functional must lie in \[0, inf\), got inf$"):
        coeff_functional(pair([huge], []), params())
    with pytest.raises(DomainError, match=r"^weight moduli must sum to 1 within 1e-12, got inf$"):
        sharpness_witness([huge], [], params())
    with pytest.raises(DomainError, match=r"^\|b_1\| must lie in \[0, 1\], got inf$"):
        HarmonicFunction(AnalyticSeries.identity(4), AnalyticSeries([huge]))
    with pytest.raises(SchemaError, match=r"^g\[0\]: \|b_1\| must not exceed 1, got modulus inf$"):
        harmonic_from_json({"trunc": 4, "h": [[1, 0]], "g": [[HUGE, HUGE]]})


def test_sums_below_overflow_keep_their_values():
    f = pair([-4e307, -4e307], [])
    assert coeff_functional(f, params()) == 8e307
    assert classes.necessity_probe(f, params(), [0.5]).limit_margin == 1.0 - 8e307


# --- growth bounds --------------------------------------------------------------------


def test_growth_bounds_refuse_a_lower_bound_above_the_upper():
    with pytest.raises(ValueError, match=r"^lower bound 1\.0 exceeds upper bound 0\.0$"):
        GrowthBounds(lower=1.0, upper=0.0, radius=0.5)


def test_growth_bounds_basic_values():
    b = growth_bounds(0.0, 0.5, params(0, 0.0, 0.5))
    assert b.upper == pytest.approx(0.75, abs=1e-15)
    assert b.lower == pytest.approx(0.25, abs=1e-15)


def test_growth_bounds_leading_order():
    p = params(2, 0.1, 0.6)
    for r in (1e-6, 1e-8):
        b = growth_bounds(0.0, r, p)
        assert b.upper == pytest.approx(r, rel=1e-5)
        assert b.lower == pytest.approx(r, rel=1e-5)


def test_growth_bounds_classical_limit_case():
    b = growth_bounds(0.5, 0.5, params(1, 0.0, 1.0 - 1e-8))
    assert b.upper == pytest.approx(0.8125, abs=1e-5)


def test_growth_bounds_regime_guard():
    with pytest.raises(DomainError):
        growth_bounds(0.8, 0.5, params(0, 0.5, 0.5))
    with pytest.raises(DomainError):
        growth_bounds(-0.1, 0.5, params())
    with pytest.raises(DomainError):
        growth_bounds(0.0, 1.0, params())


def test_growth_bounds_accept_b1_one():
    # b1 = 1 is the u = 1 co-analytic extreme point at alpha = 0, a member
    b = growth_bounds(1.0, 0.5, params(0, 0.0, 0.5))
    assert (b.lower, b.upper) == (0.0, 1.0)
    with pytest.raises(DomainError):
        growth_bounds(1.0 + 1e-15, 0.5, params(0, 0.0, 0.5))


def test_growth_bounds_b1_within_membership_tolerance():
    p = params(1, 0.5, 0.5)
    b1 = 0.5 * (1.0 + 5e-13)
    f = pair([], [b1], trunc=4)
    assert member_t_iff(f, p)
    b = growth_bounds(b1, 0.5, p)  # the excess over 1 - alpha counts as zero
    assert (b.lower, b.upper) == ((1.0 - b1) * 0.5, (1.0 + b1) * 0.5)
    with pytest.raises(DomainError):
        growth_bounds(0.5 * (1.0 + 1e-11), 0.5, p)


def test_growth_gap_identity():
    # upper - lower = 2 b1 r + (2/[2]_q**m)(1 - alpha - b1) r**2
    p = params(2, 0.25, 0.7)
    b1, r = 0.3, 0.6
    b = growth_bounds(b1, r, p)
    w2 = q_integer_pow(2, p.q, p.m)
    expected = 2.0 * b1 * r + 2.0 / w2 * (1.0 - p.alpha - b1) * r * r
    assert b.upper - b.lower == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("b1", [0.0, 0.2, 0.5])
@pytest.mark.parametrize("r", [0.25, 0.5, 0.9])
def test_equality_witnesses_attain_bounds_on_axis(b1, r):
    p = params(1, 0.25, 0.5)
    if b1 > 1.0 - p.alpha:
        pytest.skip("outside the witness regime")
    bounds = growth_bounds(b1, r, p)
    up = growth_witness_upper(b1, p)
    low = growth_witness_lower(b1, p)
    assert abs(eval_harmonic(up, r)) == pytest.approx(bounds.upper, abs=1e-12)
    assert abs(eval_analytic(low, r)) == pytest.approx(bounds.lower, abs=1e-12)


def test_extreme_point_attains_lower_bound_with_zero_b1():
    p = params(1, 0.0, 0.5)
    f = extreme_point(2, "analytic", p)
    r = 0.5
    bounds = growth_bounds(0.0, r, p)
    assert abs(eval_harmonic(f, r)) == pytest.approx(bounds.lower, abs=1e-12)


def test_large_order_builds_weights_only_to_the_power_used():
    # At m=300, q=0.99, [2]_q**m fits in a float but [32]_q**m does not, so
    # a weight table built out to trunc=32 would refuse these functions.
    p = params(300, 0.0, 0.99)
    with pytest.raises(DomainError):
        q_integer_pow(32, p.q, p.m)
    for kind, sign in (("analytic", -1), ("coanalytic", 1)):
        f = extreme_point(2, kind, p, coanalytic_sign=sign, trunc=32)
        assert f.trunc_degree == 32
        assert coeff_functional(f, p) == pytest.approx(1.0, rel=1e-12)
        assert member_t_iff(f, p)
    f = convex_combination([(1, "analytic", 0.5), (2, "coanalytic", 0.5)], p, trunc=32)
    assert coeff_functional(f, p) == pytest.approx(0.5, rel=1e-12)
    f = sharpness_witness([0.5], [0.5], p, trunc=32)
    assert coeff_functional(f, p) == pytest.approx(1.0, rel=1e-12)
    assert growth_bounds(0.5, 0.5, p).upper > growth_bounds(0.5, 0.5, p).lower


# --- mpmath oracle for the functional --------------------------------------------


@st.composite
def t_form_inputs(draw):
    trunc = draw(st.integers(1, 64))
    mags = st.just(0.0) | st.floats(1e-300, 1.0)  # no subnormals: the bound is relative
    a = {u: draw(mags) for u in range(2, trunc + 1)}
    b = {u: draw(mags) for u in range(1, trunc + 1)}
    return trunc, a, b


@settings(max_examples=60, deadline=None)
@given(
    inputs=t_form_inputs(),
    q=st.floats(0.01, 1.0 - 1e-9),
    m=st.integers(0, 10),
    alpha=st.floats(0.0, 0.99),
)
def test_functional_against_mpmath(inputs, q, m, alpha):
    # The oracle sums ([u]_q**m / (1 - alpha)) |c_u| in 50-digit arithmetic
    # from the same binary q and alpha.  Every term is non-negative, so the
    # relative error of the sum is at most that of its worst term: the
    # weight's (2 u m + 1) ulps (see test_qcore), plus one rounding each for
    # 1 - alpha, the division, the product and the final fsum.
    mpmath = pytest.importorskip("mpmath")
    trunc, a, b = inputs
    f = t_magnitudes(a, b, trunc)
    got = coeff_functional(f, params(m, alpha, q))
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        scale = 1 / (1 - mpmath.mpf(alpha))
        terms = [(u, c) for u, c in a.items()] + [(u, c) for u, c in b.items()]
        exact = mpmath.fsum(mpmath.fsum(mq**j for j in range(u)) ** m * scale * mpmath.mpf(c) for u, c in terms)
        if exact == 0:
            assert got == 0.0
        else:
            assert abs((mpmath.mpf(got) - exact) / exact) <= (2 * trunc * m + 5) * 2.0**-52


# --- construction size limit --------------------------------------------------------


def test_constructions_reach_the_series_json_limit():
    p = params(1, 0.5, 0.5)
    assert extreme_point(MAX_JSON_TRUNC, "coanalytic", p).trunc_degree == MAX_JSON_TRUNC
    assert convex_combination([(MAX_JSON_TRUNC, "analytic", 1.0)], p).trunc_degree == MAX_JSON_TRUNC
    assert sharpness_witness([], [0j] * (MAX_JSON_TRUNC - 1) + [1.0], p).trunc_degree == MAX_JSON_TRUNC


@pytest.mark.parametrize("u", [MAX_JSON_TRUNC + 1, 10**12])
def test_constructions_refuse_longer_series_before_allocating(u):
    # At 10**12 a refusal after allocation would be a MemoryError or a hang.
    p = params(1, 0.5, 0.5)
    for build in (
        lambda: extreme_point(u, "analytic", p),
        lambda: extreme_point(u, "coanalytic", p),
        lambda: convex_combination([(2, "analytic", 0.5), (u, "coanalytic", 0.5)], p),
        lambda: extreme_point(2, "analytic", p, trunc=u),
    ):
        with pytest.raises(DomainError, match=f"series length {u} exceeds the limit {MAX_JSON_TRUNC}"):
            build()
    with pytest.raises(DomainError, match="exceeds the limit"):
        sharpness_witness([], [0j] * MAX_JSON_TRUNC + [1.0], p)


@pytest.mark.parametrize("witness", [growth_witness_upper, growth_witness_lower])
def test_growth_witnesses_need_trunc_from_two_to_the_limit(witness):
    # trunc 1 has no z**2 slot; at 10**12 a refusal after allocation would
    # be a MemoryError
    p = params(1, 0.0, 0.5)
    for trunc in (1, 0):
        with pytest.raises(DomainError, match=f"^series length must be >= 2, got {trunc}$"):
            witness(0.3, p, trunc=trunc)
    for trunc in (MAX_JSON_TRUNC + 1, 10**12):
        with pytest.raises(DomainError, match=f"series length {trunc} exceeds the limit {MAX_JSON_TRUNC}"):
            witness(0.3, p, trunc=trunc)
    assert witness(0.3, p, trunc=MAX_JSON_TRUNC).trunc_degree == MAX_JSON_TRUNC


def test_growth_witnesses_keep_the_square_term_at_trunc_two():
    p = params(1, 0.0, 0.5)
    c = 0.7 / 1.5  # (1 - alpha - b1) / [2]_q
    assert growth_witness_upper(0.3, p, trunc=2).g.coeffs == pytest.approx((0.3, c))
    assert growth_witness_lower(0.3, p, trunc=2).coeffs == pytest.approx((0.7, -c))


# --- one share->coefficient map ------------------------------------------------------
#
# The five constructions below are the bodies each constructor had before
# they shared classes._from_shares, kept verbatim as references.  The map
# must give the same bits, zero signs included, with two exceptions that no
# single map can avoid, since each pair of bodies answered one and the same
# term in two ways:
# - a zero share places nothing: random_t_form stored -0.0 in h for it,
#   where convex_combination left a zero weight's power at +0j;
# - a power whose analytic convex terms all round to zero holds -0.0, the
#   bits extreme_point stored for the same term, where convex_combination
#   summed from +0j and stored +0.0.


def parent_extreme_point(u, kind, p, *, coanalytic_sign=-1, trunc=DEFAULT_TRUNC):
    u = operator.index(u)
    if u < 1:
        raise DomainError(f"u must be a positive integer, got {u!r}")
    if kind not in ("analytic", "coanalytic"):
        raise DomainError(f"kind must be 'analytic' or 'coanalytic', got {kind!r}")
    if coanalytic_sign not in (-1, 1):
        raise DomainError(f"coanalytic_sign must be -1 or +1, got {coanalytic_sign!r}")
    n = in_range(max(trunc, u), 1, MAX_JSON_TRUNC, "series length")
    mag = (1.0 - p.alpha) / weights(u, p.q, p.m)[-1]
    if kind == "analytic":
        h = [0j] * n
        h[0] = 1.0
        if u >= 2:
            h[u - 1] = -mag
        return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries((), trunc=n))
    g = [0j] * n
    g[u - 1] = coanalytic_sign * mag
    return HarmonicFunction(AnalyticSeries.identity(n), AnalyticSeries(g, trunc=n))


def parent_convex_combination(terms, p, *, trunc=DEFAULT_TRUNC):
    terms = list(terms)
    if not terms:
        raise DomainError("at least one extreme point is required")
    masses = []
    for u, kind, w in terms:
        w = float(w)
        if w < 0.0 or not math.isfinite(w):
            raise DomainError(f"weights must be non-negative, got {w!r}")
        if kind not in ("analytic", "coanalytic"):
            raise DomainError(f"kind must be 'analytic' or 'coanalytic', got {kind!r}")
        if operator.index(u) < 1:
            raise DomainError(f"u must be a positive integer, got {u!r}")
        masses.append(w)
    total = math.fsum(masses)
    if abs(total - 1.0) > MEMBERSHIP_TOL:
        raise DomainError(f"weights must sum to 1 within {MEMBERSHIP_TOL}, got {total!r}")
    n = in_range(max([trunc, *(u for u, _, _ in terms)]), 1, MAX_JSON_TRUNC, "series length")
    wq = weights(max(u for (u, _, _), wf in zip(terms, masses) if wf != 0.0), p.q, p.m)
    h = [0j] * n
    h[0] = 1.0
    g = [0j] * n
    for (u, kind, _), wf in zip(terms, masses):
        if wf == 0.0:
            continue
        mag = wf * (1.0 - p.alpha) / wq[u - 1]
        if kind == "analytic":
            if u >= 2:
                h[u - 1] -= mag
        else:
            g[u - 1] += mag
    return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries(g, trunc=n))


def parent_sharpness_witness(x, y, p, *, trunc=DEFAULT_TRUNC):
    xs = [complex(v) for v in x]
    ys = [complex(v) for v in y]
    total = math.fsum([abs(v) for v in xs] + [abs(v) for v in ys])
    if abs(total - 1.0) > MEMBERSHIP_TOL:
        raise DomainError(f"weight moduli must sum to 1 within {MEMBERSHIP_TOL}, got {total!r}")
    n = in_range(max(trunc, len(xs) + 1, len(ys)), 1, MAX_JSON_TRUNC, "series length")
    w = weights(max(len(xs) + 1, len(ys)), p.q, p.m)
    h = [0j] * n
    g = [0j] * n
    h[0] = 1.0
    one_minus = 1.0 - p.alpha
    for u, v in enumerate(xs, start=2):
        h[u - 1] = one_minus / w[u - 1] * v
    for u, v in enumerate(ys, start=1):
        g[u - 1] = one_minus / w[u - 1] * v
    return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries(g, trunc=n))


def parent_random_t_form(p, target_functional, rng, *, trunc=DEFAULT_TRUNC):
    target = float(target_functional)
    if not (target >= 0.0 and math.isfinite(target)):
        raise DomainError(f"target functional must be finite and >= 0, got {target_functional!r}")
    trunc = operator.index(trunc)
    if trunc < 1:
        raise DomainError(f"trunc must be >= 1, got {trunc!r}")
    slots = [("a", u) for u in range(2, trunc + 1)] + [("b", u) for u in range(1, trunc + 1)]
    raws = np.array([(0.5 + rng.random()) * 0.25**u for _, u in slots])
    shares = raws / raws.sum() * target

    one_minus = 1.0 - p.alpha
    b1_index = len(slots) - trunc  # first "b" slot, power 1
    b1_limit = 0.95 / one_minus
    if shares[b1_index] > b1_limit:
        if trunc == 1:
            raise DomainError(f"target functional {target!r} needs |b_1| > 0.95 at trunc 1")
        excess = shares[b1_index] - b1_limit
        shares[b1_index] = b1_limit
        shares[b1_index + 1] += excess  # power-2 co-analytic slot

    w = weights(trunc, p.q, p.m)
    a_mags: dict[int, float] = {}
    b_mags: dict[int, float] = {}
    for (kind, u), share in zip(slots, shares):
        mag = share * one_minus / w[u - 1]
        if kind == "a":
            a_mags[u] = mag
        else:
            b_mags[u] = mag
    return t_magnitudes(a_mags, b_mags, trunc)


def parent_random_gap_candidate(p, rng):
    target = 1.001 + 0.4 * rng.random()
    nslots = 2 + int(rng.random() * 3)
    slots = []
    for _ in range(nslots):
        kind = "a" if rng.random() < 0.5 else "b"
        u = 2 + int(rng.random() * 6)
        slots.append((kind, u))
    raws = [0.2 + rng.random() for _ in slots]
    total = sum(raws)  # in order, as numpy sums fewer than 8 elements
    shares = [r / total * target for r in raws]
    one_minus = 1.0 - p.alpha
    n = max(u for _, u in slots)
    w = weights(n, p.q, p.m)
    h = [0j] * n
    g = [0j] * n
    h[0] = 1.0
    for (kind, u), share in zip(slots, shares):
        mag = share * one_minus / w[u - 1]
        phase = complex(math.cos(2.0 * math.pi * rng.random()), math.sin(2.0 * math.pi * rng.random()))
        if kind == "a":
            h[u - 1] += mag * phase
        else:
            g[u - 1] += mag * phase
    return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries(g, trunc=n))


def coeff_bits(h, g):
    """Every coefficient part as float.hex, which tells -0.0 from +0.0."""
    return [(c.real.hex(), c.imag.hex()) for c in (*h, *g)], len(h)


def convex_expected(f, terms):
    # The second exception above: the parent stored +0.0 where every
    # analytic term at a power rounds to zero.
    h = list(f.h.coeffs)
    for u, kind, w in terms:
        if kind == "analytic" and u >= 2 and w != 0.0 and h[u - 1] == 0:
            h[u - 1] = complex(-0.0, 0.0)
    return coeff_bits(h, f.g.coeffs)


def t_form_expected(f, terms):
    # The first exception above: the parent stored a signed zero at a zero share.
    zero = {(kind, u) for kind, u, share, _ in terms if share == 0}
    h, g = (
        [0j if (kind, u) in zero else c for u, c in enumerate(part.coeffs, start=1)]
        for kind, part in (("analytic", f.h), ("coanalytic", f.g))
    )
    return coeff_bits(h, g)


CONSTRUCTIONS = {
    "extreme": (
        lambda p, u, kind, sign, trunc: extreme_point(u, kind, p, coanalytic_sign=sign, trunc=trunc),
        lambda p, u, kind, sign, trunc: parent_extreme_point(u, kind, p, coanalytic_sign=sign, trunc=trunc),
    ),
    "convex": (
        lambda p, terms, trunc: convex_combination(terms, p, trunc=trunc),
        lambda p, terms, trunc: parent_convex_combination(terms, p, trunc=trunc),
    ),
    "witness": (
        lambda p, xs, ys, trunc: sharpness_witness(xs, ys, p, trunc=trunc),
        lambda p, xs, ys, trunc: parent_sharpness_witness(xs, ys, p, trunc=trunc),
    ),
    "t_form": (
        lambda p, target, trunc, seed: verify.random_t_form(p, target, np.random.default_rng(seed), trunc=trunc),
        lambda p, target, trunc, seed: parent_random_t_form(p, target, np.random.default_rng(seed), trunc=trunc),
    ),
    "gap": (
        lambda p, seed: verify._random_gap_candidate(p, np.random.default_rng(seed)),
        lambda p, seed: parent_random_gap_candidate(p, np.random.default_rng(seed)),
    ),
}

SEEDS = st.integers(0, 2**63 - 1)
TRUNCS = st.integers(1, 48)
KINDS = st.sampled_from(["analytic", "coanalytic"])
SMALL_POWERS = st.integers(1, 6)  # few powers, so that terms repeat them
ZEROS = st.sampled_from([0.0, -0.0])
SUBNORMALS = st.floats(5e-324, 2.2e-308)


@st.composite
def convex_terms(draw):
    raws = draw(st.lists(ZEROS | SUBNORMALS | st.floats(0.01, 1.0), min_size=1, max_size=6))
    raws.append(draw(st.floats(0.01, 1.0)))
    total = math.fsum(raws)
    return tuple((draw(SMALL_POWERS), draw(KINDS), w / total) for w in raws)


@st.composite
def witness_weights(draw):
    part = ZEROS | st.floats(-1.0, 1.0)
    vs = draw(st.lists(st.tuples(part, part), min_size=1, max_size=12))
    total = math.fsum(abs(complex(re, im)) for re, im in vs)
    assume(total > 0.0)
    vs = [complex(re / total, im / total) for re, im in vs]  # keeps the zero signs
    cut = draw(st.integers(0, len(vs)))
    return vs[:cut], vs[cut:]


CASES = st.one_of(
    st.tuples(st.just("extreme"), st.integers(1, 40), KINDS, st.sampled_from([-1, 1]), TRUNCS),
    st.tuples(st.just("convex"), convex_terms(), TRUNCS),
    st.tuples(st.just("witness"), witness_weights(), TRUNCS).map(lambda c: (c[0], *c[1], c[2])),
    st.tuples(st.just("t_form"), ZEROS | SUBNORMALS | st.floats(0.0, 2.0), TRUNCS, SEEDS),
    st.tuples(st.just("gap"), SEEDS),
)


@settings(max_examples=400, deadline=None)
@given(
    case=CASES,
    m=st.integers(0, 12),
    alpha=st.sampled_from([0.0, 0.25, 0.75]) | st.floats(0.0, 0.99),
    q=st.floats(0.01, 0.99),
)
# +0+0j weights place nothing, yet they still set the series length
@example(case=("witness", [0j, 0j], [1j], 1), m=0, alpha=0.0, q=0.5)
def test_constructions_match_their_parent_bodies_bit_for_bit(case, m, alpha, q):
    name, *args = case
    p = params(m, alpha, q)
    new, parent = CONSTRUCTIONS[name]
    try:
        ref = parent(p, *args)
    except DomainError:
        with pytest.raises(DomainError):
            new(p, *args)
        return
    with mock.patch.object(verify, "_from_shares", wraps=classes._from_shares) as spy:
        f = new(p, *args)
    if name == "convex":
        expected = convex_expected(ref, args[0])
    elif name == "t_form":
        expected = t_form_expected(ref, spy.call_args.args[2])
    else:
        expected = coeff_bits(ref.h.coeffs, ref.g.coeffs)
    assert coeff_bits(f.h.coeffs, f.g.coeffs) == expected
    assert f.t_form == ref.t_form


def test_zero_shares_and_underflow_take_the_extreme_point_bits():
    # The two exceptions, each on one input.  Target 0 places no
    # coefficient at all; a weight that underflows at power 2 gives the
    # -0.0 that extreme_point gives when (1 - alpha)/[u]_q**m underflows.
    p = params(2, 0.0, 0.5)
    f = verify.random_t_form(p, 0.0, np.random.default_rng(1), trunc=4)
    assert coeff_bits(f.h.coeffs, f.g.coeffs) == coeff_bits(AnalyticSeries.identity(4).coeffs, (0j,) * 4)
    parent = parent_random_t_form(p, 0.0, np.random.default_rng(1), trunc=4)
    assert math.copysign(1.0, parent.h.coeffs[1].real) == -1.0
    f = convex_combination([(1, "analytic", 1.0), (2, "analytic", 5e-324)], p)
    assert math.copysign(1.0, f.h.coeffs[1].real) == -1.0
    assert parent_convex_combination([(1, "analytic", 1.0), (2, "analytic", 5e-324)], p).h.coeffs[1] == 0
    tiny = params(1749, 1.0 - 2.0**-53, 0.5)  # [2]_q**m is near the float limit
    one_term = convex_combination([(2, "analytic", 1.0)], tiny)
    point = extreme_point(2, "analytic", tiny)
    assert coeff_bits(one_term.h.coeffs, one_term.g.coeffs) == coeff_bits(point.h.coeffs, point.g.coeffs)
    assert math.copysign(1.0, point.h.coeffs[1].real) == -1.0 and point.h.coeffs[1] == 0


# --- the functional and the probe over the cached moduli ------------------------


def generator_functional_and_probe(f, p, rs):
    # the functional and the axis margins as the per-term generator expressions compute them
    nonzero = [(u, c) for u, c in enumerate(f.h.coeffs, start=1) if u >= 2 and c != 0]
    nonzero += [(u, c) for u, c in enumerate(f.g.coeffs, start=1) if c != 0]
    w = weights(max((u for u, _ in nonzero), default=1), p.q, p.m)
    triples = [(u, w[u - 1], abs(c)) for u, c in nonzero]
    one_minus = 1.0 - p.alpha
    functional = math.fsum([w / one_minus * mag for _, w, mag in triples])

    def margin_at(r):
        return 1.0 - math.fsum(w * mag * r ** (u - 1) for u, w, mag in triples) - p.alpha

    # the limit with every power 1.0 ** (u - 1) written out, which the probe leaves out
    return functional, tuple((r, margin_at(r)) for r in rs), margin_at(1.0)


probe_params = st.sampled_from([params(3, 0.25, 0.9), params(), params(1, 0.5, 0.99), params(6, 0.1, 0.7)])


@st.composite
def t_form_inputs(draw):
    # random_t_form members and violators, or t_form magnitudes at drawn powers up to 256
    p = draw(probe_params)
    trunc = draw(st.integers(1, 256))
    if draw(st.booleans()):
        target = draw(st.floats(0.0, 2.0))
        assume(trunc > 1 or target * (1.0 - p.alpha) <= 0.95)
        return p, verify.random_t_form(p, target, np.random.default_rng(draw(st.integers(0, 2**32))), trunc=trunc)
    mags = st.floats(0.0, 0.5, allow_subnormal=True)
    a = draw(st.dictionaries(st.integers(2, trunc), mags, max_size=12)) if trunc > 1 else {}
    b = draw(st.dictionaries(st.integers(1, trunc), mags, max_size=12))
    return p, t_magnitudes(a, b, trunc)


@settings(max_examples=150, deadline=None)
@given(case=t_form_inputs(), rs=st.none() | st.lists(st.floats(0.01, 0.999), min_size=1, max_size=5, unique=True).map(sorted))
def test_functional_and_probe_equal_the_generator_expressions_bitwise(case, rs):
    p, f = case
    report = classes.necessity_probe(f, p, rs)
    functional, entries, limit = generator_functional_and_probe(f, p, classes.DEFAULT_PROBE_RADII if rs is None else rs)
    assert [(r.hex(), m.hex()) for r, m in report.entries] == [(r.hex(), m.hex()) for r, m in entries]
    assert report.limit_margin.hex() == limit.hex()
    assert coeff_functional(f, p).hex() == functional.hex()


near_one = st.floats(1.0 - 1e-3, 1.0) | st.floats(1.0, 1.0 + 1e-3, exclude_min=True) | st.sampled_from([1.0 + 5e-13, 1.0 + 2e-12])


@settings(max_examples=150, deadline=None)
@given(p=probe_params, target=near_one, trunc=st.integers(2, 256), seed=st.integers(0, 2**32))
# a functional of 1 + 1e-6 first dips below the threshold past the last default radius, 0.9999
@example(p=params(3, 0.25, 0.9), target=1.0 + 1e-6, trunc=DEFAULT_TRUNC, seed=7)
def test_the_probe_passes_exactly_the_members(p, target, trunc, seed):
    f = verify.random_t_form(p, target, np.random.default_rng(seed), trunc=trunc)
    assert f.t_form
    assert classes.necessity_probe(f, p).passed == member_t_iff(f, p)


# --- the functional memo --------------------------------------------------------


def counted_functional_terms(monkeypatch):
    calls = []
    build = classes._functional_terms
    monkeypatch.setattr(classes, "_functional_terms", lambda f, p: calls.append(p) or build(f, p))
    return calls


def fresh_functional(f, p):
    return coeff_functional(harmonic_from_json(harmonic_to_json(f)), p)


def test_the_functional_memo_follows_the_family(monkeypatch):
    f = verify.random_t_form(params(3, 0.25, 0.9), 0.9, np.random.default_rng(7), trunc=64)
    p1, p2 = params(3, 0.25, 0.9), params(6, 0.1, 0.7)
    expected = {p1: fresh_functional(f, p1), p2: fresh_functional(f, p2)}
    assert expected[p1] != expected[p2]
    calls = counted_functional_terms(monkeypatch)
    for p in (p1, p2, p2, p1, p2):
        assert coeff_functional(f, p).hex() == expected[p].hex()
    assert calls == [p1, p2, p1, p2]  # a repeated family is read, another recomputed
    # an equal but distinct ClassParams reuses the stored value
    twin = params(6, 0.1, 0.7)
    assert twin is not p2 and twin == p2
    assert coeff_functional(f, twin).hex() == expected[p2].hex() and len(calls) == 4
    assert f._functional[0] is p2


def test_an_overflowing_functional_is_never_stored(monkeypatch):
    f = pair([HUGE, HUGE], [])
    calls = counted_functional_terms(monkeypatch)
    for _ in range(3):
        with pytest.raises(DomainError, match=r"^the coefficient functional must lie in \[0, inf\), got inf$"):
            satisfies_sufficient(f, params())
    assert len(calls) == 3 and f._functional is None


def test_one_t_form_decision_builds_the_sum_twice(monkeypatch, tmp_path, capsys):
    p = params(3, 0.25, 0.9)
    f = verify.random_t_form(p, 0.9, np.random.default_rng(7), trunc=128)
    calls = counted_functional_terms(monkeypatch)
    coeff_functional(f, p)
    satisfies_sufficient(f, p)
    member_t_iff(f, p)
    classes.necessity_probe(f, p)
    assert len(calls) == 2  # the functional once, the probe's axis terms once
    path = tmp_path / "f.json"
    path.write_text(json.dumps(harmonic_to_json(f)))
    calls.clear()
    assert cli.run(["check", "--in", str(path), "--m", "3", "--alpha", "0.25", "--q", "0.9"]) == 0
    assert json.loads(capsys.readouterr().out)["t_member"] is True and len(calls) == 1
