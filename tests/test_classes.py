import pytest
from hypothesis import given, settings, strategies as st

from qharm import (
    AnalyticSeries,
    ClassParams,
    DomainError,
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
    member_t_iff,
    q_integer_pow,
    satisfies_sufficient,
    sharpness_witness,
)
from qharm.series import MAX_JSON_TRUNC


def params(m=0, alpha=0.0, q=0.5):
    return ClassParams(m=m, alpha=alpha, q=QParam(q))


def pair(h_tail, g_coeffs, trunc=8):
    return HarmonicFunction(
        AnalyticSeries([1.0] + list(h_tail), trunc=trunc),
        AnalyticSeries(g_coeffs, trunc=trunc),
    )


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
    f = HarmonicFunction.from_t_magnitudes({2: 0.8}, {}, trunc=4)
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


# --- growth bounds --------------------------------------------------------------------


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
    f = HarmonicFunction.from_t_magnitudes({}, {1: b1}, trunc=4)
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
    f = HarmonicFunction.from_t_magnitudes(a, b, trunc=trunc)
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
        with pytest.raises(DomainError, match="trunc >= 2"):
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
