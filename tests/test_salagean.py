import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qharm import (
    AnalyticSeries,
    DomainError,
    HarmonicFunction,
    OperatorParams,
    QParam,
    class_transform,
    classical_derivative,
    eval_analytic,
    eval_harmonic,
    eval_power,
    hadamard,
    q_derivative,
    q_integer,
    salagean,
    salagean_harmonic,
    salagean_kernel,
)
from qharm.qcore import MAX_JSON_TRUNC, weights

salagean_module = importlib.import_module("qharm.salagean")  # the package re-exports the function salagean


def difference_quotient(s, q, z):
    # independent oracle: (s(z) - s(qz)) / ((1 - q) z)
    return (eval_analytic(s, z) - eval_analytic(s, q.q * z)) / ((1.0 - q.q) * z)


def random_series(rng, n=8):
    re = rng.uniform(-1, 1, n)
    im = rng.uniform(-1, 1, n)
    return AnalyticSeries([complex(a, b) * 0.5**k for k, (a, b) in enumerate(zip(re, im))], trunc=n)


# --- q-derivative ---------------------------------------------------------------


def test_q_derivative_of_identity():
    d = q_derivative(AnalyticSeries.identity(1), QParam(0.3))
    assert d.coeffs == (1 + 0j,)


def test_q_derivative_of_square():
    # oracle: (z**2 - (qz)**2) / ((1-q) z) = (1+q) z
    d = q_derivative(AnalyticSeries([0.0, 1.0], trunc=2), QParam(0.5))
    assert d.coeffs == (0j, 1.5 + 0j)


def test_q_derivative_classical_limit():
    s = AnalyticSeries([1.0, 0.0, 1.0], trunc=3)
    d = q_derivative(s, QParam(1.0 - 1e-8))
    # tends to the ordinary derivative 1 + 3 z**2
    assert abs(d.coeffs[0] - 1.0) <= 1e-6
    assert abs(d.coeffs[2] - 3.0) <= 1e-6 * 3.0


def test_q_derivative_matches_quotient_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(30):
        s = random_series(rng)
        q = QParam(rng.uniform(0.05, 0.95))
        d = q_derivative(s, q)
        for _ in range(20):
            z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
            if abs(z) < 1e-3:
                continue
            expected = difference_quotient(s, q, z)
            got = eval_power(d, z)
            assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)


# --- Salagean operator ------------------------------------------------------------


def test_salagean_order_zero_is_identity():
    s = AnalyticSeries([1.0, 2.0j], trunc=4)
    assert salagean(s, OperatorParams(0, QParam(0.5))) is s


def test_salagean_squared_weight():
    s = AnalyticSeries([1.0, 1.0], trunc=2)
    out = salagean(s, OperatorParams(2, QParam(0.5)))
    assert out.coeffs == (1 + 0j, 2.25 + 0j)


def test_salagean_classical_mode_weight():
    s = AnalyticSeries([1.0, 1.0], trunc=2)
    out = salagean(s, OperatorParams(1, QParam(0.5), classical_mode=True))
    assert out.coeffs == (1 + 0j, 2 + 0j)


def test_salagean_equals_kernel_convolution_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_series(rng)
        p = OperatorParams(int(rng.integers(0, 6)), QParam(rng.uniform(0.05, 0.95)))
        assert salagean(s, p).coeffs == hadamard(s, salagean_kernel(s.trunc_degree, p)).coeffs


def test_salagean_semigroup():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = random_series(rng)
        q = QParam(rng.uniform(0.1, 0.9))
        m1, m2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        once = salagean(salagean(s, OperatorParams(m1, q)), OperatorParams(m2, q))
        both = salagean(s, OperatorParams(m1 + m2, q))
        for a, b in zip(once.coeffs, both.coeffs):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_salagean_classical_limit_matches_classical_mode():
    q_near_one = QParam(1.0 - 1e-8)
    s = AnalyticSeries([1.0] * 20, trunc=20)
    for m in range(6):
        deformed = salagean(s, OperatorParams(m, q_near_one))
        classical = salagean(s, OperatorParams(m, q_near_one, classical_mode=True))
        for a, b in zip(deformed.coeffs, classical.coeffs):
            assert a == pytest.approx(b, rel=1e-5)


def test_operator_params_reject_negative_m():
    with pytest.raises(DomainError):
        OperatorParams(-1, QParam(0.5))


# --- harmonic pairs -----------------------------------------------------------------


def pair(h_tail, g_coeffs, trunc=6):
    return HarmonicFunction(
        AnalyticSeries([1.0] + list(h_tail), trunc=trunc),
        AnalyticSeries(g_coeffs, trunc=trunc),
    )


def test_harmonic_order_zero_unchanged():
    f = pair([0.2j], [0.5, -0.1])
    out = salagean_harmonic(f, OperatorParams(0, QParam(0.5)))
    assert out.h.coeffs == f.h.coeffs
    assert out.g.coeffs == f.g.coeffs


def test_harmonic_odd_order_flips_coanalytic():
    f = pair([], [0.5])
    out = salagean_harmonic(f, OperatorParams(1, QParam(0.5)))
    assert out.h.coeffs[0] == 1.0
    assert out.g.coeffs[0] == -0.5


def test_harmonic_even_order_keeps_coanalytic():
    f = pair([], [0.5])
    out = salagean_harmonic(f, OperatorParams(2, QParam(0.5)))
    assert out.g.coeffs[0] == 0.5


def test_harmonic_sign_alternation_is_exact():
    rng = np.random.default_rng(13)
    f = pair(rng.uniform(-0.3, 0.3, 4), rng.uniform(0.0, 0.2, 5), trunc=8)
    q = QParam(0.7)
    for m in range(5):
        out = salagean_harmonic(f, OperatorParams(m, q))
        ref = salagean(f.g, OperatorParams(m, q))
        sign = -1.0 if m % 2 else 1.0
        assert out.g.coeffs == tuple(sign * c if sign < 0 else c for c in ref.coeffs)


# --- membership transform -------------------------------------------------------------


def test_transform_of_identity_is_one():
    f = pair([], [])
    t = class_transform(f, OperatorParams(3, QParam(0.4)))
    assert t.coeffs[0] == 1.0
    assert all(c == 0 for c in t.coeffs[1:])


def test_transform_weights_the_tail():
    f = pair([-0.2], [])
    t = class_transform(f, OperatorParams(1, QParam(0.5)))
    # [2]_0.5 * (-0.2) = -0.3
    assert t.coeffs[0] == 1.0
    assert t.coeffs[1] == pytest.approx(-0.3, abs=1e-15)


def test_transform_constant_includes_b1_unweighted():
    for m, q in [(0, 0.3), (2, 0.5), (5, 0.9)]:
        f = pair([], [0.4])
        t = class_transform(f, OperatorParams(m, QParam(q)))
        assert t.coeffs[0] == 1.0 + 0.4


def test_transform_g_enters_verbatim():
    # co-analytic coefficients are added without conjugation or sign
    f = pair([], [0.0, 0.25j])
    t = class_transform(f, OperatorParams(1, QParam(0.5)))
    assert t.coeffs[1] == q_integer(2, QParam(0.5)) * 0.25j


def verbatim_value(f, p, z):
    # the family's transform at z: D^m h + D^m g over z, g entering verbatim
    return eval_power(class_transform(f, p), complex(z))


def signed_value(f, p, z):
    # the harmonic operator's convention: D^m h + (-1)**m conj(D^m g), over z
    return eval_harmonic(salagean_harmonic(f, p), z) / z


def test_transform_value_conventions_agree_when_g_zero():
    f = pair([0.1, -0.05j], [])
    p = OperatorParams(2, QParam(0.6))
    for z in (0.3, 0.2 - 0.4j):
        assert verbatim_value(f, p, z) == pytest.approx(signed_value(f, p, z), abs=1e-14)


def test_transform_value_conventions_differ_in_general():
    f = pair([], [0.5])
    p = OperatorParams(1, QParam(0.5))
    z = 0.3 + 0.2j
    assert abs(verbatim_value(f, p, z) - signed_value(f, p, z)) > 0.1


@given(
    tail=st.lists(st.floats(-0.5, 0.5), min_size=0, max_size=5),
    q=st.floats(0.05, 0.95),
    m=st.integers(0, 4),
)
def test_transform_matches_pointwise_operator_sum(tail, q, m):
    # the series form must equal (D^m h(z) + D^m g(z)) / z pointwise
    f = pair(tail, [0.3], trunc=8)
    p = OperatorParams(m, QParam(q))
    t = class_transform(f, p)
    z = 0.37 + 0.21j
    dh = eval_analytic(salagean(f.h, p), z)
    dg = eval_analytic(salagean(f.g, p), z)
    assert eval_power(t, z) == pytest.approx((dh + dg) / z, rel=1e-12, abs=1e-12)


# --- only nonzero coefficients need their weights -------------------------------

parts = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
zero_parts = st.sampled_from([0.0, -0.0])


def bits(coeffs):
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


@st.composite
def coeffs_with_zero_tail(draw, head_min=0):
    head = draw(st.lists(st.builds(complex, parts, parts), min_size=head_min, max_size=12))
    tail = draw(st.lists(st.builds(complex, zero_parts, zero_parts), max_size=20))
    return head + tail


@given(
    coeffs=coeffs_with_zero_tail(head_min=1),
    q=st.floats(0.01, 0.999),
    m=st.integers(1, 8),
    classical=st.booleans(),
)
def test_salagean_zero_tail_is_bitwise_full_table(coeffs, q, m, classical):
    p = OperatorParams(m, QParam(q), classical_mode=classical)
    full = [w * c for w, c in zip(weights(len(coeffs), p.q, m, classical), coeffs)]
    got = salagean(AnalyticSeries(coeffs, trunc=len(coeffs)), p).coeffs
    assert bits(got) == bits(full)


@given(
    h_tail=coeffs_with_zero_tail(),
    g=coeffs_with_zero_tail(),
    q=st.floats(0.01, 0.999),
    m=st.integers(0, 8),
    classical=st.booleans(),
)
def test_transform_zero_tail_is_bitwise_full_table(h_tail, g, q, m, classical):
    trunc = max(1 + len(h_tail), len(g), 1)
    if g and abs(g[0]) > 1.0:
        g = [g[0] / 2, *g[1:]]
    f = HarmonicFunction(AnalyticSeries([1.0, *h_tail], trunc=trunc), AnalyticSeries(g, trunc=trunc))
    p = OperatorParams(m, QParam(q), classical_mode=classical)
    w = weights(trunc, p.q, m, classical)
    full = [wu * (a + b) for wu, a, b in zip(w, f.h.coeffs, f.g.coeffs)]
    assert bits(class_transform(f, p).coeffs) == bits(full)


def test_zero_tail_needs_no_weight():
    # 40**400 overflows a float, but the coefficient at u = 40 is zero
    s = AnalyticSeries([1.0, 0.5, -0.0], trunc=40)
    out = salagean(s, OperatorParams(400, QParam(0.5), classical_mode=True))
    assert out.coeffs[1] == 0.5 * float(2**400)
    assert bits(out.coeffs[2:]) == bits([1.0 * complex(-0.0)] + [1.0 * 0j] * 37)
    with pytest.raises(DomainError, match="overflows"):
        salagean(AnalyticSeries([1.0] * 40, trunc=40), OperatorParams(400, QParam(0.5), classical_mode=True))


def comprehension_weighted(coeffs, p):
    # _weighted with its product written as a comprehension
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    w = (weights(n, p.q, p.m, p.classical_mode) if n else ()) + (1.0,) * (len(coeffs) - n)
    return tuple(wu * c for wu, c in zip(w, coeffs))


@settings(max_examples=300, deadline=None)
@given(
    h_tail=coeffs_with_zero_tail(),
    g=coeffs_with_zero_tail(),
    q=st.floats(0.01, 0.999),
    m=st.integers(0, 8),
    classical=st.booleans(),
)
@example(h_tail=[complex(-0.0, 0.5)], g=[complex(0.25, -0.0), -0j], q=0.5, m=1, classical=False)
@example(h_tail=[complex(-0.0, 0.5)], g=[complex(0.25, -0.0), -0j], q=0.5, m=2, classical=False)
def test_the_coefficientwise_maps_equal_their_comprehensions_bitwise(h_tail, g, q, m, classical):
    # bits() keeps the sign of every zero part, so 0.0 - c in place of -c would fail here
    trunc = max(1 + len(h_tail), len(g), 1)
    if g and abs(g[0]) > 1.0:
        g = [g[0] / 2, *g[1:]]
    f = HarmonicFunction(AnalyticSeries([1.0, *h_tail], trunc=trunc), AnalyticSeries(g, trunc=trunc))
    p = OperatorParams(m, QParam(q), classical_mode=classical)
    h, g = f.h.coeffs, f.g.coeffs
    assert bits(salagean_module._weighted(g, p)) == bits(comprehension_weighted(g, p))
    transform = comprehension_weighted(tuple(a + b for a, b in zip(h, g)), p)
    assert bits(class_transform(f, p).coeffs) == bits(transform)
    image_g = comprehension_weighted(g, p) if m else g
    image = salagean_harmonic(f, p)
    assert bits(image.h.coeffs) == bits(comprehension_weighted(h, p) if m else h)
    assert bits(image.g.coeffs) == bits(tuple(-c for c in image_g) if m % 2 else image_g)
    assert bits(classical_derivative(f.g).coeffs) == bits(tuple(u * c for u, c in enumerate(g, start=1)))


def test_an_overflowing_image_coefficient_is_named_before_the_sign_flip():
    # [2]_q = 1.5 and [3]_q = 1.75 at q = 0.5, so both products below overflow
    p = OperatorParams(1, QParam(0.5))
    g = AnalyticSeries([0.5, 1.5e308], trunc=3)
    with pytest.raises(ValueError, match=r"^coefficient at power 2 is not finite: \(inf\+0j\)$"):
        salagean(g, p)
    with pytest.raises(ValueError, match=r"^coefficient at power 2 is not finite: \(inf\+0j\)$"):
        salagean_harmonic(HarmonicFunction(AnalyticSeries.identity(3), g), p)
    # h is mapped first, so its overflow is the one named
    with pytest.raises(ValueError, match=r"^coefficient at power 3 is not finite: \(-inf\+0j\)$"):
        salagean_harmonic(HarmonicFunction(AnalyticSeries([1.0, 0.0, -1.5e308], trunc=3), g), p)


@pytest.mark.parametrize("n", [MAX_JSON_TRUNC + 1, 10**12])
def test_kernel_refuses_lengths_past_the_limit_before_weighting(n):
    p = OperatorParams(1, QParam(0.5))
    with mock.patch.object(salagean_module, "weights", side_effect=AssertionError("weights ran")):
        with pytest.raises(DomainError, match=f"^series length {n} exceeds the limit {MAX_JSON_TRUNC}$"):
            salagean_kernel(n, p)
    assert salagean_kernel(MAX_JSON_TRUNC, p).trunc_degree == MAX_JSON_TRUNC
