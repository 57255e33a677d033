import copy
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qharm import (
    AnalyticSeries,
    ClassParams,
    DomainError,
    HarmonicFunction,
    OperatorParams,
    PowerSeries,
    QParam,
    SchemaError,
    classical_derivative,
    convex_combination,
    eval_analytic,
    eval_harmonic,
    eval_power,
    extreme_point,
    growth_witness_upper,
    hadamard,
    harmonic_from_json,
    harmonic_to_json,
    random_t_form,
    salagean_harmonic,
    sharpness_witness,
)
from qharm.series import MAX_JSON_TRUNC

finite_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


# --- construction and invariants ---------------------------------------------


def test_series_pads_to_trunc():
    s = AnalyticSeries([1.0, 2.0], trunc=4)
    assert s.coeffs == (1 + 0j, 2 + 0j, 0j, 0j)
    assert s.trunc_degree == 4


def test_series_truncates_long_input():
    s = AnalyticSeries([1.0, 2.0, 3.0], trunc=2)
    assert s.coeffs == (1 + 0j, 2 + 0j)


def test_series_rejects_nonfinite():
    with pytest.raises(ValueError):
        AnalyticSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        AnalyticSeries([complex(0, float("inf"))])


def test_series_rejects_bad_trunc():
    with pytest.raises(ValueError):
        AnalyticSeries([], trunc=0)


@pytest.mark.parametrize("n", [MAX_JSON_TRUNC + 1, 10**12])
def test_series_constructors_refuse_lengths_past_the_limit(n):
    # at 10**12 a refusal after allocation would be a MemoryError or a hang
    for build in (
        lambda: AnalyticSeries(trunc=n),
        lambda: AnalyticSeries.zero(trunc=n),
        lambda: HarmonicFunction.from_t_magnitudes({}, {}, trunc=n),
        lambda: HarmonicFunction.from_t_magnitudes({n: 0.1}, {}),
        lambda: HarmonicFunction.from_t_magnitudes({}, {n: 0.1}),
    ):
        with pytest.raises(DomainError, match=f"^series length {n} exceeds the limit {MAX_JSON_TRUNC}$"):
            build()


def test_series_constructors_at_the_limit_and_below_their_minimum():
    assert AnalyticSeries(trunc=MAX_JSON_TRUNC).trunc_degree == MAX_JSON_TRUNC
    f = HarmonicFunction.from_t_magnitudes({MAX_JSON_TRUNC: 0.1}, {MAX_JSON_TRUNC: 0.2})
    assert f.trunc_degree == MAX_JSON_TRUNC
    assert (f.h.coeffs[-1], f.g.coeffs[-1]) == (-0.1, 0.2)
    for build, message in (
        (lambda: AnalyticSeries(trunc=0), "series length must be >= 1, got 0"),
        (lambda: HarmonicFunction.from_t_magnitudes({}, {}, trunc=0), "series length must be >= 1, got 0"),
        (lambda: HarmonicFunction.from_t_magnitudes({1: 0.1}, {}), "analytic power must be >= 2, got 1"),
        (lambda: HarmonicFunction.from_t_magnitudes({}, {0: 0.1}), "co-analytic power must be >= 1, got 0"),
        (lambda: AnalyticSeries([1.0]).coeff(0), "power index must be >= 1, got 0"),
        (lambda: PowerSeries([1.0]).coeff(-1), "power index must be >= 0, got -1"),
    ):
        with pytest.raises(DomainError, match=f"^{message}$"):
            build()


def test_coeff_accessor():
    s = AnalyticSeries([1.0, 0.5], trunc=3)
    assert s.coeff(2) == 0.5
    assert s.coeff(17) == 0j
    with pytest.raises(DomainError):
        s.coeff(0)


def test_power_series_accessors_start_at_zero():
    s = PowerSeries([2.0, 0.5])
    assert s.coeff(0) == 2.0 and s.coeff(1) == 0.5 and s.coeff(9) == 0j
    with pytest.raises(DomainError):
        s.coeff(-1)
    assert repr(s) == "PowerSeries([(2+0j), (0.5+0j)])"
    a = AnalyticSeries([2.0, 0.5], trunc=2)
    assert repr(a) == "AnalyticSeries([(2+0j), (0.5+0j)])"
    # equal coefficients do not make the two types equal
    assert a.coeffs == s.coeffs and a != s and s != a
    assert s == PowerSeries([2.0, 0.5]) and hash(s) == hash(PowerSeries([2.0, 0.5]))


@pytest.mark.parametrize(
    "value, names",
    [
        (AnalyticSeries([1.0, -0.25j], trunc=3), ("coeffs",)),
        (PowerSeries([2.0, 0.5]), ("coeffs",)),
        (HarmonicFunction(AnalyticSeries([1.0, -0.2], trunc=3), AnalyticSeries([0.1], trunc=3)), ("h", "g", "t_form")),
    ],
)
def test_values_pickle_copy_and_refuse_assignment(value, names):
    # A frozen class with hand-written __slots__ fails the round trips:
    # unpickling and copying restore slot state through the refused __setattr__.
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))


def test_harmonic_requires_normalization():
    with pytest.raises(ValueError):
        HarmonicFunction(AnalyticSeries([0.5]), AnalyticSeries.zero())


def test_harmonic_b1_cap():
    h = AnalyticSeries.identity(4)
    # modulus above 1 is rejected at the type level
    with pytest.raises(DomainError):
        HarmonicFunction(h, AnalyticSeries([1.2], trunc=4))
    # modulus exactly 1 sits on the closure boundary and is admitted
    HarmonicFunction(h, AnalyticSeries([1.0], trunc=4))


def test_t_form_flag_is_validated():
    # t_form is read from the coefficient signs; a flag is no longer taken,
    # whether it matches the signs or not
    h = AnalyticSeries([1.0, 0.1], trunc=4)
    with pytest.raises(TypeError):
        HarmonicFunction(h, AnalyticSeries.zero(4), t_form=True)
    f = HarmonicFunction.from_t_magnitudes({2: 0.1}, {1: 0.1}, trunc=4)
    with pytest.raises(TypeError):
        HarmonicFunction(f.h, f.g, t_form=True)
    assert not HarmonicFunction(h, AnalyticSeries.zero(4)).t_form
    assert HarmonicFunction(f.h, f.g).t_form


def test_harmonic_pads_parts_to_common_trunc():
    f = HarmonicFunction(AnalyticSeries([1.0], trunc=2), AnalyticSeries([0.5], trunc=6))
    assert f.h.trunc_degree == f.g.trunc_degree == 6


def test_from_t_magnitudes():
    f = HarmonicFunction.from_t_magnitudes({2: 0.1}, {1: 0.2}, trunc=4)
    assert f.t_form
    assert f.h.coeffs[1] == -0.1
    assert f.g.coeffs[0] == 0.2
    with pytest.raises(DomainError):
        HarmonicFunction.from_t_magnitudes({1: 0.1}, {}, trunc=4)
    with pytest.raises(DomainError):
        HarmonicFunction.from_t_magnitudes({2: -0.1}, {}, trunc=4)


# --- evaluation ---------------------------------------------------------------


def test_eval_identity_series():
    s = AnalyticSeries.identity(4)
    assert eval_analytic(s, 0.5j) == 0.5j


def test_eval_direct_substitution():
    s = AnalyticSeries([1.0, 0.25], trunc=4)
    assert eval_analytic(s, 0.8) == pytest.approx(0.8 + 0.25 * 0.64, abs=1e-15)


def test_eval_at_zero_is_zero():
    s = AnalyticSeries([3.0, 1.0 + 2.0j, -0.7], trunc=5)
    assert eval_analytic(s, 0.0) == 0j


def test_eval_harmonic_analytic_case():
    f = HarmonicFunction(AnalyticSeries([1.0, 0.3], trunc=4))
    for z in (0.2, 0.3 + 0.1j):
        assert eval_harmonic(f, z) == eval_analytic(f.h, z)


def test_eval_harmonic_conjugates_g():
    f = HarmonicFunction(AnalyticSeries.identity(4), AnalyticSeries([0.5], trunc=4))
    assert eval_harmonic(f, 1j) == 1j + complex(0.5j).conjugate() == 0.5j


def test_eval_harmonic_zero():
    f = HarmonicFunction(AnalyticSeries([1.0, 0.2], trunc=4), AnalyticSeries([0.1, 0.3], trunc=4))
    assert eval_harmonic(f, 0.0) == 0j


@given(
    h_tail=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=6),
    g_coeffs=st.lists(st.floats(-0.2, 0.2), min_size=0, max_size=6),
    re=st.floats(-0.7, 0.7),
    im=st.floats(-0.7, 0.7),
)
def test_real_coefficients_conjugate_symmetry(h_tail, g_coeffs, re, im):
    f = HarmonicFunction(
        AnalyticSeries([1.0] + h_tail, trunc=8),
        AnalyticSeries(g_coeffs, trunc=8),
    )
    z = complex(re, im)
    lhs = eval_harmonic(f, z.conjugate())
    rhs = eval_harmonic(f, z).conjugate()
    assert lhs == pytest.approx(rhs, abs=1e-12)


# --- hadamard product ----------------------------------------------------------


def test_hadamard_identity_kernel():
    s = AnalyticSeries([1.0, 2.0, 3.0j], trunc=3)
    ones = AnalyticSeries([1.0, 1.0, 1.0], trunc=3)
    assert hadamard(s, ones) == s


def test_hadamard_coefficientwise():
    a = AnalyticSeries([1.0, 2.0], trunc=2)
    b = AnalyticSeries([1.0, 3.0], trunc=2)
    assert hadamard(a, b).coeffs == (1 + 0j, 6 + 0j)


def test_hadamard_zero_annihilates():
    s = AnalyticSeries([1.0, 2.0], trunc=2)
    assert hadamard(s, AnalyticSeries.zero(2)) == AnalyticSeries.zero(2)


def test_hadamard_pads_shorter():
    a = AnalyticSeries([1.0, 2.0], trunc=2)
    b = AnalyticSeries([5.0], trunc=4)
    assert hadamard(a, b).coeffs == (5 + 0j, 0j, 0j, 0j)


@given(a=finite_coeffs, b=finite_coeffs)
def test_hadamard_commutative_exact(a, b):
    sa, sb = AnalyticSeries(a, trunc=8), AnalyticSeries(b, trunc=8)
    assert hadamard(sa, sb) == hadamard(sb, sa)


@given(a=finite_coeffs, b=finite_coeffs, c=finite_coeffs)
def test_hadamard_associative(a, b, c):
    sa, sb, sc = (AnalyticSeries(v, trunc=8) for v in (a, b, c))
    lhs = hadamard(hadamard(sa, sb), sc)
    rhs = hadamard(sa, hadamard(sb, sc))
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert x == pytest.approx(y, abs=1e-12)


# --- classical derivative -------------------------------------------------------


def test_derivative_of_identity():
    assert classical_derivative(AnalyticSeries.identity(1)) == PowerSeries([1.0])


def test_derivative_power_rule():
    s = AnalyticSeries([1.0, 0.0, 4.0], trunc=3)
    assert classical_derivative(s).coeffs == (1 + 0j, 0j, 12 + 0j)


def test_derivative_of_zero():
    d = classical_derivative(AnalyticSeries.zero(3))
    assert all(c == 0 for c in d.coeffs)
    assert eval_power(d, 0.3) == 0j


# --- t_form detection -----------------------------------------------------------


def test_is_t_form_matching_signs():
    f = HarmonicFunction(
        AnalyticSeries([1.0, -0.1], trunc=4), AnalyticSeries([0.2], trunc=4)
    )
    assert f.t_form
    assert HarmonicFunction(AnalyticSeries.identity(4)).t_form


def test_is_t_form_positive_a_excluded():
    f = HarmonicFunction(AnalyticSeries([1.0, 0.1], trunc=4))
    assert not f.t_form
    assert not HarmonicFunction(AnalyticSeries.identity(4), AnalyticSeries([-0.25], trunc=4)).t_form


def test_is_t_form_nonreal_excluded():
    f = HarmonicFunction(AnalyticSeries([1.0, -0.1j], trunc=4))
    assert not f.t_form


# --- JSON wire format ------------------------------------------------------------


def test_json_round_trip_bitwise():
    f = HarmonicFunction(
        AnalyticSeries([1.0, -1.0 / 3.0, 0.1 + 0.2j], trunc=5),
        AnalyticSeries([0.31, -0.07], trunc=5),
    )
    doc = json.loads(json.dumps(harmonic_to_json(f)))
    f2 = harmonic_from_json(doc)
    assert f2.h.coeffs == f.h.coeffs
    assert f2.g.coeffs == f.g.coeffs


def test_json_trunc_limit_is_inclusive():
    f = harmonic_from_json({"trunc": MAX_JSON_TRUNC, "h": [[1, 0]], "g": []})
    assert f.trunc_degree == MAX_JSON_TRUNC


def test_json_recovers_t_form_structurally():
    f = HarmonicFunction.from_t_magnitudes({3: 0.25}, {1: 0.5}, trunc=4)
    f2 = harmonic_from_json(harmonic_to_json(f))
    assert f2.t_form


SIGNED_ZEROS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0))
signed_real = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-0.5, max_value=0.5))
coefficient = st.one_of(st.sampled_from(SIGNED_ZEROS), st.builds(complex, signed_real, signed_real))
class_params = st.builds(
    ClassParams,
    m=st.integers(min_value=0, max_value=4),
    alpha=st.sampled_from([0.0, 0.25, 0.5]),
    q=st.sampled_from([QParam(0.5), QParam(0.9)]),
)


@st.composite
def constructed(draw):
    """A function from one of the library's constructions, or a direct
    HarmonicFunction(h, g), optionally mapped by salagean_harmonic."""
    p = draw(class_params)
    trunc = draw(st.integers(min_value=2, max_value=12))
    u = draw(st.integers(min_value=1, max_value=trunc))
    how = draw(st.sampled_from(["extreme", "combination", "witness", "random", "growth", "direct"]))
    if how == "extreme":
        sign = draw(st.sampled_from([-1, 1]))
        f = extreme_point(u, draw(st.sampled_from(["analytic", "coanalytic"])), p, coanalytic_sign=sign, trunc=trunc)
    elif how == "combination":
        w = draw(st.floats(min_value=0.0, max_value=1.0))
        f = convex_combination([(u, "coanalytic", w), (trunc, "analytic", 1.0 - w)], p, trunc=trunc)
    elif how == "witness":
        xs = draw(st.lists(coefficient, min_size=1, max_size=trunc - 1))
        ys = draw(st.lists(coefficient, max_size=trunc))
        total = sum(abs(v) for v in xs + ys)
        if total == 0.0:
            xs, total = [1.0], 1.0
        f = sharpness_witness([v / total for v in xs], [v / total for v in ys], p, trunc=trunc)
    elif how == "random":
        f = random_t_form(p, draw(st.floats(min_value=0.0, max_value=1.5)), np.random.default_rng(u), trunc=trunc)
    elif how == "growth":
        f = growth_witness_upper(draw(st.floats(min_value=0.0, max_value=1.0 - p.alpha)), p, trunc=trunc)
    else:
        h = [1.0] + draw(st.lists(coefficient, max_size=trunc - 1))
        g = draw(st.lists(coefficient, max_size=trunc))
        f = HarmonicFunction(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))
    if draw(st.booleans()):
        f = salagean_harmonic(f, p.operator_params())
    return f


@settings(max_examples=200, deadline=None)
@given(f=constructed())
def test_json_round_trip_preserves_equality_and_t_form(f):
    f2 = harmonic_from_json(json.loads(json.dumps(harmonic_to_json(f))))
    assert f2 == f and hash(f2) == hash(f)
    signs = all(c.imag == 0.0 and c.real <= 0.0 for c in f.h.coeffs[1:])
    signs = signs and all(c.imag == 0.0 and c.real >= 0.0 for c in f.g.coeffs)
    assert f2.t_form == f.t_form == signs
    assert repr(f2) == repr(f)


def bits(z):
    return struct.pack("<dd", z.real, z.imag)


@given(
    coeffs=st.lists(coefficient, min_size=1, max_size=6),
    tail=st.lists(st.sampled_from(SIGNED_ZEROS), max_size=6),
    z=st.one_of(st.sampled_from(SIGNED_ZEROS), st.complex_numbers(max_magnitude=2.0, allow_nan=False)),
)
def test_scalar_eval_power_matches_the_untrimmed_loop_bitwise(coeffs, tail, z):
    s = PowerSeries(coeffs + tail)
    acc = 0j
    for c in reversed(s.coeffs):
        acc = acc * z + c
    assert bits(eval_power(s, z)) == bits(acc)


@pytest.mark.parametrize(
    "doc,field",
    [
        ([1, 2], "$"),
        ({"h": [[1, 0]], "g": []}, "trunc"),
        ({"trunc": 0, "h": [[1, 0]], "g": []}, "trunc"),
        ({"trunc": 4, "g": []}, "h"),
        ({"trunc": 4, "h": [[1, 0]]}, "g"),
        ({"trunc": 4, "h": "zap", "g": []}, "h"),
        ({"trunc": 1, "h": [[1, 0], [2, 0]], "g": []}, "h"),
        ({"trunc": 4, "h": [[0.5, 0]], "g": []}, "h[0]"),
        ({"trunc": 4, "h": [], "g": []}, "h[0]"),
        ({"trunc": 4, "h": [[1, 0], [1]], "g": []}, "h[1]"),
        ({"trunc": 4, "h": [[1, 0], [1, "x"]], "g": []}, "h[1]"),
        ({"trunc": 4, "h": [[1, 0]], "g": [[1.5, 0]]}, "g[0]"),
        ({"trunc": MAX_JSON_TRUNC + 1, "h": [[1, 0]], "g": []}, "trunc"),
        ({"trunc": 4, "h": [[1, 0], [10**400, 0]], "g": []}, "h[1]"),  # 401 digits: no float holds it
        ({"trunc": 4, "h": [[1, 0]], "g": [[0, 0], [0, -(10**400)]]}, "g[1]"),
        ({"trunc": 4, "h": [[1, 0], [float("nan"), 0]], "g": []}, "h[1]"),
        ({"trunc": 4, "h": [[1, 0]], "g": [[0, float("inf")]]}, "g[0]"),
    ],
)
def test_json_schema_errors_name_field(doc, field):
    with pytest.raises(SchemaError) as exc:
        harmonic_from_json(doc)
    assert exc.value.field == field


def test_nonfinite_errors_name_the_first_bad_entry():
    # finiteness is checked over the whole list at once; the message names the first bad entry
    with pytest.raises(ValueError) as exc:
        AnalyticSeries([1.0, 2.0, float("nan"), float("inf")])
    assert str(exc.value) == "coefficient at power 3 is not finite: (nan+0j)"
    with pytest.raises(ValueError) as exc:
        PowerSeries([complex(0, float("inf")), float("nan")])
    assert str(exc.value) == "coefficient at power 0 is not finite: infj"
    doc = {"trunc": 4, "h": [[1, 0], [0, 0], [float("nan"), 0], [0, float("-inf")]], "g": []}
    with pytest.raises(SchemaError) as exc:
        harmonic_from_json(doc)
    assert str(exc.value) == "h[2]: coefficient is not finite: [nan, 0]"
