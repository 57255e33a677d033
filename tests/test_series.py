import copy
import json
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qharm import (
    AnalyticSeries,
    ClassParams,
    DomainError,
    HarmonicFunction,
    OperatorParams,
    PowerSeries,
    QParam,
    SchemaError,
    class_transform,
    classical_derivative,
    coeff_functional,
    convex_combination,
    eval_analytic,
    eval_harmonic,
    eval_power,
    extreme_point,
    growth_witness_upper,
    hadamard,
    harmonic_from_json,
    harmonic_to_json,
    q_derivative,
    random_t_form,
    salagean,
    salagean_harmonic,
    sharpness_witness,
)
from qharm import series, verify
from qharm.qcore import weights
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
    unset = pickle.dumps(value)
    fresh = copy.deepcopy(value)
    if isinstance(value, HarmonicFunction):
        # the memos of the moduli and the functional are set, and nothing that compares values sees them
        fresh = harmonic_from_json(harmonic_to_json(value))
        coeff_functional(value, ClassParams(3, 0.25, QParam(0.9)))
        assert value._moduli is not None and value._functional is not None and fresh._functional is None
    assert pickle.dumps(value) == unset
    assert value == fresh and hash(value) == hash(fresh) and repr(value) == repr(fresh)
    assert b"_end" not in unset  # each series' stored length is rebuilt, never pickled
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
        assert pickle.dumps(twin) == unset and hash(twin) == hash(fresh)
        pairs = ((twin.h, value.h), (twin.g, value.g)) if isinstance(value, HarmonicFunction) else ((twin, value),)
        assert all(a._end == b._end for a, b in pairs)
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


def test_harmonic_pads_a_shorter_g_to_h_keeping_its_values():
    h = AnalyticSeries([1.0, -0.25, 0.5j], trunc=6)
    g = AnalyticSeries([0.5, complex(-0.0, 0.125)], trunc=2)
    f = HarmonicFunction(h, g)
    assert f.h is h and f.g.trunc_degree == 6
    assert [(c.real.hex(), c.imag.hex()) for c in f.g.coeffs[:2]] == [(c.real.hex(), c.imag.hex()) for c in g.coeffs]
    assert f.g.coeffs[2:] == (0j,) * 4
    z = 0.3 + 0.4j
    assert eval_harmonic(f, z) == eval_analytic(h, z) + eval_analytic(g, z).conjugate()


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


PLUS_ZERO = ((0.0).hex(), (0.0).hex())


def evaluated_length(coeffs):
    """The trim rule as the evaluators and the writer applied it to a whole
    stored tuple before each series recorded its stored length: all but the
    run of highest-power +0+0j coefficients, and at least the first."""
    n = len(coeffs)
    while n > 1:
        c = coeffs[n - 1]
        if c != 0 or math.copysign(1.0, c.real) + math.copysign(1.0, c.imag) != 2.0:
            break
        n -= 1
    return n


def hex_parts(coeffs):
    return [(c.real.hex(), c.imag.hex()) for c in coeffs]


@st.composite
def sparse(draw):
    """A few drawn coefficients, signed zeros among them, at drawn powers of
    a series up to MAX_JSON_TRUNC long; every other coefficient is the
    +0+0j padding."""
    trunc = draw(st.integers(1, 48) | st.integers(1, MAX_JSON_TRUNC))
    h, g = [1.0] + [0j] * (trunc - 1), [0j] * trunc
    for part, low in ((h, 1), (g, 0)):
        if low < trunc:
            for i, c in draw(st.lists(st.tuples(st.integers(low, trunc - 1), coefficient), max_size=6)):
                part[i] = c
    return HarmonicFunction(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))


@settings(max_examples=300, deadline=None)
@given(f=sparse() | constructed())
@example(f=HarmonicFunction(AnalyticSeries.identity(MAX_JSON_TRUNC)))  # an all-zero g
@example(f=HarmonicFunction(AnalyticSeries([1.0, 0.5, 0j, 0j], trunc=6), AnalyticSeries([0.25, -0j], trunc=6)))
@example(
    f=HarmonicFunction(
        AnalyticSeries([1.0] + [0j] * (MAX_JSON_TRUNC - 2) + [complex(-0.0, 0.0)], trunc=MAX_JSON_TRUNC),
        AnalyticSeries([0j] * (MAX_JSON_TRUNC - 1) + [complex(0.0, -0.0)], trunc=MAX_JSON_TRUNC),
    )
)
def test_series_json_stops_at_the_last_coefficient_that_is_not_plus_zero(f):
    doc = harmonic_to_json(f)
    assert doc["trunc"] == f.trunc_degree
    for key, part in (("h", f.h.coeffs), ("g", f.g.coeffs)):
        n = len(doc[key])
        assert n == evaluated_length(part)
        # only +0+0j is dropped, and never the first coefficient
        assert hex_parts(part[n:]) == [PLUS_ZERO] * (len(part) - n)
        assert n == 1 or hex_parts(part[n - 1 : n]) != [PLUS_ZERO]
    back = harmonic_from_json(json.loads(json.dumps(doc)))
    assert back.trunc_degree == f.trunc_degree
    assert hex_parts(back.h.coeffs) == hex_parts(f.h.coeffs)
    assert hex_parts(back.g.coeffs) == hex_parts(f.g.coeffs)


# --- the stored length: recorded once, when a series is built ---------------


def assert_stored(s, expected):
    """s stores exactly the coefficients expected (compared under float.hex,
    so the sign of every zero counts) and records the trim rule's length of them."""
    assert hex_parts(s.coeffs) == hex_parts(expected)
    assert s._end == evaluated_length(s.coeffs)


def full_weighted(coeffs, p):
    """salagean._weighted over a whole padded tuple, as the operators ran before they stopped at _end."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    w = (weights(n, p.q, p.m, p.classical_mode) if n else ()) + (1.0,) * (len(coeffs) - n)
    return tuple(wu * c for wu, c in zip(w, coeffs))


@st.composite
def unequal_pairs(draw):
    """(h, g, h_trunc, g_trunc): sparse drawn coefficients, signed zeros among
    them, given up to a drawn length and padded to a drawn trunc of up to
    MAX_JSON_TRUNC, one part shorter than the other when drawn; g may be all
    zero, and b_u = -a_u cancels at the highest power both parts give."""
    trunc = draw(st.integers(1, 40) | st.integers(1, MAX_JSON_TRUNC))
    h_trunc, g_trunc = trunc, trunc
    if draw(st.booleans()):
        shorter = draw(st.integers(1, trunc))
        h_trunc, g_trunc = (shorter, trunc) if draw(st.booleans()) else (trunc, shorter)
    h = [1.0 + 0j] + [0j] * (draw(st.integers(1, h_trunc)) - 1)
    g = [0j] * draw(st.integers(0, g_trunc))
    for part, low in ((h, 1), (g, 0)):
        if low < len(part):
            for i, c in draw(st.lists(st.tuples(st.integers(low, len(part) - 1), coefficient), max_size=5)):
                part[i] = c
    top = min(len(h), len(g)) - 1
    if top >= 1 and draw(st.booleans()):
        a = draw(coefficient)
        h[top], g[top] = a, -a
    return h, g, h_trunc, g_trunc


cancelling = ([1.0 + 0j, 0.5 + 0j, -0.25 + 0j], [0j, 0j, 0.25 + 0j], 6, 6)


@settings(max_examples=150, deadline=None)
@given(
    pair=unequal_pairs(),
    m=st.integers(0, 5),
    q=st.sampled_from([0.5, 0.9]),
    classical=st.booleans(),
)
@example(pair=cancelling, m=1, q=0.5, classical=False)  # T = 1 + 0.75 z, a +0+0j at z**2
@example(pair=([1.0 + 0j, 0.5 + 0j], [0.25 + 0j], 6, 6), m=1, q=0.5, classical=False)  # odd m: -0-0j padding
@example(pair=([1.0 + 0j], [], MAX_JSON_TRUNC, 3), m=2, q=0.9, classical=False)  # all-zero g, re-padded
def test_operators_and_readers_record_the_stored_length_of_the_whole_tuple(pair, m, q, classical):
    h_given, g_given, h_trunc, g_trunc = pair
    trunc = max(h_trunc, g_trunc)
    h_part, g_part = AnalyticSeries(h_given, trunc=h_trunc), AnalyticSeries(g_given, trunc=g_trunc)
    assert_stored(h_part, (*h_given, *[0j] * (h_trunc - len(h_given))))
    assert_stored(g_part, (*g_given, *[0j] * (g_trunc - len(g_given))))
    f = HarmonicFunction(h_part, g_part)  # re-pads the shorter part
    h, g = (*h_given, *[0j] * (trunc - len(h_given))), (*g_given, *[0j] * (trunc - len(g_given)))
    assert_stored(f.h, h)
    assert_stored(f.g, g)
    assert f.t_form == (all(c.imag == 0.0 and c.real <= 0.0 for c in h[1:]) and all(c.imag == 0.0 and c.real >= 0.0 for c in g))
    doc = {"trunc": trunc, "h": [[c.real, c.imag] for c in h_given], "g": [[c.real, c.imag] for c in g_given]}
    read = harmonic_from_json(json.loads(json.dumps(doc)))
    assert_stored(read.h, h)
    assert_stored(read.g, g)

    p = OperatorParams(m, QParam(q), classical_mode=classical)
    image_h, image_g = (full_weighted(h, p), full_weighted(g, p)) if m else (h, g)
    assert_stored(salagean(f.h, p), image_h)
    image = salagean_harmonic(f, p)
    assert_stored(image.h, image_h)
    assert_stored(image.g, tuple(-c for c in image_g) if m % 2 else image_g)
    if m % 2:  # neg(+0+0j) is -0-0j, so the image of g's padding is data
        assert image.g._end == trunc
    assert_stored(class_transform(f, p), full_weighted(tuple(a + b for a, b in zip(h, g)), p))
    for part, full in ((f.h, h), (f.g, g)):
        assert_stored(classical_derivative(part), tuple(u * c for u, c in enumerate(full, start=1)))
        assert_stored(q_derivative(part, QParam(q)), tuple(w * c for w, c in zip(weights(len(full), QParam(q), 1), full)))
    n = trunc
    a = h_part.coeffs + (0j,) * (n - h_trunc)
    b = g_part.coeffs + (0j,) * (n - g_trunc)
    assert_stored(hadamard(h_part, g_part), tuple(x * y for x, y in zip(a, b)))


def test_cancellation_shortens_the_transform_and_odd_orders_keep_the_signed_padding():
    f = HarmonicFunction(*(AnalyticSeries(c, trunc=6) for c in cancelling[:2]))
    p = OperatorParams(1, QParam(0.5))
    assert (f.h._end, f.g._end, class_transform(f, p)._end) == (3, 3, 2)
    image = salagean_harmonic(f, p)
    assert image.g._end == 6 and hex_parts(image.g.coeffs[3:]) == [((-0.0).hex(), (-0.0).hex())] * 3
    assert salagean_harmonic(f, OperatorParams(2, QParam(0.5))).g._end == 3


@st.composite
def magnitude_maps(draw):
    """from_t_magnitudes arguments: a few powers up to MAX_JSON_TRUNC, zero magnitudes among them."""
    trunc = draw(st.integers(1, 40) | st.integers(1, MAX_JSON_TRUNC))
    top = MAX_JSON_TRUNC if draw(st.booleans()) else max(trunc, 2)
    mag = st.sampled_from([0.0, 0.25]) | st.floats(0.0, 0.5)
    a = draw(st.dictionaries(st.integers(2, top), mag, max_size=4))
    b = draw(st.dictionaries(st.integers(1, top), mag, max_size=4))
    if 1 in b:
        b[1] = min(b[1], 1.0)
    return a, b, trunc


@settings(max_examples=100, deadline=None)
@given(maps=magnitude_maps())
@example(maps=({2: 0.0}, {}, 3))  # -0.0 at z**2 is data
@example(maps=({}, {3: 0.0}, 5))  # +0.0 at z**3 is padding
def test_t_magnitudes_record_the_stored_length_of_the_whole_tuple(maps):
    a_mags, b_mags, trunc = maps
    f = HarmonicFunction.from_t_magnitudes(a_mags, b_mags, trunc=trunc)
    n = max([trunc, *a_mags, *b_mags])
    h, g = [0.0] * n, [0.0] * n
    h[0] = 1.0
    for part, sign, mags in ((h, -1.0, a_mags), (g, 1.0, b_mags)):
        for u, mag in mags.items():
            part[u - 1] = sign * mag
    assert_stored(f.h, tuple(map(complex, h)))
    assert_stored(f.g, tuple(map(complex, g)))


@settings(max_examples=100, deadline=None)
@given(
    p=class_params,
    trunc=st.integers(1, 40) | st.integers(1, MAX_JSON_TRUNC),
    u=st.integers(1, 12),
    w=st.floats(0.0, 1.0),
    xs=st.lists(coefficient, max_size=6),
    ys=st.lists(coefficient, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_constructions_record_the_stored_length_of_the_whole_tuple(p, trunc, u, w, xs, ys, seed):
    # every construction builds its parts through classes._from_shares, which gives each
    # part only up to its highest placed power; the constructor pads and records the rest
    built = [
        extreme_point(u, "analytic", p, trunc=trunc),
        extreme_point(u, "coanalytic", p, coanalytic_sign=1, trunc=trunc),
        convex_combination([(u, "coanalytic", w), (u, "analytic", 1.0 - w)], p, trunc=trunc),
        verify._random_gap_candidate(p, np.random.default_rng(seed)),
    ]
    if trunc >= 2:
        built.append(random_t_form(p, 0.9, np.random.default_rng(seed), trunc=min(trunc, 48)))
    total = math.fsum(map(abs, xs + ys))
    if total > 0.0:
        built.append(sharpness_witness([x / total for x in xs], [y / total for y in ys], p, trunc=trunc))
    for f in built:
        for part in (f.h, f.g):
            assert part._end == evaluated_length(part.coeffs)
            assert hex_parts(part.coeffs[part._end :]) == [PLUS_ZERO] * (len(part.coeffs) - part._end)


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


# --- the JSON reader's fast path and the cached functional moduli ----------------


def per_entry_parse(obj, field):
    # the reader's per-entry loop alone, which names the first bad entry
    out = []
    for i, entry in enumerate(obj):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaError(f"{field}[{i}]", "expected a [re, im] pair")
        re, im = entry
        if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise SchemaError(f"{field}[{i}]", "re and im must be real numbers")
        try:
            out.append(complex(re, im))
        except OverflowError:
            raise SchemaError(f"{field}[{i}]", "re and im must fit in a float") from None
    for i, c in enumerate(out):
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise SchemaError(f"{field}[{i}]", f"coefficient is not finite: {obj[i]!r}")
    return tuple(out)


def parse_outcome(parse, obj):
    try:
        return "ok", [repr(c) for c in parse(obj)]
    except SchemaError as exc:
        return "error", exc.field, str(exc)


ODD_ENTRIES = [
    [True, 0],
    [0.5, False],
    [10**400, 0],
    [0, -(10**4999)],  # 5,000 digits
    [float("nan"), 0],
    [0.0, float("inf")],
    [float("-inf"), 1],
    [1],
    [1, 2, 3],
    (0.5, 0.5),
    [np.float64(0.25), 0],  # a float subclass, read by the loop
    [0, np.float64("nan")],
    "x",
    None,
]
GOOD_ENTRIES = [[1, 0], [-0.0, 0.5], [0, -0.0], [2**53 + 1, -3], [1e-320, 1.5e300]]


@pytest.mark.parametrize("odd", range(len(ODD_ENTRIES)))
@pytest.mark.parametrize("where", [0, 2, 5])
def test_reader_fast_path_gives_the_loop_values_and_errors(odd, where):
    obj = [list(e) for e in GOOD_ENTRIES]
    obj.insert(where, ODD_ENTRIES[odd])
    assert parse_outcome(lambda o: series._parse_pairs(o, "h", 16), obj) == parse_outcome(lambda o: per_entry_parse(o, "h"), obj)


@given(st.lists(st.sampled_from(GOOD_ENTRIES + ODD_ENTRIES) | st.lists(st.integers() | st.floats(), min_size=2, max_size=2), max_size=10))
def test_reader_fast_path_matches_the_loop_on_any_mix(obj):
    obj = [list(e) if isinstance(e, list) else e for e in obj]
    assert parse_outcome(lambda o: series._parse_pairs(o, "g", 16), obj) == parse_outcome(lambda o: per_entry_parse(o, "g"), obj)


def recomputed_moduli(f):
    nonzero = [(u, c) for u, c in enumerate(f.h.coeffs, start=1) if u >= 2 and c != 0]
    nonzero += [(u, c) for u, c in enumerate(f.g.coeffs, start=1) if c != 0]
    return tuple(u - 1 for u, _ in nonzero), tuple(series._modulus(c) for _, c in nonzero)


moduli_parts = st.sampled_from([0j, -0j, complex(0, -0.0), 0.5, -0.25j, 1e-320, complex(1.7e308, 1.7e308)])


@given(h=st.lists(moduli_parts, max_size=8), g=st.lists(moduli_parts, max_size=8))
def test_cached_moduli_change_no_value_semantics(h, g):
    trunc = max(len(h) + 1, len(g), 1)
    try:
        f = HarmonicFunction(AnalyticSeries([1.0, *h], trunc=trunc), AnalyticSeries(g, trunc=trunc))
    except DomainError:  # |b_1| > 1
        assume(False)
    before = repr(f), hash(f), [pickle.dumps(f, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    moduli = f._functional_moduli()
    assert f._functional_moduli() is moduli and moduli == recomputed_moduli(f)
    assert [repr(x) for x in moduli[1]] == [repr(x) for x in recomputed_moduli(f)[1]]
    assert (repr(f), hash(f), [pickle.dumps(f, protocol) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]) == before
    fresh = HarmonicFunction(f.h, f.g)
    assert fresh == f and f == fresh and hash(fresh) == hash(f) and repr(fresh) == repr(f)
    for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)
        assert "_moduli" not in vars(twin) and twin._functional_moduli() == moduli
