import math
import random
import re
import struct
import sys
import threading

import pytest
from hypothesis import assume, given, strategies as st

from qharm import ClassParams, DomainError, QParam, q_integer, q_integer_pow, qcore
from qharm.classes import proof_step_violations
from qharm.qcore import MAX_JSON_TRUNC, MAX_PROOF_STEP_U, in_interval, in_range, radius_sequence, weights

# q values away from the endpoints; the endpoints themselves are covered by
# dedicated limit tests.
q_values = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def test_qparam_range():
    assert QParam(0.5).q == 0.5
    for bad in (0.0, 1.0, -0.1, 1.2, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            QParam(bad)


def test_qparam_float_conversion():
    assert float(QParam(0.25)) == 0.25


def test_q_integer_single_term():
    assert q_integer(1, QParam(0.3)) == 1.0


def test_q_integer_direct_sum():
    # oracle: the geometric sum written out
    assert q_integer(3, QParam(0.5)) == 1.0 + 0.5 + 0.25 == 1.75


def test_q_integer_classical_limit():
    q = QParam(1.0 - 1e-8)
    assert abs(q_integer(5, q) - 5.0) <= 1e-6 * 5.0


def test_q_integer_rejects_nonpositive():
    q = QParam(0.5)
    with pytest.raises(DomainError):
        q_integer(0, q)
    with pytest.raises(DomainError):
        q_integer(-3, q)


def test_q_integer_pow_zeroth():
    assert q_integer_pow(7, QParam(0.9), 0) == 1.0


def test_q_integer_pow_square():
    # [2]_0.5 = 1.5, squared
    assert q_integer_pow(2, QParam(0.5), 2) == 1.5**2 == 2.25


def test_q_integer_pow_classical_limit():
    val = q_integer_pow(2, QParam(1.0 - 1e-8), 3)
    assert abs(val - 8.0) <= 1e-6 * 8.0


def test_q_integer_pow_rejects_negative_m():
    with pytest.raises(DomainError):
        q_integer_pow(2, QParam(0.5), -1)


def test_q_integer_pow_overflow_is_domain_error():
    with pytest.raises(DomainError):
        q_integer_pow(32, QParam(0.99), 2000)


@given(u=st.integers(min_value=1, max_value=64), q=q_values)
def test_recurrence_is_bitwise(u, q):
    qp = QParam(q)
    assert q_integer(u + 1, qp) == 1.0 + q * q_integer(u, qp)


@given(u=st.integers(min_value=1, max_value=64), q=q_values)
def test_monotone_in_u(u, q):
    # strictly increasing mathematically; in doubles the increment q**u can
    # fall below an ulp of the saturated sum, so demand strictness only
    # where it is representable
    qp = QParam(q)
    lo, hi = q_integer(u, qp), q_integer(u + 1, qp)
    assert hi >= lo
    if q**u > 1e-12:
        assert hi > lo


@given(u=st.integers(min_value=2, max_value=64), q=q_values)
def test_bounds(u, q):
    qp = QParam(q)
    val = q_integer(u, qp)
    assert 1.0 <= val < u
    # < 1/(1-q) mathematically; allow the saturated sum to touch the limit
    # to within a few ulps
    assert val <= 1.0 / (1.0 - q) * (1.0 + 1e-14)


@pytest.mark.parametrize("u", range(1, 21))
def test_limit_rate(u):
    # |[u]_{1-eps} - u| <= u(u-1) eps / 2, up to fp noise
    eps = 1e-8
    val = q_integer(u, QParam(1.0 - eps))
    assert abs(val - u) <= u * (u - 1) * eps / 2.0 + 1e-12


# --- the weight table ----------------------------------------------------------


def nested_sum(u, q):
    # oracle: [u]_q written out as 1 + q*(1 + q*(1 + ...)), u - 1 nestings
    acc = 1.0
    for _ in range(u - 1):
        acc = 1.0 + q * acc
    return acc


@given(n=st.integers(min_value=1, max_value=64), q=q_values, m=st.integers(min_value=0, max_value=8), data=st.data())
def test_weights_entry_is_q_integer_power_bitwise(n, q, m, data):
    u = data.draw(st.integers(min_value=1, max_value=n))
    qp = QParam(q)
    w = weights(n, qp, m)
    assert len(w) == n
    assert w[u - 1] == q_integer(u, qp) ** m == nested_sum(u, q) ** m
    assert q_integer_pow(u, qp, m) == w[u - 1]


@given(n=st.integers(min_value=1, max_value=64), q=q_values, m=st.integers(min_value=0, max_value=8), data=st.data())
def test_weights_prefix_is_shorter_table(n, q, m, data):
    k = data.draw(st.integers(min_value=1, max_value=n))
    qp = QParam(q)
    assert weights(n, qp, m)[:k] == weights(k, qp, m)


@given(n=st.integers(min_value=1, max_value=64), m=st.integers(min_value=0, max_value=40))
def test_weights_classical_is_integer_power(n, m):
    w = weights(n, QParam(0.5), m, classical=True)
    assert w == tuple(float(u**m) for u in range(1, n + 1))


def test_weights_order_zero_is_exactly_one():
    assert weights(5, QParam(0.9), 0) == (1.0,) * 5
    assert weights(5, QParam(0.9), 0, classical=True) == (1.0,) * 5


def test_weights_rejects_bad_sizes():
    for n, m in ((0, 1), (-2, 1), (3, -1)):
        with pytest.raises(DomainError):
            weights(n, QParam(0.5), m)
        with pytest.raises(DomainError):
            weights(n, QParam(0.5), m, classical=True)


def test_weights_overflow_is_domain_error():
    with pytest.raises(DomainError, match="overflows"):
        weights(32, QParam(0.99), 2000)
    # 32**400 is an int too large for a float
    with pytest.raises(DomainError, match="overflows"):
        weights(32, QParam(0.5), 400, classical=True)
    assert weights(3, QParam(0.5), 400, classical=True)[-1] == float(3**400)


@pytest.mark.parametrize("k", [1, 2, 4, 6, 8, 10, 12])
@pytest.mark.parametrize("m", [0, 1, 3, 10])
def test_weights_against_mpmath_near_one(k, m):
    # q = 1 - 10**-k approaches 1 from below; the oracle sums the geometric
    # series in 50-digit arithmetic from the same binary q.  Every step of
    # the recurrence adds positive terms, so the relative error grows at
    # most linearly in u, and the power multiplies it by m.
    mpmath = pytest.importorskip("mpmath")
    q = 1.0 - 10.0**-k
    w = weights(64, QParam(q), m)
    with mpmath.workdps(50):
        mq = mpmath.mpf(q)
        for u in (1, 2, 3, 7, 16, 32, 64):
            exact = mpmath.fsum(mq**j for j in range(u)) ** m
            rel = abs((mpmath.mpf(w[u - 1]) - exact) / exact)
            assert rel <= (2 * u * m + 1) * 2.0**-52


def test_in_range_is_the_one_integer_range_rule():
    assert in_range(3, 1, 3, "n") == 3
    assert in_range(10**30, 0, None, "m") == 10**30
    with pytest.raises(DomainError, match=r"^n must be >= 1, got 0$"):
        in_range(0, 1, 3, "n")
    with pytest.raises(DomainError, match=r"^n 4 exceeds the limit 3$"):
        in_range(4, 1, 3, "n")
    with pytest.raises(TypeError):
        in_range(2.0, 1, 3, "n")
    with pytest.raises(DomainError, match=r"^m must be >= 0, got -1$"):
        weights(3, QParam(0.5), -1)


@pytest.mark.parametrize(
    "x, low, high, opens, message",
    [
        (1.0, 0, 1, {"open_high": True}, "r must lie in [0, 1), got 1.0"),
        (0, 0, 1, {"open_low": True, "open_high": True}, "r must lie in (0, 1), got 0.0"),
        (-1e-300, 0, 1, {}, "r must lie in [0, 1], got -1e-300"),
        (0.8, 0, 0.75, {}, "r must lie in [0, 0.75], got 0.8"),
        (-1, 0, math.inf, {}, "r must lie in [0, inf), got -1.0"),
        (math.inf, 0, math.inf, {}, "r must lie in [0, inf), got inf"),
        (math.nan, 0, math.inf, {}, "r must lie in [0, inf), got nan"),
        (-math.inf, -math.inf, 1, {}, "r must lie in (-inf, 1], got -inf"),
    ],
)
def test_in_interval_refuses_with_the_interval_in_its_message(x, low, high, opens, message):
    # an infinite end prints as open, and an infinite x is refused even there
    with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
        in_interval(x, low, high, "r", **opens)


def test_in_interval_is_the_one_real_range_rule():
    assert in_interval(0, 0, 1, "r") == 0.0 and type(in_interval(0, 0, 1, "r")) is float
    assert in_interval(1, 0, 1, "r") == 1.0
    assert math.copysign(1.0, in_interval(-0.0, 0, math.inf, "r")) == -1.0
    assert in_interval(5e-324, 0, 1, "r", open_low=True) == 5e-324
    assert in_interval(1e308, 0, math.inf, "r") == 1e308
    with pytest.raises(ValueError, match="could not convert"):
        in_interval("x", 0, 1, "r")
    # QParam and radius_sequence say it in the same words
    with pytest.raises(DomainError, match=r"^q must lie in \(0, 1\), got 1.0$"):
        QParam(1)
    with pytest.raises(DomainError, match=r"^radii must lie in \(0, 1\), got 0.0$"):
        radius_sequence([0.0], "radii")


@pytest.mark.parametrize("n", [MAX_PROOF_STEP_U + 1, 10**12])
def test_weight_table_refuses_lengths_past_the_limit(n):
    # at 10**12 a refusal after the loop would be a MemoryError or a hang
    for classical in (False, True):
        with pytest.raises(DomainError, match=f"^highest power {n} exceeds the limit {MAX_PROOF_STEP_U}$"):
            weights(n, QParam(0.5), 1, classical)


def test_weight_table_at_its_limit():
    w = weights(MAX_PROOF_STEP_U, QParam(0.5), 1)
    assert len(w) == MAX_PROOF_STEP_U and w[-1] == 2.0


# --- the weight memo -----------------------------------------------------------


memo = qcore._memo_weight_table


def uncached_weights(n, q, m, classical):
    # the recurrence of weights, written out again without the memo
    if classical:
        return tuple(float(u**m) for u in range(1, n + 1))
    acc, out = 0.0, []
    for _ in range(n):
        acc = 1.0 + q * acc
        out.append(acc**m)
    return tuple(out)


def bits(table):
    return struct.pack(f"{len(table)}d", *table)


memo_keys = st.tuples(st.sampled_from([0.5, 0.9, 0.99, 1e-6]), st.integers(0, 6), st.booleans())
memo_lengths = st.integers(1, 80) | st.sampled_from([MAX_JSON_TRUNC, MAX_JSON_TRUNC + 1])


@given(keys=st.lists(memo_keys, min_size=1, max_size=3, unique=True), data=st.data())
def test_memoized_tables_equal_the_recurrence_bitwise_in_any_call_order(keys, data):
    # shorter then longer, longer then shorter and keys interleaved, from an empty memo
    memo.cache_clear()
    calls = data.draw(st.lists(st.tuples(st.sampled_from(keys), memo_lengths), min_size=1, max_size=12))
    for (q, m, classical), n in calls:
        assert bits(weights(n, QParam(q), m, classical)) == bits(uncached_weights(n, q, m, classical))
    # one table per distinct call up to MAX_JSON_TRUNC; longer ones are not kept
    assert memo.cache_info().currsize == len({(key, n) for key, n in calls if n <= MAX_JSON_TRUNC})


@given(q=st.sampled_from([0.5, 0.9, 0.99]), m=st.integers(300, 3000), classical=st.booleans())
def test_an_overflowing_table_keeps_its_error_after_a_shorter_one_is_memoized(q, m, classical):
    def overflows(n):
        try:
            uncached_weights(n, q, m, classical)
        except OverflowError:
            return True
        return False

    n = next((n for n in range(2, 65) if overflows(n)), None)
    assume(n is not None and not overflows(n - 1))
    memo.cache_clear()
    message = f"^the weight of u = {n} overflows a float at m = {m}, q = {q!r}, classical = {classical}$"
    with pytest.raises(DomainError, match=message):
        weights(n, QParam(q), m, classical)
    # the finite table one shorter is served and memoized; the overflow is not
    assert bits(weights(n - 1, QParam(q), m, classical)) == bits(uncached_weights(n - 1, q, m, classical))
    assert memo.cache_info().currsize == 1
    with pytest.raises(DomainError, match=message):
        weights(n, QParam(q), m, classical)
    assert bits(weights(n - 1, QParam(q), m, classical)) == bits(uncached_weights(n - 1, q, m, classical))
    assert memo.cache_info()[:2] == (1, 3)  # hits, misses


def test_the_memo_drops_long_tables_and_bounds_its_keys():
    memo.cache_clear()
    p = ClassParams(3, 0.25, QParam(0.9))
    weights(16, p.q, p.m)
    proof_step_violations(p, max_u=2**20)  # builds a 2**20 table
    assert memo.cache_info()[1:] == (1, qcore._WEIGHT_MEMO_KEYS, 1)  # misses, maxsize, currsize: the 16 table only
    for m in range(100):
        weights(MAX_JSON_TRUNC, QParam(0.5), m)
        assert memo.cache_info().currsize <= qcore._WEIGHT_MEMO_KEYS
    # least recently used first out: the last keys stay
    misses = memo.cache_info().misses
    for m in range(100 - qcore._WEIGHT_MEMO_KEYS, 100):
        weights(MAX_JSON_TRUNC, QParam(0.5), m)
    assert memo.cache_info().misses == misses


def test_the_memo_serves_exact_tables_to_concurrent_threads():
    # more threads than cores, switching often, over more keys than the memo holds
    memo.cache_clear()
    keys = [(q, m, classical) for q in (0.5, 0.9) for m in range(20) for classical in (False, True)]
    errors = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(200):
            q, m, classical = rng.choice(keys)
            n = rng.randint(1, 96)
            if weights(n, QParam(q), m, classical) != uncached_weights(n, q, m, classical):
                errors.append((q, m, classical, n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert memo.cache_info().currsize <= qcore._WEIGHT_MEMO_KEYS
