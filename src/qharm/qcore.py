"""Scalar q-deformation arithmetic.

The q-analogue of a positive integer u is the geometric sum
1 + q + ... + q**(u-1), equal to (1 - q**u)/(1 - q) and tending to u as
q -> 1 from below.  Operator weights, membership functionals and growth
bounds all reduce to these scalars, so this module is the numeric bedrock
of the package.

Everything here is a pure function over immutable values and is safe to
call concurrently.  The one piece of state is the memo of weight tables
behind ``weights``: a functools.lru_cache, so thread-safe, bounded (at most
_WEIGHT_MEMO_KEYS tables, none longer than MAX_JSON_TRUNC) and invisible in
the results, since a table it returns is one the recurrence built.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable


# Tolerance policy.  MEMBERSHIP_TOL is the rounding allowance wherever an
# fsum is compared with 1: the functional threshold, the growth domain
# |b_1| <= (1 - alpha)(1 + tol), weight sums and the necessity probe.
# DEFAULT_TOLERANCE is the absolute allowance on margins sampled on a disc
# grid; the CLI's QHARM_TOL overrides it.
MEMBERSHIP_TOL = 1e-12
DEFAULT_TOLERANCE = 1e-9

# Largest power a series may carry (the trunc of a series JSON document,
# whose parser pads both parts to it) and a weight query may name.
MAX_JSON_TRUNC = 4096

# Longest weight table, and so the largest max_u of
# classes.proof_step_violations: far above MAX_JSON_TRUNC, since the
# comparison there first fails near u = (1 - q)**-m / (1 - alpha).
MAX_PROOF_STEP_U = 2**20

# The weight memo keeps the _WEIGHT_MEMO_KEYS tables used last, keyed by
# (n, q, m, classical).  Tables longer than MAX_JSON_TRUNC
# (proof_step_violations' long scans) bypass it, so it holds at most
# 32 * 4096 floats, about 4 MB.
_WEIGHT_MEMO_KEYS = 32


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


def in_range(n: int, low: int, limit: int | None, what: str) -> int:
    """``n`` as an int, refused with DomainError below ``low`` or above
    ``limit`` (None: no upper end).  Every count, size, power and order
    is checked here, before anything is allocated or looped over."""
    n = operator.index(n)
    if n < low:
        raise DomainError(f"{what} must be >= {low}, got {n}")
    if limit is not None and n > limit:
        raise DomainError(f"{what} {n} exceeds the limit {limit}")
    return n


def in_interval(
    x: float, low: float, high: float, what: str, *, open_low: bool = False, open_high: bool = False
) -> float:
    """``x`` as a float, refused with DomainError unless it is finite and
    lies between ``low`` and ``high``, each end included unless marked
    open.  Every real parameter is checked here; the message names the
    interval, an infinite end printing as open: "r must lie in [0, inf)"."""
    x = float(x)
    if (low < x if open_low else low <= x) and (x < high if open_high else x <= high) and math.isfinite(x):
        return x
    left = "(" if open_low or low == -math.inf else "["
    right = ")" if open_high or high == math.inf else "]"
    ends = ", ".join(repr(float(end)).removesuffix(".0") for end in (low, high))
    raise DomainError(f"{what} must lie in {left}{ends}{right}, got {x!r}")


def radius_sequence(radii: Iterable[float], what: str) -> tuple[float, ...]:
    """``radii`` as a tuple of floats, refused with DomainError unless it
    is non-empty, inside (0, 1) and strictly increasing."""
    rs = tuple(in_interval(r, 0, 1, what, open_low=True, open_high=True) for r in radii)
    if not rs:
        raise DomainError(f"{what} must be non-empty")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise DomainError(f"{what} must be strictly increasing, got {rs!r}")
    return rs


@dataclass(frozen=True)
class QParam:
    """Deformation parameter restricted to 0 < q < 1, both ends excluded.

    q = 1 is rejected on purpose: the classical (undeformed) operator is a
    separate evaluation mode on the operator side, not a value smuggled
    through this parameter.  NaN fails the range check as well.
    """

    q: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", in_interval(self.q, 0, 1, "q", open_low=True, open_high=True))

    def __float__(self) -> float:
        return self.q


def weights(n: int, q: QParam, m: int, classical: bool = False) -> tuple[float, ...]:
    """The weight table (w_1, ..., w_n), w_u = [u]_q**m, or u**m when classical.

    [u]_q = 1 + q + ... + q**(u-1) comes from the nested recurrence
    [u]_q = 1 + q*[u-1]_q, [0]_q = 0, which then holds bitwise and keeps
    full precision as q -> 1- (where (1 - q**u)/(1 - q) cancels).  m = 0
    gives exactly 1.0; a weight too large for a float raises DomainError.
    Weights grow with u, so callers build the table only up to the highest
    power they use, at most MAX_PROOF_STEP_U.  Tables up to MAX_JSON_TRUNC
    are memoized; an overflow is not, so it raises again on every call.
    """
    n = in_range(n, 1, MAX_PROOF_STEP_U, "highest power")
    m = in_range(m, 0, None, "m")
    build = _memo_weight_table if n <= MAX_JSON_TRUNC else _weight_table
    return build(n, q.q, m, classical)


def _weight_table(n: int, q: float, m: int, classical: bool) -> tuple[float, ...]:
    """weights(n, ...) built from the recurrence, for a checked n and m."""
    try:
        if classical:
            return tuple(float(u**m) for u in range(1, n + 1))
        acc = 0.0
        out = []
        for _ in range(n):
            acc = 1.0 + q * acc
            out.append(acc**m)
        return tuple(out)
    except OverflowError:
        raise DomainError(f"the weight of u = {n} overflows a float at m = {m}, q = {q!r}, classical = {classical}") from None


_memo_weight_table = functools.lru_cache(maxsize=_WEIGHT_MEMO_KEYS)(_weight_table)


def q_integer(u: int, q: QParam) -> float:
    """[u]_q = 1 + q + ... + q**(u-1) for u <= MAX_JSON_TRUNC; see weights."""
    return q_integer_pow(u, q, 1)


def q_integer_pow(u: int, q: QParam, m: int) -> float:
    """[u]_q raised to the m-th power, for u <= MAX_JSON_TRUNC; see weights."""
    return weights(in_range(u, 1, MAX_JSON_TRUNC, "u"), q, m)[-1]
