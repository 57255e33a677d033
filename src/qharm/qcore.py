"""Scalar q-deformation arithmetic.

The q-analogue of a positive integer u is the geometric sum
1 + q + ... + q**(u-1), equal to (1 - q**u)/(1 - q) and tending to u as
q -> 1 from below.  Operator weights, membership functionals and growth
bounds all reduce to these scalars, so this module is the numeric bedrock
of the package.

Everything here is a pure function over immutable values and is safe to
call concurrently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


@dataclass(frozen=True)
class QParam:
    """Deformation parameter restricted to 0 < q < 1, both ends excluded.

    q = 1 is rejected on purpose: the classical (undeformed) operator is a
    separate evaluation mode on the operator side, not a value smuggled
    through this parameter.  NaN fails the range check as well.
    """

    q: float

    def __post_init__(self) -> None:
        q = float(self.q)
        if not 0.0 < q < 1.0:
            raise DomainError(f"q must satisfy 0 < q < 1, got {self.q!r}")
        object.__setattr__(self, "q", q)

    def __float__(self) -> float:
        return self.q


def q_integer(u: int, q: QParam) -> float:
    """[u]_q = 1 + q + ... + q**(u-1), evaluated as the nested sum
    1 + q*(1 + q*(1 + ...)).

    The sum form keeps full precision as q -> 1-, where the quotient
    (1 - q**u)/(1 - q) cancels catastrophically.  Nesting makes the
    recurrence [u+1]_q = 1 + q*[u]_q hold bitwise, not just to rounding.
    """
    u = operator.index(u)
    if u < 1:
        raise DomainError(f"u must be a positive integer, got {u!r}")
    qq = q.q
    acc = 1.0
    for _ in range(u - 1):
        acc = 1.0 + qq * acc
    return acc


def q_integer_pow(u: int, q: QParam, m: int) -> float:
    """[u]_q raised to the m-th power.  m = 0 returns exactly 1.0; a power
    too large for a float raises DomainError."""
    m = operator.index(m)
    if m < 0:
        raise DomainError(f"m must be non-negative, got {m!r}")
    if m == 0:
        return 1.0
    try:
        return q_integer(u, q) ** m
    except OverflowError:
        raise DomainError(f"[{u}]_q**{m} overflows a float at q = {q.q!r}") from None
