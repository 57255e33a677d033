"""Jackson q-difference operator and its Salagean-type iterates.

All operators act coefficientwise: the q-derivative multiplies c_u by
[u]_q and drops the degree, and the order-m Salagean operator multiplies
c_u by [u]_q**m in place.  The difference-quotient definition
(s(z) - s(qz)) / ((1 - q) z) is deliberately not used for computation;
it is the independent oracle against which the coefficientwise form is
tested.  Each operator computes only the stored coefficients of its input
(up to the series' ``_end``) and the constructor pads the rest: every
operator maps the +0+0j padding to +0+0j, except the sign flip of
salagean_harmonic at odd m, whose -0-0j image of the padding is kept.

``classical_mode`` swaps the weights [u]_q**m for u**m, the undeformed
operator, without routing q = 1 through QParam.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, neg

from .qcore import MAX_JSON_TRUNC, QParam, in_range, weights
from .series import AnalyticSeries, HarmonicFunction, PowerSeries, _not_finite


@dataclass(frozen=True)
class OperatorParams:
    """Salagean order m >= 0, deformation q, and the classical-mode switch."""

    m: int
    q: QParam
    classical_mode: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", in_range(self.m, 0, None, "m"))


def q_derivative(s: AnalyticSeries, q: QParam) -> PowerSeries:
    """Jackson q-derivative: [u]_q c_u becomes the coefficient of z**(u-1).

    Equals (s(z) - s(qz)) / ((1 - q) z) pointwise; the quotient form is
    reserved for test oracles.
    """
    return PowerSeries._padded(tuple(w * c for w, c in zip(weights(s._end, q, 1), s.coeffs)), len(s.coeffs))


def salagean_kernel(trunc: int, p: OperatorParams) -> AnalyticSeries:
    """The convolution kernel z + sum_u w_u z**u with w_u = [u]_q**m
    (or u**m in classical mode)."""
    trunc = in_range(trunc, 1, MAX_JSON_TRUNC, "series length")
    return AnalyticSeries(weights(trunc, p.q, p.m, p.classical_mode), trunc=trunc)


def _weighted(coeffs: tuple[complex, ...], p: OperatorParams) -> tuple[complex, ...]:
    """(w_1 c_1, w_2 c_2, ...) with the weight table built only up to the
    last nonzero c_u.  The zeros past it are multiplied by 1.0: any finite
    positive weight gives the same bits on a zero, signed zeros included,
    so only the weights of nonzero coefficients decide the domain."""
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    w = (weights(n, p.q, p.m, p.classical_mode) if n else ()) + (1.0,) * (len(coeffs) - n)
    return tuple(map(mul, w, coeffs))


def salagean(s: AnalyticSeries, p: OperatorParams) -> AnalyticSeries:
    """Order-m Salagean q-operator: c_u -> [u]_q**m c_u.

    m = 0 returns ``s`` unchanged.  The result coincides coefficient by
    coefficient, bitwise, with hadamard(s, salagean_kernel(...)).
    """
    if p.m == 0:
        return s
    return AnalyticSeries(_weighted(s.coeffs[: s._end], p), trunc=s.trunc_degree)


def salagean_harmonic(f: HarmonicFunction, p: OperatorParams) -> HarmonicFunction:
    """Apply the operator to a harmonic pair: the analytic part is
    transformed directly and the co-analytic part picks up the factor
    (-1)**m, so that evaluating the result as h(z) + conj(g(z)) gives the
    operator value on f.  Odd orders flip the signs of g, and with them
    whether the result is t_form; the flip maps g's +0+0j padding to -0-0j.
    """
    h2 = salagean(f.h, p)
    if not p.m % 2:
        return HarmonicFunction(h2, salagean(f.g, p))
    g = f.g
    products = _weighted(g.coeffs[: g._end], p)
    if not all(map(cmath.isfinite, products)):
        raise _not_finite(products, 1)  # checked before the sign flip, so it reads as in salagean(f.g, p)
    flipped = (*map(neg, products), *repeat(-0j, g.trunc_degree - len(products)))
    return HarmonicFunction(h2, AnalyticSeries(flipped, trunc=g.trunc_degree))


def class_transform(f: HarmonicFunction, p: OperatorParams) -> PowerSeries:
    """The series whose value at z is (D^m h(z) + D^m g(z)) / z, with the
    co-analytic coefficients entering verbatim (no conjugation, no sign).

    Constant term 1 + b_1; the coefficient of z**(u-1) is w_u (a_u + b_u).
    The real part of this series minus alpha is the membership margin of
    the family.  Conjugating and signing the g part instead gives
    eval_harmonic(salagean_harmonic(f, p), z) / z.
    """
    h, g = f.h, f.g
    k = max(h._end, g._end)  # past it both parts are +0+0j, and so is their image
    return PowerSeries._padded(_weighted(tuple(map(add, h.coeffs[:k], g.coeffs)), p), len(h.coeffs))

