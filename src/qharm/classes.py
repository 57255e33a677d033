"""Membership criteria, extreme points, sharpness witnesses and growth
bounds for the harmonic families cut out by the Salagean q-operator.

The family S(m, alpha, q) consists of normalized harmonic f = h + conj(g)
with Re{(D^m h(z) + D^m g(z)) / z} > alpha on the unit disc.  Its
coefficient functional

    sum_{u>=2} ([u]_q**m / (1-alpha)) |a_u|
  + sum_{u>=1} ([u]_q**m / (1-alpha)) |b_u|

is <= 1 in the sufficient coefficient condition; for functions in the
negative-coefficient normalization (t_form) the same inequality is an
exact characterization.  The one-term boundary functions with functional
exactly 1 are the extreme points of the closed convex hull, and every
member obeys two-sided growth bounds in |z| = r with the [2]_q**m
denominator.  The positive-real-axis necessity probe sums the same terms,
without numpy.  Constructions refuse series longer than MAX_JSON_TRUNC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul, truediv
from typing import Iterable, Sequence

from .qcore import DEFAULT_TOLERANCE, MEMBERSHIP_TOL, DomainError, QParam, weights  # noqa: F401 (re-exported)
from .qcore import MAX_JSON_TRUNC, MAX_PROOF_STEP_U, in_interval, in_range, radius_sequence
from .salagean import OperatorParams
from .series import DEFAULT_TRUNC, AnalyticSeries, HarmonicFunction, _is_padding, _modulus


@dataclass(frozen=True)
class ClassParams:
    """Identifies the family: Salagean order m >= 0, level alpha in [0, 1),
    deformation q in (0, 1)."""

    m: int
    alpha: float
    q: QParam

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", in_range(self.m, 0, None, "m"))
        object.__setattr__(self, "alpha", in_interval(self.alpha, 0, 1, "alpha", open_high=True))

    def operator_params(self) -> OperatorParams:
        return OperatorParams(self.m, self.q)


@dataclass(frozen=True)
class GrowthBounds:
    """Two-sided bound on |f(z)| at |z| = r for members of the t_form
    subclass."""

    lower: float
    upper: float
    radius: float

    def __post_init__(self) -> None:
        if not self.lower <= self.upper:
            raise ValueError(f"lower bound {self.lower!r} exceeds upper bound {self.upper!r}")


def _functional_terms(f: HarmonicFunction, p: ClassParams) -> tuple[tuple[int, ...], list[float], tuple[float, ...]]:
    """(u - 1, [u]_q**m, |c_u|), each a sequence over the nonzero
    coefficients in the functional: h from power 2, then g.  The moduli
    are f's own, computed once; the weight table stops at the last such power."""
    exponents, moduli = f._functional_moduli()
    w = weights(max(exponents, default=0) + 1, p.q, p.m)
    return exponents, list(map(w.__getitem__, exponents)), moduli


def _fsum(terms: Iterable[float]) -> float:
    """math.fsum of non-negative terms; inf, not OverflowError, where a
    partial sum overflows a float."""
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def coeff_functional(f: HarmonicFunction, p: ClassParams) -> float:
    """The normalized coefficient sum; membership threshold is 1.  Kept on f
    as ``f._functional = (p, value)`` and returned while p equals the stored
    ClassParams; an overflowing sum raises DomainError and is never stored."""
    if (memo := f._functional) is not None and memo[0] == p:
        return memo[1]
    _, w, moduli = _functional_terms(f, p)
    total = _fsum(map(mul, map(truediv, w, repeat(1.0 - p.alpha)), moduli))
    object.__setattr__(f, "_functional", (p, in_interval(total, 0, math.inf, "the coefficient functional")))
    return total


def satisfies_sufficient(f: HarmonicFunction, p: ClassParams) -> bool:
    """Whether the coefficient functional is <= 1 + MEMBERSHIP_TOL.

    This decides the coefficient condition only.  It does not certify
    univalence or sense-preservation: the chain from it to those needs
    u (1 - alpha) <= [u]_q**m at every nonzero power (see
    proof_step_violations), and at (m, alpha, q) = (3, 0.25, 0.9) the
    +-signed co-analytic extreme point at u = 1334 has functional 1 yet
    |g'(r)| > |h'(r)| at r = 1 - 1e-7.  False is inconclusive for general
    f (the condition is not necessary outside the t_form normalization).
    """
    return coeff_functional(f, p) <= 1.0 + MEMBERSHIP_TOL


def member_t_iff(f: HarmonicFunction, p: ClassParams) -> bool:
    """Exact membership test for t_form functions: functional <= 1 + MEMBERSHIP_TOL.

    Raises DomainError for non-t_form input, where only the sufficient
    direction is available (use satisfies_sufficient).
    """
    if not f.t_form:
        raise DomainError("the iff criterion applies only to t_form functions")
    return satisfies_sufficient(f, p)


DEFAULT_PROBE_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 0.9999)


@dataclass(frozen=True)
class ProbeReport:
    """Trace of the positive-real-axis expression

        1 - sum_{u>=2} w_u |a_u| r**(u-1) - sum_{u>=1} w_u |b_u| r**(u-1) - alpha

    along an increasing radius sequence.  first_failure is the first
    sampled radius where the margin drops below -MEMBERSHIP_TOL (None if
    it never does); limit_margin is the value at r = 1, which has the sign
    of 1 - functional; passed is member_t_iff's decision.
    """

    entries: tuple[tuple[float, float], ...]
    first_failure: float | None
    limit_margin: float
    passed: bool
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check": "necessity_axis",
            "entries": [[r, m] for r, m in self.entries],
            "first_failure": self.first_failure,
            "limit_margin": self.limit_margin,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


def necessity_probe(
    f: HarmonicFunction,
    p: ClassParams,
    r_sequence: Sequence[float] | None = None,
) -> ProbeReport:
    """Evaluate the axis expression toward r -> 1 for a t_form function.

    For members the margin stays >= 0 for every r < 1; once the functional
    exceeds 1 it is eventually negative, perhaps only past the last sampled
    radius, so passed is member_t_iff's decision.
    """
    if not f.t_form:
        raise DomainError("the necessity probe applies only to t_form functions")
    rs = radius_sequence(DEFAULT_PROBE_RADII if r_sequence is None else r_sequence, "probe radii")

    exponents, w, moduli = _functional_terms(f, p)
    wm = list(map(mul, w, moduli))

    def margin(axis_sum: float) -> float:
        return 1.0 - in_interval(axis_sum, 0, math.inf, "the axis sum") - p.alpha

    entries = tuple((r, margin(_fsum(map(mul, wm, map(pow, repeat(r), exponents))))) for r in rs)
    first_failure = next((r for r, m in entries if m < -MEMBERSHIP_TOL), None)
    return ProbeReport(
        entries=entries,
        first_failure=first_failure,
        limit_margin=margin(_fsum(wm)),  # at r = 1 each power is 1.0, so each product is exact
        passed=satisfies_sufficient(f, p),
        tolerance=MEMBERSHIP_TOL,
    )


def proof_step_violations(p: ClassParams, *, max_u: int = DEFAULT_TRUNC) -> tuple[int, ...]:
    """Powers u in 2..max_u where u (1 - alpha) > [u]_q**m, for max_u in
    0..MAX_PROOF_STEP_U.

    Wherever this comparison fails, bounding u |c_u| by
    ([u]_q**m / (1 - alpha)) |c_u| is invalid, so the standard chain from
    the coefficient condition to univalence and sense-preservation does
    not go through pointwise; the sufficient condition itself is then an
    empirical matter, which verify.counterexample_scan probes.  Weights
    grow with u, so from the first power whose weight overflows a float on,
    each exceeds u (1 - alpha): the comparison stops below it.
    """
    max_u = in_range(max_u, 0, MAX_PROOF_STEP_U, "max_u")
    violations = []
    # [u]_q**m as weights builds it, from the table of [u]_q, which never overflows
    for u, q_int in enumerate(weights(max(max_u, 1), p.q, 1)[1:], 2):
        try:
            if u * (1.0 - p.alpha) > q_int**p.m:
                violations.append(u)
        except OverflowError:
            break
    return tuple(violations)


_UNPLACED = 0j  # fill of a slot no term reached; each computed coefficient is a new object


def _from_shares(p: ClassParams, trunc: int, terms: Sequence[tuple[str, int, float, complex]]) -> HarmonicFunction:
    """The function that every construction of the family builds, with
    series length max(trunc, highest u of the terms) <= MAX_JSON_TRUNC.

    A (kind, u, share, phase) term puts share * (1 - alpha) / [u]_q**m *
    phase, evaluated left to right, at power u of h ("analytic") or g
    ("coanalytic"), where it holds share * |phase| of the coefficient
    functional.  Later terms at a power are added to the first.  Analytic
    mass at power 1 stays on the identity, whose coefficient is exactly 1.
    Zero shares place nothing and do not size the weight table.  One pass
    over the terms finds the series length, the lowest u and the highest
    placed power of each part, before anything is refused or placed.
    """
    # Each part runs to its own highest placed power, so that its last value is
    # the one placed there; AnalyticSeries pads both to n.  The running extremes
    # compare as max and min do, keeping the first of equal terms.
    top, low, h_top, g_top = trunc, None, 1, 0
    for kind, u, share, _ in terms:
        top = u if u > top else top
        low = u if low is None or u < low else low
        if share != 0 and kind == "analytic" and u > h_top:
            h_top = u
        elif share != 0 and kind == "coanalytic" and u > g_top:
            g_top = u
    n = in_range(top, 1, MAX_JSON_TRUNC, "series length")
    in_range(1 if low is None else low, 1, None, "u")
    w = weights(max(h_top, g_top), p.q, p.m)
    one_minus = 1.0 - p.alpha
    h = [_UNPLACED] * h_top
    h[0] = 1.0
    g = [_UNPLACED] * g_top
    for kind, u, share, phase in terms:
        if kind not in ("analytic", "coanalytic"):
            raise DomainError(f"kind must be 'analytic' or 'coanalytic', got {kind!r}")
        if share == 0 or (u == 1 and kind == "analytic"):
            continue
        part = h if kind == "analytic" else g
        c = share * one_minus / w[u - 1] * phase
        old = part[u - 1]
        part[u - 1] = c if old is _UNPLACED else old + c
    return HarmonicFunction(AnalyticSeries(h, trunc=n), AnalyticSeries(g, trunc=n))


def _check_unit_sum(moduli: list[float], what: str) -> None:
    total = _fsum(moduli)
    if not abs(total - 1.0) <= MEMBERSHIP_TOL:
        raise DomainError(f"{what} must sum to 1 within {MEMBERSHIP_TOL}, got {total!r}")


def extreme_point(
    u: int,
    kind: str,
    p: ClassParams,
    *,
    coanalytic_sign: int = -1,
    trunc: int = DEFAULT_TRUNC,
) -> HarmonicFunction:
    """One-term boundary function of the closed convex hull.

    kind="analytic": z for u = 1, otherwise z - ((1-alpha)/[u]_q**m) z**u.
    kind="coanalytic": h = z plus a single co-analytic coefficient of
    magnitude (1-alpha)/[u]_q**m at power u.  The hull statement prints
    that coefficient with a minus sign, which conflicts with the sign
    normalization of the t_form subclass; coanalytic_sign selects the
    stored sign (-1 as printed, +1 for the t_form-compatible variant), so
    only the +1 variant is t_form.

    Every output except u = 1 analytic has coefficient functional exactly
    1 (to rounding); u = 1 analytic gives 0.
    """
    if coanalytic_sign not in (-1, 1):
        raise DomainError(f"coanalytic_sign must be -1 or +1, got {coanalytic_sign!r}")
    return _from_shares(p, trunc, [(kind, u, 1.0, -1.0 if kind == "analytic" else coanalytic_sign)])


def convex_combination(
    terms: Iterable[tuple[int, str, float]],
    p: ClassParams,
    *,
    trunc: int = DEFAULT_TRUNC,
) -> HarmonicFunction:
    """Weighted combination sum w_i * point_i of extreme points.

    ``terms`` are (u, kind, weight) triples.  Weights must be >= 0 and sum
    to 1 within 1e-12.  The co-analytic coefficients are stored with the
    t_form-compatible positive sign, so the result has functional equal to
    the weight mass placed off the identity and is t_form.
    """
    terms = list(terms)
    if not terms:
        raise DomainError("at least one extreme point is required")
    masses = [in_interval(w, 0, math.inf, "weight") for _, _, w in terms]
    _check_unit_sum(masses, "weights")
    # The identity coefficient is the weight total, which is 1 by contract;
    # it is stored as exactly 1 rather than the rounded float sum.
    shares = [(kind, u, w, -1.0 if kind == "analytic" else 1.0) for (u, kind, _), w in zip(terms, masses)]
    return _from_shares(p, trunc, shares)


def sharpness_witness(
    x: Sequence[complex],
    y: Sequence[complex],
    p: ClassParams,
    *,
    trunc: int = DEFAULT_TRUNC,
) -> HarmonicFunction:
    """Function attaining equality in the coefficient bound:

        f(z) = z + sum_{u>=2} ((1-alpha)/[u]_q**m) x_u z**u
                 + conj(sum_{u>=1} ((1-alpha)/[u]_q**m) y_u z**u)

    with x[i] the weight of power i+2, y[i] of power i+1, and
    sum |x_u| + sum |y_u| = 1 within 1e-12.  The result's coefficient
    functional is 1 to rounding, whatever the weight phases.  The series
    length is max(trunc, len(x) + 1, len(y)).  A +0+0j weight would place
    the padding's own +0+0j, so, like a zero share, it is left out and does
    not size the weight table: an overflowing [u]_q**m is refused only at a
    power whose weight is not +0+0j (a zero with a -0.0 part is placed).
    """
    xs = list(map(complex, x))
    ys = list(map(complex, y))
    terms = _weight_terms("analytic", 2, xs) + _weight_terms("coanalytic", 1, ys)
    _check_unit_sum([_modulus(v) for _, _, _, v in terms], "weight moduli")  # a +0+0j weight adds 0.0
    return _from_shares(p, max(trunc, len(xs) + 1, len(ys)), terms)


def _weight_terms(kind: str, start: int, vs: list[complex]) -> list[tuple[str, int, float, complex]]:
    """A (kind, u, 1.0, v) share term for each weight v at power u = start,
    start + 1, ..., except the weights that are +0+0j."""
    return [(kind, u, 1.0, v) for u, v in enumerate(vs, start) if not _is_padding(v)]


def _r2_coefficient(b1: float, p: ClassParams) -> float:
    """(1 - alpha - b1)/[2]_q**m, the r**2 coefficient of the growth bounds
    and witnesses; an excess of b1 over 1 - alpha counts as zero."""
    return max(1.0 - p.alpha - b1, 0.0) / weights(2, p.q, p.m)[1]


def growth_bounds(b1_mag: float, r: float, p: ClassParams) -> GrowthBounds:
    """Two-sided bound on |f| at |z| = r for t_form members with first
    co-analytic modulus b1_mag:

        upper = (1 + b1) r + (1 - alpha - b1) / [2]_q**m * r**2
        lower = (1 - b1) r - (1 - alpha - b1) / [2]_q**m * r**2

    Valid for b1_mag <= 1 - alpha (automatic for members).  The domain
    matches member_t_iff: b1_mag may exceed 1 - alpha by the relative
    MEMBERSHIP_TOL, and the excess then counts as zero in the r**2 term.
    Beyond that the bounds may invert and construction is refused.
    """
    b1 = in_interval(b1_mag, 0, 1, "b1 magnitude")
    r = in_interval(r, 0, 1, "radius", open_high=True)
    one_minus = 1.0 - p.alpha
    if b1 > one_minus * (1.0 + MEMBERSHIP_TOL):
        raise DomainError(
            f"bounds require |b_1| <= 1 - alpha = {one_minus!r}, got {b1!r}"
        )
    c = _r2_coefficient(b1, p)
    return GrowthBounds(
        lower=(1.0 - b1) * r - c * r * r,
        upper=(1.0 + b1) * r + c * r * r,
        radius=r,
    )


def _witness_terms(b1_mag: float, p: ClassParams, trunc: int) -> tuple[float, float, int]:
    """(b1, r**2 coefficient, series length) of a growth witness, which
    needs powers 1 and 2, so 2 <= trunc <= MAX_JSON_TRUNC."""
    b1 = in_interval(b1_mag, 0, 1.0 - p.alpha, "growth witness |b_1|")
    n = in_range(trunc, 2, MAX_JSON_TRUNC, "series length")
    return b1, _r2_coefficient(b1, p), n


def growth_witness_upper(b1_mag: float, p: ClassParams, *, trunc: int = DEFAULT_TRUNC) -> HarmonicFunction:
    """z + b1 conj(z) + ((1 - alpha - b1)/[2]_q**m) conj(z)**2; its modulus
    on the positive real axis equals the upper growth bound."""
    b1, c, n = _witness_terms(b1_mag, p, trunc)
    return HarmonicFunction(AnalyticSeries.identity(n), AnalyticSeries((b1, c), trunc=n))


def growth_witness_lower(b1_mag: float, p: ClassParams, *, trunc: int = DEFAULT_TRUNC) -> AnalyticSeries:
    """(1 - b1) z - ((1 - alpha - b1)/[2]_q**m) z**2; its modulus on the
    positive real axis equals the lower growth bound.

    Note the leading coefficient is 1 - b1, so this witness is not a
    normalized HarmonicFunction; it is returned as a plain series for
    pointwise evaluation.
    """
    b1, c, n = _witness_terms(b1_mag, p, trunc)
    return AnalyticSeries((1.0 - b1, -c), trunc=n)
