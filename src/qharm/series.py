"""Truncated complex power series and harmonic pairs on the unit disc.

An ``AnalyticSeries`` stores coefficients c_1..c_N (no constant term) of
s(z) = sum_u c_u z**u.  A ``HarmonicFunction`` is a pair (h, g) read as
f = h + conj(g), normalized so that h starts with coefficient exactly 1.
Derivative-like maps produce a ``PowerSeries``, which carries a constant
term (coefficients from z**0).

Series arithmetic is exact for the stored coefficient range and silently
truncates beyond the truncation degree.  A series is padded with +0+0j to
its length.  Its constructor records once, as ``_end``, where the stored
coefficients end (the trim rule, _stored_length: all but the run of
highest-power +0+0j values, and at least one), and every per-coefficient
pass stops there: the evaluators, the JSON writer, the operators, and the
t_form and functional scans.  ``_end`` is not a field, and unpickling and
copying rebuild it.  All types are immutable and all operations are pure,
so concurrent use and transfer between threads are unrestricted.  The
three types are frozen dataclasses without ``__slots__``: a frozen class
with hand-written slots cannot be unpickled or copied, since both restore
its state through the refused ``__setattr__``.
A ``HarmonicFunction`` keeps the moduli of its coefficient functional
once computed, and the functional for the last family asked (keyed on an
equal ClassParams); eq, hash, repr, pickle and copy ignore both.  Each is
stored by one attribute assignment of a finished value, so concurrent use
stays unrestricted: at worst two threads compute the same value twice.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, compress, starmap
from typing import Iterable, Mapping

from .qcore import MAX_JSON_TRUNC, in_interval, in_range

DEFAULT_TRUNC = 32
_real, _imag = operator.attrgetter("real"), operator.attrgetter("imag")


def _modulus(c: complex) -> float:
    """abs(c), or inf where the modulus overflows a float and abs raises."""
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _not_finite(vals: list[complex] | tuple[complex, ...], start: int) -> ValueError:
    """The error naming the first value that is not finite by its power
    (vals[0] is the coefficient of z**start); for the caller to raise."""
    u, c = next((u, c) for u, c in enumerate(vals, start=start) if not cmath.isfinite(c))
    return ValueError(f"coefficient at power {u} is not finite: {c!r}")


class SchemaError(ValueError):
    """A series JSON document violates the schema; ``field`` names the
    offending entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


@dataclass(frozen=True, init=False, repr=False)
class _Series:
    """Storage and accessors shared by the two series types; coeffs[0] is the coefficient of z**_start."""

    coeffs: tuple[complex, ...]
    _start = 1

    def __init__(self, coeffs: Iterable[complex], length: int | None):
        """Store ``coeffs`` as finite complex values, zero-padded and cut to
        ``length`` (None: as given, but at least one), and their ``_end``."""
        vals = list(map(complex, coeffs))
        if not all(map(cmath.isfinite, vals)):
            raise _not_finite(vals, self._start)
        n = max(len(vals), 1) if length is None else length
        del vals[n:]
        object.__setattr__(self, "coeffs", tuple(vals) + (0j,) * (n - len(vals)))
        # O(1) when the last value is not zero, as for every series built at its exact length
        object.__setattr__(self, "_end", len(vals) if vals and vals[-1] else _stored_length(vals))

    def __getstate__(self) -> dict:
        return {"coeffs": self.coeffs}

    def __setstate__(self, state: dict) -> None:
        object.__setattr__(self, "coeffs", state["coeffs"])
        object.__setattr__(self, "_end", _stored_length(self.coeffs))

    def coeff(self, u: int) -> complex:
        """Coefficient of z**u for u >= _start; zero beyond the stored range."""
        u = in_range(u, self._start, None, "power index")
        if u - self._start >= len(self.coeffs):
            return 0j
        return self.coeffs[u - self._start]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"


@dataclass(frozen=True, init=False, repr=False)
class AnalyticSeries(_Series):
    """Coefficients c_1..c_N of a series with no constant term.

    ``coeffs`` are stored as a tuple of complex values, index 0 holding the
    coefficient of z**1.  Shorter input is zero-padded to the truncation
    degree, which lies in 1..MAX_JSON_TRUNC; longer input is silently
    truncated.
    """

    def __init__(self, coeffs: Iterable[complex] = (), trunc: int = DEFAULT_TRUNC):
        super().__init__(coeffs, in_range(trunc, 1, MAX_JSON_TRUNC, "series length"))

    @property
    def trunc_degree(self) -> int:
        return len(self.coeffs)

    @classmethod
    def identity(cls, trunc: int = DEFAULT_TRUNC) -> "AnalyticSeries":
        """The series z."""
        return cls((1.0,), trunc=trunc)

    @classmethod
    def zero(cls, trunc: int = DEFAULT_TRUNC) -> "AnalyticSeries":
        return cls((), trunc=trunc)


@dataclass(frozen=True, init=False, repr=False)
class PowerSeries(_Series):
    """Coefficients from z**0 upward; the result type of derivative-like
    maps, which drop the degree by one and so acquire a constant term."""

    _start = 0

    def __init__(self, coeffs: Iterable[complex] = (0j,)):
        super().__init__(coeffs, None)

    @classmethod
    def _padded(cls, coeffs: Iterable[complex], n: int) -> "PowerSeries":
        """``coeffs`` zero-padded to n coefficients, for the operators."""
        s = cls.__new__(cls)
        _Series.__init__(s, coeffs, n)
        return s


def _stored_length(vals: list[complex] | tuple[complex, ...]) -> int:
    """The trim rule: how many leading values a series stores, all but the
    run of highest-power +0+0j ones, and at least one.  Each pass over a
    series stops there, with the same bits as over the whole: from the zero
    seed each skipped Horner step gives exactly +0+0j again for finite z,
    the reader pads with +0+0j, and an operator maps +0+0j to +0+0j.  A zero
    with a -0.0 part is kept, since adding it can flip the sign of a zero."""
    n = len(vals)
    while n > 1:
        c = vals[n - 1]
        if c or math.copysign(1.0, c.real) + math.copysign(1.0, c.imag) != 2.0:
            break
        n -= 1
    return max(n, 1)


def _t_structure(h: AnalyticSeries, g: AnalyticSeries) -> bool:
    # Exact and tolerance-free on finite coefficients: T-form functions are constructed, not measured.
    # The +0+0j padding passes every test, so the stored coefficients decide.
    tail, g = h.coeffs[1 : h._end], g.coeffs[: g._end]
    if any(map(_imag, tail)) or any(map(_imag, g)):
        return False
    return max(map(_real, tail), default=0.0) <= 0.0 and min(map(_real, g)) >= 0.0


@dataclass(frozen=True, init=False)
class HarmonicFunction:
    """Pair (h, g) representing f = h + conj(g) on the unit disc.

    Invariants enforced at construction: the h coefficient of z is exactly
    1, and the g coefficient of z has modulus at most 1 (modulus exactly 1
    sits on the closure boundary and is admitted so that the one-term
    boundary functions of the family are constructible).  ``t_form`` is
    read from the coefficients: True iff every h coefficient beyond the
    first is real and <= 0 and every g coefficient real and >= 0, the sign
    normalization under which the coefficient criterion is an equivalence
    rather than only a sufficient condition.  ``_moduli`` and ``_functional``
    are per-instance memos outside the fields (see the module docstring).
    """

    h: AnalyticSeries
    g: AnalyticSeries
    t_form: bool = field(init=False, compare=False)

    def __init__(self, h: AnalyticSeries, g: AnalyticSeries | None = None):
        if g is None:
            g = AnalyticSeries.zero(trunc=h.trunc_degree)
        trunc = max(h.trunc_degree, g.trunc_degree)
        if h.trunc_degree < trunc:
            h = AnalyticSeries(h.coeffs[: h._end], trunc=trunc)
        if g.trunc_degree < trunc:
            g = AnalyticSeries(g.coeffs[: g._end], trunc=trunc)
        if h.coeffs[0] != 1:
            raise ValueError(f"h must be normalized with coefficient 1 at z, got {h.coeffs[0]!r}")
        in_interval(_modulus(g.coeffs[0]), 0, 1, "|b_1|")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "t_form", _t_structure(h, g))

    @property
    def trunc_degree(self) -> int:
        return self.h.trunc_degree

    _moduli = None  # set once by _functional_moduli
    _functional = None  # (ClassParams, value) of the last classes.coeff_functional

    def _functional_moduli(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """(u - 1 for each power u, |c_u| for each) over the nonzero
        coefficients of the coefficient functional, h from power 2, then g.

        Computed on first use and kept as ``_moduli``, which eq, hash, repr,
        pickle and copy ignore.  It is set with object.__setattr__, not by a
        functools.cached_property, whose write to ``__dict__`` turns the
        instance's inline attribute values into a dict on CPython 3.11 and
        so slows every later read of ``f.h`` and ``f.g``."""
        if self._moduli is None:
            h, g = self.h, self.g
            tail, g = h.coeffs[1 : h._end], g.coeffs[: g._end]
            exponents = (*compress(range(1, len(tail) + 1), tail), *compress(range(len(g)), g))
            coeffs = (*filter(None, tail), *filter(None, g))
            object.__setattr__(self, "_moduli", (exponents, tuple(map(_modulus, coeffs))))
        return self._moduli

    def __getstate__(self) -> dict:
        # the fields only, so setting a memo never changes a value's pickle
        return {k: v for k, v in self.__dict__.items() if k not in ("_moduli", "_functional")}

    @classmethod
    def from_t_magnitudes(
        cls,
        a_mags: Mapping[int, float],
        b_mags: Mapping[int, float],
        trunc: int = DEFAULT_TRUNC,
    ) -> "HarmonicFunction":
        """Build h(z) = z - sum |a_u| z**u, g(z) = sum |b_u| z**u from
        magnitude maps (a keys are powers >= 2, b keys powers >= 1), padded
        to the larger of trunc and the highest key."""
        a = [(in_range(u, 2, None, "analytic power"), mag) for u, mag in a_mags.items()]
        b = [(in_range(u, 1, None, "co-analytic power"), mag) for u, mag in b_mags.items()]
        trunc = in_range(max([operator.index(trunc), *(u for u, _ in a + b)]), 1, MAX_JSON_TRUNC, "series length")
        # each part runs to its own highest key; AnalyticSeries pads both to trunc
        h = [0.0] * max([1, *(u for u, _ in a)])
        g = [0.0] * max([0, *(u for u, _ in b)])
        h[0] = 1.0
        for part, sign, terms in ((h, -1.0, a), (g, 1.0, b)):
            for u, mag in terms:
                part[u - 1] = sign * in_interval(mag, 0, math.inf, f"magnitude for power {u}")
        return cls(AnalyticSeries(h, trunc=trunc), AnalyticSeries(g, trunc=trunc))


def eval_analytic(s: AnalyticSeries, z):
    """Evaluate sum c_u z**u as z times the Horner value of its coefficients.

    Values with |z| > 1 are allowed; the series is simply evaluated as the
    polynomial it stores.
    """
    return eval_power(s, z) * z


def eval_power(s: PowerSeries | AnalyticSeries, z):
    """Evaluate sum c_u z**u (from u = 0) by Horner's scheme; s(z)/z for an AnalyticSeries.

    ``z`` is a complex number or a numpy array of them (the result is then
    an array of the same shape; numpy's complex multiply may round
    differently from Python's, so it need not equal the scalar values bit
    for bit).  _horner evaluates the stored coefficients, up to ``s._end``.
    """
    return _horner(s.coeffs[: s._end], z)


def _horner(coeffs: tuple[complex, ...], z):
    """Horner's scheme over every coefficient given (from z**0; the caller
    passes a series' stored coefficients).  From 2 points up it updates one
    new array in place, bitwise ``acc = acc * z + c`` there."""
    acc = 0j * z + coeffs[-1]  # a new object, never z itself
    rest = reversed(coeffs[:-1])
    if getattr(acc, "size", 1) > 1:  # an array of 2 or more points
        for c in rest:
            acc *= z
            acc += c
    else:
        for c in rest:
            acc = acc * z + c
    return acc


def eval_harmonic(f: HarmonicFunction, z):
    """f(z) = h(z) + conj(g(z)), for a complex z or a numpy array."""
    h, g = f.h, f.g
    return _horner_harmonic(h.coeffs[: h._end], g.coeffs[: g._end], z)


def _horner_harmonic(h: tuple[complex, ...], g: tuple[complex, ...], z):
    """h(z) + conj(g(z)) by _horner over every coefficient given (from z**1)."""
    return _horner(h, z) * z + (_horner(g, z) * z).conjugate()


def hadamard(s1: AnalyticSeries, s2: AnalyticSeries) -> AnalyticSeries:
    """Coefficientwise (Hadamard) product; the shorter series is
    zero-padded to the longer truncation."""
    n = max(s1.trunc_degree, s2.trunc_degree)
    # past both stored ranges each product is (+0+0j)(+0+0j) = +0+0j, the padding
    k = max(s1._end, s2._end)
    a, b = (s.coeffs[:k] + (0j,) * (k - s.trunc_degree) for s in (s1, s2))
    return AnalyticSeries(tuple(x * y for x, y in zip(a, b)), trunc=n)


def classical_derivative(s: AnalyticSeries) -> PowerSeries:
    """Ordinary derivative: u * c_u becomes the coefficient of z**(u-1)."""
    return PowerSeries._padded(tuple(map(operator.mul, range(1, s._end + 1), s.coeffs)), len(s.coeffs))


# --- JSON wire format -------------------------------------------------------
#
# {"trunc": N, "h": [[re, im], ...], "g": [[re, im], ...]} with index 0 of
# each array holding the coefficient of z**1; h[0] must be [1, 0].  Each
# array may stop before trunc, and the reader pads it with +0+0j; the writer
# writes each part's stored coefficients, up to its ``_end``, so a zero with
# a -0.0 part is written and every written series re-parses bitwise equal.
# A PowerSeries is written, not read, as {"start_power": 0, "coeffs": [...]}
# with index 0 holding the constant term and every coefficient written,
# padding included.


def _pairs(coeffs: tuple[complex, ...]) -> list[list[float]]:
    return [[c.real, c.imag] for c in coeffs]


def harmonic_to_json(f: HarmonicFunction) -> dict:
    h, g = f.h, f.g
    return {"trunc": f.trunc_degree, "h": _pairs(h.coeffs[: h._end]), "g": _pairs(g.coeffs[: g._end])}


def power_series_to_json(s: PowerSeries) -> dict:
    return {"start_power": 0, "coeffs": _pairs(s.coeffs)}


def _parse_pairs(obj: object, field: str, trunc: int) -> tuple[complex, ...]:
    if not isinstance(obj, list):
        raise SchemaError(field, f"expected a list of [re, im] pairs, got {type(obj).__name__}")
    if len(obj) > trunc:
        raise SchemaError(field, f"{len(obj)} coefficients exceed trunc = {trunc}")
    # Fast path: only [re, im] lists of exact ints and floats (no bool),
    # converted at C level.  Anything else, an int beyond the float range or
    # a value that is not finite falls through to the loop, which names the entry.
    if (
        set(map(type, obj)) <= {list}
        and set(map(len, obj)) <= {2}
        and set(map(type, chain.from_iterable(obj))) <= {int, float}
    ):
        try:
            out = tuple(starmap(complex, obj))
        except OverflowError:
            pass
        else:
            if all(map(cmath.isfinite, out)):
                return out
    out = []
    for i, entry in enumerate(obj):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaError(f"{field}[{i}]", "expected a [re, im] pair")
        re, im = entry
        if isinstance(re, bool) or isinstance(im, bool) or not isinstance(re, (int, float)) or not isinstance(im, (int, float)):
            raise SchemaError(f"{field}[{i}]", "re and im must be real numbers")
        try:
            out.append(complex(re, im))
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(f"{field}[{i}]", "re and im must fit in a float") from None
    if not all(map(cmath.isfinite, out)):
        i = next(i for i, c in enumerate(out) if not cmath.isfinite(c))
        raise SchemaError(f"{field}[{i}]", f"coefficient is not finite: {obj[i]!r}")
    return tuple(out)


def harmonic_from_json(obj: object) -> HarmonicFunction:
    """Parse the series JSON schema; raises SchemaError naming the
    offending field."""
    if not isinstance(obj, dict):
        raise SchemaError("$", f"expected a JSON object, got {type(obj).__name__}")
    for key in ("trunc", "h", "g"):
        if key not in obj:
            raise SchemaError(key, "missing required field")
    trunc = obj["trunc"]
    if isinstance(trunc, bool) or not isinstance(trunc, int) or not 1 <= trunc <= MAX_JSON_TRUNC:
        raise SchemaError("trunc", f"expected an integer in [1, {MAX_JSON_TRUNC}], got {trunc!r}")
    h_coeffs = _parse_pairs(obj["h"], "h", trunc)
    g_coeffs = _parse_pairs(obj["g"], "g", trunc)
    if not h_coeffs or h_coeffs[0] != 1:
        raise SchemaError("h[0]", "must be [1, 0] (normalization of the analytic part)")
    if g_coeffs and (b1 := _modulus(g_coeffs[0])) > 1.0:
        raise SchemaError("g[0]", f"|b_1| must not exceed 1, got modulus {b1!r}")
    return HarmonicFunction(AnalyticSeries(h_coeffs, trunc=trunc), AnalyticSeries(g_coeffs, trunc=trunc))
