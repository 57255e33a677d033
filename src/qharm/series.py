"""Truncated complex power series and harmonic pairs on the unit disc.

An ``AnalyticSeries`` stores coefficients c_1..c_N (no constant term) of
s(z) = sum_u c_u z**u.  A ``HarmonicFunction`` is a pair (h, g) read as
f = h + conj(g), normalized so that h starts with coefficient exactly 1.
Derivative-like maps produce a ``PowerSeries``, which carries a constant
term (coefficients from z**0).

Series arithmetic is exact for the stored coefficient range and silently
truncates beyond the truncation degree.  A series stores two fields: its
length and ``stored``, the given values cut by the trim rule
(_stored_length: all but the run of highest-power +0+0j values, and at
least one).  ``coeffs`` is the public view, ``stored`` padded with +0+0j
to the length; every per-coefficient pass reads ``stored`` instead: the
evaluators, the JSON writer, the operators, and the t_form and functional
scans.  All types are immutable and all operations are pure,
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
from typing import Iterable

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
    """Storage and accessors shared by the two series types; stored[0] is the coefficient of z**_start."""

    stored: tuple[complex, ...]
    length: int
    _start = 1

    def __init__(self, coeffs: Iterable[complex], length: int | None):
        """Store ``coeffs`` as finite complex values, cut to ``length``
        (None: as given, but at least one) and then by the trim rule."""
        vals = list(map(complex, coeffs))
        if not all(map(cmath.isfinite, vals)):
            raise _not_finite(vals, self._start)
        n = max(len(vals), 1) if length is None else length
        del vals[n:]
        # O(1) when the last value is not zero, as for every series built at its exact length
        if not (vals and vals[-1]):
            del vals[_stored_length(vals) :]
        object.__setattr__(self, "stored", tuple(vals) or (0j,))
        object.__setattr__(self, "length", n)

    @property
    def coeffs(self) -> tuple[complex, ...]:
        """All ``length`` coefficients: ``stored``, padded with +0+0j."""
        return self.stored + (0j,) * (self.length - len(self.stored))

    def coeff(self, u: int) -> complex:
        """Coefficient of z**u for u >= _start; zero beyond the stored range."""
        i = in_range(u, self._start, None, "power index") - self._start
        return self.stored[i] if i < len(self.stored) else 0j

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self.coeffs)!r})"


@dataclass(frozen=True, init=False, repr=False)
class AnalyticSeries(_Series):
    """Coefficients c_1..c_N of a series with no constant term.

    ``coeffs`` is a tuple of complex values, index 0 holding the
    coefficient of z**1.  Shorter input is zero-padded to the truncation
    degree, which lies in 1..MAX_JSON_TRUNC; longer input is silently
    truncated.
    """

    def __init__(self, coeffs: Iterable[complex] = (), trunc: int = DEFAULT_TRUNC):
        super().__init__(coeffs, in_range(trunc, 1, MAX_JSON_TRUNC, "series length"))

    @property
    def trunc_degree(self) -> int:
        return self.length

    @classmethod
    def identity(cls, trunc: int = DEFAULT_TRUNC) -> "AnalyticSeries":
        """The series z."""
        return cls((1.0,), trunc=trunc)


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


def _is_padding(c: complex) -> bool:
    """Whether c is +0+0j, the padding.  A zero with a -0.0 part is data,
    since adding it can flip the sign of a zero."""
    return not c and math.copysign(1.0, c.real) + math.copysign(1.0, c.imag) == 2.0


def _stored_length(vals: list[complex] | tuple[complex, ...]) -> int:
    """The trim rule: how many leading values a series stores, all but the
    run of highest-power +0+0j ones, and at least one.  A pass over the
    stored values gives the same bits as over the padded whole: from the
    zero seed each padding Horner step gives exactly +0+0j again for finite
    z, the reader pads with +0+0j, and an operator maps +0+0j to +0+0j."""
    n = len(vals)
    while n > 1 and _is_padding(vals[n - 1]):
        n -= 1
    return max(n, 1)


def _t_structure(h: AnalyticSeries, g: AnalyticSeries) -> bool:
    # Exact and tolerance-free on finite coefficients: T-form functions are constructed, not measured.
    # The +0+0j padding passes every test, so the stored coefficients decide.
    tail, g = h.stored[1:], g.stored
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
            g = AnalyticSeries((), trunc=h.length)
        trunc = max(h.length, g.length)
        if h.length < trunc:
            h = AnalyticSeries(h.stored, trunc=trunc)
        if g.length < trunc:
            g = AnalyticSeries(g.stored, trunc=trunc)
        if h.stored[0] != 1:
            raise ValueError(f"h must be normalized with coefficient 1 at z, got {h.stored[0]!r}")
        in_interval(_modulus(g.stored[0]), 0, 1, "|b_1|")
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
            tail, g = self.h.stored[1:], self.g.stored
            exponents = (*compress(range(1, len(tail) + 1), tail), *compress(range(len(g)), g))
            coeffs = (*filter(None, tail), *filter(None, g))
            object.__setattr__(self, "_moduli", (exponents, tuple(map(_modulus, coeffs))))
        return self._moduli

    def __getstate__(self) -> dict:
        # the fields only, so setting a memo never changes a value's pickle
        return {k: v for k, v in self.__dict__.items() if k not in ("_moduli", "_functional")}


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
    for bit).  _horner evaluates the stored coefficients only.
    """
    return _horner(s.stored, z)


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
    return _horner_harmonic(f.h.stored, f.g.stored, z)


def _horner_harmonic(h: tuple[complex, ...], g: tuple[complex, ...], z):
    """h(z) + conj(g(z)) by _horner over every coefficient given (from z**1)."""
    return _horner(h, z) * z + (_horner(g, z) * z).conjugate()


def _aligned(s1: _Series, s2: _Series) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The stored coefficients of s1 and s2, the shorter padded with +0+0j
    to the longer; past them both series are padding."""
    k = max(len(s1.stored), len(s2.stored))
    return s1.stored + (0j,) * (k - len(s1.stored)), s2.stored + (0j,) * (k - len(s2.stored))


def hadamard(s1: AnalyticSeries, s2: AnalyticSeries) -> AnalyticSeries:
    """Coefficientwise (Hadamard) product; the shorter series is
    zero-padded to the longer truncation."""
    # past both stored ranges each product is (+0+0j)(+0+0j) = +0+0j, the padding
    return AnalyticSeries(tuple(starmap(operator.mul, zip(*_aligned(s1, s2)))), trunc=max(s1.length, s2.length))


def classical_derivative(s: AnalyticSeries) -> PowerSeries:
    """Ordinary derivative: u * c_u becomes the coefficient of z**(u-1)."""
    return PowerSeries._padded(tuple(map(operator.mul, range(1, s.length + 1), s.stored)), s.length)


# --- JSON wire format -------------------------------------------------------
#
# {"trunc": N, "h": [[re, im], ...], "g": [[re, im], ...]} with index 0 of
# each array holding the coefficient of z**1; h[0] must be [1, 0].  Each
# array may stop before trunc, and the reader pads it with +0+0j; the writer
# writes each part's stored coefficients, so a zero with a -0.0 part is
# written and every written series re-parses bitwise equal.
# A PowerSeries is written, not read, as {"start_power": 0, "coeffs": [...]}
# with index 0 holding the constant term and every coefficient written,
# padding included.


def _pairs(coeffs: tuple[complex, ...]) -> list[list[float]]:
    return [[c.real, c.imag] for c in coeffs]


def harmonic_to_json(f: HarmonicFunction) -> dict:
    return {"trunc": f.trunc_degree, "h": _pairs(f.h.stored), "g": _pairs(f.g.stored)}


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
