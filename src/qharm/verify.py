"""Disc-sampled empirical verification of the membership condition,
sense-preservation, injectivity and growth conformance, plus a randomized
scan for gaps between the sufficient coefficient condition and the family
itself; the only module of the package that imports numpy.  It re-exports
the necessity probe and proof_step_violations, which classes defines.

Checks evaluate the stored polynomials exactly (to rounding) on a finite
grid, so they are desk-scale probes, not certificates.  Reports are
deterministic: grid points are enumerated in (radius, angle) order and
minima are reduced with first-occurrence tie-breaking, so identical
inputs (including seeds) give bitwise-identical reports.  The grid
checks take one absolute tolerance on their sampled margins
(DEFAULT_TOLERANCE unless the caller passes another).  Every margin
formula and the injectivity report get the values of a polynomial of f
(T, h', g' or f = h + conj(g) itself) from one evaluator, _grid_values,
which picks the method from that polynomial and the grid alone:
- A polynomial of degree d, counted over the stored coefficients of each
  part (T, h' and g' from z**0, h and g from z**1; a series stores no
  +0+0j padding past them, so no evaluation trims), is evaluated by
  Horner on those coefficients at the stored points asked for if
  d <= floor(log2 M), and otherwise by one FFT per ring at the exact
  ring angles of the whole grid, M being the ring transform length: K on
  the axis grid, 2K off it.  Per point Horner costs d steps and the FFT
  about log2 M.  The FFT's error stays within 4 log2(M) 2**-53 sum |c_u|
  r**u at radius r (against mpmath; Horner's is of the same order), so FFT
  margins differ from Horner's at the ulp level.
- A polynomial whose coefficients all have zero imaginary part (either
  sign of zero) takes the real transform: its rfft gives the angles
  j <= mirror(j) of each ring (DiskGrid), and each other angle takes the
  exact conjugate of the value at its mirror.  Any other takes ifft.
disc_checks runs the checks of ``qharm verify`` and its margin table with
each margin array computed once and f evaluated once per point set:
injectivity reads the growth check's grid values of f if there are some,
and otherwise asks _grid_values for f at both ends of its pairs.
The margin table is one map from column name to array in CSV order (re,
im, the margins): the reports read their columns by name, the header is
its names.  The CSV writer calls repr once per distinct magnitude of a
block of it (the bytes are those of a repr per cell, see _write_csv), and
holds one block of strings at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .qcore import DEFAULT_TOLERANCE, MAX_JSON_TRUNC, DomainError, in_interval, in_range, radius_sequence
from .classes import ClassParams, _from_shares, coeff_functional, growth_bounds, member_t_iff, proof_step_violations
from .classes import DEFAULT_PROBE_RADII, ProbeReport, necessity_probe  # noqa: F401 (re-exported)
from .salagean import OperatorParams, class_transform
from .series import DEFAULT_TRUNC, HarmonicFunction, PowerSeries, _horner, _horner_harmonic
from .series import classical_derivative

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
DEFAULT_ANGULAR_COUNT = 256

# Size limits, each checked before anything is allocated or looped over.
MAX_ANGULAR_COUNT = 2**16
MAX_GRID_POINTS = 2**20
MAX_PAIR_BUDGET = 2**20
MAX_TRIALS = 10**5

# An injectivity pair counts only if |z1 - z2| > MIN_PAIR_GAP * max(|z1|, |z2|).
# The rounding of f at |z| = r is at most about 2n * 2**-53 * sum |c_u| r**u by
# Horner, and log2(M) * 2**-53 * sum |c_u| r**u by the FFT, plus about
# |f'| * 2**-52 * r for the offset between the exact angle and the stored point;
# about 9e-13 of the sum at n = MAX_JSON_TRUNC, so it moves the ratio of such a
# pair by at most about 4e-6 when sum |c_u| <= 2 (as for members), instead of
# swamping the distance of points one ulp apart.  Half of 1e-6, so that rings
# 1e-6 of the larger apart keep every pair whatever the rounding of |z1 - z2|.
MIN_PAIR_GAP = 5e-7

# Rows of the margin table formatted per block by _write_csv: the default
# grid is one block, and the strings held at a time stay bounded.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DiskGrid:
    """Sampling specification: circles at the given radii with equispaced
    angles.  With include_positive_axis (a bool) the first angle on each
    circle is 0 (the point z = r exactly); otherwise angles are offset by
    half a step so the axis is avoided.  Each ring is built from its first
    octant by exact swaps and sign changes, so it is bitwise symmetric under
    conjugation, under half turns when angular_count is even and under
    quarter turns when it is a multiple of 4, and holds no -0.0.  Angle j
    is 2 pi j / K, or 2 pi (j + 1/2) / K off the axis, and its conjugate is
    angle mirror(j) = -j mod K on the axis grid and K - 1 - j off it.
    Points may coincide or lie arbitrarily close: the injectivity check
    resolves its pairs itself (MIN_PAIR_GAP)."""

    radii: tuple[float, ...] = DEFAULT_RADII
    angular_count: int = DEFAULT_ANGULAR_COUNT
    include_positive_axis: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.include_positive_axis, (bool, np.bool_)):
            raise DomainError(f"include_positive_axis must be a bool, got {self.include_positive_axis!r}")
        object.__setattr__(self, "include_positive_axis", bool(self.include_positive_axis))
        radii = radius_sequence(self.radii, "radii")
        k = in_range(self.angular_count, 4, MAX_ANGULAR_COUNT, "angular_count")
        in_range(len(radii) * k, 1, MAX_GRID_POINTS, "grid size")
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angular_count", k)

    @property
    def size(self) -> int:
        return len(self.radii) * self.angular_count

    def points(self) -> np.ndarray:
        """Grid points in lexicographic (radius index, angle index) order,
        read-only and shared by every grid with the same fields."""
        return _grid_points(self.radii, self.angular_count, self.include_positive_axis)


@functools.lru_cache(maxsize=8)
def _grid_points(radii: tuple[float, ...], k: int, include_positive_axis: bool) -> np.ndarray:
    """The points of DiskGrid.points, read-only."""
    # Angle j is n = 4j units of pi / (2k), or 4j + 2 off the axis: t units into
    # quadrant n // k.  Past t = k/2 the angle folds to k - t, where cos and sin
    # trade places, so one exp serves both; at t = k/2 both take its cosine.
    j = np.arange(k)
    quadrant, t = np.divmod(4 * j + (0 if include_positive_axis else 2), k)
    e = np.exp(1j * np.minimum(t, k - t) * (np.pi / (2 * k)))
    c = np.where(2 * t > k, e.imag, e.real)
    s = np.where(2 * t >= k, e.real, e.imag)
    # A quarter turn maps (x, y) to (-y, x): x runs through c, -s, -c, s and y
    # lags one step behind.  x + 1j * y is exact up to the sign of a zero, and
    # the + 0.0 after scaling stores every exact zero as +0.0.
    turns = np.stack([c, -s, -c, s])
    ring = turns[quadrant, j] + 1j * turns[quadrant - 1, j]
    z = (np.multiply.outer(radii, ring) + 0.0).ravel()
    z.flags.writeable = False
    return z


@functools.lru_cache(maxsize=8)
def _radius_powers(radii: tuple[float, ...], n: int) -> np.ndarray:
    """r**u for each radius r (rows) and u < n, read-only; n is at most M."""
    powers = np.power.outer(radii, np.arange(n))
    powers.flags.writeable = False
    return powers


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: the worst margin, where it occurred, and the
    verdict at the recorded tolerance.

    For all checks except injectivity, passed means min_margin >=
    -tolerance; injectivity demands strict clearance, min_margin >
    tolerance.  samples counts the margins: grid points, or the pairs used.
    """

    check_name: str
    min_margin: float
    argmin_point: complex
    passed: bool
    samples: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "min_margin": self.min_margin,
            "argmin": [self.argmin_point.real, self.argmin_point.imag],
            "passed": self.passed,
            "samples": self.samples,
            "tolerance": self.tolerance,
        }


# --- pointwise margins: each check is one of these plus _min_report -----------


def _grid_values(s: PowerSeries | HarmonicFunction, grid: DiskGrid, at: np.ndarray | None = None) -> np.ndarray:
    """s (T, h', g' or f = h + conj(g)) at every point of grid, or at the
    points grid.points()[at] for an index array at.  Each part is read
    from its stored coefficients, as in the module docstring.  Of degree d above
    floor(log2 M), by _ring_values on the whole grid, then gathered; else by
    Horner on the stored coefficients at those points only."""
    harmonic = isinstance(s, HarmonicFunction)
    parts = [c.stored for c in ((s.h, s.g) if harmonic else (s,))]
    # the most coefficients of a part that Horner takes: cut + 1 from z**0, cut from z**1
    most = (grid.angular_count * (1 if grid.include_positive_axis else 2)).bit_length() - harmonic
    if max(map(len, parts)) > most:
        if harmonic:  # f = h + conj(g) is one sum, with conj(b_u) at exponent -u
            h, g = parts
            values = _ring_values([*(b.conjugate() for b in reversed(g)), 0j, *h], -len(g), grid)
        else:
            values = _ring_values(parts[0], 0, grid)
        return values if at is None else values[at]
    z = grid.points() if at is None else grid.points()[at]
    return _horner_harmonic(*parts, z) if harmonic else _horner(parts[0], z)


def _ring_values(coeffs: list[complex], low: int, grid: DiskGrid) -> np.ndarray:
    """sum_k coeffs[k] z**e at the exact angle of every point of grid, e =
    low + k and a negative e standing for conj(z)**-e.  On a ring of radius r
    the values at M equispaced angles are one length-M DFT of the scaled
    coefficients coeffs[k] r**|e|, placed at e mod M, so they fold when the
    exponents span more than M; angle j is index b(j) = (M / K) (j + 1) - 1,
    so off the axis the grid's angles are the odd indices.  Coefficients
    whose imaginary parts are all zero take conj(rfft), whose indices
    0..M // 2 hold the angles j <= mirror(j); each other angle j reads rfft
    at M - b(j) = b(mirror(j)) unconjugated, the exact conjugate of the value
    at mirror(j).  Any others take ifft(norm="forward"), which overwrites its
    input.  The rings
    are transformed together, one polynomial at a time; no array is larger
    than rings x M."""
    m = grid.angular_count * (1 if grid.include_positive_axis else 2)
    c = np.array(coeffs, dtype=complex)
    real = not c.imag.any()
    if real:
        c = c.real
    # r**u for u below a power of two, so that few tables serve every degree
    powers = _radius_powers(grid.radii, min(1 << max(-low, low + c.size - 1).bit_length(), m))
    x = np.zeros((len(grid.radii), m), c.dtype)
    k = 0
    while k < c.size:
        # a run of exponents whose places e mod M do not wrap; since e = 0 lands
        # at place 0, each run has one sign, so its |e| run from s to s + n - 1
        e, i = low + k, (low + k) % m
        n = min(m - i, c.size - k)
        s = e if e >= 0 else -(e + n - 1)
        if s + n <= powers.shape[1]:
            scale = powers[:, s : s + n]
        else:  # r**(s + t) = r**s r**t
            scale = powers[:, :n] * np.power(grid.radii, s)[:, None]
        x[:, i : i + n] += c[k : k + n] * (scale if e >= 0 else scale[:, ::-1])
        k += n
    step = m // grid.angular_count
    if not real:
        return np.fft.ifft(x, norm="forward", out=x)[:, step - 1 :: step].ravel()
    x = np.fft.rfft(x)
    upper = x[:, step - 1 :: step]  # the angles j <= mirror(j), the first h
    h = upper.shape[1]
    values = np.empty((len(grid.radii), grid.angular_count), complex)
    np.conjugate(upper, out=values[:, :h])
    values[:, h:] = x[:, m - step * (h + 1) + 1 : 0 : -step]  # M - b(j) for j >= h, down to 1
    return values.ravel()


def _re_condition_margins(f: HarmonicFunction, op: OperatorParams, alpha: float, grid: DiskGrid) -> np.ndarray:
    return _grid_values(class_transform(f, op), grid).real - alpha


def _sense_preserving_margins(f: HarmonicFunction, grid: DiskGrid) -> np.ndarray:
    hp, gp = classical_derivative(f.h), classical_derivative(f.g)
    return np.abs(_grid_values(hp, grid)) - np.abs(_grid_values(gp, grid))


def _growth_margins(f: HarmonicFunction, p: ClassParams, grid: DiskGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|f| - lower(r), upper(r) - |f| (bounds once per radius, broadcast
    over each ring) and f on the grid."""
    b1 = abs(f.g.stored[0])
    bounds = [growth_bounds(b1, r, p) for r in grid.radii]
    lowers, uppers = np.array([(b.lower, b.upper) for b in bounds]).T[..., None]
    fz = _grid_values(f, grid)
    mod = np.abs(fz).reshape(len(bounds), -1)
    return (mod - lowers).ravel(), (uppers - mod).ravel(), fz


def _tolerance(tolerance: float) -> float:
    """The absolute tolerance of the grid checks, checked."""
    return in_interval(tolerance, 0, math.inf, "tolerance")


def _pair_draw(pair_budget: int, seed: int) -> tuple[int, int]:
    """The pair budget and seed of an injectivity draw, checked."""
    return in_range(pair_budget, 1, MAX_PAIR_BUDGET, "pair_budget"), in_range(seed, 0, None, "seed")


def _worst(name: str, margins: np.ndarray) -> tuple[int, float]:
    """The index and value of the first smallest margin (the lexicographic
    tie-break); DomainError if that value is not finite."""
    i = int(margins.argmin())
    worst = float(margins[i])
    if not math.isfinite(worst):  # argmin finds a NaN first
        raise DomainError(f"the worst {name} margin is not finite, got {worst!r}")
    return i, worst


def _min_report(
    name: str,
    margins: np.ndarray,
    where: np.ndarray,
    tolerance: float,
    *,
    strict: bool = False,
) -> VerificationReport:
    """The report of a check from its margins at the points where, at a
    tolerance its caller has checked."""
    i, worst = _worst(name, margins)
    passed = worst > tolerance if strict else worst >= -tolerance
    return VerificationReport(name, worst, complex(where[i]), passed, int(margins.size), tolerance)


def re_condition_margin(
    f: HarmonicFunction,
    p: ClassParams,
    grid: DiskGrid,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Margin of the defining condition: Re{transform(z)} - alpha at each
    grid point."""
    margins = _re_condition_margins(f, p.operator_params(), p.alpha, grid)
    return _min_report("re_condition", margins, grid.points(), _tolerance(tolerance))


def sense_preserving_margin(
    f: HarmonicFunction,
    grid: DiskGrid,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """|h'(z)| - |g'(z)| at each grid point (ordinary derivatives)."""
    return _min_report("sense_preserving", _sense_preserving_margins(f, grid), grid.points(), _tolerance(tolerance))


def injectivity_sample_check(
    f: HarmonicFunction,
    grid: DiskGrid,
    pair_budget: int,
    *,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Sampled separation probe: min over drawn point pairs of
    |f(z1) - f(z2)| / |z1 - z2|.  Pairs are drawn by a seeded generator,
    so the report is a pure function of (f, grid, pair_budget, seed).
    Passes only with margin strictly above the tolerance.  argmin_point
    records the first point of the worst pair.  A pair is used only if
    |z1 - z2| > MIN_PAIR_GAP * max(|z1|, |z2|), and samples counts the pairs
    used; if none is, DomainError.
    """
    return _injectivity_report(f, grid, *_pair_draw(pair_budget, seed), _tolerance(tolerance))


def _injectivity_report(
    f: HarmonicFunction, grid: DiskGrid, pair_budget: int, seed: int, tolerance: float, fz: np.ndarray | None = None
) -> VerificationReport:
    """Injectivity report on the grid, from a pair budget, seed and tolerance
    its caller has checked.  The pair ends read fz, f on the grid, if given,
    else _grid_values of f at both ends of the pairs used, which are its
    grid values there bit for bit."""
    z = grid.points()
    n = z.size
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=pair_budget)
    j = rng.integers(0, n, size=pair_budget)
    j = np.where(i == j, (j + 1) % n, j)
    zi, zj = z[i], z[j]
    dist = np.abs(zi - zj)
    kept = dist > MIN_PAIR_GAP * np.maximum(np.abs(zi), np.abs(zj))
    if not kept.all():
        if not kept.any():
            raise DomainError(f"no drawn pair of grid points is more than {MIN_PAIR_GAP!r} of the larger modulus apart")
        i, j, zi, dist = i[kept], j[kept], zi[kept], dist[kept]
    ij = np.concatenate([i, j])
    fi, fj = (_grid_values(f, grid, ij) if fz is None else fz[ij]).reshape(2, -1)
    return _min_report("injectivity", np.abs(fi - fj) / dist, zi, tolerance, strict=True)


def growth_bound_check(
    f: HarmonicFunction,
    p: ClassParams,
    grid: DiskGrid,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Checks lower(r) - tolerance <= |f(z)| <= upper(r) + tolerance on
    the grid.  The pointwise margin is the smaller of the two one-sided
    margins.  Requires a t_form member (the bounds are proved for that
    subclass); raises DomainError otherwise.
    """
    if not member_t_iff(f, p):
        raise DomainError("growth bounds hold for t_form members; the functional exceeds 1")
    return _growth_report(*_growth_margins(f, p, grid)[:2], grid.points(), _tolerance(tolerance))


def _growth_report(lower_m: np.ndarray, upper_m: np.ndarray, z: np.ndarray, tolerance: float) -> VerificationReport:
    return _min_report("growth_bounds", np.minimum(upper_m, lower_m), z, tolerance)


# --- randomized generators and the counterexample scan ----------------------


def random_t_form(
    p: ClassParams,
    target_functional: float,
    rng: np.random.Generator,
    *,
    trunc: int = DEFAULT_TRUNC,
) -> HarmonicFunction:
    """Random t_form function whose coefficient functional equals
    target_functional exactly (to rounding).

    Functional shares are drawn Dirichlet-style: jittered raw weights with
    a 0.25**u envelope over the slots (analytic powers 2..trunc,
    co-analytic 1..trunc), normalized so the shares sum to the target.
    The envelope underflows, so no power much above 530 gets a
    coefficient, whatever the trunc (at most MAX_JSON_TRUNC).
    Coefficient magnitudes follow as share * (1 - alpha) / w_u, so summing
    the functional telescopes back to the share total.  The first
    co-analytic magnitude is capped at 0.95 (excess share moves to the
    power-2 co-analytic slot), keeping construction inside |b_1| <= 1; at
    trunc 1 there is no such slot, and a target needing one is refused.
    The jitter is one rng.random(len(slots)) call, the same as a draw per slot.
    """
    target = in_interval(target_functional, 0, math.inf, "target functional")
    trunc = in_range(trunc, 1, MAX_JSON_TRUNC, "trunc")
    slots = [("analytic", u) for u in range(2, trunc + 1)] + [("coanalytic", u) for u in range(1, trunc + 1)]
    jitter = rng.random(len(slots)).tolist()
    raws = np.array([(0.5 + r) * 0.25**u for r, (_, u) in zip(jitter, slots)])
    shares = raws / raws.sum() * target

    b1_index = len(slots) - trunc  # first co-analytic slot, power 1
    b1_limit = 0.95 / (1.0 - p.alpha)
    if shares[b1_index] > b1_limit:
        if trunc == 1:
            raise DomainError(f"target functional {target!r} needs |b_1| > 0.95 at trunc 1")
        excess = shares[b1_index] - b1_limit
        shares[b1_index] = b1_limit
        shares[b1_index + 1] += excess  # power-2 co-analytic slot

    terms = [(kind, u, share, -1.0 if kind == "analytic" else 1.0) for (kind, u), share in zip(slots, shares.tolist())]
    return _from_shares(p, trunc, terms)


def _random_gap_candidate(p: ClassParams, rng: np.random.Generator) -> HarmonicFunction:
    """Random function with complex-phased coefficients whose shares sum to a
    target in [1.001, 1.401); each phase is complex(cos 2 pi r1, sin 2 pi r2)
    from two draws, so |phase| is in [0, sqrt(2)] and the functional may be
    <= 1 (the scan skips those).  The first co-analytic slot is excluded so |b_1| stays 0.
    The uniforms are one rng.random(22) call, read as scalar draws would be (2,
    then 5 per slot for up to 4 slots); the scan draws nothing more from rng."""
    draws = iter(rng.random(22).tolist())
    target = 1.001 + 0.4 * next(draws)
    nslots = 2 + int(next(draws) * 3)
    slots = [("analytic" if next(draws) < 0.5 else "coanalytic", 2 + int(next(draws) * 6)) for _ in range(nslots)]
    raws = [0.2 + next(draws) for _ in slots]
    total = sum(raws)  # in order, as numpy sums fewer than 8 elements
    terms = []
    for (kind, u), r in zip(slots, raws):
        phase = complex(math.cos(2.0 * math.pi * next(draws)), math.sin(2.0 * math.pi * next(draws)))
        terms.append((kind, u, r / total * target, phase))
    return _from_shares(p, 1, terms)  # as long as its highest power


@dataclass(frozen=True)
class GapExample:
    """A sampled function that violates the coefficient condition yet
    passes every empirical check on the grid."""

    trial: int
    functional: float
    re_condition_margin: float
    sense_preserving_margin: float
    injectivity_margin: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScanReport:
    trials: int
    seed: int
    step_violations: tuple[int, ...]
    gap_examples: tuple[GapExample, ...]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "step_violations": list(self.step_violations),
            "gap_examples": [g.to_dict() for g in self.gap_examples],
        }


def counterexample_scan(
    p: ClassParams,
    trials: int,
    seed: int,
    *,
    pair_budget: int = 64,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ScanReport:
    """Randomized probe of the gap between the sufficient coefficient
    condition and the family, plus the validity map of the
    u (1 - alpha) <= [u]_q**m comparison.

    Each trial draws a violator of the coefficient condition and runs the
    three empirical checks in the order Re-condition, sense-preserving,
    injectivity, stopping at the first that fails; trials passing all of
    them are flagged as gap evidence (the sufficient condition is not
    necessary there, at least at the resolution of the default DiskGrid),
    so margins are reported only for flagged trials.  Deterministic for a
    given seed: trial t uses the generator seeded with (seed, t) and its
    injectivity pairs the generator seeded with t, so a skipped check
    changes no later draw.

    The verdicts and margins are those of the single checks, which each
    trial does not call: the arguments, the grid and the operator
    parameters are checked or built once per call, the Re and sense checks
    are decided from their margin arrays, and only an injectivity check
    that runs builds a report.
    """
    trials = in_range(trials, 1, MAX_TRIALS, "trials")
    pair_budget, seed = _pair_draw(pair_budget, seed)
    tolerance = _tolerance(tolerance)
    grid = DiskGrid()
    op = p.operator_params()
    flagged = []
    for trial in range(trials):
        f = _random_gap_candidate(p, np.random.default_rng([seed, trial]))
        functional = coeff_functional(f, p)
        if functional <= 1.0:
            continue
        # a worst margin below -tolerance fails, as in _min_report
        _, re_worst = _worst("re_condition", _re_condition_margins(f, op, p.alpha, grid))
        if re_worst < -tolerance:
            continue
        _, sp_worst = _worst("sense_preserving", _sense_preserving_margins(f, grid))
        if sp_worst < -tolerance:
            continue
        inj = _injectivity_report(f, grid, pair_budget, trial, tolerance)
        if inj.passed:
            flagged.append(GapExample(trial, functional, re_worst, sp_worst, inj.min_margin))
    return ScanReport(trials, seed, proof_step_violations(p), tuple(flagged))


# --- margin tables and CSV dumps ---------------------------------------------


def margin_rows(
    f: HarmonicFunction,
    p: ClassParams,
    grid: DiskGrid,
) -> tuple[list[str], list[list[float]]]:
    """Per-point margin table: one row per grid point, a list of floats
    (re, im, then the pointwise margins of the active checks).  Growth
    margins are included when f is a t_form member (both one-sided
    margins, lower then upper).  The CSV writer reads the same table as
    an array, without building these lists."""
    columns, _ = _margin_columns(f, p, grid)
    return list(columns), np.column_stack([*columns.values()]).tolist()


def _margin_columns(
    f: HarmonicFunction, p: ClassParams, grid: DiskGrid
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """The columns of margin_rows by name, in table order, and f on the grid
    if the growth margins evaluated it (else None)."""
    z = grid.points()
    columns = {
        "re": np.real(z),
        "im": np.imag(z),
        "re_condition_margin": _re_condition_margins(f, p.operator_params(), p.alpha, grid),
        "sense_preserving_margin": _sense_preserving_margins(f, grid),
    }
    if not (f.t_form and member_t_iff(f, p)):
        return columns, None
    columns["growth_lower_margin"], columns["growth_upper_margin"], fz = _growth_margins(f, p, grid)
    return columns, fz


def write_margin_csv(stream, f: HarmonicFunction, p: ClassParams, grid: DiskGrid) -> None:
    """CSV dump of margin_rows: plain decimal floats, comma separated."""
    _write_csv(stream, _margin_columns(f, p, grid)[0])


def _write_csv(stream, columns: dict[str, np.ndarray]) -> None:
    """Write the column names, then each row of the stacked columns as the
    reprs of its floats, one write per block of rows.  A block calls repr once
    per distinct magnitude, keyed on the bits of its absolute values."""
    stream.write(",".join(columns) + "\n")
    table = np.column_stack([*columns.values()])
    width = table.shape[1]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        block = table[start : start + _CSV_BLOCK_ROWS]
        magnitudes, inverse = np.unique(np.abs(block).view(np.uint64), return_inverse=True)
        cells = np.array(list(map(repr, magnitudes.view(np.float64).tolist())), object)[inverse.reshape(block.shape)]
        # repr(-x) is "-" + repr(x) for every float x but a NaN, which prints nan whatever its sign
        negative = np.signbit(block) & ~np.isnan(block)
        cells[negative] = "-" + cells[negative]
        rows = zip(*[iter(cells.ravel().tolist())] * width)
        stream.write("\n".join(map(",".join, rows)) + "\n")


# --- the verify run ------------------------------------------------------------


def disc_checks(
    f: HarmonicFunction,
    p: ClassParams,
    grid: DiskGrid,
    pair_budget: int,
    *,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    csv=None,
) -> list[VerificationReport]:
    """The reports of ``qharm verify``: Re-condition, sense-preserving,
    injectivity and, for a t_form member, growth, equal to those of the
    single checks.  Each margin array is computed once and read by the
    reports and the margin table; injectivity reads f from the growth
    margins when there are some.  csv, if given, is called after the
    checks and returns a context manager yielding the stream for the
    write_margin_csv table, so a run whose checks raise opens nothing,
    and a margin that is not finite raises without numpy's warnings."""
    z = grid.points()
    with np.errstate(all="ignore"):
        columns, fz = _margin_columns(f, p, grid)
        tolerance = _tolerance(tolerance)
        pair_budget, seed = _pair_draw(pair_budget, seed)
        reports = [
            _min_report("re_condition", columns["re_condition_margin"], z, tolerance),
            _min_report("sense_preserving", columns["sense_preserving_margin"], z, tolerance),
            _injectivity_report(f, grid, pair_budget, seed, tolerance, fz),
        ]
        if fz is not None:
            reports.append(_growth_report(columns["growth_lower_margin"], columns["growth_upper_margin"], z, tolerance))
    if csv is not None:
        with csv() as stream:
            _write_csv(stream, columns)
    return reports
