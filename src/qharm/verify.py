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
(DEFAULT_TOLERANCE unless the caller passes another).  disc_checks runs
the checks of ``qharm verify`` and its margin table with each margin array
computed once and f evaluated once per point set: injectivity reads the
growth check's grid values, or evaluates both pair ends in one pass.
The CSV writer formats each distinct float of a block of the margin table
once (repr depends only on a float's bits, so the bytes are those of a
repr per cell), and holds one block of strings at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .qcore import DEFAULT_TOLERANCE, MAX_JSON_TRUNC, DomainError, in_range, radius_sequence
from .classes import ClassParams, _from_shares, coeff_functional, growth_bounds, member_t_iff, proof_step_violations
from .classes import DEFAULT_PROBE_RADII, ProbeReport, necessity_probe  # noqa: F401 (re-exported)
from .salagean import class_transform
from .series import DEFAULT_TRUNC, HarmonicFunction, classical_derivative, eval_harmonic, eval_power

DEFAULT_RADII = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999)
DEFAULT_ANGULAR_COUNT = 256

# Size limits, each checked before anything is allocated or looped over.
MAX_ANGULAR_COUNT = 2**16
MAX_GRID_POINTS = 2**20
MAX_PAIR_BUDGET = 2**20
MAX_TRIALS = 10**5

# Rows of the margin table formatted per block by _write_csv: the default
# grid is one block, and the strings held at a time stay bounded.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DiskGrid:
    """Sampling specification: circles at the given radii with equispaced
    angles.  With include_positive_axis the first angle on each circle is
    0 (the point z = r exactly); otherwise angles are offset by half a
    step so the axis is avoided."""

    radii: tuple[float, ...] = DEFAULT_RADII
    angular_count: int = DEFAULT_ANGULAR_COUNT
    include_positive_axis: bool = True

    def __post_init__(self) -> None:
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
    offset = 0.0 if include_positive_axis else 0.5
    theta = 2.0 * np.pi * (np.arange(k) + offset) / k
    ring = np.exp(1j * theta)
    z = np.concatenate([r * ring for r in radii])
    z.flags.writeable = False
    return z


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check: the worst margin, where it occurred, and the
    verdict at the recorded tolerance.

    For all checks except injectivity, passed means min_margin >=
    -tolerance; injectivity demands strict clearance, min_margin >
    tolerance.
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


def _re_condition_margins(f: HarmonicFunction, p: ClassParams, z: np.ndarray) -> np.ndarray:
    t = class_transform(f, p.operator_params())
    return np.real(eval_power(t, z)) - p.alpha


def _sense_preserving_margins(f: HarmonicFunction, z: np.ndarray) -> np.ndarray:
    return np.abs(eval_power(classical_derivative(f.h), z)) - np.abs(eval_power(classical_derivative(f.g), z))


def _growth_margins(f: HarmonicFunction, p: ClassParams, grid: DiskGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """|f| - lower(r), upper(r) - |f| (bounds once per radius) and f on the grid."""
    b1 = f.g.coeffs[0].real
    bounds = [growth_bounds(b1, r, p) for r in grid.radii]
    k = grid.angular_count
    lowers = np.repeat([b.lower for b in bounds], k)
    uppers = np.repeat([b.upper for b in bounds], k)
    fz = eval_harmonic(f, grid.points())
    mod = np.abs(fz)
    return mod - lowers, uppers - mod, fz


def _min_report(
    name: str,
    margins: np.ndarray,
    where: np.ndarray,
    tolerance: float,
    *,
    strict: bool = False,
) -> VerificationReport:
    i = int(np.argmin(margins))  # first minimum = lexicographic tie-break
    worst = float(margins[i])
    passed = worst > tolerance if strict else worst >= -tolerance
    return VerificationReport(name, worst, complex(where[i]), passed, int(margins.size), float(tolerance))


def re_condition_margin(
    f: HarmonicFunction,
    p: ClassParams,
    grid: DiskGrid,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Margin of the defining condition: Re{transform(z)} - alpha at each
    grid point."""
    z = grid.points()
    return _min_report("re_condition", _re_condition_margins(f, p, z), z, tolerance)


def sense_preserving_margin(
    f: HarmonicFunction,
    grid: DiskGrid,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """|h'(z)| - |g'(z)| at each grid point (ordinary derivatives)."""
    z = grid.points()
    return _min_report("sense_preserving", _sense_preserving_margins(f, z), z, tolerance)


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
    records the first point of the worst pair.
    """
    return _injectivity_report(f, grid.points(), pair_budget, seed, tolerance)


def _injectivity_report(
    f: HarmonicFunction, z: np.ndarray, pair_budget: int, seed: int, tolerance: float, fz: np.ndarray | None = None
) -> VerificationReport:
    """Injectivity report on the points z.  fz is f on all of z, or None: then f is
    evaluated once on both ends of all pairs, giving the same bits element by element."""
    pair_budget = in_range(pair_budget, 1, MAX_PAIR_BUDGET, "pair_budget")
    n = z.size
    rng = np.random.default_rng(in_range(seed, 0, None, "seed"))
    i = rng.integers(0, n, size=pair_budget)
    j = rng.integers(0, n, size=pair_budget)
    j = np.where(i == j, (j + 1) % n, j)
    if fz is None:
        fi, fj = eval_harmonic(f, z[np.concatenate([i, j])]).reshape(2, -1)
    else:
        fi, fj = fz[i], fz[j]
    zi = z[i]
    ratios = np.abs(fi - fj) / np.abs(zi - z[j])
    return _min_report("injectivity", ratios, zi, tolerance, strict=True)


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
    return _growth_report(_growth_margins(f, p, grid)[:2], grid.points(), tolerance)


def _growth_report(margins: tuple[np.ndarray, np.ndarray], z: np.ndarray, tolerance: float) -> VerificationReport:
    lower_m, upper_m = margins
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
    target = float(target_functional)
    if not (target >= 0.0 and math.isfinite(target)):
        raise DomainError(f"target functional must be finite and >= 0, got {target_functional!r}")
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
    return _from_shares(p, max(u for _, u in slots), terms)


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
    """
    trials = in_range(trials, 1, MAX_TRIALS, "trials")
    pair_budget = in_range(pair_budget, 1, MAX_PAIR_BUDGET, "pair_budget")
    seed = in_range(seed, 0, None, "seed")
    grid = DiskGrid()
    flagged = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        f = _random_gap_candidate(p, rng)
        functional = coeff_functional(f, p)
        if functional <= 1.0:
            continue
        re_rep = re_condition_margin(f, p, grid, tolerance=tolerance)
        if not re_rep.passed:
            continue
        sp_rep = sense_preserving_margin(f, grid, tolerance=tolerance)
        if not sp_rep.passed:
            continue
        inj_rep = injectivity_sample_check(f, grid, pair_budget, seed=trial, tolerance=tolerance)
        if inj_rep.passed:
            flagged.append(GapExample(trial, functional, re_rep.min_margin, sp_rep.min_margin, inj_rep.min_margin))
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
    header, table = _table(grid, *_margin_columns(f, p, grid)[:2])
    return header, table.tolist()


def _margin_columns(
    f: HarmonicFunction, p: ClassParams, grid: DiskGrid
) -> tuple[list[str], list[np.ndarray], np.ndarray | None]:
    """Names and arrays of the margin columns of margin_rows (all but re,
    im), and f on the grid if the growth margins evaluated it (else None)."""
    z = grid.points()
    header = ["re_condition_margin", "sense_preserving_margin"]
    columns = [_re_condition_margins(f, p, z), _sense_preserving_margins(f, z)]
    if not (f.t_form and member_t_iff(f, p)):
        return header, columns, None
    lower_m, upper_m, fz = _growth_margins(f, p, grid)
    return [*header, "growth_lower_margin", "growth_upper_margin"], [*columns, lower_m, upper_m], fz


def _table(grid: DiskGrid, header: list[str], columns: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The margin table as a C-contiguous float64 array, one row per grid
    point (re, im, then the columns), with its header."""
    z = grid.points()
    return ["re", "im", *header], np.column_stack([np.real(z), np.imag(z), *columns])


def write_margin_csv(stream, f: HarmonicFunction, p: ClassParams, grid: DiskGrid) -> None:
    """CSV dump of margin_rows: plain decimal floats, comma separated."""
    _write_csv(stream, *_table(grid, *_margin_columns(f, p, grid)[:2]))


def _write_csv(stream, header: list[str], table: np.ndarray) -> None:
    """Write the header, then each row of table as the reprs of its floats.
    Each block of rows formats each distinct bit pattern once: keyed on
    bits, not on float equality, 0.0 and -0.0 stay apart."""
    stream.write(",".join(header) + "\n")
    width = table.shape[1]
    for start in range(0, len(table), _CSV_BLOCK_ROWS):
        bits, inverse = np.unique(table[start : start + _CSV_BLOCK_ROWS].view(np.uint64), return_inverse=True)
        text = list(map(repr, bits.view(np.float64).tolist()))
        cells = iter([text[i] for i in inverse.ravel().tolist()])
        stream.write("".join([",".join(row) + "\n" for row in zip(*[cells] * width)]))


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
    write_margin_csv table, so a run whose checks raise opens nothing."""
    z = grid.points()
    header, columns, fz = _margin_columns(f, p, grid)
    reports = [
        _min_report("re_condition", columns[0], z, tolerance),
        _min_report("sense_preserving", columns[1], z, tolerance),
        _injectivity_report(f, z, pair_budget, seed, tolerance, fz),
    ]
    if fz is not None:
        reports.append(_growth_report(columns[2:], z, tolerance))
    if csv is not None:
        with csv() as stream:
            _write_csv(stream, *_table(grid, header, columns))
    return reports
