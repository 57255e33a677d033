"""qharm: the Salagean q-differential operator on harmonic mappings of the
unit disc, with membership criteria, extreme points, sharpness witnesses,
growth bounds, and disc-sampled numerical verification.

The public surface re-exports the domain types and operations of the
submodules; see the README for a tour and the ``qharm`` CLI for the
command-line interface.  The disc-sampling names of ``qharm.verify`` are
resolved on first use, so ``import qharm`` does not load numpy.
"""

from .qcore import DEFAULT_TOLERANCE, DomainError, QParam, q_integer, q_integer_pow
from .series import (
    DEFAULT_TRUNC,
    AnalyticSeries,
    HarmonicFunction,
    PowerSeries,
    SchemaError,
    classical_derivative,
    eval_analytic,
    eval_harmonic,
    eval_power,
    hadamard,
    harmonic_from_json,
    harmonic_to_json,
)
from .salagean import (
    OperatorParams,
    class_transform,
    q_derivative,
    salagean,
    salagean_harmonic,
    salagean_kernel,
)
from .classes import (
    MEMBERSHIP_TOL,
    ClassParams,
    GrowthBounds,
    ProbeReport,
    coeff_functional,
    convex_combination,
    extreme_point,
    growth_bounds,
    growth_witness_lower,
    growth_witness_upper,
    member_t_iff,
    necessity_probe,
    proof_step_violations,
    satisfies_sufficient,
    sharpness_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticSeries",
    "ClassParams",
    "DEFAULT_TOLERANCE",
    "DEFAULT_TRUNC",
    "DiskGrid",
    "DomainError",
    "GapExample",
    "GrowthBounds",
    "HarmonicFunction",
    "MEMBERSHIP_TOL",
    "OperatorParams",
    "PowerSeries",
    "ProbeReport",
    "QParam",
    "ScanReport",
    "SchemaError",
    "VerificationReport",
    "class_transform",
    "classical_derivative",
    "coeff_functional",
    "convex_combination",
    "counterexample_scan",
    "eval_analytic",
    "eval_harmonic",
    "eval_power",
    "extreme_point",
    "growth_bound_check",
    "growth_bounds",
    "growth_witness_lower",
    "growth_witness_upper",
    "hadamard",
    "harmonic_from_json",
    "harmonic_to_json",
    "injectivity_sample_check",
    "margin_rows",
    "member_t_iff",
    "necessity_probe",
    "proof_step_violations",
    "q_derivative",
    "q_integer",
    "q_integer_pow",
    "random_t_form",
    "re_condition_margin",
    "salagean",
    "salagean_harmonic",
    "salagean_kernel",
    "satisfies_sufficient",
    "sense_preserving_margin",
    "sharpness_witness",
    "write_margin_csv",
]


def __getattr__(name: str):
    # The rest of __all__ is qharm.verify's (numpy), looked up there on each access.
    if name in __all__:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
