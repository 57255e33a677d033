"""Command-line front door.

Subcommands map one-to-one onto library operations: qint, dq, salagean,
transform, check, extremal, combine, witness, growth, verify, probe, scan.
Each handler returns ``(payload, passed)``.  drive(), the one exit contract
of qharm and the experiment scripts, writes the payload (as JSON to stdout or
--out here, through write_csv() in the scripts) and maps the verdict or error
to the exit code.  verify writes its --csv grid dump itself, before the report,
through qharm.verify's block writer, which formats each distinct float of a
block of rows once.

Exit codes: 0 all checks passed / operation succeeded; 1 a verification
check failed (valid run, negative result); 2 usage or parse error,
including malformed series JSON (the diagnostic names the offending
field), and any failure to write a result (--out, --csv, or a closed
stdout such as ``qharm probe ... | head -1``); 3 a crash, any other
exception escaping a handler or the emitter, whose traceback goes to
stderr (a bug, never a verdict; an interrupt still ends the process the
usual way).  The environment variable
QHARM_TOL overrides the default check tolerance of 1e-9 for verify and
scan, the two subcommands that sample the disc; they read it on every
run, and an unparseable value is a usage error there.  The other
subcommands ignore it.

The argument parser is built once per process and reused by every run(),
so in-process callers pay for argparse set-up only on the first call.
Only verify and scan sample the disc, so only their handlers import
qharm.verify, and with it numpy; every other subcommand runs without it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .qcore import DEFAULT_TOLERANCE, QParam, in_range, q_integer, q_integer_pow
from .classes import (
    ClassParams,
    coeff_functional,
    convex_combination,
    extreme_point,
    growth_bounds,
    necessity_probe,
    satisfies_sufficient,
    sharpness_witness,
)
from .salagean import OperatorParams, class_transform, q_derivative, salagean_harmonic
from .series import MAX_JSON_TRUNC, SchemaError, harmonic_from_json, harmonic_to_json, power_series_to_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CRASH = 3


class UsageError(ValueError):
    pass


def _tolerance() -> float:
    raw = os.environ.get("QHARM_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        val = float(raw)
    except ValueError:
        raise UsageError(f"QHARM_TOL: not a real number: {raw!r}") from None
    if not (math.isfinite(val) and val >= 0.0):
        raise UsageError(f"QHARM_TOL: must be a finite non-negative real, got {raw!r}")
    return val


def _input(args):
    path = getattr(args, "in")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, bad UTF-8, or an integer too long to convert
        raise UsageError(f"{path}: malformed JSON: {exc}") from None
    return harmonic_from_json(obj)


@contextlib.contextmanager
def writing(path: str):
    """Open ``path`` for writing, newlines untranslated (as csv needs); any
    OSError while opening, writing or closing it is a usage error (exit 2)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def write_stdout(text: str) -> None:
    """Write to stdout and flush, so that a closed pipe is reported here,
    as a usage error, rather than at interpreter exit."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write <stdout>: {exc}") from None


def _emit(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with writing(out) as fh:
            fh.write(text)
    else:
        write_stdout(text)


def write_csv(rows: list[dict], out: str) -> None:
    """Write ``rows`` to ``out`` as CSV (CRLF line ends), then print ``wrote OUT``."""
    import csv

    with writing(out) as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    write_stdout(f"wrote {out}\n")


def _parse_radii(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(r) for r in text.split(","))
    except ValueError:
        raise UsageError(f"--radii: expected comma-separated reals, got {text!r}") from None


def _grid_kwargs(args) -> dict:
    kwargs = {}
    if args.radii is not None:
        kwargs["radii"] = _parse_radii(args.radii)
    if args.angles is not None:
        kwargs["angular_count"] = args.angles
    if args.no_axis:
        kwargs["include_positive_axis"] = False
    return kwargs


def _class_params(args) -> ClassParams:
    return ClassParams(m=args.m, alpha=args.alpha, q=QParam(args.q))


def _operator_params(args) -> OperatorParams:
    return OperatorParams(args.m, QParam(args.q), classical_mode=args.classical)


def _parse_indexed(values: list[str] | None, lowest: int, flag: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for item in values or []:
        try:
            key, _, val = item.partition("=")
            u = int(key)
            c = complex(val)
        except ValueError:
            raise UsageError(f"{flag}: expected U=COMPLEX, got {item!r}") from None
        u = in_range(u, lowest, MAX_JSON_TRUNC, f"{flag} power")
        out[u] = out.get(u, 0j) + c
    return out


# --- subcommand handlers: each returns (payload, passed) -------------------


def _cmd_qint(args):
    q = QParam(args.q)
    value = q_integer(args.u, q) if args.m is None else q_integer_pow(args.u, q, args.m)
    return value, True


def _cmd_dq(args):
    f = _input(args)
    q = QParam(args.q)
    return {"h": power_series_to_json(q_derivative(f.h, q)), "g": power_series_to_json(q_derivative(f.g, q))}, True


def _cmd_salagean(args):
    f = _input(args)
    p = _operator_params(args)
    return harmonic_to_json(salagean_harmonic(f, p)), True


def _cmd_transform(args):
    f = _input(args)
    p = _operator_params(args)
    return power_series_to_json(class_transform(f, p)), True


def _cmd_check(args):
    f = _input(args)
    p = _class_params(args)
    functional = coeff_functional(f, p)
    sufficient = satisfies_sufficient(f, p)
    t_member = sufficient if f.t_form else None
    return {"functional": functional, "sufficient": sufficient, "t_form": f.t_form, "t_member": t_member}, sufficient


def _cmd_extremal(args):
    p = _class_params(args)
    sign = 1 if args.positive_coanalytic else -1
    f = extreme_point(args.u, args.kind, p, coanalytic_sign=sign)
    return harmonic_to_json(f), True


def _cmd_combine(args):
    p = _class_params(args)
    terms = []
    for item in args.point:
        try:
            u, kind, weight = item.split(":")
            terms.append((int(u), kind, float(weight)))
        except ValueError:
            raise UsageError(f"--point: expected U:KIND:WEIGHT, got {item!r}") from None
    return harmonic_to_json(convex_combination(terms, p)), True


def _cmd_witness(args):
    p = _class_params(args)
    x_map = _parse_indexed(args.x, 2, "--x")
    y_map = _parse_indexed(args.y, 1, "--y")
    xs = [x_map.get(u, 0j) for u in range(2, max(x_map, default=1) + 1)]
    ys = [y_map.get(u, 0j) for u in range(1, max(y_map, default=0) + 1)]
    return harmonic_to_json(sharpness_witness(xs, ys, p)), True


def _cmd_growth(args):
    p = _class_params(args)
    b = growth_bounds(args.b1, args.r, p)
    return {"lower": b.lower, "upper": b.upper, "radius": b.radius}, True


def _cmd_verify(args):
    from . import verify

    tol = _tolerance()
    f = _input(args)
    p = _class_params(args)
    grid = verify.DiskGrid(**_grid_kwargs(args))
    csv = functools.partial(writing, args.csv) if args.csv else None
    reports = verify.disc_checks(f, p, grid, args.pair_budget, seed=args.seed, tolerance=tol, csv=csv)
    return [r.to_dict() for r in reports], all(r.passed for r in reports)


def _cmd_probe(args):
    f = _input(args)
    p = _class_params(args)
    report = necessity_probe(f, p, _parse_radii(args.radii))
    return report.to_dict(), report.passed


def _cmd_scan(args):
    from . import verify

    tol = _tolerance()
    p = _class_params(args)
    report = verify.counterexample_scan(p, args.trials, args.seed, pair_budget=args.pair_budget, tolerance=tol)
    return report.to_dict(), True


# --- parser -------------------------------------------------------------------


def _add_class_flags(sub) -> None:
    sub.add_argument("--m", type=int, required=True, help="operator order m >= 0")
    sub.add_argument("--alpha", type=float, required=True, help="level alpha in [0, 1)")
    sub.add_argument("--q", type=float, required=True, help="deformation q in (0, 1)")


def _add_out_flag(sub) -> None:
    sub.add_argument("--out", help="write the JSON result to this path instead of stdout")


def _add_grid_flags(sub) -> None:
    sub.add_argument("--grid", choices=["default"], default="default", help="named grid preset")
    sub.add_argument("--radii", help="comma-separated override of the grid radii")
    sub.add_argument("--angles", type=int, help="override of the angular sample count")
    sub.add_argument("--no-axis", action="store_true", help="offset angles off the positive real axis")


class Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse's own print_help swallows a write error; --help must exit 2 too
        write_stdout(self.format_help())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qharm argument parser, built on the first call and shared by
    every later one.  Parsing leaves it unchanged (argparse copies
    ``append`` defaults), so nothing carries over between runs; callers
    must not add to it or change its defaults."""
    parser = Parser(
        prog="qharm",
        description="Salagean q-operator toolkit for harmonic mappings on the unit disc.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("qint", help="evaluate the q-analogue of an integer")
    s.add_argument("--u", type=int, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--m", type=int, help="optional power: print [u]_q**m")
    s.set_defaults(handler=_cmd_qint)

    s = subs.add_parser("dq", help="apply the Jackson q-derivative to both parts")
    s.add_argument("--in", required=True, help="input series JSON")
    s.add_argument("--q", type=float, required=True)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_dq)

    s = subs.add_parser("salagean", help="apply the order-m Salagean q-operator to the pair")
    s.add_argument("--in", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--classical", action="store_true", help="use undeformed weights u**m")
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_salagean)

    s = subs.add_parser("transform", help="emit the membership transform series")
    s.add_argument("--in", required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--q", type=float, required=True)
    s.add_argument("--classical", action="store_true")
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_transform)

    s = subs.add_parser("check", help="coefficient functional and membership verdicts")
    s.add_argument("--in", required=True)
    _add_class_flags(s)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_check)

    s = subs.add_parser("extremal", help="construct a one-term boundary function")
    s.add_argument("--u", type=int, required=True)
    s.add_argument("--kind", choices=["analytic", "coanalytic"], required=True)
    s.add_argument(
        "--positive-coanalytic",
        action="store_true",
        help="store the co-analytic coefficient with the sign-normalized (+) convention",
    )
    _add_class_flags(s)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_extremal)

    s = subs.add_parser("combine", help="convex combination of boundary functions")
    s.add_argument("--point", action="append", required=True, metavar="U:KIND:WEIGHT")
    _add_class_flags(s)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_combine)

    s = subs.add_parser("witness", help="equality witness for the coefficient bound")
    s.add_argument("--x", action="append", metavar="U=COMPLEX", help="analytic weight (power >= 2)")
    s.add_argument("--y", action="append", metavar="U=COMPLEX", help="co-analytic weight (power >= 1)")
    _add_class_flags(s)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_witness)

    s = subs.add_parser("growth", help="two-sided growth bound at a radius")
    s.add_argument("--b1", type=float, required=True)
    s.add_argument("--r", type=float, required=True)
    _add_class_flags(s)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_growth)

    s = subs.add_parser("verify", help="run the disc-sampled checks on a function")
    s.add_argument("--in", required=True)
    _add_class_flags(s)
    _add_grid_flags(s)
    s.add_argument("--pair-budget", type=int, default=256, help="injectivity pair samples")
    s.add_argument("--seed", type=int, default=0, help="seed for injectivity pair selection")
    s.add_argument("--csv", help="write the per-point margin table to this path")
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_verify)

    s = subs.add_parser("probe", help="positive-real-axis necessity probe (t_form input)")
    s.add_argument("--in", required=True)
    _add_class_flags(s)
    s.add_argument("--radii", help="comma-separated increasing radii approaching 1")
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_probe)

    s = subs.add_parser("scan", help="randomized sufficiency-gap and proof-step scan")
    _add_class_flags(s)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--pair-budget", type=int, default=64)
    _add_out_flag(s)
    s.set_defaults(handler=_cmd_scan)

    return parser


def drive(parser: argparse.ArgumentParser, argv: list[str], emit) -> int:
    """Parse ``argv``, run its ``handler`` and ``emit(payload, args.out)``;
    return the exit status instead of raising SystemExit.  Any exception
    other than a ValueError (exit 2) prints its traceback and returns
    EXIT_CRASH; KeyboardInterrupt is not caught."""
    try:
        args = parser.parse_args(argv)
        payload, passed = args.handler(args)
        emit(payload, getattr(args, "out", None))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    except SchemaError as exc:
        print(f"error: invalid series JSON: field {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # Exit 1 means a check failed, so a bug must not end with it.
        import traceback

        traceback.print_exc()
        return EXIT_CRASH
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def run(argv: list[str]) -> int:
    """Parse and execute one qharm command line; returns the exit status."""
    return drive(build_parser(), argv, _emit)


def exit_with(code: int) -> None:
    """sys.exit(code) for main and the experiment scripts, after a last flush
    of stdout: a failed write was reported once and must not fail at exit."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The recipe of Python's signal docs: point stdout at devnull, so
        # that the flush at interpreter shutdown does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


def main() -> None:
    exit_with(run(sys.argv[1:]))
