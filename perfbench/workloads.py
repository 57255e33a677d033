"""The four qharm benchmark workloads: seeded inputs, one op, output checks.

A workload is built from a seed and owns a working directory for its input
and output files.  ``op(k)`` describes the k-th operation of the closed loop;
the first ``pass_len`` ops form one pass, and the loop cycles through passes.
``run(op)`` is the only timed call.  ``check(op, out, exc, stderr)`` runs untimed
and returns the op's status, its unit count, the bytes that feed the output
digest, and the reason when the status is not OK.

Library functions are looked up as module attributes at call time
(``cli.run``, ``classes.coeff_functional``), so the tracer's wrappers see
every call the benchmark makes.

Parameter sets (m, alpha, q):
  P1 = (3, 0.25, 0.9)   the README example
  P2 = (0, 0.0, 0.5)    the README CLI examples; u (1 - alpha) <= [u]_q**m
                        fails for every u >= 2, and b_1 = 1 is reachable
  P3 = (1, 0.5, 0.99)   q near 1
  P4 = (6, 0.1, 0.7)    a larger order
"""

from __future__ import annotations

import importlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qharm
from qharm import classes, cli, series, verify

# The package attribute qharm.salagean is the operator function, not the module.
salagean = importlib.import_module("qharm.salagean")

PARAMS = {
    "P1": (3, 0.25, 0.9),
    "P2": (0, 0.0, 0.5),
    "P3": (1, 0.5, 0.99),
    "P4": (6, 0.1, 0.7),
}
# Every cell below is a (parameter set, truncation) pair.
VERIFY_TRUNCS = (16, 32, 64)
CLASSIFY_TRUNCS = (16, 32, 64, 128)
SCAN_TRIALS = 40
SCAN_PASS = 64  # scan calls per pass, 16 per parameter set, each with its own seed
GRID_SIZE = verify.DiskGrid().size
PAIR_BUDGET = 256  # the CLI default for verify
VERIFY_CHECKS = ["re_condition", "sense_preserving", "injectivity"]
CSV_HEADER = ["re", "im", "re_condition_margin", "sense_preserving_margin"]
GROWTH_COLUMNS = ["growth_lower_margin", "growth_upper_margin"]

OK, FAILED, WRONG = "ok", "failed", "wrong"


def class_params(name: str) -> classes.ClassParams:
    m, alpha, q = PARAMS[name]
    return classes.ClassParams(m, alpha, qharm.QParam(q))


def class_flags(pname: str) -> list[str]:
    m, alpha, q = PARAMS[pname]
    return ["--m", str(m), "--alpha", repr(alpha), "--q", repr(q)]


def q_weight(u: int, q: float, m: int) -> float:
    """[u]_q**m by the nested sum, written independently of qharm.qcore."""
    acc = 1.0
    for _ in range(u - 1):
        acc = 1.0 + q * acc
    return acc**m if m else 1.0


def step_violations(pname: str, max_u: int) -> tuple[int, ...]:
    """Powers u in 2..max_u with u (1 - alpha) > [u]_q**m.  Where there are
    none, the sufficiency argument holds and a t_form member must pass every
    disc check; where there are some, only the Re-condition and growth
    bounds are guaranteed for members."""
    m, alpha, q = PARAMS[pname]
    return tuple(u for u in range(2, max_u + 1) if u * (1.0 - alpha) > q_weight(u, q, m))


def _extreme_specs(rng, trunc):
    """One-term extreme points at u = 1 and one drawn u >= 2, each in the
    three variants: analytic, co-analytic as printed (-), co-analytic
    t_form (+).  Expected functional: 0 for the identity, 1 otherwise."""
    out = []
    for u in (1, int(rng.integers(2, trunc + 1))):
        out.append(("extreme", (u, "analytic", -1), 0.0 if u == 1 else 1.0))
        out.append(("extreme", (u, "coanalytic", -1), 1.0))
        out.append(("extreme", (u, "coanalytic", 1), 1.0))
    return out


def _combination_spec(rng, trunc):
    k = int(rng.integers(2, 5))
    weights = rng.dirichlet(np.ones(k))
    terms = [
        (int(rng.integers(1, trunc + 1)), "analytic" if rng.random() < 0.5 else "coanalytic", float(w))
        for w in weights
    ]
    mass = math.fsum(w for u, kind, w in terms if not (u == 1 and kind == "analytic"))
    return ("combination", tuple(terms), mass)


def _witness_spec(rng, trunc):
    """Complex-phased sharpness witness: a few nonzero weights whose moduli
    sum to 1."""
    nx, ny = trunc - 1, trunc
    slots = rng.choice(nx + ny, size=int(rng.integers(2, 6)), replace=False)
    moduli = rng.random(slots.size) + 0.1
    moduli /= moduli.sum()
    xs, ys = [0j] * nx, [0j] * ny
    for s, r in zip(slots, moduli):
        v = complex(r * math.cos(2 * math.pi * rng.random()), r * math.sin(2 * math.pi * rng.random()))
        if s < nx:
            xs[s] = v
        else:
            ys[s - nx] = v
    total = math.fsum(abs(v) for v in xs + ys)
    return ("witness", (tuple(v / total for v in xs), tuple(v / total for v in ys)), 1.0)


def _t_form_spec(target, rng):
    return ("t_form", (float(target), int(rng.integers(2**32))), float(target))


def _member_target(rng):
    return 0.5 + 0.5 * rng.random()  # in [0.5, 1)


def _violator_target(rng):
    return 1.0 + 0.3 * (1.0 - rng.random())  # in (1, 1.3]


def build(kind, args, p, trunc) -> qharm.HarmonicFunction:
    """Construct a function from a spec through the library's public API."""
    if kind == "extreme":
        u, k, sign = args
        return classes.extreme_point(u, k, p, coanalytic_sign=sign, trunc=trunc)
    if kind == "combination":
        return classes.convex_combination(args, p, trunc=trunc)
    if kind == "witness":
        return classes.sharpness_witness(args[0], args[1], p, trunc=trunc)
    target, seed = args
    return verify.random_t_form(p, target, np.random.default_rng(seed), trunc=trunc)


@dataclass
class Op:
    index: int  # position in the pass
    pname: str
    trunc: int
    kind: str
    args: tuple
    functional: float  # expected, from the construction's definition
    argv: list = field(default_factory=list)
    t_form: bool = False
    member: bool = False


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tiny = tiny
        self.ops: list[Op] = []
        self.csv_bytes = 0  # CSV output checked so far

    @property
    def pass_len(self) -> int:
        return len(self.ops)

    def op(self, k: int) -> Op:
        return self.ops[k % len(self.ops)]

    def before(self, op: Op) -> None:
        """Untimed preparation of the op's outputs."""

    def cli_argv(self) -> list[str]:
        """Arguments of ``python -m qharm`` for the cold-start measurement."""
        raise NotImplementedError

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class VerifyWorkload(Workload):
    """In-process ``qharm verify`` over a seeded mix of series JSON files."""

    name = "verify"
    csv = False

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = np.random.default_rng([seed, 1])
        specs = []
        for pname in PARAMS:
            for trunc in VERIFY_TRUNCS[:1] if tiny else VERIFY_TRUNCS:
                cell = _extreme_specs(rng, trunc)
                cell += [_t_form_spec(_member_target(rng), rng) for _ in range(2)]
                cell += [_t_form_spec(_violator_target(rng), rng) for _ in range(2)]
                cell += [_combination_spec(rng, trunc), _witness_spec(rng, trunc)]
                specs += [(pname, trunc, s) for s in cell]
        self.report = self.workdir / "report.json"
        self.csv_path = self.workdir / "margins.csv"
        for i in rng.permutation(len(specs)):
            pname, trunc, (kind, args, functional) = specs[i]
            p = class_params(pname)
            f = build(kind, args, p, trunc)
            path = self.workdir / f"in{len(self.ops):04d}.json"
            path.write_text(json.dumps(series.harmonic_to_json(f)))
            op = Op(len(self.ops), pname, trunc, kind, args, functional, t_form=f.t_form)
            op.member = f.t_form and functional <= 1.0 + classes.MEMBERSHIP_TOL
            op.argv = ["verify", "--in", str(path), *class_flags(pname)]
            op.argv += ["--seed", str(op.index), "--out", str(self.report)]
            if self.csv:
                op.argv += ["--csv", str(self.csv_path)]
            self.ops.append(op)

    def cli_argv(self):
        # The first P1 trunc-32 member of the mix (trunc 16 when tiny).
        trunc = VERIFY_TRUNCS[0] if self.tiny else 32
        op = next(o for o in self.ops if o.pname == "P1" and o.trunc == trunc and o.kind == "t_form" and o.member)
        argv = [*op.argv[:3], *class_flags("P1"), "--out", str(self.workdir / "cold.json")]
        return argv + (["--csv", str(self.workdir / "cold.csv")] if self.csv else [])

    def before(self, op):
        self.report.unlink(missing_ok=True)
        self.csv_path.unlink(missing_ok=True)

    def run(self, op):
        return cli.run(op.argv)

    def check(self, op, rc, exc, stderr):
        blob = f"{op.index}:{rc}\n{stderr}".encode()
        if exc is not None:
            return FAILED, 1, blob, repr(exc)
        if rc not in (0, 1):
            return FAILED, 1, blob, f"exit {rc}: {stderr.strip()}"
        data = self.report.read_bytes()
        blob += data
        try:
            reports = json.loads(data)
            names = [r["check"] for r in reports]
            passed = {r["check"]: r["passed"] for r in reports}
            samples = [r["samples"] for r in reports]
        except (ValueError, KeyError, TypeError):
            return WRONG, 1, blob, "report does not parse"
        growth = op.t_form and op.member
        expected = VERIFY_CHECKS + (["growth_bounds"] if growth else [])
        if names != expected or samples != [GRID_SIZE, GRID_SIZE, PAIR_BUDGET] + ([GRID_SIZE] if growth else []):
            return WRONG, 1, blob, f"unexpected checks {names} or sample counts {samples}"
        if (rc == 0) != all(passed.values()):
            return WRONG, 1, blob, f"exit {rc} disagrees with the verdicts"
        if growth:
            must_pass = names if not step_violations(op.pname, op.trunc) else ["re_condition", "growth_bounds"]
            if not all(passed[n] for n in must_pass):
                return WRONG, 1, blob, f"member failed a guaranteed check ({op.pname}, {op.kind})"
        if self.csv:
            data = self.csv_path.read_bytes()
            self.csv_bytes += len(data)
            blob += data
            header = CSV_HEADER + (GROWTH_COLUMNS if growth else [])
            lines = data.split(b"\n")
            if (
                lines[0].decode() != ",".join(header)
                or len(lines) != GRID_SIZE + 2
                or lines[-1] != b""
                or data.count(b",") != (len(header) - 1) * (GRID_SIZE + 1)
            ):
                return WRONG, 1, blob, "CSV shape"
        return OK, 1, blob, None


class VerifyCsvWorkload(VerifyWorkload):
    """The same calls as ``verify`` plus ``--csv``."""

    name = "verify_csv"
    csv = True


class ClassifyWorkload(Workload):
    """Coefficient-only decisions through the library API, no grid."""

    name = "classify"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        rng = np.random.default_rng([seed, 2])
        specs = []
        for pname in PARAMS:
            for trunc in CLASSIFY_TRUNCS[:1] if tiny else CLASSIFY_TRUNCS:
                extremes = _extreme_specs(rng, trunc)
                cell = [extremes[int(i)] for i in rng.choice(len(extremes), size=4, replace=False)]
                cell += [_combination_spec(rng, trunc) for _ in range(4)]
                cell += [_witness_spec(rng, trunc) for _ in range(4)]
                cell += [_t_form_spec(target(rng), rng) for target in (_member_target, _violator_target) * 2]
                specs += [(pname, trunc, s) for s in cell]
        for i in rng.permutation(len(specs)):
            pname, trunc, (kind, args, functional) = specs[i]
            self.ops.append(Op(len(self.ops), pname, trunc, kind, args, functional))
        self._member_file = None

    def cli_argv(self):
        if self._member_file is None:
            p = class_params("P1")
            f = verify.random_t_form(p, 0.9, np.random.default_rng([self.seed, 3]), trunc=32)
            self._member_file = self.workdir / "member.json"
            self._member_file.write_text(json.dumps(series.harmonic_to_json(f)))
        return ["check", "--in", str(self._member_file), *class_flags("P1")]

    def run(self, op):
        p = class_params(op.pname)
        f = build(op.kind, op.args, p, op.trunc)
        functional = classes.coeff_functional(f, p)
        sufficient = classes.satisfies_sufficient(f, p)
        member = probe = None
        if f.t_form:
            member = classes.member_t_iff(f, p)
            probe = verify.necessity_probe(f, p)
        ops = p.operator_params()
        transform = salagean.class_transform(f, ops)
        image = salagean.salagean_harmonic(f, ops)
        back = series.harmonic_from_json(json.loads(json.dumps(series.harmonic_to_json(f))))
        return f, functional, sufficient, member, probe, transform, image, back

    def check(self, op, out, exc, stderr):
        if exc is not None:
            return FAILED, 1, f"{op.index}:{exc!r}".encode(), repr(exc)
        f, functional, sufficient, member, probe, transform, image, back = out
        values = (functional, sufficient, member, probe.to_dict() if probe else None, transform, image)
        blob = f"{op.index}:{values!r}\n".encode()
        tol = classes.MEMBERSHIP_TOL
        alpha = PARAMS[op.pname][1]
        if abs(functional - op.functional) > tol:
            return WRONG, 1, blob, f"{op.kind} functional {functional!r}, defined as {op.functional!r}"
        if back != f:
            return WRONG, 1, blob, "JSON round trip changed the function"
        if sufficient != (functional <= 1.0 + tol):
            return WRONG, 1, blob, "satisfies_sufficient disagrees with the functional"
        if f.t_form:
            limit = probe.limit_margin
            if abs(limit - (1.0 - alpha) * (1.0 - functional)) > tol:
                return WRONG, 1, blob, f"limit_margin {limit!r} is not (1-alpha)(1-functional)"
            if member != (limit >= -(1.0 - alpha) * tol):
                return WRONG, 1, blob, "member_t_iff disagrees with the sign of limit_margin"
        return OK, 1, blob, None


class ScanWorkload(Workload):
    """``counterexample_scan`` calls of 40 trials, a distinct seed per call
    of the pass, cycling through P1-P4.  Throughput counts trials."""

    name = "scan"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.trials = 4 if tiny else SCAN_TRIALS
        self.expected_steps = {p: step_violations(p, qharm.DEFAULT_TRUNC) for p in PARAMS}
        for k in range(4 if tiny else SCAN_PASS):
            pname = list(PARAMS)[k % len(PARAMS)]
            self.ops.append(Op(k, pname, qharm.DEFAULT_TRUNC, "scan", (self.seed * 1_000_003 + k,), 0.0))

    def cli_argv(self):
        return ["scan", *class_flags("P1"), "--trials", str(self.trials), "--seed", str(self.seed)]

    def run(self, op):
        return verify.counterexample_scan(class_params(op.pname), self.trials, op.args[0])

    def check(self, op, report, exc, stderr):
        if exc is not None:
            return FAILED, self.trials, f"{op.index}:{exc!r}".encode(), repr(exc)
        blob = json.dumps(report.to_dict()).encode()
        if (
            report.trials != self.trials
            or report.seed != op.args[0]
            or report.step_violations != self.expected_steps[op.pname]
            or any(not (g.functional > 1.0) for g in report.gap_examples)
        ):
            return WRONG, self.trials, blob, "scan report contradicts its inputs"
        return OK, self.trials, blob, None


WORKLOADS = {w.name: w for w in (VerifyWorkload, VerifyCsvWorkload, ClassifyWorkload, ScanWorkload)}
