#!/usr/bin/env python3
"""Sweep the coefficient functional across the membership boundary.

For a ladder of functional targets straddling 1, draw seeded random
t_form functions at each target and record the worst disc-sampled margins
and the radius where the positive-axis probe first fails.  The output CSV
makes the sharp threshold at functional = 1 visible: margins shrink to 0
from above as the target approaches 1 and the probe failure radius drops
into the disc once the target exceeds it.

Usage:
    python3 scripts/boundary_sweep.py --m 3 --alpha 0.25 --q 0.9 \
        --per-target 25 --seed 7 --out boundary_sweep.csv
"""

import sys

import numpy as np

from qharm import (
    ClassParams,
    DiskGrid,
    QParam,
    coeff_functional,
    injectivity_sample_check,
    necessity_probe,
    random_t_form,
    re_condition_margin,
    sense_preserving_margin,
)
from qharm import cli
from qharm.qcore import in_range
from qharm.verify import MAX_TRIALS

TARGETS = [0.80, 0.90, 0.95, 0.99, 0.999, 1.0, 1.001, 1.01, 1.05, 1.10, 1.20]


def main() -> int:
    ap = cli.Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--q", type=float, default=0.9)
    ap.add_argument("--per-target", type=int, default=25)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="boundary_sweep.csv")
    ap.set_defaults(handler=sweep)
    return cli.drive(ap, sys.argv[1:], cli.write_csv)


def sweep(args) -> tuple[list[dict], bool]:
    """One CSV row per target: the worst margins over its drawn functions."""
    in_range(args.per_target, 1, None, "--per-target")
    in_range(args.per_target * len(TARGETS), 1, MAX_TRIALS, f"drawn functions --per-target * {len(TARGETS)} targets")
    in_range(args.seed, 0, None, "--seed")
    p = ClassParams(m=args.m, alpha=args.alpha, q=QParam(args.q))
    grid = DiskGrid()
    rows = []
    for target in TARGETS:
        worst_re = worst_sp = worst_inj = float("inf")
        fail_radii = []
        for i in range(args.per_target):
            rng = np.random.default_rng([args.seed, int(target * 1e6), i])
            f = random_t_form(p, target, rng)
            worst_re = min(worst_re, re_condition_margin(f, p, grid).min_margin)
            worst_sp = min(worst_sp, sense_preserving_margin(f, grid).min_margin)
            worst_inj = min(worst_inj, injectivity_sample_check(f, grid, 128, seed=i).min_margin)
            probe = necessity_probe(f, p)
            if probe.first_failure is not None:
                fail_radii.append(probe.first_failure)
            assert abs(coeff_functional(f, p) - target) <= 1e-9 * max(1.0, target)
        rows.append(
            {
                "target": target,
                "worst_re_margin": worst_re,
                "worst_sense_margin": worst_sp,
                "worst_injectivity_margin": worst_inj,
                "probe_failures": len(fail_radii),
                "earliest_failure_radius": min(fail_radii, default=""),
            }
        )
        cli.write_stdout(
            f"target {target:>6}: re {worst_re:+.3e}  sense {worst_sp:+.3e}  "
            f"inj {worst_inj:+.3e}  probe failures {len(fail_radii)}/{args.per_target}\n"
        )
    return rows, True


if __name__ == "__main__":
    cli.exit_with(main())
