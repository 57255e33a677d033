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

import argparse
import csv
import sys

import numpy as np

from qharm import (
    ClassParams,
    DiskGrid,
    DomainError,
    QParam,
    coeff_functional,
    injectivity_sample_check,
    necessity_probe,
    random_t_form,
    re_condition_margin,
    sense_preserving_margin,
)

TARGETS = [0.80, 0.90, 0.95, 0.99, 0.999, 1.0, 1.001, 1.01, 1.05, 1.10, 1.20]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--q", type=float, default=0.9)
    ap.add_argument("--per-target", type=int, default=25)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="boundary_sweep.csv")
    args = ap.parse_args()
    if args.per_target < 1:
        print(f"error: --per-target must be >= 1, got {args.per_target}", file=sys.stderr)
        return 2
    try:
        rows = sweep(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def sweep(args) -> list[dict]:
    """One CSV row per target: the worst margins over its drawn functions."""
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
            fail_radii.append(probe.first_failure if probe.first_failure is not None else float("nan"))
            assert abs(coeff_functional(f, p) - target) <= 1e-9 * max(1.0, target)
        finite = [r for r in fail_radii if r == r]
        rows.append(
            {
                "target": target,
                "worst_re_margin": worst_re,
                "worst_sense_margin": worst_sp,
                "worst_injectivity_margin": worst_inj,
                "probe_failures": len(finite),
                "earliest_failure_radius": min(finite) if finite else "",
            }
        )
        print(
            f"target {target:>6}: re {worst_re:+.3e}  sense {worst_sp:+.3e}  "
            f"inj {worst_inj:+.3e}  probe failures {len(finite)}/{args.per_target}"
        )
    return rows


if __name__ == "__main__":
    sys.exit(main())
