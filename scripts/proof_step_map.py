#!/usr/bin/env python3
"""Map where the comparison u (1 - alpha) <= [u]_q**m holds.

The standard route from the coefficient condition to univalence and
sense-preservation bounds u |c_u| by ([u]_q**m / (1 - alpha)) |c_u|, which
is only valid where the comparison above holds.  For q < 1, [u]_q**m
stays below (1 - q)**-m while u (1 - alpha) grows without bound, so at
every q and m the comparison fails once u exceeds about
(1 - q)**-m / (1 - alpha): the first failing u is 1334 at
(m, alpha, q) = (3, 0.25, 0.9) and 1525 at (6, 0.1, 0.7).  This script
tabulates, over an (m, q) lattice at a fixed alpha, the largest power
u <= u-max violating the comparison (0 = valid up to u-max), writing a
CSV heat map.

Usage:
    python3 scripts/proof_step_map.py --alpha 0 --u-max 64 --out step_map.csv
"""

import sys

from qharm import ClassParams, QParam, proof_step_violations
from qharm import cli
from qharm.qcore import MAX_PROOF_STEP_U, in_range

# Largest --m-max and --q-steps: the lattice has at most 1,001 x 1,000 cells.
MAX_LATTICE_SIDE = 1000
# Largest number of weight entries, (m-max + 1) * q-steps * u-max, that one
# map builds: about 30 s at 0.42 us per entry on a 2-CPU Xeon.
MAX_WEIGHT_ENTRIES = 2**26


def main() -> int:
    ap = cli.Parser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--u-max", type=int, default=64)
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--q-steps", type=int, default=9)
    ap.add_argument("--out", default="step_map.csv")
    ap.set_defaults(handler=step_map)
    return cli.drive(ap, sys.argv[1:], cli.write_csv)


def step_map(args) -> tuple[list[dict], bool]:
    """One CSV row per order m: the largest violating power at each q."""
    in_range(args.m_max, 0, MAX_LATTICE_SIDE, "--m-max")
    in_range(args.q_steps, 1, MAX_LATTICE_SIDE, "--q-steps")
    in_range(args.u_max, 0, MAX_PROOF_STEP_U, "max_u")
    in_range((args.m_max + 1) * args.q_steps * args.u_max, 0, MAX_WEIGHT_ENTRIES, "weight entries (--m-max + 1) * --q-steps * --u-max")
    qs = [round((k + 1) / (args.q_steps + 1), 6) for k in range(args.q_steps)]
    rows = []
    for m in range(args.m_max + 1):
        row = {"m": m}
        for q in qs:
            violations = proof_step_violations(ClassParams(m=m, alpha=args.alpha, q=QParam(q)), max_u=args.u_max)
            row[f"q={q}"] = max(violations) if violations else 0
        rows.append(row)
        cli.write_stdout(f"{row}\n")
    return rows, True


if __name__ == "__main__":
    cli.exit_with(main())
