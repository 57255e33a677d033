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

import argparse
import csv
import sys

from qharm import ClassParams, DomainError, QParam, proof_step_violations


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.0)
    ap.add_argument("--u-max", type=int, default=64)
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--q-steps", type=int, default=9)
    ap.add_argument("--out", default="step_map.csv")
    args = ap.parse_args()
    if args.m_max < 0 or args.q_steps < 1:
        print(f"error: --m-max must be >= 0 and --q-steps >= 1, got {args.m_max} and {args.q_steps}", file=sys.stderr)
        return 2

    qs = [round((k + 1) / (args.q_steps + 1), 6) for k in range(args.q_steps)]
    rows = []
    for m in range(args.m_max + 1):
        row = {"m": m}
        for q in qs:
            try:
                p = ClassParams(m=m, alpha=args.alpha, q=QParam(q))
                violations = proof_step_violations(p, max_u=args.u_max)
            except DomainError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            row[f"q={q}"] = max(violations) if violations else 0
        rows.append(row)
        print(row)

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


if __name__ == "__main__":
    sys.exit(main())
