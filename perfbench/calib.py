"""Machine speed, read from a fixed reference kernel that runs beside the ops.

On a shared virtual machine the speed of this process's CPU drifts by tens
of per cent over seconds to minutes, as other tenants load the host: every
op, qharm's or not, takes longer in a slow period.  The benchmark therefore
runs a fixed reference kernel between ops, and reports each op's time in
*reference milliseconds*: its measured time scaled to a machine on which the
reference kernel takes exactly ``NOMINAL_NS``.  A change to qharm moves these
times as it moves the measured ones; a change in machine speed moves the op
and the kernel next to it alike, and cancels.  The raw, unscaled figures are
printed in each run's record.

The kernel is complex Horner evaluation of a 64-term polynomial on 2816
points with numpy, the shape of qharm's grid checks.  It is owned by the
benchmark and calls nothing in qharm.  Measured beside each workload's ops
on a shared 2-vCPU virtual machine, its time rose and fell in step with
theirs, the pure-Python ops of ``classify`` included (log-log slope about
1), whereas a pure-Python loop kernel swung more widely than the ops did.

Work in a fresh process (set-up, a cold CLI command) is mostly interpreter
start-up, imports and page faults, which a loop in this process does not
track.  Each such sample is paired with a reference child instead, a fresh
interpreter that imports numpy (probes.py), and is scaled to a machine on
which that child takes ``CHILD_NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_NS = 500_000  # the reference kernel's time on the reference machine
WINDOW = 32  # reference samples on each side of an op that set its speed
CHILD_NOMINAL_S = 0.2  # the reference child's CPU time on the reference machine

_POINTS = 0.9 * np.exp(2j * np.pi * np.arange(2816) / 2816)
_COEFFS = [complex(1.0 / (u + 1), (-1.0) ** u / (u + 2)) for u in range(64)]


def reference_ns() -> int:
    """Thread CPU time of one run of the reference kernel, in ns."""
    start = time.thread_time_ns()
    out = np.zeros_like(_POINTS)
    for c in _COEFFS:
        out = out * _POINTS + c
    elapsed = time.thread_time_ns() - start
    if not np.isfinite(out[0]):
        raise ArithmeticError("reference kernel diverged")
    return elapsed


class SpeedTrack:
    """Reference samples taken between ops, and each op's speed factor.

    ``sample(position)`` runs the kernel after ``position`` ops.  The factor
    of op ``i`` is the median of the ``2 * WINDOW`` samples nearest to it,
    over ``NOMINAL_NS``: above 1 when the machine runs slow."""

    def __init__(self):
        self.positions: list[int] = []
        self.samples_ns: list[int] = []

    def sample(self, position: int) -> None:
        self.positions.append(position)
        self.samples_ns.append(reference_ns())

    def factors(self, count: int) -> list[float]:
        n = len(self.samples_ns)
        out = []
        for i in range(count):
            j = bisect.bisect_right(self.positions, i)  # first sample after op i
            lo = max(0, min(j - WINDOW, n - 2 * WINDOW))
            out.append(statistics.median(self.samples_ns[lo:lo + 2 * WINDOW]) / NOMINAL_NS)
        return out

