"""Host-speed calibration for the qlprop benchmark.

On a shared host the speed of one CPU changes by a third or more within
seconds, as other tenants' load comes and goes.  The benchmark runs a
fixed slice of interpreter and small-numpy work, much like qlprop's own,
next to the operations it times, and rescales each operation's wall
time by the slice's speed:

    scaled = wall * REFERENCE_S / slice time

so a scaled time is the wall time the operation would take on a host
that runs the slice in REFERENCE_S.  Slowdowns that hit the program and
the slice alike cancel; a change to the program's own speed does not.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.035  # about the slice time on a quiet Intel Xeon vCPU
EVERY_S = 0.5        # at most this much work between two slices


def calibrate() -> float:
    """Wall time of one fixed slice of work."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, frozenset] = {}
    base = frozenset(range(8))
    for i in range(40_000):
        acc += i * i % 7
        table[i & 255] = base & frozenset((i & 7, 3))
    m = np.eye(3, dtype=complex)
    x = np.ones(3, dtype=complex)
    for _ in range(800):
        acc += int(np.linalg.norm(m @ x - x) < 1.0)
    return time.perf_counter() - t0
