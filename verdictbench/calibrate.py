"""The machine's current speed, measured with a fixed reference computation.

On a shared host the speed of one CPU drifts by 20% and more over a few
seconds (another tenant's work on the same core), and a 20 s run is not
long enough to average it out.  So the worker runs reference blocks
between operations, about a tenth of their CPU time, and run.py divides
each operation's time by the speed the blocks measured around it.

A block multiplies two sparse polynomials in ten variables with
``Fraction`` coefficients, the same kind of work as gring's inner loops
(of the blocks tried, it tracked the drift of gring's operations best),
and it never calls gring, so a change to gring leaves it alone.  Its work
must not change: it defines the unit of every time the benchmark reports.
"""

from __future__ import annotations

import time
from fractions import Fraction

# CPU seconds one block takes on the reference machine: about its median
# on the 2-CPU VM the reference figures in README.md come from, so
# reported times read like seconds there.  A reported time is
# (CPU seconds) * REF_BLOCK_S / (CPU seconds of one block measured nearby).
REF_BLOCK_S = 0.0015
CAL_SHARE = 0.1  # reference work between operations, as a share of their CPU time
WINDOW_S = 0.25  # ops are normalized in groups of at least this much CPU time
SETUP_BLOCKS = 10

NVARS = 10


def _poly(k0):
    """14 terms; the exponents of term k are the base-3 digits of a number
    drawn from k and k0, so every term differs."""
    out = {}
    for k in range(14):
        code = (k * 7919 + k0 * 104729) % 3**NVARS
        out[tuple(code // 3**j % 3 for j in range(NVARS))] = Fraction((k % 9) - 4 or 1, k % 5 + 1)
    return out


_P, _Q = _poly(0), _poly(1)


def block():
    out = {}
    for m1, c1 in _P.items():
        for m2, c2 in _Q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def measure(blocks):
    """CPU seconds of ``blocks`` reference blocks."""
    start = time.process_time()
    for _ in range(blocks):
        block()
    return time.process_time() - start


class Calibrator:
    """Runs blocks between operations; ``after(op_cpu)`` returns the CPU
    time and number of the blocks it ran (often none after a short op)."""

    def __init__(self):
        self.owed = 0.0

    def after(self, op_cpu):
        self.owed += CAL_SHARE * op_cpu
        spent, blocks = 0.0, 0
        while self.owed > 0:
            t = measure(1)
            self.owed -= t
            spent += t
            blocks += 1
        return spent, blocks


def normalize(op_cpu, cal_cpu, cal_blocks):
    """Each op's CPU time in reference seconds.

    Consecutive ops are grouped until a group holds WINDOW_S of CPU time
    (a short last group joins the one before); each group is scaled by the
    mean block time measured between its own ops."""
    bounds, group = [0], 0.0
    for i, t in enumerate(op_cpu):
        group += t
        if group >= WINDOW_S:
            bounds.append(i + 1)
            group = 0.0
    if bounds[-1] != len(op_cpu):
        if len(bounds) > 1 and not sum(cal_blocks[bounds[-1]:]):
            bounds[-1] = len(op_cpu)
        else:
            bounds.append(len(op_cpu))
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        per_block = sum(cal_cpu[lo:hi]) / sum(cal_blocks[lo:hi])
        out += [x * REF_BLOCK_S / per_block for x in op_cpu[lo:hi]]
    return out
