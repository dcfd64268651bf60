"""The machine's current speed, measured with a fixed calibration loop.

On a shared VM the same pass over the same models took anywhere from 3.9 to
5.9 s within four minutes, in CPU time as much as in wall time: the host's
speed drifts over seconds and minutes.  A median over the passes of one run
removes bursts but not that drift, so two runs a minute apart disagree by
more than the benchmark's bounds.  The time metrics are therefore rescaled
to a reference speed: calibrations bracket the set-up and every stretch of
a second or two of reports, and each time is multiplied by REFERENCE_S /
(the mean of the two calibrations around it).  The speed changes within
seconds, so one calibration per run, or the median of a run's calibrations,
tracks it worse (over four-pass windows of group_torus:4..7, a spread of
0.11-0.22 against 0.07).

The calibration is fraction-free (Bareiss) elimination of one fixed integer
matrix, in plain Python on builtins only: growing integers, list
comprehensions and indexing, like the engine's exact elimination, but no code
of cartanss and nothing it could patch (not even `fractions`).  It runs with
the cyclic garbage collector off, so objects the program leaves behind do not
change its cost.  A change to the program therefore moves the rescaled times
exactly as it moves the wall times.
"""

from __future__ import annotations

import gc
import time

# The calibration's time at the reference speed.  Rescaled times are seconds
# at a speed where one calibration takes this long (about this machine's
# speed: a shared 2-vCPU Linux VM, where it measured 0.19-0.31 s).
REFERENCE_S = 0.25
SIZE = 48
ROUNDS = 14


def _matrix() -> list[list[int]]:
    x = 12345
    rows = []
    for _ in range(SIZE):
        row = []
        for _ in range(SIZE):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


def _bareiss(base: list[list[int]]) -> int:
    m = [row[:] for row in base]
    prev = 1
    for k in range(SIZE - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, SIZE) if m[r][k]), None)
            if swap is None:
                continue
            m[k], m[swap] = m[swap], m[k]
        p, pivot_row = m[k][k], m[k]
        for r in range(k + 1, SIZE):
            row, a = m[r], m[r][k]
            m[r] = [(p * row[j] - a * pivot_row[j]) // prev for j in range(SIZE)]
        prev = p
    return m[-1][-1]


def calibrate() -> float:
    """Wall time of the fixed calibration work, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        base = _matrix()
        for _ in range(ROUNDS):
            _bareiss(base)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two calibrations into
    seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
