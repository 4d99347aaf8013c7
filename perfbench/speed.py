"""Machine-speed calibration: times are reported at a reference speed.

The small shared machines this benchmark runs on change speed while it runs.
On the shared 2-core virtual machine where it was defined, the same
relations pass took 6.5 s to 11.9 s within minutes, with user CPU time
moving alike, so neither longer runs nor CPU time remove it. So each op is
paired with a short fixed calibration measured just before it, and its time
is scaled by reference / (median calibration near that op). On that machine
this brought passes of relations and compile from a 1.8x range to within
about 4% of each other, and the ratio of a CLI call to its calibration
stayed within about 5% while the calls themselves ranged over 1.4x.

Two calibrations, matched to the work they stand beside:
  loop_time   a pure-Python loop multiplying two small Laurent-style
              polynomials held in dicts, for in-process ops
  spawn_time  starting a bare interpreter, for ops that are CLI processes
              and for set-up, both dominated by process start
Neither uses library code, so a change to qwebs cannot move them. The
reference values are their times in that machine's fast state (Python
3.11.7), so reference seconds read as real seconds there.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

LOOP_REF_S = 0.00035
SPAWN_REF_S = 0.070
# an op's scale comes from the median calibration within WINDOW ops on each
# side, so one disturbed calibration does not skew it
WINDOW = 2

_POLY = {e: e + 2 for e in range(-4, 5)}


def loop_time():
    """Seconds taken by a fixed piece of pure-Python work (about 0.4 ms)."""
    t0 = time.perf_counter()
    for _ in range(30):
        c = {}
        for e1, v1 in _POLY.items():
            for e2, v2 in _POLY.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
    return time.perf_counter() - t0


def spawn_time():
    """Seconds to start and end `python3 -c pass` (about 0.07 s)."""
    t0 = time.perf_counter()
    # no timeout: with one, Popen.wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - t0


def to_reference(times, cals, ref):
    """Times scaled to the reference speed.

    cals[i] is the calibration measured before op i, or None where none was;
    ref is that calibration's reference time.
    """
    out = []
    for i, t in enumerate(times):
        near = [c for c in cals[max(0, i - WINDOW): i + WINDOW + 1] if c is not None]
        out.append(t * ref / statistics.median(near))
    return out
