"""Host-speed calibration.

The benchmark runs on shared virtual CPUs whose speed drifts by up to
about 2x within minutes: other tenants load the sibling hardware threads.
CPU time drifts with wall time, so neither can tell a slower program from
a slower host.  So the workers time a fixed piece of exact arithmetic
next to the documents, and every time is scaled by REFERENCE_S / (the
calibration time measured around it).  A figure then reads as if the
calibration took REFERENCE_S: on a host as fast as the one the constant
came from, the figures equal the raw ones.  The raw figures are printed
beside the scaled ones.

The calibration uses the benchmark's own Q(zeta_12) arithmetic on
Fractions (gen.Field).  Like colorhom's scans, it is interpreter-bound
work made of small-object churn, big-integer gcds and function calls.
Through a 2x drift of the raw pass times of certify-dense, the scaled
pass times showed no trend and about 6% scatter; a pure integer loop in
its place left part of the drift in.  Nothing in it depends on colorhom.
"""

import statistics
import time
from fractions import Fraction

import gen

# calibration time of one calibrate() call on the reference host
# (2 shared vCPUs, Intel Xeon, Python 3.11, while the host ran fast)
REFERENCE_S = 0.002

_F = gen.Field(12)
_OPERANDS = tuple(
    tuple(Fraction(p, q) for p, q in row)
    for row in (((1, 2), (-3, 1), (2, 3), (5, 7)),
                ((2, 1), (1, 5), (-1, 2), (3, 4)),
                ((7, 3), (0, 1), (1, 1), (-2, 9)))
)
_STEPS = 18
_MAX_DEN = 10 ** 12


def _work():
    acc = _F.one()
    for i in range(_STEPS):
        acc = _F.add(_F.mul(acc, _OPERANDS[i % 3]), _OPERANDS[(i + 1) % 3])
        if any(c.denominator > _MAX_DEN for c in acc):
            acc = _F.one()
    return acc


def calibration_s():
    """Seconds one calibration takes right now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def speed_s(repeats=5):
    """Median of several calibrations: the host speed at this moment."""
    return statistics.median(calibration_s() for _ in range(repeats))


def scale(seconds, calibration):
    """`seconds` measured while a calibration took `calibration`, at the
    reference host speed."""
    return seconds * REFERENCE_S / calibration
