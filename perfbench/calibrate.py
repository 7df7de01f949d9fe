"""Host-speed calibration: a fixed piece of work timed between the ops.

The benchmark shares a few vCPUs of a host with other tenants, and the
speed of those vCPUs drifts in phases of seconds to minutes: a fixed
pure-Python loop takes anywhere from 11 to 27 ms, with CPU steal under
3% (so CPU time drifts just as wall time does).  A median over a run's
chunks cannot remove a phase that covers half the run or more.

So the load generator times :func:`reference` (fixed interpreter work of
the kind the serving path does: dict probes and stores, calls, attribute
writes and small numpy ufuncs, allocating no containers) every
:data:`EVERY` ops, on the serving thread.  Its median time in a stretch
of the run over :data:`REFERENCE_S` is the host's *slowdown* there.  The
program does not slow down as much as the reference: part of its time
is spent waiting on memory, which the contention stretches less.  So
each figure taken in a stretch is divided by ``1 - share + share *
slowdown``, with the share of the figure that the host's speed moves
(below), and reads as if the host had run at its nominal speed.  The
reference is the benchmark's own code, so a change to the program moves
the reported figures and a change in the host's speed does not.

The time spent in the reference itself is cut out of every interval it
falls in, so no op's latency and no chunk's duration includes it.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Ops between two timings of the reference.
EVERY = 1_024

#: Reference timings before and after each fleet build.
AROUND_SETUP = 16

#: The reference's duration on the nominal host (a quiet vCPU of an
#: Intel Xeon at 2.1 GHz, CPython 3.11).
REFERENCE_S = 3.5e-4

#: Shares of a figure that the host's slowdown stretches, chosen so that
#: the median figures of runs in quiet phases (slowdown under 1) and in
#: contended ones (over 1.5) agree.  Over 100 runs of hot-read,
#: cold-mixed and failover, that took 0.75 to 1 for the serving path's
#: throughput and latencies, and 0.3 to 0.35 for a fleet build (numpy
#: work over large arrays and dict inserts).
SERVING_SHARE = 0.9
SETUP_SHARE = 0.3

_SIZE = 256
_KEYS = list(range(_SIZE))
_TABLE = dict.fromkeys(_KEYS, 0)
_ARRAY = np.arange(_SIZE, dtype=np.float64)
_OUT = np.empty(_SIZE, dtype=np.float64)
_ROUNDS = 12


class _Slot:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _bump(slot: _Slot, value: int) -> int:
    slot.value = value
    return slot.value


def reference() -> int:
    """Fixed work; returns a checksum so that none of it is skipped."""
    table, keys, slot = _TABLE, _KEYS, _Slot()
    total = 0
    for round_ in range(_ROUNDS):
        for key in keys:
            table[key] = key + round_
            total += _bump(slot, table.get(key, 0))
        np.add(_ARRAY, round_, out=_OUT)
        np.multiply(_OUT, 0.5, out=_OUT)
    return total


def stretch(slowdown: float, share: float) -> float:
    """How much longer than nominal a program with ``share`` of its time
    sensitive to the host's speed runs at ``slowdown``."""
    return 1.0 - share + share * slowdown


class Calibration:
    """Timings of :func:`reference`: when each ended and what it took."""

    def __init__(self) -> None:
        self.ended = array("d")
        #: Duration of each timed pass, and of both passes together.
        self.took = array("d")
        self.spent = array("d")

    def measure(self) -> float:
        """Time the reference once; returns the time spent.

        A first, untimed pass brings the reference back into the caches
        the program's work evicted, so the timed pass does not depend on
        how much memory the program touches.
        """
        warming = time.perf_counter()
        reference()
        started = time.perf_counter()
        reference()
        ended = time.perf_counter()
        self.ended.append(ended)
        self.took.append(ended - started)
        self.spent.append(ended - warming)
        return ended - warming

    @property
    def total_s(self) -> float:
        return float(sum(self.spent))

    def paused_before(self, at: np.ndarray) -> np.ndarray:
        """Reference time spent before each timestamp in ``at``.

        The reference runs on the serving thread, so no timestamp is
        taken inside it; subtracting this from a timestamp gives the time
        the program would have read without the reference.
        """
        paused = np.concatenate(([0.0], np.cumsum(np.asarray(self.spent))))
        return paused[np.searchsorted(np.asarray(self.ended), at, side="right")]

    def slowdown(self, first: float = -np.inf, last: float = np.inf) -> float:
        """How much slower than nominal the host ran in ``(first, last]``.

        The median reference time in the interval over
        :data:`REFERENCE_S`; the median of all timings when none fall in
        it, and 1 when there are none at all.
        """
        ended, took = np.asarray(self.ended), np.asarray(self.took)
        if took.size == 0:
            return 1.0
        inside = took[(ended > first) & (ended <= last)]
        return float(np.median(inside if inside.size else took)) / REFERENCE_S
