"""The host's speed, sampled while a workload runs, and times scaled by it.

The benchmark runs on a shared host whose CPU speed moves by up to 1.8x in
phases that last from seconds to minutes, so a wall-clock time says as much
about the host as about the program.  Each of the two vCPUs switches
between a fast and a slow state on its own, often several times a second.
:class:`HostSpeed` measures the host alongside the program with *ticks*:
one fixed pure-Python loop (:func:`tick_work`, with the garbage collector
off), timed.  The loop is part of the benchmark, never of the program, so a
change to the program moves the program's times but not the ticks.

A tick must run on the CPU the work runs on, close in time to it:

- Work done in this process: :meth:`HostSpeed.start` ticks from a
  ``SIGALRM`` handler every :data:`TICK_PERIOD_S`, in the main thread, in
  between the work itself.
- Work done in other processes: inside :meth:`HostSpeed.paused`,
  :meth:`HostSpeed.sample` ticks at points where the workload is idle, on
  the CPU the work is pinned to or on each CPU the work spreads over.  A
  tick taken while another process of the workload runs would time the
  contention, not the host.

:meth:`HostSpeed.scaled` turns the wall time of an interval into
*reference seconds*: the wall time multiplied by :data:`REFERENCE_TICK_S`
over the median tick recorded in and around the interval.  It is the time
the interval would have taken on a host where one tick takes exactly
:data:`REFERENCE_TICK_S`.  A slow phase of the host lengthens the interval
and the ticks alike, and the ratio stays.  The ticks' own time (about 1% of
the wall time) stays inside the intervals; it slows with the host as well.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import os
import signal
import time
from statistics import median
from typing import Iterable, Iterator, List, Optional, Tuple

#: Seconds between two ticks.
TICK_PERIOD_S = 0.1

#: The tick duration that one reference second is scaled to.
REFERENCE_TICK_S = 0.001

#: Ticks this far before or after an interval also speak for it, so a
#: short interval still has several.  More than half the ``served``
#: workload's stretch between two samples, so every job has some.
PAD_S = 0.6

#: Ticks taken at once by :meth:`HostSpeed.sample`.
QUIET_TICKS = 4


class _Node:
    __slots__ = ("op", "args", "width")

    def __init__(self, op: int, args: Tuple[int, ...], width: int) -> None:
        self.op, self.args, self.width = op, args, width


def _key(node: _Node) -> Tuple[int, int, Tuple[int, ...]]:
    return (node.op, node.width, node.args)


def tick_work(n: int = 600) -> int:
    """The fixed loop a tick times: object creation, hashing, a dict, a
    sort and string formatting, the kind of work the checker does."""
    table = {}
    nodes = []
    text = []
    for i in range(n):
        node = _Node(i % 7, (i, i >> 1, i & 3), 32 if i & 1 else 8)
        key = _key(node)
        table[key] = table.get(key, 0) + 1
        nodes.append(node)
        if i % 5 == 0:
            text.append(f"v{i}:{node.op}")
    nodes.sort(key=_key)
    checksum = 0
    for node in nodes:
        checksum ^= hash(node.args) & 0xFFFF
    return checksum + len(",".join(text))


class HostSpeed:
    """Ticks recorded between :meth:`start` and :meth:`stop`, or taken by
    :meth:`sample`."""

    def __init__(self) -> None:
        self.starts: List[float] = []        # in order, perf_counter()
        self.durations: List[float] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            tick_work()
            self.durations.append(time.perf_counter() - started)
            self.starts.append(started)
        finally:
            if enabled:
                gc.enable()

    def sample(self, cpus: Iterable[int] = ()) -> None:
        """:data:`QUIET_TICKS` ticks now, at a point where the workload is
        idle, on each of ``cpus`` in turn (where the process runs when none
        is named).  Only while :meth:`start` is not ticking."""
        pinned = sorted(cpus)
        allowed = os.sched_getaffinity(0) if pinned else None
        try:
            for cpu in pinned or [None]:
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                for _ in range(QUIET_TICKS):
                    self._tick(None, None)
        finally:
            if allowed is not None:
                os.sched_setaffinity(0, allowed)

    def start(self) -> None:
        """Tick every :data:`TICK_PERIOD_S` until :meth:`stop`."""
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """No timed ticks inside: the workload runs processes of its own
        there and takes its ticks with :meth:`sample`."""
        ticking = self._previous is not None
        self.stop()
        try:
            yield
        finally:
            if ticking:
                self.start()

    def tick_near(self, start: float, end: float) -> Optional[float]:
        """Median tick that started within :data:`PAD_S` of ``[start, end]``,
        or the median of every tick when none did, or None without ticks."""
        if not self.durations:
            return None
        low = bisect.bisect_left(self.starts, start - PAD_S)
        high = bisect.bisect_right(self.starts, end + PAD_S)
        near = self.durations[low:high] or self.durations
        return median(near)

    def scaled(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` in reference seconds; the plain
        wall time when no tick was recorded."""
        tick = self.tick_near(start, end)
        wall = end - start
        return wall if tick is None else wall * REFERENCE_TICK_S / tick
