"""Interpreter-speed reference for scaling measured times.

On a virtual machine that shares its cores with other tenants, the speed of
pure-Python code drifts by up to 2x over tens of seconds, and no counter
inside the guest shows it.  A fixed pure-Python loop, timed right next to a
measurement, slows down by about the same factor, so every reported time is
scaled to the loop's reference time:

    scaled = measured * REFERENCE_NS / loop_ns

REFERENCE_NS is about the loop's time on a quiet core of the 2.1 GHz Xeon
the benchmark was written on, so there a scaled time reads close to a
measured one.  A change to ramsys does not touch the loop, so it moves a
scaled time as much as a measured one.
"""

from __future__ import annotations

import time

LOOPS = 20_000
REFERENCE_NS = 1_150_000


def _step(value: int, increment: int = 1) -> int:
    return value + increment


def loop_ns() -> int:
    """Time of the reference loop, now.  Of the loops tried (integer
    arithmetic; dict, tuple and str allocation; generator expressions and
    f-strings; plain calls), this one of plain calls tracked the drift of all
    three workloads best."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(LOOPS):
        acc = _step(acc)
    return time.perf_counter_ns() - start


def scale(ns: float, loop: float) -> float:
    return ns * REFERENCE_NS / loop
