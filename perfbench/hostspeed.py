"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares its CPUs with other tenants of the host, and the speed
they leave it drifts by up to 1.6x within minutes. ``run.py`` and the
workloads time a reference kernel between passes and between operations, and
the end-to-end timings are reported as multiples of its time at that moment
(unit ``ref``). A run made while the host is slow and one made while it is
fast then read nearly the same, and a change to gatesafe moves them as much
as it moves the times in seconds, which the info line still reports.

The kernels import nothing from gatesafe and their inputs are fixed, so they
do the same work on every commit. Code of different kinds slows by different
amounts when the host is busy, so there are two, each made of the kind of
code a workload spends its time on:

- ``vector`` (``grid``, ``filter_stream``): numpy calls on 3-vectors, as in
  the per-step geometry, barrier and QP code (about 70% of its time), and
  random gathers of 120 rows from a 16 MB table, as in sampling a map
  (about 30%);
- ``array`` (``maps``): whole-array arithmetic over 8 MB arrays, as in
  building a map over a million nodes.

Their arrays are made before and dropped after each timing, so they add
nothing to peak memory.
"""
from __future__ import annotations

import time

import numpy as np

VECTOR_CALLS = 700
GATHER_ROWS = 220
ROW = 120  # the filter_stream batch width
TABLE_SIZE = 2_000_000  # float64, 16 MB
ARRAY_SIZE = 1_000_000  # float64, 8 MB


def _vector() -> float:
    rng = np.random.default_rng(0)
    v = rng.random(3)
    small = rng.random((ROW, 3))
    index = rng.integers(0, TABLE_SIZE, size=(GATHER_ROWS, ROW))
    table = np.arange(TABLE_SIZE, dtype=np.float64) * 1e-7
    t0 = time.perf_counter()
    for _ in range(VECTOR_CALLS):
        np.clip(np.dot(v, v) + v, 0.0, 1.0)
        np.linalg.norm(v)
    for rows in index:
        np.clip(np.einsum("ij,ij->i", small, small) + table[rows], 0.0, 1.0)
    return time.perf_counter() - t0


def _array() -> float:
    a = np.arange(ARRAY_SIZE, dtype=np.float64) * 1e-6
    b = np.ones(ARRAY_SIZE)
    t0 = time.perf_counter()
    np.minimum(np.sqrt(a * a + b), b)
    return time.perf_counter() - t0


KERNELS = {"vector": _vector, "array": _array}


def reference_seconds(kind: str) -> float:
    """One timing of the ``kind`` kernel, in seconds (about 10 ms on a 2 GHz Xeon)."""
    return KERNELS[kind]()


class PassSampler:
    """Reference timings taken between the operations of one timed pass.

    Times are pass seconds: seconds since the pass began, less the time the
    reference timings took, which the pass also leaves out of its wall.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.points: list[tuple[float, float]] = []  # (pass seconds, reference seconds)
        self.op_mids: list[float] = []  # pass seconds at the middle of each operation
        self.paused = 0.0
        self.span = 0.0
        self._start = time.perf_counter()

    def op(self, start: float, end: float) -> None:
        """Record an operation timed from ``start`` to ``end`` (perf_counter)."""
        self.op_mids.append((start + end) / 2.0 - self._start - self.paused)

    def sample(self) -> None:
        t0 = time.perf_counter()
        ref = reference_seconds(self.kind)
        self.points.append((t0 - self._start - self.paused, ref))
        self.paused += time.perf_counter() - t0

    def close(self) -> None:
        self.span = time.perf_counter() - self._start - self.paused

    def references(self, before: float, after: float) -> tuple[float, np.ndarray]:
        """Mean reference seconds over the pass, and at each operation.

        The reference time is taken as linear between the timing before the
        pass (``before``), those inside it and the one after it (``after``).
        The mean is weighted by time.
        """
        t = np.array([0.0] + [p[0] for p in self.points] + [self.span])
        r = np.array([before] + [p[1] for p in self.points] + [after])
        t = np.minimum(t, self.span)
        mean = float(np.sum(np.diff(t) * (r[1:] + r[:-1]) / 2.0) / self.span)
        return mean, np.interp(self.op_mids, t, r)
