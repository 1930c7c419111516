"""Host-speed normalization of job times.

The benchmark runs on shared virtual machines whose speed drifts with
their neighbours' load.  On a 2-core VM, a fixed pure-Python loop timed in
consecutive 12-second windows had an interquartile range of 14-15% of its
median, and one fixed round of `lattice` jobs, repeated in one process,
took 1.1 to 2.1 s.  Such drift reaches every job family, so no choice of
jobs avoids it, and it is slow enough (seconds to minutes) that longer
runs do not average it out.

So the worker runs probes between jobs: a fixed piece of work whose time
tracks how fast the host runs the engine's kind of work at that moment.
A probe has two halves of about equal time: interpreter work (tuples,
dicts, frozensets, integer arithmetic), as in the lattice and LP code, and
a numpy pass shaped like the engine's box enumeration (floor division,
modulo, integer matrix products and a bincount, streaming through 3 MB
of arrays).  The numpy half follows the drift of the memory-bound
enumeration jobs; the interpreter half, of the rest.  Probes run with
the garbage collector off, allocate no large block and free what they
allocate, so they neither collect the engine's objects nor change its
memory.

Probes take PROBE_SHARE of the job time: after each job the worker probes
until the probes have caught up with that share of all job time so far.
Jobs are grouped, in order, into segments of at least SEGMENT_S of job
time (a shorter tail joins the segment before it).  Each job's time is
multiplied by REFERENCE_PROBE_S over the median probe time of its
segment: a scaled time is what the job would take on a host on which one
probe takes REFERENCE_PROBE_S.  A set-up time is scaled the same way, by
the probes that run right after the set-up.

Over ten runs of each workload (one seed each), scaling cut the IQR of
the throughput, as a share of its median, from 0.22 to 0.05 (lattice),
0.10 to 0.03 (sweep), 0.11 to 0.08 (intfit) and 0.13 to 0.08 (matroid).

The probe is benchmark code: a change to the engine does not change it.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

PROBE_SHARE = 0.08
SEGMENT_S = 2.0
SETUP_PROBES = 15
# About the probe's median time on a 2-core Xeon VM with Python 3.11 and
# numpy 2.4, so scaled times there read close to the wall times.
REFERENCE_PROBE_S = 3.2e-3

_KEYS = tuple((i, i * 7 % 13, i & 5) for i in range(400))
_PY_REPEATS = 6

# A nullity-5 integer box with k = 5: (2k-1)^5 candidates, of which the
# probe takes the first 2^14 rows.  Its arrays (3 MB) are allocated once,
# here: a probe that allocated large arrays would move the C allocator's
# mmap threshold and so change the engine's own peak memory.
_ROWS = 1 << 14
_IDX = np.arange(_ROWS, dtype=np.int64)
_POW = 9 ** np.arange(4, -1, -1, dtype=np.int64)
_EXPR_T = np.array([[1, 0, 1, -1, 0], [-1, 1, 0, 1, 0], [0, 1, -1, 1, 1], [1, -1, 1, 0, 1]],
                   dtype=np.int64)
_BITS_FREE = 1 << np.arange(5, dtype=np.int64)
_BITS_BASIC = 1 << np.arange(5, 9, dtype=np.int64)
# One row per coordinate, one column per candidate.
_X_FREE = np.empty((5, _ROWS), dtype=np.int64)
_X_BASIC = np.empty((4, _ROWS), dtype=np.int64)
_NONZERO_FREE = np.empty((5, _ROWS), dtype=np.int64)
_NONZERO_BASIC = np.empty((4, _ROWS), dtype=np.int64)
_IN_BOX = np.empty((4, _ROWS), dtype=bool)
_OK = np.empty(_ROWS, dtype=np.int64)
_SUPP = np.empty(_ROWS, dtype=np.int64)
_SUPP_BASIC = np.empty(_ROWS, dtype=np.int64)


def _interpreter_work() -> int:
    acc = 0
    for _ in range(_PY_REPEATS):
        table = {}
        for key in _KEYS:
            table[key] = frozenset(key)
            acc += len(table[key]) + (key[0] * key[0]) % 11
        for key in _KEYS[:200]:
            acc ^= hash(table[key]) & 255
    return acc


def _numpy_work() -> int:
    """Supports of the box's flows (0 for a candidate outside the box),
    without allocating an array of more than 10 KiB."""
    for j in range(5):
        np.floor_divide(_IDX, _POW[j], out=_X_FREE[j])
    np.remainder(_X_FREE, 9, out=_X_FREE)
    np.subtract(_X_FREE, 4, out=_X_FREE)
    np.matmul(_EXPR_T, _X_FREE, out=_X_BASIC)
    np.abs(_X_BASIC, out=_NONZERO_BASIC)
    np.less_equal(_NONZERO_BASIC, 4, out=_IN_BOX)
    np.all(_IN_BOX, axis=0, out=_OK)
    np.not_equal(_X_FREE, 0, out=_NONZERO_FREE)
    np.not_equal(_X_BASIC, 0, out=_NONZERO_BASIC)
    np.matmul(_BITS_FREE, _NONZERO_FREE, out=_SUPP)
    np.matmul(_BITS_BASIC, _NONZERO_BASIC, out=_SUPP_BASIC)
    np.add(_SUPP, _SUPP_BASIC, out=_SUPP)
    np.multiply(_SUPP, _OK, out=_SUPP)
    return int(np.bincount(_SUPP, minlength=1 << 9)[1:].sum())


def probe() -> float:
    """Seconds one run of the probe work takes, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _interpreter_work()
        _numpy_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def setup_factor() -> float:
    """The scale for a set-up time: REFERENCE_PROBE_S over the median of
    SETUP_PROBES probes run right after the set-up."""
    return REFERENCE_PROBE_S / statistics.median(probe() for _ in range(SETUP_PROBES))


class Prober:
    """Runs probes between jobs, PROBE_SHARE of the job time in all."""

    def __init__(self):
        self.debt = 0.0

    def after_job(self, job_s: float, last: bool = False) -> list[float]:
        """Probe until the probes have caught up with their share of the
        job time so far (at least once after the last job); return the
        probe times."""
        self.debt += PROBE_SHARE * job_s
        out = []
        while self.debt > 0 or (last and not out):
            out.append(probe())
            self.debt -= out[-1]
        return out


def scale(times: list[float], probe_times: list[list[float]]) -> list[float]:
    """Job times scaled to the reference speed.  probe_times[i] holds the
    probes that ran after job i."""
    cuts = [0]
    busy = 0.0
    for i, t in enumerate(times):
        busy += t
        if busy >= SEGMENT_S:
            cuts.append(i + 1)
            busy = 0.0
    if cuts[-1] != len(times):
        if len(cuts) > 1:
            cuts[-1] = len(times)  # the short tail joins the last segment
        else:
            cuts.append(len(times))
    scaled = []
    for a, b in zip(cuts, cuts[1:]):
        factor = REFERENCE_PROBE_S / statistics.median(p for ps in probe_times[a:b] for p in ps)
        scaled += [t * factor for t in times[a:b]]
    return scaled
