"""Measurement helpers: percentiles, host-speed calibration, CPU and
memory readings, the answer oracle."""

from __future__ import annotations

import os
import resource
import statistics
from collections import Counter
from time import perf_counter
from typing import Iterable, Optional

import numpy as np

from repro.graph.model import BasicGraphPattern, Var
from repro.perf.hostmeta import peak_rss_bytes


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p90(values: list[float]) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method);
    with fewer than two values, the single value."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# -- host-speed calibration ----------------------------------------------------

#: About the median time of :func:`calibration_s` on the reference host
#: (2-CPU x86-64 VM, Python 3.11).  Only the scale of the reported
#: times depends on it; it is a constant so every commit shares it.
CALIBRATION_REF_S = 1.0e-3
_CAL_KEYS = np.arange(0, 1 << 16, 7, dtype=np.int64)
_CAL_PROBES = np.arange(0, 1 << 16, 61, dtype=np.int64)


def _cal_step(i: int, acc: dict) -> int:
    return (acc.get(i & 255, 0) + i) % 1000003


def calibration_s() -> float:
    """Seconds one fixed pass of interpreter and small-numpy work takes,
    the instruction mix of the query engines (dict/int churn and calls,
    ``searchsorted`` over short arrays).  The benchmark runs it between
    ops, untimed, so it sees the host as the ops saw it."""
    start = perf_counter()
    acc: dict = {}
    for i in range(2000):
        acc[i & 255] = _cal_step(i, acc)
    for _ in range(20):
        np.searchsorted(_CAL_KEYS, _CAL_PROBES)
    return perf_counter() - start


def host_scale(samples: list[float]) -> float:
    """Factor that turns a time measured on this host, now, into the
    reference host's time: ``CALIBRATION_REF_S / median(samples)``."""
    return CALIBRATION_REF_S / statistics.median(samples)


#: Ops on each side of an op whose calibration passes scale it.
CALIBRATION_HALF_WIDTH = 3


def local_scales(samples: list[float]) -> list[float]:
    """Per-op :func:`host_scale` of the calibration passes run after the
    op and after up to ``CALIBRATION_HALF_WIDTH`` ops on each side.  The
    host's speed changes within seconds: on five ``wgpb-ring`` runs one
    run-wide factor left ``query_p50_ms`` spreading 0.17, this one 0.04."""
    h = CALIBRATION_HALF_WIDTH
    return [host_scale(samples[max(0, i - h): i + h + 1]) for i in range(len(samples))]


# -- memory --------------------------------------------------------------------


def _smaps_kb(pid: str, keys: tuple[bytes, ...]) -> int:
    total = 0
    with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
        for line in fh:
            if line.startswith(keys):
                total += int(line.split()[1])
    return total


def footprint_mb() -> float:
    """Resident memory of this process and its live children (pool
    workers) in MiB: this process's ``Rss`` plus each child's private
    pages, so pages a forked worker shares with this process count once.
    A current reading; the caller keeps the maximum over its samples."""
    try:
        kb = _smaps_kb("self", (b"Rss:",))
    except OSError:  # no smaps_rollup (pre-4.14 kernel or not Linux)
        return (peak_rss_bytes() or 0) / (1 << 20)
    for pid in _live_children():
        try:
            kb += _smaps_kb(str(pid), (b"Private_Clean:", b"Private_Dirty:"))
        except (OSError, ValueError, IndexError):
            continue  # exited between listing and reading
    return kb / 1024


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as fh:
        fields = fh.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _live_children() -> list[int]:
    pids: list[int] = []
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tasks:
        try:
            with open(f"/proc/self/task/{tid}/children", "rb") as fh:
                pids.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return pids


def cpu_seconds() -> float:
    """CPU seconds of this process, its reaped children and its live
    children (pool workers), so a delta over a window counts all three.

    ``RUSAGE_CHILDREN`` alone misses workers that are still alive; their
    time is read from ``/proc`` instead.  A worker reaped inside the
    window moves from the live term to the reaped one, so deltas stay
    consistent.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for pid in _live_children():
        try:
            total += _proc_cpu_s(pid)
        except (OSError, IndexError, ValueError):
            continue  # exited between listing and reading
    return total


# -- the answer oracle ---------------------------------------------------------


def _instantiate(pattern, row) -> tuple[int, int, int]:
    return tuple(
        int(row[t]) if isinstance(t, Var) else int(t) for t in pattern.terms
    )


def check_rows(
    bgp: BasicGraphPattern,
    rows: Iterable[dict],
    triples: set,
    limit: Optional[int],
) -> Optional[str]:
    """``None`` when every row is a solution of ``bgp`` over ``triples``
    (each instantiated pattern is a triple), no row repeats and the row
    count respects ``limit``; otherwise what went wrong."""
    variables = bgp.variables()
    patterns = bgp.patterns
    seen = set()
    n = 0
    for row in rows:
        n += 1
        try:
            key = tuple(int(row[v]) for v in variables)
        except KeyError as exc:
            return f"row {row!r} lacks variable {exc}"
        if key in seen:
            return f"row {row!r} repeats"
        seen.add(key)
        for pattern in patterns:
            if _instantiate(pattern, row) not in triples:
                return f"row {row!r} makes {pattern!r} a non-triple"
    if limit is not None and n > limit:
        return f"{n} rows exceed limit {limit}"
    return None


def row_multiset(bgp: BasicGraphPattern, rows: Iterable[dict]) -> Counter:
    variables = bgp.variables()
    return Counter(tuple(int(row[v]) for v in variables) for row in rows)
