"""Reduce per-node performance archives to one summary per job.

Counter metrics accumulate monotonically: the job's value is the epilog
reading minus the prolog reading, summed over the job's nodes, with a counter
reset treated as contributing the post-reset value.  Instantaneous metrics
are point samples: only readings strictly inside the job's run window are
used, unweighted.  Jobs with no in-window samples get absent fields, never
zeros.

A ``JobArchive`` holds its perf and meminfo records as numpy columns
(``SampleColumns``, ``MemColumns``), ordered by node, metric and time, with
records of equal keys in the order they were read.  ``load_archives`` reads
the file a chunk of lines at a time into one typed ``array`` per column per
job (int32 codes, int64 times, int8 kind and tag, float64 values), and the
NUMA components of every meminfo sample into one int64 buffer for the file.
A perf or meminfo line spelled as ``json.dumps`` writes the record with its
keys in the documented order (plain names, integers of at most 15 digits,
an unsigned ``value`` without exponent; docs/formats.md) is taken by one
pattern match, and each job's run of such lines is appended a column at a
time, its integers parsed by numpy's text parser.  Every other line, in its
place in the file, goes through the loaders' per-line JSON reader
(``ingest._json_line``), is checked field by field and appended one record
at a time to the same buffers, or is rejected with a SchemaError naming its
line.  Archives built from ``PerfSample`` and ``MemInfoSample`` records are
converted once, by the same column builder.
``summarize_all`` gathers consecutive jobs into blocks of up to
``_BLOCK_SAMPLES`` samples and reduces each block with one run of whole-array
kernels keyed by (job, node, metric): counter totals and resets, missing
prologs and epilogs, runnable-thread medians and memory per core.  Only the
application label, the flags and the summary object are built job by job.
``summarize_job`` is the same kernels run on a block of one job; the
record-at-a-time implementation they replaced is kept in the tests as their
reference.  ``write_summaries`` replaces its target whole or not at all.
"""
from __future__ import annotations

import json
import os
import re
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, compress, groupby, repeat
from operator import itemgetter, not_
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import appident
from .errors import InvalidMemInfo, MissingEpilog, MissingProlog, SchemaError
from .ingest import (
    _BLANK,
    JobRecord,
    _as_float,
    _as_int,
    _as_str,
    _json_line,
    _json_scanner,
)

# canonical counter metric names in the archive schema
CPU_USER = "cpu_user_ticks"
CPU_TOTAL = "cpu_total_ticks"
LUSTRE_RX = "lustre_rx_bytes"
LUSTRE_TX = "lustre_tx_bytes"
IB_RX = "ib_rx_bytes"
IB_TX = "ib_tx_bytes"
FILE_OPENS = "file_opens"
# canonical instantaneous metric name
RUNNABLE_THREADS = "runnable_threads"


class SampleKind(str, Enum):
    COUNTER = "counter"
    INSTANTANEOUS = "instantaneous"


class SampleTag(str, Enum):
    PERIODIC = "periodic"
    JOB_PROLOG = "job_prolog"
    JOB_EPILOG = "job_epilog"


class LaunchType(str, Enum):
    SERIAL = "serial"
    MULTI_PROCESS = "multi_process"
    MULTI_THREADED = "multi_threaded"
    MULTI_PROCESS_MULTI_THREADED = "multi_process_multi_threaded"
    UNKNOWN = "unknown"


@dataclass(frozen=True, slots=True)
class PerfSample:
    node: str
    time: int
    metric: str
    kind: SampleKind
    value: float
    tag: SampleTag = SampleTag.PERIODIC

    def __post_init__(self):
        # the loader's rule: NaN fails both comparisons
        if not 0 <= self.value <= _FLOAT_MAX:
            raise ValueError(f"sample value for {self.metric} must be finite and >= 0")


@dataclass(frozen=True, slots=True)
class NumaMem:
    mem_total: int
    mem_free: int
    file_pages: int
    slab: int

    def used_bytes(self) -> int:
        if min(self.mem_total, self.mem_free, self.file_pages, self.slab) < 0:
            raise InvalidMemInfo("negative meminfo component")
        used = self.mem_total - self.mem_free - self.file_pages - self.slab
        if used < 0:
            raise InvalidMemInfo("free+cache exceeds MemTotal")
        return used


@dataclass(frozen=True, slots=True)
class MemInfoSample:
    node: str
    time: int
    numa_nodes: tuple[NumaMem, ...]


@dataclass(frozen=True, slots=True)
class LauncherInfo:
    exe: str | None
    n_processes: int = 1
    threads_per_process: int = 1


# integers in archives must be exact in a double, so the columns hold them
# without rounding: times, NUMA components and counts
_EXACT = 2 ** 53
_FLOAT_MAX = sys.float_info.max
# codes of the enum members in the columns: their position in the enum
_KIND_CODE = {kind.value: code for code, kind in enumerate(SampleKind)}
_TAG_CODE = {tag.value: code for code, tag in enumerate(SampleTag)}
_INSTANTANEOUS = _KIND_CODE[SampleKind.INSTANTANEOUS.value]
_PERIODIC = _TAG_CODE[SampleTag.PERIODIC.value]
_PROLOG = _TAG_CODE[SampleTag.JOB_PROLOG.value]
_EPILOG = _TAG_CODE[SampleTag.JOB_EPILOG.value]


@dataclass(frozen=True, slots=True, eq=False)
class SampleColumns:
    """One job's perf samples, one array per field, ordered by (node,
    metric, time); samples with equal keys keep the order they were read in.

    ``node`` and ``metric`` index the ``nodes`` (sorted) and ``metrics``
    name tables; ``kind`` and ``tag`` are positions in ``SampleKind`` and
    ``SampleTag``.
    """

    nodes: tuple[str, ...]
    metrics: tuple[str, ...]
    node: np.ndarray
    time: np.ndarray
    metric: np.ndarray
    kind: np.ndarray
    value: np.ndarray
    tag: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True, slots=True, eq=False)
class MemColumns:
    """One job's meminfo samples ordered by (node, time), ties in the order
    read.  Sample i's NUMA nodes are rows ``numa_bounds[i]:numa_bounds[i+1]``
    of ``numa``, whose columns are mem_total, mem_free, file_pages, slab."""

    nodes: tuple[str, ...]
    node: np.ndarray
    time: np.ndarray
    numa_bounds: np.ndarray
    numa: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


class _Codes(dict):
    """Codes of names in order of first appearance: looking up a name not
    seen before gives it the next code."""

    __slots__ = ()

    def __missing__(self, name) -> int:
        code = self[name] = len(self)
        return code


_NUMA_FIELDS = ("mem_total", "mem_free", "file_pages", "slab")


class _ColumnBuilder:
    """One typed buffer per column of one job's perf and meminfo samples,
    in the order they arrive; ``sample_columns``/``mem_columns`` sort them
    into columns.  A meminfo sample's NUMA components go to a buffer of the
    caller's, which the builder records rows of."""

    __slots__ = ("node_codes", "node", "time", "metric", "kind", "value", "tag",
                 "mem_node", "mem_time", "numa_row", "numa_count")

    def __init__(self):
        self.node_codes = _Codes()
        self.node, self.time, self.metric = array("i"), array("q"), array("i")
        self.kind, self.value, self.tag = array("b"), array("d"), array("b")
        self._empty_meminfo()

    def _empty_meminfo(self) -> None:
        self.mem_node, self.mem_time = array("i"), array("q")
        # the sample's first row in the NUMA buffer, and its row count
        self.numa_row, self.numa_count = array("q"), array("i")

    def add_perf(self, node: int, time: int, metric: int, kind: int, value: float,
                 tag: int) -> None:
        """Append one perf sample, its names given as codes."""
        self.node.append(node)
        self.time.append(time)
        self.metric.append(metric)
        self.kind.append(kind)
        self.value.append(value)
        self.tag.append(tag)

    def add_meminfo(self, numa: array, node: int, time: int, components: list[int]) -> None:
        """Append one meminfo sample, and its NUMA components (mem_total,
        mem_free, file_pages, slab per NUMA node) to ``numa``."""
        self.mem_node.append(node)
        self.mem_time.append(time)
        self.numa_row.append(len(numa) // len(_NUMA_FIELDS))
        self.numa_count.append(len(components) // len(_NUMA_FIELDS))
        numa.fromlist(components)

    def _node_table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted node names and the sorted position of each node code."""
        names = list(self.node_codes)
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int64)
        rank[order] = np.arange(len(names))
        return tuple(names[code] for code in order), rank

    def sample_columns(self, metrics: tuple[str, ...]) -> SampleColumns:
        table, rank = self._node_table()
        node = rank[np.asarray(self.node)]
        time = np.frombuffer(self.time, dtype=np.int64)
        metric = np.asarray(self.metric)
        order = np.lexsort((time, metric, node))
        return SampleColumns(nodes=table, metrics=metrics, node=node[order], time=time[order],
                             metric=metric[order].astype(np.int64),
                             kind=np.asarray(self.kind)[order],
                             value=np.asarray(self.value)[order],
                             tag=np.asarray(self.tag)[order])

    def mem_columns(self, numa: np.ndarray) -> MemColumns:
        """The meminfo samples as columns, their NUMA rows gathered from
        ``numa`` (the NUMA buffer, one row per NUMA node); the meminfo
        buffers are emptied."""
        table, rank = self._node_table()
        node = rank[np.asarray(self.mem_node)]
        time = np.frombuffer(self.mem_time, dtype=np.int64)
        order = np.lexsort((time, node))
        first_row = np.frombuffer(self.numa_row, dtype=np.int64)[order]
        count = np.asarray(self.numa_count)[order]
        bounds = np.zeros(len(count) + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        rows = np.repeat(first_row - bounds[:-1], count) + np.arange(bounds[-1])
        columns = MemColumns(nodes=table, node=node[order], time=time[order],
                             numa_bounds=bounds, numa=numa[rows])
        self._empty_meminfo()
        return columns


def _numa_rows(numa: array) -> np.ndarray:
    """A NUMA buffer as rows of mem_total, mem_free, file_pages, slab."""
    return np.frombuffer(numa, dtype=np.int64).reshape(-1, len(_NUMA_FIELDS))


def _perf_from_records(samples: Iterable[PerfSample]) -> SampleColumns:
    builder = _ColumnBuilder()
    metric_codes = _Codes()
    for s in samples:
        builder.add_perf(builder.node_codes[s.node], s.time, metric_codes[s.metric],
                         _KIND_CODE[SampleKind(s.kind).value], s.value,
                         _TAG_CODE[SampleTag(s.tag).value])
    return builder.sample_columns(tuple(metric_codes))


def _mem_from_records(meminfo: Iterable[MemInfoSample]) -> MemColumns:
    builder = _ColumnBuilder()
    numa = array("q")
    for m in meminfo:
        builder.add_meminfo(numa, builder.node_codes[m.node], m.time, [
            part for n in m.numa_nodes
            for part in (n.mem_total, n.mem_free, n.file_pages, n.slab)])
    return builder.mem_columns(_numa_rows(numa))


@dataclass(frozen=True, slots=True)
class JobArchive:
    """All performance records collected for one job.

    ``samples`` and ``meminfo`` may be given as ``PerfSample`` and
    ``MemInfoSample`` records; they are stored as ``SampleColumns`` and
    ``MemColumns``, and ``len()`` of each is the record count.  A node
    listed twice in ``nodes`` is a ValueError.
    """

    job_id: str
    nodes: tuple[str, ...]
    samples: SampleColumns | Sequence[PerfSample] = ()
    meminfo: MemColumns | Sequence[MemInfoSample] = ()
    launcher: LauncherInfo | None = None
    processes: tuple[appident.ProcessObservation, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"job {self.job_id}: a node is listed twice")
        if not isinstance(self.samples, SampleColumns):
            object.__setattr__(self, "samples", _perf_from_records(self.samples))
        if not isinstance(self.meminfo, MemColumns):
            object.__setattr__(self, "meminfo", _mem_from_records(self.meminfo))


@dataclass(frozen=True, slots=True)
class JobPerfSummary:
    job_id: str
    cpu_user_fraction: float | None = None
    mem_avg_per_core: float | None = None
    mem_max_per_core: float | None = None
    lustre_rx: float | None = None
    lustre_tx: float | None = None
    ib_rx: float | None = None
    ib_tx: float | None = None
    non_lustre_ib: float | None = None
    runnable_threads_median: float | None = None
    file_opens: float | None = None
    app_label: str = appident.NOT_AVAILABLE
    launch_type: LaunchType = LaunchType.UNKNOWN
    samples_used: int = 0
    flags: tuple[str, ...] = ()

    @property
    def lustre_total(self) -> float | None:
        if self.lustre_rx is None and self.lustre_tx is None:
            return None
        return (self.lustre_rx or 0.0) + (self.lustre_tx or 0.0)

    @property
    def ib_total(self) -> float | None:
        if self.ib_rx is None and self.ib_tx is None:
            return None
        return (self.ib_rx or 0.0) + (self.ib_tx or 0.0)


def memory_per_core(sample: MemInfoSample, n_cores: int) -> float:
    """Used bytes per core: non-cache memory summed over NUMA nodes divided
    by the node's core count."""
    if n_cores < 1:
        raise ValueError("n_cores must be >= 1")
    return sum(numa.used_bytes() for numa in sample.numa_nodes) / n_cores


def counter_delta(values: Sequence[float]) -> tuple[float, bool]:
    """Total accumulation over an ordered counter sample list.

    A decrease is a counter reset: that segment contributes the post-reset
    value.  Returns (delta, reset_seen).  Splitting the list at any interior
    sample and summing the two deltas reproduces the whole-list delta.
    """
    delta = 0.0
    reset = False
    for prev, cur in zip(values, values[1:]):
        if cur >= prev:
            delta += cur - prev
        else:
            delta += cur
            reset = True
    return delta, reset


def non_lustre_ib(ib_total: float, lustre_total: float) -> tuple[float, bool]:
    """Interconnect traffic net of filesystem traffic, clamped at zero.

    Returns (bytes, clamped).
    """
    if ib_total < 0 or lustre_total < 0:
        raise ValueError("byte totals must be nonnegative")
    remainder = ib_total - lustre_total
    if remainder < 0:
        return 0.0, True
    return remainder, False


def classify_launch_type(n_processes: int, threads_per_process: int,
                         instrumented: bool) -> LaunchType:
    if n_processes < 0 or threads_per_process < 0:
        raise ValueError("counts must be >= 0")
    if not instrumented or n_processes == 0 or threads_per_process == 0:
        return LaunchType.UNKNOWN
    if n_processes == 1 and threads_per_process == 1:
        return LaunchType.SERIAL
    if n_processes > 1 and threads_per_process == 1:
        return LaunchType.MULTI_PROCESS
    if n_processes == 1:
        return LaunchType.MULTI_THREADED
    return LaunchType.MULTI_PROCESS_MULTI_THREADED


# counter metrics in the order their fields and flags are computed
_COUNTERS = (CPU_USER, CPU_TOTAL, LUSTRE_RX, LUSTRE_TX, IB_RX, IB_TX, FILE_OPENS)
# the slot of RUNNABLE_THREADS after them in the block kernels' metric map
_RUNNABLE = len(_COUNTERS)

# perf plus meminfo samples that one run of the block kernels reduces; a job
# with more samples than this is a block of its own
_BLOCK_SAMPLES = 16_384


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run number of each entry of ``key`` (a run is a stretch of equal
    values) and the index of each run's first entry."""
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return np.cumsum(starts) - 1, np.flatnonzero(starts)


def _ordered_sums(values: np.ndarray, group: np.ndarray, n_groups: int) -> np.ndarray:
    """Each group's values added left to right from 0.0, as ``stats.total``
    adds them (0.0 for a group with none).  ``group`` is ascending, so a
    group's values are one stretch, in the order they are added."""
    count = np.bincount(group, minlength=n_groups)
    column = np.arange(len(values)) - (np.cumsum(count) - count)[group] + 1
    sums = np.zeros(n_groups)
    # cumsum adds left to right, so each row of a padded table sums its
    # group in order from 0.0, and trailing zeros leave the sum as it is;
    # one table per bit length of the counts is at most twice as large as
    # its entries, however long the longest group is
    bits = np.frexp(count)[1]
    for width in np.flatnonzero(np.bincount(bits[count > 0])).tolist():
        rows = np.flatnonzero(bits == width)
        row_of = np.zeros(n_groups, dtype=np.int64)
        row_of[rows] = np.arange(len(rows))
        entries = np.flatnonzero(bits[group] == width)
        table = np.zeros((len(rows), int(count[rows].max()) + 1))
        table[row_of[group[entries]], column[entries]] = values[entries]
        sums[rows] = table.cumsum(axis=1)[:, -1]
    return sums


def _counter_kernel(job: np.ndarray, pos: np.ndarray, slot: np.ndarray, key: np.ndarray,
                    time: np.ndarray, tag: np.ndarray, value: np.ndarray, n_jobs: int
                    ) -> tuple[dict, list[list[float | None]], dict]:
    """Counter totals of the jobs of a block, from their samples of
    ``_COUNTERS`` metrics on listed nodes.

    Sample i is of job ``job[i]`` (0 to ``n_jobs`` - 1), on the node at
    ``pos[i]`` in the job's node list, of metric ``_COUNTERS[slot[i]]``;
    ``key`` is equal for the samples of one (job, node, metric), which are
    one stretch in time order.

    A (node, metric) group runs from the latest prolog (the first read of
    those at the latest time) to the earliest epilog (the first read at the
    earliest time) through the periodic samples between them, in time order;
    an epilog before the prolog gives the pair [epilog, prolog].  Its delta
    is ``counter_delta`` of those values, summed in the same order, and a
    job's total of a metric is the sum of its deltas over the job's nodes in
    list order, from 0.0.

    Returns (missing, totals, resets):
    - missing: for each job with a group that lacks a prolog or an epilog,
      (MissingProlog or MissingEpilog, node position, slot) of its first
      such group in row-major (metric, node) order;
    - totals: per job, each ``_COUNTERS`` total, None when no listed node
      collected the metric (a job in ``missing`` has no meaningful totals);
    - resets: per job with a reset, the (slot, node position) of each group
      delta that saw one, in row-major order.
    """
    totals: list[list[float | None]] = [[None] * len(_COUNTERS) for _ in range(n_jobs)]
    missing: dict[int, tuple[type, int, int]] = {}
    resets: dict[int, list[tuple[int, int]]] = {}
    group, first = _runs(key)
    has_prolog = np.zeros(len(first), dtype=bool)
    has_prolog[group[tag == _PROLOG]] = True
    has_epilog = np.zeros(len(first), dtype=bool)
    has_epilog[group[tag == _EPILOG]] = True
    complete = has_prolog & has_epilog
    if not complete.all():
        g_job, g_pos, g_slot = job[first], pos[first], slot[first]
        grid = np.lexsort((g_pos, g_slot, g_job))
        lacking = grid[~complete[grid]]
        firsts = lacking[_runs(g_job[lacking])[1]]
        for b, g in zip(g_job[firsts].tolist(), firsts.tolist()):
            missing[b] = (MissingEpilog if has_prolog[g] else MissingProlog,
                          int(g_pos[g]), int(g_slot[g]))
        # the failing jobs are skipped: reduce only the complete groups
        keep = complete[group]
        job, pos, slot, key, time, tag, value = (
            column[keep] for column in (job, pos, slot, key, time, tag, value))
        group, first = _runs(key)
    n = len(key)
    if not n:
        return missing, totals, resets
    n_groups = len(first)
    ids = np.arange(n_groups)
    last = np.append(first[1:], n) - 1

    # every group has both now: pick its prolog and epilog
    prologs = np.flatnonzero(tag == _PROLOG)
    epilogs = np.flatnonzero(tag == _EPILOG)
    prolog_group = group[prologs]
    latest = np.maximum.reduceat(time[prologs], np.flatnonzero(
        np.append(True, prolog_group[1:] != prolog_group[:-1])))
    ties = prologs[time[prologs] == latest[prolog_group]]
    tie_group = group[ties]
    start = ties[np.append(True, tie_group[1:] != tie_group[:-1])]
    epilog_group = group[epilogs]
    end = epilogs[np.append(True, epilog_group[1:] != epilog_group[:-1])]

    # each group's sequence [prolog, periodic samples within, epilog], or
    # [epilog, prolog] when the epilog is earlier, via distinct sort keys
    t0, t1 = time[start], time[end]
    forward = t0 <= t1
    inner = np.flatnonzero((tag == _PERIODIC) & (t0[group] <= time) & (time <= t1[group]))
    keys = np.concatenate((3 * first, 3 * inner + 1, 3 * last + 2))
    order = np.argsort(keys)
    rows = np.concatenate((np.where(forward, start, end), inner,
                           np.where(forward, end, start)))[order]
    seq_group = np.concatenate((ids, group[inner], ids))[order]

    # counter_delta: a decrease contributes the post-reset value
    values = value[rows]
    same = seq_group[1:] == seq_group[:-1]
    prev, cur = values[:-1][same], values[1:][same]
    step_group = seq_group[1:][same]
    up = cur >= prev
    delta = _ordered_sums(np.where(up, cur - prev, cur), step_group, n_groups)
    reset = np.zeros(n_groups, dtype=bool)
    reset[step_group[~up]] = True

    # each job's groups in row-major (metric, node) order; a (job, metric)
    # pair adds its node deltas in list order
    g_job, g_pos, g_slot = job[first], pos[first], slot[first]
    grid = np.lexsort((g_pos, g_slot, g_job))
    pair = g_job[grid] * len(_COUNTERS) + g_slot[grid]
    pair_group, pair_first = _runs(pair)
    sums = _ordered_sums(delta[grid], pair_group, len(pair_first))
    for p, s in zip(pair[pair_first].tolist(), sums.tolist()):
        totals[p // len(_COUNTERS)][p % len(_COUNTERS)] = s
    flagged = grid[reset[grid]]
    for b, m, j in zip(g_job[flagged].tolist(), g_slot[flagged].tolist(),
                       g_pos[flagged].tolist()):
        resets.setdefault(b, []).append((m, j))
    return missing, totals, resets


def _medians(job: np.ndarray, value: np.ndarray, n_jobs: int) -> tuple[list[int], list[float]]:
    """The count of each job's values and ``stats.quantile(sorted(values),
    0.5)`` of them (NaN for a job with none); ``job`` numbers the jobs."""
    count = np.bincount(job, minlength=n_jobs)
    # a stable sort, so equal values keep their order, as sorted() keeps it
    ordered = value[np.lexsort((value, job))]
    begin = (np.cumsum(count) - count)[count > 0]
    lo = begin + (count[count > 0] - 1) // 2
    hi = begin + count[count > 0] // 2
    middle = ordered[lo]
    even = lo != hi
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as it is in Python
        middle[even] += (ordered[hi[even]] - middle[even]) * 0.5
    median = np.full(n_jobs, np.nan)
    median[count > 0] = middle
    return count.tolist(), median.tolist()


def _mem_kernel(job: np.ndarray, lo: np.ndarray, hi: np.ndarray, numa: np.ndarray,
                cores: list, n_jobs: int) -> tuple[list[int], list[float], list[float], dict]:
    """``memory_per_core`` of meminfo samples whose NUMA nodes are rows
    ``lo[i]:hi[i]`` of ``numa``, sample i of job ``job[i]`` (ascending) with
    ``cores[job[i]]`` cores per node.

    Returns, per job, the sample count, the sum of the values from 0.0 in
    order (as ``stats.total`` adds them) and their max, and for each job
    with an invalid NUMA row the InvalidMemInfo message of the first.
    """
    count = hi - lo
    bounds = np.zeros(len(lo) + 1, dtype=np.int64)
    np.cumsum(count, out=bounds[1:])
    parts = numa[np.repeat(lo - bounds[:-1], count) + np.arange(bounds[-1])]
    used = parts[:, 0] - parts[:, 1] - parts[:, 2] - parts[:, 3]
    negative = (parts < 0).any(axis=1)
    bad = np.flatnonzero(negative | (used < 0))
    invalid: dict[int, str] = {}
    if bad.size:
        bad_job = np.repeat(job, count)[bad]
        firsts = _runs(bad_job)[1]
        for b, k in zip(bad_job[firsts].tolist(), bad[firsts].tolist()):
            invalid[b] = ("negative meminfo component" if negative[k]
                          else "free+cache exceeds MemTotal")
    running = np.zeros(len(used) + 1, dtype=np.int64)
    np.cumsum(used, out=running[1:])
    per_node = running[bounds[1:]] - running[bounds[:-1]]
    values = per_node / np.array(cores)[job]
    # int / int rounds once; a float64 conversion first would round twice
    for k in np.flatnonzero(per_node > _EXACT).tolist():
        values[k] = int(per_node[k]) / cores[job[k]]
    samples = np.bincount(job, minlength=n_jobs)
    peak = np.zeros(n_jobs)
    has = np.flatnonzero(samples)
    if has.size:
        peak[has] = np.maximum.reduceat(values, (np.cumsum(samples) - samples)[has])
    return (samples.tolist(), _ordered_sums(values, job, n_jobs).tolist(), peak.tolist(),
            invalid)


@dataclass(frozen=True, slots=True)
class _Reduced:
    """What the block kernels found for one job."""

    totals: list[float | None]
    resets: Sequence[tuple[int, int]]
    runnable_median: float | None
    mem_avg: float | None
    mem_max: float | None
    samples_used: int


def _block_kernels(block: Sequence[tuple[JobRecord, JobArchive, object]]
                   ) -> list[_Reduced | Exception]:
    """Reduce every (job, archive, cores per node) entry of a block with one
    run of the kernels over the block's samples, in order.

    An entry's result is its ``_Reduced`` or the error its summary raises:
    MissingProlog/MissingEpilog, else ValueError for fewer than one core
    per node (when the job has in-window meminfo on a listed node), else
    InvalidMemInfo for its first bad in-window NUMA row.
    """
    n = len(block)
    if not n:
        return []
    # the block's node tables, each entry's position in its job's node list
    # (-1 for unlisted), and its distinct metric tables, each entry's
    # _COUNTERS slot, _RUNNABLE or -1; each job's offsets into them and its
    # row counts place its codes and rows in the block's columns
    perf_rows, mem_rows, numa_rows = [], [], 0
    node_pos, mem_pos, node_base, mem_base, numa_base, metric_base = [], [], [], [], [], []
    slots: list[int] = []
    metric_tables: dict[tuple[str, ...], int] = {}
    for _, archive, _ in block:
        perf, mem = archive.samples, archive.meminfo
        position = {name: j for j, name in enumerate(archive.nodes)}
        node_base.append(len(node_pos))
        node_pos += [position.get(name, -1) for name in perf.nodes]
        mem_base.append(len(mem_pos))
        mem_pos += [position.get(name, -1) for name in mem.nodes]
        base = metric_tables.get(perf.metrics)
        if base is None:
            base = metric_tables[perf.metrics] = len(slots)
            table = [-1] * len(perf.metrics)
            for slot, name in enumerate(_COUNTERS + (RUNNABLE_THREADS,)):
                if name in perf.metrics:
                    table[perf.metrics.index(name)] = slot
            slots += table
        metric_base.append(base)
        numa_base.append(numa_rows)
        numa_rows += len(mem.numa)
        perf_rows.append(len(perf))
        mem_rows.append(len(mem))
    job_start = np.array([job.start_time for job, _, _ in block])
    job_end = np.array([job.end_time for job, _, _ in block])
    numbers = np.arange(n)

    def column(name, part="samples"):
        return np.concatenate([getattr(getattr(archive, part), name) for _, archive, _ in block])

    job = np.repeat(numbers, perf_rows)
    node = column("node") + np.repeat(node_base, perf_rows)
    pos = np.array(node_pos, dtype=np.int64)[node]
    slot = np.array(slots, dtype=np.int64)[column("metric") + np.repeat(metric_base, perf_rows)]
    time, value, tag = column("time"), column("value"), column("tag")
    rows = np.flatnonzero((pos >= 0) & (slot >= 0) & (slot < len(_COUNTERS)))
    missing, totals, resets = _counter_kernel(
        job[rows], pos[rows], slot[rows], node[rows] * len(_COUNTERS) + slot[rows],
        time[rows], tag[rows], value[rows], n)

    in_window = (np.repeat(job_start, perf_rows) < time) & (time < np.repeat(job_end, perf_rows))
    rows = np.flatnonzero((slot == _RUNNABLE) & (column("kind") == _INSTANTANEOUS)
                          & (pos >= 0) & in_window)
    runnable, median = _medians(job[rows], value[rows], n)

    job = np.repeat(numbers, mem_rows)
    time = column("time", "meminfo")
    rows = np.flatnonzero(
        (np.array(mem_pos, dtype=np.int64)[column("node", "meminfo")
                                           + np.repeat(mem_base, mem_rows)] >= 0)
        & (np.repeat(job_start, mem_rows) < time) & (time < np.repeat(job_end, mem_rows)))
    offset = np.repeat(numa_base, mem_rows)[rows]
    lo = np.concatenate([archive.meminfo.numa_bounds[:-1] for _, archive, _ in block])
    hi = np.concatenate([archive.meminfo.numa_bounds[1:] for _, archive, _ in block])
    cores = [entry[2] for entry in block]
    mem, mem_sum, mem_max, invalid = _mem_kernel(
        job[rows], lo[rows] + offset, hi[rows] + offset, column("numa", "meminfo"),
        [c if c >= 1 else 1 for c in cores], n)

    results: list[_Reduced | Exception] = []
    for b, (_, archive, _) in enumerate(block):
        if b in missing:
            error, j, m = missing[b]
            results.append(error(archive.nodes[j], _COUNTERS[m]))
        elif mem[b] and cores[b] < 1:
            results.append(ValueError("n_cores must be >= 1"))
        elif b in invalid:
            results.append(InvalidMemInfo(invalid[b]))
        else:
            results.append(_Reduced(
                totals=totals[b], resets=resets.get(b, ()),
                runnable_median=median[b] if runnable[b] else None,
                mem_avg=mem_sum[b] / mem[b] if mem[b] else None,
                mem_max=mem_max[b] if mem[b] else None,
                samples_used=runnable[b] + mem[b]))
    return results


def _job_summary(job: JobRecord, archive: JobArchive, reduced: _Reduced,
                 db: Sequence[appident.AppPattern], ignore_list: Iterable[str]) -> JobPerfSummary:
    """The summary of a job from what the block kernels found for it: its
    flags, derived fields, application label and launch type."""
    flags: list[str] = []
    regressions = [(m, f"counter_regression:{archive.nodes[j]}:{_COUNTERS[m]}")
                   for m, j in reduced.resets]
    user_delta, total_delta, lustre_rx, lustre_tx, ib_rx, ib_tx, opens = reduced.totals
    flags.extend(flag for m, flag in regressions if m < 2)
    cpu_fraction = None
    if user_delta is not None and total_delta is not None and total_delta > 0:
        cpu_fraction = user_delta / total_delta
        if cpu_fraction > 1.0 or cpu_fraction < 0.0:
            flags.append("cpu_fraction_clamped")
            cpu_fraction = min(1.0, max(0.0, cpu_fraction))
    flags.extend(flag for m, flag in regressions if m >= 2)

    nli = None
    if ib_rx is not None or ib_tx is not None:
        ib_total = (ib_rx or 0.0) + (ib_tx or 0.0)
        lustre_total = (lustre_rx or 0.0) + (lustre_tx or 0.0)
        nli, clamped = non_lustre_ib(ib_total, lustre_total)
        if clamped:
            flags.append("non_lustre_ib_clamped")

    label = appident.resolve_job_app(
        launcher_present=archive.launcher is not None,
        launcher_exe=archive.launcher.exe if archive.launcher else None,
        observations=archive.processes,
        db=db, ignore_list=ignore_list)
    if archive.launcher is not None:
        launch = classify_launch_type(archive.launcher.n_processes,
                                      archive.launcher.threads_per_process,
                                      instrumented=True)
    else:
        launch = LaunchType.UNKNOWN

    return JobPerfSummary(
        job_id=job.job_id,
        cpu_user_fraction=cpu_fraction,
        mem_avg_per_core=reduced.mem_avg,
        mem_max_per_core=reduced.mem_max,
        lustre_rx=lustre_rx,
        lustre_tx=lustre_tx,
        ib_rx=ib_rx,
        ib_tx=ib_tx,
        non_lustre_ib=nli,
        runnable_threads_median=reduced.runnable_median,
        file_opens=opens,
        app_label=label,
        launch_type=launch,
        samples_used=reduced.samples_used,
        flags=tuple(flags),
    )


def summarize_job(job: JobRecord, archive: JobArchive, cores_per_node: int,
                  db: Sequence[appident.AppPattern] | None = None,
                  ignore_list: Iterable[str] | None = None) -> JobPerfSummary:
    """Build the per-job summary from the job's node archives: the kernels
    of ``summarize_all`` run on a block of this one job."""
    if not archive.nodes:
        raise ValueError(f"job {job.job_id}: node list unknown")
    if db is None:
        db = appident.load_pattern_db()
    if ignore_list is None:
        ignore_list = appident.load_ignore_list()
    (reduced,) = _block_kernels([(job, archive, cores_per_node)])
    if isinstance(reduced, Exception):
        raise reduced
    return _job_summary(job, archive, reduced, db, ignore_list)


def _settle(block: Sequence[tuple[JobRecord, JobArchive | None, object]],
            summaries: dict[str, JobPerfSummary], skipped: dict[str, str],
            db, ignore_list) -> None:
    """Record the outcome of each (job, archive or None, cores per node)
    entry of a block, in order, and raise the first failure."""
    results = iter(_block_kernels([entry for entry in block if entry[1] is not None]))
    for job, archive, _ in block:
        if archive is None:
            skipped[job.job_id] = "no_archive"
            continue
        reduced = next(results)
        if isinstance(reduced, (MissingProlog, MissingEpilog)):
            skipped[job.job_id] = str(reduced)
        elif isinstance(reduced, InvalidMemInfo):
            raise InvalidMemInfo(f"job {job.job_id}: {reduced}")
        elif isinstance(reduced, Exception):
            raise reduced
        else:
            summaries[job.job_id] = _job_summary(job, archive, reduced, db, ignore_list)


def summarize_all(jobs: Sequence[JobRecord],
                  archives: Mapping[str, JobArchive],
                  cores_per_node_of, db=None, ignore_list=None):
    """Summarize every job that has an archive with a known node list.

    cores_per_node_of maps a JobRecord to its resource's cores per node.
    Returns (summaries by job_id, skip reasons by job_id).  Jobs without an
    archive get no summary, never a partial one; a job missing a counter's
    prolog or epilog is skipped with the reason.  Jobs are reduced in
    blocks of consecutive jobs, and the first failure in ``jobs`` order is
    raised: an error of ``cores_per_node_of``, InvalidMemInfo naming the
    job, or the ValueError of fewer than one core per node.
    """
    if db is None:
        db = appident.load_pattern_db()
    if ignore_list is None:
        ignore_list = appident.load_ignore_list()
    summaries: dict[str, JobPerfSummary] = {}
    skipped: dict[str, str] = {}
    block: list[tuple[JobRecord, JobArchive | None, object]] = []
    size = 0
    for job in jobs:
        archive = archives.get(job.job_id)
        if archive is None or not archive.nodes:
            block.append((job, None, None))
            continue
        samples = len(archive.samples) + len(archive.meminfo)
        if size and size + samples > _BLOCK_SAMPLES:
            _settle(block, summaries, skipped, db, ignore_list)
            block, size = [], 0
        failure = None
        try:
            cores = cores_per_node_of(job)
        except Exception as err:
            failure = err
        if failure is not None:
            _settle(block, summaries, skipped, db, ignore_list)  # an earlier failure wins
            raise failure
        block.append((job, archive, cores))
        size += samples
    _settle(block, summaries, skipped, db, ignore_list)
    return summaries, skipped


# ---------------------------------------------------------------------------
# archive JSONL

_CHUNK_BYTES = 1 << 16  # the size hint of the lines read at a time


# A perf or meminfo line as json.dumps writes the record with its keys in
# the order docs/formats.md lists them.  Names hold no quote, backslash or
# control character, so each is its own text; integers have at most 15
# digits, so each is exact in a double; and `value` has neither sign nor
# exponent, so it is finite and >= 0.  A line it takes is valid JSON whose
# fields are all valid, and its groups are the fields: (1) "perf" for a
# perf record, (2) job_id, (3) node, (4) time, then (5) metric, (6) kind,
# (7) value, (8) tag of a perf record or (9) the text inside a meminfo
# record's `numa` brackets.
_DIGITS = "(?:0|[1-9][0-9]{0,14})"
_INT = "-?" + _DIGITS
_NUMA_PART = r"\{" + ", ".join(f'"{name}": {_INT}' for name in _NUMA_FIELDS) + r"\}"
_LINE = re.compile((
    r'\{"type": "(?:(perf)|meminfo)", "job_id": %(name)s, "node": %(name)s, '
    r'"time": (%(int)s), (?(1)'
    r'"metric": %(name)s, "kind": "(%(kind)s)", '
    r'"value": (%(digits)s(?:\.[0-9]+)?), "tag": "(%(tag)s)"'
    r'|"numa": \[((?:%(numa)s(?:, %(numa)s)*)?)\])\}\n?') % dict(
        name=r'"([^"\\\x00-\x1f]+)"', int=_INT, digits=_DIGITS, numa=_NUMA_PART,
        kind="|".join(_KIND_CODE), tag="|".join(_TAG_CODE)))
# turns each character of a meminfo line's `numa` text but the integers' into a blank
_BLANK_NAMES = str.maketrans(dict.fromkeys(set("".join(_NUMA_FIELDS)) | set('{}":, '), " "))


def _int64_bytes(text: str) -> bytes:
    """The machine bytes of the int64 values of blank-separated integer
    texts that ``_LINE`` took: each has at most 15 digits, so numpy's
    parse is exact."""
    return np.fromstring(text, dtype=np.int64, sep=" ").tobytes()


def _int_field(raw: Mapping, row: int, name: str, low: int = -_EXACT) -> int:
    """An integer field by ``ingest._as_int``'s rules, within [low, 2**53]."""
    value = _as_int(raw, row, name)
    if not low <= value <= _EXACT:
        raise SchemaError(row, name, f"row {row}: {name} out of range")
    return value


def _code(codes: Mapping[str, int], raw: Mapping, row: int, name: str, default=None) -> int:
    value = raw.get(name, default)
    code = codes.get(value) if type(value) is str else None
    if code is None:
        raise SchemaError(row, name, f"row {row}: {value!r} is not a valid {name}")
    return code


def _builder(builders: dict[str, _ColumnBuilder], job_id: str) -> _ColumnBuilder:
    builder = builders.get(job_id)
    if builder is None:
        builder = builders[job_id] = _ColumnBuilder()
    return builder


def _perf_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder],
                 metric_codes: _Codes) -> tuple[_ColumnBuilder, tuple]:
    """Check one perf record field by field: its job's builder and the
    arguments of its ``add_perf``, or SchemaError."""
    builder = _builder(builders, _as_str(raw, row, "job_id"))
    time = _int_field(raw, row, "time")
    value = _as_float(raw, row, "value")
    if value < 0:
        raise SchemaError(row, "value", f"row {row}: negative value")
    metric = metric_codes[_as_str(raw, row, "metric")]
    return builder, (builder.node_codes[_as_str(raw, row, "node")], time, metric,
                     _code(_KIND_CODE, raw, row, "kind"), value,
                     _code(_TAG_CODE, raw, row, "tag", SampleTag.PERIODIC.value))


def _meminfo_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder]
                    ) -> tuple[_ColumnBuilder, tuple]:
    """Check one meminfo record field by field: its job's builder and the
    arguments of its ``add_meminfo``, or SchemaError."""
    builder = _builder(builders, _as_str(raw, row, "job_id"))
    time = _int_field(raw, row, "time")
    numa = raw.get("numa")
    if type(numa) is not list or not all(type(part) is dict for part in numa):
        raise SchemaError(row, "numa", f"row {row}: numa must be a list of objects")
    components = [_int_field(part, row, name) for part in numa for name in _NUMA_FIELDS]
    return builder, (builder.node_codes[_as_str(raw, row, "node")], time, components)


def _other_record(raw, row: int, nodes: dict[str, tuple[str, ...]],
                  launcher: dict[str, LauncherInfo],
                  processes: dict[str, list[appident.ProcessObservation]]) -> None:
    """Store a job, launcher or process record in the dict for its type."""
    if type(raw) is not dict:
        raise SchemaError(row, None, f"row {row}: expected an object")
    kind = raw.get("type")
    job_id = _as_str(raw, row, "job_id")
    if kind == "job":
        listed = raw.get("nodes")
        if type(listed) is not list:
            raise SchemaError(row, "nodes", f"row {row}: nodes must be a list")
        if not all(type(node) is str and node for node in listed):
            raise SchemaError(row, "nodes", f"row {row}: nodes must be non-empty strings")
        listed = tuple(listed)
        if len(set(listed)) != len(listed):
            raise SchemaError(row, "nodes", f"row {row}: a node is listed twice")
        nodes[job_id] = listed
    elif kind == "launcher":
        exe = raw.get("exe")
        if exe is not None and type(exe) is not str:
            raise SchemaError(row, "exe", f"row {row}: exe must be a string")
        launcher[job_id] = LauncherInfo(
            exe=exe,
            n_processes=(_int_field(raw, row, "n_processes", 0)
                         if "n_processes" in raw else 1),
            threads_per_process=(_int_field(raw, row, "threads_per_process", 0)
                                 if "threads_per_process" in raw else 1))
    elif kind == "process":
        processes.setdefault(job_id, []).append(appident.ProcessObservation(
            process_name=_as_str(raw, row, "process_name"),
            unique_pid_count=_int_field(raw, row, "unique_pid_count", 1)))
    else:
        raise SchemaError(row, "type", f"row {row}: unknown archive record type {kind!r}")


class _ArchiveReader:
    """The records of an archive file read so far: each job's column
    builder, the metric codes shared by all jobs, the NUMA buffer of every
    meminfo sample in file order, and the job, launcher and process records
    by job."""

    def __init__(self):
        self.builders: dict[str, _ColumnBuilder] = {}
        self.metric_codes = _Codes()
        self.numa = array("q")
        self.nodes: dict[str, tuple[str, ...]] = {}
        self.launcher: dict[str, LauncherInfo] = {}
        self.processes: dict[str, list[appident.ProcessObservation]] = {}
        self.scan = _json_scanner()

    def take_matches(self, matches: list[re.Match]) -> None:
        """Append the records of consecutive lines that ``_LINE`` took,
        each job's in file order, a column of a job's run at a time."""
        rows = list(map(re.Match.groups, matches))
        perf = list(map(itemgetter(0), rows))
        job = itemgetter(1)
        metric_code = self.metric_codes.__getitem__
        for job_id, run in groupby(compress(rows, perf), job):
            builder = _builder(self.builders, job_id)
            _, _, node, time, metric, kind, value, tag, _ = zip(*run)
            builder.node.fromlist(list(map(builder.node_codes.__getitem__, node)))
            builder.time.frombytes(_int64_bytes(" ".join(time)))
            builder.metric.fromlist(list(map(metric_code, metric)))
            builder.kind.fromlist(list(map(_KIND_CODE.__getitem__, kind)))
            builder.value.fromlist(list(map(float, value)))
            builder.tag.fromlist(list(map(_TAG_CODE.__getitem__, tag)))
        for job_id, run in groupby(compress(rows, map(not_, perf)), job):
            builder = _builder(self.builders, job_id)
            _, _, node, time, _, _, _, _, numa = zip(*run)
            builder.mem_node.fromlist(list(map(builder.node_codes.__getitem__, node)))
            builder.mem_time.frombytes(_int64_bytes(" ".join(time)))
            counts = list(map(str.count, numa, repeat("{")))
            first = len(self.numa) // len(_NUMA_FIELDS)
            builder.numa_row.fromlist(list(accumulate(counts, initial=first))[:-1])
            builder.numa_count.fromlist(counts)
            if any(counts):
                self.numa.frombytes(_int64_bytes(" ".join(numa).translate(_BLANK_NAMES)))

    def take_lines(self, lines: list[str], first_row: int) -> None:
        """Parse and check the records of consecutive lines one at a time,
        field by field; ``first_row`` is the line number of the first."""
        for row, line in enumerate(lines, start=first_row):
            raw = _json_line(line, row, self.scan)
            if raw is _BLANK:
                continue
            kind = raw.get("type") if type(raw) is dict else None
            if kind == "perf":
                builder, fields = _perf_record(raw, row, self.builders, self.metric_codes)
                builder.add_perf(*fields)
            elif kind == "meminfo":
                builder, fields = _meminfo_record(raw, row, self.builders)
                builder.add_meminfo(self.numa, *fields)
            else:
                _other_record(raw, row, self.nodes, self.launcher, self.processes)

    def archives(self) -> dict[str, JobArchive]:
        """Each job's archive, in job_id order.

        Every job's meminfo columns are built first and the NUMA buffer is
        freed before the perf columns are built: those take more room than
        their buffers, so the peak stays where they are all built.  That
        one large free also makes glibc's malloc keep, rather than return,
        the heap that ``summarize_all`` reuses block after block (on the
        benchmark's archive, ~600 page faults there instead of ~10,000).
        """
        job_ids = sorted(set(self.nodes) | set(self.builders) | set(self.launcher)
                         | set(self.processes))
        empty = _ColumnBuilder()
        numa = _numa_rows(self.numa)
        meminfo = [self.builders.get(job_id, empty).mem_columns(numa) for job_id in job_ids]
        del numa  # the last view of the buffer, which then goes with it
        self.numa = array("q")
        metrics = tuple(self.metric_codes)
        archives = {}
        for job_id, mem in zip(job_ids, meminfo):
            builder = self.builders.pop(job_id, empty)
            archives[job_id] = JobArchive(
                job_id=job_id,
                nodes=self.nodes.get(job_id, ()),
                samples=builder.sample_columns(metrics),
                meminfo=mem,
                launcher=self.launcher.get(job_id),
                processes=tuple(self.processes.get(job_id, ())),
            )
        return archives


def load_archives(path) -> dict[str, JobArchive]:
    """Read the archive JSONL (schema in docs/formats.md) grouped by job.

    Each line is one JSON object.  Record order in the file does not matter,
    except among records of one job with equal (node, metric, time), which
    keep it.  A malformed record raises SchemaError whose row is its 1-based
    line number.
    """
    reader = _ArchiveReader()
    row = 1  # the line number of the chunk's first line
    with open(path, "r", encoding="utf-8") as handle:
        for chunk in iter(partial(handle.readlines, _CHUNK_BYTES), []):
            # stretches of lines that _LINE takes, and of lines it does not,
            # in file order
            start = 0
            for taken, run in groupby(map(_LINE.fullmatch, chunk), bool):
                run = list(run)
                if taken:
                    reader.take_matches(run)
                else:
                    reader.take_lines(chunk[start:start + len(run)], row + start)
                start += len(run)
            row += len(chunk)
    return reader.archives()


def write_summaries(summaries: Mapping[str, JobPerfSummary], path) -> None:
    """Emit summaries as JSONL keyed by job_id, sorted for reproducibility.

    The lines go to a temporary file in the target's directory that then
    replaces the target, so a value JSON cannot hold (NaN, inf) raises
    ValueError and leaves any file already at ``path`` as it was.
    """
    path = os.fspath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            for job_id in sorted(summaries):
                s = summaries[job_id]
                handle.write(json.dumps({
                    "job_id": s.job_id,
                    "cpu_user_fraction": s.cpu_user_fraction,
                    "mem_avg_per_core": s.mem_avg_per_core,
                    "mem_max_per_core": s.mem_max_per_core,
                    "lustre_rx": s.lustre_rx,
                    "lustre_tx": s.lustre_tx,
                    "ib_rx": s.ib_rx,
                    "ib_tx": s.ib_tx,
                    "non_lustre_ib": s.non_lustre_ib,
                    "runnable_threads_median": s.runnable_threads_median,
                    "file_opens": s.file_opens,
                    "app_label": s.app_label,
                    "launch_type": s.launch_type.value,
                    "samples_used": s.samples_used,
                    "flags": list(s.flags),
                }, sort_keys=True, allow_nan=False))
                handle.write("\n")
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
