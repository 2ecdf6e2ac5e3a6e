"""Reduce per-node performance archives to one summary per job.

Counter metrics accumulate monotonically: the job's value is the epilog
reading minus the prolog reading, summed over the job's nodes, with a counter
reset treated as contributing the post-reset value.  Instantaneous metrics
are point samples: only readings strictly inside the job's run window are
used, unweighted.  Jobs with no in-window samples get absent fields, never
zeros.

A ``JobArchive`` holds its perf and meminfo records as numpy columns
(``PerfColumns``, ``MemColumns``), ordered by node, metric and time, with
records of equal keys in the order they were read.  ``load_archives`` fills
typed buffers straight from the file; archives built from ``PerfSample`` and
``MemInfoSample`` records are converted once, by the same column builder.
``summarize_job`` reduces the columns with whole-array operations; the
record-at-a-time implementation it replaced is kept in the tests as its
reference.
"""
from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import appident
from .errors import InvalidMemInfo, MissingEpilog, MissingProlog, SchemaError
from .ingest import JobRecord, _as_float, _as_int, _need
from .stats import quantile, total

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
        if self.value < 0:
            raise ValueError(f"negative sample value for {self.metric}")


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
# codes of the enum members in the columns: their position in the enum
_KIND_CODE = {kind.value: code for code, kind in enumerate(SampleKind)}
_TAG_CODE = {tag.value: code for code, tag in enumerate(SampleTag)}
_INSTANTANEOUS = _KIND_CODE[SampleKind.INSTANTANEOUS.value]
_PERIODIC = _TAG_CODE[SampleTag.PERIODIC.value]
_PROLOG = _TAG_CODE[SampleTag.JOB_PROLOG.value]
_EPILOG = _TAG_CODE[SampleTag.JOB_EPILOG.value]


@dataclass(frozen=True, slots=True, eq=False)
class PerfColumns:
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


class _ColumnBuilder:
    """Typed buffers for one job's perf and meminfo records in the order
    they arrive; ``perf_columns``/``mem_columns`` sort them into columns."""

    __slots__ = ("node_codes", "perf", "mem", "numa")

    def __init__(self):
        self.node_codes: dict[str, int] = {}  # in order of first appearance
        self.perf = array("d")  # node, time, metric, kind, value, tag per sample
        self.mem = array("q")  # node, time, NUMA count per sample
        self.numa = array("q")  # mem_total, mem_free, file_pages, slab per NUMA node

    def node_code(self, node: str) -> int:
        code = self.node_codes.get(node)
        if code is None:
            code = self.node_codes[node] = len(self.node_codes)
        return code

    def _node_table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted node names and the sorted position of each node code."""
        names = list(self.node_codes)
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int64)
        rank[order] = np.arange(len(names))
        return tuple(names[code] for code in order), rank

    def perf_columns(self, metrics: tuple[str, ...]) -> PerfColumns:
        table, rank = self._node_table()
        rec = np.frombuffer(self.perf, dtype=np.float64).reshape(-1, 6)
        node = rank[rec[:, 0].astype(np.int64)]
        time = rec[:, 1].astype(np.int64)
        metric = rec[:, 2].astype(np.int64)
        order = np.lexsort((time, metric, node))
        return PerfColumns(nodes=table, metrics=metrics, node=node[order], time=time[order],
                           metric=metric[order], kind=rec[order, 3].astype(np.int8),
                           value=rec[order, 4], tag=rec[order, 5].astype(np.int8))

    def mem_columns(self) -> MemColumns:
        table, rank = self._node_table()
        rec = np.frombuffer(self.mem, dtype=np.int64).reshape(-1, 3)
        node, time, count = rank[rec[:, 0]], rec[:, 1], rec[:, 2]
        order = np.lexsort((time, node))
        first_row = (np.cumsum(count) - count)[order]
        count = count[order]
        bounds = np.zeros(len(count) + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        rows = np.repeat(first_row - bounds[:-1], count) + np.arange(bounds[-1])
        numa = np.frombuffer(self.numa, dtype=np.int64).reshape(-1, 4)
        return MemColumns(nodes=table, node=node[order], time=time[order],
                          numa_bounds=bounds, numa=numa[rows])


def _perf_from_records(samples: Iterable[PerfSample]) -> PerfColumns:
    builder = _ColumnBuilder()
    metric_codes: dict[str, int] = {}
    for s in samples:
        metric = metric_codes.setdefault(s.metric, len(metric_codes))
        builder.perf.extend((builder.node_code(s.node), s.time, metric,
                             _KIND_CODE[SampleKind(s.kind).value], s.value,
                             _TAG_CODE[SampleTag(s.tag).value]))
    return builder.perf_columns(tuple(metric_codes))


def _mem_from_records(meminfo: Iterable[MemInfoSample]) -> MemColumns:
    builder = _ColumnBuilder()
    for m in meminfo:
        builder.mem.extend((builder.node_code(m.node), m.time, len(m.numa_nodes)))
        for numa in m.numa_nodes:
            builder.numa.extend((numa.mem_total, numa.mem_free, numa.file_pages, numa.slab))
    return builder.mem_columns()


@dataclass(frozen=True, slots=True)
class JobArchive:
    """All performance records collected for one job.

    ``samples`` and ``meminfo`` may be given as ``PerfSample`` and
    ``MemInfoSample`` records; they are stored as ``PerfColumns`` and
    ``MemColumns``, and ``len()`` of each is the record count.  A node
    listed twice in ``nodes`` is a ValueError.
    """

    job_id: str
    nodes: tuple[str, ...]
    samples: PerfColumns | Sequence[PerfSample] = ()
    meminfo: MemColumns | Sequence[MemInfoSample] = ()
    launcher: LauncherInfo | None = None
    processes: tuple[appident.ProcessObservation, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"job {self.job_id}: a node is listed twice")
        if not isinstance(self.samples, PerfColumns):
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


def _node_codes(table: tuple[str, ...], nodes: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The code of each of ``nodes`` in a column's node table (-1 for a node
    with no samples) and a mask over codes that is True for listed nodes."""
    index = {name: code for code, name in enumerate(table)}
    codes = np.array([index.get(name, -1) for name in nodes], dtype=np.int64)
    listed = np.zeros(len(table) + 1, dtype=bool)
    listed[codes] = True  # code -1 marks the spare last slot
    return codes, listed[:-1]


def _counter_totals(cols: PerfColumns, nodes: Sequence[str], codes: np.ndarray,
                    listed: np.ndarray) -> tuple[list[float | None], list[tuple[int, int]]]:
    """Each ``_COUNTERS`` metric summed over ``nodes`` in their order (None
    when no listed node collected it), and the (metric index, position in
    ``nodes``) of each node delta that saw a reset, in row-major order.
    ``codes`` and ``listed`` are ``_node_codes(cols.nodes, nodes)``.

    A (node, metric) group runs from the latest prolog (the first read of
    those at the latest time) to the earliest epilog (the first read at the
    earliest time) through the periodic samples between them, in time order;
    an epilog before the prolog gives the pair [epilog, prolog].  Its delta
    is ``counter_delta`` of those values, summed in the same order.  Raises
    MissingProlog/MissingEpilog for the first (metric, node) in row-major
    order that lacks one.
    """
    slot_of = np.full(len(cols.metrics), -1, dtype=np.int64)
    for slot, name in enumerate(_COUNTERS):
        if name in cols.metrics:
            slot_of[cols.metrics.index(name)] = slot
    slot = slot_of[cols.metric]
    picked = np.flatnonzero((slot >= 0) & listed[cols.node])
    if not picked.size:
        return [None] * len(_COUNTERS), []
    node, slot = cols.node[picked], slot[picked]
    time, tag, value = cols.time[picked], cols.tag[picked], cols.value[picked]
    n = len(picked)

    # groups are runs of one (node, metric); rows in a group are time-ordered
    key = node * len(_COUNTERS) + slot
    starts_group = np.ones(n, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts_group[1:])
    first = np.flatnonzero(starts_group)
    last = np.append(first[1:], n) - 1
    group = np.cumsum(starts_group) - 1
    n_groups = len(first)
    ids = np.arange(n_groups)
    # grid[m, j]: group of metric m on nodes[j], or -1, which indexes the
    # spare last slot of the per-group arrays below
    group_of = np.full((len(cols.nodes), len(_COUNTERS)), -1, dtype=np.int64)
    group_of[node[first], slot[first]] = ids
    grid = np.where(codes >= 0, group_of[codes].T, -1)
    present = grid >= 0

    prologs = np.flatnonzero(tag == _PROLOG)
    epilogs = np.flatnonzero(tag == _EPILOG)
    has_prolog = np.zeros(n_groups + 1, dtype=bool)
    has_prolog[group[prologs]] = True
    has_epilog = np.zeros(n_groups + 1, dtype=bool)
    has_epilog[group[epilogs]] = True
    missing = present & ~(has_prolog[grid] & has_epilog[grid])
    if missing.any():
        m, j = np.argwhere(missing)[0]
        if not has_prolog[grid[m, j]]:
            raise MissingProlog(nodes[j], _COUNTERS[m])
        raise MissingEpilog(nodes[j], _COUNTERS[m])

    # every group now has both: pick its prolog and epilog
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
    steps = np.where(up, cur - prev, cur)
    reset = np.zeros(n_groups + 1, dtype=bool)
    reset[step_group[~up]] = True
    # cumsum adds left to right, so each row of the padded table sums its
    # group's steps in order from 0.0; trailing zeros leave the sum as is
    count = np.bincount(step_group, minlength=n_groups)
    column = np.arange(len(steps)) - (np.cumsum(count) - count)[step_group] + 1
    padded = np.zeros((n_groups, int(count.max()) + 1))
    padded[step_group, column] = steps
    delta = np.append(padded.cumsum(axis=1)[:, -1], 0.0)

    # totals over nodes in order, from 0.0, as one cumsum per metric
    by_node = np.zeros((len(_COUNTERS), len(nodes) + 1))
    by_node[:, 1:] = delta[grid]
    totals = by_node.cumsum(axis=1)[:, -1].tolist()
    seen = present.any(axis=1).tolist()
    return ([total if s else None for total, s in zip(totals, seen)],
            [(int(m), int(j)) for m, j in np.argwhere(present & reset[grid])])


def _mem_per_core(mem: MemColumns, rows: np.ndarray, cores_per_node: int) -> list[float]:
    """``memory_per_core`` of the meminfo samples at ``rows``, in order."""
    if cores_per_node < 1:
        raise ValueError("n_cores must be >= 1")
    lo, hi = mem.numa_bounds[rows], mem.numa_bounds[rows + 1]
    count = hi - lo
    bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(count, out=bounds[1:])
    numa = mem.numa[np.repeat(lo - bounds[:-1], count) + np.arange(bounds[-1])]
    used = numa[:, 0] - numa[:, 1] - numa[:, 2] - numa[:, 3]
    negative = (numa < 0).any(axis=1)
    bad = negative | (used < 0)
    if bad.any():
        first = int(np.argmax(bad))
        raise InvalidMemInfo("negative meminfo component" if negative[first]
                             else "free+cache exceeds MemTotal")
    running = np.zeros(len(used) + 1, dtype=np.int64)
    np.cumsum(used, out=running[1:])
    per_node = running[bounds[1:]] - running[bounds[:-1]]
    if per_node.size and per_node.max() > _EXACT:
        # int / int rounds once; a float64 conversion first would round twice
        return [total / cores_per_node for total in per_node.tolist()]
    return (per_node / cores_per_node).tolist()


def summarize_job(job: JobRecord, archive: JobArchive, cores_per_node: int,
                  db: Sequence[appident.AppPattern] | None = None,
                  ignore_list: Iterable[str] | None = None) -> JobPerfSummary:
    """Build the per-job summary from the job's node archives."""
    if not archive.nodes:
        raise ValueError(f"job {job.job_id}: node list unknown")
    if db is None:
        db = appident.load_pattern_db()
    if ignore_list is None:
        ignore_list = appident.load_ignore_list()
    flags: list[str] = []

    samples = archive.samples
    codes, listed = _node_codes(samples.nodes, archive.nodes)
    totals, resets = _counter_totals(samples, archive.nodes, codes, listed)
    regressions = [(m, f"counter_regression:{archive.nodes[j]}:{_COUNTERS[m]}")
                   for m, j in resets]
    user_delta, total_delta, lustre_rx, lustre_tx, ib_rx, ib_tx, opens = totals
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

    def in_window(time):
        return (job.start_time < time) & (time < job.end_time)

    runnable_code = (samples.metrics.index(RUNNABLE_THREADS)
                     if RUNNABLE_THREADS in samples.metrics else -1)
    runnable = samples.value[(samples.metric == runnable_code)
                             & (samples.kind == _INSTANTANEOUS)
                             & listed[samples.node] & in_window(samples.time)].tolist()
    runnable_median = quantile(sorted(runnable), 0.5) if runnable else None

    mem = archive.meminfo
    _, listed = _node_codes(mem.nodes, archive.nodes)
    rows = np.flatnonzero(listed[mem.node] & in_window(mem.time))
    mem_values = _mem_per_core(mem, rows, cores_per_node) if rows.size else []
    mem_avg = total(mem_values) / len(mem_values) if mem_values else None
    mem_max = max(mem_values) if mem_values else None

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
        mem_avg_per_core=mem_avg,
        mem_max_per_core=mem_max,
        lustre_rx=lustre_rx,
        lustre_tx=lustre_tx,
        ib_rx=ib_rx,
        ib_tx=ib_tx,
        non_lustre_ib=nli,
        runnable_threads_median=runnable_median,
        file_opens=opens,
        app_label=label,
        launch_type=launch,
        samples_used=len(runnable) + len(mem_values),
        flags=tuple(flags),
    )


def summarize_all(jobs: Sequence[JobRecord],
                  archives: Mapping[str, JobArchive],
                  cores_per_node_of, db=None, ignore_list=None):
    """Summarize every job that has an archive with a known node list.

    cores_per_node_of maps a JobRecord to its resource's cores per node.
    Returns (summaries by job_id, skip reasons by job_id).  Jobs without an
    archive get no summary, never a partial one.
    """
    if db is None:
        db = appident.load_pattern_db()
    if ignore_list is None:
        ignore_list = appident.load_ignore_list()
    summaries: dict[str, JobPerfSummary] = {}
    skipped: dict[str, str] = {}
    for job in jobs:
        archive = archives.get(job.job_id)
        if archive is None or not archive.nodes:
            skipped[job.job_id] = "no_archive"
            continue
        try:
            summaries[job.job_id] = summarize_job(
                job, archive, cores_per_node_of(job), db=db, ignore_list=ignore_list)
        except (MissingProlog, MissingEpilog) as err:
            skipped[job.job_id] = str(err)
    return summaries, skipped


# ---------------------------------------------------------------------------
# archive JSONL

_FLOAT_MAX = sys.float_info.max
_NUMBER = frozenset((int, float))
_NUMA_FIELDS = ("mem_total", "mem_free", "file_pages", "slab")


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


def _builder(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder]) -> _ColumnBuilder:
    job_id = str(_need(raw, row, "job_id"))
    builder = builders.get(job_id)
    if builder is None:
        builder = builders[job_id] = _ColumnBuilder()
    return builder


def _perf_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder],
                 metric_codes: dict[str, int]) -> tuple[_ColumnBuilder, tuple]:
    """Check one perf record field by field: its job's builder and the
    fields it appends, or SchemaError."""
    builder = _builder(raw, row, builders)
    time = _int_field(raw, row, "time")
    value = _as_float(raw, row, "value")
    if value < 0:
        raise SchemaError(row, "value", f"row {row}: negative value")
    metric = metric_codes.setdefault(str(_need(raw, row, "metric")), len(metric_codes))
    return builder, (builder.node_code(str(_need(raw, row, "node"))), time, metric,
                     _code(_KIND_CODE, raw, row, "kind"), value,
                     _code(_TAG_CODE, raw, row, "tag", SampleTag.PERIODIC.value))


def _meminfo_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder]
                    ) -> tuple[_ColumnBuilder, tuple, list[int]]:
    """Check one meminfo record field by field: its job's builder, its
    sample fields and its NUMA components, or SchemaError."""
    builder = _builder(raw, row, builders)
    time = _int_field(raw, row, "time")
    numa = raw.get("numa")
    if type(numa) is not list or not all(type(part) is dict for part in numa):
        raise SchemaError(row, "numa", f"row {row}: numa must be a list of objects")
    components = [_int_field(part, row, name) for part in numa for name in _NUMA_FIELDS]
    return builder, (builder.node_code(str(_need(raw, row, "node"))), time, len(numa)), components


def _other_record(raw, row: int, nodes: dict[str, tuple[str, ...]],
                  launcher: dict[str, LauncherInfo],
                  processes: dict[str, list[appident.ProcessObservation]]) -> None:
    """Store a job, launcher or process record in the dict for its type."""
    if type(raw) is not dict:
        raise SchemaError(row, None, f"row {row}: expected an object")
    kind = raw.get("type")
    job_id = str(_need(raw, row, "job_id"))
    if kind == "job":
        listed = raw.get("nodes")
        if type(listed) is not list:
            raise SchemaError(row, "nodes", f"row {row}: nodes must be a list")
        listed = tuple(str(n) for n in listed)
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
            process_name=str(_need(raw, row, "process_name")),
            unique_pid_count=_int_field(raw, row, "unique_pid_count", 1)))
    else:
        raise SchemaError(row, "type", f"row {row}: unknown archive record type {kind!r}")


def load_archives(path) -> dict[str, JobArchive]:
    """Read the archive JSONL (schema in docs/formats.md) grouped by job.

    Each line is one JSON object.  Record order in the file does not matter,
    except among records of one job with equal (node, metric, time), which
    keep it.  A malformed record raises SchemaError whose row is its 1-based
    line number.
    """
    builders: dict[str, _ColumnBuilder] = {}
    metric_codes: dict[str, int] = {}
    nodes: dict[str, tuple[str, ...]] = {}
    launcher: dict[str, LauncherInfo] = {}
    processes: dict[str, list[appident.ProcessObservation]] = {}
    loads = json.loads
    with open(path, "r", encoding="utf-8") as handle:
        for row, line in enumerate(handle, start=1):
            try:
                raw = loads(line)
            except json.JSONDecodeError:
                if not line.strip():
                    continue
                raise SchemaError(row, None, f"row {row}: invalid JSON") from None
            try:
                kind = raw["type"]
            except (KeyError, TypeError):
                kind = None
            # perf and meminfo records are nearly all of a file: take those
            # whose fields are all plainly valid without a call, and check
            # any other field by field
            if kind == "perf":
                try:
                    builder = builders[raw["job_id"]]
                    time, value = raw["time"], raw["value"]
                    record = (builder.node_codes[raw["node"]], time,
                              metric_codes[raw["metric"]], _KIND_CODE[raw["kind"]],
                              value, _TAG_CODE[raw["tag"]])
                    valid = (type(time) is int and -_EXACT <= time <= _EXACT
                             and type(value) in _NUMBER and 0 <= value <= _FLOAT_MAX)
                except (KeyError, TypeError):
                    valid = False
                if not valid:
                    builder, record = _perf_record(raw, row, builders, metric_codes)
                builder.perf.extend(record)
            elif kind == "meminfo":
                try:
                    builder = builders[raw["job_id"]]
                    time, numa = raw["time"], raw["numa"]
                    sample = (builder.node_codes[raw["node"]], time, len(numa))
                    valid = (type(time) is int and -_EXACT <= time <= _EXACT
                             and type(numa) is list)
                    components = []
                    for part in numa:
                        c = (part["mem_total"], part["mem_free"], part["file_pages"],
                             part["slab"])
                        valid = valid and (type(c[0]) is type(c[1]) is type(c[2])
                                           is type(c[3]) is int
                                           and -_EXACT <= c[0] <= _EXACT
                                           and -_EXACT <= c[1] <= _EXACT
                                           and -_EXACT <= c[2] <= _EXACT
                                           and -_EXACT <= c[3] <= _EXACT)
                        components += c
                except (KeyError, TypeError):
                    valid = False
                if not valid:
                    builder, sample, components = _meminfo_record(raw, row, builders)
                builder.mem.extend(sample)
                builder.numa.extend(components)
            else:
                _other_record(raw, row, nodes, launcher, processes)
    metrics = tuple(metric_codes)
    empty = _ColumnBuilder()
    archives = {}
    for job_id in sorted(set(nodes) | set(builders) | set(launcher) | set(processes)):
        builder = builders.pop(job_id, empty)
        archives[job_id] = JobArchive(
            job_id=job_id,
            nodes=nodes.get(job_id, ()),
            samples=builder.perf_columns(metrics),
            meminfo=builder.mem_columns(),
            launcher=launcher.get(job_id),
            processes=tuple(processes.get(job_id, ())),
        )
    return archives


def write_summaries(summaries: Mapping[str, JobPerfSummary], path) -> None:
    """Emit summaries as JSONL keyed by job_id, sorted for reproducibility."""
    with open(path, "w", encoding="utf-8") as handle:
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
