"""Reduce per-node performance archives to one summary per job.

Counter metrics accumulate monotonically: the job's value is the epilog
reading minus the prolog reading, summed over the job's nodes, with a counter
reset treated as contributing the post-reset value.  Instantaneous metrics
are point samples: only readings strictly inside the job's run window are
used, unweighted.  Jobs with no in-window samples get absent fields, never
zeros.

Each job's samples come as the columns of an ``hpcwl.archives.JobArchive``.
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
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import appident
from .archives import (
    CPU_TOTAL,
    CPU_USER,
    FILE_OPENS,
    IB_RX,
    IB_TX,
    LUSTRE_RX,
    LUSTRE_TX,
    RUNNABLE_THREADS,
    _EPILOG,
    _EXACT,
    _INSTANTANEOUS,
    _PERIODIC,
    _PROLOG,
    JobArchive,
)
# bench/child.py calls perfsummary.load_archives and bench/spans.py traces it
# here; both move to hpcwl.archives with the next benchmark change (ROADMAP
# item 8)
from .archives import load_archives  # noqa: F401
from .errors import InvalidMemInfo, MissingEpilog, MissingProlog
from .ingest import JobRecord


class LaunchType(str, Enum):
    SERIAL = "serial"
    MULTI_PROCESS = "multi_process"
    MULTI_THREADED = "multi_threaded"
    MULTI_PROCESS_MULTI_THREADED = "multi_process_multi_threaded"
    UNKNOWN = "unknown"


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


def non_lustre_ib(ib_bytes: float, lustre_bytes: float) -> tuple[float, bool]:
    """Interconnect traffic net of filesystem traffic, clamped at zero.

    Returns (bytes, clamped).
    """
    if ib_bytes < 0 or lustre_bytes < 0:
        raise ValueError("byte totals must be nonnegative")
    remainder = ib_bytes - lustre_bytes
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
    is the test oracle's ``counter_delta`` of those values, summed in the
    same order, and a job's total of a metric is the sum of its deltas over
    the job's nodes in list order, from 0.0.

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

    # as the oracle's counter_delta: a decrease contributes the post-reset value
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
    """The test oracle's ``memory_per_core`` of meminfo samples whose NUMA
    nodes are rows ``lo[i]:hi[i]`` of ``numa``, sample i of job ``job[i]``
    (ascending) with ``cores[job[i]]`` cores per node: used bytes (MemTotal
    less free, file pages and slab) summed over NUMA nodes, per core.

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
        nli, clamped = non_lustre_ib((ib_rx or 0.0) + (ib_tx or 0.0),
                                     (lustre_rx or 0.0) + (lustre_tx or 0.0))
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


def write_summaries(summaries: Mapping[str, JobPerfSummary], path) -> None:
    """Emit summaries as JSONL keyed by job_id, sorted for reproducibility.

    The lines go to a temporary file in the target's directory that then
    replaces the target, so a value JSON cannot hold (NaN, inf) raises
    ValueError and leaves any file already at ``path`` as it was.
    """
    path = os.fspath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    names = [field.name for field in fields(JobPerfSummary)]
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            for job_id in sorted(summaries):
                s = summaries[job_id]
                record = {name: getattr(s, name) for name in names}
                record["launch_type"] = s.launch_type.value
                record["flags"] = list(s.flags)
                handle.write(json.dumps(record, sort_keys=True, allow_nan=False))
                handle.write("\n")
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
