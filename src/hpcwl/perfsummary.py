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
prologs and epilogs, runnable-thread medians and memory per core.  Their
sums are ``np.bincount`` sums, which add each group's values left to right
from 0.0 in row order, as ``stats.total`` does.  The derived fields, clamps and launch types are computed on the kernels' arrays,
and the summaries come back as one ``SummaryColumns`` table: a flags tuple is
built only for a job with a reset or a clamp, and an application label once
per distinct launcher executable and process list.  ``summarize_job`` is the
same kernels run on a block of one job; the record-at-a-time implementation
they replaced is kept in the tests as their reference.  ``write_summaries``
renders the table column by column and replaces its target whole or not at
all.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields
from enum import Enum
from json.encoder import encode_basestring_ascii
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
from .jobtable import Codes, Factor


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


# the optional float fields of JobPerfSummary (those None by default), in order
OPTIONAL = tuple(f.name for f in fields(JobPerfSummary) if f.default is None)
# the LaunchType values as the sorted names of a Codes
_LAUNCH_NAMES = tuple(sorted(kind.value for kind in LaunchType))


@dataclass(frozen=True, eq=False)
class SummaryColumns:
    """Job summaries as one column per ``JobPerfSummary`` field, a row per
    job.  Each ``OPTIONAL`` field is a float64 column with its own presence
    mask, so an absent field (None) stays distinct from a computed NaN or
    infinity; ``flags`` holds each row's whole tuple, in emitted order."""

    job_id: tuple[str, ...]
    values: Mapping[str, np.ndarray]  # each OPTIONAL field; any value where not present
    present: Mapping[str, np.ndarray]  # each OPTIONAL field, bool
    app_label: Codes
    launch_type: Codes  # of LaunchType values
    samples_used: np.ndarray  # int64
    flags: Factor

    def __len__(self) -> int:
        return len(self.job_id)

    def row(self, i: int) -> JobPerfSummary:
        """Row ``i`` as a record."""
        return JobPerfSummary(
            job_id=self.job_id[i],
            **{name: float(self.values[name][i]) if self.present[name][i] else None
               for name in OPTIONAL},
            app_label=self.app_label.names[self.app_label.codes[i]],
            launch_type=LaunchType(self.launch_type.names[self.launch_type.codes[i]]),
            samples_used=int(self.samples_used[i]),
            flags=self.flags.values[self.flags.codes[i]])

    def rows(self) -> list[JobPerfSummary]:
        return [self.row(i) for i in range(len(self))]


# counter metrics in the order their fields and flags are computed
_COUNTERS = (CPU_USER, CPU_TOTAL, LUSTRE_RX, LUSTRE_TX, IB_RX, IB_TX, FILE_OPENS)
# the slot of RUNNABLE_THREADS after them in the block kernels' metric map
_RUNNABLE = len(_COUNTERS)
# the summary field of each counter total that is one
_COUNTER_FIELDS = {LUSTRE_RX: "lustre_rx", LUSTRE_TX: "lustre_tx", IB_RX: "ib_rx",
                   IB_TX: "ib_tx", FILE_OPENS: "file_opens"}

# perf plus meminfo samples that one run of the block kernels reduces; a job
# with more samples than this is a block of its own
_BLOCK_SAMPLES = 16_384


def _runs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The run number of each entry of ``key`` (a run is a stretch of equal
    values) and the index of each run's first entry."""
    starts = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    return np.cumsum(starts) - 1, np.flatnonzero(starts)


def _counter_kernel(job: np.ndarray, pos: np.ndarray, slot: np.ndarray, key: np.ndarray,
                    time: np.ndarray, tag: np.ndarray, value: np.ndarray, n_jobs: int
                    ) -> tuple[dict, np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
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

    Returns (missing, totals, present, resets):
    - missing: for each job with a group that lacks a prolog or an epilog,
      (MissingProlog or MissingEpilog, node position, slot) of its first
      such group in row-major (metric, node) order;
    - totals: an (``n_jobs``, ``len(_COUNTERS)``) array of each job's total
      of each metric, 0.0 where not ``present``: no listed node collected
      the metric (a job in ``missing`` has no meaningful totals);
    - resets: the (job, slot, node position) of each group delta that saw
      a reset, in row-major order.
    """
    totals = np.zeros((n_jobs, len(_COUNTERS)))
    present = np.zeros((n_jobs, len(_COUNTERS)), dtype=bool)
    missing: dict[int, tuple[type, int, int]] = {}
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
        return missing, totals, present, []
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
    delta = np.bincount(step_group, np.where(up, cur - prev, cur), n_groups)
    reset = np.zeros(n_groups, dtype=bool)
    reset[step_group[~up]] = True

    # each job's groups in row-major (metric, node) order; a (job, metric)
    # pair adds its node deltas in list order
    g_job, g_pos, g_slot = job[first], pos[first], slot[first]
    grid = np.lexsort((g_pos, g_slot, g_job))
    pair = g_job[grid] * len(_COUNTERS) + g_slot[grid]
    pair_group, pair_first = _runs(pair)
    totals.flat[pair[pair_first]] = np.bincount(pair_group, delta[grid], len(pair_first))
    present.flat[pair[pair_first]] = True
    flagged = grid[reset[grid]]
    return missing, totals, present, list(zip(
        g_job[flagged].tolist(), g_slot[flagged].tolist(), g_pos[flagged].tolist()))


def _medians(job: np.ndarray, value: np.ndarray, n_jobs: int) -> tuple[np.ndarray, np.ndarray]:
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
    return count, median


def _mem_kernel(job: np.ndarray, lo: np.ndarray, hi: np.ndarray, numa: np.ndarray,
                cores: list, n_jobs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
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
    return samples, np.bincount(job, values, n_jobs), peak, invalid


@dataclass(frozen=True, slots=True)
class _Block:
    """What the block kernels found for the entries of a block, in order."""

    errors: list[Exception | None]  # the error an entry's summary raises
    values: np.ndarray  # (entries, len(OPTIONAL)) float64
    present: np.ndarray  # (entries, len(OPTIONAL)) bool
    samples_used: np.ndarray
    launch_type: np.ndarray  # codes into _LAUNCH_NAMES
    flags: list[tuple[str, ...]]
    apps: list[tuple[str | None, tuple]]  # (launcher exe or None, process list)


def _block_kernels(block: Sequence[tuple[JobRecord, JobArchive, object]]
                   ) -> _Block:
    """Reduce every (job, archive, cores per node) entry of a block with one
    run of the kernels over the block's samples, in order.

    An entry's error is the one its summary raises: MissingProlog or
    MissingEpilog, else ValueError for fewer than one core per node (when
    the job has in-window meminfo on a listed node), else InvalidMemInfo for
    its first bad in-window NUMA row, else ValueError for a negative
    launcher count.
    """
    n = len(block)
    if not n:
        return _Block([], np.zeros((0, len(OPTIONAL))), np.zeros((0, len(OPTIONAL)), bool),
                      np.zeros(0, np.int64), np.zeros(0, np.int64), [], [])
    # the block's node tables, each entry's position in its job's node list
    # (-1 for unlisted), and its distinct metric tables, each entry's
    # _COUNTERS slot, _RUNNABLE or -1; each job's offsets into them and its
    # row counts place its codes and rows in the block's columns
    perf_rows, mem_rows, numa_rows = [], [], 0
    node_pos, mem_pos, node_base, mem_base, numa_base, metric_base = [], [], [], [], [], []
    slots: list[int] = []
    metric_tables: dict[tuple[str, ...], int] = {}
    counts, apps = [], []
    for _, archive, _ in block:
        perf, mem, launcher = archive.samples, archive.meminfo, archive.launcher
        # no launcher is 0 processes, which is an unknown launch type
        counts.append((launcher.n_processes, launcher.threads_per_process) if launcher
                      else (0, 0))
        apps.append((launcher.exe if launcher else None, archive.processes))
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
    missing, totals, present, resets = _counter_kernel(
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

    total = dict(zip(_COUNTERS, totals.T))
    has = dict(zip(_COUNTERS, present.T))
    with np.errstate(all="ignore"):  # as in Python: inf / inf is NaN, inf - inf too
        has_cpu = has[CPU_USER] & has[CPU_TOTAL] & (total[CPU_TOTAL] > 0)
        cpu = total[CPU_USER] / total[CPU_TOTAL]
        # an absent total is 0.0, as Python's ``total or 0.0`` makes it
        has_nli = has[IB_RX] | has[IB_TX]
        nli = total[IB_RX] + total[IB_TX] - (total[LUSTRE_RX] + total[LUSTRE_TX])
        mem_avg = mem_sum / np.maximum(mem, 1)
    cpu_clamped = has_cpu & ((cpu > 1.0) | (cpu < 0.0))
    cpu[cpu_clamped] = cpu[cpu_clamped].clip(0.0, 1.0)
    nli_clamped = has_nli & (nli < 0)
    nli[nli_clamped] = 0.0

    regressions: dict[int, list[tuple[int, str]]] = {}
    for b, m, j in resets:
        regressions.setdefault(b, []).append(
            (m, f"counter_regression:{block[b][1].nodes[j]}:{_COUNTERS[m]}"))
    flags: list[tuple[str, ...]] = [()] * n
    for b in regressions.keys() | set(np.flatnonzero(cpu_clamped | nli_clamped).tolist()):
        found = regressions.get(b, ())
        flags[b] = (*(flag for m, flag in found if m < 2),
                    *(("cpu_fraction_clamped",) if cpu_clamped[b] else ()),
                    *(flag for m, flag in found if m >= 2),
                    *(("non_lustre_ib_clamped",) if nli_clamped[b] else ()))

    n_proc, threads = np.array(counts, dtype=np.int64).reshape(n, 2).T
    launch = np.select(  # the oracle's classify_launch_type
        [(n_proc == 0) | (threads == 0), (n_proc == 1) & (threads == 1), threads == 1,
         n_proc == 1],
        [_LAUNCH_NAMES.index(v) for v in ("unknown", "serial", "multi_process", "multi_threaded")],
        _LAUNCH_NAMES.index("multi_process_multi_threaded"))

    # later errors take precedence over earlier ones
    errors: list[Exception | None] = [None] * n
    for b in np.flatnonzero((n_proc < 0) | (threads < 0)).tolist():
        errors[b] = ValueError("counts must be >= 0")
    for b, message in invalid.items():
        errors[b] = InvalidMemInfo(message)
    for b in np.flatnonzero(mem).tolist():
        if cores[b] < 1:
            errors[b] = ValueError("n_cores must be >= 1")
    for b, (error, j, m) in missing.items():
        errors[b] = error(block[b][1].nodes[j], _COUNTERS[m])

    has_mem = mem > 0
    columns = {"cpu_user_fraction": (cpu, has_cpu), "mem_avg_per_core": (mem_avg, has_mem),
               "mem_max_per_core": (mem_max, has_mem), "non_lustre_ib": (nli, has_nli),
               "runnable_threads_median": (median, runnable > 0)}
    columns.update((field, (total[name], has[name])) for name, field in _COUNTER_FIELDS.items())
    return _Block(errors, np.column_stack([columns[name][0] for name in OPTIONAL]),
                  np.column_stack([columns[name][1] for name in OPTIONAL]),
                  runnable + mem, launch, flags, apps)


def _table(blocks: Sequence[_Block], rows: Mapping[str, int], db, ignore_list
           ) -> SummaryColumns:
    """The summaries of the jobs in ``rows``, in its order: each job id's
    entry in the blocks' entries, numbered in order across them.  Each
    distinct launcher executable and process list is labelled once."""
    db = appident.load_pattern_db() if db is None else db
    ignore_list = appident.load_ignore_list() if ignore_list is None else ignore_list
    take = np.fromiter(rows.values(), np.int64, len(rows))
    values, present, samples_used, launch = (np.concatenate(parts)[take] for parts in zip(
        *((b.values, b.present, b.samples_used, b.launch_type) for b in blocks)))
    flags = [f for b in blocks for f in b.flags]
    apps = [a for b in blocks for a in b.apps]
    take = take.tolist()
    labels = Factor.of([apps[k] for k in take]).names(
        lambda app: appident.resolve_job_app(
            launcher_present=app[0] is not None, launcher_exe=app[0], observations=app[1],
            db=db, ignore_list=ignore_list))
    return SummaryColumns(
        job_id=tuple(rows),
        values={name: values[:, k].copy() for k, name in enumerate(OPTIONAL)},
        present={name: present[:, k].copy() for k, name in enumerate(OPTIONAL)},
        app_label=labels, launch_type=Codes(_LAUNCH_NAMES, launch.astype(np.int32)),
        samples_used=samples_used, flags=Factor.of([flags[k] for k in take]))


def summarize_job(job: JobRecord, archive: JobArchive, cores_per_node: int,
                  db: Sequence[appident.AppPattern] | None = None,
                  ignore_list: Iterable[str] | None = None) -> JobPerfSummary:
    """Build the per-job summary from the job's node archives: the kernels
    of ``summarize_all`` run on a block of this one job."""
    if not archive.nodes:
        raise ValueError(f"job {job.job_id}: node list unknown")
    block = _block_kernels([(job, archive, cores_per_node)])
    if block.errors[0] is not None:
        raise block.errors[0]
    return _table([block], {job.job_id: 0}, db, ignore_list).row(0)


def _settle(block: Sequence[tuple[JobRecord, JobArchive | None, object]],
            blocks: list[_Block], rows: dict[str, int], skipped: dict[str, str]) -> None:
    """Reduce a block of (job, archive or None, cores per node) entries and
    record each outcome, in order: a skip reason, the entry as its job id's
    row (a later one replaces an earlier one in place), or the first
    failure, raised."""
    entry = sum(len(b.errors) for b in blocks)
    blocks.append(_block_kernels([item for item in block if item[1] is not None]))
    errors = iter(blocks[-1].errors)
    for job, archive, _ in block:
        if archive is None:
            skipped[job.job_id] = "no_archive"
            continue
        error = next(errors)
        if error is None:
            rows[job.job_id] = entry
        elif isinstance(error, (MissingProlog, MissingEpilog)):
            skipped[job.job_id] = str(error)
        elif isinstance(error, InvalidMemInfo):
            raise InvalidMemInfo(f"job {job.job_id}: {error}")
        else:
            raise error
        entry += 1


def summarize_all(jobs: Sequence[JobRecord],
                  archives: Mapping[str, JobArchive],
                  cores_per_node_of, db=None, ignore_list=None
                  ) -> tuple[SummaryColumns, dict[str, str]]:
    """Summarize every job that has an archive with a known node list.

    cores_per_node_of maps a JobRecord to its resource's cores per node.
    Returns (the summaries, skip reasons by job_id).  The summaries are a
    row per job id, in the order the ids first come in ``jobs``, each the
    summary of the id's last job.  Jobs without an archive get no summary,
    never a partial one; a job missing a counter's prolog or epilog is
    skipped with the reason.  Jobs are reduced in blocks of consecutive
    jobs, and the first failure in ``jobs`` order is raised: an error of
    ``cores_per_node_of``, InvalidMemInfo naming the job, or the ValueError
    of fewer than one core per node.
    """
    blocks: list[_Block] = []
    rows: dict[str, int] = {}
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
            _settle(block, blocks, rows, skipped)
            block, size = [], 0
        failure = None
        try:
            cores = cores_per_node_of(job)
        except Exception as err:
            failure = err
        if failure is not None:
            _settle(block, blocks, rows, skipped)  # an earlier failure wins
            raise failure
        block.append((job, archive, cores))
        size += samples
    _settle(block, blocks, rows, skipped)
    return _table(blocks, rows, db, ignore_list), skipped


def _rendered(values: Sequence, codes: np.ndarray, render=encode_basestring_ascii) -> list[str]:
    """``render`` of ``values[code]`` for each code, called once per value."""
    return list(map([render(value) for value in values].__getitem__, codes.tolist()))


def write_summaries(summaries: SummaryColumns, path) -> None:
    """Emit summaries as JSONL sorted by job_id: each line is what
    ``json.dumps(record, sort_keys=True)`` writes of a row, rendered a column
    at a time.

    A present value JSON cannot hold (NaN, inf) raises ValueError before
    anything is written.  The lines go to a temporary file in the target's
    directory that then replaces the target, so any file already at
    ``path`` is replaced whole or not at all.
    """
    for name in OPTIONAL:
        bad = np.flatnonzero(summaries.present[name] & ~np.isfinite(summaries.values[name]))
        if bad.size:
            raise ValueError(f"job {summaries.job_id[bad[0]]}: {name} is "
                             f"{summaries.values[name][bad[0]]}, which JSON cannot hold")
    at = np.array(sorted(range(len(summaries)), key=summaries.job_id.__getitem__), np.int64)
    text = {"job_id": _rendered(summaries.job_id, at),
            "app_label": _rendered(summaries.app_label.names, summaries.app_label.codes[at]),
            "launch_type": _rendered(summaries.launch_type.names,
                                     summaries.launch_type.codes[at]),
            "samples_used": list(map(int.__repr__, summaries.samples_used[at].tolist())),
            "flags": _rendered(summaries.flags.values, summaries.flags.codes[at],
                               lambda flags: f"[{', '.join(map(encode_basestring_ascii, flags))}]")}
    for name in OPTIONAL:
        column = text[name] = list(map(float.__repr__, summaries.values[name][at].tolist()))
        for k in np.flatnonzero(~summaries.present[name][at]).tolist():
            column[k] = "null"
    keys = sorted(text)
    line = "{" + ", ".join(f'"{key}": %s' for key in keys) + "}\n"
    path = os.fspath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write("".join(map(line.__mod__, zip(*(text[key] for key in keys)))))
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise
