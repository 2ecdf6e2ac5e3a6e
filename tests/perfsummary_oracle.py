"""Record-at-a-time job summary: the reference for the columnar
``perfsummary.summarize_job``, and the per-record archive types it reads.

This is the per-record implementation the columnar one replaced, unchanged
except that it takes the job's records as sequences instead of a
``JobArchive`` and takes its median and memory mean from ``hpcwl.stats``,
as the columnar code does.  ``load_archives`` used to hand it samples and meminfo sorted
stably by (node, time), so that is the order to pass them in.
``record_archive`` builds the columnar ``JobArchive`` of the same records,
by the loader's column builder.

``non_lustre_ib`` and ``classify_launch_type`` are its per-job formulas,
which ``perfsummary`` computes on whole arrays.  ``render_summaries`` is the
record-at-a-time summaries writer that the column renderer of
``perfsummary.write_summaries`` replaced, and ``summary_columns`` builds the
``SummaryColumns`` of summary records.
"""
from __future__ import annotations

import json
import sys
from array import array
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from hpcwl import appident
from hpcwl.archives import (
    CPU_TOTAL,
    CPU_USER,
    FILE_OPENS,
    IB_RX,
    IB_TX,
    LUSTRE_RX,
    LUSTRE_TX,
    RUNNABLE_THREADS,
    _KIND_CODE,
    _TAG_CODE,
    JobArchive,
    LauncherInfo,
    MemColumns,
    SampleColumns,
    SampleKind,
    SampleTag,
    _Codes,
    _ColumnBuilder,
    _numa_rows,
)
from hpcwl.errors import InvalidMemInfo, MissingEpilog, MissingProlog
from hpcwl.ingest import JobRecord
from hpcwl.jobtable import Codes, Factor
from hpcwl.perfsummary import OPTIONAL, JobPerfSummary, LaunchType, SummaryColumns
from hpcwl.stats import quantile, total

_FLOAT_MAX = sys.float_info.max


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


def record_archive(job_id: str, nodes: tuple[str, ...],
                   samples: Iterable[PerfSample] = (), meminfo: Iterable[MemInfoSample] = (),
                   launcher: LauncherInfo | None = None,
                   processes: tuple[appident.ProcessObservation, ...] = ()) -> JobArchive:
    """The ``JobArchive`` of a job's perf and meminfo records."""
    return JobArchive(job_id=job_id, nodes=nodes, samples=_perf_from_records(samples),
                      meminfo=_mem_from_records(meminfo), launcher=launcher,
                      processes=processes)


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


def loader_order(records):
    """Records in the order the per-record loader kept them."""
    return sorted(records, key=lambda r: (r.node, r.time))


def _node_counter_delta(samples: list[PerfSample], node: str, metric: str) -> tuple[float, bool]:
    """Delta for one (node, metric); raises when prolog/epilog is missing."""
    prologs = [s for s in samples if s.tag is SampleTag.JOB_PROLOG]
    epilogs = [s for s in samples if s.tag is SampleTag.JOB_EPILOG]
    if not prologs:
        raise MissingProlog(node, metric)
    if not epilogs:
        raise MissingEpilog(node, metric)
    start = max(prologs, key=lambda s: s.time)
    end = min(epilogs, key=lambda s: s.time)
    interior = [s for s in samples
                if s.tag is SampleTag.PERIODIC and start.time <= s.time <= end.time]
    ordered = sorted([start, *interior, end], key=lambda s: s.time)
    return counter_delta([s.value for s in ordered])


def _sum_counter(by_node: Mapping[tuple[str, str], list[PerfSample]],
                 nodes: Sequence[str], metric: str,
                 flags: list[str]) -> float | None:
    """Sum a counter metric over nodes; None when no node collected it."""
    total = 0.0
    seen = False
    for node in nodes:
        samples = by_node.get((node, metric))
        if not samples:
            continue
        seen = True
        delta, reset = _node_counter_delta(samples, node, metric)
        if reset:
            flags.append(f"counter_regression:{node}:{metric}")
        total += delta
    return total if seen else None


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


def summarize_records(job: JobRecord, nodes: Sequence[str],
                      samples: Sequence[PerfSample], meminfo: Sequence[MemInfoSample],
                      cores_per_node: int, launcher: LauncherInfo | None = None,
                      processes: Sequence[appident.ProcessObservation] = (),
                      db: Sequence[appident.AppPattern] | None = None,
                      ignore_list: Iterable[str] | None = None) -> JobPerfSummary:
    """Build the per-job summary from the job's records; ``nodes`` must be
    distinct, as ``JobArchive`` and the loader require."""
    if not nodes:
        raise ValueError(f"job {job.job_id}: node list unknown")
    if len(set(nodes)) != len(nodes):
        raise ValueError(f"job {job.job_id}: a node is listed twice")
    if db is None:
        db = appident.load_pattern_db()
    if ignore_list is None:
        ignore_list = appident.load_ignore_list()
    flags: list[str] = []

    by_node: dict[tuple[str, str], list[PerfSample]] = {}
    for sample in samples:
        by_node.setdefault((sample.node, sample.metric), []).append(sample)

    user_delta = _sum_counter(by_node, nodes, CPU_USER, flags)
    total_delta = _sum_counter(by_node, nodes, CPU_TOTAL, flags)
    cpu_fraction = None
    if user_delta is not None and total_delta is not None and total_delta > 0:
        cpu_fraction = user_delta / total_delta
        if cpu_fraction > 1.0 or cpu_fraction < 0.0:
            flags.append("cpu_fraction_clamped")
            cpu_fraction = min(1.0, max(0.0, cpu_fraction))

    lustre_rx = _sum_counter(by_node, nodes, LUSTRE_RX, flags)
    lustre_tx = _sum_counter(by_node, nodes, LUSTRE_TX, flags)
    ib_rx = _sum_counter(by_node, nodes, IB_RX, flags)
    ib_tx = _sum_counter(by_node, nodes, IB_TX, flags)
    opens = _sum_counter(by_node, nodes, FILE_OPENS, flags)

    nli = None
    if ib_rx is not None or ib_tx is not None:
        ib_total = (ib_rx or 0.0) + (ib_tx or 0.0)
        lustre_total = (lustre_rx or 0.0) + (lustre_tx or 0.0)
        nli, clamped = non_lustre_ib(ib_total, lustre_total)
        if clamped:
            flags.append("non_lustre_ib_clamped")

    in_window = lambda t: job.start_time < t < job.end_time
    samples_used = 0

    runnable = [s.value for s in samples
                if s.metric == RUNNABLE_THREADS and s.kind is SampleKind.INSTANTANEOUS
                and s.node in nodes and in_window(s.time)]
    samples_used += len(runnable)
    runnable_median = quantile(sorted(runnable), 0.5) if runnable else None

    mem_values = [memory_per_core(m, cores_per_node) for m in meminfo
                  if m.node in nodes and in_window(m.time)]
    samples_used += len(mem_values)
    mem_avg = total(mem_values) / len(mem_values) if mem_values else None
    mem_max = max(mem_values) if mem_values else None

    label = appident.resolve_job_app(
        launcher_present=launcher is not None,
        launcher_exe=launcher.exe if launcher else None,
        observations=tuple(processes),
        db=db, ignore_list=ignore_list)
    if launcher is not None:
        launch = classify_launch_type(launcher.n_processes,
                                      launcher.threads_per_process,
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
        samples_used=samples_used,
        flags=tuple(flags),
    )


def summary_columns(summaries: Sequence[JobPerfSummary]) -> SummaryColumns:
    """The columns of summary records, a row per record in order."""
    def present(name):
        return np.array([getattr(s, name) is not None for s in summaries], dtype=bool)

    return SummaryColumns(
        job_id=tuple(s.job_id for s in summaries),
        values={name: np.array([0.0 if getattr(s, name) is None else getattr(s, name)
                                for s in summaries], dtype=np.float64) for name in OPTIONAL},
        present={name: present(name) for name in OPTIONAL},
        app_label=Codes.encode([s.app_label for s in summaries]),
        launch_type=Codes.encode([s.launch_type.value for s in summaries]),
        samples_used=np.array([s.samples_used for s in summaries], dtype=np.int64),
        flags=Factor.of([s.flags for s in summaries]))


def render_summaries(summaries: Mapping[str, JobPerfSummary]) -> bytes:
    """The summaries JSONL of summary records by job id: a record per line,
    sorted by job id, keys sorted.  A value JSON cannot hold (NaN, inf) is
    a ValueError."""
    names = [field.name for field in fields(JobPerfSummary)]
    lines = []
    for job_id in sorted(summaries):
        s = summaries[job_id]
        record = {name: getattr(s, name) for name in names}
        record["launch_type"] = s.launch_type.value
        record["flags"] = list(s.flags)
        lines.append(json.dumps(record, sort_keys=True, allow_nan=False) + "\n")
    return "".join(lines).encode("utf-8")
