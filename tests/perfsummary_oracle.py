"""Record-at-a-time job summary: the reference for the columnar
``perfsummary.summarize_job``.

This is the per-record implementation the columnar one replaced, unchanged
except that it takes the job's records as sequences instead of a
``JobArchive`` and takes its median and memory mean from ``hpcwl.stats``,
as the columnar code does.  ``load_archives`` used to hand it samples and meminfo sorted
stably by (node, time), so that is the order to pass them in.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from hpcwl import appident
from hpcwl.errors import MissingEpilog, MissingProlog
from hpcwl.ingest import JobRecord
from hpcwl.perfsummary import (
    CPU_TOTAL,
    CPU_USER,
    FILE_OPENS,
    IB_RX,
    IB_TX,
    LUSTRE_RX,
    LUSTRE_TX,
    RUNNABLE_THREADS,
    JobPerfSummary,
    LauncherInfo,
    LaunchType,
    MemInfoSample,
    PerfSample,
    SampleKind,
    SampleTag,
    classify_launch_type,
    counter_delta,
    memory_per_core,
    non_lustre_ib,
)
from hpcwl.stats import quantile, total


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
