"""Orchestrate analyses into named report bundles of data files.

Each analysis returns its tables and writes nothing; ``run_report`` renders,
writes and hashes every file.  Every file is emitted deterministically
(sorted rows, shortest round-trip float formatting, LF line endings) so
re-running a report over the same inputs is byte-identical.  The manifest
lists each file with its row count and content digest and is written last.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from itertools import chain
from operator import itemgetter
from typing import Callable, Mapping

import numpy as np

from . import backlog as backlog_mod
from . import statmodels
from .errors import AnalysisError, DegenerateInput, HpcwlError, UnknownAnalysis
from .ingest import Dataset, utc_date
from .jobtable import JobTable
from .metrics import (
    Filters,
    PerfColumns,
    allocation_size_summary,
    allocation_utilization,
    average_job_size_variants,
    concurrency_histograms,
    depth_profile,
    gateway_census,
    gateway_conversion,
    gateway_usage,
    geo_normalize,
    job_size_distribution,
    joint_ratio,
    large_memory_breakdown,
    lustre_stats,
    memory_2d,
    memory_histograms,
    single_node_serial_fractions,
    usage_rollup,
    width_curves,
)
from .perfsummary import JobPerfSummary

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ReportSpec:
    name: str
    date_range: tuple[date, date]
    analyses: tuple[tuple[str, dict], ...]
    filters: Filters = Filters()
    output_dir: str = "report_out"

    def __post_init__(self):
        if not self.date_range[0] < self.date_range[1]:
            raise ValueError("date_range start must precede end")
        for name, _ in self.analyses:
            if name not in ANALYSES:
                raise UnknownAnalysis(name)

    def effective_filters(self) -> Filters:
        return dataclasses.replace(self.filters, start=self.date_range[0],
                                   end=self.date_range[1])


@dataclass
class ReportContext:
    dataset: Dataset
    summaries: Mapping[str, JobPerfSummary] = field(default_factory=dict)
    community_users: Mapping[str, str] = field(default_factory=dict)
    user_email: Mapping[str, str] = field(default_factory=dict)
    population_by_state: Mapping[str, float] = field(default_factory=dict)
    tech_index_by_state: Mapping[str, float] = field(default_factory=dict)


@dataclass
class _RunContext(ReportContext):
    """The context of one run_report call, with that call's kept jobs per
    Filters value, as rows of the dataset's job table, and its summaries
    joined to that table; it is dropped when the call returns."""

    kept: dict[Filters, np.ndarray] = field(default_factory=dict)
    perf: PerfColumns | None = None  # the summaries joined to the dataset's job table

    @classmethod
    def of(cls, ctx: ReportContext) -> _RunContext:
        return cls(**{f.name: getattr(ctx, f.name)
                      for f in dataclasses.fields(ReportContext)})


# the cell types a CSV row may hold; _text gives each cell's text
_CELL_TYPES = frozenset((str, int, float, bool, date, type(None)))
# the cell types whose text is their repr
_REPR_TYPES = frozenset((float, int, bool))
# a str cell holding any of these is quoted
_QUOTED = re.compile('[,"\r\n]')
# rows per block of a rectangular table: each block's columns are taken and
# formatted at once, so a large table is never held as columns whole
_BLOCK_ROWS = 1024


def _text(cell) -> str:
    """One CSV cell's text: a float is its repr (the shortest round trip), an
    int or bool its str, a date YYYY-MM-DD and None empty; a str is written
    as is, NUL included, unless it holds a comma, quote, CR or LF, when it is
    quoted with each inner quote doubled (RFC 4180)."""
    kind = type(cell)
    if kind is str:
        if _QUOTED.search(cell) is None:
            return cell
        return '"' + cell.replace('"', '""') + '"'
    if kind is float:
        return repr(cell)
    if cell is None:
        return ""
    if kind is date:
        return cell.isoformat()
    return str(cell)


def _check(name, kinds) -> None:
    other = kinds - _CELL_TYPES
    if other:
        raise TypeError(f"{name}: cannot write cells of type "
                        + ", ".join(sorted(t.__qualname__ for t in other)))


def _line(row) -> str:
    """One row's line.  A row whose only cell is empty is written ``""``, as
    csv.writer writes it, so that it reads back as one empty cell and not as
    an empty line."""
    line = ",".join(map(_text, row))
    return '""' if not line and len(row) == 1 else line


def _column(name, cells: list) -> list[str]:
    """The texts of one column of cells, each as ``_text`` gives it."""
    kinds = set(map(type, cells))
    if kinds <= _REPR_TYPES:
        return list(map(repr, cells))
    if kinds == {str} and _QUOTED.search("".join(cells)) is None:
        return cells
    _check(name, kinds)
    return list(map(_text, cells))


def render(entry) -> str:
    """The text of one analysis output, exactly as run_report writes it.

    An entry is ``(file_name, header, rows)`` for a CSV file or
    ``(file_name, obj)`` for a JSON file.  A CSV file is the header line and
    one line per row, each ended by LF, with every cell's text as ``_text``
    gives it.  A table whose rows all have the header's length, two or more,
    is formatted a column at a time within blocks of rows; any other table a
    row at a time.  A CSV cell of a type outside ``_CELL_TYPES`` (a subclass
    such as an Enum, a datetime or a numpy scalar included) raises TypeError
    naming the file.
    """
    if len(entry) == 2:
        return json.dumps(entry[1], sort_keys=True, indent=2) + "\n"
    name, header, rows = entry
    width = len(header)
    if width < 2 or not set(map(len, rows)) <= {width}:
        _check(name, set(map(type, chain.from_iterable(rows))))
        return "".join(_line(row) + "\n" for row in chain((header,), rows))
    getters = [itemgetter(i) for i in range(width)]
    blocks = [_line(header)]
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        # a column at a time by itemgetter: zip(*block) would open an
        # iterator per row, and so many tracked objects set off the cyclic
        # garbage collector on every block
        columns = [_column(name, list(map(get, block))) for get in getters]
        blocks.append("\n".join(map(",".join, zip(*columns))))
    return "\n".join(blocks) + "\n"


def _write(output_dir, entry) -> dict:
    """Write one entry's file and return its manifest record, hashed from
    the bytes written."""
    data = render(entry).encode("utf-8")
    with open(os.path.join(output_dir, entry[0]), "wb") as handle:
        handle.write(data)
    return {"name": entry[0], "rows": len(entry[2]) if len(entry) == 3 else 1,
            "sha256": hashlib.sha256(data).hexdigest()}


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# analyses; each returns its entries, [(file_name, header, rows) or
# (file_name, obj), ...], and writes nothing

def _kept(ctx: _RunContext, filters: Filters) -> np.ndarray:
    """Row numbers in the dataset's job table of the jobs that pass filters,
    filtered once per value and run.  Filters whose ``resources`` or
    ``queues`` name no resource or queue a job ran on, an empty list
    included, raise DegenerateInput."""
    kept = ctx.kept.get(filters)
    if kept is None:
        table = ctx.dataset.job_table
        for key, column, where in (("resources", table.resource, "on"),
                                   ("queues", table.queue, "in queue")):
            names = getattr(filters, key)
            if names is not None and names.isdisjoint(column.present()):
                if not names:
                    raise DegenerateInput(f"the filters name no {key}")
                raise DegenerateInput(f"no job ran {where} "
                                      + ", ".join(map(repr, sorted(names))))
        kept = ctx.kept[filters] = filters.apply(table).row
    return kept


def _table(ctx: _RunContext, filters: Filters) -> JobTable:
    """The job table of the jobs that pass filters: the dataset's own table
    when they keep every job, else taken afresh for each analysis, so a run
    holds one table per Filters value only as row numbers."""
    return ctx.dataset.job_table.take(_kept(ctx, filters))


def _perf(ctx: _RunContext, filters: Filters) -> PerfColumns:
    """The summaries of the rows ``_table(ctx, filters)`` gives; the join
    runs once per run."""
    if ctx.perf is None:
        ctx.perf = PerfColumns.join(ctx.dataset.job_table, ctx.summaries)
    return ctx.perf.take(_kept(ctx, filters))


def _allocations(ctx, params):
    start, end = params["date_range"]
    return [a for a in ctx.dataset.allocations if start <= a.award_date < end]


def _allocation_stats(name, group_column, stats):
    rows = [(s.group, s.n_alloc, s.n_unused, s.utilization_pct, s.total,
             s.mean, s.median, s.variance) for s in stats]
    return [(name, [group_column, "n_alloc", "n_unused", "utilization_pct",
                    "total_su", "mean_su", "median_su", "variance_su"], rows)]


def _an_allocation_summary(ctx, filters, params):
    return _allocation_stats("allocation_stats_summary.csv", "group",
                             allocation_size_summary(_allocations(ctx, params)))


def _an_allocation_groups(ctx, filters, params):
    group_by = params.get("group_by", "alloc_type")
    return _allocation_stats(
        f"allocation_stats_by_{group_by}.csv", group_by,
        allocation_utilization(_allocations(ctx, params), group_by=group_by))


def _an_usage_rollup(ctx, filters, params):
    dimension = params.get("dimension", "parent_science")
    weight = params.get("weight", "xd_su")
    period = params.get("period", "quarter")
    table = usage_rollup(_table(ctx, filters), dimension, weight, period)
    return [(f"usage_{dimension}_{weight}_{period}.csv",
             ["period", dimension, weight, "pct_share"], table.rows())]


def _an_job_size_distribution(ctx, filters, params):
    weight = params.get("weight", "xd_su")
    hist = job_size_distribution(_table(ctx, filters), weight=weight)
    return [(f"job_size_distribution_{weight}.csv", ["bin", "lo", "hi", weight],
             hist.rows())]


def _an_average_core_counts(ctx, filters, params):
    kraken_factor = params.get("kraken_factor", 2.04)
    variants = {}
    for exclude_osg in (False, True):
        f = dataclasses.replace(filters, exclude_osg=exclude_osg)
        series = average_job_size_variants(_table(ctx, f), kraken_factor=kraken_factor)
        for (weighted, effective), means in series.items():
            key = ("osg_excl" if exclude_osg else "osg_incl",
                   "weighted" if weighted else "unweighted",
                   "effective" if effective else "actual")
            variants["_".join(key)] = means
    periods = sorted({p for series in variants.values() for p in series})
    header = ["period"] + sorted(variants)
    rows = [[p] + [variants[k].get(p) for k in sorted(variants)] for p in periods]
    return [("average_core_counts.csv", header, rows)]


def _an_single_node_serial(ctx, filters, params):
    exclude_osg = filters.exclude_osg or params.get("exclude_osg", True)
    shares = single_node_serial_fractions(
        _table(ctx, dataclasses.replace(filters, exclude_osg=exclude_osg)))
    rows = [(s.period, s.pct_jobs_single_node, s.pct_xd_su_single_node,
             s.pct_xd_su_serial) for s in shares]
    return [("single_node_serial.csv",
             ["period", "pct_jobs_single_node", "pct_xd_su_single_node",
              "pct_xd_su_serial"], rows)]


def _an_joint_ratio(ctx, filters, params):
    table = _table(ctx, filters)
    rows = []

    def add(scope: str, by: str, window_year=None, pool=None):
        profile = depth_profile(pool if pool is not None else table, by=by,
                                window_year=window_year)
        if not profile.projects:
            return
        try:
            jr = joint_ratio(profile)
        except HpcwlError:
            return
        rows.append((scope, by, jr.ratio_label, jr.depth_at_ratio,
                     jr.projects_at_ratio, jr.usage_at_ratio, jr.jobs_at_ratio))

    add("overall", "cores")
    add("overall", "nodes")
    for year in sorted(map(int, table.year.present())):
        add(f"year:{year}", "cores", window_year=year)
    for resource in table.resource.present():
        add(f"resource:{resource}", "cores",
            pool=table.take(table.resource.isin((resource,))))
    return [("joint_ratio.csv",
             ["scope", "by", "joint_ratio", "depth_at_ratio", "projects_at_ratio",
              "usage_core_hours_at_ratio", "jobs_at_ratio"], rows)]


def _an_width_curves(ctx, filters, params):
    by = params.get("by", "cores")
    curves = width_curves(depth_profile(_table(ctx, filters), by=by))
    rows = list(zip(curves.depths, curves.project_fraction,
                    curves.job_fraction, curves.usage_fraction))
    return [(f"width_curves_{by}.csv",
             ["depth", "project_fraction", "job_fraction", "usage_fraction"], rows)]


def _an_memory_histogram(ctx, filters, params):
    mode = params.get("mode", "per_core_avg")
    weight = params.get("weight", "core_hours")
    hist = memory_histograms(_table(ctx, filters), _perf(ctx, filters), mode=mode, weight=weight)
    return [(f"memory_{mode}_{weight}.csv", ["bin", "lo_bytes", "hi_bytes", weight],
             hist.rows())]


def _an_memory_2d(ctx, filters, params):
    x = params.get("x", "cpu_user_fraction")
    y = params.get("y", "fraction_mem_used")
    weight = params.get("weight", "core_hours")
    hist = memory_2d(_table(ctx, filters), _perf(ctx, filters), x=x, y=y, weight=weight)
    rows = []
    for i in range(len(hist.x_edges) - 1):
        for j in range(len(hist.y_edges) - 1):
            if hist.cells[i][j]:
                rows.append((hist.x_edges[i], hist.x_edges[i + 1],
                             hist.y_edges[j], hist.y_edges[j + 1],
                             hist.cells[i][j]))
    rows.append(("outside", "", "", "", hist.outside))
    rows.append(("absent", "", "", "", hist.absent))
    return [(f"memory2d_{x}_vs_{y}.csv", ["x_lo", "x_hi", "y_lo", "y_hi", weight],
             rows)]


def _an_large_memory(ctx, filters, params):
    breakdown = large_memory_breakdown(_table(ctx, filters), _perf(ctx, filters))
    rows = []
    for series in sorted(breakdown.by_parent_science):
        for group, su in sorted(breakdown.by_parent_science[series].items()):
            rows.append(("parent_science", series, group, su))
    for series in sorted(breakdown.by_app):
        for group, su in sorted(breakdown.by_app[series].items()):
            rows.append(("application", series, group, su))
    rows.append(("absent", "", "", breakdown.absent_xd_su))
    return [("large_memory_usage.csv", ["grouping", "queue_series", "group", "xd_su"],
             rows)]


def _an_lustre(ctx, filters, params):
    stats = lustre_stats(_table(ctx, filters), _perf(ctx, filters),
                         normalize=params.get("normalize", "per_job"))
    rows = []
    for metric in sorted(stats.unweighted):
        for weighting, hist in (("jobs", stats.unweighted[metric]),
                                ("node_hours", stats.node_hour_weighted[metric])):
            for label, lo, hi, w in hist.rows():
                rows.append((metric, weighting, label, lo, hi, w))
    daily_rows = [(day.isoformat(), rx, tx) for day, rx, tx in stats.daily]
    return [("lustre_distributions.csv",
             ["metric", "weighting", "bin", "lo", "hi", "weight"], rows),
            ("lustre_daily.csv", ["date", "bytes_read", "bytes_written"], daily_rows)]


def _an_concurrency(ctx, filters, params):
    result = concurrency_histograms(_table(ctx, filters), _perf(ctx, filters),
                                    bands=tuple(params.get("bands", (32, 68))))
    runnable = [(resource, bucket, hours)
                for resource in sorted(result.runnable_node_hours)
                for bucket, hours in sorted(result.runnable_node_hours[resource].items())]
    launch = [(period, launch, su)
              for period in sorted(result.launch_type_xd_su)
              for launch, su in sorted(result.launch_type_xd_su[period].items())]
    return [("concurrency_runnable_threads.csv",
             ["resource", "threads_per_node", "node_hours"], runnable),
            ("concurrency_launch_type.csv", ["period", "launch_type", "xd_su"], launch),
            ("concurrency_process_bands.csv", ["processes_per_node", "xd_su"],
             sorted(result.process_bands_xd_su.items()))]


def _an_exit_codes(ctx, filters, params):
    table = statmodels.exit_code_table(_table(ctx, filters))
    statuses = [s.value for s in statmodels.ExitStatus]
    rows = [[resource] + [table[resource][s] for s in statuses] + [table[resource]["total"]]
            for resource in sorted(table)]
    return [("exit_codes.csv", ["resource"] + statuses + ["total"], rows)]


def _an_node_fail_fit(ctx, filters, params):
    fit = statmodels.fit_node_fail(_table(ctx, filters),
                                   model=params.get("model", "nodes_linear"),
                                   include_failed=params.get("include_failed", False))
    return [(f"node_fail_fit_{fit.model}.json", dataclasses.asdict(fit))]


def _an_backlog(ctx, filters, params):
    sampling = params.get("sampling", "daily")
    table = _table(ctx, filters)
    rows = []
    for resource in table.resource.present():
        series = backlog_mod.backlog_series(table, resource, sampling=sampling)
        for point in series.points:
            rows.append((resource, point.time,
                         utc_date(point.time).isoformat(),
                         point.queued_core_years, point.running_nodes,
                         point.queued_nodes, point.required_nodes))
    return [(f"backlog_{sampling}.csv",
             ["resource", "time", "date", "queued_core_years", "running_nodes",
              "queued_nodes", "required_nodes"], rows)]


def _an_wait_stats(ctx, filters, params):
    stats = backlog_mod.wait_stats(_table(ctx, filters))
    rows = [(s.group, s.n_jobs, s.q1_hours, s.median_hours, s.q3_hours,
             s.mean_hours, s.core_hour_weighted_mean_hours)
            for s in (stats[k] for k in sorted(stats))]
    return [("wait_stats.csv",
             ["resource", "n_jobs", "q1_hours", "median_hours", "q3_hours",
              "mean_hours", "core_hour_weighted_mean_hours"], rows)]


def _an_capacity(ctx, filters, params):
    targets = params.get("targets", (0.95, 0.99))
    table = _table(ctx, filters)
    rows = []
    for resource in table.resource.present():
        spec = table.resources.get(resource)
        row = [resource, spec.nodes if spec else None]
        cores_cells = [spec.total_cores if spec else None]
        for est in backlog_mod.capacity_estimates(table, resource, targets):
            ratio = est.ratio_to_actual
            row.append(f"{est.nodes_required} ({ratio:.2f})" if ratio is not None
                       else str(est.nodes_required))
            cores_cells.append(f"{est.cores_required} ({ratio:.2f})"
                               if est.cores_required is not None else "")
        rows.append(row + cores_cells)
    header = (["resource", "nodes_actual"]
              + [f"nodes_p{t * 100:g}" for t in targets]
              + ["cores_actual"] + [f"cores_p{t * 100:g}" for t in targets])
    return [("capacity.csv", header, rows)]


def _an_user_queue_depth(ctx, filters, params):
    rows_raw = backlog_mod.user_queue_depth(_table(ctx, filters), ctx.community_users)
    depth_dist = Counter((row.category, row.max_depth) for row in rows_raw)
    jobs_dist = Counter((row.category, row.job_count) for row in rows_raw)
    return [("user_max_queue_depth.csv", ["category", "max_depth", "users"],
             [(c, d, n) for (c, d), n in sorted(depth_dist.items())]),
            ("jobs_per_user.csv", ["category", "job_count", "users"],
             [(c, d, n) for (c, d), n in sorted(jobs_dist.items())])]


def _an_periodogram(ctx, filters, params):
    # the submit column alone: the periodogram's own arrays set the run's peak memory
    table, kept = ctx.dataset.job_table, _kept(ctx, filters)
    resource = params.get("resource")
    if resource:
        kept = kept[table.resource.isin((resource,))[kept]]
    centers, counts = statmodels.bin_counts(table.submit[kept], params.get("bin_seconds", 3600))
    grid = statmodels.default_frequency_grid(
        centers, min_period_days=params.get("min_period_days", 2.0 / 24.0))
    pgram = statmodels.lomb_scargle(centers, counts, grid)
    freqs = pgram.frequencies_per_day
    rows = list(zip(freqs, (1.0 / np.asarray(freqs)).tolist(), pgram.power))
    return [(f"periodogram_{resource or 'all'}.csv",
             ["frequency_per_day", "period_days", "power"], rows)]


def _an_gateway_usage(ctx, filters, params):
    mode = params.get("mode", "community_user")
    usage = gateway_usage(_table(ctx, filters), ctx.dataset.allocations,
                          ctx.community_users, mode=mode)
    totals = [(gw, usage.per_gateway[gw]["job_count"],
               usage.per_gateway[gw]["local_su"], usage.per_gateway[gw]["xd_su"])
              for gw in sorted(usage.per_gateway)]
    series = [(period, gw, entry["job_count"], entry["local_su"], entry["xd_su"])
              for period in sorted(usage.series)
              for gw, entry in sorted(usage.series[period].items())]
    return [(f"gateway_usage_{mode}.csv",
             ["gateway", "job_count", "local_su", "xd_su"], totals),
            (f"gateway_usage_{mode}_series.csv",
             ["period", "gateway", "job_count", "local_su", "xd_su"], series)]


def _an_gateway_census(ctx, filters, params):
    rows = [(r.period, r.active_hpc_users, r.new_hpc_users,
             r.active_gateway_users, r.new_gateway_users, r.combined_active,
             r.gateway_counts_lower_bound)
            for r in gateway_census(_table(ctx, filters), ctx.community_users)]
    return [("gateway_census.csv",
             ["period", "active_hpc_users", "new_hpc_users", "active_gateway_users",
              "new_gateway_users", "combined_active", "gateway_lower_bound"], rows)]


def _an_gateway_conversion(ctx, filters, params):
    rows = [(r.gateway, r.user_key, r.gw_job_count, r.first_gw_job,
             r.xsede_job_count, r.first_xsede_job)
            for r in gateway_conversion(_table(ctx, filters), ctx.community_users,
                                        ctx.user_email,
                                        min_xsede_jobs=params.get("min_xsede_jobs", 10))]
    return [("gateway_conversion.csv",
             ["gateway", "user_key", "gw_job_count", "first_gw_job",
              "xsede_job_count", "first_xsede_job"], rows)]


def _an_geo(ctx, filters, params):
    table = usage_rollup(_table(ctx, filters), "state", "xd_su", "year")
    usage_by_state: dict[str, float] = {}
    for _, state, weight, _ in table.rows():
        usage_by_state[state] = usage_by_state.get(state, 0.0) + weight
    usage_by_state.pop("unknown", None)
    tables = geo_normalize(usage_by_state, ctx.population_by_state,
                           ctx.tech_index_by_state)
    rows = [(r.state, r.raw, r.per_capita, r.per_capita_tech) for r in tables.rows]
    rows += [("flag", flag, None, None) for flag in tables.flags]
    return [("geo_usage.csv", ["state", "xd_su", "per_capita", "per_capita_tech"], rows)]


ANALYSES: dict[str, Callable] = {
    "allocation_summary": _an_allocation_summary,
    "allocation_groups": _an_allocation_groups,
    "usage_rollup": _an_usage_rollup,
    "job_size_distribution": _an_job_size_distribution,
    "average_core_counts": _an_average_core_counts,
    "single_node_serial": _an_single_node_serial,
    "joint_ratio": _an_joint_ratio,
    "width_curves": _an_width_curves,
    "memory_histogram": _an_memory_histogram,
    "memory_2d": _an_memory_2d,
    "large_memory": _an_large_memory,
    "lustre": _an_lustre,
    "concurrency": _an_concurrency,
    "exit_codes": _an_exit_codes,
    "node_fail_fit": _an_node_fail_fit,
    "backlog": _an_backlog,
    "wait_stats": _an_wait_stats,
    "capacity": _an_capacity,
    "user_queue_depth": _an_user_queue_depth,
    "periodogram": _an_periodogram,
    "gateway_usage": _an_gateway_usage,
    "gateway_census": _an_gateway_census,
    "gateway_conversion": _an_gateway_conversion,
    "geo": _an_geo,
}


def _compute(ctx: _RunContext, name: str, params: Mapping, filters: Filters) -> list:
    # looked up at call time, so a rebound ANALYSES entry is the one called
    try:
        return ANALYSES[name](ctx, filters, params)
    except HpcwlError as err:
        raise AnalysisError(name, err) from err


def compute_analysis(ctx: ReportContext, name: str, params: Mapping,
                     filters: Filters = Filters()) -> list:
    """One analysis's entries over the jobs that filters keep, computed
    without writing anything; ``render`` gives each entry's file text.
    The allocation analyses read ``params["date_range"]``."""
    return _compute(_RunContext.of(ctx), name, params, filters)


def run_report(ctx: ReportContext, spec: ReportSpec) -> dict:
    """Run every analysis in the spec, write and hash each entry's file, and
    write the manifest last."""
    ctx = _RunContext.of(ctx)
    os.makedirs(spec.output_dir, exist_ok=True)
    filters = spec.effective_filters()
    manifest_files = []
    seen_names: set[str] = set()
    for analysis_name, params in spec.analyses:
        call_params = {"date_range": spec.date_range, **params}
        for entry in _compute(ctx, analysis_name, call_params, filters):
            if entry[0] in seen_names:
                raise AnalysisError(analysis_name,
                                    ValueError(f"duplicate output file {entry[0]}"))
            seen_names.add(entry[0])
            manifest_files.append(_write(spec.output_dir, entry))
    manifest = {
        "report": spec.name,
        "date_range": [spec.date_range[0].isoformat(), spec.date_range[1].isoformat()],
        "files": sorted(manifest_files, key=lambda f: f["name"]),
    }
    _write(spec.output_dir, (MANIFEST_NAME, manifest))
    return manifest


def verify_manifest(output_dir) -> bool:
    """Re-hash every emitted file and compare against the manifest."""
    with open(os.path.join(output_dir, MANIFEST_NAME), "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    for entry in manifest["files"]:
        if _sha256(os.path.join(output_dir, entry["name"])) != entry["sha256"]:
            return False
    return True


def standard_bundle_spec(output_dir: str = "report_out",
                      date_range: tuple[date, date] = (date(2015, 7, 1), date(2017, 1, 1)),
                      ) -> ReportSpec:
    """The built-in bundle covering every in-scope table and figure as a
    data file."""
    analyses = (
        ("allocation_summary", {}),
        ("allocation_groups", {"group_by": "alloc_type"}),
        ("allocation_groups", {"group_by": "discipline"}),
        ("allocation_groups", {"group_by": "resource"}),
        ("usage_rollup", {"dimension": "parent_science", "weight": "xd_su"}),
        ("usage_rollup", {"dimension": "directorate", "weight": "xd_su"}),
        ("usage_rollup", {"dimension": "rtype", "weight": "xd_su"}),
        ("usage_rollup", {"dimension": "nsf_user_status", "weight": "jobs"}),
        ("job_size_distribution", {"weight": "xd_su"}),
        ("average_core_counts", {}),
        ("single_node_serial", {}),
        ("joint_ratio", {}),
        ("width_curves", {}),
        ("memory_histogram", {"mode": "per_core_avg"}),
        ("memory_histogram", {"mode": "per_core_max"}),
        ("memory_2d", {"x": "cpu_user_fraction", "y": "fraction_mem_used"}),
        ("memory_2d", {"x": "nodes", "y": "total_peak_mem", "weight": "node_hours"}),
        ("large_memory", {}),
        ("lustre", {}),
        ("concurrency", {}),
        ("exit_codes", {}),
        ("node_fail_fit", {"model": "nodes_linear"}),
        ("backlog", {"sampling": "daily"}),
        ("wait_stats", {}),
        ("capacity", {"targets": (0.95, 0.99)}),
        ("user_queue_depth", {}),
        ("periodogram", {"min_period_days": 0.25}),
        ("gateway_usage", {"mode": "community_user"}),
        ("gateway_census", {}),
        ("gateway_conversion", {}),
        ("geo", {}),
    )
    return ReportSpec(name="standard-bundle", date_range=date_range,
                      analyses=analyses, output_dir=output_dir)
