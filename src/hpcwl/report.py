"""Orchestrate analyses into named report bundles of data files.

Every file is emitted deterministically (sorted rows, shortest round-trip
float formatting, LF line endings) so re-running a report over the same
inputs is byte-identical.  The manifest lists each file with its row count
and content digest and is written last.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from datetime import date, datetime
from enum import Enum
from typing import Callable, Mapping, Sequence

from . import backlog as backlog_mod
from . import statmodels
from .errors import AnalysisError, HpcwlError, UnknownAnalysis
from .ingest import Dataset, JobRecord, utc_date
from .metrics import (
    Filters,
    allocation_size_summary,
    allocation_utilization,
    average_job_size_series,
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
    Filters value; it is dropped when the call returns."""

    kept: dict[Filters, tuple[JobRecord, ...]] = field(default_factory=dict)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (date, datetime)):
        return value.isoformat()
    return str(value)


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> int:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        import csv as _csv

        writer = _csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return len(rows)


def write_json(path, obj) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(obj, sort_keys=True, indent=2))
        handle.write("\n")
    return 1


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# analyses; each returns [(filename, row_count), ...]

def _jobs(ctx: _RunContext, filters: Filters) -> tuple[JobRecord, ...]:
    """The dataset's jobs that pass filters, filtered once per value and run."""
    kept = ctx.kept.get(filters)
    if kept is None:
        kept = ctx.kept[filters] = tuple(filters.apply(ctx.dataset.jobs))
    return kept


def _an_allocation_summary(ctx, filters, params, outdir):
    start, end = params["date_range"]
    allocs = [a for a in ctx.dataset.allocations if start <= a.award_date < end]
    stats = allocation_size_summary(allocs)
    rows = [(s.group, s.n_alloc, s.n_unused, s.utilization_pct, s.total,
             s.mean, s.median, s.variance) for s in stats]
    name = "allocation_stats_summary.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["group", "n_alloc", "n_unused", "utilization_pct",
                              "total_su", "mean_su", "median_su", "variance_su"], rows))]


def _an_allocation_groups(ctx, filters, params, outdir):
    group_by = params.get("group_by", "alloc_type")
    start, end = params["date_range"]
    allocs = [a for a in ctx.dataset.allocations if start <= a.award_date < end]
    stats = allocation_utilization(allocs, group_by=group_by)
    rows = [(s.group, s.n_alloc, s.n_unused, s.utilization_pct, s.total,
             s.mean, s.median, s.variance) for s in stats]
    name = f"allocation_stats_by_{group_by}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             [group_by, "n_alloc", "n_unused", "utilization_pct",
                              "total_su", "mean_su", "median_su", "variance_su"], rows))]


def _an_usage_rollup(ctx, filters, params, outdir):
    dimension = params.get("dimension", "parent_science")
    weight = params.get("weight", "xd_su")
    period = params.get("period", "quarter")
    table = usage_rollup(_jobs(ctx, filters), dimension, weight, period,
                         ctx.dataset.resources)
    name = f"usage_{dimension}_{weight}_{period}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["period", dimension, weight, "pct_share"],
                             table.rows()))]


def _an_job_size_distribution(ctx, filters, params, outdir):
    weight = params.get("weight", "xd_su")
    hist = job_size_distribution(_jobs(ctx, filters), weight=weight,
                                 resources=ctx.dataset.resources)
    name = f"job_size_distribution_{weight}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["bin", "lo", "hi", weight], hist.rows()))]


def _an_average_core_counts(ctx, filters, params, outdir):
    kraken_factor = params.get("kraken_factor", 2.04)
    resources = ctx.dataset.resources
    variants = {}
    for exclude_osg in (False, True):
        f = dataclasses.replace(filters, exclude_osg=exclude_osg)
        for weighted in (False, True):
            for effective in (False, True):
                key = ("osg_excl" if exclude_osg else "osg_incl",
                       "weighted" if weighted else "unweighted",
                       "effective" if effective else "actual")
                variants["_".join(key)] = average_job_size_series(
                    _jobs(ctx, f), resources, weighted_by_xd_su=weighted,
                    effective=effective, kraken_factor=kraken_factor)
    periods = sorted({p for series in variants.values() for p in series})
    header = ["period"] + sorted(variants)
    rows = [[p] + [variants[k].get(p) for k in sorted(variants)] for p in periods]
    name = "average_core_counts.csv"
    return [(name, write_csv(os.path.join(outdir, name), header, rows))]


def _an_single_node_serial(ctx, filters, params, outdir):
    shares = single_node_serial_fractions(_jobs(ctx, filters),
                                          ctx.dataset.resources,
                                          exclude_osg=params.get("exclude_osg", True))
    rows = [(s.period, s.pct_jobs_single_node, s.pct_xd_su_single_node,
             s.pct_xd_su_serial) for s in shares]
    name = "single_node_serial.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["period", "pct_jobs_single_node",
                              "pct_xd_su_single_node", "pct_xd_su_serial"], rows))]


def _an_joint_ratio(ctx, filters, params, outdir):
    jobs = _jobs(ctx, filters)
    rows = []

    def add(scope: str, by: str, window_year=None, pool=None):
        profile = depth_profile(pool if pool is not None else jobs, by=by,
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
    years = sorted({utc_date(j.end_time).year for j in jobs})
    for year in years:
        add(f"year:{year}", "cores", window_year=year)
    for resource in sorted({j.resource for j in jobs}):
        add(f"resource:{resource}", "cores",
            pool=[j for j in jobs if j.resource == resource])
    name = "joint_ratio.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["scope", "by", "joint_ratio", "depth_at_ratio",
                              "projects_at_ratio", "usage_core_hours_at_ratio",
                              "jobs_at_ratio"], rows))]


def _an_width_curves(ctx, filters, params, outdir):
    by = params.get("by", "cores")
    curves = width_curves(depth_profile(_jobs(ctx, filters), by=by))
    rows = list(zip(curves.depths, curves.project_fraction,
                    curves.job_fraction, curves.usage_fraction))
    name = f"width_curves_{by}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["depth", "project_fraction", "job_fraction",
                              "usage_fraction"], rows))]


def _an_memory_histogram(ctx, filters, params, outdir):
    mode = params.get("mode", "per_core_avg")
    weight = params.get("weight", "core_hours")
    hist = memory_histograms(_jobs(ctx, filters), ctx.summaries,
                             ctx.dataset.resources, mode=mode, weight=weight)
    name = f"memory_{mode}_{weight}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["bin", "lo_bytes", "hi_bytes", weight], hist.rows()))]


def _an_memory_2d(ctx, filters, params, outdir):
    x = params.get("x", "cpu_user_fraction")
    y = params.get("y", "fraction_mem_used")
    weight = params.get("weight", "core_hours")
    hist = memory_2d(_jobs(ctx, filters), ctx.summaries, ctx.dataset.resources,
                     x=x, y=y, weight=weight)
    rows = []
    for i in range(len(hist.x_edges) - 1):
        for j in range(len(hist.y_edges) - 1):
            if hist.cells[i][j]:
                rows.append((hist.x_edges[i], hist.x_edges[i + 1],
                             hist.y_edges[j], hist.y_edges[j + 1],
                             hist.cells[i][j]))
    rows.append(("outside", "", "", "", hist.outside))
    rows.append(("absent", "", "", "", hist.absent))
    name = f"memory2d_{x}_vs_{y}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["x_lo", "x_hi", "y_lo", "y_hi", weight], rows))]


def _an_large_memory(ctx, filters, params, outdir):
    breakdown = large_memory_breakdown(_jobs(ctx, filters), ctx.summaries,
                                       ctx.dataset.resources)
    rows = []
    for series in sorted(breakdown.by_parent_science):
        for group, su in sorted(breakdown.by_parent_science[series].items()):
            rows.append(("parent_science", series, group, su))
    for series in sorted(breakdown.by_app):
        for group, su in sorted(breakdown.by_app[series].items()):
            rows.append(("application", series, group, su))
    rows.append(("absent", "", "", breakdown.absent_xd_su))
    name = "large_memory_usage.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["grouping", "queue_series", "group", "xd_su"], rows))]


def _an_lustre(ctx, filters, params, outdir):
    stats = lustre_stats(_jobs(ctx, filters), ctx.summaries,
                         normalize=params.get("normalize", "per_job"))
    rows = []
    for metric in sorted(stats.unweighted):
        for weighting, hist in (("jobs", stats.unweighted[metric]),
                                ("node_hours", stats.node_hour_weighted[metric])):
            for label, lo, hi, w in hist.rows():
                rows.append((metric, weighting, label, lo, hi, w))
    files = []
    name = "lustre_distributions.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["metric", "weighting", "bin", "lo", "hi", "weight"],
                                  rows)))
    daily_rows = [(day.isoformat(), rx, tx) for day, rx, tx in stats.daily]
    name = "lustre_daily.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["date", "bytes_read", "bytes_written"], daily_rows)))
    return files


def _an_concurrency(ctx, filters, params, outdir):
    result = concurrency_histograms(_jobs(ctx, filters), ctx.summaries,
                                    ctx.dataset.resources,
                                    bands=tuple(params.get("bands", (32, 68))))
    files = []
    rows = [(resource, bucket, hours)
            for resource in sorted(result.runnable_node_hours)
            for bucket, hours in sorted(result.runnable_node_hours[resource].items())]
    name = "concurrency_runnable_threads.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["resource", "threads_per_node", "node_hours"], rows)))
    rows = [(period, launch, su)
            for period in sorted(result.launch_type_xd_su)
            for launch, su in sorted(result.launch_type_xd_su[period].items())]
    name = "concurrency_launch_type.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["period", "launch_type", "xd_su"], rows)))
    rows = sorted(result.process_bands_xd_su.items())
    name = "concurrency_process_bands.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["processes_per_node", "xd_su"], rows)))
    return files


def _an_exit_codes(ctx, filters, params, outdir):
    table = statmodels.exit_code_table(_jobs(ctx, filters))
    statuses = [s.value for s in statmodels.ExitStatus]
    rows = [[resource] + [table[resource][s] for s in statuses] + [table[resource]["total"]]
            for resource in sorted(table)]
    name = "exit_codes.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["resource"] + statuses + ["total"], rows))]


def _an_node_fail_fit(ctx, filters, params, outdir):
    fit = statmodels.fit_node_fail(_jobs(ctx, filters),
                                   model=params.get("model", "nodes_linear"),
                                   include_failed=params.get("include_failed", False))
    name = f"node_fail_fit_{fit.model}.json"
    return [(name, write_json(os.path.join(outdir, name), dataclasses.asdict(fit)))]


def _an_backlog(ctx, filters, params, outdir):
    sampling = params.get("sampling", "daily")
    jobs = _jobs(ctx, filters)
    rows = []
    for resource in sorted({j.resource for j in jobs}):
        spec = ctx.dataset.resources.get(resource)
        series = backlog_mod.backlog_series(jobs, resource, sampling=sampling, spec=spec)
        for point in series.points:
            rows.append((resource, point.time,
                         utc_date(point.time).isoformat(),
                         point.queued_core_years, point.running_nodes,
                         point.queued_nodes, point.required_nodes))
    name = f"backlog_{sampling}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["resource", "time", "date", "queued_core_years",
                              "running_nodes", "queued_nodes", "required_nodes"], rows))]


def _an_wait_stats(ctx, filters, params, outdir):
    stats = backlog_mod.wait_stats(_jobs(ctx, filters))
    rows = [(s.group, s.n_jobs, s.q1_hours, s.median_hours, s.q3_hours,
             s.mean_hours, s.core_hour_weighted_mean_hours)
            for s in (stats[k] for k in sorted(stats))]
    name = "wait_stats.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["resource", "n_jobs", "q1_hours", "median_hours",
                              "q3_hours", "mean_hours",
                              "core_hour_weighted_mean_hours"], rows))]


def _an_capacity(ctx, filters, params, outdir):
    targets = params.get("targets", (0.95, 0.99))
    jobs = _jobs(ctx, filters)
    rows = []
    for resource in sorted({j.resource for j in jobs}):
        spec = ctx.dataset.resources.get(resource)
        row = [resource, spec.nodes if spec else None]
        cores_cells = [spec.total_cores if spec else None]
        for target in targets:
            est = backlog_mod.capacity_for_percentile(jobs, resource, target, spec=spec)
            ratio = est.ratio_to_actual
            row.append(f"{est.nodes_required} ({ratio:.2f})" if ratio is not None
                       else str(est.nodes_required))
            cores_cells.append(f"{est.cores_required} ({ratio:.2f})"
                               if est.cores_required is not None else "")
        rows.append(row + cores_cells)
    header = (["resource", "nodes_actual"]
              + [f"nodes_p{int(t * 100)}" for t in targets]
              + ["cores_actual"] + [f"cores_p{int(t * 100)}" for t in targets])
    name = "capacity.csv"
    return [(name, write_csv(os.path.join(outdir, name), header, rows))]


def _an_user_queue_depth(ctx, filters, params, outdir):
    rows_raw = backlog_mod.user_queue_depth(_jobs(ctx, filters), ctx.community_users)
    depth_dist: dict[tuple[str, int], int] = {}
    jobs_dist: dict[tuple[str, int], int] = {}
    for row in rows_raw:
        depth_dist[(row.category, row.max_depth)] = depth_dist.get(
            (row.category, row.max_depth), 0) + 1
        jobs_dist[(row.category, row.job_count)] = jobs_dist.get(
            (row.category, row.job_count), 0) + 1
    files = []
    name = "user_max_queue_depth.csv"
    files.append((name, write_csv(
        os.path.join(outdir, name), ["category", "max_depth", "users"],
        [(c, d, n) for (c, d), n in sorted(depth_dist.items())])))
    name = "jobs_per_user.csv"
    files.append((name, write_csv(
        os.path.join(outdir, name), ["category", "job_count", "users"],
        [(c, d, n) for (c, d), n in sorted(jobs_dist.items())])))
    return files


def _an_periodogram(ctx, filters, params, outdir):
    jobs = _jobs(ctx, filters)
    resource = params.get("resource")
    if resource:
        jobs = [j for j in jobs if j.resource == resource]
    submits = [j.submit_time for j in jobs]
    centers, counts = statmodels.bin_counts(submits, params.get("bin_seconds", 3600))
    grid = statmodels.default_frequency_grid(
        centers, min_period_days=params.get("min_period_days", 2.0 / 24.0))
    pgram = statmodels.lomb_scargle(centers, counts, grid)
    rows = [(f, 1.0 / f, p) for f, p in
            zip(pgram.frequencies_per_day, pgram.power)]
    name = f"periodogram_{resource or 'all'}.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["frequency_per_day", "period_days", "power"], rows))]


def _an_gateway_usage(ctx, filters, params, outdir):
    mode = params.get("mode", "community_user")
    usage = gateway_usage(_jobs(ctx, filters), ctx.dataset.allocations,
                          ctx.community_users, ctx.dataset.resources, mode=mode)
    files = []
    rows = [(gw, usage.per_gateway[gw]["job_count"],
             usage.per_gateway[gw]["local_su"], usage.per_gateway[gw]["xd_su"])
            for gw in sorted(usage.per_gateway)]
    name = f"gateway_usage_{mode}.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["gateway", "job_count", "local_su", "xd_su"], rows)))
    rows = [(period, gw, entry["job_count"], entry["local_su"], entry["xd_su"])
            for period in sorted(usage.series)
            for gw, entry in sorted(usage.series[period].items())]
    name = f"gateway_usage_{mode}_series.csv"
    files.append((name, write_csv(os.path.join(outdir, name),
                                  ["period", "gateway", "job_count", "local_su",
                                   "xd_su"], rows)))
    return files


def _an_gateway_census(ctx, filters, params, outdir):
    rows = [(r.period, r.active_hpc_users, r.new_hpc_users,
             r.active_gateway_users, r.new_gateway_users, r.combined_active,
             r.gateway_counts_lower_bound)
            for r in gateway_census(_jobs(ctx, filters), ctx.community_users)]
    name = "gateway_census.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["period", "active_hpc_users", "new_hpc_users",
                              "active_gateway_users", "new_gateway_users",
                              "combined_active", "gateway_lower_bound"], rows))]


def _an_gateway_conversion(ctx, filters, params, outdir):
    rows = [(r.gateway, r.user_key, r.gw_job_count, r.first_gw_job,
             r.xsede_job_count, r.first_xsede_job)
            for r in gateway_conversion(_jobs(ctx, filters), ctx.community_users,
                                        ctx.user_email,
                                        min_xsede_jobs=params.get("min_xsede_jobs", 10))]
    name = "gateway_conversion.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["gateway", "user_key", "gw_job_count", "first_gw_job",
                              "xsede_job_count", "first_xsede_job"], rows))]


def _an_geo(ctx, filters, params, outdir):
    table = usage_rollup(_jobs(ctx, filters), "state", "xd_su", "year",
                         ctx.dataset.resources)
    usage_by_state: dict[str, float] = {}
    for _, state, weight, _ in table.rows():
        usage_by_state[state] = usage_by_state.get(state, 0.0) + weight
    usage_by_state.pop("unknown", None)
    tables = geo_normalize(usage_by_state, ctx.population_by_state,
                           ctx.tech_index_by_state)
    rows = [(r.state, r.raw, r.per_capita, r.per_capita_tech) for r in tables.rows]
    rows += [("flag", flag, None, None) for flag in tables.flags]
    name = "geo_usage.csv"
    return [(name, write_csv(os.path.join(outdir, name),
                             ["state", "xd_su", "per_capita", "per_capita_tech"], rows))]


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


def run_report(ctx: ReportContext, spec: ReportSpec) -> dict:
    """Run every analysis in the spec and write the manifest last."""
    ctx = _RunContext(**{f.name: getattr(ctx, f.name)
                         for f in dataclasses.fields(ReportContext)})
    outdir = spec.output_dir
    os.makedirs(outdir, exist_ok=True)
    filters = spec.effective_filters()
    manifest_files = []
    seen_names: set[str] = set()
    for analysis_name, params in spec.analyses:
        func = ANALYSES.get(analysis_name)
        if func is None:
            raise UnknownAnalysis(analysis_name)
        call_params = dict(params)
        call_params.setdefault("date_range", spec.date_range)
        try:
            emitted = func(ctx, filters, call_params, outdir)
        except HpcwlError as err:
            raise AnalysisError(analysis_name, err) from err
        for file_name, rows in emitted:
            if file_name in seen_names:
                raise AnalysisError(analysis_name,
                                    ValueError(f"duplicate output file {file_name}"))
            seen_names.add(file_name)
            manifest_files.append({
                "name": file_name,
                "rows": rows,
                "sha256": _sha256(os.path.join(outdir, file_name)),
            })
    manifest = {
        "report": spec.name,
        "date_range": [spec.date_range[0].isoformat(), spec.date_range[1].isoformat()],
        "files": sorted(manifest_files, key=lambda f: f["name"]),
    }
    write_json(os.path.join(outdir, MANIFEST_NAME), manifest)
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
