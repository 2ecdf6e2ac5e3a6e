"""Per-layer metrics: names, units, better direction, and their values.

Every metric comes from the traced run (spans.Tracer) or from the counts the
child process reports.  Which end-to-end metric each should move, on which
workload, is tabled in README.md.  A metric whose function no longer exists,
or that the workload never calls, is reported as 0 and listed as absent with
the reason.
"""
from __future__ import annotations

from spans import ANALYSIS_PREFIX, span_totals

# the analysis names of report.ANALYSES when the benchmark was defined
ANALYSIS_NAMES = (
    "allocation_summary", "allocation_groups", "usage_rollup",
    "job_size_distribution", "average_core_counts", "single_node_serial",
    "joint_ratio", "width_curves", "memory_histogram", "memory_2d",
    "large_memory", "lustre", "concurrency", "exit_codes", "node_fail_fit",
    "backlog", "wait_stats", "capacity", "user_queue_depth", "periodogram",
    "gateway_usage", "gateway_census", "gateway_conversion", "geo",
)

# spans whose inclusive seconds are reported as "<span>_s"
_SPAN_METRICS = (
    "ingest.load_jobs", "ingest.load_allocations", "ingest.build_dataset",
    "perfsummary.load_archives", "perfsummary.summarize_all",
    "perfsummary.write_summaries", "appident.resolve_job_app",
    "metrics.rollups.filters_apply", "metrics.rollups.usage_rollup",
    "metrics.rollups.average_job_size_series", "metrics.rollups.job_size_distribution",
    "metrics.rollups.single_node_serial_fractions",
    "metrics.depth.depth_profile", "metrics.depth.joint_ratio", "metrics.depth.width_curves",
    "metrics.memory.memory_histograms", "metrics.memory.memory_2d",
    "metrics.memory.large_memory_breakdown", "metrics.lustre.lustre_stats",
    "metrics.concurrency.concurrency_histograms", "metrics.gateways.gateway_usage",
    "metrics.gateways.gateway_census", "metrics.gateways.gateway_conversion",
    "metrics.allocations.allocation_utilization",
    "metrics.allocations.allocation_size_summary", "metrics.geo.geo_normalize",
    "backlog.backlog_series", "backlog.wait_stats", "backlog.user_queue_depth",
    "backlog.capacity_for_percentile", "statmodels.bin_counts",
    "statmodels.lomb_scargle", "statmodels.fit_node_fail", "statmodels.exit_code_table",
    "report.verify_manifest",
) + tuple(ANALYSIS_PREFIX + name for name in ANALYSIS_NAMES)

_CALL_METRICS = {  # metric -> span or counter name
    "ingest.utc_date_calls": "ingest.utc_date",
    "ingest.job_xd_su_calls": "ingest.job_xd_su",
    "ingest.su_convert_calls": "ingest.su_convert",
    "appident.resolve_job_app_calls": "appident.resolve_job_app",
    "metrics.rollups.filters_apply_calls": "metrics.rollups.filters_apply",
    "backlog.capacity_for_percentile_calls": "backlog.capacity_for_percentile",
}

# (metric, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{name}_s", "s", "lower") for name in _SPAN_METRICS]
    + [(name, "count", "lower") for name in _CALL_METRICS]
    + [
        ("ingest.rows_loaded", "count", "higher"),
        ("ingest.rows_rejected", "count", "lower"),
        ("ingest.load_jobs_us_per_row", "us", "lower"),
        ("perfsummary.records_read", "count", "higher"),
        ("perfsummary.load_archives_us_per_record", "us", "lower"),
        ("perfsummary.summaries", "count", "higher"),
        ("perfsummary.skipped", "count", "lower"),
        ("appident.classified_ratio", "ratio", "higher"),
        ("statmodels.lomb_scargle_pairs", "count", "lower"),
        ("report.runner_self_s", "s", "lower"),
        ("report.files_out", "count", "lower"),
        ("report.rows_out", "count", "lower"),
        ("report.bytes_out", "bytes", "lower"),
        ("bench.readers_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def derive(trace: dict, child: dict, untraced_wall_s: float,
           output_files: dict) -> tuple[dict, dict]:
    """Per-layer values and the absent ones with reasons.

    ``trace`` is a Tracer dump, ``child`` the traced child's result and
    ``output_files`` maps each output file to (rows, bytes).
    """
    inclusive, self_time = span_totals(trace["spans"])
    counts, tallies, missing = trace["counts"], trace["tallies"], trace["missing"]
    values: dict[str, float] = {}
    absent: dict[str, str] = {}

    def span_seconds(name: str) -> float:
        if name in missing:
            absent[f"{name}_s"] = missing[name]
        elif name.startswith(ANALYSIS_PREFIX) and ANALYSIS_PREFIX + "*" in missing:
            absent[f"{name}_s"] = missing[ANALYSIS_PREFIX + "*"]
        elif not counts.get(name):
            absent[f"{name}_s"] = "not called on this workload"
        return inclusive.get(name, 0.0)

    for name in _SPAN_METRICS:
        values[f"{name}_s"] = span_seconds(name)
    for metric, name in _CALL_METRICS.items():
        values[metric] = float(counts.get(name, 0))
        if name in missing:
            absent[metric] = missing[name]
        elif not counts.get(name):
            absent[metric] = "not called on this workload"

    is_bundle = "entries" in child
    values["ingest.rows_loaded"] = float(child.get("rows_loaded", 0))
    values["ingest.rows_rejected"] = float(child.get("rows_rejected", 0))
    jobs = child.get("jobs_loaded", 0)
    values["ingest.load_jobs_us_per_row"] = (
        1e6 * inclusive.get("ingest.load_jobs", 0.0) / jobs if jobs else 0.0)
    records = child.get("records_read", 0)
    values["perfsummary.records_read"] = float(records)
    values["perfsummary.load_archives_us_per_record"] = (
        1e6 * inclusive.get("perfsummary.load_archives", 0.0) / records if records else 0.0)
    values["perfsummary.summaries"] = float(child.get("summaries", 0))
    values["perfsummary.skipped"] = float(len(child.get("skipped", {}))
                                          + child.get("no_archive", 0))
    for metric in ("perfsummary.records_read", "perfsummary.load_archives_us_per_record",
                   "perfsummary.summaries", "perfsummary.skipped"):
        if is_bundle:
            absent[metric] = "no archives on this workload"
    calls = counts.get("appident.resolve_job_app", 0)
    values["appident.classified_ratio"] = (
        tallies.get("appident.resolve_job_app", 0) / calls if calls else 0.0)
    if not calls:
        absent["appident.classified_ratio"] = "not called on this workload"
    values["statmodels.lomb_scargle_pairs"] = float(tallies.get("statmodels.lomb_scargle", 0))
    if "statmodels.lomb_scargle_s" in absent:
        absent["statmodels.lomb_scargle_pairs"] = absent["statmodels.lomb_scargle_s"]

    # run_report's own time: its span minus the analysis spans under it
    values["report.runner_self_s"] = self_time.get("report.run_report", 0.0)
    values["report.files_out"] = float(len(output_files)) if is_bundle else 0.0
    values["report.rows_out"] = float(sum(r for r, _ in output_files.values())) if is_bundle else 0.0
    values["report.bytes_out"] = float(sum(b for _, b in output_files.values())) if is_bundle else 0.0
    if not is_bundle:
        for metric in ("report.runner_self_s", "report.files_out", "report.rows_out",
                       "report.bytes_out"):
            absent[metric] = "no report bundle on this workload"
    elif "report.run_report" in missing:
        absent["report.runner_self_s"] = missing["report.run_report"]
    values["bench.readers_s"] = float(child.get("readers_s", 0.0))
    if not is_bundle:
        absent["bench.readers_s"] = "no benchmark-side reader on this workload"
    traced_wall = child["setup_s"] + child["load_s"] + child["run_s"]
    values["trace.overhead_s"] = traced_wall - untraced_wall_s
    return values, {"absent": absent, "self_s": self_time}
