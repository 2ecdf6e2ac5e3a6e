"""Command-line interface.

Exit codes: 0 success, 1 analysis error, 2 input error.  Defaults can come
from an INI config file (sections [inputs] and [report]); the HPCWL_CONFIG
environment variable names the default config path and command-line flags
override file values.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import sys
from datetime import date

from . import appident, report, statmodels, synth
from .archives import load_archives
from .errors import HpcwlError, SchemaError
from .ingest import (
    Dataset,
    _as_day,
    build_dataset,
    builtin_resources,
    load_allocations,
    load_jobs,
    load_resources,
    validate,
    write_rejection_report,
)
from .metrics import Filters, load_community_users
from .perfsummary import summarize_all, write_summaries

CONFIG_ENV = "HPCWL_CONFIG"

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_INPUT = 2


def _load_config(path: str | None) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    path = path or os.environ.get(CONFIG_ENV)
    if path and os.path.exists(path):
        config.read(path)
    return config


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", help="job accounting file (JSONL or CSV)")
    parser.add_argument("--format", default=None, choices=("jsonl", "csv"),
                        help="job/allocation file format (default from extension)")
    parser.add_argument("--allocations", help="allocation file")
    parser.add_argument("--resources", help="resource description JSON "
                        "(default: built-in table)")
    parser.add_argument("--community-users", help="community user map (CSV or JSON)")
    parser.add_argument("--demo", action="store_true",
                        help="use the bundled synthetic dataset")
    parser.add_argument("--demo-jobs", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=20170930)


def _guess_format(path: str, override: str | None) -> str:
    if override:
        return override
    return "csv" if path.endswith(".csv") else "jsonl"


def _load_inputs(jobs_path: str, alloc_path: str | None, resources_path: str | None,
                 fmt: str | None) -> tuple[Dataset, list]:
    """The dataset of the input files and the rows they rejected, loaded
    resources first, then jobs, then allocations.  With no resources path
    the built-in table is used; with no allocations path there are none."""
    resources = load_resources(resources_path) if resources_path else builtin_resources()
    rejects: list = []
    jobs = load_jobs(jobs_path, _guess_format(jobs_path, fmt), rejects)
    allocations = (load_allocations(alloc_path, _guess_format(alloc_path, fmt), rejects)
                   if alloc_path else [])
    return build_dataset(jobs, allocations, resources), rejects


def _build_context(args, config) -> report.ReportContext:
    section = config["inputs"] if config.has_section("inputs") else {}
    jobs_path = args.jobs or section.get("jobs")
    if not args.demo and not jobs_path:
        raise FileNotFoundError("no job input: pass --jobs (or configure "
                                "[inputs] jobs) or use --demo")
    if args.demo:
        return synth.make_synthetic_dataset(seed=args.seed, n_jobs=args.demo_jobs)
    dataset, rejects = _load_inputs(jobs_path, args.allocations or section.get("allocations"),
                                    args.resources or section.get("resources"), args.format)
    community_path = args.community_users or section.get("community_users")
    community = {}
    if community_path:
        community = load_community_users(community_path)
    if rejects:
        print(f"warning: {len(rejects)} rows rejected", file=sys.stderr)
    return report.ReportContext(dataset=dataset, community_users=community)


def _cmd_ingest(args, config) -> int:
    dataset, rejects = _load_inputs(args.jobs, args.allocations, args.resources, args.format)
    if args.rejects:
        write_rejection_report(rejects, args.rejects)
    print(json.dumps({
        "jobs": len(dataset.jobs),
        "allocations": len(dataset.allocations),
        "resources": len(dataset.resources),
        "rejected_rows": len(rejects),
        "quality_flags": len(dataset.quality_flags),
    }, sort_keys=True))
    return EXIT_OK


def _cmd_validate(args, config) -> int:
    ctx = _build_context(args, config)
    flags = list(ctx.dataset.quality_flags) + validate(ctx.dataset)
    for flag in flags:
        print(json.dumps({"kind": flag.kind, "locator": flag.locator,
                          "code": flag.code, "detail": flag.detail}, sort_keys=True))
    return EXIT_OK


def _cmd_summarize(args, config) -> int:
    ctx = _build_context(args, config)
    archives = load_archives(args.archives)
    resources = ctx.dataset.resources

    def cores_per_node_of(job):
        return resources[job.resource].cores_per_node

    summaries, skipped = summarize_all(ctx.dataset.jobs, archives, cores_per_node_of)
    write_summaries(summaries, args.out)
    no_archive = sum(reason == "no_archive" for reason in skipped.values())
    print(json.dumps({"summarized": len(summaries), "skipped": len(skipped),
                      "no_archive": no_archive,
                      "missing_counter": len(skipped) - no_archive}, sort_keys=True))
    return EXIT_OK


def _cmd_classify(args, config) -> int:
    db = appident.load_pattern_db(args.db)
    label = appident.classify_executable(args.exe, db, source="launcher",
                                         mask_proprietary=args.mask_proprietary)
    print(label)
    return EXIT_OK


def _date_range(start, end) -> tuple[date, date]:
    """A [start, end) pair of dates, each a ``YYYY-MM-DD`` string as in the
    input files, with start before end."""
    raw = {"start": start, "end": end}
    first, last = _as_day(raw, 0, "start"), _as_day(raw, 0, "end")
    if not first < last:
        raise SchemaError(0, "end", f"date range: start {start} must precede end {end}")
    return first, last


def _cmd_metric(args, config) -> int:
    ctx = _build_context(args, config)
    params = {}
    for item in args.param or ():
        key, _, value = item.partition("=")
        try:
            params[key] = json.loads(value)
        except json.JSONDecodeError:
            params[key] = value
    spec = report.ReportSpec(
        name=f"metric-{args.name}",
        date_range=_date_range(args.start, args.end),
        analyses=((args.name, params),),
        output_dir=args.outdir,
    )
    manifest = report.run_report(ctx, spec)
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def _cmd_backlog(args, config) -> int:
    return _print_analysis(_build_context(args, config), "backlog",
                           {"sampling": args.sampling}, Filters(resources={args.resource}))


def _print_analysis(ctx: report.ReportContext, name: str, params: dict,
                    filters: Filters = Filters()) -> int:
    """Print one analysis's files, as `hpcwl metric` would write them."""
    for entry in report.compute_analysis(ctx, name, params, filters):
        sys.stdout.write(report.render(entry))
    return EXIT_OK


def _cmd_periodogram(args, config) -> int:
    return _print_analysis(_build_context(args, config), "periodogram", {
        "resource": args.resource, "bin_seconds": args.bin_seconds,
        "min_period_days": args.min_period_days})


def _cmd_fit_failures(args, config) -> int:
    filters = Filters(resources={args.resource}) if args.resource else Filters()
    return _print_analysis(_build_context(args, config), "node_fail_fit", {
        "model": args.model, "include_failed": args.include_failed}, filters)


SPEC_FILTER_SETS = ("resources", "exclude_resources", "queues")


def _spec_filters(raw) -> Filters:
    """The Filters of a report spec's "filters" object: lists of names for
    ``resources``, ``exclude_resources`` and ``queues``, a boolean for
    ``exclude_osg``."""
    if not isinstance(raw, dict):
        raise SchemaError(0, "filters", "spec: 'filters' must be an object")
    values = {}
    for key, value in raw.items():
        if key in SPEC_FILTER_SETS:
            ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
        elif key == "exclude_osg":
            ok = isinstance(value, bool)
        else:
            raise SchemaError(0, key, f"spec: unknown filters key {key!r}")
        if not ok:
            raise SchemaError(0, key, f"spec: bad value for filters key {key!r}")
        values[key] = value
    return Filters(**values)


def _spec_analysis(entry) -> tuple[str, dict]:
    """One entry of a report spec's "analyses": an object with a string
    ``analysis`` and an optional ``params`` object."""
    if not isinstance(entry, dict):
        raise SchemaError(0, "analyses", "spec: each 'analyses' entry must be an object")
    name, params = entry.get("analysis"), entry.get("params", {})
    if not isinstance(name, str):
        raise SchemaError(0, "analysis", "spec: an 'analyses' entry needs a string 'analysis'")
    if not isinstance(params, dict):
        raise SchemaError(0, "params", f"spec: 'params' of {name!r} must be an object")
    return name, params


def _report_spec(raw, output_dir: str) -> report.ReportSpec:
    """The ReportSpec of a report spec file: a string ``name``, a
    ``date_range`` of two dates, a list of ``analyses`` and optional
    ``filters``."""
    if not isinstance(raw, dict):
        raise SchemaError(0, None, "spec: expected an object")
    name, dates, analyses = raw.get("name"), raw.get("date_range"), raw.get("analyses")
    if not isinstance(name, str):
        raise SchemaError(0, "name", "spec: 'name' must be a string")
    if not (isinstance(dates, list) and len(dates) == 2):
        raise SchemaError(0, "date_range", "spec: 'date_range' must be a list of two dates")
    if not isinstance(analyses, list):
        raise SchemaError(0, "analyses", "spec: 'analyses' must be a list")
    return report.ReportSpec(name=name, date_range=_date_range(*dates),
                             analyses=tuple(map(_spec_analysis, analyses)),
                             filters=_spec_filters(raw.get("filters", {})),
                             output_dir=output_dir)


def _cmd_report(args, config) -> int:
    ctx = _build_context(args, config)
    section = config["report"] if config.has_section("report") else {}
    outdir = args.outdir or section.get("output_dir", "report_out")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = _report_spec(json.load(handle), outdir)
    else:
        spec = report.standard_bundle_spec(output_dir=outdir)
    manifest = report.run_report(ctx, spec)
    print(json.dumps({"report": manifest["report"],
                      "files": len(manifest["files"]),
                      "output_dir": outdir}, sort_keys=True))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hpcwl",
                                     description="HPC workload characterization toolkit")
    parser.add_argument("--config", help=f"INI config path (or ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load inputs, report counts and rejections")
    p.add_argument("--jobs", required=True)
    p.add_argument("--format", default=None, choices=("jsonl", "csv"))
    p.add_argument("--allocations")
    p.add_argument("--resources")
    p.add_argument("--rejects", help="write rejection report JSONL here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("validate", help="emit quality flags as JSONL")
    _add_input_flags(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("summarize", help="build per-job performance summaries")
    _add_input_flags(p)
    p.add_argument("--archives", required=True, help="archive JSONL path")
    p.add_argument("--out", required=True, help="summary JSONL output path")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("classify", help="classify one executable path")
    p.add_argument("exe")
    p.add_argument("--db", help="pattern DB (default: bundled)")
    p.add_argument("--mask-proprietary", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("metric", help="run one named analysis")
    p.add_argument("name", choices=sorted(report.ANALYSES))
    _add_input_flags(p)
    p.add_argument("--outdir", default="metric_out")
    p.add_argument("--start", default="2000-01-01")
    p.add_argument("--end", default="2100-01-01")
    p.add_argument("--param", action="append",
                   help="analysis parameter key=value (value parsed as JSON)")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("backlog", help="replay one resource's queue")
    _add_input_flags(p)
    p.add_argument("--resource", required=True)
    p.add_argument("--sampling", default="event", choices=("event", "daily"))
    p.set_defaults(func=_cmd_backlog)

    p = sub.add_parser("periodogram", help="submission periodicity")
    _add_input_flags(p)
    p.add_argument("--resource")
    p.add_argument("--bin-seconds", type=int, default=3600)
    p.add_argument("--min-period-days", type=float, default=2.0 / 24.0)
    p.set_defaults(func=_cmd_periodogram)

    p = sub.add_parser("fit-failures", help="logistic node-failure model")
    _add_input_flags(p)
    p.add_argument("--resource")
    p.add_argument("--model", default="nodes_linear", choices=statmodels.MODELS)
    p.add_argument("--include-failed", action="store_true")
    p.set_defaults(func=_cmd_fit_failures)

    p = sub.add_parser("report", help="run a report bundle")
    _add_input_flags(p)
    p.add_argument("--spec", help="JSON report spec (default: standard bundle)")
    p.add_argument("--outdir")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    config = _load_config(args.config)
    try:
        return args.func(args, config)
    except BrokenPipeError:
        return EXIT_OK  # downstream consumer (e.g. head) closed the pipe
    except (FileNotFoundError, OSError, SchemaError, json.JSONDecodeError, csv.Error,
            UnicodeDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except HpcwlError as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
