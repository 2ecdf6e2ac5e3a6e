"""Command-line interface.

Exit codes: 0 success, 1 analysis error, 2 input error.  Defaults can come
from an INI config file (sections [inputs] and [report]); the HPCWL_CONFIG
environment variable names the default config path and command-line flags
override file values.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import os
import sys
from datetime import date

from . import appident, backlog, report, statmodels, synth
from .errors import HpcwlError, SchemaError
from .ingest import (
    build_dataset,
    builtin_resources,
    load_allocations,
    load_jobs,
    load_resources,
    validate,
    write_rejection_report,
)
from .perfsummary import load_archives, summarize_all, write_summaries

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


def _build_context(args, config) -> report.ReportContext:
    section = config["inputs"] if config.has_section("inputs") else {}
    jobs_path = args.jobs or section.get("jobs")
    if not args.demo and not jobs_path:
        raise FileNotFoundError("no job input: pass --jobs (or configure "
                                "[inputs] jobs) or use --demo")
    if args.demo:
        bundle = synth.make_synthetic_dataset(seed=args.seed, n_jobs=args.demo_jobs)
        return report.ReportContext(
            dataset=bundle.dataset, summaries=bundle.summaries,
            community_users=bundle.community_users, user_email=bundle.user_email,
            population_by_state=bundle.population_by_state,
            tech_index_by_state=bundle.tech_index_by_state)
    resources_path = args.resources or section.get("resources")
    resources = load_resources(resources_path) if resources_path else builtin_resources()
    rejects: list = []
    jobs = load_jobs(jobs_path, _guess_format(jobs_path, args.format), rejects)
    alloc_path = args.allocations or section.get("allocations")
    allocations = (load_allocations(alloc_path, _guess_format(alloc_path, args.format), rejects)
                   if alloc_path else [])
    dataset = build_dataset(jobs, allocations, resources)
    community_path = args.community_users or section.get("community_users")
    community = {}
    if community_path:
        from .metrics import load_community_users

        community = load_community_users(community_path)
    if rejects:
        print(f"warning: {len(rejects)} rows rejected", file=sys.stderr)
    return report.ReportContext(dataset=dataset, community_users=community)


def _cmd_ingest(args, config) -> int:
    resources = (load_resources(args.resources) if args.resources
                 else builtin_resources())
    rejects: list = []
    jobs = load_jobs(args.jobs, _guess_format(args.jobs, args.format), rejects)
    allocations = (load_allocations(args.allocations,
                                    _guess_format(args.allocations, args.format), rejects)
                   if args.allocations else [])
    dataset = build_dataset(jobs, allocations, resources)
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
    print(json.dumps({"summarized": len(summaries), "skipped": len(skipped)},
                     sort_keys=True))
    return EXIT_OK


def _cmd_classify(args, config) -> int:
    db = appident.load_pattern_db(args.db)
    label = appident.classify_executable(args.exe, db, source="launcher",
                                         mask_proprietary=args.mask_proprietary)
    print(label)
    return EXIT_OK


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
        date_range=(date.fromisoformat(args.start), date.fromisoformat(args.end)),
        analyses=((args.name, params),),
        output_dir=args.outdir,
    )
    manifest = report.run_report(ctx, spec)
    print(json.dumps(manifest, sort_keys=True))
    return EXIT_OK


def _cmd_backlog(args, config) -> int:
    ctx = _build_context(args, config)
    spec = ctx.dataset.resources.get(args.resource)
    series = backlog.backlog_series(list(ctx.dataset.jobs), args.resource,
                                    sampling=args.sampling, spec=spec)
    print("time,queued_core_years,running_nodes,queued_nodes,required_nodes")
    for point in series.points:
        print(f"{point.time},{point.queued_core_years!r},{point.running_nodes},"
              f"{point.queued_nodes},{point.required_nodes}")
    return EXIT_OK


def _cmd_periodogram(args, config) -> int:
    ctx = _build_context(args, config)
    jobs = [j for j in ctx.dataset.jobs
            if args.resource is None or j.resource == args.resource]
    centers, counts = statmodels.bin_counts([j.submit_time for j in jobs],
                                            args.bin_seconds)
    grid = statmodels.default_frequency_grid(centers,
                                             min_period_days=args.min_period_days)
    pgram = statmodels.lomb_scargle(centers, counts, grid)
    print("frequency_per_day,period_days,power")
    for f, p in zip(pgram.frequencies_per_day, pgram.power):
        print(f"{f!r},{1.0 / f!r},{p!r}")
    return EXIT_OK


def _cmd_fit_failures(args, config) -> int:
    ctx = _build_context(args, config)
    jobs = [j for j in ctx.dataset.jobs
            if args.resource is None or j.resource == args.resource]
    fit = statmodels.fit_node_fail(jobs, model=args.model,
                                   include_failed=args.include_failed)
    print(json.dumps(dataclasses.asdict(fit), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_report(args, config) -> int:
    ctx = _build_context(args, config)
    section = config["report"] if config.has_section("report") else {}
    outdir = args.outdir or section.get("output_dir", "report_out")
    if args.spec:
        with open(args.spec, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        spec = report.ReportSpec(
            name=raw["name"],
            date_range=(date.fromisoformat(raw["date_range"][0]),
                        date.fromisoformat(raw["date_range"][1])),
            analyses=tuple((a["analysis"], a.get("params", {}))
                           for a in raw["analyses"]),
            output_dir=outdir,
        )
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
    except (FileNotFoundError, OSError, SchemaError, json.JSONDecodeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except HpcwlError as err:
        print(f"analysis error: {err}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
