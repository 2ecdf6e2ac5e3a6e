"""One measured run of one workload, in a fresh process.

The parent (run.py) starts this script with ``src`` on PYTHONPATH and every
numeric library limited to one thread.  Phases, timed with perf_counter:

- set-up: import hpcwl and its submodules, plus the built-in tables;
- load: the program's loaders turn the input files into objects;
- run: the program's entry point computes, writes and hashes its outputs.

``--phases setup`` stops after set-up and ``--phases load`` after load.  The
benchmark's own readers (files the program has no loader for yet) run
between load and run and are timed apart.  Peak RSS is read right after the
run phase.  With ``--trace`` the run goes through spans.Tracer and the spans
are written to that path.  The result is one JSON object in ``--result``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

# modules the workloads never use: the CLI and the demo-data generator
SKIP_MODULES = ("hpcwl.cli", "hpcwl.synth")


def _setup(kind: str) -> dict:
    import importlib
    import pkgutil

    import hpcwl

    for info in pkgutil.walk_packages(hpcwl.__path__, "hpcwl."):
        if info.name not in SKIP_MODULES:
            importlib.import_module(info.name)
    from hpcwl import appident, ingest

    tables = {"resources": ingest.builtin_resources()}
    if kind == "archives":
        tables["db"] = appident.load_pattern_db()
        tables["ignore"] = appident.load_ignore_list()
    return tables


def _read_summaries(path: str) -> dict:
    """Summaries JSONL (the ``hpcwl summarize`` format) as JobPerfSummary."""
    from hpcwl.perfsummary import JobPerfSummary, LaunchType

    out = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            raw = json.loads(line)
            raw["launch_type"] = LaunchType(raw["launch_type"])
            raw["flags"] = tuple(raw["flags"])
            out[raw["job_id"]] = JobPerfSummary(**raw)
    return out


def _read_extras(inputs: str) -> dict:
    import csv

    extras = {"summaries": _read_summaries(os.path.join(inputs, "summaries.jsonl"))}
    with open(os.path.join(inputs, "user_email.csv"), "r", encoding="utf-8",
              newline="") as handle:
        extras["user_email"] = {row["user"]: row["email"] for row in csv.DictReader(handle)}
    with open(os.path.join(inputs, "geo.json"), "r", encoding="utf-8") as handle:
        geo = json.load(handle)
    extras["population_by_state"] = geo["population_by_state"]
    extras["tech_index_by_state"] = geo["tech_index_by_state"]
    return extras


def bundle_spec(workload: str, output_dir: str):
    """The workload's report spec: the entries of the standard bundle as
    recorded in ``reference/<workload>.json`` when the benchmark was defined,
    so later changes to ``standard_bundle_spec`` do not change the workload."""
    from datetime import date

    from hpcwl import report

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference",
                        f"{workload}.json")
    with open(path, "r", encoding="utf-8") as handle:
        entries = json.load(handle)["entries"]
    return report.ReportSpec(
        name="standard-bundle", date_range=(date(2015, 7, 1), date(2017, 1, 1)),
        analyses=tuple((name, params) for name, params, _ in entries),
        output_dir=output_dir)


def _run_bundle(info: dict, tables: dict, inputs: str, out: str | None, clock) -> dict:
    """Load, then (with ``out``) run the report into ``out``."""
    from hpcwl import ingest, metrics, report

    res: dict = {}
    t0 = clock()
    rejects: list = []
    fmt = info["format"]
    jobs = ingest.load_jobs(os.path.join(inputs, info["jobs"]), fmt, rejects)
    allocations = ingest.load_allocations(os.path.join(inputs, info["allocations"]),
                                          fmt, rejects)
    dataset = ingest.build_dataset(jobs, allocations, tables["resources"])
    community = metrics.load_community_users(os.path.join(inputs, "community_users.csv"))
    t1 = clock()
    if out is None:
        return {"load_s": t1 - t0}
    extras = _read_extras(inputs)
    t2 = clock()
    ctx = report.ReportContext(dataset=dataset, community_users=community, **extras)
    spec = bundle_spec(info["workload"], out)
    res["entries"] = [name for name, _ in spec.analyses]
    try:
        report.run_report(ctx, spec)
    except Exception:  # a failed report is counted, not fatal
        res["error"] = traceback.format_exc()
    t3 = clock()
    res.update(load_s=t1 - t0, readers_s=t2 - t1, run_s=t3 - t2,
               rows_loaded=len(jobs) + len(allocations), rows_rejected=len(rejects),
               jobs_loaded=len(jobs))
    return res


def _run_archives(info: dict, tables: dict, inputs: str, out: str | None, clock) -> dict:
    """Load, then (with ``out``) summarize into ``out``."""
    from hpcwl import ingest, perfsummary

    res: dict = {}
    t0 = clock()
    rejects: list = []
    jobs = ingest.load_jobs(os.path.join(inputs, info["jobs"]), "jsonl", rejects)
    archives = perfsummary.load_archives(os.path.join(inputs, info["archives"]))
    t1 = clock()
    if out is None:
        return {"load_s": t1 - t0}
    resources = tables["resources"]

    def cores_per_node_of(job):
        return resources[job.resource].cores_per_node

    summaries, skipped = perfsummary.summarize_all(
        jobs, archives, cores_per_node_of, db=tables["db"], ignore_list=tables["ignore"])
    os.makedirs(out, exist_ok=True)
    perfsummary.write_summaries(summaries, os.path.join(out, "summaries.jsonl"))
    t2 = clock()
    records = sum(bool(a.nodes) + len(a.samples) + len(a.meminfo)
                  + (a.launcher is not None) + len(a.processes) for a in archives.values())
    res.update(load_s=t1 - t0, readers_s=0.0, run_s=t2 - t1,
               rows_loaded=len(jobs), rows_rejected=len(rejects), jobs_loaded=len(jobs),
               records_read=records, summaries=len(summaries),
               skipped={job_id: reason for job_id, reason in skipped.items()
                        if reason != "no_archive"},
               no_archive=sum(reason == "no_archive" for reason in skipped.values()))
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("bundle", "archives"), required=True)
    parser.add_argument("--inputs", required=True, help="generated input directory")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    parser.add_argument("--trace", help="write spans here and trace the run")
    parser.add_argument("--phases", choices=("setup", "load", "all"), default="all",
                        help="stop after set-up, or after load")
    args = parser.parse_args(argv)
    clock = time.perf_counter

    t0 = clock()
    tables = _setup(args.kind)
    result = {"setup_s": clock() - t0}
    if args.phases != "setup":
        with open(os.path.join(args.inputs, "inputs.json"), "r", encoding="utf-8") as handle:
            info = json.load(handle)
        run = _run_bundle if args.kind == "bundle" else _run_archives
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        try:
            if tracer is not None:
                tracer.install()
            out = args.out if args.phases == "all" else None
            result.update(run(info, tables, args.inputs, out, clock))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if "run_s" in result and args.kind == "bundle" and "error" not in result:
                from hpcwl import report

                result["manifest_ok"] = report.verify_manifest(args.out)
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            with open(args.trace, "w", encoding="utf-8") as handle:
                json.dump(tracer.dump(), handle)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
