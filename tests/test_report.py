import builtins
import dataclasses
import json
import math
import os
import subprocess
import sys
from collections import Counter
from datetime import date
from itertools import compress

import pytest

from hpcwl import report, synth
from hpcwl.errors import UnknownAnalysis
from hpcwl.jobtable import JobTable
from hpcwl.metrics import Filters, PerfColumns
from hpcwl.report import (
    ANALYSES,
    MANIFEST_NAME,
    ReportContext,
    ReportSpec,
    standard_bundle_spec,
    run_report,
    verify_manifest,
)


@pytest.fixture(scope="module")
def small_bundle():
    return synth.make_synthetic_dataset(seed=5, n_jobs=800)


@pytest.fixture(scope="module")
def ctx(small_bundle):
    b = small_bundle
    return ReportContext(dataset=b.dataset, summaries=b.summaries,
                         community_users=b.community_users,
                         user_email=b.user_email,
                         population_by_state=b.population_by_state,
                         tech_index_by_state=b.tech_index_by_state)


RANGE = (date(2015, 7, 1), date(2017, 1, 1))
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_single_rollup_spec_emits_csv_and_manifest(ctx, tmp_path):
    spec = ReportSpec(name="one", date_range=RANGE,
                      analyses=(("usage_rollup", {"dimension": "parent_science",
                                                  "weight": "xd_su"}),),
                      output_dir=str(tmp_path))
    manifest = run_report(ctx, spec)
    assert len(manifest["files"]) == 1
    name = manifest["files"][0]["name"]
    assert name == "usage_parent_science_xd_su_quarter.csv"
    assert os.path.exists(tmp_path / name)
    assert os.path.exists(tmp_path / MANIFEST_NAME)
    header = (tmp_path / name).read_text().splitlines()[0]
    assert header == "period,parent_science,xd_su,pct_share"


def test_unknown_analysis_rejected(tmp_path):
    with pytest.raises(UnknownAnalysis):
        ReportSpec(name="bad", date_range=RANGE,
                   analyses=(("no_such_thing", {}),), output_dir=str(tmp_path))


def test_bad_date_range_rejected(tmp_path):
    with pytest.raises(ValueError):
        ReportSpec(name="bad", date_range=(date(2017, 1, 1), date(2015, 1, 1)),
                   analyses=(), output_dir=str(tmp_path))


def test_rerun_is_byte_identical(ctx, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        spec = standard_bundle_spec(output_dir=str(out))
        run_report(ctx, spec)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


def test_manifest_digests_verify(ctx, tmp_path):
    spec = standard_bundle_spec(output_dir=str(tmp_path))
    run_report(ctx, spec)
    assert verify_manifest(tmp_path)
    # corrupt one file and the verification must fail
    victim = json.load(open(tmp_path / MANIFEST_NAME))["files"][0]["name"]
    with open(tmp_path / victim, "a") as handle:
        handle.write("tampered\n")
    assert not verify_manifest(tmp_path)


def test_standard_bundle_covers_key_tables(ctx, tmp_path):
    spec = standard_bundle_spec(output_dir=str(tmp_path))
    manifest = run_report(ctx, spec)
    names = {f["name"] for f in manifest["files"]}
    # allocation summary with top/bottom groups
    summary = (tmp_path / "allocation_stats_summary.csv").read_text()
    for group in ("All", "Top 1%", "Top 5%", "Top 25%", "Bottom 25%"):
        assert group in summary
    # capacity table with 95/99 columns and bracketed ratios
    capacity = (tmp_path / "capacity.csv").read_text().splitlines()
    assert capacity[0] == ("resource,nodes_actual,nodes_p95,nodes_p99,"
                           "cores_actual,cores_p95,cores_p99")
    assert "(" in capacity[1] and ")" in capacity[1]
    # per-resource exit code table with every status column
    exit_codes = (tmp_path / "exit_codes.csv").read_text().splitlines()
    assert exit_codes[0] == ("resource,completed,canceled,timeout,failed,"
                             "node_fail,not_available,total")
    assert {"joint_ratio.csv", "width_curves_cores.csv",
            "memory_per_core_avg_core_hours.csv", "lustre_daily.csv",
            "gateway_census.csv", "backlog_daily.csv"} <= names


def test_analysis_registry_matches_bundle(ctx):
    spec = standard_bundle_spec()
    assert {name for name, _ in spec.analyses} <= set(ANALYSES)


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_kept_jobs_memo_matches_filtering_afresh(ctx, tmp_path, monkeypatch):
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "memo")))

    def kept(run_ctx, filters):
        jobs = run_ctx.dataset.jobs
        return list(compress(jobs, filters.mask(JobTable.of(jobs)).tolist()))

    # a table built afresh from the kept records, not rows of the dataset's
    monkeypatch.setattr(report, "_table", lambda run_ctx, filters: JobTable.of(
        kept(run_ctx, filters), run_ctx.dataset.resources))
    # and the summaries joined afresh to those rows
    monkeypatch.setattr(report, "_perf", lambda run_ctx, filters: PerfColumns.join(
        JobTable.of(kept(run_ctx, filters)), run_ctx.summaries))
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "fresh")))
    assert _files(tmp_path / "memo") == _files(tmp_path / "fresh")


def test_filters_apply_runs_once_per_distinct_filters(ctx, tmp_path, monkeypatch):
    calls = {"apply": Counter(), "mask": Counter()}

    def counted(name):
        method = getattr(Filters, name)

        def wrapper(self, jobs):
            calls[name][self] += 1
            return method(self, jobs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Filters, name, counted(name))
    spec = standard_bundle_spec(output_dir=str(tmp_path))
    run_report(ctx, spec)
    assert spec.effective_filters() in calls["mask"]
    assert set(calls["mask"].values()) == {1}
    assert calls["apply"] == calls["mask"]


def test_runs_on_different_datasets_share_no_kept_jobs(ctx, small_bundle, tmp_path):
    fewer = dataclasses.replace(small_bundle.dataset, jobs=small_bundle.dataset.jobs[1:])
    mutable = dataclasses.replace(ctx)
    run_report(mutable, standard_bundle_spec(output_dir=str(tmp_path / "full")))
    mutable.dataset = fewer
    run_report(mutable, standard_bundle_spec(output_dir=str(tmp_path / "fewer")))
    run_report(dataclasses.replace(ctx, dataset=fewer),
               standard_bundle_spec(output_dir=str(tmp_path / "fresh")))
    assert _files(tmp_path / "fewer") == _files(tmp_path / "fresh")
    assert _files(tmp_path / "fewer") != _files(tmp_path / "full")


def test_filters_given_plain_sets_run(ctx, tmp_path):
    resources = {job.resource for job in ctx.dataset.jobs[:50]}
    outputs = []
    for filters in (Filters(resources=resources),
                    Filters(resources=frozenset(resources))):
        out = tmp_path / str(len(outputs))
        spec = ReportSpec(name="sets", date_range=RANGE, filters=filters,
                          analyses=(("usage_rollup", {}), ("wait_stats", {})),
                          output_dir=str(out))
        run_report(ctx, spec)
        outputs.append(_files(out))
    assert outputs[0] == outputs[1]


def test_computed_entries_write_nothing_and_match_the_report(ctx, tmp_path, monkeypatch):
    spec = standard_bundle_spec(output_dir=str(tmp_path / "report"))
    manifest = run_report(ctx, spec)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    entries = [entry for name, params in spec.analyses
               for entry in report.compute_analysis(
                   ctx, name, {"date_range": spec.date_range, **params},
                   spec.effective_filters())]
    assert os.listdir(cwd) == []
    assert sorted(e[0] for e in entries) == [f["name"] for f in manifest["files"]]
    for entry in entries:
        assert (report.render(entry).encode()
                == (tmp_path / "report" / entry[0]).read_bytes()), entry[0]


def test_bundle_bytes_do_not_depend_on_builtin_float_sum(ctx, tmp_path, monkeypatch):
    # Python 3.12+ sums floats with compensation; every total that reaches a
    # file must not use builtin sum, so a compensated one changes no byte
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "plain")))
    plain_sum = builtins.sum

    def compensated_sum(iterable, start=0):
        values = list(iterable)
        if values and start == 0 and all(type(v) is float for v in values):
            return math.fsum(values)
        return plain_sum(values, start)

    monkeypatch.setattr(builtins, "sum", compensated_sum)
    compensated = run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "fsum")))
    monkeypatch.undo()
    plain = json.loads((tmp_path / "plain" / MANIFEST_NAME).read_text())
    changed = [a["name"] for a, b in zip(plain["files"], compensated["files"])
               if a != b]
    assert changed == []


def test_demo_bundle_does_not_depend_on_the_hash_seed(tmp_path):
    # string sets iterate in hash order; the job table's codes must not
    manifests = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "hpcwl.cli", "report", "--demo",
                        "--outdir", str(out)], check=True, env=env, capture_output=True)
        manifests.append((out / MANIFEST_NAME).read_bytes())
    assert manifests[0] == manifests[1]
