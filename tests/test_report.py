import dataclasses
import json
import os
from collections import Counter
from datetime import date

import pytest

from hpcwl import report, synth
from hpcwl.errors import UnknownAnalysis
from hpcwl.metrics import Filters
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
    monkeypatch.setattr(report, "_jobs",
                        lambda run_ctx, filters: tuple(filters.apply(run_ctx.dataset.jobs)))
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "fresh")))
    assert _files(tmp_path / "memo") == _files(tmp_path / "fresh")


def test_filters_apply_runs_once_per_distinct_filters(ctx, tmp_path, monkeypatch):
    calls = Counter()
    apply = Filters.apply

    def counted(self, jobs):
        calls[self] += 1
        return apply(self, jobs)

    monkeypatch.setattr(Filters, "apply", counted)
    spec = standard_bundle_spec(output_dir=str(tmp_path))
    run_report(ctx, spec)
    assert spec.effective_filters() in calls
    assert set(calls.values()) == {1}


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
