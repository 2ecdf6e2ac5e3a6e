import builtins
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from datetime import date, datetime
from enum import Enum
from itertools import compress

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import jobs_of, table_of
from hpcwl import report, synth
from hpcwl.errors import UnknownAnalysis
from hpcwl.ingest import ExitStatus
from hpcwl.metrics import Filters, PerfColumns
from hpcwl.report import (
    ANALYSES,
    MANIFEST_NAME,
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
    return dataclasses.replace(small_bundle)


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


def test_capacity_header_names_the_targets_given(ctx):
    # int(0.29 * 100) is 28, and int(0.999 * 100) is 99
    [(name, header, _)] = report.compute_analysis(ctx, "capacity",
                                                  {"targets": [0.29, 0.57, 0.999]})
    assert name == "capacity.csv"
    assert header == ["resource", "nodes_actual", "nodes_p29", "nodes_p57", "nodes_p99.9",
                      "cores_actual", "cores_p29", "cores_p57", "cores_p99.9"]


def test_analysis_registry_matches_bundle(ctx):
    spec = standard_bundle_spec()
    assert {name for name, _ in spec.analyses} <= set(ANALYSES)


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


def test_kept_jobs_memo_matches_filtering_afresh(ctx, tmp_path, monkeypatch):
    run_report(ctx, standard_bundle_spec(output_dir=str(tmp_path / "memo")))

    def kept(run_ctx, filters):
        jobs = run_ctx.dataset.jobs
        return list(compress(jobs.records(), filters.mask(table_of(jobs)).tolist()))

    # a table built afresh from the kept records, not rows of the dataset's
    monkeypatch.setattr(report, "_table", lambda run_ctx, filters: table_of(
        kept(run_ctx, filters), run_ctx.dataset.resources))
    # and the summaries joined afresh to those rows
    monkeypatch.setattr(report, "_perf", lambda run_ctx, filters: PerfColumns.join(
        table_of(kept(run_ctx, filters)), run_ctx.summaries))
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
    fewer = dataclasses.replace(small_bundle.dataset,
                                jobs=jobs_of(small_bundle.dataset.jobs.records()[1:]))
    mutable = dataclasses.replace(ctx)
    run_report(mutable, standard_bundle_spec(output_dir=str(tmp_path / "full")))
    mutable.dataset = fewer
    run_report(mutable, standard_bundle_spec(output_dir=str(tmp_path / "fewer")))
    run_report(dataclasses.replace(ctx, dataset=fewer),
               standard_bundle_spec(output_dir=str(tmp_path / "fresh")))
    assert _files(tmp_path / "fewer") == _files(tmp_path / "fresh")
    assert _files(tmp_path / "fewer") != _files(tmp_path / "full")


def test_filters_given_plain_sets_run(ctx, tmp_path):
    resources = {job.resource for job in ctx.dataset.jobs.records()[:50]}
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


def _fmt(value) -> str:
    """One cell's text, as the report wrote each cell before csv.writer was
    handed the rows."""
    if value is None:
        return ""
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (date, datetime)):
        return value.isoformat()
    return str(value)


def _render_by_fmt(entry) -> str:
    """The text of a CSV entry with every cell formatted by ``_fmt``: the
    oracle of ``report.render``."""
    _, header, rows = entry
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    return buffer.getvalue()


CELLS = st.one_of(
    st.text(st.sampled_from(',"\n\r\t\' a\u00e9')), st.text(),
    st.integers(), st.booleans(), st.dates(), st.none(),
    st.floats(), st.sampled_from((-0.0, 1e16, 1e-5, 5e-324, math.inf, -math.inf)))


@given(st.lists(st.text(), max_size=4),
       st.lists(st.lists(CELLS, max_size=6), max_size=6))
def test_render_writes_each_cell_as_the_fmt_oracle(header, rows):
    entry = ("cells.csv", header, rows)
    assert report.render(entry) == _render_by_fmt(entry)


@pytest.mark.parametrize("cell", [ExitStatus.COMPLETED, datetime(2016, 1, 1, 12),
                                  np.float64(0.5), np.int64(3)],
                         ids=["enum", "datetime", "float64", "int64"])
def test_cells_of_other_types_are_refused(cell):
    with pytest.raises(TypeError, match=r"^odd\.csv: .*" + type(cell).__name__):
        report.render(("odd.csv", ["a", "b"], [("x", 1.5), (cell, None)]))


def test_computed_entries_write_nothing_and_match_the_report(ctx, tmp_path, monkeypatch):
    # every analysis, with its standard-bundle params
    spec = standard_bundle_spec(output_dir=str(tmp_path / "report"))
    assert {name for name, _ in spec.analyses} == set(ANALYSES)
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
        text = report.render(entry)
        assert text.encode() == (tmp_path / "report" / entry[0]).read_bytes(), entry[0]
        if len(entry) == 3:
            assert text == _render_by_fmt(entry), entry[0]


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


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", code, *args], check=True, env=env,
                          capture_output=True, text=True).stdout.strip()


def test_a_report_run_imports_no_numpy_ma(tmp_path):
    # np.unique with no return_* flag imports numpy.ma on its first call
    if _python("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy loads numpy.ma on import")
    code = ("import sys\n"
            "from hpcwl.cli import main\n"
            "status = main(['report', '--demo', '--demo-jobs', '1000', '--outdir', sys.argv[1]])\n"
            "print(status, 'numpy.ma' in sys.modules)\n")
    assert _python(code, str(tmp_path / "demo")).splitlines()[-1] == "0 False"
    assert verify_manifest(tmp_path / "demo")


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
