import csv
import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import T0, dataset_of
from test_perfsummary import _archive_file, _write_lines

from hpcwl import ingest, report, synth
from hpcwl.archives import load_archives
from hpcwl.cli import EXIT_ANALYSIS, EXIT_INPUT, EXIT_OK, main
from hpcwl.ingest import JOB_FIELDS, build_dataset, builtin_resources, load_jobs
from hpcwl.perfsummary import summarize_all, write_summaries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_exe(capsys):
    code, out, _ = run(capsys, "classify", "/opt/apps/namd/2.12/namd2")
    assert code == EXIT_OK
    assert out.strip() == "NAMD"


def test_classify_masks_proprietary(capsys):
    code, out, _ = run(capsys, "classify", "/apps/vasp_std", "--mask-proprietary")
    assert code == EXIT_OK
    assert out.strip() == "proprietary-masked"


def test_ingest_counts_and_rejects(tmp_path, capsys):
    rows = [
        {"job_id": "a", "resource": "OSG", "user": "u", "charge_number": "TG-1",
         "directorate": "MPS", "parent_science": "Physics",
         "field_of_science": "X", "nsf_user_status": "faculty",
         "submit_time": 100, "start_time": 200, "end_time": 300,
         "nodes": 1, "cores": 1, "queue": "q", "exit_status": "completed",
         "local_su_charged": 1.0},
        {"job_id": "bad", "resource": "OSG", "user": "u", "charge_number": "TG-1",
         "directorate": "MPS", "parent_science": "Physics",
         "field_of_science": "X", "nsf_user_status": "faculty",
         "submit_time": 300, "start_time": 200, "end_time": 300,
         "nodes": 1, "cores": 1, "queue": "q", "exit_status": "completed",
         "local_su_charged": 1.0},
    ]
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    rejects = tmp_path / "rejects.jsonl"
    code, out, _ = run(capsys, "ingest", "--jobs", str(jobs),
                       "--rejects", str(rejects))
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary["jobs"] == 1
    assert summary["rejected_rows"] == 1
    assert rejects.exists()


def test_missing_input_file_is_input_error(capsys):
    code, _, err = run(capsys, "ingest", "--jobs", "/nonexistent.jsonl")
    assert code == EXIT_INPUT
    assert "input error" in err


def test_csv_field_over_the_size_limit_is_input_error(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text("job_id,user\na," + "u" * (csv.field_size_limit() + 1) + "\n")
    code, _, err = run(capsys, "ingest", "--jobs", str(jobs), "--rejects",
                       str(tmp_path / "rejects.jsonl"))
    assert code == EXIT_INPUT
    assert err.startswith("input error: field larger than field limit")


def test_validate_demo_runs(capsys):
    code, out, _ = run(capsys, "validate", "--demo", "--demo-jobs", "200")
    assert code == EXIT_OK


def test_missing_inputs_without_demo_is_input_error(capsys):
    code, _, err = run(capsys, "validate")
    assert code == EXIT_INPUT
    assert "no job input" in err


def test_metric_subcommand_joint_ratio(tmp_path, capsys):
    code, out, _ = run(capsys, "metric", "joint_ratio", "--demo",
                       "--demo-jobs", "300", "--outdir", str(tmp_path))
    assert code == EXIT_OK
    assert (tmp_path / "joint_ratio.csv").exists()
    assert (tmp_path / "manifest.json").exists()


def test_fit_failures_demo(capsys):
    code, out, _ = run(capsys, "fit-failures", "--demo", "--demo-jobs", "4000")
    assert code == EXIT_OK
    fit = json.loads(out)
    assert fit["converged"] is True
    assert fit["model"] == "nodes_linear"


@pytest.mark.parametrize("command,flags,analysis,params,file_name", [
    ("periodogram", (), "periodogram", (), "periodogram_all.csv"),
    ("periodogram", ("--resource", "TACC-STAMPEDE"), "periodogram",
     ("--param", "resource=TACC-STAMPEDE"), "periodogram_TACC-STAMPEDE.csv"),
    ("fit-failures", (), "node_fail_fit", (), "node_fail_fit_nodes_linear.json"),
])
def test_subcommand_prints_the_metric_file(tmp_path, capsys, command, flags,
                                           analysis, params, file_name):
    demo = ("--demo", "--demo-jobs", "4000")
    code, printed, _ = run(capsys, command, *demo, *flags)
    assert code == EXIT_OK
    code, _, _ = run(capsys, "metric", analysis, *demo, *params,
                     "--outdir", str(tmp_path))
    assert code == EXIT_OK
    assert printed.encode() == (tmp_path / file_name).read_bytes()


def test_degenerate_fit_is_analysis_error(capsys):
    # seed 1 at 60 jobs yields no node failures, so the fit cannot run
    code, _, err = run(capsys, "fit-failures", "--demo", "--demo-jobs", "60",
                       "--seed", "1")
    assert code == EXIT_ANALYSIS
    assert "analysis error" in err


def test_backlog_demo(capsys):
    code, out, _ = run(capsys, "backlog", "--demo", "--demo-jobs", "300",
                       "--resource", "TACC-STAMPEDE")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == ("resource,time,date,queued_core_years,running_nodes,"
                        "queued_nodes,required_nodes")
    assert len(lines) > 10


def test_backlog_of_a_resource_no_job_ran_on_is_analysis_error(capsys):
    code, out, err = run(capsys, "backlog", "--demo", "--demo-jobs", "300",
                         "--resource", "NOPE")
    assert code == EXIT_ANALYSIS
    assert out == ""
    assert err == "analysis error: analysis 'backlog' failed: no job ran on 'NOPE'\n"


@pytest.mark.parametrize("filters,message", [
    ({"resources": ["NOPE"]}, "no job ran on 'NOPE'"),
    ({"resources": ["ZZ", "NOPE"]}, "no job ran on 'NOPE', 'ZZ'"),
    ({"resources": []}, "the filters name no resources"),
    ({"queues": ["NOPE"]}, "no job ran in queue 'NOPE'"),
    ({"queues": []}, "the filters name no queues"),
], ids=["resource", "resources", "no-resources", "queue", "no-queues"])
def test_report_spec_of_resources_no_job_ran_on_is_analysis_error(tmp_path, capsys,
                                                                 filters, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "nope", "date_range": ["2015-07-01", "2016-01-01"],
        "filters": filters, "analyses": [{"analysis": "backlog"}]}))
    out = tmp_path / "out"
    code, _, err = run(capsys, "report", "--demo", "--demo-jobs", "300", "--spec", str(spec),
                       "--outdir", str(out))
    assert code == EXIT_ANALYSIS
    assert err == f"analysis error: analysis 'backlog' failed: {message}\n"
    assert not (out / "backlog_daily.csv").exists()


def test_report_demo_and_config_override(tmp_path, capsys):
    config = tmp_path / "hpcwl.ini"
    config.write_text("[report]\noutput_dir = %s\n" % (tmp_path / "from_config"))
    code, out, _ = run(capsys, "--config", str(config), "report", "--demo",
                       "--demo-jobs", "800", "--seed", "5")
    assert code == EXIT_OK
    assert (tmp_path / "from_config" / "manifest.json").exists()
    outdir = tmp_path / "flag_wins"
    code, out, _ = run(capsys, "--config", str(config), "report", "--demo",
                       "--demo-jobs", "800", "--seed", "5", "--outdir", str(outdir))
    assert code == EXIT_OK
    assert (outdir / "manifest.json").exists()


def test_summarize_rejects_a_non_finite_archive_value(tmp_path, capsys):
    job = {"job_id": "a", "resource": "SDSC-COMET", "user": "u", "charge_number": "TG-1",
           "directorate": "MPS", "parent_science": "Physics", "field_of_science": "X",
           "nsf_user_status": "faculty", "submit_time": 100, "start_time": 200,
           "end_time": 2000, "nodes": 1, "cores": 24, "queue": "q",
           "exit_status": "completed", "local_su_charged": 12.0}
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps(job) + "\n")
    perf = {"type": "perf", "job_id": "a", "node": "n1", "metric": "cpu_user_ticks",
            "kind": "counter"}
    archives = tmp_path / "archives.jsonl"
    archives.write_text("\n".join([
        json.dumps({"type": "job", "job_id": "a", "nodes": ["n1"]}),
        json.dumps(dict(perf, time=200, value=0, tag="job_prolog")),
        json.dumps(dict(perf, time=2000, value=float("nan"), tag="job_epilog")),
    ]) + "\n")
    out = tmp_path / "summaries.jsonl"
    code, _, err = run(capsys, "summarize", "--jobs", str(jobs),
                       "--archives", str(archives), "--out", str(out))
    assert code == EXIT_INPUT
    assert err == "input error: row 3: bad or missing field 'value'\n"
    assert not out.exists()


@pytest.mark.parametrize("record,field", [
    ({"type": "perf", "job_id": "a", "node": "n1", "metric": ["cpu_user_ticks"],
      "kind": "counter", "time": 200, "value": 0}, "metric"),
    ({"type": "perf", "job_id": "a", "node": 1, "metric": "cpu_user_ticks",
      "kind": "counter", "time": 200, "value": 0}, "node"),
    ({"type": "process", "job_id": "a", "process_name": 12, "unique_pid_count": 1},
     "process_name"),
    ({"type": "job", "job_id": "b", "nodes": [1, None]}, "nodes"),
])
def test_summarize_rejects_a_non_string_name(tmp_path, capsys, record, field):
    job = {"job_id": "a", "resource": "SDSC-COMET", "user": "u", "charge_number": "TG-1",
           "directorate": "MPS", "parent_science": "Physics", "field_of_science": "X",
           "nsf_user_status": "faculty", "submit_time": 100, "start_time": 200,
           "end_time": 2000, "nodes": 1, "cores": 24, "queue": "q",
           "exit_status": "completed", "local_su_charged": 12.0}
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps(job) + "\n")
    archives = tmp_path / "archives.jsonl"
    archives.write_text(json.dumps({"type": "job", "job_id": "a", "nodes": ["n1"]}) + "\n"
                        + json.dumps(record) + "\n")
    out = tmp_path / "summaries.jsonl"
    code, _, err = run(capsys, "summarize", "--jobs", str(jobs),
                       "--archives", str(archives), "--out", str(out))
    assert code == EXIT_INPUT
    assert err.startswith("input error: row 2: ") and field in err
    assert not out.exists()



def _job_row(job_id, resource, end_time, cores, local_su):
    return {"job_id": job_id, "resource": resource, "user": "u", "charge_number": "TG-1",
            "directorate": "MPS", "parent_science": "Physics", "field_of_science": "X",
            "nsf_user_status": "faculty", "submit_time": end_time - 7200,
            "start_time": end_time - 3600, "end_time": end_time, "nodes": 1,
            "cores": cores, "queue": "q", "exit_status": "completed",
            "local_su_charged": local_su}


def test_average_core_counts_leaves_out_jobs_without_a_factor(tmp_path, capsys):
    # NICS-KRAKEN's last SU factor window ends in 2014, so its jobs have none
    aug_19, oct_2 = T0 + 18 * 86400 + 3600, T0 + 62 * 86400
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("".join(json.dumps(row) + "\n" for row in (
        _job_row("k1", "NICS-KRAKEN", aug_19, 24, 10.0),
        _job_row("s1", "TACC-STAMPEDE", aug_19, 32, 20.0),
        _job_row("k2", "NICS-KRAKEN", oct_2, 12, 5.0))))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "acc", "date_range": ["2015-07-01", "2016-01-01"],
                                "analyses": [{"analysis": "average_core_counts"}]}))
    out = tmp_path / "out"
    code, _, err = run(capsys, "report", "--jobs", str(jobs), "--spec", str(spec),
                       "--outdir", str(out))
    assert code == EXIT_OK, err
    with open(out / "average_core_counts.csv", newline="") as handle:
        rows = {row.pop("period"): row for row in csv.DictReader(handle)}
    stampede_effective = 32 * 4.599 / 2.04
    for osg in ("osg_incl", "osg_excl"):
        q3, q4 = rows["2015-Q3"], rows["2015-Q4"]
        assert float(q3[f"{osg}_unweighted_actual"]) == (24 + 32) / 2
        assert float(q3[f"{osg}_unweighted_effective"]) == pytest.approx(stampede_effective)
        assert float(q3[f"{osg}_weighted_actual"]) == pytest.approx(32.0)
        assert float(q3[f"{osg}_weighted_effective"]) == pytest.approx(stampede_effective)
        assert float(q4[f"{osg}_unweighted_actual"]) == 12.0
        for variant in ("unweighted_effective", "weighted_actual", "weighted_effective"):
            assert q4[f"{osg}_{variant}"] == ""


RESOURCE = {"name": "M", "rtype": "HPC", "nodes": 4, "cores_per_node": 8,
            "production_start": "2012-01-01", "production_end": None,
            "su_factors": [{"start": "2012-01-01", "end": None, "factor": 1.5}]}


@pytest.mark.parametrize("change,field", [
    ({"rtype": None}, "rtype"),
    ({"rtype": "Mainframe"}, "rtype"),
    ({"nodes": "many"}, "nodes"),
    ({"nodes": -4}, "nodes/cores_per_node"),
    ({"production_start": "2012-13-01"}, "production_start"),
    ({"su_unit": "furlong_hour"}, "su_unit"),
    ({"su_factors": [{"start": "2012-01-01", "factor": "x"}]}, "su_factors"),
    ({"su_factors": [{"start": "2012-01-01", "factor": -1.5}]}, "su_factors"),
    ({"su_factors": [{"start": "2012/01/01", "factor": 1.5}]}, "su_factors"),
    ({"su_factors": [{"start": "2012-01-01", "end": "2013-01-02", "factor": 1.0},
                     {"start": "2013-01-01", "factor": 2.0}]}, "su_factors"),
    ({"shared_queues": 3}, "shared_queues"),
    # a date is a YYYY-MM-DD string, on every Python version
    ({"production_start": 20120101}, "production_start"),
    ({"production_start": "20120101"}, "production_start"),
    ({"production_end": "2017-W35-4"}, "production_end"),
    ({"su_factors": [{"start": "20120101", "factor": 1.5}]}, "su_factors"),
    ({"su_factors": [{"start": "2012-01-01", "end": 20130101, "factor": 1.5}]}, "su_factors"),
    # a name is a string, never a number or a list read by its repr
    ({"name": 7}, "name"),
    ({"name": ["M"]}, "name"),
])
def test_malformed_resource_file_is_input_error(tmp_path, capsys, change, field):
    broken = {k: v for k, v in {**RESOURCE, "name": "N", **change}.items()
              if v is not None or k == "production_end"}
    resources = tmp_path / "resources.json"
    resources.write_text(json.dumps({"resources": [RESOURCE, broken]}))
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("")
    code, _, err = run(capsys, "ingest", "--jobs", str(jobs), "--resources", str(resources))
    assert code == EXIT_INPUT
    assert err == f"input error: row 2: bad or missing field {field!r}\n"


def _spec_report(tmp_path, capsys, filters):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text("".join(json.dumps(row) + "\n" for row in (
        _job_row("k1", "NICS-KRAKEN", T0 + 3600, 24, 10.0),
        _job_row("s1", "TACC-STAMPEDE", T0 + 3600, 32, 20.0),
        {**_job_row("s2", "TACC-STAMPEDE", T0 + 7200, 16, 5.0), "queue": "development"})))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "filtered", "date_range": ["2015-07-01", "2016-01-01"], "filters": filters,
        "analyses": [{"analysis": "usage_rollup",
                      "params": {"dimension": "resource", "weight": "jobs"}}]}))
    out = tmp_path / "out"
    code, _, err = run(capsys, "report", "--jobs", str(jobs), "--spec", str(spec),
                       "--outdir", str(out))
    return code, err, out / "usage_resource_jobs_quarter.csv"


def test_report_spec_filters_keep_their_jobs(tmp_path, capsys):
    code, err, path = _spec_report(tmp_path, capsys, {
        "resources": ["TACC-STAMPEDE", "NICS-KRAKEN"], "exclude_resources": ["NICS-KRAKEN"],
        "queues": ["q"], "exclude_osg": True})
    assert code == EXIT_OK, err
    assert path.read_text().splitlines()[1:] == ["2015-Q3,TACC-STAMPEDE,1.0,100.0"]


@pytest.mark.parametrize("filters,key", [
    ({"resource": ["TACC-STAMPEDE"]}, "resource"),
    ({"queues": "q"}, "queues"),
    ({"exclude_resources": [1]}, "exclude_resources"),
    ({"exclude_osg": "yes"}, "exclude_osg"),
    (["q"], "filters"),
])
def test_report_spec_bad_filters_are_input_errors(tmp_path, capsys, filters, key):
    code, err, path = _spec_report(tmp_path, capsys, filters)
    assert code == EXIT_INPUT
    assert err.startswith("input error: spec: ") and repr(key) in err
    assert not path.exists()


@pytest.mark.parametrize("change,key", [
    ({"name": None}, "name"),
    ({"date_range": ["2015-07-01"]}, "date_range"),
    ({"analyses": [{"params": {}}]}, "analysis"),
    ({"analyses": [{"analysis": "usage_rollup", "params": [1]}]}, "params"),
], ids=["no-name", "one-date", "no-analysis", "params-list"])
def test_report_spec_bad_keys_are_input_errors(tmp_path, capsys, change, key):
    # a None value leaves the key out
    raw = {"name": "bad", "date_range": ["2015-07-01", "2016-01-01"],
           "analyses": [{"analysis": "usage_rollup"}], **change}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    code, _, err = run(capsys, "report", "--demo", "--demo-jobs", "20", "--spec", str(spec),
                       "--outdir", str(tmp_path / "out"))
    assert code == EXIT_INPUT
    assert err.startswith("input error: spec: ") and repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name,text", [("users.csv", "gateway,account\nCipres,c\n"),
                                       ("users.json", '["Cipres"]')], ids=["csv", "json"])
def test_malformed_community_user_map_is_input_error(tmp_path, capsys, name, text):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps(_job_row("s1", "TACC-STAMPEDE", T0 + 3600, 16, 1.0)) + "\n")
    users = tmp_path / name
    users.write_text(text)
    code, _, err = run(capsys, "report", "--jobs", str(jobs), "--community-users", str(users),
                       "--outdir", str(tmp_path / "out"))
    assert code == EXIT_INPUT and err.startswith("input error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("day", ["20150701", "2015-W36-2"])
def test_cli_dates_are_yyyy_mm_dd_strings(tmp_path, capsys, day):
    # date.fromisoformat reads both on Python 3.11 and neither on 3.10
    demo = ("--demo", "--demo-jobs", "20")
    code, _, err = run(capsys, "metric", "usage_rollup", *demo, "--start", day,
                       "--outdir", str(tmp_path / "metric"))
    assert code == EXIT_INPUT and err.startswith("input error: ")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "dates", "date_range": ["2015-07-01", day],
                                "analyses": [{"analysis": "usage_rollup"}]}))
    code, _, err = run(capsys, "report", *demo, "--spec", str(spec),
                       "--outdir", str(tmp_path / "report"))
    assert code == EXIT_INPUT and err.startswith("input error: ")
    assert not (tmp_path / "metric").exists() and not (tmp_path / "report").exists()


# --- jobs from files: the report path reads columns, never records ----------

def _write_jobs(path, jobs):
    rows = [{name: getattr(getattr(job, name), "value", getattr(job, name))
             for name in JOB_FIELDS} for job in jobs]
    if str(path).endswith(".jsonl"):
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        return path
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(JOB_FIELDS))
        writer.writeheader()
        writer.writerows({k: "" if v is None else v for k, v in row.items()} for row in rows)
    return path


def _count_records(monkeypatch):
    built = []
    post_init = ingest.JobRecord.__post_init__
    monkeypatch.setattr(ingest.JobRecord, "__post_init__",
                        lambda job: built.append(job.job_id) or post_init(job))
    return built


def _files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.fixture(scope="module")
def synth_bundle():
    return synth.make_synthetic_dataset(seed=5, n_jobs=400)


@pytest.mark.parametrize("ext", ["csv", "jsonl"])
def test_report_from_files_builds_no_records(tmp_path, capsys, monkeypatch, synth_bundle, ext):
    records = list(synth_bundle.dataset.jobs)
    jobs = _write_jobs(tmp_path / f"jobs.{ext}", records)
    built = _count_records(monkeypatch)
    code, _, _ = run(capsys, "report", "--jobs", str(jobs), "--outdir", str(tmp_path / "cli"))
    assert code == EXIT_OK
    assert built == []
    # the same report as from the records themselves
    monkeypatch.undo()
    ctx = report.ReportContext(dataset=dataset_of(records, [], builtin_resources()))
    report.run_report(ctx, report.standard_bundle_spec(output_dir=str(tmp_path / "records")))
    assert _files(tmp_path / "cli") == _files(tmp_path / "records")


def test_run_report_on_loaded_jobs_builds_no_records(tmp_path, monkeypatch, synth_bundle):
    b = synth_bundle
    jobs = load_jobs(_write_jobs(tmp_path / "jobs.jsonl", b.dataset.jobs))
    dataset = build_dataset(jobs, b.dataset.allocations, b.dataset.resources)
    ctx = report.ReportContext(dataset=dataset, summaries=b.summaries,
                               community_users=b.community_users, user_email=b.user_email,
                               population_by_state=b.population_by_state,
                               tech_index_by_state=b.tech_index_by_state)
    built = _count_records(monkeypatch)
    report.run_report(ctx, report.standard_bundle_spec(output_dir=str(tmp_path / "loaded")))
    assert built == []
    demo = dataclasses.replace(ctx, dataset=b.dataset)
    report.run_report(demo, report.standard_bundle_spec(output_dir=str(tmp_path / "demo")))
    assert _files(tmp_path / "loaded") == _files(tmp_path / "demo")


# the spelling json.dumps writes, whose perf and meminfo lines the loader's
# bulk path takes, and a compact one that goes record by record
SPELLINGS = {"canonical": {}, "compact": {"separators": (",", ":")}}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_summarize_from_files_matches_the_records(tmp_path, capsys, monkeypatch, spelling):
    made, lines, _ = _archive_file(tmp_path, np.random.default_rng(3))
    records = [dataclasses.replace(job, resource="SDSC-COMET") for job in made]
    jobs = _write_jobs(tmp_path / "jobs.csv", records)
    canonical = _write_lines(tmp_path / "canonical.jsonl", lines)
    archives = tmp_path / "archives.jsonl"
    archives.write_text("".join(json.dumps(line, **SPELLINGS[spelling]) + "\n"
                                for line in lines))
    built = _count_records(monkeypatch)
    out = tmp_path / "summaries.jsonl"
    code, _, _ = run(capsys, "summarize", "--jobs", str(jobs), "--archives", str(archives),
                     "--out", str(out))
    assert code == EXIT_OK
    assert sorted(built) == sorted(job.job_id for job in records)  # each built once
    summaries, skipped = summarize_all(records, load_archives(canonical), lambda job: 24)
    assert len(summaries) == len(records) and not skipped
    write_summaries(summaries, tmp_path / "expected.jsonl")
    assert out.read_bytes() == (tmp_path / "expected.jsonl").read_bytes()


def test_summarize_counts_what_it_left_out(tmp_path, capsys):
    made, lines, _ = _archive_file(tmp_path, np.random.default_rng(4), n_jobs=3)
    records = [dataclasses.replace(job, resource="SDSC-COMET") for job in made]
    records.append(dataclasses.replace(records[0], job_id="none"))  # no archive
    # a1 loses its first counter's prolog: skipped for a missing counter
    lines = [line for line in lines if not (line["job_id"] == "a1"
                                            and line.get("tag") == "job_prolog"
                                            and line["metric"] == "cpu_user_ticks")]
    jobs = _write_jobs(tmp_path / "jobs.csv", records)
    archives = _write_lines(tmp_path / "archives.jsonl", lines)
    out = tmp_path / "summaries.jsonl"
    code, stdout, _ = run(capsys, "summarize", "--jobs", str(jobs), "--archives",
                          str(archives), "--out", str(out))
    assert code == EXIT_OK
    assert json.loads(stdout) == {"summarized": 2, "skipped": 2, "no_archive": 1,
                                  "missing_counter": 1}
    assert [json.loads(line)["job_id"] for line in out.read_text().splitlines()] == ["a0", "a2"]


def test_summarize_names_the_job_with_bad_meminfo(tmp_path, capsys):
    made, lines, _ = _archive_file(tmp_path, np.random.default_rng(6), n_jobs=3)
    records = [dataclasses.replace(job, resource="SDSC-COMET") for job in made]
    bad = next(k for k, line in enumerate(lines)
               if line["job_id"] == "a2" and line["type"] == "meminfo"
               and records[2].start_time < line["time"] < records[2].end_time)
    lines[bad]["numa"][0]["slab"] = -1
    jobs = _write_jobs(tmp_path / "jobs.csv", records)
    archives = _write_lines(tmp_path / "archives.jsonl", lines)
    out = tmp_path / "summaries.jsonl"
    code, _, err = run(capsys, "summarize", "--jobs", str(jobs), "--archives",
                       str(archives), "--out", str(out))
    assert code == EXIT_ANALYSIS
    assert err == "analysis error: job a2: negative meminfo component\n"
    assert not out.exists()


def test_reversed_date_range_is_input_error(tmp_path, capsys):
    demo = ("--demo", "--demo-jobs", "20")
    code, _, err = run(capsys, "metric", "usage_rollup", *demo, "--start", "2016-01-01",
                       "--end", "2015-01-01", "--outdir", str(tmp_path / "metric"))
    assert code == EXIT_INPUT and err.startswith("input error: date range: ")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "reversed", "date_range": ["2016-01-01", "2015-01-01"],
                                "analyses": [{"analysis": "usage_rollup"}]}))
    code, _, err = run(capsys, "report", *demo, "--spec", str(spec),
                       "--outdir", str(tmp_path / "report"))
    assert code == EXIT_INPUT and err.startswith("input error: date range: ")
    assert not (tmp_path / "metric").exists() and not (tmp_path / "report").exists()
