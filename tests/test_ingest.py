import csv
import dataclasses
import json
import math
import os
import re
import tempfile
from dataclasses import fields
from datetime import date, datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rollups_oracle as oracle
from conftest import T0, dataset_of, make_allocation, make_job, make_resource
from hpcwl import ingest, synth
from hpcwl.cli import main
from hpcwl.errors import (
    MissingGeometry,
    NoFactorForDate,
    OverlappingFactorWindows,
    SchemaError,
    TimestampOrderError,
)
from hpcwl.ingest import (
    JOB_RULES,
    AllocationRecord,
    JobRecord,
    JobSequence,
    Rejection,
    ResourceType,
    SuUnit,
    build_dataset,
    builtin_resources,
    load_allocations,
    load_jobs,
    load_resources,
    resource_from_dict,
    su_convert,
    utc_date,
    validate,
    write_rejection_report,
)
from hpcwl.jobtable import day_number

JOB_ROW = {
    "job_id": "a-1", "resource": "TESTMACHINE", "user": "alice",
    "charge_number": "TG-001", "directorate": "MPS",
    "parent_science": "Physics", "field_of_science": "Nuclear Physics",
    "nsf_user_status": "faculty", "submit_time": 100, "start_time": 200,
    "end_time": 300, "nodes": 2, "cores": 32, "queue": "normal",
    "exit_status": "completed", "gateway_user": None,
    "state_of_origin": "NY", "local_su_charged": 12.5,
}


def write_jsonl(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def test_ordered_timestamps_accepted(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [JOB_ROW])
    jobs = load_jobs(path).records()
    assert len(jobs) == 1
    assert jobs[0].submit_time == 100
    assert jobs[0].nodes == 2 and jobs[0].cores == 32


def test_start_before_submit_rejected(tmp_path):
    bad = dict(JOB_ROW, start_time=50)
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [bad])
    with pytest.raises(TimestampOrderError):
        load_jobs(path)


def test_three_row_golden_fixture(tmp_path):
    rows = [
        dict(JOB_ROW, job_id="a-1"),
        dict(JOB_ROW, job_id="a-2", submit_time=500, start_time=600,
             end_time=4200, nodes=1, cores=1, exit_status="failed",
             local_su_charged=1.0),
        dict(JOB_ROW, job_id="a-3", nsf_user_status="unknown",
             gateway_user="someone@example.org", state_of_origin=None),
    ]
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, rows)
    jobs = load_jobs(path).records()
    assert [j.job_id for j in jobs] == ["a-1", "a-2", "a-3"]
    assert jobs[1].exit_status.value == "failed"
    assert jobs[1].wall_seconds == 3600
    assert jobs[2].gateway_user == "someone@example.org"
    assert jobs[2].state_of_origin is None
    # field-for-field equality against the fixture manifest
    for job, raw in zip(jobs, rows):
        assert job.job_id == raw["job_id"]
        assert job.resource == raw["resource"]
        assert job.cores == raw["cores"]
        assert job.local_su_charged == raw["local_su_charged"]


def test_reject_sink_collects_bad_rows(tmp_path):
    rows = [JOB_ROW, dict(JOB_ROW, start_time=10), dict(JOB_ROW, cores="x")]
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, rows)
    rejects = []
    jobs = load_jobs(path, reject_sink=rejects)
    assert len(jobs) == 1
    assert [(r.row, r.code) for r in rejects] == [(2, "timestamp_order"), (3, "schema")]
    report = tmp_path / "rejects.jsonl"
    write_rejection_report(rejects, report)
    lines = [json.loads(line) for line in report.read_text().splitlines()]
    assert lines[0] == {"row": 2, "field": "submit_time/start_time/end_time",
                        "code": "timestamp_order"}


@pytest.mark.parametrize("changes,field,message", [
    ({"start_time": 50}, "submit_time/start_time/end_time", "timestamps out of order"),
    ({"end_time": 150}, "submit_time/start_time/end_time", "timestamps out of order"),
    ({"nodes": 0, "cores": 0}, "nodes", "nodes must be >= 1"),
    ({"nodes": 4, "cores": 3}, "cores", "cores must be >= nodes >= 1"),
    ({"local_su_charged": -0.5}, "local_su_charged", "negative SU charge"),
])
def test_job_rules_hold_for_loaded_and_built_records(tmp_path, changes, field, message):
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [JOB_ROW, dict(JOB_ROW, **changes)])
    with pytest.raises(SchemaError) as err:
        load_jobs(path)
    assert (err.value.row, err.value.field, str(err.value)) == (2, field, f"row 2: {message}")
    with pytest.raises(ValueError, match=message):
        JobRecord(**dict(JOB_ROW, **changes))


def test_no_survivors_fails(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [dict(JOB_ROW, nodes=0)])
    with pytest.raises(SchemaError):
        load_jobs(path, reject_sink=[])


def test_csv_matches_jsonl(tmp_path):
    jsonl = tmp_path / "jobs.jsonl"
    write_jsonl(jsonl, [JOB_ROW])
    csv_path = tmp_path / "jobs.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(JOB_ROW))
        writer.writeheader()
        writer.writerow({k: ("" if v is None else v) for k, v in JOB_ROW.items()})
    assert load_jobs(jsonl).records() == load_jobs(csv_path, fmt="csv").records()


def test_a_bad_byte_in_a_multiline_csv_field_rejects_that_record_only(tmp_path):
    """A quoted CSV field may span lines; a byte that is not UTF-8 inside
    it makes that field, and so that one record, bad."""
    path = tmp_path / "jobs.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(JOB_ROW))
        writer.writeheader()
        for i, queue in enumerate(("normal", "two\nLINES", "two\nlines", "normal")):
            writer.writerow({k: ("" if v is None else v)
                             for k, v in dict(JOB_ROW, job_id=f"a-{i}", queue=queue).items()})
    path.write_bytes(path.read_bytes().replace(b"LINES", b"l\xffnes"))
    rejects = []
    jobs = load_jobs(path, "csv", rejects)
    assert jobs.columns["job_id"].tolist() == ["a-0", "a-2", "a-3"]
    assert [(r.row, r.field, r.code) for r in rejects] == [(2, "queue", "schema")]
    assert [job.queue for job in jobs.records()] == ["normal", "two\nlines", "normal"]


def test_loading_is_deterministic(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [JOB_ROW, dict(JOB_ROW, job_id="a-2")])
    assert load_jobs(path).records() == load_jobs(path).records()


# Numeric fields of a job row, with values each loader must reject.
INT_FIELDS = ("submit_time", "start_time", "end_time", "nodes", "cores")
BAD_NUMBERS = {
    "jsonl": {"int": (True, False, 4.7, -0.5, math.nan, math.inf, -math.inf,
                      "nan", "4.7", "4_000", " 32 ", "+5", "\u0663\u0662"),
              "float": (True, False, math.nan, math.inf, -math.inf, "nan",
                        "NaN", "inf", "-Infinity", "1_000.5", " 12.5 ", "\u0661\u0662.5",
                        "+1.5")},
    "csv": {"int": ("True", "4.7", "nan", "inf", "1e3", "4_000", " 32 ", "+5",
                    "\u0663\u0662"),
            "float": ("True", "nan", "NaN", "inf", "-Infinity", "1_000.5", " 12.5 ",
                      "\u0661\u0662.5", "+1.5")},
}


@st.composite
def job_rows(draw, fmt):
    """(row as written, bad field names, the values a clean row loads as)."""
    submit = draw(st.integers(0, 2**33))
    start = submit + draw(st.integers(0, 10**6))
    nodes = draw(st.integers(1, 64))
    clean = dict(JOB_ROW, submit_time=submit, start_time=start,
                 end_time=start + draw(st.integers(0, 10**6)), nodes=nodes,
                 cores=nodes * draw(st.integers(1, 64)),
                 local_su_charged=draw(st.floats(0, 1e12)))
    row = dict(clean)
    bad = draw(st.sets(st.sampled_from(INT_FIELDS + ("local_su_charged",))))
    for name in bad:
        kind = "int" if name in INT_FIELDS else "float"
        row[name] = draw(st.sampled_from(BAD_NUMBERS[fmt][kind]))
    for name in set(INT_FIELDS) - bad:
        if fmt == "jsonl" and draw(st.booleans()):
            row[name] = float(row[name])  # an integral JSON number is an int
    return row, bad, clean


def _write_rows(path, fmt, rows):
    if fmt == "jsonl":
        write_jsonl(path, rows)
        return
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(JOB_ROW))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@given(data=st.data())
def test_numeric_fields_rejected_row_by_row_or_finite(fmt, data):
    drawn = data.draw(st.lists(job_rows(fmt), min_size=1, max_size=6))
    anchor = dict(JOB_ROW, job_id="anchor")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"jobs.{fmt}")
        _write_rows(path, fmt, [row for row, _, _ in drawn] + [anchor])
        rejects = []
        jobs = load_jobs(path, fmt=fmt, reject_sink=rejects).records()
    assert [r.row for r in rejects] == [i for i, (_, bad, _) in
                                        enumerate(drawn, start=1) if bad]
    assert all(r.code == "schema" for r in rejects)
    for rej in rejects:
        assert rej.field in drawn[rej.row - 1][1]
    loaded = [clean for _, bad, clean in drawn if not bad] + [anchor]
    assert len(jobs) == len(loaded)
    for job, clean in zip(jobs, loaded):
        for name in INT_FIELDS:
            value = getattr(job, name)
            assert type(value) is int and value == clean[name]
        assert math.isfinite(job.local_su_charged)
        assert job.local_su_charged == clean["local_su_charged"]


@pytest.mark.parametrize("fmt,field,value", [
    ("jsonl", "local_su_charged", "nan"),
    ("jsonl", "local_su_charged", math.inf),
    ("csv", "local_su_charged", "nan"),
    ("jsonl", "nodes", True),
    ("jsonl", "cores", True),
    ("jsonl", "cores", 4.7),
    ("jsonl", "cores", math.inf),
    ("csv", "cores", "4_000"),
    ("csv", "nodes", " 32 "),
    ("csv", "nodes", "+5"),
    ("csv", "cores", "\u0663\u0662"),
    ("jsonl", "cores", "4_000"),
    ("jsonl", "local_su_charged", 10**400),
])
def test_bad_number_is_a_rejection(tmp_path, fmt, field, value):
    path = tmp_path / f"jobs.{fmt}"
    _write_rows(path, fmt, [dict(JOB_ROW, **{field: value}), JOB_ROW])
    rejects = []
    assert len(load_jobs(path, fmt=fmt, reject_sink=rejects)) == 1
    assert [(r.row, r.field, r.code) for r in rejects] == [(1, field, "schema")]


DAY = 86400
FIRST_SECOND = (date(1, 1, 1) - date(1970, 1, 1)).days * DAY
LAST_SECOND = (date(9999, 12, 31) - date(1970, 1, 1)).days * DAY + DAY - 1


@given(st.integers(FIRST_SECOND, LAST_SECOND)
       | st.builds(lambda day, offset: day * DAY + offset,
                   st.integers(FIRST_SECOND // DAY + 1, LAST_SECOND // DAY),
                   st.sampled_from((-1, 0, 1))))
@example(FIRST_SECOND)
@example(LAST_SECOND)
@example(-1)
@example(0)
@example(2**31 - 1)
@example(2**31)
def test_utc_date_matches_fromtimestamp(seconds):
    assert utc_date(seconds) == datetime.fromtimestamp(seconds, tz=timezone.utc).date()


# --- resources -------------------------------------------------------------

def test_kraken_four_windows_accepted():
    spec = builtin_resources()["NICS-KRAKEN"]
    assert len(spec.su_factors) == 4
    assert spec.su_factors[0].factor == 1.075
    assert spec.su_factors[-1].factor == 2.04
    assert spec.su_factors[-1].start == date(2009, 10, 5)
    # inclusive table ends: the first window still covers its printed end day
    assert spec.factor_for(date(2008, 8, 3)) == 1.075
    assert spec.factor_for(date(2008, 8, 4)) == 1.691


def test_overlapping_windows_rejected():
    with pytest.raises(OverlappingFactorWindows):
        resource_from_dict({
            "name": "X", "rtype": "HPC", "nodes": 1, "cores_per_node": 1,
            "production_start": "2010-01-01", "production_end": "2020-01-01",
            "su_factors": [
                {"start": "2010-01-01", "end": "2012-01-02", "factor": 1.0},
                {"start": "2012-01-01", "end": "2014-01-01", "factor": 2.0},
            ]})


def test_stampede2_node_hours_accepted():
    spec = builtin_resources()["TACC-STAMPEDE2"]
    assert spec.su_unit is SuUnit.NODE_HOUR
    assert spec.factor_for(date(2017, 8, 1)) == 143.719


def test_missing_geometry_rejected():
    with pytest.raises(MissingGeometry):
        resource_from_dict({"name": "X", "rtype": "HPC",
                            "production_start": "2010-01-01", "su_factors": []})


def test_load_resources_file(tmp_path):
    doc = {"resources": [{
        "name": "M", "rtype": "HPC", "nodes": 4, "cores_per_node": 8,
        "production_start": "2012-01-01", "production_end": None,
        "su_factors": [{"start": "2012-01-01", "end": None, "factor": 1.5}],
    }]}
    path = tmp_path / "resources.json"
    path.write_text(json.dumps(doc))
    specs = load_resources(path)
    assert specs["M"].total_cores == 32
    assert specs["M"].factor_for(date(2099, 1, 1)) == 1.5


def test_a_resource_integer_outside_int64_is_out_of_range(tmp_path):
    entry = {"name": "M", "rtype": "HPC", "nodes": 2**63, "cores_per_node": 8,
             "production_start": "2012-01-01",
             "su_factors": [{"start": "2012-01-01", "end": None, "factor": 1.5}]}
    path = tmp_path / "resources.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(SchemaError) as info:
        load_resources(path)
    assert (info.value.row, info.value.field) == (1, "nodes")
    assert str(info.value.__cause__) == "row 0: nodes out of range"


def test_load_resources_object_without_resources_key(tmp_path, capsys):
    # a misspelt key must not load as an empty table that drops every job
    path = tmp_path / "resources.json"
    path.write_text(json.dumps({"resourcez": [{"name": "A"}]}))
    with pytest.raises(SchemaError) as info:
        load_resources(path)
    assert info.value.field == "resources"
    assert main(["ingest", "--jobs", str(tmp_path / "jobs.jsonl"),
                 "--resources", str(path)]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


# --- allocations -----------------------------------------------------------

def test_zero_use_allocation_flagged(test_resources):
    alloc = make_allocation(awarded=50000.0, used=0.0)
    dataset = dataset_of([], [alloc], test_resources)
    assert len(dataset.allocations) == 1
    assert any(f.code == "unused_allocation" for f in dataset.quality_flags)


def test_overcharge_allowed():
    alloc = make_allocation(awarded=3.0e6, used=60.0e6)
    assert alloc.used_local_su / alloc.awarded_local_su == 20.0


def test_duplicate_allocations_retained_and_flagged(test_resources):
    a1 = make_allocation()
    a2 = make_allocation(awarded=200.0)
    dataset = dataset_of([], [a1, a2], test_resources)
    assert len(dataset.allocations) == 2
    dupes = [f for f in dataset.quality_flags if f.code == "duplicate_allocation"]
    assert len(dupes) == 1
    assert dataset.resolve_flag(dupes[0]) is not None


def test_load_allocations_file(tmp_path):
    rows = [{
        "charge_number": "TG-1", "resource": "R", "alloc_type": "Startup",
        "discipline": "BIO", "awarded_local_su": 50000, "used_local_su": 0,
        "award_date": "2015-01-01", "is_gateway_tagged": False,
    }]
    path = tmp_path / "allocs.jsonl"
    write_jsonl(path, rows)
    allocs = load_allocations(path)
    assert allocs[0].charge_number == "TG-1"
    assert allocs[0].used_local_su == 0.0


# --- SU conversion ---------------------------------------------------------

def test_stampede_conversion_factor():
    resources = builtin_resources()
    out = su_convert(resources, 100.0, "TACC-STAMPEDE", date(2015, 1, 1), "to_xd")
    assert out == 100.0 * 4.599
    assert out == pytest.approx(459.9)


def test_osg_factor_one_then_updated():
    resources = builtin_resources()
    assert su_convert(resources, 100.0, "OSG", date(2013, 1, 1), "to_xd") == 100.0
    assert su_convert(resources, 100.0, "OSG", date(2016, 1, 1), "to_xd") == 100.0 * 3.147


def test_no_factor_for_date():
    resources = builtin_resources()
    with pytest.raises(NoFactorForDate):
        su_convert(resources, 1.0, "NICS-KRAKEN", date(2015, 1, 1), "to_xd")


@given(st.floats(min_value=1e-6, max_value=1e12,
                 allow_nan=False, allow_infinity=False))
def test_round_trip_identity(amount):
    resources = builtin_resources()
    xd = su_convert(resources, amount, "TACC-STAMPEDE", date(2015, 1, 1), "to_xd")
    back = su_convert(resources, xd, "TACC-STAMPEDE", date(2015, 1, 1), "from_xd")
    assert back == pytest.approx(amount, rel=1e-12)


# --- validate --------------------------------------------------------------

def test_flags_production_window(test_resources):
    job = make_job(submit=946684800, start=946684900, end=946685000)  # year 2000
    dataset = dataset_of([job], [], test_resources)
    flags = validate(dataset)
    assert [f.code for f in flags] == ["production_window"]
    assert dataset.resolve_flag(flags[0]).job_id == job.job_id


def test_flags_geometry(test_resources):
    job = make_job(nodes=1, cores=3200)  # machine has 1600 cores
    flags = validate(dataset_of([job], [], test_resources))
    assert [f.code for f in flags] == ["geometry"]


def test_flags_cloud_aggregated_accounting():
    cloud = make_resource(name="CLOUDY", rtype=ResourceType.CLOUD)
    job = make_job(resource="CLOUDY", end=T0 + 600 + 31 * 86400, cores=16)
    flags = validate(dataset_of([job], [], {"CLOUDY": cloud}))
    assert "aggregated_accounting" in [f.code for f in flags]


def test_clean_fixture_has_no_flags(test_resources):
    jobs = [make_job(job_id=f"j{i}", submit=T0 + i * 7200) for i in range(10)]
    dataset = dataset_of(jobs, [], test_resources)
    assert validate(dataset) == []


def test_unknown_resource_job_dropped_with_flag(test_resources):
    job = make_job(resource="NOPE")
    dataset = dataset_of([job], [], test_resources)
    assert len(dataset.jobs) == 0
    assert [f.code for f in dataset.quality_flags] == ["unknown_resource"]


def test_validate_masks_match_the_record_loop():
    demo = synth.make_synthetic_dataset(n_jobs=3000).dataset
    records = demo.jobs.records()
    starts: dict[str, list[date]] = {}
    for job in records:
        starts.setdefault(job.resource, []).append(utc_date(job.start_time))
    # each production window is the middle half of its jobs' start days, so
    # some demo job starts on its first and on its last day
    resources = dict(demo.resources)
    for name, days in starts.items():
        days.sort()
        resources[name] = dataclasses.replace(
            resources[name], production_start=days[len(days) // 4],
            production_end=days[3 * len(days) // 4])
    resources["SDSC-COMET"] = dataclasses.replace(resources["SDSC-COMET"], nodes=16)
    resources["OSG"] = dataclasses.replace(resources["OSG"], rtype=ResourceType.CLOUD, nodes=8)
    osg = resources["OSG"]
    first, last = (day_number(osg.production_start) * 86400,
                   day_number(osg.production_end) * 86400)
    extra = [make_job(job_id="all-three", resource="OSG", submit=first - 60, start=first - 60,
                      end=first - 60 + 31 * 86400, cores=16),
             make_job(job_id="first-day", resource="OSG", submit=first, start=first, cores=1),
             make_job(job_id="last-day", resource="OSG", submit=last, start=last + 86399,
                      cores=1),
             make_job(job_id="day-after", resource="OSG", submit=last, start=last + 86400,
                      cores=1)]
    dataset = dataset_of(records[:1000] + extra + records[1000:], [], resources)
    flags = validate(dataset)
    assert flags == oracle.validate(dataset)
    codes = ["production_window", "geometry", "aggregated_accounting"]
    assert {flag.code for flag in flags} == set(codes)
    assert [flag.code for flag in flags if flag.locator == "all-three"] == codes
    flagged = {flag.locator for flag in flags}
    assert "day-after" in flagged and not {"first-day", "last-day"} & flagged
    for name, days in starts.items():
        spec = resources[name]
        assert spec.production_start in days and spec.production_end in days


def test_demo_columns_keep_every_job_rule():
    columns = synth.make_synthetic_dataset(n_jobs=3000).dataset.jobs.columns
    numbers = SimpleNamespace(**{name: columns[name] for name in ingest._NUMBERS})
    for _, reason, holds in JOB_RULES:
        assert holds(numbers).all(), reason


def test_jobs_from_values_keep_every_job_rule():
    values = {name: [getattr(make_job(), name)] for name in ingest.JOB_FIELDS}
    assert JobSequence.from_values(values).records() == [make_job()]
    with pytest.raises(ValueError, match="job j1: cores must be >= nodes >= 1"):
        JobSequence.from_values(dict(values, nodes=[4], cores=[2]))
    with pytest.raises(ValueError, match="one value list per JobRecord field"):
        JobSequence.from_values({name: values[name] for name in list(values)[1:]})


def test_build_dataset_takes_loaded_jobs_only(test_resources):
    with pytest.raises(TypeError, match="JobSequence"):
        build_dataset([make_job()], [], test_resources)


def test_a_dataset_holds_loaded_jobs_only(test_resources):
    dataset = dataset_of([make_job()], [], test_resources)
    with pytest.raises(TypeError, match="must be a JobSequence, not list"):
        ingest.Dataset(jobs=[make_job()], allocations=(), resources=test_resources)
    with pytest.raises(TypeError, match="must be a JobSequence, not list"):
        dataclasses.replace(dataset, jobs=dataset.jobs.records())


def test_resolving_a_job_flag_builds_one_record(test_resources, monkeypatch):
    jobs = [make_job(job_id=f"j{i % 4}", nodes=1 + i, cores=16 * (1 + i)) for i in range(8)]
    flags = [ingest.QualityFlag("job", locator, "geometry") for locator in ("j2", "j0", "nope")]
    expected = [next((job for job in dataset_of(jobs, [], test_resources).jobs.records()
                      if job.job_id == flag.locator), None) for flag in flags]
    assert expected[0].nodes == 3 and expected[2] is None
    built = []
    post_init = JobRecord.__post_init__
    monkeypatch.setattr(JobRecord, "__post_init__", lambda job: built.append(job) or post_init(job))
    for flag, record in zip(flags, expected):
        dataset = dataset_of(jobs, [], test_resources)
        built.clear()
        assert dataset.resolve_flag(flag) == record
        assert len(built) == (record is not None)


# --- malformed lines and non-string values ----------------------------------

ALLOCATION_ROW = {"charge_number": "TG-1", "resource": "R", "alloc_type": "Startup",
                  "discipline": "BIO", "awarded_local_su": 5, "used_local_su": 1,
                  "award_date": "2015-01-01"}


@pytest.mark.parametrize("loader,row", [(load_jobs, JOB_ROW), (load_allocations, ALLOCATION_ROW)])
def test_invalid_and_non_object_lines_go_to_the_reject_sink(tmp_path, loader, row):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"job_id":"a"\n' + json.dumps(row) + "\n[1, 2]\n\n"
                    + json.dumps(row) + "\n")
    rejects = []
    assert len(loader(path, reject_sink=rejects)) == 2
    assert rejects == [Rejection(1, None, "schema"), Rejection(3, None, "schema")]
    with pytest.raises(SchemaError, match="^row 1: invalid JSON$"):
        loader(path)
    path.write_text(json.dumps(row) + "\n7\n")
    with pytest.raises(SchemaError, match="^row 2: expected an object$"):
        loader(path)


def test_a_lone_invalid_line_is_rejected_then_nothing_survives(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"job_id":"a"')
    rejects = []
    with pytest.raises(SchemaError, match="no rows survived"):
        load_jobs(path, reject_sink=rejects)
    assert rejects == [Rejection(1, None, "schema")]


@pytest.mark.parametrize("loader,row,changes", [
    (load_jobs, JOB_ROW, [("user", ["alice"]), ("queue", {"q": 1}), ("gateway_user", 7),
                          ("state_of_origin", False), ("job_id", 12)]),
    (load_allocations, ALLOCATION_ROW, [("charge_number", 12), ("resource", True),
                                        ("discipline", 1.5)]),
])
def test_non_string_json_values_of_string_fields_are_rejected(tmp_path, loader, row, changes):
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, [dict(row, **{name: value}) for name, value in changes] + [row])
    rejects = []
    assert len(loader(path, reject_sink=rejects)) == 1
    assert rejects == [Rejection(i, name, "schema") for i, (name, _) in enumerate(changes, 1)]
    with pytest.raises(SchemaError, match=f"^row 1: {changes[0][0]} must be a string$"):
        loader(path)


# --- malformed allocation rows ------------------------------------------------

MISSING = object()  # the field is left out of the row (an empty CSV cell)


def _write_allocations(path, fmt, rows):
    rows = [{k: v for k, v in row.items() if v is not MISSING} for row in rows]
    if fmt == "jsonl":
        write_jsonl(path, rows)
        return
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=[*ALLOCATION_ROW, "is_gateway_tagged"])
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("changes,field", [
    ({"awarded_local_su": -5}, "awarded_local_su"),
    ({"used_local_su": -0.5}, "used_local_su"),
    ({"awarded_local_su": math.nan}, "awarded_local_su"),
    ({"used_local_su": math.inf}, "used_local_su"),
    ({"awarded_local_su": True}, "awarded_local_su"),
    ({"used_local_su": "x"}, "used_local_su"),
    ({"alloc_type": "Bogus"}, "alloc_type"),
    ({"charge_number": MISSING}, "charge_number"),
    ({"resource": MISSING}, "resource"),
    ({"alloc_type": MISSING}, "alloc_type"),
    ({"discipline": MISSING}, "discipline"),
    ({"awarded_local_su": MISSING}, "awarded_local_su"),
    ({"used_local_su": MISSING}, "used_local_su"),
    ({"award_date": MISSING}, "award_date"),
    ({"award_date": "2015-13-01"}, "award_date"),
    ({"award_date": "2015-02-30"}, "award_date"),
    ({"award_date": "x"}, "award_date"),
    # a date is a YYYY-MM-DD string on every Python version, never a
    # number or another ISO 8601 form
    ({"award_date": 20150901}, "award_date"),
    ({"award_date": "20150901"}, "award_date"),
    ({"award_date": "2015-W36-2"}, "award_date"),
    ({"award_date": "2015-09-01T00:00"}, "award_date"),
    ({"award_date": "\u0662015-09-01"}, "award_date"),
    # every field is read first, numbers before the others, then the rules
    ({"awarded_local_su": -5, "discipline": MISSING}, "discipline"),
    ({"used_local_su": -1, "alloc_type": "Bogus"}, "alloc_type"),
    ({"award_date": "2015-13-01", "resource": MISSING}, "resource"),
    ({"awarded_local_su": -5, "used_local_su": "x"}, "used_local_su"),
    ({"awarded_local_su": -5, "used_local_su": -1}, "awarded_local_su"),
    # a gateway tag is a yes/no value: a misspelt one is not read as "no"
    ({"is_gateway_tagged": "ture"}, "is_gateway_tagged"),
    ({"is_gateway_tagged": 2}, "is_gateway_tagged"),
    ({"is_gateway_tagged": 1.5}, "is_gateway_tagged"),
    ({"is_gateway_tagged": ["yes"]}, "is_gateway_tagged"),
])
def test_malformed_allocation_row_is_rejected_for_its_field(tmp_path, fmt, changes, field):
    path = tmp_path / f"allocations.{fmt}"
    _write_allocations(path, fmt, [dict(ALLOCATION_ROW, **changes), ALLOCATION_ROW])
    rejects = []
    assert len(load_allocations(path, fmt, reject_sink=rejects)) == 1
    assert rejects == [Rejection(1, field, "schema")]
    with pytest.raises(SchemaError) as err:
        load_allocations(path, fmt)
    assert (err.value.row, err.value.field) == (1, field)


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_gateway_tag_reads_yes_and_no_values(tmp_path, fmt):
    tags = [(True, True), (False, False), (1, True), (0, False), (" YES ", True),
            ("no", False), ("True", True), ("0", False), ("", False), (None, False),
            (MISSING, False)]
    path = tmp_path / f"allocations.{fmt}"
    _write_allocations(path, fmt, [dict(ALLOCATION_ROW, is_gateway_tagged=value)
                                   for value, _ in tags])
    assert [a.is_gateway_tagged for a in load_allocations(path, fmt)] == [
        tagged for _, tagged in tags]


@pytest.mark.parametrize("changes,message", [
    ({"awarded_local_su": -5}, "negative SU award"),
    ({"used_local_su": -1}, "negative SU use"),
])
def test_allocation_rules_hold_for_loaded_and_built_records(tmp_path, changes, message):
    path = tmp_path / "allocations.jsonl"
    write_jsonl(path, [dict(ALLOCATION_ROW, **changes)])
    with pytest.raises(SchemaError, match=f"^row 1: {message}$"):
        load_allocations(path)
    row = dict(ALLOCATION_ROW, award_date=date(2015, 1, 1), **changes)
    with pytest.raises(ValueError, match=message):
        AllocationRecord(**row)


# --- the field schema and docs/formats.md ----------------------------------

TYPE_WORDS = {int: "int", float: "float", str: "string", str | None: "string?",
              date: "date", bool: "bool"}


def _doc_table(heading: str) -> list[tuple[str, str, str]]:
    """(field, type word, notes) of each row of the field table under a
    docs/formats.md heading."""
    text = (Path(__file__).parents[1] / "docs" / "formats.md").read_text("utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    cells = [[cell.strip() for cell in line.strip().strip("|").split("|")]
             for line in section.splitlines() if line.startswith("| `")]
    return [(name.strip("`"), word, notes) for name, word, notes in cells]


@pytest.mark.parametrize("cls,heading,check_order", [
    (JobRecord, "Job accounting records (`load_jobs`)",
     ["submit_time", "start_time", "end_time", "nodes", "cores", "local_su_charged",
      "job_id", "resource", "user", "charge_number", "directorate", "parent_science",
      "field_of_science", "nsf_user_status", "queue", "exit_status", "gateway_user",
      "state_of_origin"]),
    (AllocationRecord, "Allocation records (`load_allocations`)",
     ["awarded_local_su", "used_local_su", "charge_number", "resource", "alloc_type",
      "discipline", "award_date", "is_gateway_tagged"]),
])
def test_docs_field_tables_match_the_record_schema(cls, heading, check_order):
    schema = dict(ingest._schema(cls))
    assert list(schema) == check_order
    documented = _doc_table(heading)
    assert [name for name, _, _ in documented] == [f.name for f in fields(cls)]
    for name, word, notes in documented:
        kind = schema[name]
        if kind in TYPE_WORDS:
            assert word == TYPE_WORDS[kind], name
        else:
            assert word == "enum", name
            assert re.findall("`([^`]+)`", notes) == [member.value for member in kind]
