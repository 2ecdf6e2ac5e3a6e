import csv
import json
import math
import os
import tempfile
from datetime import date, datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import T0, make_allocation, make_job, make_resource
from hpcwl.errors import (
    MissingGeometry,
    NoFactorForDate,
    OverlappingFactorWindows,
    SchemaError,
    TimestampOrderError,
)
from hpcwl.ingest import (
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
    jobs = load_jobs(path)
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
    jobs = load_jobs(path)
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
    assert load_jobs(jsonl) == load_jobs(csv_path, fmt="csv")


def test_loading_is_deterministic(tmp_path):
    path = tmp_path / "jobs.jsonl"
    write_jsonl(path, [JOB_ROW, dict(JOB_ROW, job_id="a-2")])
    assert load_jobs(path) == load_jobs(path)


# Numeric fields of a job row, with values each loader must reject.
INT_FIELDS = ("submit_time", "start_time", "end_time", "nodes", "cores")
BAD_NUMBERS = {
    "jsonl": {"int": (True, False, 4.7, -0.5, math.nan, math.inf, -math.inf,
                      "nan", "4.7"),
              "float": (True, False, math.nan, math.inf, -math.inf, "nan",
                        "NaN", "inf", "-Infinity")},
    "csv": {"int": ("True", "4.7", "nan", "inf", "1e3"),
            "float": ("True", "nan", "NaN", "inf", "-Infinity")},
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
        jobs = load_jobs(path, fmt=fmt, reject_sink=rejects)
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


# --- allocations -----------------------------------------------------------

def test_zero_use_allocation_flagged(test_resources):
    alloc = make_allocation(awarded=50000.0, used=0.0)
    dataset = build_dataset([], [alloc], test_resources)
    assert len(dataset.allocations) == 1
    assert any(f.code == "unused_allocation" for f in dataset.quality_flags)


def test_overcharge_allowed():
    alloc = make_allocation(awarded=3.0e6, used=60.0e6)
    assert alloc.used_local_su / alloc.awarded_local_su == 20.0


def test_duplicate_allocations_retained_and_flagged(test_resources):
    a1 = make_allocation()
    a2 = make_allocation(awarded=200.0)
    dataset = build_dataset([], [a1, a2], test_resources)
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
    dataset = build_dataset([job], [], test_resources)
    flags = validate(dataset)
    assert [f.code for f in flags] == ["production_window"]
    assert dataset.resolve_flag(flags[0]).job_id == job.job_id


def test_flags_geometry(test_resources):
    job = make_job(nodes=1, cores=3200)  # machine has 1600 cores
    flags = validate(build_dataset([job], [], test_resources))
    assert [f.code for f in flags] == ["geometry"]


def test_flags_cloud_aggregated_accounting():
    cloud = make_resource(name="CLOUDY", rtype=ResourceType.CLOUD)
    job = make_job(resource="CLOUDY", end=T0 + 600 + 31 * 86400, cores=16)
    flags = validate(build_dataset([job], [], {"CLOUDY": cloud}))
    assert "aggregated_accounting" in [f.code for f in flags]


def test_clean_fixture_has_no_flags(test_resources):
    jobs = [make_job(job_id=f"j{i}", submit=T0 + i * 7200) for i in range(10)]
    dataset = build_dataset(jobs, [], test_resources)
    assert validate(dataset) == []


def test_unknown_resource_job_dropped_with_flag(test_resources):
    job = make_job(resource="NOPE")
    dataset = build_dataset([job], [], test_resources)
    assert dataset.jobs == ()
    assert [f.code for f in dataset.quality_flags] == ["unknown_resource"]
