"""The column path of ``load_jobs`` against its oracle: a record loop that
reads each row (``csv.DictReader``, or the JSON-lines reader) and passes it
to ``_job_from_raw``.  Both must give the same rejections in the same order,
the same exception without a reject sink, equal records, and job tables with
the same columns."""
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
from functools import partial
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, make_job, make_resource, table_of
from test_ingest import BAD_NUMBERS, JOB_ROW
from hpcwl import ingest
from hpcwl.errors import SchemaError
from hpcwl.ingest import JOB_FIELDS, AllocationRecord, JobSequence, load_allocations, load_jobs
from hpcwl.jobtable import Codes

RESOURCES = {"TESTMACHINE": make_resource()}
INTS = ("submit_time", "start_time", "end_time", "nodes", "cores")
ENUMS = ("nsf_user_status", "exit_status")
OPTIONAL = ("gateway_user", "state_of_origin")
MISSING = object()  # the field is left out of the row
FIELD_LIMIT = 100  # csv.field_size_limit while a drawn CSV file is read

# malformed (and some oddly spelled but valid) values of each kind of field,
# on top of test_ingest's BAD_NUMBERS; the oracle decides which are valid
ODD = {
    "jsonl": {
        "int": ("-5", "007", " 5", "1_0", "nan", "1e400", "12", 4.0, -4.0, 2**63 - 1,
                2**63, -2**63, -2**63 - 1, 10**30, None, "", MISSING),
        "float": ("-5", "007", " 5", "1_0", "1e400", 10**400, -0.5, -0.0, 0, 7, "5.5",
                  None, "", MISSING),
        "str": ("", None, MISSING, ["alice"], {"q": 1}, 7, 0, True, 1.5, " ", "x"),
        "enum": ("", None, MISSING, "Faculty", "completed ", 1, ["faculty"]),
        "optional": ("", None, MISSING, 7, ["a"], {"g": 1}, False, "x"),
    },
    "csv": {
        "int": ("-5", "007", " 5", "1_0", "nan", "1e400", "12", "4.0", str(2**63 - 1),
                str(2**63), str(-2**63), str(-2**63 - 1), "0" * 19 + "1", "", MISSING),
        "float": ("-5", "007", " 5", "1_0", "1e400", "-0.5", "-0.0", " 1.5 ", "0x10",
                  "", MISSING),
        "str": ("", MISSING, " ", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "x",
                "y" * (FIELD_LIMIT + 1)),
        "enum": ("", MISSING, "Faculty", "completed ", '"faculty"'),
        "optional": ("", MISSING, " ", "a,b", "x"),
    },
}


def _kind(name):
    if name in INTS:
        return "int"
    if name == "local_su_charged":
        return "float"
    if name in ENUMS:
        return "enum"
    if name in OPTIONAL:
        return "optional"
    return "str"


def _odd_values(fmt, kind):
    numbers = BAD_NUMBERS[fmt].get(kind, ())
    return numbers + ODD[fmt][kind]


@st.composite
def job_rows(draw, fmt):
    """A row as a dict of field -> value (MISSING: left out): valid, with
    one row rule broken alone, or with one or three odd field values."""
    submit = draw(st.integers(-10**6, 2**33))
    start = submit + draw(st.integers(0, 10**6))
    nodes = draw(st.integers(1, 64))
    row = dict(JOB_ROW, job_id=draw(st.sampled_from(("a-1", "a-2", "b"))),
               resource=draw(st.sampled_from(("TESTMACHINE", "TESTMACHINE", "OTHER"))),
               user=draw(st.sampled_from(("alice", "bob"))),
               nsf_user_status=draw(st.sampled_from(("faculty", "postdoc", "unknown"))),
               exit_status=draw(st.sampled_from(("completed", "failed"))),
               gateway_user=draw(st.sampled_from((None, "gw@example.org"))),
               state_of_origin=draw(st.sampled_from((None, "NY", "TX"))),
               submit_time=submit, start_time=start,
               end_time=start + draw(st.integers(0, 10**6)), nodes=nodes,
               cores=nodes * draw(st.integers(1, 64)),
               local_su_charged=draw(st.floats(0, 1e12)))
    mode = draw(st.sampled_from(("clean", "rule", "field", "field", "fields")))
    broken = draw(st.sampled_from(("order", "order", "nodes", "cores", "su"))) \
        if mode == "rule" else None
    if broken == "order":
        name = draw(st.sampled_from(("submit_time", "end_time")))
        row[name] += draw(st.integers(1, 10)) * (1 if name == "submit_time" else -1)
        if row["submit_time"] <= row["start_time"] <= row["end_time"]:
            row["start_time"] = row["end_time"] + 1
    elif broken == "nodes":
        row["nodes"] = row["cores"] = 0
    elif broken == "cores":
        row["cores"] = row["nodes"] - 1
    elif broken == "su":
        row["local_su_charged"] = -draw(st.floats(1e-9, 1e6))
    odd = {"field": 1, "fields": 3}.get(mode, 0)
    for name in draw(st.lists(st.sampled_from(JOB_FIELDS), min_size=odd, max_size=odd)):
        row[name] = draw(st.sampled_from(_odd_values(fmt, _kind(name))))
    return row


def _csv_cell(value):
    if value is None or value is MISSING:
        return ""
    return repr(value) if type(value) is float else str(value)


@st.composite
def csv_files(draw):
    """The text of a CSV jobs file: its header may leave a field out, give
    one twice (the last copy holds the value) or reorder the fields; rows
    may be short or long, and blank lines may come between them."""
    header = list(JOB_FIELDS)
    if draw(st.booleans()):
        header = draw(st.permutations(header))
    dropped = draw(st.sampled_from((None, None, None) + JOB_FIELDS))
    if dropped is not None:
        header.remove(dropped)
    twice = draw(st.sampled_from((None, None) + JOB_FIELDS))
    if twice is not None and twice in header:
        header.insert(draw(st.integers(0, header.index(twice))), twice)
    terminator = draw(st.sampled_from(("\n", "\n", "\r\n")))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator=terminator)
    writer.writerow(header)
    for row in draw(st.lists(job_rows("csv"), min_size=1, max_size=8)):
        last = {name: i for i, name in enumerate(header)}
        cells = [_csv_cell(row[name]) if last[name] == i else "decoy"
                 for i, name in enumerate(header)]
        shape = draw(st.sampled_from(("whole",) * 12 + ("short", "long", "blank")))
        if shape == "short":
            cells = cells[:draw(st.integers(0, len(cells) - 1))]
        elif shape == "long":
            cells += ["extra"] * draw(st.integers(1, 3))
        elif shape == "blank":
            out.write(draw(st.sampled_from(("\n", "\r\n"))))
        writer.writerow(cells)
    if draw(st.booleans()):
        out.write(terminator)
    return out.getvalue()


@st.composite
def jsonl_files(draw):
    """The text of a JSONL jobs file, with blank, invalid and non-object
    lines among the rows."""
    lines = []
    for row in draw(st.lists(job_rows("jsonl"), min_size=1, max_size=8)):
        lines.append(json.dumps({k: v for k, v in row.items() if v is not MISSING}))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(
                ('{"job_id": "a"', "[1, 2]", '"text"', "7", "null", "", "  ", "{} x"))))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "")))


def _oracle_rows(path, fmt):
    """(row, mapping or SchemaError) of each data row, as csv.DictReader or
    the JSON-lines reader reads it."""
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            yield from enumerate(csv.DictReader(handle), start=1)
    else:
        with open(path, "r", encoding="utf-8") as handle:
            yield from ingest._json_objects(handle)


def _oracle(path, fmt, sink, parse_one=ingest._job_from_raw):
    """The record loop: each row of ``_oracle_rows`` passed to
    ``parse_one``."""
    records = []
    saw_rows = False
    for row, raw in _oracle_rows(path, fmt):
        saw_rows = True
        try:
            if isinstance(raw, SchemaError):
                raise raw
            records.append(parse_one(raw, row))
        except SchemaError as err:
            ingest._reject(err, sink)
    if saw_rows and not records:
        raise SchemaError(0, None, "no rows survived validation")
    return records


def _run(load, path, fmt, sink):
    try:
        return "loaded", load(path, fmt, sink)
    except SchemaError as err:
        return "raised", type(err).__name__, err.row, err.field, str(err)
    except csv.Error as err:
        return "raised", type(err).__name__, str(err)


def _column_state(column):
    if isinstance(column, Mapping):  # the resource map, by its names
        return ("resources", sorted(column))
    if isinstance(column, Codes):
        return ("codes", column.names, column.codes.dtype.str, column.codes.tolist())
    return (column.dtype.str, repr(column.tolist()))


def _table_state(make):
    try:
        table = make()
    except (OverflowError, ValueError) as err:
        return "raised", type(err).__name__
    return {f.name: _column_state(getattr(table, f.name)) for f in dataclasses.fields(table)}


def _dataset_state(jobs):
    dataset = dataset_of(jobs, [], RESOURCES)
    return (dataset.quality_flags, repr(dataset.jobs.records()),
            _table_state(lambda: dataset.job_table))


def _assert_agree(text, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"jobs.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        for got_sink, want_sink in ((None, None), ([], [])):
            got = _run(load_jobs, path, fmt, got_sink)
            want = _run(_oracle, path, fmt, want_sink)
            assert got_sink == want_sink
            assert got[0] == want[0]
            if got[0] == "raised":
                assert got == want
                continue
            jobs, records = got[1], want[1]
            assert isinstance(jobs, JobSequence)
            assert repr(jobs.records()) == repr(records)
        if got[0] == "loaded":
            assert _table_state(lambda: table_of(jobs, RESOURCES)) == _table_state(
                lambda: table_of(records, RESOURCES))
            assert _dataset_state(jobs) == _dataset_state(records)


# chunks of a few rows make every file cross chunk boundaries
CHUNKS = st.sampled_from((1, 2, 3, 2048))


@settings(max_examples=150, deadline=None)
@given(text=csv_files(), chunk_rows=CHUNKS)
def test_csv_column_path_agrees_with_the_record_oracle(text, chunk_rows):
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
            _assert_agree(text, "csv")
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("bad_row", [None, 1, 2])
def test_a_csv_field_over_the_size_limit_fails_where_the_oracle_fails(bad_row):
    """csv.Error comes at the oversize row (row 3), after the rows before
    it in the same chunk are judged: a malformed row among them raises its
    SchemaError without a sink, and is rejected with one."""
    rows = [dict(JOB_ROW, job_id=f"j{i}") for i in range(4)]
    if bad_row is not None:
        rows[bad_row - 1]["nodes"] = "x"
    rows[2]["user"] = "u" * (csv.field_size_limit() + 1)
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=list(JOB_FIELDS), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _assert_agree(out.getvalue(), "csv")


@settings(max_examples=150, deadline=None)
@given(text=jsonl_files(), chunk_rows=CHUNKS)
def test_jsonl_column_path_agrees_with_the_record_oracle(text, chunk_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
        _assert_agree(text, "jsonl")


ALLOCATION_HEADER = ("charge_number,resource,alloc_type,discipline,awarded_local_su,"
                     "used_local_su,award_date")
ALLOCATION_ROW = "TG-1,R,Startup,BIO,5,1,2015-01-01"
ALLOCATION_JSON = json.dumps(dict(zip(ALLOCATION_HEADER.split(","), ALLOCATION_ROW.split(","))))


@pytest.mark.parametrize("chunk_rows", (1, 2, 2048))
@pytest.mark.parametrize("fmt,text", [
    # a repeated header name means its last column
    ("csv", f"{ALLOCATION_HEADER},resource\n{ALLOCATION_ROW},S\n{ALLOCATION_ROW}\n"),
    # short, long and blank rows, and a broken rule
    ("csv", f"{ALLOCATION_HEADER}\n\n{ALLOCATION_ROW}\nTG-2,R,Startup\n\n\n"
            f"{ALLOCATION_ROW},extra,cells\nTG-3,R,Startup,BIO,-5,1,2015-01-01\n"),
    # a field over the size limit: csv.Error after the rows before it
    ("csv", f"{ALLOCATION_HEADER}\n{ALLOCATION_ROW}\nTG-2,R,Startup,BIO,5,1,2015-01-01\n"
            f"TG-3,R,Startup,{'x' * (FIELD_LIMIT + 1)},5,1,2015-01-01\n{ALLOCATION_ROW}\n"),
    ("csv", ""),
    ("csv", f"{ALLOCATION_HEADER}\n"),
    ("csv", "TG-2,R,Startup\n"),
    ("jsonl", f"{ALLOCATION_JSON}\n\n[1]\n{{bad\n{ALLOCATION_JSON}"),
    ("jsonl", "\n\n"),
])
def test_allocations_load_as_the_record_oracle_reads_them(tmp_path, fmt, text, chunk_rows):
    path = tmp_path / f"allocations.{fmt}"
    path.write_text(text, encoding="utf-8")
    oracle = partial(_oracle, parse_one=partial(ingest._from_raw, AllocationRecord))
    limit = csv.field_size_limit(FIELD_LIMIT)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_CHUNK_ROWS", chunk_rows)
            for got_sink, want_sink in ((None, None), ([], [])):
                assert (_run(load_allocations, path, fmt, got_sink)
                        == _run(oracle, path, fmt, want_sink))
                assert got_sink == want_sink
    finally:
        csv.field_size_limit(limit)


def _row_of(job):
    return {name: getattr(getattr(job, name), "value", getattr(job, name))
            for name in JOB_FIELDS}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_plain_rows_never_reach_the_oracle(tmp_path, monkeypatch, fmt):
    jobs = [make_job(job_id=f"j{i}", nodes=1 + i % 3, cores=16 * (1 + i % 3),
                     gateway_user="gw" if i % 4 == 0 else None,
                     state_of_origin="NY" if i % 2 else None) for i in range(50)]
    path = tmp_path / f"jobs.{fmt}"
    rows = [_row_of(job) for job in jobs]
    if fmt == "jsonl":
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    else:
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(JOB_FIELDS), lineterminator="\n")
            writer.writeheader()
            writer.writerows({k: _csv_cell(v) for k, v in row.items()} for row in rows)
    calls = []
    oracle = ingest._job_from_raw
    monkeypatch.setattr(ingest, "_job_from_raw",
                        lambda raw, row: calls.append(row) or oracle(raw, row))
    loaded = load_jobs(path, fmt)
    assert calls == []
    assert loaded.records() == jobs


def test_loaded_jobs_build_their_records_once(tmp_path, monkeypatch):
    path = tmp_path / "jobs.jsonl"
    path.write_text("".join(json.dumps(_row_of(make_job(job_id=f"j{i}"))) + "\n"
                            for i in range(5)))
    jobs = load_jobs(path)
    built = []
    post_init = ingest.JobRecord.__post_init__
    monkeypatch.setattr(ingest.JobRecord, "__post_init__",
                        lambda self: built.append(self.job_id) or post_init(self))
    assert len(jobs) == 5 and built == []
    assert table_of(jobs).job_id.tolist() == [f"j{i}" for i in range(5)]
    assert built == []
    assert [job.job_id for job in jobs.records()] == [f"j{i}" for i in range(5)]
    assert built == [f"j{i}" for i in range(5)]
    built.clear()
    assert [job.job_id for job in jobs.take(np.array([3, 1])).records()] == ["j3", "j1"]
    assert built == ["j3", "j1"]


def test_a_json_float_in_an_int_field_loads_as_the_oracle_reads_it(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text(json.dumps(dict(JOB_ROW, nodes=2.0, cores=32)) + "\n")
    (job,) = load_jobs(path).records()
    assert type(job.nodes) is int and job.nodes == 2
    assert table_of(load_jobs(path)).nodes.dtype == np.int64
    assert math.isclose(job.local_su_charged, 12.5)
