"""``load_archives`` against a reference loader that parses every line with
``json.loads`` and checks every record field by field, and against a column
layout oracle that sorts the records with Python's ``sorted``.

The loader takes canonical perf and meminfo lines (``json.dumps`` of the
record, keys in the documented order) column by column and every other line
one record at a time; both paths must load the same columns in the same
order, and fail on the same line with the same error.  The reference loader
shares the loader's column builder; the oracle shares nothing with it.
"""
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpcwl import archives
from hpcwl.errors import SchemaError
from hpcwl.archives import SampleKind, SampleTag, load_archives


def reference_load_archives(path):
    """``json.loads`` of each line, then ``_perf_record``,
    ``_meminfo_record`` or ``_other_record`` on each record."""
    reader = archives._ArchiveReader()
    with open(path, "r", encoding="utf-8") as handle:
        for row, line in enumerate(handle, start=1):
            try:
                raw = json.loads(line)
            except json.JSONDecodeError:
                if not line.strip():
                    continue
                raise SchemaError(row, None, f"row {row}: invalid JSON") from None
            kind = raw.get("type") if type(raw) is dict else None
            if kind == "perf":
                builder, fields = archives._perf_record(raw, row, reader.builders,
                                                        reader.metric_codes)
                builder.add_perf(*fields)
            elif kind == "meminfo":
                builder, fields = archives._meminfo_record(raw, row, reader.builders)
                builder.add_meminfo(reader.numa, *fields)
            else:
                archives._other_record(raw, row, reader.nodes, reader.launcher,
                                       reader.processes)
    return reader.archives()


def _state(archives):
    """Every column of every archive, bit for bit, and the name tables."""
    out = []
    for job_id, archive in archives.items():
        samples, mem = archive.samples, archive.meminfo
        out.append((job_id, archive.nodes, samples.nodes, samples.metrics, mem.nodes,
                    archive.launcher, archive.processes,
                    [(name, column.dtype.str, column.shape, column.tobytes())
                     for name, column in (
                        ("node", samples.node), ("time", samples.time),
                        ("metric", samples.metric), ("kind", samples.kind),
                        ("value", samples.value), ("tag", samples.tag),
                        ("mem_node", mem.node), ("mem_time", mem.time),
                        ("numa_bounds", mem.numa_bounds), ("numa", mem.numa))]))
    return out


def _outcome(load, path):
    try:
        return "loaded", _state(load(path))
    except SchemaError as err:
        return "rejected", err.row, err.field, str(err)


# names the bulk path takes, and names it leaves to the per-record path:
# json.dumps escapes a quote, a backslash, a tab and (by default) non-ASCII;
# plain names and numbers come up most, so that the bulk path takes many
# lines and records of equal keys are common
NAMES = st.sampled_from(("n1",) * 8 + ("n2", 'say "hi"', "back\\slash", "tab\there",
                                        "café", "节点"))
METRICS = st.sampled_from(("cpu_user_ticks",) * 4 + ("lustre_rx_bytes", 'm"q', "métrique"))
# 15 digits fit the bulk pattern, 16 do not
INTEGERS = st.sampled_from((7,) * 6 + (0, 600, 10**15 - 1, -(10**15 - 1), 10**15, 2**53,
                                       -2**53))
VALUES = st.one_of(
    st.sampled_from((5, 7, 0.5)),
    st.sampled_from((0, 0.0, -0.0, 0.1, 10**15 - 1, 123456789012345.67, 10**15, 2**53,
                     1e-7, 1e20)),
    st.floats(0, 1e17, allow_nan=False, allow_infinity=False))


def _respell(text, record, how):
    """The record's line in one of the spellings the bulk path leaves to
    the per-record path (or canonical)."""
    if how == "canonical":
        return text
    if how == "reversed":
        return json.dumps(dict(reversed(list(record.items()))))
    if how == "compact":
        return json.dumps(record, separators=(",", ":"))
    if how == "raw_unicode":
        return json.dumps(record, ensure_ascii=False)
    if how == "digit_time" and "time" in record:
        return text.replace(f'"time": {record["time"]}', f'"time": "{record["time"]}"', 1)
    return text.replace('"time": 0,', '"time": -0,', 1)


@st.composite
def archive_lines(draw, valid=False):
    """Lines of a small archive whose records of equal (job, node, metric,
    time) keys are spelled both ways, interleaved; with ``valid``, only
    lines the loader accepts."""
    lines = []
    for _ in range(draw(st.integers(1, 40))):
        job_id = draw(st.sampled_from(("j1", "j2")))
        kind = draw(st.sampled_from(("perf", "perf", "perf", "meminfo", "job")))
        if kind == "job":
            record = {"type": "job", "job_id": job_id,
                      "nodes": draw(st.lists(NAMES, max_size=3, unique=True))}
        elif kind == "perf":
            record = {"type": "perf", "job_id": job_id, "node": draw(NAMES),
                      "time": draw(INTEGERS), "metric": draw(METRICS),
                      "kind": draw(st.sampled_from(("counter", "instantaneous"))),
                      "value": draw(VALUES),
                      "tag": draw(st.sampled_from(("periodic", "job_prolog", "job_epilog")))}
            if record["tag"] == "periodic" and draw(st.booleans()):
                del record["tag"]
        else:
            record = {"type": "meminfo", "job_id": job_id, "node": draw(NAMES),
                      "time": draw(INTEGERS),
                      "numa": [dict(zip(("mem_total", "mem_free", "file_pages", "slab"),
                                        draw(st.lists(INTEGERS, min_size=4, max_size=4))))
                               for _ in range(draw(st.integers(0, 2)))]}
        how = draw(st.sampled_from(("canonical",) * 6 + (
            "reversed", "compact", "raw_unicode", "negative_zero")
            + (() if valid else ("digit_time",))))
        lines.append(_respell(json.dumps(record), record, how) + "\n")
    if not valid and draw(st.integers(0, 9)) == 0:  # now and then a time out of range
        record = {"type": "perf", "job_id": "j1", "node": "n1", "time": 2**53 + 1,
                  "metric": "cpu_user_ticks", "kind": "counter", "value": 0, "tag": "periodic"}
        lines.insert(draw(st.integers(0, len(lines))), json.dumps(record) + "\n")
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=archive_lines(), chunk_bytes=st.sampled_from((1, 300, 1 << 16)))
def test_both_paths_load_what_the_reference_loader_loads(lines, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archives, "_CHUNK_BYTES", chunk_bytes)
            got = _outcome(load_archives, path)
        assert got == _outcome(reference_load_archives, path)


NUMA_FIELDS = ("mem_total", "mem_free", "file_pages", "slab")
KINDS = [kind.value for kind in SampleKind]
TAGS = [tag.value for tag in SampleTag]


def oracle_columns(path):
    """``_state`` of the archives of a file of job, perf and meminfo records
    that the loader accepts, from ``json.loads`` of each line and Python's
    stable ``sorted``:

    - a job's node table is the sorted union of its perf and meminfo node
      names, and the metric table is the file's metric names in order of
      first appearance;
    - perf samples are ordered by (node, metric, time) and meminfo samples
      by (node, time), records of equal keys in file order;
    - codes and times are int64, kind and tag int8, values float64.
    """
    nodes, perf, mem, metrics = {}, {}, {}, {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            job_id = raw["job_id"]
            if raw["type"] == "job":
                nodes[job_id] = tuple(raw["nodes"])
            elif raw["type"] == "perf":
                metrics.setdefault(raw["metric"], len(metrics))
                perf.setdefault(job_id, []).append(raw)
            else:
                mem.setdefault(job_id, []).append(raw)
    out = []
    for job_id in sorted(set(nodes) | set(perf) | set(mem)):
        table = tuple(sorted({r["node"] for r in perf.get(job_id, ())}
                             | {r["node"] for r in mem.get(job_id, ())}))
        rank = {name: code for code, name in enumerate(table)}
        p = sorted(perf.get(job_id, ()),
                   key=lambda r: (rank[r["node"]], metrics[r["metric"]], r["time"]))
        m = sorted(mem.get(job_id, ()), key=lambda r: (rank[r["node"]], r["time"]))
        columns = [
            ("node", np.array([rank[r["node"]] for r in p], dtype=np.int64)),
            ("time", np.array([r["time"] for r in p], dtype=np.int64)),
            ("metric", np.array([metrics[r["metric"]] for r in p], dtype=np.int64)),
            ("kind", np.array([KINDS.index(r["kind"]) for r in p], dtype=np.int8)),
            ("value", np.array([float(r["value"]) for r in p], dtype=np.float64)),
            ("tag", np.array([TAGS.index(r.get("tag", "periodic")) for r in p],
                             dtype=np.int8)),
            ("mem_node", np.array([rank[r["node"]] for r in m], dtype=np.int64)),
            ("mem_time", np.array([r["time"] for r in m], dtype=np.int64)),
            ("numa_bounds", np.cumsum([0] + [len(r["numa"]) for r in m], dtype=np.int64)),
            ("numa", np.array([[part[name] for name in NUMA_FIELDS]
                               for r in m for part in r["numa"]],
                              dtype=np.int64).reshape(-1, len(NUMA_FIELDS)))]
        out.append((job_id, nodes.get(job_id, ()), table, tuple(metrics), table, None, (),
                    [(name, c.dtype.str, c.shape, c.tobytes()) for name, c in columns]))
    return out


@settings(max_examples=200, deadline=None)
@given(lines=archive_lines(valid=True), chunk_bytes=st.sampled_from((1, 300, 1 << 16)))
def test_loaded_columns_match_the_sorted_oracle(lines, chunk_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("".join(lines))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archives, "_CHUNK_BYTES", chunk_bytes)
            got = _state(load_archives(path))
        assert got == oracle_columns(path)


def _perf(k):
    return json.dumps({"type": "perf", "job_id": f"j{k % 3}", "node": f"n{k % 5}",
                       "time": 1000 + k, "metric": "cpu_user_ticks", "kind": "counter",
                       "value": k, "tag": "periodic"}) + "\n"


def test_a_malformed_record_past_the_first_chunk_names_its_line(tmp_path):
    bad = _perf(0).replace('"counter"', '"gauge"')
    lines = [_perf(k) for k in range(4_998)] + ["\n", bad] + [_perf(k) for k in range(50)]
    assert sum(map(len, lines[:4_999])) > 2 * archives._CHUNK_BYTES
    path = tmp_path / "archive.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert (err.value.row, err.value.field) == (5_000, "kind")
    assert str(err.value).startswith("row 5000: ")


@pytest.mark.parametrize("bad", [
    _perf(1).replace('"time": 1001', '"time": 01001'),
    _perf(1).replace('"value": 1', '"value": 01'),
    _perf(1).replace('"node": "n1"', '"node": "n\t1"'),
    _perf(1).replace('"metric": "cpu_user_ticks"', '"metric": "cpu\x01ticks"'),
    json.dumps({"type": "meminfo", "job_id": "j1", "node": "n1", "time": 5,
                "numa": [{"mem_total": 8, "mem_free": 4, "file_pages": 1, "slab": 1}]}
               ).replace('"slab": 1', '"slab": 00') + "\n",
])
def test_canonical_looking_lines_that_are_not_json_are_invalid_json(tmp_path, bad):
    path = tmp_path / "archive.jsonl"
    path.write_text(_perf(0) + bad + _perf(2))
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert (err.value.row, err.value.field, str(err.value)) == (2, None, "row 2: invalid JSON")
