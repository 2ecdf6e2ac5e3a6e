"""``load_archives`` against a reference loader that parses every line with
``json.loads`` and checks every record field by field, and against a column
layout oracle that sorts the records with Python's ``sorted``.

The loader takes canonical perf and meminfo lines (``json.dumps`` of the
record, keys in the documented order) column by column and every other line
one record at a time; both paths must load the same columns in the same
order, and fail on the same line with the same error.  The reference loader
shares the loader's column builder; the oracle shares nothing with it.

A large file is read in byte ranges, all but the first by forked workers,
and read again in one pass if any range fails; with the range minimum and
the CPU count patched, small files take that path too, and must load what
one pass loads, fail as one pass fails, and leave no child process behind.
"""
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
import weakref

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
    except UnicodeDecodeError:
        return ("decode",)


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


# a line that is not UTF-8: a decode error wherever it is read
NOT_UTF8 = b'{"type": "perf", "job_id": "j\xff"}\n'


@settings(max_examples=300, deadline=None)
@given(lines=archive_lines(), chunk_bytes=st.sampled_from((1, 300, 1 << 16)),
       cpus=st.integers(1, 3), not_utf8=st.sampled_from((False, False, False, True)),
       at=st.integers(0, 40))
def test_both_paths_load_what_the_reference_loader_loads(lines, chunk_bytes, cpus, not_utf8,
                                                          at):
    """In one pass (one CPU) and in up to three byte ranges; a file with a
    line that is not UTF-8 (inserted at line ``at``) loads in ranges as it
    does in one pass."""
    data = [line.encode("utf-8") for line in lines]
    if not_utf8:
        data.insert(min(at, len(data)), NOT_UTF8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "archive.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"".join(data))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(archives, "_CHUNK_BYTES", chunk_bytes)
            patch.setattr(archives, "_RANGE_MIN_BYTES", 1)
            patch.setattr(archives, "_usable_cpus", lambda: cpus)
            got = _outcome(load_archives, path)
            if not_utf8:
                patch.setattr(archives, "_usable_cpus", lambda: 1)
                expected = _outcome(load_archives, path)
            else:
                expected = _outcome(reference_load_archives, path)
        assert got == expected


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


# ---------------------------------------------------------------------------
# byte ranges


def _record(**fields):
    return json.dumps(fields) + "\n"


def _perf_at(job_id="j1", node="n1", time=5, metric="cpu_user_ticks", value=1,
             tag="periodic"):
    return _record(type="perf", job_id=job_id, node=node, time=time, metric=metric,
                   kind="counter", value=value, tag=tag)


def _mem_at(job_id="j1", node="n1", time=5, total=8):
    return _record(type="meminfo", job_id=job_id, node=node, time=time,
                   numa=[dict(zip(NUMA_FIELDS, (total, 4, 1, 1)))] * 2)


def _write_ranges(tmp_path, ranges, name="archive.jsonl"):
    """Write the lines of each range in turn: the file and the byte offsets
    of the range boundaries."""
    data = [b"".join(line.encode("utf-8") if isinstance(line, str) else line
                     for line in lines) for lines in ranges]
    path = tmp_path / name
    path.write_bytes(b"".join(data))
    cuts = [0]
    for part in data:
        cuts.append(cuts[-1] + len(part))
    return path, cuts


def _load(path, cpus=3, cuts=None):
    """``load_archives`` with a 1-byte range minimum over ``cpus`` CPUs (at
    ``cuts``, when given), and the ranges the caller read itself.  Checks
    that a load never holds two readers: the reader of a failed ranged
    attempt is gone before the one pass starts."""
    read, readers = [], []
    real = archives._read_range

    def counted(reader, fd, start, end):
        read.append((start, end))
        assert all(seen() is None or seen() is reader for seen in readers)
        readers.append(weakref.ref(reader))
        return real(reader, fd, start, end)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(archives, "_RANGE_MIN_BYTES", 1)
        patch.setattr(archives, "_usable_cpus", lambda: cpus)
        if cuts is not None:
            patch.setattr(archives, "_cuts", lambda fd, size: cuts)
        patch.setattr(archives, "_read_range", counted)
        return load_archives(path), read


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _check_cut(tmp_path, ranges):
    """Load the ranges cut where they meet, check that the outcome is one
    pass's and that no child is left: the outcome, and the ranges the
    caller read itself (None for a file that fails to load)."""
    path, cuts = _write_ranges(tmp_path, ranges)
    assert threading.active_count() == 1
    read = None

    def load(path):
        nonlocal read
        got, read = _load(path, cuts=cuts)
        return got

    got = _outcome(load, path)
    _no_child_left()
    assert got == _outcome(_one_pass, path)
    return got, read


def _one_pass(path):
    return _load(path, cpus=1)[0]


def _columns_of(outcome):
    """Each job's columns by name from an ``_outcome``."""
    return {job_id: {name: np.frombuffer(data, dtype=dtype).reshape(shape)
                     for name, dtype, shape, data in columns}
            for job_id, *_, columns in outcome[1]}


def test_equal_keys_across_cuts_keep_file_order(tmp_path):
    got, read = _check_cut(tmp_path, [
        [_perf_at(value=1), _mem_at(total=10), _perf_at(job_id="j2")],
        [_perf_at(value=2), _mem_at(total=20)],
        [_perf_at(job_id="j2"), _perf_at(value=3).replace(", ", ",", 1), _mem_at(total=30)]])
    assert [start for start, _ in read] == [0]
    loaded = _columns_of(got)
    assert loaded["j1"]["value"].tolist() == [1.0, 2.0, 3.0]
    assert loaded["j1"]["numa"][:, 0].tolist() == [10, 10, 20, 20, 30, 30]


def test_a_metric_first_seen_in_a_later_range_comes_after(tmp_path):
    got, read = _check_cut(tmp_path, [
        [_perf_at(metric="b")],
        [_perf_at(metric="c", job_id="j2"), _perf_at(metric="b", job_id="j2")],
        [_perf_at(metric="a", time=1), _perf_at(metric="c")]])
    assert len(read) == 1
    assert {job[3] for job in got[1]} == {("b", "c", "a")}
    assert _columns_of(got)["j1"]["metric"].tolist() == [0, 1, 2]


def test_job_and_launcher_records_across_ranges_last_wins(tmp_path):
    got, read = _check_cut(tmp_path, [
        [_record(type="job", job_id="j1", nodes=["a"]),
         _record(type="launcher", job_id="j1", exe="x", n_processes=2)],
        [_record(type="job", job_id="j1", nodes=["b", "c"]),
         _record(type="launcher", job_id="j2", exe=None)],
        [_record(type="launcher", job_id="j1", exe="y"), _perf_at(job_id="j3")]])
    assert len(read) == 1
    jobs = {job[0]: job for job in got[1]}
    assert jobs["j1"][1] == ("b", "c")
    assert jobs["j1"][5] == archives.LauncherInfo("y", 1, 1)
    assert jobs["j2"][5] == archives.LauncherInfo(None, 1, 1)


def test_process_records_on_both_sides_of_a_cut_keep_their_order(tmp_path):
    got, read = _check_cut(tmp_path, [
        [_record(type="process", job_id="j1", process_name="p1", unique_pid_count=1)],
        [_record(type="process", job_id="j1", process_name="p2", unique_pid_count=2),
         _record(type="process", job_id="j1", process_name="p1", unique_pid_count=3)],
        [_record(type="process", job_id="j2", process_name="q", unique_pid_count=1)]])
    assert len(read) == 1
    jobs = {job[0]: job for job in got[1]}
    assert [(p.process_name, p.unique_pid_count) for p in jobs["j1"][6]] == [
        ("p1", 1), ("p2", 2), ("p1", 3)]


@pytest.mark.parametrize("bad", [False, True])
def test_line_ends_and_blank_lines_at_cuts_count_as_in_one_pass(tmp_path, bad):
    crlf = _perf_at(value=1).replace("\n", "\r\n")
    lone = _perf_at(value=2).replace("\n", "\r")
    last = _perf_at(value=3).replace('"counter"', '"gauge"') if bad else _perf_at(value=3)
    got, read = _check_cut(tmp_path, [
        [crlf, lone, crlf],
        ["\n", lone, "\r\n", crlf],
        ["  \n", lone + crlf, last]])
    if bad:  # lines: 3 in range 0, 4 in range 1, then a blank, two and the bad one
        assert got[:3] == ("rejected", 11, "kind")
    else:
        assert len(read) == 1
        assert _columns_of(got)["j1"]["value"].tolist() == [1, 2, 1, 2, 1, 2, 1, 3]


def test_a_bad_line_in_a_later_range_names_its_line(tmp_path):
    bad = _perf_at(time=7).replace('"time": 7', '"time": "7x"')
    got, read = _check_cut(tmp_path, [
        [_perf_at(), _perf_at(), "\n"],
        [_perf_at(), _perf_at(job_id="j2")],
        [_perf_at(), bad, _perf_at()]])
    assert got == ("rejected", 7, "time", "row 7: bad or missing field 'time'")


def test_the_first_of_bad_lines_in_two_ranges_wins(tmp_path):
    got, read = _check_cut(tmp_path, [
        [_perf_at(), _perf_at()],
        [_perf_at(), _perf_at().replace('"counter"', '"gauge"')],
        [_record(type="bogus", job_id="j1")]])
    assert got[:3] == ("rejected", 4, "kind")


def test_invalid_utf8_in_a_later_range_is_a_decode_error(tmp_path):
    got, _ = _check_cut(tmp_path, [
        [_perf_at(), _perf_at()],
        [_perf_at(node="né")],
        [_perf_at(), NOT_UTF8, _perf_at()]])
    assert got == ("decode",)


def test_a_bad_record_before_a_cut_loses_to_a_decode_error_after_it(tmp_path):
    """One pass decodes a chunk of lines before it checks them, so in a
    small file the line that is not UTF-8 is found first, even after the
    cut; the ranged load, whose first range fails on the bad record, reads
    the file again in one pass and raises the same."""
    ranges = [[_perf_at(), _perf_at().replace('"counter"', '"gauge"')],
              [NOT_UTF8, _perf_at()]]
    assert sum(len(line) for lines in ranges for line in lines) < 8 << 10
    got, _ = _check_cut(tmp_path, ranges)
    assert got == ("decode",)


def test_cuts_follow_a_newline_one_range_per_cpu(tmp_path):
    lines = [_perf_at(time=t, value=t * 10**(t % 7)) for t in range(50)]
    path = tmp_path / "archive.jsonl"
    path.write_text("".join(lines))
    data = path.read_bytes()
    ends = {0, len(data)} | {i + 1 for i, byte in enumerate(data) if byte == ord("\n")}
    with open(path, "rb") as handle, pytest.MonkeyPatch.context() as patch:
        fd = handle.fileno()
        # the real minimum: a small file is one range
        assert archives._cuts(fd, len(data)) == [0, len(data)]
        patch.setattr(archives, "_RANGE_MIN_BYTES", 1)
        for cpus in (1, 2, 3, 7):
            patch.setattr(archives, "_usable_cpus", lambda cpus=cpus: cpus)
            cuts = archives._cuts(fd, len(data))
            assert len(cuts) == cpus + 1 and cuts == sorted(set(cuts))
            assert set(cuts) <= ends
        # no fork while another Python thread runs
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert archives._cuts(fd, len(data)) == [0, len(data)]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def test_no_child_outlives_a_load(tmp_path):
    good = [[_perf_at(time=t, job_id=f"j{t % 3}") for t in range(20)] for _ in range(3)]
    bad_line = _perf_at().replace('"counter"', '"gauge"')
    path, cuts = _write_ranges(tmp_path, good)
    expected = _state(_one_pass(path))
    assert _state(_load(path, cuts=cuts)[0]) == expected
    _no_child_left()
    for where in (0, 2):
        ranges = [list(lines) for lines in good]
        ranges[where].insert(3, bad_line)
        bad_path, bad_cuts = _write_ranges(tmp_path, ranges, f"bad{where}.jsonl")
        with pytest.raises(SchemaError) as err:
            _load(bad_path, cuts=bad_cuts)
        assert err.value.row == 20 * where + 4
        _no_child_left()

    # a worker that dies mid-stream, after its first job: the caller, which
    # read range 0, reads the whole file again, and the result is one pass's
    real_send = archives._ArchiveReader.send

    def dying_send(self, put):
        sent = []

        def put_two(message):
            if len(sent) == 2:
                os._exit(1)
            sent.append(message)
            put(message)

        real_send(self, put_two)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(archives._ArchiveReader, "send", dying_send)
        got, read = _load(path, cuts=cuts)
    assert _state(got) == expected
    assert read == [(0, cuts[1]), (0, cuts[-1])]
    _no_child_left()


def test_a_ranged_load_warns_nothing(tmp_path):
    path, cuts = _write_ranges(tmp_path, [[_perf_at()], [_perf_at(time=6)]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _load(path, cuts=cuts)
    assert caught == []
    _no_child_left()


def test_a_load_that_cannot_fork_reads_in_one_pass(tmp_path):
    path, cuts = _write_ranges(tmp_path, [[_perf_at(time=t)] for t in range(3)])

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "fork", no_fork)
        got, read = _load(path, cuts=cuts)
    assert _state(got) == _state(_one_pass(path))
    assert read == [(0, cuts[-1])]
    _no_child_left()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to name a pipe by")
def test_a_pipe_is_an_error_not_an_empty_archive():
    """The loader reads by offset, so a file it cannot seek is an OSError."""
    read_end, write_end = os.pipe()
    os.write(write_end, _perf_at().encode())
    os.close(write_end)
    try:
        with pytest.raises(OSError):
            load_archives(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


def test_workers_send_plain_data(tmp_path):
    path, _ = _write_ranges(tmp_path, [[
        _perf_at(), _mem_at(), _perf_at(job_id="j2", node="n2"),
        _record(type="job", job_id="j1", nodes=["n1"]),
        _record(type="launcher", job_id="j1", exe="a.out"),
        _record(type="process", job_id="j1", process_name="p", unique_pid_count=2)]])
    reader = archives._ArchiveReader()
    with open(path, "rb") as handle:
        archives._read_range(reader, handle.fileno(), 0, os.path.getsize(path))
    messages = []
    reader.send(messages.append)

    def plain(value):
        if type(value) is tuple:
            return all(map(plain, value))
        return value is None or type(value) in (str, bytes, int)

    assert len(messages) == 5 and all(map(plain, messages))


def test_workers_leave_by_os_exit(tmp_path):
    """A worker runs none of the caller's exit handlers and writes none of
    its buffered output."""
    path, _ = _write_ranges(tmp_path, [[_perf_at(time=t)] for t in range(3)])
    script = (
        "import atexit, sys\n"
        "from hpcwl import archives\n"
        "archives._RANGE_MIN_BYTES = 1\n"
        "archives._usable_cpus = lambda: 3\n"
        "atexit.register(sys.stderr.write, 'exit handler\\n')\n"
        "sys.stdout.write('unflushed')\n"
        f"archives.load_archives({str(path)!r})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(archives.__file__)), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "unflushed", "exit handler\n")
