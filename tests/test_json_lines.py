"""The JSON-lines reader of the job, allocation and archive loaders against
``json.loads`` of each line, the reference it must match."""
import json
import json.scanner

import pytest

from test_ingest import JOB_ROW
from hpcwl import archives, ingest
from hpcwl.errors import SchemaError
from hpcwl.ingest import JobSequence, load_jobs
from hpcwl.archives import load_archives

PERF = {"type": "perf", "job_id": "j1", "node": "n1", "time": 1000,
        "metric": "cpu_user_ticks", "kind": "counter", "value": 5, "tag": "periodic"}

# (loader, its records, the numeric field of the second record)
FILES = {
    "jobs": (load_jobs, [JOB_ROW, dict(JOB_ROW, job_id="a-2", user="bob"),
                         dict(JOB_ROW, job_id="a-3", nodes=1, cores=1)],
             "local_su_charged"),
    "archives": (load_archives, [
        {"type": "job", "job_id": "j1", "nodes": ["n1", "n2"]},
        PERF,
        {"type": "meminfo", "job_id": "j1", "node": "n2", "time": 1000,
         "numa": [{"mem_total": 8, "mem_free": 4, "file_pages": 1, "slab": 1}]},
        dict(PERF, node="n2", time=1600, value=7.5),
        {"type": "process", "job_id": "j1", "process_name": "namd2",
         "unique_pid_count": 2},
    ], "value"),
}


def _with_second(texts, text):
    return [texts[0], text] + texts[2:]


def _escaped(texts, records):
    # an escaped key, a non-ASCII value and a surrogate pair
    out = [json.dumps(dict(record, note="café \U0001F600"), ensure_ascii=True)
           for record in records]
    return [line.replace('"job_id"', '"\\u006aob_id"') for line in out]


# each case turns the records' JSON texts into lines (str, newline included)
CASES = {
    "clean": lambda texts, records, field: [t + "\n" for t in texts],
    "padded": lambda texts, records, field: [" \t" + t + "  \t\n" for t in texts],
    "crlf": lambda texts, records, field: [t + "\r\n" for t in texts],
    "bom": lambda texts, records, field: ["\ufeff" + texts[0] + "\n"]
    + [t + "\n" for t in texts[1:]],
    "no_final_newline": lambda texts, records, field: [t + "\n" for t in texts[:-1]]
    + [texts[-1]],
    "trailing_garbage": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, texts[1] + " x")],
    "two_values": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, texts[1] + texts[1])],
    "nan_value": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, json.dumps(dict(records[1], **{field: float("nan")})))],
    "infinity_elsewhere": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, json.dumps(dict(records[1], extra=-float("inf"))))],
    "duplicate_keys": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, f'{{"{field}": -1, ' + texts[1][1:])],
    "escapes": lambda texts, records, field: [t + "\n" for t in _escaped(texts, records)],
    "split_record": lambda texts, records, field: [
        t + "\n" for t in _with_second(texts, texts[1].replace(", ", ",\n", 1))],
    "blank_lines": lambda texts, records, field: [texts[0] + "\n", "\n", " \t\n", "\x0c\n"]
    + [t + "\n" for t in texts[1:]] + ["  "],
}


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(lines))
    return path


def _loads_line(line, row, scan):
    """The reference per-line reader: ``json.loads`` of the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        if not line.strip():
            return ingest._BLANK
        raise SchemaError(row, None, f"row {row}: invalid JSON") from None


def _state(loaded):
    """What a loader returned, as text: records, or archives' columns."""
    if not isinstance(loaded, dict):
        return repr(loaded.records() if isinstance(loaded, JobSequence) else loaded)
    out = []
    for job_id, archive in sorted(loaded.items()):
        samples, mem = archive.samples, archive.meminfo
        out.append((job_id, archive.nodes, samples.nodes, samples.metrics,
                    [getattr(samples, name).tolist()
                     for name in ("node", "time", "metric", "kind", "value", "tag")],
                    mem.nodes, [getattr(mem, name).tolist()
                                for name in ("node", "time", "numa_bounds", "numa")],
                    archive.launcher, archive.processes))
    return repr(out)


def _outcome(load, path):
    try:
        return "loaded", _state(load(path))
    except SchemaError as err:
        return "rejected", type(err).__name__, err.row, err.field, str(err)


def _objects(path):
    """What the job loaders' reader yields for a file, as text."""
    with open(path, "r", encoding="utf-8") as handle:
        return repr(list(ingest._json_objects(handle)))


@pytest.mark.parametrize("scanner", ["c", "absent"])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("kind", sorted(FILES))
def test_reader_matches_json_loads_of_each_line(tmp_path, monkeypatch, kind, case, scanner):
    load, records, field = FILES[kind]
    texts = [json.dumps(record) for record in records]
    path = _write(tmp_path / f"{kind}.jsonl", CASES[case](texts, records, field))
    if scanner == "absent":
        monkeypatch.setattr(json.scanner, "c_make_scanner", None)
    got_rows = _objects(path)
    got = _outcome(load, path)
    monkeypatch.setattr(ingest, "_json_line", _loads_line)
    monkeypatch.setattr(archives, "_json_line", _loads_line)
    assert got_rows == _objects(path)
    assert got == _outcome(load, path)
    if case == "clean":
        assert got[0] == "loaded"


def _counting_loads(monkeypatch):
    calls = []
    loads = json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


@pytest.mark.parametrize("kind", sorted(FILES))
def test_clean_lines_never_fall_back_to_json_loads(tmp_path, monkeypatch, kind):
    load, records, _ = FILES[kind]
    clean = _write(tmp_path / "clean.jsonl",
                   [json.dumps(record) + "\n" for record in records * 50])
    padded = _write(tmp_path / "padded.jsonl",
                    [json.dumps(record) + "\n" for record in records[:-1]]
                    + [" " + json.dumps(records[-1]) + "\n"])
    calls = _counting_loads(monkeypatch)
    load(clean)
    assert len(calls) == 0
    load(padded)  # the counter does see a fallback
    assert len(calls) == 1
