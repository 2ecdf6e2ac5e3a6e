"""The README's library example runs as written, on small input files."""
import ast
import dataclasses
import json
import re
from datetime import date
from enum import Enum
from pathlib import Path

from hpcwl import synth

README = Path(__file__).resolve().parents[1] / "README.md"


def _example(heading: str) -> str:
    """The first python block after ``heading`` in the README."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _write_jsonl(path, records):
    def plain(value):
        if isinstance(value, Enum):
            return value.value
        return value.isoformat() if isinstance(value, date) else value

    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            row = {f.name: plain(getattr(record, f.name)) for f in dataclasses.fields(record)}
            handle.write(json.dumps(row) + "\n")


def test_library_use_example_runs(tmp_path, monkeypatch, capsys):
    dataset = synth.make_synthetic_dataset(seed=4, n_jobs=200).dataset
    _write_jsonl(tmp_path / "jobs.jsonl", dataset.jobs.records())
    _write_jsonl(tmp_path / "allocs.jsonl", dataset.allocations)
    monkeypatch.chdir(tmp_path)
    exec(compile(_example("## Library use"), str(README), "exec"), {})
    ratio, rows = capsys.readouterr().out.splitlines()
    assert re.fullmatch("[0-9]+:[0-9]+", ratio)
    assert ast.literal_eval(rows)  # (year, parent science, XD SU, share) rows
