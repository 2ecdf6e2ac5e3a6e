"""Correctness checks on the outputs of one measured run.

Four checks, each mismatch failing the operation that produced the file:

1. ``verify_manifest`` passes (reported by the child process);
2. the output file set and the row count of every file match the reference
   for the workload and seed;
3. values match the reference: byte for byte where the SHA-256 agrees,
   otherwise column by column within ``REL_TOL`` (text columns exactly);
   generator-known facts (``truth.json``) are checked independently of any
   recorded run;
4. outputs are byte-identical to the first run of the same inputs in the
   same benchmark call.

References live in ``bench/reference/<workload>.json`` for the seeds listed
there (recorded at the commit that defined the benchmark); other seeds are
checked against the generator-known facts and by check 4 only.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# numeric columns may move by 1e-9 per value plus 1e-9 of the magnitudes
# involved, so a change in summation order passes and a wrong value does not
REL_TOL = 1e-9
MANIFEST = "manifest.json"


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _number(text):
    if isinstance(text, bool):
        return None
    if isinstance(text, (int, float)):
        return float(text)
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _summarize_column(cells: list):
    """[present, finite, sum, sum of magnitudes, min, max, position-weighted
    sum, position-weighted sum of magnitudes] when every non-empty cell is a
    number, else a short digest of the cells as text.  The weighted sums
    (weight: 1-based row position) catch values in the wrong row."""
    present = [(i, _number(c)) for i, c in enumerate(cells, 1) if c not in ("", None)]
    if present and all(n is not None for _, n in present):
        finite = [(i, n) for i, n in present if math.isfinite(n)]
        values = [n for _, n in finite]
        return [len(present), len(finite), math.fsum(values),
                math.fsum(abs(n) for n in values), min(values, default=0.0),
                max(values, default=0.0), math.fsum(i * n for i, n in finite),
                math.fsum(i * abs(n) for i, n in finite)]
    text = "\x1f".join("" if c is None else str(c) for c in cells)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _flatten(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}{key}.", out)
    elif isinstance(obj, list):
        out.setdefault(prefix.rstrip("."), []).append(json.dumps(obj, sort_keys=True))
    else:
        out.setdefault(prefix.rstrip("."), []).append(obj)


def digest_file(path: str) -> dict:
    """Row count, SHA-256 and per-column summaries of one output file."""
    name = os.path.basename(path)
    columns: dict[str, list] = {}
    if name.endswith(".csv"):
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            rows = 0
            for row in reader:
                rows += 1
                for key, cell in zip(header, row):
                    columns.setdefault(key, []).append(cell)
    elif name.endswith(".jsonl"):
        rows = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                rows += 1
                _flatten(json.loads(line), "", columns)
    else:
        rows = 1
        with open(path, "r", encoding="utf-8") as handle:
            _flatten(json.load(handle), "", columns)
    return {"rows": rows, "sha256": _sha256(path),
            "columns": {key: _summarize_column(cells) for key, cells in columns.items()}}


def digest_dir(outdir: str) -> dict:
    return {name: digest_file(os.path.join(outdir, name))
            for name in sorted(os.listdir(outdir))}


def compare_file(expected: dict, got: dict) -> list[str]:
    """Differences between two digests of the same file; empty when equal."""
    if expected["sha256"] == got["sha256"]:
        return []
    if expected["rows"] != got["rows"]:
        return [f"rows {got['rows']} != reference {expected['rows']}"]
    problems = []
    for key, exp in expected["columns"].items():
        col = got["columns"].get(key)
        if col is None:
            problems.append(f"column {key} missing")
        elif isinstance(exp, str) or isinstance(col, str):
            if exp != col:
                problems.append(f"column {key} differs")
        elif exp[:2] != col[:2]:
            problems.append(f"column {key}: empty or non-finite cells differ")
        else:
            # the sums may move by REL_TOL per value and of every value's
            # (weighted) magnitude; the extremes by REL_TOL of their own
            scales = {2: exp[3] + exp[1], 4: abs(exp[4]) + 1.0, 5: abs(exp[5]) + 1.0,
                      6: exp[7] + exp[1]}
            for i, stat in ((2, "sum"), (4, "min"), (5, "max"), (6, "weighted sum")):
                if abs(exp[i] - col[i]) > REL_TOL * scales[i]:
                    problems.append(f"column {key}: {stat} {col[i]!r} != {exp[i]!r}")
    for key in got["columns"]:
        if key not in expected["columns"]:
            problems.append(f"unexpected column {key}")
    return problems


# ---------------------------------------------------------------------------
# generator-known facts

def _read_csv(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _check_exit_codes(outdir: str, truth: dict) -> list[str]:
    rows = _read_csv(os.path.join(outdir, "exit_codes.csv"))
    expected = truth["exit_codes"]
    problems = []
    if sorted(r["resource"] for r in rows) != sorted(expected):
        problems.append("exit_codes.csv: resource set differs from the generated jobs")
    for row in rows:
        counts = expected.get(row["resource"], {})
        for status, cell in row.items():
            if status == "resource":
                continue
            want = sum(counts.values()) if status == "total" else counts.get(status, 0)
            if int(cell) != want:
                problems.append(f"exit_codes.csv: {row['resource']} {status} {cell} != {want}")
    return problems


def _check_status_rollup(outdir: str, truth: dict) -> list[str]:
    rows = _read_csv(os.path.join(outdir, "usage_nsf_user_status_jobs_quarter.csv"))
    got = {f"{r['period']}|{r['nsf_user_status']}": float(r["jobs"]) for r in rows}
    want = {key: float(n) for key, n in truth["jobs_by_quarter_status"].items()}
    if got != want:
        return ["usage_nsf_user_status_jobs_quarter.csv: job counts differ from the generated jobs"]
    return []


def _check_periodogram(outdir: str, truth: dict) -> list[str]:
    """Row count from the documented grid, and the strongest peak at one
    cycle per day, which the generator's submit rhythm puts there."""
    rows = _read_csv(os.path.join(outdir, "periodogram_all.csv"))
    first = math.floor(truth["submit_min"] / 3600)
    last = math.floor(truth["submit_max"] / 3600)
    span_days = (last - first) * 3600 / 86400.0
    df = 1.0 / (4 * span_days)
    n_freq = len(np.arange(1.0 / 730.0, 1.0 / 0.25 + df, df))
    problems = []
    if len(rows) != n_freq:
        problems.append(f"periodogram_all.csv: {len(rows)} rows, grid has {n_freq}")
    if rows:
        peak = max(rows, key=lambda r: float(r["power"]))
        if abs(float(peak["frequency_per_day"]) - 1.0) > 2 * df:
            problems.append(f"periodogram_all.csv: strongest peak at "
                            f"{peak['frequency_per_day']}/day, not 1/day")
    return problems


def _check_summaries(outdir: str, truth: dict) -> dict[str, list[str]]:
    """Per-job comparison of the summaries against generator truth."""
    problems: dict[str, list[str]] = {}
    got = {}
    with open(os.path.join(outdir, "summaries.jsonl"), "r", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            got[row["job_id"]] = row
    for job_id, want in truth["summaries"].items():
        row = got.pop(job_id, None)
        if row is None:
            problems[job_id] = ["no summary"]
            continue
        bad = []
        for key, value in want.items():
            have = row.get(key)
            if key == "flags":
                if sorted(have or []) != sorted(value):
                    bad.append("flags")
            elif isinstance(value, float) and isinstance(have, (int, float)):
                if abs(have - value) > REL_TOL * max(1.0, abs(value)):
                    bad.append(key)
            elif have != value:
                bad.append(key)
        if bad:
            problems[job_id] = bad
    for job_id in got:
        problems[job_id] = ["summary for a job without an archive"]
    return problems


# ---------------------------------------------------------------------------
# one run

def check_run(kind: str, outdir: str, child: dict, inputs_dir: str,
              entries: list, reference: dict | None, earlier: dict | None) -> dict:
    """Check one run; return attempted/failed counts, the digest and problems.

    ``entries`` lists, per spec entry, the files it writes (bundle runs);
    ``reference`` is the recorded digest for this seed, ``earlier`` the digest
    of the first run of these inputs in the same benchmark call.
    """
    with open(os.path.join(inputs_dir, "truth.json"), "r", encoding="utf-8") as handle:
        truth = json.load(handle)
    got = digest_dir(outdir) if os.path.isdir(outdir) else {}
    problems: dict[str, list[str]] = {}

    def note(name: str, text: str) -> None:
        problems.setdefault(name, []).append(text)

    for name, digest in got.items():
        # the manifest lists file digests, so only its owner files compare
        if reference is not None and name in reference and name != MANIFEST:
            for text in compare_file(reference[name], digest):
                note(name, text)
        if earlier is not None and name in earlier \
                and earlier[name]["sha256"] != digest["sha256"]:
            note(name, "not byte-identical to an earlier run of the same inputs")

    if kind == "bundle":
        expected = {MANIFEST} | {f for _, files in entries for f in files}
        for name in expected - set(got):
            note(name, "missing")
        for name in set(got) - expected:
            note(name, "unexpected file")
        if child.get("error"):
            note(MANIFEST, "run_report raised")
        elif not child.get("manifest_ok"):
            note(MANIFEST, "verify_manifest failed")
        if MANIFEST in got:
            with open(os.path.join(outdir, MANIFEST), "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
            for item in manifest.get("files", []):
                digest = got.get(item["name"])
                if digest is None or digest["sha256"] != item["sha256"] \
                        or digest["rows"] != item["rows"]:
                    note(item["name"], "disagrees with manifest.json")
        for name, check in (("exit_codes.csv", _check_exit_codes),
                            ("usage_nsf_user_status_jobs_quarter.csv", _check_status_rollup),
                            ("periodogram_all.csv", _check_periodogram)):
            if name in got:
                for text in check(outdir, truth):
                    note(name, text)
        failed_entries = [i for i, (_, files) in enumerate(entries)
                          if any(f in problems for f in files)]
        attempted = len(entries)
        failed = len(failed_entries)
        # a problem no entry owns (the manifest, a stray file) still fails one
        if failed == 0 and problems:
            failed = 1
    else:
        attempted = len(truth["summaries"])
        jobs = _check_summaries(outdir, truth) if "summaries.jsonl" in got else {
            job_id: ["no output"] for job_id in truth["summaries"]}
        for job_id, reason in child.get("skipped", {}).items():
            jobs.setdefault(job_id, []).append(f"skipped: {reason}")
        for job_id, bad in sorted(jobs.items()):
            note("summaries.jsonl", f"{job_id}: {', '.join(bad)}")
        failed = min(attempted, len(jobs) or (1 if problems else 0))
    return {"attempted": attempted, "failed": failed, "digest": got,
            "problems": problems}
