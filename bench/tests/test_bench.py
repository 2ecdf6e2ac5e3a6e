"""Tests of the benchmark itself: generator, correctness check and tracer.

They run the workloads at a few thousand jobs, in process, and take a few
seconds.  Run with ``PYTHONPATH=src python -m pytest bench/tests``.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import child  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

# the bundle without the periodogram, whose cost does not shrink with the job count
SMALL_BUNDLE = "jobs_25k"
SMALL_JOBS = 2000
SEED = 424242


def _file_digests(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def _entries(workload: str) -> list:
    with open(os.path.join(BENCH, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        return [(name, files) for name, _, files in json.load(fh)["entries"]]


def _run(tmp_path, workload: str, inputs: str, name: str, trace: bool = False) -> tuple:
    out = str(tmp_path / name)
    result = str(tmp_path / f"{name}.json")
    argv = ["--kind", gen.WORKLOADS[workload]["kind"], "--inputs", inputs,
            "--out", out, "--result", result]
    if trace:
        argv += ["--trace", str(tmp_path / f"{name}.spans.json")]
    assert child.main(argv) == 0
    with open(result, encoding="utf-8") as handle:
        return out, json.load(handle)


@pytest.fixture(scope="module")
def bundle_inputs(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("bundle_inputs"))
    gen.generate(SMALL_BUNDLE, SEED, path, n_jobs=SMALL_JOBS)
    return path


@pytest.mark.parametrize("workload,n_jobs", [("bundle_10k", 500), ("jobs_25k", 500),
                                             ("archives_1k", 20)])
def test_generator_is_deterministic_per_seed(tmp_path, workload, n_jobs):
    first, again, other = (str(tmp_path / name) for name in ("a", "b", "c"))
    gen.generate(workload, 7, first, n_jobs=n_jobs)
    gen.generate(workload, 7, again, n_jobs=n_jobs)
    gen.generate(workload, 8, other, n_jobs=n_jobs)
    assert _file_digests(first) == _file_digests(again)
    assert _file_digests(first) != _file_digests(other)


def test_clean_run_passes_and_one_flipped_byte_fails(tmp_path, bundle_inputs):
    out, result = _run(tmp_path, SMALL_BUNDLE, bundle_inputs, "out")
    entries = _entries(SMALL_BUNDLE)
    clean = check.check_run("bundle", out, result, bundle_inputs, entries, None, None)
    assert clean["attempted"] == len(entries)
    assert clean["failed"] == 0, clean["problems"]

    path = os.path.join(out, "exit_codes.csv")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    # the run's own manifest check, and the comparison with the first run
    flipped = check.check_run("bundle", out, result, bundle_inputs, entries,
                              None, clean["digest"])
    assert flipped["failed"] > 0
    assert "exit_codes.csv" in flipped["problems"]


def test_reference_values_compare_within_tolerance(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("group,value\na,0.1\nb,1e6\n")
    reference = check.digest_file(str(path))
    path.write_text("group,value\na,0.1000000000001\nb,1e6\n")  # summation-order noise
    assert check.compare_file(reference, check.digest_file(str(path))) == []
    path.write_text("group,value\na,0.1001\nb,1e6\n")
    assert check.compare_file(reference, check.digest_file(str(path)))
    path.write_text("group,value\nc,0.1\nb,1e6\n")
    assert check.compare_file(reference, check.digest_file(str(path)))
    path.write_text("group,value\na,1e6\nb,0.1\n")  # values in the wrong rows
    assert check.compare_file(reference, check.digest_file(str(path)))


def test_rerun_check_compares_runs_of_one_call_only(monkeypatch, tmp_path):
    """Check 4 compares each run with the first run of the same call, so a
    program whose output bytes changed between two calls on the same inputs
    is no rerun mismatch."""
    import run

    program = {"bytes": "parent"}
    seen = []

    def fake_child(kind, inputs, out=None, trace=None, phases="all", timeout=0.0):
        time.sleep(0.01)
        return {"setup_s": 0.1, "load_s": 0.1, "run_s": 0.1, "readers_s": 0.0,
                "peak_rss_mb": 1.0, "output": program["bytes"]}

    def fake_check(kind, out, res, inputs, entries, reference, earlier):
        seen.append(earlier)
        digest = {"f.csv": {"sha256": res.get("output")}}
        failed = int(earlier is not None and earlier != digest)
        return {"attempted": 1, "failed": failed, "digest": digest, "problems": {}}

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "ensure_inputs", lambda workload, seed: str(tmp_path))
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "calibrate", lambda timeout: [run.CAL_REF_S])
    monkeypatch.setattr(run.check, "check_run", fake_check)
    parent = run.measure("archives_1k", 1, 0.05, trace=False)
    program["bytes"] = "change"
    change = run.measure("archives_1k", 1, 0.05, trace=False)
    assert parent["runs"] > 1 and change["runs"] > 1
    assert parent["failed"] == change["failed"] == 0
    assert seen.count(None) == 2  # each call starts without an earlier digest
    assert change["digest"] == {"f.csv": {"sha256": "change"}}


def test_timings_are_scaled_to_the_reference_speed(monkeypatch, tmp_path):
    """Timings are multiplied by CAL_REF_S over the median reference time,
    and the time a full run leaves goes to samples of the short phases."""
    import run

    def fake_child(kind, inputs, out=None, trace=None, phases="all", timeout=0.0):
        if phases != "all":  # set-up and load only, or set-up only
            time.sleep(0.001)
            return {"setup_s": 0.001, **({"load_s": 0.004} if phases == "load" else {})}
        time.sleep(0.05)
        return {"setup_s": 0.001, "load_s": 0.002, "run_s": 0.01, "readers_s": 0.0,
                "peak_rss_mb": 7.0}

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(run, "ensure_inputs", lambda workload, seed: str(tmp_path))
    monkeypatch.setattr(run, "run_child", fake_child)
    monkeypatch.setattr(run, "calibrate", lambda timeout: [2 * run.CAL_REF_S])
    monkeypatch.setattr(run.check, "check_run", lambda *args: {
        "attempted": 1, "failed": 0, "digest": {}, "problems": {}})
    summary = run.measure("bundle_10k", 1, 0.09, trace=False)
    loads = summary["samples"]["load_s"]
    assert summary["runs"] == 1 and len(loads) > 1
    assert loads == [0.002] + [0.004] * (len(loads) - 1)
    assert len(summary["samples"]["setup_s"]) == 1 + summary["shorts"]
    metrics = summary["metrics"]
    assert metrics["run_s"] == pytest.approx(0.01 / 2)
    assert metrics["wall_s"] == pytest.approx(0.013 / 2)
    assert metrics["load_s"] == pytest.approx(summary["raw"]["load_s"] / 2)
    assert metrics["peak_rss_mb"] == 7.0


def test_archive_run_matches_generator_truth(tmp_path):
    inputs = str(tmp_path / "inputs")
    gen.generate("archives_1k", SEED, inputs, n_jobs=40)
    out, result = _run(tmp_path, "archives_1k", inputs, "out")
    checked = check.check_run("archives", out, result, inputs, [], None, None)
    assert checked["attempted"] == 38  # 1 in 20 jobs has no archive
    assert checked["failed"] == 0, checked["problems"]


def _bindings() -> dict:
    """Identity of every function bound in the loaded hpcwl modules, in
    report.ANALYSES and on Filters."""
    from hpcwl import report
    from hpcwl.metrics.rollups import Filters

    seen = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hpcwl" or name.startswith("hpcwl.")):
            for key, value in vars(module).items():
                if callable(value):
                    seen[(name, key)] = id(value)
    for key, value in report.ANALYSES.items():
        seen[("ANALYSES", key)] = id(value)
    seen[("Filters", "apply")] = id(Filters.__dict__["apply"])
    return seen


def test_traced_run_restores_bindings_and_matches_untraced(tmp_path, bundle_inputs):
    child._setup("bundle")
    before = _bindings()
    plain, _ = _run(tmp_path, SMALL_BUNDLE, bundle_inputs, "plain")
    traced, result = _run(tmp_path, SMALL_BUNDLE, bundle_inputs, "traced", trace=True)
    assert _bindings() == before
    assert _file_digests(plain) == _file_digests(traced)
    with open(tmp_path / "traced.spans.json", encoding="utf-8") as handle:
        dump = json.load(handle)
    names = {span[0] for span in dump["spans"]}
    assert {"report.run_report", "ingest.load_jobs", "metrics.rollups.filters_apply",
            "report.analysis.capacity"} <= names
    assert dump["counts"]["ingest.utc_date"] > 0
    assert dump["missing"] == {}


def test_missing_binding_is_recorded_not_raised():
    child._setup("bundle")
    tracer = spans.Tracer()
    tracer.install((spans.Target("hpcwl.ingest", "no_such_loader", "ingest.gone"),
                    spans.Target("hpcwl.metrics.rollups", "Filters.gone", "filters.gone")))
    tracer.restore()
    assert set(tracer.missing) == {"ingest.gone", "filters.gone"}


def test_self_time_subtracts_children():
    dump = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 6.0, 0],
            ["outer", 2.0, 3.0, 1]]
    inclusive, self_time = spans.span_totals(dump)
    assert inclusive == {"outer": 10.0, "inner": 4.0}
    assert self_time["outer"] == pytest.approx(6.0 + 1.0)
    assert self_time["inner"] == pytest.approx(2.0 + 1.0)


def test_benchmark_json_lists_every_metric_the_runner_prints():
    import layers
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in doc["workloads"]] == list(run.MEASURED)
    assert set(run.MEASURED) <= set(gen.WORKLOADS)
