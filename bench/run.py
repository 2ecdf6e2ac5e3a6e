"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload bundle_10k --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1      # every measured workload in turn

Run from the root of a checkout.  Inputs are generated once per (workload,
seed) under ``.bench_work/`` and never timed.  Each measured run is a fresh
single-threaded child process (child.py) that sets up, loads and runs.
Full runs repeat while the next one should end within ``--seconds``; the
time they leave goes to processes that only set up and load, or only set
up, spread between the full runs, for more samples of the short phases.
Timings are scaled to a reference host speed measured by calib.py in the
same call, and each metric is the median of its samples.  Every full run's
outputs are checked (check.py) and each failed operation counts against
``error_rate``.

With ``--trace 1`` one more run goes through the span recorder and the
per-layer metrics (layers.py) are reported instead; the spans and the
derived self times are written to ``.bench_work/trace/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Measurement uses only the
benchmark's own processes: no machine-wide tracing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, BENCH)

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402

# the workloads BENCHMARK.json lists and ``--workload all`` runs; jobs_25k
# runs on request only: its timings spread past the bound on a shared host
MEASURED = ("bundle_10k", "archives_1k")
END_TO_END = (("setup_s", "s"), ("load_s", "s"), ("run_s", "s"), ("wall_s", "s"),
              ("peak_rss_mb", "MB"))
# timings are reported at the host speed at which the reference computation
# (calib.py) takes CAL_REF_S: each is multiplied by CAL_REF_S over the
# median time of that computation in the same call, timed CAL_REPS times
# before the first full run and after each one
CAL_REF_S = 0.15
CAL_REPS = 5
# stop starting runs once this much of the 180 s allowance is gone
BUDGET_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for name in THREAD_VARS:
        env[name] = "1"
    return env


def run_child(kind: str, inputs: str, *, out: str | None = None, trace: str | None = None,
              phases: str = "all", timeout: float = BUDGET_S) -> dict:
    """Run child.py once and return its result."""
    result_path = os.path.join(WORK, "child_result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--kind", kind,
           "--inputs", inputs, "--result", result_path, "--phases", phases]
    if out:
        cmd += ["--out", out]
    if trace:
        cmd += ["--trace", trace]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, timeout))
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def calibrate(timeout: float) -> list:
    """Times of the fixed reference computation (calib.py), in a fresh
    process of its own."""
    os.makedirs(WORK, exist_ok=True)
    result_path = os.path.join(WORK, "calib_result.json")
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "calib.py"), "--reps",
                           str(CAL_REPS), "--result", result_path],
                          env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise ChildFailed(f"calibration exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return _load_json(result_path)["cal_s"]


def _generator_digest() -> str:
    with open(os.path.join(BENCH, "gen.py"), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:12]


def ensure_inputs(workload: str, seed: int) -> str:
    """Generate the inputs unless a complete set for this seed and generator
    exists; keep only one seed per workload on disk."""
    root = os.path.join(WORK, "inputs")
    path = os.path.join(root, f"{workload}-{seed}-{_generator_digest()}")
    if os.path.exists(os.path.join(path, "inputs.json")):
        return path
    if os.path.isdir(root):
        for name in os.listdir(root):
            if name.split("-", 1)[0] == workload:
                shutil.rmtree(os.path.join(root, name))
    # a separate process, so the parent stays small: a child started by
    # vfork inherits the parent's peak RSS into its own ru_maxrss
    subprocess.run([sys.executable, os.path.join(BENCH, "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", path], check=True, timeout=BUDGET_S)
    return path


def _load_json(path: str):
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _save_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=1)
        handle.write("\n")
    os.replace(tmp, path)


def record_reference(workload: str, seed: int, digest: dict) -> None:
    """Add this seed's output digest to the committed reference file: one
    line per spec entry and per seed, so diffs stay readable."""
    path = os.path.join(BENCH, "reference", f"{workload}.json")
    doc = _load_json(path) or {"entries": [], "seeds": {}}
    doc["seeds"][str(seed)] = digest
    entries = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in doc["entries"])
    seeds = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
                       for k, v in sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{"entries": [\n{entries}\n],\n"seeds": {{\n{seeds}\n}}}}\n')


def references(workload: str, seed: int) -> tuple[list, dict | None]:
    """Spec entries with their files, and the committed digest for this seed
    (None for seeds the reference file does not list)."""
    committed = _load_json(os.path.join(BENCH, "reference", f"{workload}.json")) or {}
    return committed.get("entries", []), committed.get("seeds", {}).get(str(seed))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.monotonic()
    inputs = ensure_inputs(workload, seed)
    kind = gen.WORKLOADS[workload]["kind"]
    entries, reference = references(workload, seed)
    check_entries = [(name, files) for name, _, files in entries]

    run_child(kind, inputs, phases="setup")  # fills bytecode caches, untimed
    cals = calibrate(BUDGET_S - (time.monotonic() - began))
    runs, shorts, checks, problems = [], [], [], {}
    # check 4 compares every run with the first run of this call, so a
    # program change between two calls on the same inputs is no mismatch
    first = None
    out = os.path.join(WORK, "out", workload)
    started = time.monotonic()
    while True:
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.monotonic()
        try:
            res = run_child(kind, inputs, out=out, timeout=BUDGET_S - (t0 - began))
        except (ChildFailed, subprocess.TimeoutExpired) as err:
            res = {"error": str(err)}
        chk = check.check_run(kind, out, res, inputs, check_entries, reference, first)
        if first is None and "run_s" in res:
            first = chk["digest"]
        checks.append(chk)
        problems.update(chk["problems"])
        if "run_s" not in res:
            break
        runs.append(res)
        cals += calibrate(BUDGET_S - (time.monotonic() - began))
        # the time left holds `more` further full runs; the rest is spread
        # evenly before each of them and after the last one, on processes
        # that only set up and load while one fits, then only set up: more
        # samples of the short phases
        now = time.monotonic()
        full = now - t0
        left = min(seconds - (now - started), BUDGET_S - (now - began) - full)
        more = max(0, int(left // full))
        until = now + (left - more * full) / (more + 1)
        for phases, cost in (("load", res["setup_s"] + res["load_s"]),
                             ("setup", res["setup_s"])):
            while time.monotonic() + cost <= until:
                t1 = time.monotonic()
                try:
                    shorts.append(run_child(kind, inputs, phases=phases,
                                            timeout=BUDGET_S - (t1 - began)))
                except (ChildFailed, subprocess.TimeoutExpired) as err:
                    checks.append({"attempted": 1, "failed": 1})
                    problems[f"{phases} only"] = [str(err)]
                    break
                cost = time.monotonic() - t1
        if more == 0:
            break

    summary = {"workload": workload, "seed": seed, "runs": len(runs),
               "problems": problems, "digest": first,
               "attempted": sum(c["attempted"] for c in checks),
               "failed": sum(c["failed"] for c in checks)}
    if runs:
        samples = {name: [r[name] for r in runs + shorts if name in r]
                   for name in ("setup_s", "load_s", "run_s")}
        raw = {name: statistics.median(values) for name, values in samples.items()}
        raw["wall_s"] = statistics.median(r["setup_s"] + r["load_s"] + r["run_s"] for r in runs)
        scale = CAL_REF_S / statistics.median(cals)
        metrics = {name: value * scale for name, value in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
        summary.update(metrics=metrics, raw=raw, samples=samples, cal_s=cals, scale=scale,
                       shorts=len(shorts),
                       readers_s=statistics.median(r["readers_s"] for r in runs))
        if trace:
            summary.update(_traced(workload, kind, inputs, out, check_entries, reference,
                                   first, raw["wall_s"], began))
    return summary


def _traced(workload, kind, inputs, out, entries, reference, first, wall_s, began) -> dict:
    """One traced run: per-layer metrics, plus its own correctness check
    (its outputs must be byte-identical to the untraced runs')."""
    trace_path = os.path.join(WORK, "trace", f"{workload}.spans.json")
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    try:
        res = run_child(kind, inputs, out=out, trace=trace_path,
                        timeout=BUDGET_S - (time.monotonic() - began))
    except (ChildFailed, subprocess.TimeoutExpired) as err:
        res = {"error": str(err)}
    chk = check.check_run(kind, out, res, inputs, entries, reference, first)
    traced = {"traced_attempted": chk["attempted"], "traced_failed": chk["failed"],
              "traced_problems": chk["problems"]}
    if "run_s" not in res:
        return traced
    files = {name: (d["rows"], os.path.getsize(os.path.join(out, name)))
             for name, d in chk["digest"].items()}
    values, extra = layers.derive(_load_json(trace_path), res, wall_s, files)
    _save_json(os.path.join(WORK, "trace", f"{workload}.layers.json"),
               {"values": values, "absent": extra["absent"], "self_s": extra["self_s"]})
    traced.update(layer_values=values, absent=extra["absent"])
    return traced


def report(summary: dict, trace: bool) -> dict:
    """Print the human-readable block and return the result object."""
    w = summary["workload"]
    attempted, failed = summary["attempted"], summary["failed"]
    if trace:
        attempted += summary.get("traced_attempted", 0)
        failed += summary.get("traced_failed", 0)
    rate = failed / attempted if attempted else 1.0
    print(f"== {w} seed {summary['seed']}: medians of {summary['runs']} full run(s) and "
          f"{summary.get('shorts', 0)} shorter one(s); wall_s is the median of "
          "setup_s + load_s + run_s per full run")
    if "scale" in summary:
        print(f"  timings at the reference host speed: measured seconds x {summary['scale']:.4f} "
              f"(calib.py took {CAL_REF_S / summary['scale']:.4f} s, reference {CAL_REF_S} s)")
    metrics = {}
    for name, unit in END_TO_END:
        value = summary.get("metrics", {}).get(name)
        if value is not None:
            measured = summary["raw"].get(name)
            note = f"   (measured {measured:.4f} {unit})" if measured is not None else ""
            print(f"  {name:<12} {value:12.4f} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  {'error_rate':<12} {rate:12.4f} ratio ({failed} failed / {attempted} attempted)")
    for name, values in summary.get("samples", {}).items():
        print(f"  samples {name} (full runs first): {' '.join(f'{v:.4f}' for v in values)}")
    if "cal_s" in summary:
        print(f"  samples calib_s: {' '.join(f'{v:.4f}' for v in summary['cal_s'])}")
    if "readers_s" in summary:
        print(f"  {'readers_s':<12} {summary['readers_s']:12.4f} s "
              "(benchmark-side readers, not in wall_s)")
    problems = dict(summary["problems"])
    problems.update(summary.get("traced_problems", {}))
    for name, texts in sorted(problems.items())[:20]:
        print(f"  FAIL {name}: {'; '.join(texts)[:300]}")
    if trace:
        metrics = {}
        values = summary.get("layer_values", {})
        absent = summary.get("absent", {})
        for name, unit, _ in layers.PER_LAYER:
            value = values.get(name, 0.0)
            metrics[name] = {"value": value, "unit": unit}
            note = f"  absent: {absent[name]}" if name in absent else ""
            print(f"  {name:<52} {value:14.6g} {unit}{note}")
    ok = failed == 0 and len(metrics) > 0
    return {"correct": ok, "attempted": max(1, attempted), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hpcwl benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="after a clean run, add this seed's output digest to "
                             "bench/reference/<workload>.json")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hpcwl", "__init__.py")):
        print("benchmark: no program sources (src/hpcwl) in this checkout",
              file=sys.stderr)
        return 2
    names = list(MEASURED) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        summary = measure(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(summary, bool(args.trace))
        if args.record and results[name]["correct"] and summary["digest"]:
            record_reference(name, args.seed, summary["digest"])
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
