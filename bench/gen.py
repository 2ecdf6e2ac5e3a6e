"""Seeded input generators for the benchmark workloads.

The generators are the benchmark's own code and never call into ``hpcwl``:
the program only ever sees the files written here.  Every file follows
docs/formats.md.  The same (workload, seed) always yields byte-identical
files.  Besides the program's inputs each workload directory holds
``truth.json``, facts the generator knows by construction, which the
correctness check compares against the program's outputs.
"""
from __future__ import annotations

import csv
import json
import os
from datetime import date, datetime, timezone

import numpy as np

GIB = 1 << 30


def _epoch(day: date) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


RANGE_START = _epoch(date(2015, 7, 1))
RANGE_END = _epoch(date(2016, 12, 31))
# the last submit instant; with waits capped at one day and runs at three,
# every job ends before 2016-12-31 and so inside the report's date range
LAST_SUBMIT = RANGE_END - 4 * 86400

# (name, cores per node, share of jobs); geometry as in the built-in table
RESOURCES = (
    ("TACC-STAMPEDE", 16, 0.45),
    ("SDSC-COMET", 24, 0.30),
    ("SDSC-GORDON", 16, 0.10),
    ("OSG", 1, 0.15),
)

HIERARCHY = (
    ("MPS", "Physics", "Elementary Particle Physics"),
    ("MPS", "Physics", "Nuclear Physics"),
    ("MPS", "Materials Research", "Condensed Matter Physics"),
    ("MPS", "Chemistry", "Physical Chemistry"),
    ("MPS", "Astronomical Sciences", "Extragalactic Astronomy"),
    ("BIO", "Molecular Biosciences", "Biophysics"),
    ("BIO", "Integrative Biology", "Neuroscience"),
    ("GEO", "Atmospheric Sciences", "Climate Dynamics"),
    ("GEO", "Earth Sciences", "Geophysics"),
    ("ENG", "Chemical Thermal Systems", "Fluid Dynamics"),
    ("ENG", "Mechanics", "Structural Mechanics"),
    ("CIE", "Computer Science", "Algorithms"),
    ("SBE", "Social Sciences", "Economics"),
)

STATUSES = ("faculty", "postdoc", "grad_student", "univ_research_staff", "other")
STATES = ("CA", "NY", "TX", "IL", "PA", "MI", "MA", "WA", "CO", "GA",
          "NC", "OH", "VA", "IN", "TN", "FL")
EXITS = ("completed", "canceled", "timeout", "failed", "not_available")
NODE_CHOICES = np.array([1, 1, 1, 1, 1, 2, 2, 4, 4, 8, 16, 32, 64, 128, 256])
GATEWAYS = (("cipres_comm", "Cipres"), ("itasser_comm", "I-TASSER"),
            ("galaxy_comm", "Galaxy"))
APP_LABELS = ("NAMD", "GROMACS", "LAMMPS", "WRF", "AMBER", "MILC", "VASP",
              "Q-ESPRESSO", "python", "uncategorized", "uncategorized")
LAUNCH_TYPES = ("serial", "multi_process", "multi_threaded",
                "multi_process_multi_threaded")

# hour-of-day submit weights (UTC): a strong working-day rhythm, so the
# submission periodogram has a clear one-cycle-per-day peak
DIURNAL = np.array([2, 1, 1, 1, 1, 1, 2, 3, 5, 8, 10, 12,
                    13, 13, 13, 12, 11, 9, 7, 6, 5, 4, 3, 2], dtype=float)

JOB_FIELDS = (
    "job_id", "resource", "user", "charge_number", "directorate",
    "parent_science", "field_of_science", "nsf_user_status", "submit_time",
    "start_time", "end_time", "nodes", "cores", "queue", "exit_status",
    "gateway_user", "state_of_origin", "local_su_charged",
)
ALLOCATION_FIELDS = (
    "charge_number", "resource", "alloc_type", "discipline",
    "awarded_local_su", "used_local_su", "award_date", "is_gateway_tagged",
)

# size and shape of each workload
WORKLOADS = {
    "bundle_10k": {"kind": "bundle", "n_jobs": 10_000, "fmt": "csv"},
    "jobs_25k": {"kind": "bundle", "n_jobs": 25_000, "fmt": "jsonl"},
    "archives_1k": {"kind": "archives", "n_jobs": 1_000, "fmt": "jsonl"},
}


def generate(workload: str, seed: int, outdir: str, n_jobs: int | None = None) -> dict:
    """Write the inputs of one workload into outdir; return its manifest.

    ``n_jobs`` shrinks the workload for the benchmark's own tests.
    """
    spec = WORKLOADS[workload]
    n_jobs = n_jobs or spec["n_jobs"]
    os.makedirs(outdir, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if spec["kind"] == "bundle":
        info = _bundle_inputs(rng, n_jobs, spec["fmt"], outdir)
    else:
        info = _archive_inputs(rng, n_jobs, outdir)
    info.update(workload=workload, seed=seed, kind=spec["kind"])
    _write_json(os.path.join(outdir, "inputs.json"), info)
    return info


# ---------------------------------------------------------------------------
# accounting bundles

def _make_jobs(rng, n_jobs: int, resource_idx=None) -> dict:
    """Column arrays for n_jobs accounting rows."""
    names = [r[0] for r in RESOURCES]
    cpn = np.array([r[1] for r in RESOURCES])
    share = np.array([r[2] for r in RESOURCES])
    if resource_idx is None:
        resource_idx = rng.choice(len(RESOURCES), size=n_jobs, p=share / share.sum())
    n_users, n_projects = 200, 80
    users = [f"u{i:04d}" for i in range(n_users)]
    user_status = rng.choice(len(STATUSES), size=n_users, p=[0.15, 0.2, 0.45, 0.15, 0.05])
    user_state = rng.integers(len(STATES), size=n_users)
    project_hier = rng.integers(len(HIERARCHY), size=n_projects)
    project_cap = 2 ** rng.integers(0, 9, size=n_projects)
    project_users = [rng.choice(n_users, size=int(rng.integers(2, 8)), replace=False)
                     for _ in range(n_projects)]

    project = rng.integers(n_projects, size=n_jobs)
    osg = resource_idx == names.index("OSG")
    gateway = ~osg & (rng.random(n_jobs) < 0.10)
    gateway_idx = rng.integers(len(GATEWAYS), size=n_jobs)
    member = rng.integers(0, 1 << 30, size=n_jobs)
    gateway_email = rng.integers(60, size=n_jobs)

    nodes = np.minimum(NODE_CHOICES[rng.integers(len(NODE_CHOICES), size=n_jobs)],
                       project_cap[project])
    nodes[osg] = 1
    shape = rng.random(n_jobs)
    cores = nodes * cpn[resource_idx]
    cores = np.where(shape < 0.10, nodes, cores)
    cores = np.where((shape >= 0.10) & (shape < 0.25),
                     np.maximum(nodes, cores // 2), cores)
    cores[osg] = 1

    weekday_weight = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.45, 0.4])
    n_days = (LAST_SUBMIT - RANGE_START) // 86400
    # 2015-07-01 was a Wednesday (weekday 2)
    day_weights = weekday_weight[(np.arange(n_days) + 2) % 7]
    day = rng.choice(n_days, size=n_jobs, p=day_weights / day_weights.sum())
    hour = rng.choice(24, size=n_jobs, p=DIURNAL / DIURNAL.sum())
    minute = rng.integers(60, size=n_jobs)
    submit = RANGE_START + day * 86400 + hour * 3600 + minute * 60
    # pin the first and last submit hour so every seed bins the same span
    submit[0] = RANGE_START
    submit[-1] = LAST_SUBMIT - 3600
    wait = 60 * np.minimum(rng.exponential(120.0, size=n_jobs).astype(np.int64), 1440)
    duration = 60 * np.clip(rng.lognormal(4.5, 1.0, size=n_jobs).astype(np.int64), 1, 72 * 60)
    start = submit + wait
    end = start + duration

    p_node_fail = 1.0 / (1.0 + np.exp(5.0 - 0.004 * nodes))
    node_fail = rng.random(n_jobs) < p_node_fail
    exit_idx = rng.choice(len(EXITS), size=n_jobs, p=[0.80, 0.07, 0.05, 0.07, 0.01])

    queue_draw = rng.random(n_jobs)
    queue = np.full(n_jobs, "normal", dtype=object)
    stampede = resource_idx == names.index("TACC-STAMPEDE")
    comet = resource_idx == names.index("SDSC-COMET")
    queue[stampede & (queue_draw < 0.02)] = "largemem"
    queue[comet & (queue_draw < 0.015)] = "large-shared"
    queue[comet & (queue_draw >= 0.015) & (queue_draw < 0.3)
          & (cores <= cpn[resource_idx])] = "shared"

    rows = []
    for i in range(n_jobs):
        p = int(project[i])
        hier = HIERARCHY[int(project_hier[p])]
        if gateway[i]:
            account, _ = GATEWAYS[int(gateway_idx[i])]
            user, status, state = account, "unknown", None
            gw_user = f"gw{int(gateway_email[i]):03d}@example.org"
        else:
            members = project_users[p]
            u = int(members[int(member[i]) % len(members)])
            user, status = users[u], STATUSES[int(user_status[u])]
            state, gw_user = STATES[int(user_state[u])], None
        res = int(resource_idx[i])
        rows.append({
            "job_id": f"j{i:07d}",
            "resource": names[res],
            "user": user,
            "charge_number": f"TG-{p:05d}",
            "directorate": hier[0],
            "parent_science": hier[1],
            "field_of_science": hier[2],
            "nsf_user_status": status,
            "submit_time": int(submit[i]),
            "start_time": int(start[i]),
            "end_time": int(end[i]),
            "nodes": int(nodes[i]),
            "cores": int(cores[i]),
            "queue": str(queue[i]),
            "exit_status": "node_fail" if node_fail[i] else EXITS[int(exit_idx[i])],
            "gateway_user": gw_user,
            "state_of_origin": state,
            "local_su_charged": int(cores[i]) * int(duration[i]) / 3600.0,
        })
    return {"rows": rows, "users": users}


def _allocations(rng, jobs: list[dict]) -> list[dict]:
    used: dict[tuple[str, str], float] = {}
    for job in jobs:
        key = (job["charge_number"], job["resource"])
        used[key] = used.get(key, 0.0) + job["local_su_charged"]
    disciplines = sorted({h[0] for h in HIERARCHY})
    types = ("XRAC", "Research", "Startup", "CampusChampions", "Educational")
    out = []
    for (project, resource), su in sorted(used.items()):
        awarded = round(su * float(rng.uniform(0.7, 3.0)), 2)
        out.append({
            "charge_number": project, "resource": resource,
            "alloc_type": types[int(rng.choice(5, p=[0.3, 0.25, 0.3, 0.1, 0.05]))],
            "discipline": disciplines[int(rng.integers(len(disciplines)))],
            "awarded_local_su": max(awarded, 1000.0),
            "used_local_su": round(su, 2),
            "award_date": "2015-09-01",
            "is_gateway_tagged": project.endswith(("1", "7")),
        })
    for i in range(30):  # awards nobody drew down
        out.append({
            "charge_number": f"TG-UNUSED{i:03d}",
            "resource": ("TACC-STAMPEDE", "SDSC-COMET")[int(rng.integers(2))],
            "alloc_type": "Startup",
            "discipline": disciplines[int(rng.integers(len(disciplines)))],
            "awarded_local_su": 50000.0, "used_local_su": 0.0,
            "award_date": "2015-10-01", "is_gateway_tagged": False,
        })
    return out


def _summary_rows(rng, jobs: list[dict]) -> list[dict]:
    """Perf summaries for about 85% of non-OSG jobs, in the JSONL format of
    ``hpcwl summarize``."""
    mem_per_core = {"TACC-STAMPEDE": 32 * GIB / 16, "SDSC-COMET": 128 * GIB / 24,
                    "SDSC-GORDON": 64 * GIB / 16}
    n = len(jobs)
    keep = rng.random(n) < 0.85
    frac = rng.beta(1.6, 6.0, size=n)
    tail = rng.random(n) < 0.03
    frac = np.where(tail, 0.82 + 0.15 * rng.random(n), frac)
    headroom = 1.05 + 0.5 * rng.random(n)
    lustre_rx = rng.lognormal(18, 2, size=n)
    lustre_tx = rng.lognormal(18, 2, size=n)
    extra_wide = rng.lognormal(19, 2, size=n)
    extra_narrow = rng.lognormal(14, 2, size=n)
    launch = 1 + rng.integers(3, size=n)
    has_mem = rng.random(n) >= 0.05
    cpu = np.minimum(1.0, rng.beta(9, 1.2, size=n))
    opens = rng.lognormal(5, 1.5, size=n).astype(np.int64)
    app = rng.integers(len(APP_LABELS), size=n)
    out = []
    for i, job in enumerate(jobs):
        if job["resource"] == "OSG" or not keep[i]:
            continue
        per_core = mem_per_core[job["resource"]]
        mem_avg = float(frac[i]) * per_core * 0.8
        mem_max = min(per_core, mem_avg * float(headroom[i]))
        rx, tx = float(lustre_rx[i]), float(lustre_tx[i])
        extra = float(extra_wide[i] if job["nodes"] > 1 else extra_narrow[i])
        ib_rx, ib_tx = (rx + extra) / 2.0, (tx + extra) / 2.0
        out.append({
            "job_id": job["job_id"],
            "cpu_user_fraction": float(cpu[i]),
            "mem_avg_per_core": mem_avg if has_mem[i] else None,
            "mem_max_per_core": mem_max if has_mem[i] else None,
            "lustre_rx": rx, "lustre_tx": tx, "ib_rx": ib_rx, "ib_tx": ib_tx,
            "non_lustre_ib": max(0.0, ib_rx + ib_tx - rx - tx),
            "runnable_threads_median": float(max(1, job["cores"] // job["nodes"])),
            "file_opens": float(opens[i]),
            "app_label": APP_LABELS[int(app[i])],
            "launch_type": ("serial" if job["cores"] == 1
                            else LAUNCH_TYPES[int(launch[i])]),
            "samples_used": max(1, (job["end_time"] - job["start_time"]) // 600),
            "flags": [],
        })
    return out


def _bundle_truth(jobs: list[dict]) -> dict:
    """Counts the report must reproduce: exit-status table, jobs per
    (quarter, user status) and jobs per resource."""
    exit_codes: dict[str, dict[str, int]] = {}
    by_status: dict[str, int] = {}
    for job in jobs:
        row = exit_codes.setdefault(job["resource"], {})
        row[job["exit_status"]] = row.get(job["exit_status"], 0) + 1
        day = datetime.fromtimestamp(job["end_time"], tz=timezone.utc).date()
        key = f"{day.year}-Q{(day.month - 1) // 3 + 1}|{job['nsf_user_status']}"
        by_status[key] = by_status.get(key, 0) + 1
    submits = [job["submit_time"] for job in jobs]
    return {"exit_codes": exit_codes, "jobs_by_quarter_status": by_status,
            "submit_min": min(submits), "submit_max": max(submits)}


def _bundle_inputs(rng, n_jobs: int, fmt: str, outdir: str) -> dict:
    made = _make_jobs(rng, n_jobs)
    jobs = made["rows"]
    allocations = _allocations(rng, jobs)
    summaries = _summary_rows(rng, jobs)
    ext = "csv" if fmt == "csv" else "jsonl"
    _write_rows(os.path.join(outdir, f"jobs.{ext}"), JOB_FIELDS, jobs, fmt)
    _write_rows(os.path.join(outdir, f"allocations.{ext}"), ALLOCATION_FIELDS,
                allocations, fmt)
    _write_rows(os.path.join(outdir, "summaries.jsonl"), None, summaries, "jsonl")
    with open(os.path.join(outdir, "community_users.csv"), "w", encoding="utf-8",
              newline="") as handle:
        handle.write("gateway,user\n")
        for account, gateway in GATEWAYS:
            handle.write(f"{gateway},{account}\n")
    with open(os.path.join(outdir, "user_email.csv"), "w", encoding="utf-8",
              newline="") as handle:
        handle.write("user,email\n")
        for i, user in enumerate(made["users"]):
            # the first users also reach the system through a gateway
            email = f"gw{i:03d}@example.org" if i < 20 else f"{user}@example.edu"
            handle.write(f"{user},{email}\n")
    _write_json(os.path.join(outdir, "geo.json"), {
        "population_by_state": {s: float(rng.integers(2, 40)) * 1e6 for s in STATES},
        "tech_index_by_state": {s: round(0.5 + float(rng.random()) * 2.0, 2)
                                for s in STATES},
    })
    _write_json(os.path.join(outdir, "truth.json"), _bundle_truth(jobs))
    return {"jobs": f"jobs.{ext}", "allocations": f"allocations.{ext}", "format": fmt,
            "n_jobs": len(jobs), "n_allocations": len(allocations),
            "n_summaries": len(summaries)}


# ---------------------------------------------------------------------------
# node performance archives

COUNTERS = ("cpu_user_ticks", "cpu_total_ticks", "lustre_rx_bytes",
            "lustre_tx_bytes", "ib_rx_bytes", "ib_tx_bytes", "file_opens")
# counters also sampled periodically, so resets can happen inside the job
PERIODIC_COUNTERS = ("cpu_user_ticks", "cpu_total_ticks")
SAMPLE_SECONDS = 600

# (executable path, label the pattern database must give it)
EXECUTABLES = (
    ("/usr/apps/namd/2.12/namd2", "NAMD"),
    ("/work/02/bin/gmx_mpi", "GROMACS"),
    ("/home1/u/lammps/src/lmp_stampede", "LAMMPS"),
    ("/usr/apps/wrf/3.8/main/wrf.exe", "WRF"),
    ("/usr/apps/amber/16/bin/pmemd.MPI", "AMBER"),
    ("/home1/u/milc/bin/su3_rhmd_hisq", "MILC"),
    ("/usr/apps/espresso/6.1/bin/pw.x", "Q-ESPRESSO"),
    ("/usr/apps/vasp/5.4.4/vasp_std", "VASP"),
    ("/usr/bin/python3", "python"),
    ("/home1/u/run/a.out", "uncategorized"),
    ("/project/u/model_v2", "uncategorized"),
)
IGNORED_PROCESSES = ("bash", "ssh", "sleep", "cat")


def _launch_type(n_processes: int, threads: int) -> str:
    if n_processes == 1 and threads == 1:
        return "serial"
    if threads == 1:
        return "multi_process"
    if n_processes == 1:
        return "multi_threaded"
    return "multi_process_multi_threaded"


def _counter_truth(values: list[int]) -> tuple[int, bool]:
    """Accumulation over an ordered counter series; a drop is a reset whose
    segment contributes the post-reset reading."""
    total, reset = 0, False
    for prev, cur in zip(values, values[1:]):
        if cur >= prev:
            total += cur - prev
        else:
            total += cur
            reset = True
    return total, reset


def _median(values: list[int]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _archive_job(rng, job: dict, cpn: int, mem_total: int, source: str,
                 lines: list[str]) -> dict:
    """Append one job's archive records to lines; return its true summary."""
    job_id, start, end = job["job_id"], job["start_time"], job["end_time"]
    nodes = [f"{job['resource'][:4].lower()}-c{int(n):04d}"
             for n in sorted(rng.choice(4000, size=job["nodes"], replace=False))]
    lines.append(json.dumps({"type": "job", "job_id": job_id, "nodes": nodes}))
    # periodic samples on a 10-minute grid from before start to after end
    first = start - SAMPLE_SECONDS // 2
    times = list(range(first, end + SAMPLE_SECONDS, SAMPLE_SECONDS))
    totals = {metric: 0 for metric in COUNTERS}
    flags: list[str] = []
    runnable: list[int] = []
    mem_per_core: list[float] = []
    perf = ('{"type": "perf", "job_id": "%s", "node": "%s", "time": %d, "metric": "%s", '
            '"kind": "%s", "value": %d, "tag": "%s"}')
    numa_half = ('{"mem_total": %d, "mem_free": %d, "file_pages": %d, "slab": %d}')
    half = mem_total // 2
    in_window = [start < t < end for t in times]
    for node in nodes:
        # user ticks advance by a share of total ticks in each interval
        total_steps = rng.integers(0, 6000 * cpn, size=len(times) + 1)
        user_share = float(rng.uniform(0.3, 1.0))
        steps = {"cpu_total_ticks": [int(s) for s in total_steps],
                 "cpu_user_ticks": [int(s * user_share) for s in total_steps]}
        for metric in COUNTERS:
            value = int(rng.integers(1 << 20, 1 << 40))
            series = [(start, value, "job_prolog")]
            if metric in PERIODIC_COUNTERS:
                reset_at = int(rng.integers(len(times))) if rng.random() < 0.03 else -1
                for k, t in enumerate(times):
                    value += steps[metric][k]
                    if k == reset_at:
                        value = int(rng.integers(0, 1000))
                    series.append((t, value, "periodic"))
                value += steps[metric][-1] + 1
            else:
                value += int(rng.integers(1, 1 << 24))
            series.append((end, value, "job_epilog"))
            for t, v, tag in series:
                lines.append(perf % (job_id, node, t, metric, "counter", v, tag))
            used = sorted((s for s in series if start <= s[0] <= end),
                          key=lambda s: s[0])
            delta, reset = _counter_truth([v for _, v, _ in used])
            if reset:
                flags.append(f"counter_regression:{node}:{metric}")
            totals[metric] += delta
        threads = rng.integers(0, cpn + 3, size=len(times)).tolist()
        free = rng.integers(half // 10, half // 2, size=(len(times), 2)).tolist()
        file_pages = rng.integers(0, half // 4, size=(len(times), 2)).tolist()
        slab = rng.integers(0, half // 20, size=(len(times), 2)).tolist()
        for k, t in enumerate(times):
            lines.append(perf % (job_id, node, t, "runnable_threads", "instantaneous",
                                 threads[k], "periodic"))
            numa = ", ".join(numa_half % (half, free[k][j], file_pages[k][j], slab[k][j])
                             for j in range(2))
            lines.append('{"type": "meminfo", "job_id": "%s", "node": "%s", "time": %d, '
                         '"numa": [%s]}' % (job_id, node, t, numa))
            if in_window[k]:
                runnable.append(threads[k])
                used = sum(half - free[k][j] - file_pages[k][j] - slab[k][j]
                           for j in range(2))
                mem_per_core.append(used / cpn)

    exe, label = EXECUTABLES[int(rng.integers(len(EXECUTABLES)))]
    launch = "unknown"
    if source == "launcher":
        n_proc = 1 if rng.random() < 0.2 else int(rng.integers(2, 64))
        threads = 1 if rng.random() < 0.6 else int(rng.integers(2, 17))
        lines.append(json.dumps({"type": "launcher", "job_id": job_id, "exe": exe,
                                 "n_processes": n_proc,
                                 "threads_per_process": threads}))
        launch = _launch_type(n_proc, threads)
    elif source == "process":
        main_pids = int(rng.integers(2, 200))
        # ignored shell helpers outnumber the main process; the helper
        # that follows it has fewer PIDs
        for name in IGNORED_PROCESSES:
            lines.append(json.dumps({"type": "process", "job_id": job_id,
                                     "process_name": name,
                                     "unique_pid_count": main_pids + 5}))
        lines.append(json.dumps({"type": "process", "job_id": job_id,
                                 "process_name": exe.rsplit("/", 1)[1],
                                 "unique_pid_count": main_pids}))
        lines.append(json.dumps({"type": "process", "job_id": job_id,
                                 "process_name": "orted",
                                 "unique_pid_count": main_pids - 1}))
    else:
        label = "NA"

    user, cpu_total = totals["cpu_user_ticks"], totals["cpu_total_ticks"]
    cpu_fraction = None
    if cpu_total > 0:
        cpu_fraction = min(1.0, max(0.0, user / cpu_total))
        if user > cpu_total:
            flags.append("cpu_fraction_clamped")
    ib_total = totals["ib_rx_bytes"] + totals["ib_tx_bytes"]
    lustre_total = totals["lustre_rx_bytes"] + totals["lustre_tx_bytes"]
    if ib_total < lustre_total:
        flags.append("non_lustre_ib_clamped")
    return {
        "cpu_user_fraction": cpu_fraction,
        "mem_avg_per_core": sum(mem_per_core) / len(mem_per_core) if mem_per_core else None,
        "mem_max_per_core": max(mem_per_core) if mem_per_core else None,
        "lustre_rx": float(totals["lustre_rx_bytes"]),
        "lustre_tx": float(totals["lustre_tx_bytes"]),
        "ib_rx": float(totals["ib_rx_bytes"]),
        "ib_tx": float(totals["ib_tx_bytes"]),
        "non_lustre_ib": float(max(0, ib_total - lustre_total)),
        "runnable_threads_median": _median(runnable) if runnable else None,
        "file_opens": float(totals["file_opens"]),
        "app_label": label,
        "launch_type": launch,
        "samples_used": len(runnable) + len(mem_per_core),
        "flags": flags,
    }


def _archive_inputs(rng, n_jobs: int, outdir: str) -> dict:
    """About 1k jobs of 1-16 nodes sampled every 10 minutes.  The mix of
    node counts, run lengths and metadata sources is the same fixed multiset
    for every seed (only its order and the values vary), so every seed
    yields the same number of archive records."""
    names = [r[0] for r in RESOURCES]
    resource_idx = np.array([names.index("TACC-STAMPEDE")] * (n_jobs * 3 // 5)
                            + [names.index("SDSC-COMET")] * (n_jobs - n_jobs * 3 // 5))
    jobs = _make_jobs(rng, n_jobs, rng.permutation(resource_idx))["rows"]
    cpn_of = {r[0]: r[1] for r in RESOURCES}
    mem_total = {"TACC-STAMPEDE": 32 * GIB, "SDSC-COMET": 128 * GIB}
    node_counts = (1, 1, 2, 2, 4, 4, 8, 16)
    sources = ("launcher", "process", "launcher", "none", "launcher",
               "process", "launcher", "launcher", "process", "launcher")
    # (nodes, run minutes, archive collected, metadata source) per job
    plan = [(node_counts[i % 8], 60 + (i * 7919) % 360, i % 20 != 0, sources[i % 10])
            for i in range(n_jobs)]
    lines: list[str] = []
    truth: dict[str, dict] = {}
    for job, k in zip(jobs, rng.permutation(n_jobs)):
        nodes, minutes, collected, source = plan[k]
        cpn = cpn_of[job["resource"]]
        job["nodes"] = nodes
        job["cores"] = nodes * cpn
        job["end_time"] = job["start_time"] + 60 * minutes
        job["local_su_charged"] = job["cores"] * 60 * minutes / 3600.0
        if collected:
            truth[job["job_id"]] = _archive_job(rng, job, cpn, mem_total[job["resource"]],
                                                source, lines)
    _write_rows(os.path.join(outdir, "jobs.jsonl"), JOB_FIELDS, jobs, "jsonl")
    with open(os.path.join(outdir, "archives.jsonl"), "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
        handle.write("\n")
    _write_json(os.path.join(outdir, "truth.json"), {"summaries": truth})
    return {"jobs": "jobs.jsonl", "archives": "archives.jsonl", "format": "jsonl",
            "n_jobs": len(jobs), "n_archives": len(truth), "n_records": len(lines)}


# ---------------------------------------------------------------------------
# writers

def _write_rows(path: str, fields, rows: list[dict], fmt: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(fields)
            for row in rows:
                writer.writerow(["" if row[f] is None else
                                 repr(row[f]) if isinstance(row[f], float) else row[f]
                                 for f in fields])
        else:
            for row in rows:
                handle.write(json.dumps(row))
                handle.write("\n")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, sort_keys=True, indent=1)
        handle.write("\n")


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="write one workload's inputs")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
