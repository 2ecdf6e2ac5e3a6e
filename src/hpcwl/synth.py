"""Deterministic synthetic dataset for demos, fixtures and the bundled
report run.

Everything derives from one seeded generator, so two runs with the same seed
produce identical jobs.  Timestamps land on whole minutes, which keeps
replay oracles cheap.
"""
from __future__ import annotations

from datetime import date, datetime, timezone

import numpy as np

from .ingest import (
    JOB_FIELDS,
    AllocationRecord,
    AllocType,
    ExitStatus,
    JobSequence,
    NsfUserStatus,
    build_dataset,
    builtin_resources,
)
from .perfsummary import JobPerfSummary, LaunchType
from .report import ReportContext

RESOURCE_MIX = (
    ("TACC-STAMPEDE", 0.45),
    ("SDSC-COMET", 0.30),
    ("SDSC-GORDON", 0.10),
    ("OSG", 0.15),
)

HIERARCHY = (
    ("MPS", "Physics", "Elementary Particle Physics"),
    ("MPS", "Physics", "Nuclear Physics"),
    ("MPS", "Materials Research", "Condensed Matter Physics"),
    ("MPS", "Chemistry", "Physical Chemistry"),
    ("MPS", "Astronomical Sciences", "Stellar Astronomy"),
    ("BIO", "Molecular Biosciences", "Biophysics"),
    ("BIO", "Molecular Biosciences", "Genetics"),
    ("BIO", "Integrative Biology", "Neuroscience"),
    ("GEO", "Atmospheric Sciences", "Climate Dynamics"),
    ("GEO", "Earth Sciences", "Seismology"),
    ("ENG", "Chemical Thermal Systems", "Fluid Dynamics"),
    ("ENG", "Mechanics", "Structural Mechanics"),
    ("CIE", "Computer Science", "Algorithms"),
    ("SBE", "Behavioral Sciences", "Cognitive Science"),
)

STATES = ("CA", "NY", "TX", "IL", "PA", "MI", "MA", "WA", "CO", "GA",
          "NC", "OH", "VA", "IN", "TN")

APPS = ("NAMD", "GROMACS", "LAMMPS", "WRF", "AMBER", "CACTUS", "MILC",
        "Q-ESPRESSO", "VASP", "python", "uncategorized", "uncategorized",
        "uncategorized")

NODE_CHOICES = (1, 1, 1, 1, 1, 2, 2, 4, 4, 8, 16, 32, 64, 128, 256)

GATEWAYS = (("cipres_comm", "Cipres"), ("itasser_comm", "I-TASSER"))


def _epoch(day: date) -> int:
    return int(datetime(day.year, day.month, day.day, tzinfo=timezone.utc).timestamp())


RANGE_START = _epoch(date(2015, 7, 1))
RANGE_END = _epoch(date(2016, 12, 31))


def _pick_launch(cores: int, nodes: int, rng) -> LaunchType:
    if cores == 1:
        return LaunchType.SERIAL
    if nodes == 1 and rng.random() < 0.2:
        return LaunchType.MULTI_THREADED
    if rng.random() < 0.15:
        return LaunchType.MULTI_PROCESS_MULTI_THREADED
    return LaunchType.MULTI_PROCESS


def make_synthetic_dataset(seed: int = 20170930, n_jobs: int = 10000) -> ReportContext:
    """The demo's jobs, allocations, summaries, community and e-mail maps
    and state statistics, ready for a report run."""
    rng = np.random.default_rng(seed)
    resources = builtin_resources()
    names = [name for name, _ in RESOURCE_MIX]
    probs = np.array([p for _, p in RESOURCE_MIX])
    probs = probs / probs.sum()

    users = [f"u{i:04d}" for i in range(1, 201)]
    user_status = {u: NsfUserStatus(rng.choice(
        ["faculty", "postdoc", "grad_student", "univ_research_staff", "other"],
        p=[0.15, 0.2, 0.45, 0.15, 0.05])) for u in users}
    user_state = {u: str(rng.choice(STATES)) for u in users}
    user_email = {u: f"{u}@example.edu" for u in users}
    community_users = {account: gateway for account, gateway in GATEWAYS}
    gateway_emails = [f"gw{i:03d}@example.org" for i in range(1, 61)]
    # some gateway end users are also personal-account holders
    gateway_emails[:20] = [user_email[u] for u in users[:20]]

    projects = [f"TG-{i:05d}" for i in range(1, 81)]
    project_hier = {p: HIERARCHY[int(rng.integers(len(HIERARCHY)))] for p in projects}
    project_users = {p: [str(u) for u in rng.choice(users, size=int(rng.integers(2, 8)), replace=False)]
                     for p in projects}
    # each project has its own capability ceiling, so depths spread out
    project_max_nodes = {p: int(2 ** rng.integers(0, 9)) for p in projects}

    jobs: dict[str, list] = {name: [] for name in JOB_FIELDS}
    summaries: dict[str, JobPerfSummary] = {}
    charge_used: dict[tuple[str, str], float] = {}

    for i in range(n_jobs):
        resource = str(rng.choice(names, p=probs))
        spec = resources[resource]
        project = projects[int(rng.integers(len(projects)))]
        directorate, parent, fos = project_hier[project]
        is_gateway = resource != "OSG" and rng.random() < 0.10
        if is_gateway:
            account = GATEWAYS[int(rng.integers(len(GATEWAYS)))][0]
            gateway_user = gateway_emails[int(rng.integers(len(gateway_emails)))]
            user = account
            status = NsfUserStatus.UNKNOWN
            state = None
        else:
            user = project_users[project][int(rng.integers(len(project_users[project])))]
            gateway_user = None
            status = user_status[user]
            state = user_state[user]

        if resource == "OSG":
            nodes = 1
            cores = 1
        else:
            nodes = int(rng.choice(NODE_CHOICES))
            nodes = min(nodes, spec.nodes, project_max_nodes[project])
            cores = nodes * spec.cores_per_node
            shape = rng.random()
            if shape < 0.10:
                cores = nodes  # one process per node
            elif shape < 0.25:
                cores = max(nodes, nodes * spec.cores_per_node // 2)

        submit = RANGE_START + 60 * int(rng.integers(0, (RANGE_END - 4 * 86400 - RANGE_START) // 60))
        wait = 60 * int(rng.exponential(120))  # mean two hours, minutes
        duration = 60 * max(1, int(rng.lognormal(4.5, 1.0)))  # median ~90 min
        duration = min(duration, 72 * 3600)
        start = submit + wait
        end = start + duration

        p_node_fail = 1.0 / (1.0 + np.exp(-(-5.0 + 0.004 * nodes)))
        if rng.random() < p_node_fail:
            exit_status = ExitStatus.NODE_FAIL
        else:
            exit_status = ExitStatus(rng.choice(
                ["completed", "canceled", "timeout", "failed", "not_available"],
                p=[0.80, 0.07, 0.05, 0.07, 0.01]))

        queue = "normal"
        if resource == "TACC-STAMPEDE" and rng.random() < 0.02:
            queue = "largemem"
        elif resource == "SDSC-COMET":
            if rng.random() < 0.015:
                queue = "large-shared"
            elif cores <= spec.cores_per_node and rng.random() < 0.3:
                queue = "shared"

        local_su = cores * duration / 3600.0
        job = dict(
            job_id=f"j{i:06d}", resource=resource, user=user,
            charge_number=project, directorate=directorate,
            parent_science=parent, field_of_science=fos,
            nsf_user_status=status, submit_time=submit, start_time=start,
            end_time=end, nodes=nodes, cores=cores, queue=queue,
            exit_status=exit_status, gateway_user=gateway_user,
            state_of_origin=state, local_su_charged=local_su,
        )
        for name, value in job.items():
            jobs[name].append(value)
        key = (project, resource)
        charge_used[key] = charge_used.get(key, 0.0) + local_su

        if resource != "OSG" and rng.random() < 0.85:
            summaries[job["job_id"]] = _make_summary(job["job_id"], queue, nodes, cores,
                                                     duration, spec, rng)

    allocations = _make_allocations(charge_used, rng)
    dataset = build_dataset(JobSequence.from_values(jobs), allocations, resources)
    population = {state: float(rng.integers(2, 40)) * 1e6 for state in STATES}
    tech = {state: round(0.5 + rng.random() * 2.0, 2) for state in STATES}
    return ReportContext(dataset=dataset, summaries=summaries,
                         community_users=community_users, user_email=user_email,
                         population_by_state=population, tech_index_by_state=tech)


def _make_summary(job_id: str, queue: str, nodes: int, cores: int, duration: int,
                  spec, rng) -> JobPerfSummary:
    if queue in spec.large_memory_queues and spec.large_mem_per_node:
        per_core_avail = spec.large_mem_per_node / spec.cores_per_node
    else:
        per_core_avail = (spec.mem_per_node or 64 << 30) / spec.cores_per_node
    frac = rng.beta(1.6, 6.0)
    if rng.random() < 0.03:
        frac = 0.82 + 0.15 * rng.random()  # high-memory tail
    mem_avg = frac * per_core_avail * 0.8
    mem_max = min(per_core_avail, mem_avg * (1.05 + 0.5 * rng.random()))

    lustre_rx = float(rng.lognormal(18, 2))  # ~bytes
    lustre_tx = float(rng.lognormal(18, 2))
    extra_ib = float(rng.lognormal(19, 2)) if nodes > 1 else float(rng.lognormal(14, 2))
    ib_rx = (lustre_rx + extra_ib) / 2.0
    ib_tx = (lustre_tx + extra_ib) / 2.0
    nli = max(0.0, ib_rx + ib_tx - lustre_rx - lustre_tx)

    procs_per_node = max(1, cores // nodes)
    launch = _pick_launch(cores, nodes, rng)
    if launch is LaunchType.MULTI_THREADED:
        runnable = float(min(spec.cores_per_node, procs_per_node))
    else:
        runnable = float(procs_per_node)

    return JobPerfSummary(
        job_id=job_id,
        cpu_user_fraction=float(np.clip(rng.beta(9, 1.2), 0.0, 1.0)),
        mem_avg_per_core=mem_avg,
        mem_max_per_core=mem_max,
        lustre_rx=lustre_rx, lustre_tx=lustre_tx,
        ib_rx=ib_rx, ib_tx=ib_tx,
        non_lustre_ib=nli,
        runnable_threads_median=runnable,
        file_opens=float(int(rng.lognormal(5, 1.5))),
        app_label=str(rng.choice(APPS)),
        launch_type=launch,
        samples_used=max(1, duration // 600),
    )


def _make_allocations(charge_used: dict[tuple[str, str], float], rng) -> list[AllocationRecord]:
    allocations = []
    disciplines = sorted({h[0] for h in HIERARCHY})
    for (project, resource), used in sorted(charge_used.items()):
        headroom = rng.uniform(0.7, 3.0)  # < 1 leaves the award overcharged
        awarded = round(used * headroom, 2)
        allocations.append(AllocationRecord(
            charge_number=project, resource=resource,
            alloc_type=AllocType(rng.choice(
                ["XRAC", "Research", "Startup", "CampusChampions", "Educational"],
                p=[0.3, 0.25, 0.3, 0.1, 0.05])),
            discipline=str(rng.choice(disciplines)),
            awarded_local_su=max(awarded, 1000.0),
            used_local_su=round(used, 2),
            award_date=date(2015, 9, 1),
            is_gateway_tagged=bool(project.endswith(("1", "7"))),
        ))
    for i in range(30):  # awards nobody drew down
        allocations.append(AllocationRecord(
            charge_number=f"TG-UNUSED{i:03d}",
            resource=str(rng.choice(["TACC-STAMPEDE", "SDSC-COMET"])),
            alloc_type=AllocType.STARTUP,
            discipline=str(rng.choice(disciplines)),
            awarded_local_su=50000.0,
            used_local_su=0.0,
            award_date=date(2015, 10, 1),
            is_gateway_tagged=False,
        ))
    return allocations
