"""Science gateway analytics: usage attribution, user census, conversion.

A gateway submits jobs through a shared community user account; jobs can be
attributed to a gateway by that account (the default and tightest rule), by
any allocation its community users ever charged (a wider net), or by
allocations tagged as gateway grants.  Gateway end-user identities are only
meaningful within one gateway, so census keys are namespaced per gateway.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from typing import Mapping, Sequence

from ..errors import NoFactorForDate
from ..ingest import AllocationRecord, JobRecord, ResourceSpec, job_xd_su, utc_date
from ..jobtable import period_key

MODES = ("community_user", "associated_allocation", "gateway_tagged")
UNTAGGED_GATEWAY = "(untagged-gateway)"
DEFAULT_RELIABILITY_DATE = date(2015, 4, 1)


def load_community_users(path) -> dict[str, str]:
    """Load the community-user mapping: user account id -> gateway name.

    Accepts CSV with a gateway,user header or JSON {gateway: [users]}.
    """
    text_path = str(path)
    if text_path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return {str(user): str(gateway)
                for gateway, users in doc.items() for user in users}
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            mapping[row["user"]] = row["gateway"]
    return mapping


@dataclass
class GatewayUsage:
    mode: str
    per_gateway: dict[str, dict[str, float]] = field(default_factory=dict)
    series: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)
    unknown_gateway_jobs: list[str] = field(default_factory=list)
    excluded_no_factor: int = 0

    def _add(self, gateway: str, period: str, su_local: float, su_xd: float | None):
        entry = self.per_gateway.setdefault(
            gateway, {"job_count": 0.0, "local_su": 0.0, "xd_su": 0.0})
        entry["job_count"] += 1
        entry["local_su"] += su_local
        if su_xd is not None:
            entry["xd_su"] += su_xd
        p = self.series.setdefault(period, {}).setdefault(
            gateway, {"job_count": 0.0, "local_su": 0.0, "xd_su": 0.0})
        p["job_count"] += 1
        p["local_su"] += su_local
        if su_xd is not None:
            p["xd_su"] += su_xd


def _associated_charges(jobs: Sequence[JobRecord],
                        community_users: Mapping[str, str]) -> dict[str, set[str]]:
    """Charge numbers each gateway's community users ever charged."""
    charges: dict[str, set[str]] = {}
    for job in jobs:
        gateway = community_users.get(job.user)
        if gateway is not None:
            charges.setdefault(job.charge_number, set()).add(gateway)
    return charges


def gateway_usage(jobs: Sequence[JobRecord],
                  allocations: Sequence[AllocationRecord],
                  community_users: Mapping[str, str],
                  resources: Mapping[str, ResourceSpec],
                  mode: str = "community_user",
                  period: str = "quarter") -> GatewayUsage:
    """Per-gateway job counts and SU totals under one attribution mode."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    usage = GatewayUsage(mode=mode)
    charge_map = (_associated_charges(jobs, community_users)
                  if mode in ("associated_allocation", "gateway_tagged") else {})
    tagged = {a.charge_number for a in allocations if a.is_gateway_tagged}
    for job in jobs:
        gateways: list[str] = []
        if mode == "community_user":
            gateway = community_users.get(job.user)
            if gateway is not None:
                gateways = [gateway]
            elif job.gateway_user is not None:
                usage.unknown_gateway_jobs.append(job.job_id)
        elif mode == "associated_allocation":
            gateways = sorted(charge_map.get(job.charge_number, ()))
        else:  # gateway_tagged
            if job.charge_number in tagged:
                gateways = sorted(charge_map.get(job.charge_number, ())) or [UNTAGGED_GATEWAY]
        if not gateways:
            continue
        try:
            su_xd = job_xd_su(job, resources)
        except (NoFactorForDate, KeyError):
            su_xd = None
            usage.excluded_no_factor += 1
        for gateway in gateways:
            usage._add(gateway, period_key(job.end_date, period),
                       job.local_su_charged, su_xd)
    return usage


@dataclass(frozen=True)
class CensusRow:
    period: str
    active_hpc_users: int
    new_hpc_users: int
    active_gateway_users: int
    new_gateway_users: int
    combined_active: int
    gateway_counts_lower_bound: bool


def _period_start(label: str) -> date:
    if "-Q" in label:
        year, quarter = label.split("-Q")
        return date(int(year), (int(quarter) - 1) * 3 + 1, 1)
    return date(int(label), 1, 1)


def gateway_census(jobs: Sequence[JobRecord],
                   community_users: Mapping[str, str],
                   period: str = "quarter",
                   reliability_date: date = DEFAULT_RELIABILITY_DATE) -> list[CensusRow]:
    """Active and first-time users per period, HPC and gateway populations.

    HPC users are personal accounts (community accounts excluded); gateway
    users are (gateway, gateway_user) pairs since end-user names are only
    unique within one gateway.  New-gateway counts are lower bounds before
    the reliability date.
    """
    hpc_jobs: dict[str, set[str]] = {}
    gw_jobs: dict[str, set[tuple[str, str]]] = {}
    first_hpc: dict[str, str] = {}
    first_gw: dict[tuple[str, str], str] = {}
    for job in jobs:
        label = period_key(job.end_date, period)
        if job.gateway_user is not None:
            gateway = community_users.get(job.user, job.user)
            key = (gateway, job.gateway_user)
            gw_jobs.setdefault(label, set()).add(key)
            if key not in first_gw or label < first_gw[key]:
                first_gw[key] = label
        elif job.user not in community_users:
            hpc_jobs.setdefault(label, set()).add(job.user)
            if job.user not in first_hpc or label < first_hpc[job.user]:
                first_hpc[job.user] = label
    rows = []
    for label in sorted(set(hpc_jobs) | set(gw_jobs)):
        active_hpc = hpc_jobs.get(label, set())
        active_gw = gw_jobs.get(label, set())
        rows.append(CensusRow(
            period=label,
            active_hpc_users=len(active_hpc),
            new_hpc_users=sum(1 for u in active_hpc if first_hpc[u] == label),
            active_gateway_users=len(active_gw),
            new_gateway_users=sum(1 for k in active_gw if first_gw[k] == label),
            combined_active=len(active_hpc) + len(active_gw),
            gateway_counts_lower_bound=_period_start(label) < reliability_date,
        ))
    return rows


@dataclass(frozen=True)
class ConversionRow:
    gateway: str
    user_key: str
    gw_job_count: int
    first_gw_job: date
    xsede_job_count: int
    first_xsede_job: date


def gateway_conversion(jobs: Sequence[JobRecord],
                       community_users: Mapping[str, str],
                       user_email: Mapping[str, str],
                       min_xsede_jobs: int = 10) -> list[ConversionRow]:
    """Gateway end users who later ran jobs under a personal allocation.

    Users are joined on an email-equivalence key; only users whose first
    gateway job precedes their first personal job and who ran strictly more
    than min_xsede_jobs personal jobs are reported.
    """
    gw_first: dict[tuple[str, str], int] = {}
    gw_count: dict[tuple[str, str], int] = {}
    personal_first: dict[str, int] = {}
    personal_count: dict[str, int] = {}
    for job in jobs:
        if job.gateway_user is not None:
            gateway = community_users.get(job.user, job.user)
            key = (gateway, job.gateway_user)
            gw_count[key] = gw_count.get(key, 0) + 1
            if key not in gw_first or job.submit_time < gw_first[key]:
                gw_first[key] = job.submit_time
        elif job.user in user_email:
            email = user_email[job.user]
            personal_count[email] = personal_count.get(email, 0) + 1
            if email not in personal_first or job.submit_time < personal_first[email]:
                personal_first[email] = job.submit_time
    rows = []
    for (gateway, email), first_gw in sorted(gw_first.items()):
        if email not in personal_first:
            continue
        if first_gw >= personal_first[email]:
            continue
        if personal_count[email] <= min_xsede_jobs:
            continue
        rows.append(ConversionRow(
            gateway=gateway,
            user_key=email,
            gw_job_count=gw_count[(gateway, email)],
            first_gw_job=utc_date(first_gw),
            xsede_job_count=personal_count[email],
            first_xsede_job=utc_date(personal_first[email]),
        ))
    return rows
