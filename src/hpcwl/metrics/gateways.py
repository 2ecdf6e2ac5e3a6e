"""Science gateway analytics: usage attribution, user census, conversion.

A gateway submits jobs through a shared community user account; jobs can be
attributed to a gateway by that account (the default and tightest rule), by
any allocation its community users ever charged (a wider net), or by
allocations tagged as gateway grants.  Gateway end-user identities are only
meaningful within one gateway, so census keys are namespaced per gateway.
Each function takes a ``JobTable`` (``gateway_usage`` one built with the
resource map, for its XD SU) and computes on its columns.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import date
from typing import Mapping, Sequence

import numpy as np

from ..ingest import AllocationRecord, utc_date
from ..jobtable import Codes, JobTable, group_totals, one_group

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


def _attributed(key: Codes, gateways_of: list[list[str]]) -> tuple[np.ndarray, Codes]:
    """One (row, gateway) pair for each gateway in ``gateways_of[k]`` of
    each row whose key is k, in row order and then list order: the pairs'
    rows and their gateways."""
    flat = Codes.encode([gateway for gateways in gateways_of for gateway in gateways])
    size = np.array(list(map(len, gateways_of)), dtype=np.int64)
    count = size[key.codes]
    rows = np.repeat(np.arange(len(count)), count)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count, count)
    return rows, flat.take((np.cumsum(size) - size)[key.codes[rows]] + slot)


def _entries(outer: Codes, gateway: Codes, columns: tuple[np.ndarray, ...]
             ) -> dict[str, dict[str, dict[str, float]]]:
    """The job count, local SU and XD SU totals of each (outer, gateway)
    pair, nested by outer value as ``group_totals`` nests them."""
    totals = [group_totals(outer, gateway, column) for column in columns]
    return {o: {g: dict(zip(("job_count", "local_su", "xd_su"), (t[o][g] for t in totals)))
                for g in inner} for o, inner in totals[0].items()}


def gateway_usage(table: JobTable,
                  allocations: Sequence[AllocationRecord],
                  community_users: Mapping[str, str],
                  mode: str = "community_user",
                  period: str = "quarter") -> GatewayUsage:
    """Per-gateway job counts and SU totals under one attribution mode.

    A job with no SU factor adds no XD SU and is counted in
    ``excluded_no_factor``.  Totals are summed in job order, and gateways
    and periods keep the order of their first job.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    xd_su, periods = table.weights("xd_su"), table.periods(period)
    gateway_of_user = [community_users.get(name) for name in table.user.names]
    usage = GatewayUsage(mode=mode)
    if mode == "community_user":
        key, gateways_of = table.user, [[] if g is None else [g] for g in gateway_of_user]
        unmapped = ~table.user.isin(community_users)
        usage.unknown_gateway_jobs = table.job_id[unmapped & table.has_gateway_user].tolist()
    else:
        # the gateways whose community users charged each project
        key, width = table.project, len(table.user.names)
        charged: list[set[str]] = [set() for _ in key.names]
        for pair in np.unique(key.codes.astype(np.int64) * width + table.user.codes).tolist():
            project, user = divmod(pair, width)
            if gateway_of_user[user] is not None:
                charged[project].add(gateway_of_user[user])
        gateways_of = list(map(sorted, charged))
        if mode == "gateway_tagged":
            tagged = {a.charge_number for a in allocations if a.is_gateway_tagged}
            gateways_of = [(gateways or [UNTAGGED_GATEWAY]) if name in tagged else []
                           for name, gateways in zip(key.names, gateways_of)]
    rows, gateway = _attributed(key, gateways_of)
    no_factor = np.isnan(xd_su)
    usage.excluded_no_factor = int(np.count_nonzero(no_factor[np.unique(rows)]))
    columns = (np.ones(len(rows)), table.local_su[rows], np.where(no_factor, 0.0, xd_su)[rows])
    usage.per_gateway = _entries(one_group(len(rows)), gateway, columns).get("all", {})
    usage.series = _entries(periods.take(rows), gateway, columns)
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


def _gateway_users(table: JobTable, community_users: Mapping[str, str]
                   ) -> tuple[Codes, np.ndarray]:
    """Each row's gateway (its account's, or the account name itself), and
    its (gateway, gateway user) pair as an integer that sorts as the pair."""
    gateway = Codes.encode([community_users.get(name, name)
                            for name in table.user.names]).take(table.user.codes)
    width = len(table.gateway_user.names)
    return gateway, gateway.codes.astype(np.int64) * width + table.gateway_user.codes


def _active_and_new(period: np.ndarray, who: np.ndarray, n_periods: int) -> list[list[int]]:
    """Per period code: the distinct identities with a row in it, and those
    whose first period (the least label) it is."""
    active = np.unique(who.astype(np.int64) * n_periods + period) % n_periods
    return [np.bincount(p, minlength=n_periods).tolist() for p in (active, _firsts(who, period)[1])]


def _firsts(key: np.ndarray, time: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct key (a code, so not negative) in order, with its least
    time and its row count."""
    order = np.lexsort((time, key))
    key, time = key[order], time[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    return key[start], time[start], np.diff(start, append=len(key))


def gateway_census(table: JobTable,
                   community_users: Mapping[str, str],
                   period: str = "quarter",
                   reliability_date: date = DEFAULT_RELIABILITY_DATE) -> list[CensusRow]:
    """Active and first-time users per period, HPC and gateway populations.

    HPC users are personal accounts (community accounts excluded); gateway
    users are (gateway, gateway_user) pairs since end-user names are only
    unique within one gateway.  New-gateway counts are lower bounds before
    the reliability date.
    """
    periods = table.periods(period)
    n_periods = len(periods.names)
    gw = table.has_gateway_user
    hpc = ~gw & ~table.user.isin(community_users)
    active_hpc, new_hpc = _active_and_new(periods.codes[hpc], table.user.codes[hpc], n_periods)
    active_gw, new_gw = _active_and_new(periods.codes[gw],
                                        _gateway_users(table, community_users)[1][gw], n_periods)
    return [CensusRow(
        period=label,
        active_hpc_users=active_hpc[p],
        new_hpc_users=new_hpc[p],
        active_gateway_users=active_gw[p],
        new_gateway_users=new_gw[p],
        combined_active=active_hpc[p] + active_gw[p],
        gateway_counts_lower_bound=_period_start(label) < reliability_date,
    ) for p, label in enumerate(periods.names) if active_hpc[p] or active_gw[p]]


@dataclass(frozen=True)
class ConversionRow:
    gateway: str
    user_key: str
    gw_job_count: int
    first_gw_job: date
    xsede_job_count: int
    first_xsede_job: date


def gateway_conversion(table: JobTable,
                       community_users: Mapping[str, str],
                       user_email: Mapping[str, str],
                       min_xsede_jobs: int = 10) -> list[ConversionRow]:
    """Gateway end users who later ran jobs under a personal allocation.

    Users are joined on an email-equivalence key; only users whose first
    gateway job precedes their first personal job and who ran strictly more
    than min_xsede_jobs personal jobs are reported.
    """
    gateway, pair = _gateway_users(table, community_users)
    gw = table.has_gateway_user
    personal = ~gw & table.user.isin(user_email)
    email = Codes.encode([user_email.get(name, "") for name in table.user.names])
    e, first, count = _firsts(email.codes[table.user.codes[personal]], table.submit[personal])
    personal_jobs = dict(zip(map(email.names.__getitem__, e.tolist()),
                             zip(first.tolist(), count.tolist())))
    width = len(table.gateway_user.names)
    rows = []
    for key, first_gw, count in zip(*(c.tolist() for c in _firsts(pair[gw], table.submit[gw]))):
        g, u = divmod(key, width)
        user_key = table.gateway_user.names[u]
        first_personal, personal_count = personal_jobs.get(user_key, (None, 0))
        if (first_personal is None or first_gw >= first_personal
                or personal_count <= min_xsede_jobs):
            continue
        rows.append(ConversionRow(
            gateway=gateway.names[g],
            user_key=user_key,
            gw_job_count=count,
            first_gw_job=utc_date(first_gw),
            xsede_job_count=personal_count,
            first_xsede_job=utc_date(first_personal),
        ))
    return rows
