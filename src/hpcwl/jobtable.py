"""Jobs as numpy columns, with the derived columns the analyses share.

A ``JobTable`` holds one row per job, in the order given: the times, sizes
and charges of the records plus what every analysis used to recompute per
job (end day, period, SU factor, XD SU, core- and node-hours).  String
fields are integer codes into a sorted name table, so a group-by is an
``np.bincount`` over codes and its groups come out in sorted order.

Float totals are ``np.bincount`` sums: each group's weights are added left
to right from 0.0 in row order, as ``stats.total`` does (``np.sum`` sums
pairwise and is not used for report values).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from operator import attrgetter
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .ingest import JobRecord, ResourceSpec

SECONDS_PER_DAY = 86400
_EPOCH = date(1970, 1, 1)

# string columns: their JobRecord value
_CODED = {
    "resource": attrgetter("resource"),
    "project": attrgetter("charge_number"),
    "user": attrgetter("user"),
    "queue": attrgetter("queue"),
    "directorate": attrgetter("directorate"),
    "parent_science": attrgetter("parent_science"),
    "field_of_science": attrgetter("field_of_science"),
    "nsf_user_status": lambda job: job.nsf_user_status.value,
    "state": lambda job: job.state_of_origin or "unknown",
}


def day_number(day: date) -> int:
    """Days from 1970-01-01 to ``day``; ``end_day`` counts the same way."""
    return (day - _EPOCH).days


def period_key(day: date, period: str) -> str:
    if period == "year":
        return f"{day.year}"
    if period == "quarter":
        return f"{day.year}-Q{(day.month - 1) // 3 + 1}"
    raise ValueError(f"unknown period {period!r}")


@dataclass(frozen=True, eq=False)
class Codes:
    """A string column: ``names[codes[i]]`` is row i's value.  ``names`` is
    sorted and may hold values no row has (after ``JobTable.take``).  Codes
    are int32, to keep the table small."""

    names: tuple[str, ...]
    codes: np.ndarray

    @classmethod
    def encode(cls, values: Sequence[str]) -> Codes:
        names = sorted(set(values))
        index = dict(zip(names, range(len(names))))
        return cls(tuple(names),
                   np.fromiter(map(index.__getitem__, values), np.int32, len(values)))

    def isin(self, values: Collection[str]) -> np.ndarray:
        """Mask of the rows whose value is one of ``values``."""
        return np.array([name in values for name in self.names], dtype=bool)[self.codes]

    def present(self) -> list[str]:
        """The values some row has, sorted."""
        return [self.names[code] for code in np.unique(self.codes).tolist()]


@dataclass(frozen=True, eq=False)
class JobTable:
    """One row per job.  ``su_factor``, ``xd_su`` and ``rtype`` are None for
    a table built without a resource map."""

    row: np.ndarray         # position in the job sequence the table was built from
    submit: np.ndarray      # int64 Unix seconds
    start: np.ndarray
    end: np.ndarray
    nodes: np.ndarray       # int64
    cores: np.ndarray
    end_day: np.ndarray     # end // 86400: days since 1970-01-01, floored like utc_date
    quarter: Codes          # "YYYY-Qn" of the end day
    year: Codes             # "YYYY" of the end day
    core_hours: np.ndarray  # cores * ((end - start) / 3600.0), as JobRecord
    node_hours: np.ndarray
    su_factor: np.ndarray | None  # float64, NaN where no factor window covers the end day
    xd_su: np.ndarray | None      # local SU x su_factor (NaN likewise)
    rtype: Codes | None     # the resource's type, "unknown" for an unknown resource
    resource: Codes
    project: Codes          # charge number
    user: Codes
    queue: Codes
    directorate: Codes
    parent_science: Codes
    field_of_science: Codes
    nsf_user_status: Codes
    state: Codes            # state of origin, "unknown" when absent

    @classmethod
    def of(cls, jobs: JobTable | Sequence[JobRecord],
           resources: Mapping[str, ResourceSpec] | None = None) -> JobTable:
        """The table of ``jobs``, in their order; a JobTable is returned as
        it is.  ``resources`` gives the SU factor, XD SU and type columns."""
        if isinstance(jobs, JobTable):
            return jobs
        n = len(jobs)

        def ints(attr: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(attr), jobs), np.int64, n)

        submit, start, end = ints("submit_time"), ints("start_time"), ints("end_time")
        nodes, cores = ints("nodes"), ints("cores")
        end_day = end // SECONDS_PER_DAY
        hours = (end - start) / 3600.0
        coded = {name: Codes.encode(list(map(value, jobs))) for name, value in _CODED.items()}
        su_factor = xd_su = rtype = None
        if resources is not None:
            su_factor = _su_factors(coded["resource"], end_day, resources)
            xd_su = np.fromiter(map(attrgetter("local_su_charged"), jobs), np.float64, n)
            xd_su *= su_factor
            rtype = _resource_types(coded["resource"], resources)
        return cls(row=np.arange(n), submit=submit, start=start, end=end, nodes=nodes, cores=cores,
                   end_day=end_day, quarter=_period_codes(end_day, "quarter"),
                   year=_period_codes(end_day, "year"),
                   core_hours=cores * hours, node_hours=nodes * hours,
                   su_factor=su_factor, xd_su=xd_su, rtype=rtype, **coded)

    def __len__(self) -> int:
        return len(self.submit)

    def take(self, rows: np.ndarray) -> JobTable:
        """The rows a boolean mask or an index array selects, in order; the
        name tables are shared, so codes keep their meaning."""
        out = {}
        for f in fields(self):
            column = getattr(self, f.name)
            if isinstance(column, Codes):
                column = Codes(column.names, column.codes[rows])
            elif column is not None:
                column = column[rows]
            out[f.name] = column
        return JobTable(**out)

    def weights(self, weight: str) -> np.ndarray:
        """The float weight of each row: "jobs" (1.0), "core_hours",
        "node_hours" or "xd_su" (NaN where no factor applies)."""
        if weight == "jobs":
            return np.ones(len(self))
        if weight == "core_hours":
            return self.core_hours
        if weight == "node_hours":
            return self.node_hours
        if weight == "xd_su":
            if self.xd_su is None:
                raise ValueError("xd_su weighting needs the resource map")
            return self.xd_su
        raise ValueError(f"unknown weight {weight!r}")

    def periods(self, period: str) -> Codes:
        if period not in ("quarter", "year"):
            raise ValueError(f"unknown period {period!r}")
        return getattr(self, period)


def _period_codes(end_day: np.ndarray, period: str) -> Codes:
    """Each row's period label, labelled through ``period_key`` once per
    distinct day."""
    days, inverse = np.unique(end_day, return_inverse=True)
    per_day = Codes.encode([period_key(date.fromordinal(_EPOCH.toordinal() + day),
                                       period) for day in days.tolist()])
    return Codes(per_day.names, per_day.codes[inverse.reshape(-1)])


def _su_factors(resource: Codes, end_day: np.ndarray,
                resources: Mapping[str, ResourceSpec]) -> np.ndarray:
    """The factor of the window covering each row's end day, or NaN."""
    factor = np.full(len(end_day), np.nan)
    for code, name in enumerate(resource.names):
        spec = resources.get(name)
        if spec is None:
            continue
        on = resource.codes == code
        for window in spec.su_factors:
            factor[on & (end_day >= day_number(window.start))
                   & (end_day < day_number(window.end))] = window.factor
    return factor


def _resource_types(resource: Codes, resources: Mapping[str, ResourceSpec]) -> Codes:
    per_resource = Codes.encode([resources[name].rtype.value if name in resources
                                 else "unknown" for name in resource.names])
    return Codes(per_resource.names, per_resource.codes[resource.codes])
