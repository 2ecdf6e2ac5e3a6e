"""Jobs as numpy columns, with the derived columns the analyses share.

A ``JobTable`` holds one row per job, in the order given: the times, sizes
and charges of the records plus what every analysis used to recompute per
job (end day, period, SU factor, XD SU, core- and node-hours).  String
fields are integer codes into a sorted name table, so a group-by is an
``np.bincount`` over codes and its groups come out in sorted order.

Float totals are ``np.bincount`` sums: each group's weights are added left
to right from 0.0 in row order, as ``stats.total`` does (``np.sum`` sums
pairwise and is not used for report values).

``JobColumns`` holds the jobs as one column per ``JobRecord`` field, as the
job loader fills them or as read from records; ``JobTable.from_columns`` is
the one place the derived columns are computed.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Collection, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .ingest import JobRecord, ResourceSpec

SECONDS_PER_DAY = 86400
_EPOCH = date(1970, 1, 1)


def _same(value):
    return value


# string columns: (their JobRecord field, the name of one of its values)
_CODED = {
    "resource": ("resource", _same),
    "project": ("charge_number", _same),
    "user": ("user", _same),
    "queue": ("queue", _same),
    "directorate": ("directorate", _same),
    "parent_science": ("parent_science", _same),
    "field_of_science": ("field_of_science", _same),
    "nsf_user_status": ("nsf_user_status", attrgetter("value")),
    "state": ("state_of_origin", lambda value: value or "unknown"),
    "exit_status": ("exit_status", attrgetter("value")),
    "gateway_user": ("gateway_user", lambda value: value or ""),
}
# the JobRecord fields held as numbers
INT_FIELDS = ("submit_time", "start_time", "end_time", "nodes", "cores")
FLOAT_FIELDS = ("local_su_charged",)


def day_number(day: date) -> int:
    """Days from 1970-01-01 to ``day``; ``end_day`` counts the same way."""
    return (day - _EPOCH).days


def day_date(day: int) -> date:
    """The date ``day`` days after 1970-01-01; the inverse of ``day_number``."""
    return date.fromordinal(_EPOCH.toordinal() + day)


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

    def take(self, rows: np.ndarray) -> Codes:
        """The rows a boolean mask or an index array selects, with the same
        names."""
        return Codes(self.names, self.codes[rows])

    def isin(self, values: Collection[str]) -> np.ndarray:
        """Mask of the rows whose value is one of ``values``."""
        return np.array([name in values for name in self.names], dtype=bool)[self.codes]

    def present(self) -> list[str]:
        """The values some row has, sorted."""
        return [self.names[code] for code in np.unique(self.codes).tolist()]


@dataclass(frozen=True, eq=False)
class Factor:
    """A column as its distinct values and int32 codes: row i holds
    ``values[codes[i]]``.  ``values`` is in no order, may repeat a value and
    may hold values no row has."""

    values: tuple
    codes: np.ndarray

    @classmethod
    def of(cls, column: Sequence) -> Factor:
        index = {value: code for code, value in enumerate(dict.fromkeys(column))}
        return cls(tuple(index),
                   np.fromiter(map(index.__getitem__, column), np.int32, len(column)))

    def take(self, rows: np.ndarray) -> Factor:
        return Factor(self.values, self.codes[rows])

    def tolist(self) -> list:
        return list(map(self.values.__getitem__, self.codes.tolist()))

    def names(self, name_of: Callable) -> Codes:
        """Codes of ``name_of(v)`` for each row's value v; ``name_of`` is
        called once per distinct value that some row has."""
        used = np.flatnonzero(np.bincount(self.codes, minlength=len(self.values)))
        per_value = Codes.encode([name_of(self.values[i]) for i in used.tolist()])
        lookup = np.zeros(len(self.values), np.int32)
        lookup[used] = per_value.codes
        return Codes(per_value.names, lookup[self.codes])


@dataclass(frozen=True, eq=False)
class JobColumns:
    """Jobs as one column per JobRecord field, before any derived column:
    ``job_id`` an object array, the int fields int64, ``local_su_charged``
    float64 and every other field a ``Factor`` of the record's values
    (enum members, and None for an absent optional string)."""

    columns: Mapping[str, np.ndarray | Factor]

    @classmethod
    def of_records(cls, jobs: Sequence[JobRecord]) -> JobColumns:
        n = len(jobs)
        columns: dict[str, np.ndarray | Factor] = {
            "job_id": np.fromiter(map(attrgetter("job_id"), jobs), object, n)}
        for name in INT_FIELDS:
            columns[name] = np.fromiter(map(attrgetter(name), jobs), np.int64, n)
        for name in FLOAT_FIELDS:
            columns[name] = np.fromiter(map(attrgetter(name), jobs), np.float64, n)
        for name, _ in _CODED.values():
            columns[name] = Factor.of(list(map(attrgetter(name), jobs)))
        return cls(columns)

    def __len__(self) -> int:
        return len(self.columns["job_id"])

    def __getitem__(self, name: str) -> np.ndarray | Factor:
        return self.columns[name]

    def take(self, rows: np.ndarray) -> JobColumns:
        """The rows a boolean mask or an index array selects, in order."""
        return JobColumns({name: column.take(rows) if isinstance(column, Factor) else column[rows]
                           for name, column in self.columns.items()})


@dataclass(frozen=True, eq=False)
class JobTable:
    """One row per job.  ``su_factor``, ``xd_su`` and ``rtype`` are None for
    a table built without a resource map."""

    row: np.ndarray         # position in the job sequence the table was built from
    job_id: np.ndarray      # object array of the job id strings; ids may repeat
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
    local_su: np.ndarray    # float64 local SU charged
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
    exit_status: Codes
    gateway_user: Codes     # "" where there is none; has_gateway_user tells which
    has_gateway_user: np.ndarray  # bool: the gateway user is not None ("" is a name)

    @classmethod
    def of(cls, jobs: Sequence[JobRecord],
           resources: Mapping[str, ResourceSpec] | None = None) -> JobTable:
        """The table of job records, in their order: the one place a record
        list becomes the table every analysis takes.  A sequence that
        carries its ``JobColumns`` (as loaded jobs do) is built from them
        without reading a record.  ``resources`` gives the SU factor, XD SU
        and type columns."""
        columns = getattr(jobs, "columns", None)
        if not isinstance(columns, JobColumns):
            columns = JobColumns.of_records(jobs)
        return cls.from_columns(columns, resources)

    @classmethod
    def from_columns(cls, columns: JobColumns,
                     resources: Mapping[str, ResourceSpec] | None = None) -> JobTable:
        """The table of the jobs in ``columns``, with every derived column."""
        submit, start, end = columns["submit_time"], columns["start_time"], columns["end_time"]
        nodes, cores = columns["nodes"], columns["cores"]
        end_day = end // SECONDS_PER_DAY
        hours = (end - start) / 3600.0
        coded = {name: columns[field].names(name_of) for name, (field, name_of) in _CODED.items()}
        local_su = columns["local_su_charged"]
        su_factor = xd_su = rtype = None
        if resources is not None:
            su_factor = _su_factors(coded["resource"], end_day, resources)
            xd_su = local_su * su_factor
            rtype = _resource_types(coded["resource"], resources)
        gateway_user = columns["gateway_user"]
        has_gateway_user = np.array([value is not None for value in gateway_user.values],
                                    dtype=bool)[gateway_user.codes]
        return cls(row=np.arange(len(columns)), job_id=columns["job_id"],
                   submit=submit, start=start, end=end, nodes=nodes, cores=cores,
                   end_day=end_day, quarter=_period_codes(end_day, "quarter"),
                   year=_period_codes(end_day, "year"),
                   core_hours=cores * hours, node_hours=nodes * hours, local_su=local_su,
                   su_factor=su_factor, xd_su=xd_su, rtype=rtype,
                   has_gateway_user=has_gateway_user, **coded)

    def __len__(self) -> int:
        return len(self.submit)

    def take(self, rows: np.ndarray) -> JobTable:
        """The rows a boolean mask or an index array selects, in order; the
        name tables are shared, so codes keep their meaning."""
        out = {}
        for f in fields(self):
            column = getattr(self, f.name)
            if isinstance(column, Codes):
                column = column.take(rows)
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

    def per_resource(self, resources: Mapping[str, ResourceSpec],
                     value: Callable[[ResourceSpec], float | None]) -> np.ndarray:
        """``value(spec)`` of each row's resource as float64: NaN for a
        resource with no description or a None value."""
        per_name = np.array([value(resources[name]) if name in resources else None
                             for name in self.resource.names], dtype=np.float64)
        return per_name[self.resource.codes]

    def periods(self, period: str) -> Codes:
        if period not in ("quarter", "year"):
            raise ValueError(f"unknown period {period!r}")
        return getattr(self, period)


def one_group(n: int, name: str = "all") -> Codes:
    """A string column of n rows that all hold ``name``."""
    return Codes((name,), np.zeros(n, dtype=np.int32))


def labelled(values: np.ndarray, label: Callable[[float], str]) -> Codes:
    """Codes of ``label(v)`` for each value v, with ``label`` called once per
    distinct value (NaN is one value)."""
    distinct, inverse = np.unique(values, return_inverse=True)
    per_value = Codes.encode([label(v) for v in distinct.tolist()])
    return per_value.take(inverse.reshape(-1))


def group_totals(outer: Codes, inner: Codes, weights: np.ndarray) -> dict[str, dict[str, float]]:
    """The total weight of each (outer, inner) value pair that some row has,
    nested by outer value.  Each dict holds its keys in the order of their
    first row, and each total is an ``np.bincount`` over the rows in order."""
    width = len(inner.names)
    key = outer.codes.astype(np.int64) * width + inner.codes
    sums = np.bincount(key, weights=weights).tolist()
    keys, first = np.unique(key, return_index=True)
    out: dict[str, dict[str, float]] = {}
    for k in keys[np.argsort(first)].tolist():
        o, i = divmod(k, width)
        out.setdefault(outer.names[o], {})[inner.names[i]] = sums[k]
    return out


def _period_codes(end_day: np.ndarray, period: str) -> Codes:
    """Each row's period label, labelled through ``period_key`` once per
    distinct day."""
    return labelled(end_day, lambda day: period_key(day_date(day), period))


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
    return per_resource.take(resource.codes)
