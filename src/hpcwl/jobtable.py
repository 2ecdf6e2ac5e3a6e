"""Jobs as numpy columns, with the derived columns the analyses share.

A ``JobTable`` holds one row per job, in the order given: the times, sizes
and charges of the records plus what every analysis used to recompute per
job (end day, period, SU factor, XD SU, core- and node-hours).  String
fields are integer codes into a sorted name table, so a group-by is an
``np.bincount`` over codes and its groups come out in sorted order.

Float totals are ``np.bincount`` sums: each group's weights are added left
to right from 0.0 in row order, as ``stats.total`` does (``np.sum`` sums
pairwise and is not used for report values).

``JobTable.from_columns`` builds the table from the jobs' columns, one per
``JobRecord`` field (``ingest.JobSequence.columns``), and a resource map,
and is the one place the derived columns are computed.  A resource the map
does not describe (every resource, for an empty map) has a NaN SU factor
and XD SU and the type "unknown".

``JobTable.take`` copies no column up front.  A taken table holds the table
built by ``from_columns`` and the numbers of its selected rows, and copies a
column on its first read, so an analysis of a subset pays only for the
columns it reads.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Collection, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .ingest import ResourceSpec

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
        used = np.bincount(self.codes, minlength=len(self.names))
        return [self.names[code] for code in np.flatnonzero(used).tolist()]


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
class JobTable:
    """One row per job.  ``resources`` is the resource map the table was
    built with."""

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
    su_factor: np.ndarray   # float64, NaN where no factor window covers the end day
    xd_su: np.ndarray       # local SU x su_factor (NaN likewise)
    rtype: Codes            # the resource's type, "unknown" for an undescribed resource
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
    resources: Mapping[str, ResourceSpec]

    def __post_init__(self):
        read_only(self)

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray | Factor],
                     resources: Mapping[str, ResourceSpec]) -> JobTable:
        """The table of the jobs in ``columns``, one per JobRecord field:
        ``job_id`` an object array, the int fields int64,
        ``local_su_charged`` float64 and every other field a ``Factor`` of
        the record's values (enum members, and None for an absent optional
        string).  ``resources`` gives the SU factor, XD SU and type
        columns; an empty map describes no resource."""
        submit, start, end = columns["submit_time"], columns["start_time"], columns["end_time"]
        nodes, cores = columns["nodes"], columns["cores"]
        end_day = end // SECONDS_PER_DAY
        hours = (end - start) / 3600.0
        coded = {name: columns[field].names(name_of) for name, (field, name_of) in _CODED.items()}
        local_su = columns["local_su_charged"]
        su_factor = _su_factors(coded["resource"], end_day, resources)
        gateway_user = columns["gateway_user"]
        has_gateway_user = np.array([value is not None for value in gateway_user.values],
                                    dtype=bool)[gateway_user.codes]
        return cls(row=np.arange(len(end)), job_id=columns["job_id"],
                   submit=submit, start=start, end=end, nodes=nodes, cores=cores,
                   end_day=end_day, quarter=_period_codes(end_day, "quarter"),
                   year=_period_codes(end_day, "year"),
                   core_hours=cores * hours, node_hours=nodes * hours, local_su=local_su,
                   su_factor=su_factor, xd_su=local_su * su_factor,
                   rtype=_resource_types(coded["resource"], resources),
                   has_gateway_user=has_gateway_user, resources=resources, **coded)

    def __len__(self) -> int:
        taken = self.__dict__.get("_taken")
        return len(self.submit) if taken is None else len(taken[1])

    def __getattr__(self, name: str):
        """A column of a taken table, copied from the built table on its
        first read, made read-only and kept."""
        taken = self.__dict__.get("_taken")
        if taken is None or name not in _FIELDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        built, rows = taken
        column = getattr(built, name)
        if isinstance(column, Codes):
            column = column.take(rows)
            column.codes.flags.writeable = False
        elif isinstance(column, np.ndarray):
            column = column[rows]
            column.flags.writeable = False
        self.__dict__[name] = column
        return column

    def take(self, rows: np.ndarray) -> JobTable:
        """The rows a boolean mask or an index array selects, in order; the
        name tables and the resource map are shared, so codes keep their
        meaning.  A selection of every row in order gives this table.  Any
        other holds the numbers of its rows in the built table, a take of a
        take included, and copies each column on its first read."""
        if selects_all(rows, len(self)):
            return self
        built, within = self.__dict__.get("_taken", (self, None))
        if within is None:
            within = np.arange(len(self))
        taken = object.__new__(JobTable)
        # indexing checks the rows as a column's take would: a mask of
        # another length or a row out of range raises IndexError here
        taken.__dict__["_taken"] = (built, within[rows])
        return taken

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
            return self.xd_su
        raise ValueError(f"unknown weight {weight!r}")

    def per_resource(self, value: Callable[[ResourceSpec], float | None]) -> np.ndarray:
        """``value(spec)`` of each row's resource as float64: NaN for a
        resource with no description or a None value."""
        resources = self.resources
        per_name = np.array([value(resources[name]) if name in resources else None
                             for name in self.resource.names], dtype=np.float64)
        return per_name[self.resource.codes]

    def periods(self, period: str) -> Codes:
        if period not in ("quarter", "year"):
            raise ValueError(f"unknown period {period!r}")
        return getattr(self, period)


_FIELDS = frozenset(f.name for f in fields(JobTable))


def selects_all(rows: np.ndarray, n: int) -> bool:
    """Whether ``rows`` selects each of n rows once, in order: an all-True
    mask or the index array ``arange(n)``.  A take of such rows may return
    the table itself, since its columns are read-only."""
    rows = np.asarray(rows)
    if len(rows) != n:
        return False
    if rows.dtype == bool:
        return bool(rows.all())
    return np.array_equal(rows, np.arange(n))


def read_only(table) -> None:
    """Make every array of a dataclass of columns read-only, each
    ``Codes.codes`` included, so tables that share a column cannot write
    into each other's rows."""
    for f in fields(table):
        column = getattr(table, f.name)
        if isinstance(column, Codes):
            column = column.codes
        if isinstance(column, np.ndarray):
            column.flags.writeable = False


def distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, as ``np.unique``
    returns them.  ``np.unique`` with no ``return_*`` flag first asks
    ``np.ma.is_masked``, and so imports ``numpy.ma`` on its first call (some
    10 ms and 0.5 MB for a report run); this sorts and keeps each value that
    differs from the one before, and never touches ``numpy.ma``."""
    ordered = np.sort(values, axis=None)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def one_group(n: int, name: str = "all") -> Codes:
    """A string column of n rows that all hold ``name``."""
    return Codes((name,), np.zeros(n, dtype=np.int32))


def labelled(values: np.ndarray, label: Callable[[float], str]) -> Codes:
    """Codes of ``label(v)`` for each value v, with ``label`` called once per
    distinct value (NaN is one value)."""
    unique, inverse = np.unique(values, return_inverse=True)
    per_value = Codes.encode([label(v) for v in unique.tolist()])
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
