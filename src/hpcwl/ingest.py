"""Load, validate and normalize job accounting, allocation and resource data.

Input formats are JSON-lines and CSV with the headers documented in
docs/formats.md.  Loaded records are immutable; a Dataset is safe to share
across threads.  Local SU amounts are converted to XD SU through per-resource,
date-ranged conversion factors.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    MissingGeometry,
    NoFactorForDate,
    OverlappingFactorWindows,
    SchemaError,
    TimestampOrderError,
)

OPEN_END = date(9999, 12, 31)
SECONDS_PER_HOUR = 3600.0
AGGREGATED_ACCOUNTING_SECONDS = 30 * 86400  # cloud rows longer than this are suspect


class ExitStatus(str, Enum):
    COMPLETED = "completed"
    CANCELED = "canceled"
    TIMEOUT = "timeout"
    FAILED = "failed"
    NODE_FAIL = "node_fail"
    NOT_AVAILABLE = "not_available"


class NsfUserStatus(str, Enum):
    FACULTY = "faculty"
    POSTDOC = "postdoc"
    GRAD_STUDENT = "grad_student"
    UNIV_RESEARCH_STAFF = "univ_research_staff"
    OTHER = "other"
    UNKNOWN = "unknown"


class ResourceType(str, Enum):
    HPC = "HPC"
    HTC = "HTC"
    DIC = "DIC"
    CLOUD = "Cloud"
    VIS = "Vis"


class SuUnit(str, Enum):
    CORE_HOUR = "core_hour"
    NODE_HOUR = "node_hour"


class AllocType(str, Enum):
    XRAC = "XRAC"
    RESEARCH = "Research"
    TRAC = "TRAC"
    STARTUP = "Startup"
    CAMPUS_CHAMPIONS = "CampusChampions"
    STAFF = "Staff"
    EDUCATIONAL = "Educational"
    DISCRETIONARY = "Discretionary"
    XSEDE2_STAFF = "XSEDE2Staff"
    SOFTWARE_TESTBEDS = "SoftwareTestbeds"


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def utc_date(epoch_seconds: int) -> date:
    """UTC calendar day of integer Unix seconds.

    Floor division keeps days before 1970 right; equals
    ``datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).date()``.
    """
    return date.fromordinal(_EPOCH_ORDINAL + epoch_seconds // 86400)


def parse_date(text: str) -> date:
    return date.fromisoformat(text)


@dataclass(frozen=True, slots=True)
class JobRecord:
    """One scheduler accounting row."""

    job_id: str
    resource: str
    user: str
    charge_number: str
    directorate: str
    parent_science: str
    field_of_science: str
    nsf_user_status: NsfUserStatus
    submit_time: int
    start_time: int
    end_time: int
    nodes: int
    cores: int
    queue: str
    exit_status: ExitStatus
    gateway_user: str | None = None
    state_of_origin: str | None = None
    local_su_charged: float = 0.0

    def __post_init__(self):
        if not self.submit_time <= self.start_time <= self.end_time:
            raise ValueError(f"job {self.job_id}: timestamps out of order")
        if self.nodes < 1 or self.cores < 1:
            raise ValueError(f"job {self.job_id}: nodes and cores must be >= 1")
        if self.cores < self.nodes:
            raise ValueError(f"job {self.job_id}: cores < nodes")
        if self.local_su_charged < 0:
            raise ValueError(f"job {self.job_id}: negative SU charge")

    @property
    def project_hierarchy(self) -> tuple[str, str, str]:
        return (self.directorate, self.parent_science, self.field_of_science)

    @property
    def wait_seconds(self) -> int:
        return self.start_time - self.submit_time

    @property
    def wall_seconds(self) -> int:
        return self.end_time - self.start_time

    @property
    def wall_hours(self) -> float:
        return self.wall_seconds / SECONDS_PER_HOUR

    @property
    def core_hours(self) -> float:
        return self.cores * self.wall_hours

    @property
    def node_hours(self) -> float:
        return self.nodes * self.wall_hours

    @property
    def end_date(self) -> date:
        return utc_date(self.end_time)

    @property
    def submit_date(self) -> date:
        return utc_date(self.submit_time)


@dataclass(frozen=True, slots=True)
class FactorWindow:
    """One [start, end) validity window of a local-SU -> XD-SU factor."""

    start: date
    end: date
    factor: float

    def __post_init__(self):
        if self.factor <= 0:
            raise ValueError("conversion factor must be positive")
        if self.end <= self.start:
            raise ValueError("factor window end must be after start")

    def covers(self, on_date: date) -> bool:
        return self.start <= on_date < self.end


@dataclass(frozen=True, slots=True)
class ResourceSpec:
    """A machine: geometry, type, production window and SU factors."""

    name: str
    rtype: ResourceType
    nodes: int
    cores_per_node: int
    production_start: date
    production_end: date
    su_factors: tuple[FactorWindow, ...]
    su_unit: SuUnit = SuUnit.CORE_HOUR
    mem_per_node: int | None = None  # bytes
    large_memory_queues: frozenset[str] = frozenset()
    shared_queues: frozenset[str] = frozenset()
    large_mem_per_node: int | None = None  # bytes, large-memory nodes

    def __post_init__(self):
        if self.nodes < 1 or self.cores_per_node < 1:
            raise MissingGeometry(self.name)
        ordered = tuple(sorted(self.su_factors, key=lambda w: w.start))
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start < prev.end:
                raise OverlappingFactorWindows(self.name)
        object.__setattr__(self, "su_factors", ordered)

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    def factor_for(self, on_date: date) -> float:
        for window in self.su_factors:
            if window.covers(on_date):
                return window.factor
        raise NoFactorForDate(self.name, on_date)

    def mem_per_core(self) -> int | None:
        if self.mem_per_node is None:
            return None
        return self.mem_per_node // self.cores_per_node


@dataclass(frozen=True, slots=True)
class AllocationRecord:
    """An award: charge number x resource."""

    charge_number: str
    resource: str
    alloc_type: AllocType
    discipline: str
    awarded_local_su: float
    used_local_su: float
    award_date: date
    is_gateway_tagged: bool = False

    def __post_init__(self):
        if self.awarded_local_su < 0 or self.used_local_su < 0:
            raise ValueError("allocation SU amounts must be nonnegative")

    @property
    def key(self) -> tuple[str, str]:
        return (self.charge_number, self.resource)


@dataclass(frozen=True, slots=True)
class QualityFlag:
    """A data-quality issue attached to a loaded record."""

    kind: str  # job | allocation | resource
    locator: str  # job_id, "charge_number/resource", or resource name
    code: str
    detail: str = ""


@dataclass(frozen=True, slots=True)
class Rejection:
    """One rejected input row, for the rejection report."""

    row: int
    field: str | None
    code: str


@dataclass(frozen=True)
class Dataset:
    """Immutable container for the four normalized inputs."""

    jobs: tuple[JobRecord, ...]
    allocations: tuple[AllocationRecord, ...]
    resources: Mapping[str, ResourceSpec]
    quality_flags: tuple[QualityFlag, ...] = ()

    def resource_of(self, job: JobRecord) -> ResourceSpec:
        return self.resources[job.resource]

    def resolve_flag(self, flag: QualityFlag):
        """Return the record a quality flag points at, or None."""
        if flag.kind == "job":
            for job in self.jobs:
                if job.job_id == flag.locator:
                    return job
        elif flag.kind == "allocation":
            for alloc in self.allocations:
                if f"{alloc.charge_number}/{alloc.resource}" == flag.locator:
                    return alloc
        elif flag.kind == "resource":
            return self.resources.get(flag.locator)
        return None


# ---------------------------------------------------------------------------
# field parsing

JOB_FIELDS = (
    "job_id", "resource", "user", "charge_number",
    "directorate", "parent_science", "field_of_science", "nsf_user_status",
    "submit_time", "start_time", "end_time", "nodes", "cores", "queue",
    "exit_status", "gateway_user", "state_of_origin", "local_su_charged",
)

ALLOCATION_FIELDS = (
    "charge_number", "resource", "alloc_type", "discipline",
    "awarded_local_su", "used_local_su", "award_date", "is_gateway_tagged",
)


def _need(raw: Mapping, row: int, name: str):
    value = raw.get(name)
    if value is None or value == "":
        raise SchemaError(row, name, f"row {row}: missing field {name!r}")
    return value


def _as_int(raw, row: int, name: str) -> int:
    """An integer field; booleans and non-integral numbers are rejected."""
    value = _need(raw, row, name)
    kind = type(value)
    if kind is bool or (kind is float and not value.is_integer()):
        raise SchemaError(row, name)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise SchemaError(row, name) from None


def _as_float(raw, row: int, name: str) -> float:
    """A finite float field; booleans, NaN and infinities are rejected."""
    value = _need(raw, row, name)
    if type(value) is bool:
        raise SchemaError(row, name)
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise SchemaError(row, name) from None
    if not math.isfinite(out):
        raise SchemaError(row, name)
    return out


def _as_enum(raw, row: int, name: str, enum_cls):
    value = _need(raw, row, name)
    try:
        return enum_cls(value)
    except ValueError:
        raise SchemaError(row, name, f"row {row}: {value!r} is not a valid {name}") from None


def _optional_str(raw: Mapping, name: str) -> str | None:
    value = raw.get(name)
    if value in (None, ""):
        return None
    return str(value)


def _job_from_raw(raw: Mapping, row: int) -> JobRecord:
    submit = _as_int(raw, row, "submit_time")
    start = _as_int(raw, row, "start_time")
    end = _as_int(raw, row, "end_time")
    if not submit <= start <= end:
        raise TimestampOrderError(row)
    nodes = _as_int(raw, row, "nodes")
    cores = _as_int(raw, row, "cores")
    if nodes < 1:
        raise SchemaError(row, "nodes", f"row {row}: nodes must be >= 1")
    if cores < 1 or cores < nodes:
        raise SchemaError(row, "cores", f"row {row}: cores must be >= nodes >= 1")
    su = _as_float(raw, row, "local_su_charged")
    if su < 0:
        raise SchemaError(row, "local_su_charged", f"row {row}: negative SU charge")
    return JobRecord(
        job_id=str(_need(raw, row, "job_id")),
        resource=str(_need(raw, row, "resource")),
        user=str(_need(raw, row, "user")),
        charge_number=str(_need(raw, row, "charge_number")),
        directorate=str(_need(raw, row, "directorate")),
        parent_science=str(_need(raw, row, "parent_science")),
        field_of_science=str(_need(raw, row, "field_of_science")),
        nsf_user_status=_as_enum(raw, row, "nsf_user_status", NsfUserStatus),
        submit_time=submit,
        start_time=start,
        end_time=end,
        nodes=nodes,
        cores=cores,
        queue=str(_need(raw, row, "queue")),
        exit_status=_as_enum(raw, row, "exit_status", ExitStatus),
        gateway_user=_optional_str(raw, "gateway_user"),
        state_of_origin=_optional_str(raw, "state_of_origin"),
        local_su_charged=su,
    )


def _allocation_from_raw(raw: Mapping, row: int) -> AllocationRecord:
    awarded = _as_float(raw, row, "awarded_local_su")
    used = _as_float(raw, row, "used_local_su")
    if awarded < 0:
        raise SchemaError(row, "awarded_local_su")
    if used < 0:
        raise SchemaError(row, "used_local_su")
    tagged_raw = raw.get("is_gateway_tagged", False)
    if isinstance(tagged_raw, str):
        tagged = tagged_raw.strip().lower() in ("1", "true", "yes")
    else:
        tagged = bool(tagged_raw)
    try:
        award_date = parse_date(str(_need(raw, row, "award_date")))
    except ValueError:
        raise SchemaError(row, "award_date") from None
    return AllocationRecord(
        charge_number=str(_need(raw, row, "charge_number")),
        resource=str(_need(raw, row, "resource")),
        alloc_type=_as_enum(raw, row, "alloc_type", AllocType),
        discipline=str(_need(raw, row, "discipline")),
        awarded_local_su=awarded,
        used_local_su=used,
        award_date=award_date,
        is_gateway_tagged=tagged,
    )


def _iter_raw_rows(path, fmt: str):
    """Yield (row_number, mapping) pairs; row numbers are 1-based data rows."""
    if fmt == "jsonl":
        with open(path, "r", encoding="utf-8") as handle:
            for row, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                except json.JSONDecodeError:
                    raise SchemaError(row, None, f"row {row}: invalid JSON") from None
                if not isinstance(raw, dict):
                    raise SchemaError(row, None, f"row {row}: expected an object")
                yield row, raw
    elif fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            for row, raw in enumerate(reader, start=1):
                yield row, raw
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _load_records(path, fmt, parse_one, reject_sink):
    records = []
    saw_rows = False
    for row, raw in _iter_raw_rows(path, fmt):
        saw_rows = True
        try:
            records.append(parse_one(raw, row))
        except SchemaError as err:
            if reject_sink is None:
                raise
            code = "timestamp_order" if isinstance(err, TimestampOrderError) else "schema"
            reject_sink.append(Rejection(row=err.row, field=err.field, code=code))
    if saw_rows and not records:
        raise SchemaError(0, None, "no rows survived validation")
    return records


def load_jobs(path, fmt: str = "jsonl", reject_sink: list | None = None) -> list[JobRecord]:
    """Load job accounting records in file order.

    With reject_sink=None any malformed row raises immediately.  When a list
    is supplied, malformed rows are appended to it as Rejection entries and
    loading continues; the load fails only if no row survives.
    """
    return _load_records(path, fmt, _job_from_raw, reject_sink)


def load_allocations(path, fmt: str = "jsonl", reject_sink: list | None = None) -> list[AllocationRecord]:
    """Load allocation records; zero-use and duplicate records are retained."""
    return _load_records(path, fmt, _allocation_from_raw, reject_sink)


def write_rejection_report(rejections: Iterable[Rejection], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rej in rejections:
            handle.write(json.dumps(
                {"row": rej.row, "field": rej.field, "code": rej.code},
                sort_keys=True))
            handle.write("\n")


def _parse_factor_end(value) -> date:
    if value in (None, "", "current", "Current"):
        return OPEN_END
    return parse_date(str(value))


def resource_from_dict(raw: Mapping) -> ResourceSpec:
    name = str(raw.get("name", ""))
    if not name:
        raise SchemaError(0, "name", "resource without a name")
    if not raw.get("nodes") or not raw.get("cores_per_node"):
        raise MissingGeometry(name)
    windows = []
    for win in raw.get("su_factors", ()):
        windows.append(FactorWindow(
            start=parse_date(str(win["start"])),
            end=_parse_factor_end(win.get("end")),
            factor=float(win["factor"]),
        ))
    mem = raw.get("mem_per_node")
    large_mem = raw.get("large_mem_per_node")
    return ResourceSpec(
        name=name,
        rtype=ResourceType(raw["rtype"]),
        nodes=int(raw["nodes"]),
        cores_per_node=int(raw["cores_per_node"]),
        production_start=parse_date(str(raw["production_start"])),
        production_end=_parse_factor_end(raw.get("production_end")),
        su_factors=tuple(windows),
        su_unit=SuUnit(raw.get("su_unit", "core_hour")),
        mem_per_node=int(mem) if mem is not None else None,
        large_memory_queues=frozenset(raw.get("large_memory_queues", ())),
        shared_queues=frozenset(raw.get("shared_queues", ())),
        large_mem_per_node=int(large_mem) if large_mem is not None else None,
    )


def load_resources(path) -> dict[str, ResourceSpec]:
    """Load resource descriptions from a JSON file (list of objects)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, Mapping):
        doc = doc.get("resources", [])
    out: dict[str, ResourceSpec] = {}
    for raw in doc:
        spec = resource_from_dict(raw)
        out[spec.name] = spec
    return out


def builtin_resources() -> dict[str, ResourceSpec]:
    """Resource descriptions bundled with the package (geometry, production
    windows and SU factor windows for the systems covered by the analyses)."""
    from importlib import resources as importlib_resources

    text = importlib_resources.files("hpcwl.data").joinpath("resources.json").read_text("utf-8")
    doc = json.loads(text)
    out: dict[str, ResourceSpec] = {}
    for raw in doc["resources"]:
        spec = resource_from_dict(raw)
        out[spec.name] = spec
    return out


def su_convert(resources: Mapping[str, ResourceSpec], amount: float, resource: str,
               on_date: date, direction: str = "to_xd") -> float:
    """Convert between local SU and XD SU at a resource's factor for a date.

    Node-hour resources convert node-hour amounts; the caller supplies the
    amount in the resource's native unit (see docs/formats.md).
    """
    spec = resources.get(resource)
    if spec is None:
        raise KeyError(f"unknown resource {resource!r}")
    factor = spec.factor_for(on_date)
    if direction == "to_xd":
        return amount * factor
    if direction == "from_xd":
        return amount / factor
    raise ValueError(f"direction must be to_xd or from_xd, got {direction!r}")


def job_xd_su(job: JobRecord, resources: Mapping[str, ResourceSpec]) -> float:
    """XD SU charged for a job; the charge is booked at the job's end date."""
    return su_convert(resources, job.local_su_charged, job.resource,
                      job.end_date, "to_xd")


def build_dataset(jobs: Sequence[JobRecord],
                  allocations: Sequence[AllocationRecord],
                  resources: Mapping[str, ResourceSpec]) -> Dataset:
    """Assemble the immutable Dataset; jobs on unknown resources are dropped
    with a quality flag so the resource-resolution invariant holds."""
    flags: list[QualityFlag] = []
    kept_jobs = []
    for job in jobs:
        if job.resource not in resources:
            flags.append(QualityFlag("job", job.job_id, "unknown_resource", job.resource))
        else:
            kept_jobs.append(job)
    seen_keys: set[tuple[str, str]] = set()
    for alloc in allocations:
        locator = f"{alloc.charge_number}/{alloc.resource}"
        if alloc.key in seen_keys:
            flags.append(QualityFlag("allocation", locator, "duplicate_allocation"))
        seen_keys.add(alloc.key)
        if alloc.used_local_su == 0:
            flags.append(QualityFlag("allocation", locator, "unused_allocation"))
        if alloc.resource not in resources:
            flags.append(QualityFlag("allocation", locator, "unknown_resource", alloc.resource))
    return Dataset(
        jobs=tuple(kept_jobs),
        allocations=tuple(allocations),
        resources=MappingProxyType(dict(resources)),
        quality_flags=tuple(flags),
    )


def validate(dataset: Dataset) -> list[QualityFlag]:
    """Flag jobs outside production windows, geometry violations and
    aggregated-accounting suspects (cloud rows spanning more than 30 days)."""
    flags: list[QualityFlag] = []
    for job in dataset.jobs:
        spec = dataset.resource_of(job)
        start_day = utc_date(job.start_time)
        if start_day < spec.production_start or start_day > spec.production_end:
            flags.append(QualityFlag("job", job.job_id, "production_window",
                                     f"{start_day} outside {spec.production_start}..{spec.production_end}"))
        if job.cores > spec.total_cores:
            flags.append(QualityFlag("job", job.job_id, "geometry",
                                     f"{job.cores} cores > {spec.total_cores} available"))
        if (spec.rtype is ResourceType.CLOUD
                and job.wall_seconds > AGGREGATED_ACCOUNTING_SECONDS):
            flags.append(QualityFlag("job", job.job_id, "aggregated_accounting",
                                     f"{job.wall_seconds}s duration on cloud resource"))
    return flags
