"""Load, validate and normalize job accounting, allocation and resource data.

Input formats are JSON-lines and CSV with the headers documented in
docs/formats.md; one reader per format serves the job and allocation
loaders.  A Dataset holds its jobs as columns (a ``JobSequence``), and
``JobRecord`` is the job schema and the judge of a malformed row.  Loaded
inputs are immutable; a Dataset is safe to share across threads.  Local SU
amounts are converted to XD SU through per-resource, date-ranged
conversion factors.
"""
from __future__ import annotations

import csv
import json
import json.scanner
import math
import re
from dataclasses import dataclass, fields, replace
from datetime import date
from enum import Enum
from functools import cache, cached_property
from itertools import compress, islice, repeat
from types import MappingProxyType, SimpleNamespace
from typing import Callable, Iterable, Mapping, Sequence, get_type_hints

import numpy as np

from .errors import (
    MissingGeometry,
    NoFactorForDate,
    OverlappingFactorWindows,
    SchemaError,
    TimestampOrderError,
)
from .jobtable import SECONDS_PER_DAY, Factor, JobTable, day_date, day_number

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


def utc_date(epoch_seconds: int) -> date:
    """UTC calendar day of integer Unix seconds.

    Floor division keeps days before 1970 right; equals
    ``datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).date()``.
    """
    return day_date(epoch_seconds // SECONDS_PER_DAY)


class _BrokenRule(ValueError):
    """A record breaks one of its rules; ``field`` names the field the rule
    blames (None for the timestamp order)."""

    def __init__(self, field: str | None, reason: str, record: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{record}: {reason}")


def _keep_rules(record, rules, describe: str) -> None:
    """Raise _BrokenRule for the first of ``rules`` that ``record`` breaks;
    ``describe.format(record)`` names the record in the message."""
    for field_name, reason, holds in rules:
        if not holds(record):
            raise _BrokenRule(field_name, reason, describe.format(record))


# The row rules, in their one copy each: (the field a broken rule blames, None
# for the timestamp order; the reason; a predicate that holds for a valid
# row).  The job predicates use only <=, >= and &, so the same code checks
# one JobRecord and the numpy columns of a whole chunk of rows.
JOB_RULES = (
    (None, "timestamps out of order",
     lambda job: (job.submit_time <= job.start_time) & (job.start_time <= job.end_time)),
    ("nodes", "nodes must be >= 1", lambda job: job.nodes >= 1),
    ("cores", "cores must be >= nodes >= 1", lambda job: job.cores >= job.nodes),
    ("local_su_charged", "negative SU charge", lambda job: job.local_su_charged >= 0),
)


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
        # the loaders turn a broken rule into a SchemaError naming the row
        _keep_rules(self, JOB_RULES, "job {0.job_id}")

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


ALLOCATION_RULES = (
    ("awarded_local_su", "negative SU award", lambda alloc: alloc.awarded_local_su >= 0),
    ("used_local_su", "negative SU use", lambda alloc: alloc.used_local_su >= 0),
)


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
        _keep_rules(self, ALLOCATION_RULES, "allocation {0.charge_number}/{0.resource}")

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
    """Immutable container for the four normalized inputs.  ``jobs`` is the
    ``JobSequence`` of the jobs, held as columns."""

    jobs: JobSequence
    allocations: tuple[AllocationRecord, ...]
    resources: Mapping[str, ResourceSpec]
    quality_flags: tuple[QualityFlag, ...] = ()

    def __post_init__(self):
        if not isinstance(self.jobs, JobSequence):
            raise TypeError(f"Dataset.jobs must be a JobSequence, not {type(self.jobs).__name__}")

    @cached_property
    def job_table(self) -> JobTable:
        """The jobs as columns, built on first use."""
        return JobTable.from_columns(self.jobs.columns, self.resources)

    def resolve_flag(self, flag: QualityFlag):
        """Return the record a quality flag points at, or None.  A job's
        record is built for the first job with the flag's job_id only."""
        if flag.kind == "job":
            rows = np.flatnonzero(self.jobs.columns["job_id"] == flag.locator)
            return self.jobs.take(rows[:1]).records()[0] if len(rows) else None
        elif flag.kind == "allocation":
            for alloc in self.allocations:
                if f"{alloc.charge_number}/{alloc.resource}" == flag.locator:
                    return alloc
        elif flag.kind == "resource":
            return self.resources.get(flag.locator)
        return None


# ---------------------------------------------------------------------------
# field parsing

JOB_FIELDS = tuple(f.name for f in fields(JobRecord))


def _need(raw: Mapping, row: int, name: str):
    value = raw.get(name)
    if value is None or value == "":
        raise SchemaError(row, name, f"row {row}: missing field {name!r}")
    return value


def _as_str(raw: Mapping, row: int, name: str) -> str:
    """A required string field: a non-empty string."""
    value = _need(raw, row, name)
    if type(value) is not str:
        raise SchemaError(row, name, f"row {row}: {name} must be a string")
    return _text(value, row, name)


_SURROGATE = re.compile(r"[\ud800-\udfff]")


def _text(value: str, row: int, name: str) -> str:
    """``value``, unless it holds a lone surrogate: a byte that is not UTF-8
    (files are decoded with ``surrogateescape``) or a JSON-escaped one."""
    if not value.isascii() and _SURROGATE.search(value):
        raise SchemaError(row, name, f"row {row}: {name} is not UTF-8 text")
    return value


_SIGNED_DIGITS = re.compile("-?[0-9]+")
_ISO_DAY = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _as_int(raw, row: int, name: str, low: int = -2**63, high: int = 2**63 - 1) -> int:
    """An integer field within [low, high]: a string of ASCII digits with an
    optional leading "-", or an integral number; booleans are rejected, and
    a value outside the range is "out of range"."""
    value = raw.get(name)
    kind = type(value)
    # the common cases first, for speed; isdigit() alone also passes
    # non-ASCII digits, which int() accepts
    if kind is int:
        out = value
    elif kind is str and value.isdigit() and value.isascii():
        out = int(value)
    else:
        value = _need(raw, row, name)
        if (kind is bool or (kind is float and not value.is_integer())
                or (kind is str and not _SIGNED_DIGITS.fullmatch(value))):
            raise SchemaError(row, name)
        try:
            out = int(value)
        except (TypeError, ValueError):
            raise SchemaError(row, name) from None
    if not low <= out <= high:
        raise SchemaError(row, name, f"row {row}: {name} out of range")
    return out


_FLOAT_TEXT = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")
_FLOAT_CHARS = str.maketrans("", "", "0123456789.eE+-")  # deletes the characters of a float text


def _as_float(raw, row: int, name: str) -> float:
    """A finite float field: a number, or ASCII decimal text with an
    optional leading "-" and exponent; booleans, NaN and infinities are
    rejected."""
    value = _need(raw, row, name)
    if type(value) is bool or (type(value) is str and not _FLOAT_TEXT.fullmatch(value)):
        raise SchemaError(row, name)
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
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


def _as_day(raw: Mapping, row: int, name: str, open_end: bool = False) -> date:
    """A date field: a ``YYYY-MM-DD`` string of ASCII digits (not a number,
    nor another ISO form); with open_end, an absent, empty or "current" one
    means OPEN_END."""
    value = raw.get(name)
    if open_end and value in (None, "", "current", "Current"):
        return OPEN_END
    value = _need(raw, row, name)
    if type(value) is str and _ISO_DAY.fullmatch(value):
        try:
            return date.fromisoformat(value)
        except ValueError:  # no such day
            pass
    raise SchemaError(row, name)


def _optional_str(raw: Mapping, row: int, name: str) -> str | None:
    """An optional string field; absent, null and "" are None."""
    value = raw.get(name)
    if value is None or value == "":
        return None
    if type(value) is not str:
        raise SchemaError(row, name, f"row {row}: {name} must be a string")
    return _text(value, row, name)


_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _as_flag(raw: Mapping, row: int, name: str) -> bool:
    """A flag field: true, false, 0 or 1, or one of the strings "1",
    "true", "yes", "0", "false" and "no" (any case, surrounding whitespace
    ignored); absent, null and "" are False."""
    value = raw.get(name)
    if type(value) is str:
        value = _FLAGS.get(value.strip().lower(), value)
    if value is None or value == "":
        return False
    if type(value) in (bool, int) and value in (0, 1):
        return bool(value)
    raise SchemaError(row, name)


# the reader of each record annotation but an Enum, which _as_enum reads
_READERS = {int: _as_int, float: _as_float, str: _as_str, str | None: _optional_str,
            date: _as_day, bool: _as_flag}


def _read(kind, raw: Mapping, row: int, name: str):
    """Field ``name`` of a raw row as the record annotation ``kind`` says
    it holds, or SchemaError."""
    reader = _READERS.get(kind)
    if reader is None:
        return _as_enum(raw, row, name, kind)
    return reader(raw, row, name)


@cache
def _schema(cls) -> tuple[tuple[str, object], ...]:
    """(name, annotation) of each field of the record class ``cls``, in the
    order a row's fields are checked: the numbers (int and float) first,
    then the other fields, each group in declaration order."""
    hints = get_type_hints(cls)
    pairs = [(f.name, hints[f.name]) for f in fields(cls)]
    return tuple(sorted(pairs, key=lambda pair: pair[1] not in (int, float)))


def _from_raw(cls, raw: Mapping, row: int):
    """A record of class ``cls`` from one raw row: each field of
    ``_schema(cls)`` is read in turn, then the record's rules are kept.  A
    broken rule raises SchemaError naming the field it blames, or
    TimestampOrderError."""
    values = {name: _read(kind, raw, row, name) for name, kind in _schema(cls)}
    try:
        return cls(**values)
    except _BrokenRule as err:
        if err.field is None:
            raise TimestampOrderError(row) from None
        raise SchemaError(row, err.field, f"row {row}: {err.reason}") from None


def _job_from_raw(raw: Mapping, row: int) -> JobRecord:
    """One job row, as ``_from_raw`` reads it.  This is the one judge of a
    malformed row; the column screen of ``load_jobs`` sends it every row it
    does not accept."""
    return _from_raw(JobRecord, raw, row)


_BLANK = object()  # what ``_json_line`` returns for a blank line


def _json_scanner():
    """The C scanner's ``scan_once`` for ``_json_line``, or None where it is
    absent: the pure-Python scanner is slower than ``json.loads``."""
    return json.JSONDecoder().scan_once if json.scanner.c_make_scanner is not None else None


def _json_line(line: str, row: int, scan):
    """The JSON value of one line of a JSON-lines text file, or ``_BLANK``
    for a blank line; ``row`` is its 1-based line number.

    A line is one JSON value with optional surrounding whitespace, parsed
    as ``json.loads`` parses it.  Where ``scan`` (``_json_scanner()``) is
    not None, the line is first parsed by one call to it; a line it does not
    take whole (up to the final newline) is parsed again by ``json.loads``,
    so padded, blank and invalid lines behave exactly as under
    ``json.loads`` alone.  A line that is not JSON raises SchemaError
    "row N: invalid JSON".
    """
    if scan is not None:
        try:
            value, end = scan(line, 0)
        except Exception:  # StopIteration, JSONDecodeError, ...: loads decides
            pass
        else:
            if end == len(line) or (end + 1 == len(line) and line[end] == "\n"):
                return value
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        if not line.strip():
            return _BLANK
        raise SchemaError(row, None, f"row {row}: invalid JSON") from None


def _json_objects(handle):
    """Yield (row, object) for each line of a JSON-lines file, as
    ``_json_line`` reads it; rows are 1-based line numbers, a blank line is
    counted and skipped, and a line that is not JSON or not an object is
    yielded as (row, SchemaError)."""
    scan = _json_scanner()
    for row, line in enumerate(handle, start=1):
        try:
            value = _json_line(line, row, scan)
        except SchemaError as err:
            value = err
        else:
            if value is _BLANK:
                continue
            if not isinstance(value, dict):
                value = SchemaError(row, None, f"row {row}: expected an object")
        yield row, value


def _reject(err: SchemaError, reject_sink: list | None) -> None:
    """Report a malformed row to the sink, or raise its error with none."""
    if reject_sink is None:
        raise err
    code = "timestamp_order" if isinstance(err, TimestampOrderError) else "schema"
    reject_sink.append(Rejection(row=err.row, field=err.field, code=code))


# ---------------------------------------------------------------------------
# jobs, column by column

_CHUNK_ROWS = 2048  # rows parsed and screened at a time
_INT_DIGITS = 18  # every string of at most this many ASCII digits is an int64
# the job fields by annotation: the numbers, and the string fields the
# screen factorizes (every other field but job_id)
_NUMBERS = {name: kind for name, kind in _schema(JobRecord) if kind in (int, float)}
_STRINGS = {name: kind for name, kind in _schema(JobRecord)
            if name not in _NUMBERS and name != "job_id"}
_UNHASHABLE = object()  # stands for a JSON list or object in a string field


def _takes(kind, value) -> bool:
    """Whether ``_read`` takes ``value`` for a field annotated ``kind``."""
    try:
        _read(kind, {"": value}, 0, "")
    except SchemaError:
        return False
    return True


@dataclass
class _Chunk:
    """Up to _CHUNK_ROWS data rows of a jobs or allocations file: ``rows``
    their row numbers, ``column(name)`` the raw values of one field (None
    where it is absent), ``raw(i)`` the mapping ``_from_raw`` reads for row
    i, or the SchemaError of a line that holds no object.  CSV cells and
    JSON values alike go to the screen as they are."""

    rows: list[int]
    column: Callable[[str], Sequence]
    raw: Callable[[int], Mapping | SchemaError]


def _csv_chunks(handle):
    """A CSV file read as ``csv.DictReader`` reads it: the first line
    is the header, a repeated header name means its last column, blank rows
    are skipped and not counted, a short row's missing fields are None and
    a long row's extra cells are ignored.  A ``csv.Error`` (a field over
    the size limit, say) is raised once the rows before it are yielded, as
    DictReader raises it when it reaches that row."""
    reader = csv.reader(handle)
    header = next(reader, None)
    if header is None:
        return
    width = len(header)
    position = {name: i for i, name in enumerate(header)}
    row = 0
    while True:
        lines, error = [], None
        try:
            for line in islice(reader, _CHUNK_ROWS):
                lines.append(line)
        except csv.Error as err:
            error = err
        cells = [line if len(line) == width
                 else (line + [None] * (width - len(line)))[:width]
                 for line in lines if line]
        if n := len(cells):
            columns = list(zip(*cells))

            def column(name, columns=columns, absent=(None,) * n):
                return columns[position[name]] if name in position else absent

            def raw(i, cells=cells):
                return dict(zip(header, cells[i]))

            yield _Chunk(list(range(row + 1, row + 1 + n)), column, raw)
            row += n
        if error is not None:
            raise error
        if not lines:
            return


def _jsonl_chunks(handle):
    """A JSONL file, a chunk at a time."""
    objects = _json_objects(handle)
    while lines := list(islice(objects, _CHUNK_ROWS)):
        raws = [value for _, value in lines]
        dicts = [value if type(value) is dict else {} for value in raws]

        def column(name, dicts=dicts):
            return list(map(dict.get, dicts, repeat(name, len(dicts))))

        yield _Chunk([row for row, _ in lines], column, raws.__getitem__)


def _file_chunks(path, fmt: str):
    """The chunks of a file in format ``fmt``, "jsonl" or "csv"; a byte
    that is not UTF-8 decodes to a lone surrogate, which the field readers
    refuse."""
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="" if fmt == "csv" else None) as handle:
        yield from (_csv_chunks if fmt == "csv" else _jsonl_chunks)(handle)


def _raw_rows(path, fmt: str):
    """Yield (row, mapping or SchemaError) for each data row of a file, as
    ``_file_chunks`` reads it; rows are 1-based data rows."""
    for chunk in _file_chunks(path, fmt):
        yield from zip(chunk.rows, map(chunk.raw, range(len(chunk.rows))))


def _int_column(values) -> tuple[np.ndarray, np.ndarray | bool]:
    """(int64 column, mask of the values ``_as_int`` takes, or True for
    all) of one int field's CSV cells or JSON values; a value it does not
    take is 0 in the column."""
    try:
        plain = (all(values) and (joined := "".join(values)).isdigit() and joined.isascii()
                 and max(map(len, values)) <= _INT_DIGITS)
    except TypeError:  # a value that is not a string
        plain = False
    if plain:
        # every value is plain digits, which numpy's text parser reads
        # exactly as int() does
        return np.fromstring(",".join(values), np.int64, sep=","), True
    if set(map(type, values)) == {int}:
        try:
            return np.fromiter(values, np.int64, len(values)), True
        except OverflowError:  # outside int64
            pass
    good = [_takes(int, value) for value in values]
    return (np.fromiter((int(v) if ok else 0 for v, ok in zip(values, good)),
                        np.int64, len(values)),
            np.array(good, dtype=bool))


def _float_column(values) -> tuple[np.ndarray, np.ndarray]:
    """(float64 column, mask of the values ``_as_float`` takes) of one
    float field's CSV cells or JSON values; a value it does not take is NaN
    in the column."""
    kinds = set(map(type, values))
    plain = kinds <= {int, float}
    if kinds == {str}:
        # float() takes a text of _FLOAT_CHARS that starts with no "+"
        # exactly when _FLOAT_TEXT does, and raises ValueError otherwise
        joined = ",".join(values)
        plain = (joined.translate(_FLOAT_CHARS) == "," * (len(values) - 1)
                 and not joined.startswith("+") and ",+" not in joined)
    column = None
    if plain:
        try:
            column = np.fromiter(map(float, values), np.float64, len(values))
        except (ValueError, OverflowError):  # not a float text; an int beyond a float
            pass
    if column is None:
        column = np.fromiter((float(v) if _takes(float, v) else math.nan for v in values),
                             np.float64, len(values))
    return column, np.isfinite(column)


def _string_column(kind, values, taken: Mapping) -> tuple[Factor, np.ndarray | bool]:
    """(the values as a Factor, mask of the values ``_read`` takes or True
    for all) of a string field annotated ``kind``; each distinct value not
    in ``taken`` (values known to be taken) is judged once."""
    try:
        factor = Factor.of(values)
    except TypeError:
        factor = Factor.of([_UNHASHABLE if type(v) in (list, dict) else v for v in values])
    valid = np.fromiter((value in taken or _takes(kind, value) for value in factor.values),
                        bool, len(factor.values))
    return factor, True if valid.all() else valid[factor.codes]


def _screen(chunk: _Chunk, reject_sink: list | None, seen: Mapping[str, Mapping]):
    """The chunk's columns without its rejected rows: (int and float
    columns, job ids, a Factor of each string field).  A row is taken
    from the columns when ``_read`` takes every field's value and the rules
    hold; ``seen`` holds, per string field, values already taken.  Every
    other row goes, in row order, through ``_job_from_raw``, which rejects
    it or gives the record whose numbers replace the row's."""
    n = len(chunk.rows)
    ok = np.ones(n, dtype=bool)
    numbers = {}
    for name, kind in _NUMBERS.items():
        screen = _int_column if kind is int else _float_column
        numbers[name], good = screen(chunk.column(name))
        ok &= good
    job_ids = chunk.column("job_id")
    if not (all(job_ids) and set(map(type, job_ids)) == {str} and "".join(job_ids).isascii()):
        ok &= np.fromiter((_takes(str, job_id) for job_id in job_ids), bool, n)
    strings = {}
    for name, kind in _STRINGS.items():
        strings[name], good = _string_column(kind, chunk.column(name), seen[name])
        ok &= good
    checked = SimpleNamespace(**numbers)
    for _, _, holds in JOB_RULES:
        ok &= holds(checked)
    if ok.all():
        return numbers, job_ids, strings
    for i in np.flatnonzero(~ok).tolist():
        raw = chunk.raw(i)
        try:
            if isinstance(raw, SchemaError):
                raise raw
            job = _job_from_raw(raw, chunk.rows[i])
        except SchemaError as err:
            _reject(err, reject_sink)
            continue
        # a string the oracle accepts is the raw value ("" is None, an enum
        # its member), so only the numbers can differ
        ok[i] = True
        for name, column in numbers.items():
            column[i] = getattr(job, name)
    return ({name: column[ok] for name, column in numbers.items()},
            list(compress(job_ids, ok.tolist())),
            {name: factor.take(ok) for name, factor in strings.items()})


def load_jobs(path, fmt: str = "jsonl", reject_sink: list | None = None) -> JobSequence:
    """Load job accounting records in file order, as the columns of a
    ``JobSequence``.

    With reject_sink=None any malformed row raises immediately.  When a list
    is supplied, malformed rows are appended to it as Rejection entries and
    loading continues; the load fails only if no row survives.

    Rows are parsed a chunk at a time into one column per field, and each
    column is screened as a whole: the screen takes exactly the values the
    field readers take, from CSV and JSONL alike, and ``_job_from_raw``
    decides every row it does not take, so the jobs and rejections are
    those of ``_job_from_raw`` on each row.
    """
    numbers: dict[str, list[np.ndarray]] = {name: [] for name in _NUMBERS}
    job_ids: list[str] = []
    seen: dict[str, dict] = {name: {} for name in _STRINGS}  # value -> code over the file
    codes: dict[str, list[np.ndarray]] = {name: [] for name in _STRINGS}
    saw_rows = False
    for chunk in _file_chunks(path, fmt):
        saw_rows = True
        chunk_numbers, chunk_ids, chunk_strings = _screen(chunk, reject_sink, seen)
        for name, column in chunk_numbers.items():
            numbers[name].append(column)
        job_ids.extend(chunk_ids)
        for name, factor in chunk_strings.items():
            # codes over the file, for the values some kept row has
            values = factor.values
            used = np.flatnonzero(np.bincount(factor.codes, minlength=len(values)))
            lookup = np.zeros(len(values), np.int32)
            lookup[used] = [seen[name].setdefault(values[j], len(seen[name]))
                            for j in used.tolist()]
            codes[name].append(lookup[factor.codes])
    if saw_rows and not job_ids:
        raise SchemaError(0, None, "no rows survived validation")
    columns: dict[str, np.ndarray | Factor] = {
        "job_id": np.fromiter(job_ids, object, len(job_ids))}
    for name, parts in numbers.items():
        dtype = np.int64 if _NUMBERS[name] is int else np.float64
        columns[name] = np.concatenate(parts) if parts else np.zeros(0, dtype)
    for name, kind in _STRINGS.items():
        # a value some kept row holds reads as its JobRecord value
        values = tuple(_read(kind, {name: value}, 0, name) for value in seen[name])
        columns[name] = Factor(values, np.concatenate(codes[name]) if codes[name]
                               else np.zeros(0, np.int32))
    return JobSequence(columns)


def load_allocations(path, fmt: str = "jsonl", reject_sink: list | None = None) -> list[AllocationRecord]:
    """Load allocation records, through the job loader's row reader;
    zero-use and duplicate records are retained."""
    records = []
    saw_rows = False
    for row, raw in _raw_rows(path, fmt):
        saw_rows = True
        try:
            if isinstance(raw, SchemaError):
                raise raw
            records.append(_from_raw(AllocationRecord, raw, row))
        except SchemaError as err:
            _reject(err, reject_sink)
    if saw_rows and not records:
        raise SchemaError(0, None, "no rows survived validation")
    return records


class JobSequence:
    """Jobs as ``columns``, one per JobRecord field as
    ``JobTable.from_columns`` reads them.  ``records()`` builds the jobs'
    JobRecords on request; nothing keeps them."""

    __slots__ = ("columns",)

    def __init__(self, columns: Mapping[str, np.ndarray | Factor]):
        self.columns = columns

    @classmethod
    def from_values(cls, values: Mapping[str, Sequence]) -> JobSequence:
        """Jobs from one list of values per JobRecord field, in job order,
        each value as a record holds it (an enum member, None for an absent
        optional string).  A job that breaks a JobRecord rule raises
        ValueError naming it."""
        if sorted(values) != sorted(JOB_FIELDS) or len(set(map(len, values.values()))) > 1:
            raise ValueError("need one value list per JobRecord field, all of one length")
        n = len(values["job_id"])
        columns: dict[str, np.ndarray | Factor] = {
            "job_id": np.fromiter(values["job_id"], object, n)}
        for name, kind in _NUMBERS.items():
            columns[name] = np.fromiter(values[name], np.int64 if kind is int else np.float64, n)
        for name in _STRINGS:
            columns[name] = Factor.of(values[name])
        checked = SimpleNamespace(**{name: columns[name] for name in _NUMBERS})
        for field_name, reason, holds in JOB_RULES:
            broken = np.flatnonzero(~holds(checked))
            if len(broken):
                raise _BrokenRule(field_name, reason, f"job {columns['job_id'][broken[0]]}")
        return cls(columns)

    def records(self) -> list[JobRecord]:
        """The jobs' JobRecords in order, built in one pass over the
        columns on each call."""
        columns = self.columns
        return list(map(JobRecord, *(columns[name].tolist() for name in JOB_FIELDS)))

    def __len__(self) -> int:
        return len(self.columns["job_id"])

    def __repr__(self) -> str:
        return f"JobSequence({len(self)} jobs)"

    def take(self, rows: np.ndarray) -> JobSequence:
        """The jobs a boolean mask or an index array selects, in order."""
        return JobSequence({name: column.take(rows) if isinstance(column, Factor)
                            else column[rows] for name, column in self.columns.items()})


def write_rejection_report(rejections: Iterable[Rejection], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for rej in rejections:
            handle.write(json.dumps(
                {"row": rej.row, "field": rej.field, "code": rej.code},
                sort_keys=True))
            handle.write("\n")


def _as_names(raw: Mapping, row: int, name: str) -> frozenset[str]:
    value = raw.get(name) or ()
    if not isinstance(value, list | tuple) or not all(type(v) is str for v in value):
        raise SchemaError(row, name)
    return frozenset(value)


def resource_from_dict(raw: Mapping) -> ResourceSpec:
    """One resource description.  A missing or malformed field raises
    SchemaError naming it, with row 0 (load_resources gives the entry's
    1-based index instead)."""
    if not isinstance(raw, Mapping):
        raise SchemaError(0, "name", "a resource description must be an object")
    name = _as_str(raw, 0, "name")
    if not raw.get("nodes") or not raw.get("cores_per_node"):
        raise MissingGeometry(name)
    try:
        windows = tuple(FactorWindow(start=_as_day(win, 0, "start"),
                                     end=_as_day(win, 0, "end", open_end=True),
                                     factor=_as_float(win, 0, "factor"))
                        for win in raw.get("su_factors", ()))
    except (AttributeError, TypeError, ValueError, SchemaError):
        # not a list of objects, a bad field, or a window FactorWindow refuses
        raise SchemaError(0, "su_factors") from None
    mem = raw.get("mem_per_node")
    large_mem = raw.get("large_mem_per_node")
    return ResourceSpec(
        name=name,
        rtype=_as_enum(raw, 0, "rtype", ResourceType),
        nodes=_as_int(raw, 0, "nodes"),
        cores_per_node=_as_int(raw, 0, "cores_per_node"),
        production_start=_as_day(raw, 0, "production_start"),
        production_end=_as_day(raw, 0, "production_end", open_end=True),
        su_factors=windows,
        su_unit=(_as_enum(raw, 0, "su_unit", SuUnit)
                 if raw.get("su_unit") is not None else SuUnit.CORE_HOUR),
        mem_per_node=_as_int(raw, 0, "mem_per_node") if mem is not None else None,
        large_memory_queues=_as_names(raw, 0, "large_memory_queues"),
        shared_queues=_as_names(raw, 0, "shared_queues"),
        large_mem_per_node=(_as_int(raw, 0, "large_mem_per_node")
                            if large_mem is not None else None),
    )


def _resource_table(entries) -> dict[str, ResourceSpec]:
    """Resource descriptions by name; a malformed entry raises SchemaError
    whose row is its 1-based index."""
    if not isinstance(entries, list):
        raise SchemaError(0, "resources", "resource descriptions must be a list")
    out: dict[str, ResourceSpec] = {}
    for row, raw in enumerate(entries, 1):
        try:
            spec = resource_from_dict(raw)
        except SchemaError as err:
            raise SchemaError(row, err.field) from err
        out[spec.name] = spec
    return out


def load_resources(path) -> dict[str, ResourceSpec]:
    """Load resource descriptions from a JSON file: a list of objects, or an
    object whose ``resources`` is that list."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if isinstance(doc, Mapping):
        doc = doc.get("resources")
    return _resource_table(doc)


def builtin_resources() -> dict[str, ResourceSpec]:
    """Resource descriptions bundled with the package (geometry, production
    windows and SU factor windows for the systems covered by the analyses)."""
    from importlib import resources as importlib_resources

    text = importlib_resources.files("hpcwl.data").joinpath("resources.json").read_text("utf-8")
    return _resource_table(json.loads(text)["resources"])


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


def build_dataset(jobs: JobSequence,
                  allocations: Sequence[AllocationRecord],
                  resources: Mapping[str, ResourceSpec]) -> Dataset:
    """Assemble the immutable Dataset from jobs as columns (a
    ``JobSequence``, from ``load_jobs`` or ``JobSequence.from_values``),
    without building a record; jobs on unknown resources are dropped with a
    quality flag so the resource-resolution invariant holds."""
    dataset = Dataset(jobs=jobs, allocations=tuple(allocations),
                      resources=MappingProxyType(dict(resources)))
    flags: list[QualityFlag] = []
    resource, job_ids = jobs.columns["resource"], jobs.columns["job_id"]
    known = np.array([name in resources for name in resource.values],
                     dtype=bool)[resource.codes]
    for i in np.flatnonzero(~known).tolist():
        name = resource.values[resource.codes[i]]
        flags.append(QualityFlag("job", job_ids[i], "unknown_resource", name))
    seen_keys: set[tuple[str, str]] = set()
    for alloc in dataset.allocations:
        locator = f"{alloc.charge_number}/{alloc.resource}"
        if alloc.key in seen_keys:
            flags.append(QualityFlag("allocation", locator, "duplicate_allocation"))
        seen_keys.add(alloc.key)
        if alloc.used_local_su == 0:
            flags.append(QualityFlag("allocation", locator, "unused_allocation"))
        if alloc.resource not in resources:
            flags.append(QualityFlag("allocation", locator, "unknown_resource", alloc.resource))
    return replace(dataset, jobs=jobs if known.all() else jobs.take(known),
                   quality_flags=tuple(flags))


def validate(dataset: Dataset) -> list[QualityFlag]:
    """Flag jobs outside production windows, geometry violations and
    aggregated-accounting suspects (cloud rows spanning more than 30 days),
    in job order."""
    table = dataset.job_table
    specs = [dataset.resources[name] for name in table.resource.names]

    def per_job(value, dtype=np.int64) -> np.ndarray:
        return np.array([value(spec) for spec in specs], dtype=dtype)[table.resource.codes]

    start_day = table.start // SECONDS_PER_DAY
    wall = table.end - table.start
    outside = ((start_day < per_job(lambda spec: day_number(spec.production_start)))
               | (start_day > per_job(lambda spec: day_number(spec.production_end))))
    too_big = table.cores > per_job(lambda spec: spec.total_cores)
    aggregated = (per_job(lambda spec: spec.rtype is ResourceType.CLOUD, bool)
                  & (wall > AGGREGATED_ACCOUNTING_SECONDS))
    flags: list[QualityFlag] = []
    for i in np.flatnonzero(outside | too_big | aggregated).tolist():
        job_id, spec = table.job_id[i], specs[table.resource.codes[i]]
        if outside[i]:
            flags.append(QualityFlag("job", job_id, "production_window",
                                     f"{day_date(int(start_day[i]))} outside "
                                     f"{spec.production_start}..{spec.production_end}"))
        if too_big[i]:
            flags.append(QualityFlag("job", job_id, "geometry",
                                     f"{int(table.cores[i])} cores > {spec.total_cores} available"))
        if aggregated[i]:
            flags.append(QualityFlag("job", job_id, "aggregated_accounting",
                                     f"{int(wall[i])}s duration on cloud resource"))
    return flags
