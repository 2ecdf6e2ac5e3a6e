"""The performance archive format and its loader.

A ``JobArchive`` holds its perf and meminfo records as numpy columns
(``SampleColumns``, ``MemColumns``), ordered by node, metric and time, with
records of equal keys in the order they were read.  ``load_archives`` reads
the file a chunk of lines at a time into one typed ``array`` per column per
job (int32 codes, int64 times, int8 kind and tag, float64 values), and the
NUMA components of every meminfo sample into one int64 buffer for the file.
A perf or meminfo line spelled as ``json.dumps`` writes the record with its
keys in the documented order (plain names, integers of at most 15 digits,
an unsigned ``value`` without exponent; docs/formats.md) is taken by one
pattern match, and each job's run of such lines is appended a column at a
time, its integers parsed by numpy's text parser.  Every other line, in its
place in the file, goes through the loaders' per-line JSON reader
(``ingest._json_line``), is checked field by field and appended one record
at a time to the same buffers, or is rejected with a SchemaError naming its
line.
"""
from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, compress, groupby, repeat
from operator import itemgetter, not_
from typing import Mapping

import numpy as np

from . import appident
from .errors import SchemaError
from .ingest import _BLANK, _as_float, _as_int, _as_str, _json_line, _json_scanner

# canonical counter metric names in the archive schema
CPU_USER = "cpu_user_ticks"
CPU_TOTAL = "cpu_total_ticks"
LUSTRE_RX = "lustre_rx_bytes"
LUSTRE_TX = "lustre_tx_bytes"
IB_RX = "ib_rx_bytes"
IB_TX = "ib_tx_bytes"
FILE_OPENS = "file_opens"
# canonical instantaneous metric name
RUNNABLE_THREADS = "runnable_threads"


class SampleKind(str, Enum):
    COUNTER = "counter"
    INSTANTANEOUS = "instantaneous"


class SampleTag(str, Enum):
    PERIODIC = "periodic"
    JOB_PROLOG = "job_prolog"
    JOB_EPILOG = "job_epilog"


@dataclass(frozen=True, slots=True)
class LauncherInfo:
    exe: str | None
    n_processes: int = 1
    threads_per_process: int = 1


# integers in archives must be exact in a double, so the columns hold them
# without rounding: times, NUMA components and counts
_EXACT = 2 ** 53
# codes of the enum members in the columns: their position in the enum
_KIND_CODE = {kind.value: code for code, kind in enumerate(SampleKind)}
_TAG_CODE = {tag.value: code for code, tag in enumerate(SampleTag)}
_INSTANTANEOUS = _KIND_CODE[SampleKind.INSTANTANEOUS.value]
_PERIODIC = _TAG_CODE[SampleTag.PERIODIC.value]
_PROLOG = _TAG_CODE[SampleTag.JOB_PROLOG.value]
_EPILOG = _TAG_CODE[SampleTag.JOB_EPILOG.value]


@dataclass(frozen=True, slots=True, eq=False)
class SampleColumns:
    """One job's perf samples, one array per field, ordered by (node,
    metric, time); samples with equal keys keep the order they were read in.

    ``node`` and ``metric`` index the ``nodes`` (sorted) and ``metrics``
    name tables; ``kind`` and ``tag`` are positions in ``SampleKind`` and
    ``SampleTag``.
    """

    nodes: tuple[str, ...]
    metrics: tuple[str, ...]
    node: np.ndarray
    time: np.ndarray
    metric: np.ndarray
    kind: np.ndarray
    value: np.ndarray
    tag: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


@dataclass(frozen=True, slots=True, eq=False)
class MemColumns:
    """One job's meminfo samples ordered by (node, time), ties in the order
    read.  Sample i's NUMA nodes are rows ``numa_bounds[i]:numa_bounds[i+1]``
    of ``numa``, whose columns are mem_total, mem_free, file_pages, slab."""

    nodes: tuple[str, ...]
    node: np.ndarray
    time: np.ndarray
    numa_bounds: np.ndarray
    numa: np.ndarray

    def __len__(self) -> int:
        return len(self.time)


class _Codes(dict):
    """Codes of names in order of first appearance: looking up a name not
    seen before gives it the next code."""

    __slots__ = ()

    def __missing__(self, name) -> int:
        code = self[name] = len(self)
        return code


_NUMA_FIELDS = ("mem_total", "mem_free", "file_pages", "slab")


class _ColumnBuilder:
    """One typed buffer per column of one job's perf and meminfo samples,
    in the order they arrive; ``sample_columns``/``mem_columns`` sort them
    into columns.  A meminfo sample's NUMA components go to a buffer of the
    caller's, which the builder records rows of."""

    __slots__ = ("node_codes", "node", "time", "metric", "kind", "value", "tag",
                 "mem_node", "mem_time", "numa_row", "numa_count")

    def __init__(self):
        self.node_codes = _Codes()
        self.node, self.time, self.metric = array("i"), array("q"), array("i")
        self.kind, self.value, self.tag = array("b"), array("d"), array("b")
        self._empty_meminfo()

    def _empty_meminfo(self) -> None:
        self.mem_node, self.mem_time = array("i"), array("q")
        # the sample's first row in the NUMA buffer, and its row count
        self.numa_row, self.numa_count = array("q"), array("i")

    def add_perf(self, node: int, time: int, metric: int, kind: int, value: float,
                 tag: int) -> None:
        """Append one perf sample, its names given as codes."""
        self.node.append(node)
        self.time.append(time)
        self.metric.append(metric)
        self.kind.append(kind)
        self.value.append(value)
        self.tag.append(tag)

    def add_meminfo(self, numa: array, node: int, time: int, components: list[int]) -> None:
        """Append one meminfo sample, and its NUMA components (mem_total,
        mem_free, file_pages, slab per NUMA node) to ``numa``."""
        self.mem_node.append(node)
        self.mem_time.append(time)
        self.numa_row.append(len(numa) // len(_NUMA_FIELDS))
        self.numa_count.append(len(components) // len(_NUMA_FIELDS))
        numa.fromlist(components)

    def _node_table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted node names and the sorted position of each node code."""
        names = list(self.node_codes)
        order = sorted(range(len(names)), key=names.__getitem__)
        rank = np.empty(len(names), dtype=np.int64)
        rank[order] = np.arange(len(names))
        return tuple(names[code] for code in order), rank

    def sample_columns(self, metrics: tuple[str, ...]) -> SampleColumns:
        table, rank = self._node_table()
        node = rank[np.asarray(self.node)]
        time = np.frombuffer(self.time, dtype=np.int64)
        metric = np.asarray(self.metric)
        order = np.lexsort((time, metric, node))
        return SampleColumns(nodes=table, metrics=metrics, node=node[order], time=time[order],
                             metric=metric[order].astype(np.int64),
                             kind=np.asarray(self.kind)[order],
                             value=np.asarray(self.value)[order],
                             tag=np.asarray(self.tag)[order])

    def mem_columns(self, numa: np.ndarray) -> MemColumns:
        """The meminfo samples as columns, their NUMA rows gathered from
        ``numa`` (the NUMA buffer, one row per NUMA node); the meminfo
        buffers are emptied."""
        table, rank = self._node_table()
        node = rank[np.asarray(self.mem_node)]
        time = np.frombuffer(self.mem_time, dtype=np.int64)
        order = np.lexsort((time, node))
        first_row = np.frombuffer(self.numa_row, dtype=np.int64)[order]
        count = np.asarray(self.numa_count)[order]
        bounds = np.zeros(len(count) + 1, dtype=np.int64)
        np.cumsum(count, out=bounds[1:])
        rows = np.repeat(first_row - bounds[:-1], count) + np.arange(bounds[-1])
        columns = MemColumns(nodes=table, node=node[order], time=time[order],
                             numa_bounds=bounds, numa=numa[rows])
        self._empty_meminfo()
        return columns


def _numa_rows(numa: array) -> np.ndarray:
    """A NUMA buffer as rows of mem_total, mem_free, file_pages, slab."""
    return np.frombuffer(numa, dtype=np.int64).reshape(-1, len(_NUMA_FIELDS))


@dataclass(frozen=True, slots=True)
class JobArchive:
    """All performance records collected for one job, its perf and meminfo
    samples as columns.  A node listed twice in ``nodes`` is a ValueError."""

    job_id: str
    nodes: tuple[str, ...]
    samples: SampleColumns
    meminfo: MemColumns
    launcher: LauncherInfo | None = None
    processes: tuple[appident.ProcessObservation, ...] = ()

    def __post_init__(self):
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"job {self.job_id}: a node is listed twice")


# ---------------------------------------------------------------------------
# archive JSONL

_CHUNK_BYTES = 1 << 16  # the size hint of the lines read at a time


# A perf or meminfo line as json.dumps writes the record with its keys in
# the order docs/formats.md lists them.  Names hold no quote, backslash or
# control character, so each is its own text; integers have at most 15
# digits, so each is exact in a double; and `value` has neither sign nor
# exponent, so it is finite and >= 0.  A line it takes is valid JSON whose
# fields are all valid, and its groups are the fields: (1) "perf" for a
# perf record, (2) job_id, (3) node, (4) time, then (5) metric, (6) kind,
# (7) value, (8) tag of a perf record or (9) the text inside a meminfo
# record's `numa` brackets.
_DIGITS = "(?:0|[1-9][0-9]{0,14})"
_INT = "-?" + _DIGITS
_NUMA_PART = r"\{" + ", ".join(f'"{name}": {_INT}' for name in _NUMA_FIELDS) + r"\}"
_LINE = re.compile((
    r'\{"type": "(?:(perf)|meminfo)", "job_id": %(name)s, "node": %(name)s, '
    r'"time": (%(int)s), (?(1)'
    r'"metric": %(name)s, "kind": "(%(kind)s)", '
    r'"value": (%(digits)s(?:\.[0-9]+)?), "tag": "(%(tag)s)"'
    r'|"numa": \[((?:%(numa)s(?:, %(numa)s)*)?)\])\}\n?') % dict(
        name=r'"([^"\\\x00-\x1f]+)"', int=_INT, digits=_DIGITS, numa=_NUMA_PART,
        kind="|".join(_KIND_CODE), tag="|".join(_TAG_CODE)))
# turns each character of a meminfo line's `numa` text but the integers' into a blank
_BLANK_NAMES = str.maketrans(dict.fromkeys(set("".join(_NUMA_FIELDS)) | set('{}":, '), " "))


def _int64_bytes(text: str) -> bytes:
    """The machine bytes of the int64 values of blank-separated integer
    texts that ``_LINE`` took: each has at most 15 digits, so numpy's
    parse is exact."""
    return np.fromstring(text, dtype=np.int64, sep=" ").tobytes()


def _int_field(raw: Mapping, row: int, name: str, low: int = -_EXACT) -> int:
    """An integer field by ``ingest._as_int``'s rules, within [low, 2**53]."""
    value = _as_int(raw, row, name)
    if not low <= value <= _EXACT:
        raise SchemaError(row, name, f"row {row}: {name} out of range")
    return value


def _code(codes: Mapping[str, int], raw: Mapping, row: int, name: str, default=None) -> int:
    value = raw.get(name, default)
    code = codes.get(value) if type(value) is str else None
    if code is None:
        raise SchemaError(row, name, f"row {row}: {value!r} is not a valid {name}")
    return code


def _builder(builders: dict[str, _ColumnBuilder], job_id: str) -> _ColumnBuilder:
    builder = builders.get(job_id)
    if builder is None:
        builder = builders[job_id] = _ColumnBuilder()
    return builder


def _perf_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder],
                 metric_codes: _Codes) -> tuple[_ColumnBuilder, tuple]:
    """Check one perf record field by field: its job's builder and the
    arguments of its ``add_perf``, or SchemaError."""
    builder = _builder(builders, _as_str(raw, row, "job_id"))
    time = _int_field(raw, row, "time")
    value = _as_float(raw, row, "value")
    if value < 0:
        raise SchemaError(row, "value", f"row {row}: negative value")
    metric = metric_codes[_as_str(raw, row, "metric")]
    return builder, (builder.node_codes[_as_str(raw, row, "node")], time, metric,
                     _code(_KIND_CODE, raw, row, "kind"), value,
                     _code(_TAG_CODE, raw, row, "tag", SampleTag.PERIODIC.value))


def _meminfo_record(raw: Mapping, row: int, builders: dict[str, _ColumnBuilder]
                    ) -> tuple[_ColumnBuilder, tuple]:
    """Check one meminfo record field by field: its job's builder and the
    arguments of its ``add_meminfo``, or SchemaError."""
    builder = _builder(builders, _as_str(raw, row, "job_id"))
    time = _int_field(raw, row, "time")
    numa = raw.get("numa")
    if type(numa) is not list or not all(type(part) is dict for part in numa):
        raise SchemaError(row, "numa", f"row {row}: numa must be a list of objects")
    components = [_int_field(part, row, name) for part in numa for name in _NUMA_FIELDS]
    return builder, (builder.node_codes[_as_str(raw, row, "node")], time, components)


def _other_record(raw, row: int, nodes: dict[str, tuple[str, ...]],
                  launcher: dict[str, LauncherInfo],
                  processes: dict[str, list[appident.ProcessObservation]]) -> None:
    """Store a job, launcher or process record in the dict for its type."""
    if type(raw) is not dict:
        raise SchemaError(row, None, f"row {row}: expected an object")
    kind = raw.get("type")
    job_id = _as_str(raw, row, "job_id")
    if kind == "job":
        listed = raw.get("nodes")
        if type(listed) is not list:
            raise SchemaError(row, "nodes", f"row {row}: nodes must be a list")
        if not all(type(node) is str and node for node in listed):
            raise SchemaError(row, "nodes", f"row {row}: nodes must be non-empty strings")
        listed = tuple(listed)
        if len(set(listed)) != len(listed):
            raise SchemaError(row, "nodes", f"row {row}: a node is listed twice")
        nodes[job_id] = listed
    elif kind == "launcher":
        exe = raw.get("exe")
        if exe is not None and type(exe) is not str:
            raise SchemaError(row, "exe", f"row {row}: exe must be a string")
        launcher[job_id] = LauncherInfo(
            exe=exe,
            n_processes=(_int_field(raw, row, "n_processes", 0)
                         if "n_processes" in raw else 1),
            threads_per_process=(_int_field(raw, row, "threads_per_process", 0)
                                 if "threads_per_process" in raw else 1))
    elif kind == "process":
        processes.setdefault(job_id, []).append(appident.ProcessObservation(
            process_name=_as_str(raw, row, "process_name"),
            unique_pid_count=_int_field(raw, row, "unique_pid_count", 1)))
    else:
        raise SchemaError(row, "type", f"row {row}: unknown archive record type {kind!r}")


class _ArchiveReader:
    """The records of an archive file read so far: each job's column
    builder, the metric codes shared by all jobs, the NUMA buffer of every
    meminfo sample in file order, and the job, launcher and process records
    by job."""

    def __init__(self):
        self.builders: dict[str, _ColumnBuilder] = {}
        self.metric_codes = _Codes()
        self.numa = array("q")
        self.nodes: dict[str, tuple[str, ...]] = {}
        self.launcher: dict[str, LauncherInfo] = {}
        self.processes: dict[str, list[appident.ProcessObservation]] = {}
        self.scan = _json_scanner()

    def take_matches(self, matches: list[re.Match]) -> None:
        """Append the records of consecutive lines that ``_LINE`` took,
        each job's in file order, a column of a job's run at a time."""
        rows = list(map(re.Match.groups, matches))
        perf = list(map(itemgetter(0), rows))
        job = itemgetter(1)
        metric_code = self.metric_codes.__getitem__
        for job_id, run in groupby(compress(rows, perf), job):
            builder = _builder(self.builders, job_id)
            _, _, node, time, metric, kind, value, tag, _ = zip(*run)
            builder.node.fromlist(list(map(builder.node_codes.__getitem__, node)))
            builder.time.frombytes(_int64_bytes(" ".join(time)))
            builder.metric.fromlist(list(map(metric_code, metric)))
            builder.kind.fromlist(list(map(_KIND_CODE.__getitem__, kind)))
            builder.value.fromlist(list(map(float, value)))
            builder.tag.fromlist(list(map(_TAG_CODE.__getitem__, tag)))
        for job_id, run in groupby(compress(rows, map(not_, perf)), job):
            builder = _builder(self.builders, job_id)
            _, _, node, time, _, _, _, _, numa = zip(*run)
            builder.mem_node.fromlist(list(map(builder.node_codes.__getitem__, node)))
            builder.mem_time.frombytes(_int64_bytes(" ".join(time)))
            counts = list(map(str.count, numa, repeat("{")))
            first = len(self.numa) // len(_NUMA_FIELDS)
            builder.numa_row.fromlist(list(accumulate(counts, initial=first))[:-1])
            builder.numa_count.fromlist(counts)
            if any(counts):
                self.numa.frombytes(_int64_bytes(" ".join(numa).translate(_BLANK_NAMES)))

    def take_lines(self, lines: list[str], first_row: int) -> None:
        """Parse and check the records of consecutive lines one at a time,
        field by field; ``first_row`` is the line number of the first."""
        for row, line in enumerate(lines, start=first_row):
            raw = _json_line(line, row, self.scan)
            if raw is _BLANK:
                continue
            kind = raw.get("type") if type(raw) is dict else None
            if kind == "perf":
                builder, fields = _perf_record(raw, row, self.builders, self.metric_codes)
                builder.add_perf(*fields)
            elif kind == "meminfo":
                builder, fields = _meminfo_record(raw, row, self.builders)
                builder.add_meminfo(self.numa, *fields)
            else:
                _other_record(raw, row, self.nodes, self.launcher, self.processes)

    def archives(self) -> dict[str, JobArchive]:
        """Each job's archive, in job_id order.

        Every job's meminfo columns are built first and the NUMA buffer is
        freed before the perf columns are built: those take more room than
        their buffers, so the peak stays where they are all built.  That
        one large free also makes glibc's malloc keep, rather than return,
        the heap that ``summarize_all`` reuses block after block (on the
        benchmark's archive, ~600 page faults there instead of ~10,000).
        """
        job_ids = sorted(set(self.nodes) | set(self.builders) | set(self.launcher)
                         | set(self.processes))
        empty = _ColumnBuilder()
        numa = _numa_rows(self.numa)
        meminfo = [self.builders.get(job_id, empty).mem_columns(numa) for job_id in job_ids]
        del numa  # the last view of the buffer, which then goes with it
        self.numa = array("q")
        metrics = tuple(self.metric_codes)
        archives = {}
        for job_id, mem in zip(job_ids, meminfo):
            builder = self.builders.pop(job_id, empty)
            archives[job_id] = JobArchive(
                job_id=job_id,
                nodes=self.nodes.get(job_id, ()),
                samples=builder.sample_columns(metrics),
                meminfo=mem,
                launcher=self.launcher.get(job_id),
                processes=tuple(self.processes.get(job_id, ())),
            )
        return archives


def load_archives(path) -> dict[str, JobArchive]:
    """Read the archive JSONL (schema in docs/formats.md) grouped by job.

    Each line is one JSON object.  Record order in the file does not matter,
    except among records of one job with equal (node, metric, time), which
    keep it.  A malformed record raises SchemaError whose row is its 1-based
    line number.
    """
    reader = _ArchiveReader()
    row = 1  # the line number of the chunk's first line
    with open(path, "r", encoding="utf-8") as handle:
        for chunk in iter(partial(handle.readlines, _CHUNK_BYTES), []):
            # stretches of lines that _LINE takes, and of lines it does not,
            # in file order
            start = 0
            for taken, run in groupby(map(_LINE.fullmatch, chunk), bool):
                run = list(run)
                if taken:
                    reader.take_matches(run)
                else:
                    reader.take_lines(chunk[start:start + len(run)], row + start)
                start += len(run)
            row += len(chunk)
    return reader.archives()
