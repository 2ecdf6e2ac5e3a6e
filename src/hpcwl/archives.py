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

A file of at least two ``_RANGE_MIN_BYTES`` on a host with more than one
usable CPU is cut into byte ranges, one per CPU, each cut right after a
``\\n``.  The caller reads the first range; a child started by ``os.fork``
reads each later one with the same reader and streams its buffers back
through a pipe, job by job, and the caller appends them in file order,
mapping node and metric codes by name.  The ranges are trusted only when
every one succeeds: on any failure the partial reader is dropped and the
whole file is read again in one pass, so the columns and the errors are
those of one pass.
"""
from __future__ import annotations

import io
import os
import pickle
import re
import threading
import warnings
from array import array
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import accumulate, compress, groupby, repeat
from operator import itemgetter, not_
from typing import Callable, Mapping

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

    BUFFERS = ("node", "time", "metric", "kind", "value", "tag",
               "mem_node", "mem_time", "numa_row", "numa_count")
    __slots__ = ("node_codes",) + BUFFERS

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

    def extend(self, node_names: tuple[str, ...], buffers: list[bytes],
               metric_code: np.ndarray, first_numa_row: int) -> None:
        """Append the buffers (``BUFFERS``, as bytes) of another reader's
        builder of the same job, whose node codes name ``node_names``: its
        node codes mapped by name, its metric codes through ``metric_code``
        and its NUMA rows offset by ``first_numa_row``."""
        node_code = np.array([self.node_codes[name] for name in node_names], dtype=np.intc)
        node, time, metric, kind, value, tag, mem_node, mem_time, numa_row, numa_count = buffers
        self.node.frombytes(node_code[np.frombuffer(node, dtype=np.intc)].tobytes())
        self.time.frombytes(time)
        self.metric.frombytes(metric_code[np.frombuffer(metric, dtype=np.intc)].tobytes())
        self.kind.frombytes(kind)
        self.value.frombytes(value)
        self.tag.frombytes(tag)
        self.mem_node.frombytes(node_code[np.frombuffer(mem_node, dtype=np.intc)].tobytes())
        self.mem_time.frombytes(mem_time)
        self.numa_row.frombytes((np.frombuffer(numa_row, dtype=np.int64)
                                 + first_numa_row).tobytes())
        self.numa_count.frombytes(numa_count)

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
    time = _as_int(raw, row, "time", -_EXACT, _EXACT)
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
    time = _as_int(raw, row, "time", -_EXACT, _EXACT)
    numa = raw.get("numa")
    if type(numa) is not list or not all(type(part) is dict for part in numa):
        raise SchemaError(row, "numa", f"row {row}: numa must be a list of objects")
    components = [_as_int(part, row, name, -_EXACT, _EXACT)
                  for part in numa for name in _NUMA_FIELDS]
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
            n_processes=(_as_int(raw, row, "n_processes", 0, _EXACT)
                         if "n_processes" in raw else 1),
            threads_per_process=(_as_int(raw, row, "threads_per_process", 0, _EXACT)
                                 if "threads_per_process" in raw else 1))
    elif kind == "process":
        processes.setdefault(job_id, []).append(appident.ProcessObservation(
            process_name=_as_str(raw, row, "process_name"),
            unique_pid_count=_as_int(raw, row, "unique_pid_count", 1, _EXACT)))
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

    def send(self, put: Callable[[object], None]) -> None:
        """Stream the records read so far to another reader's
        ``take_range``, one ``put`` of plain tuples, names and bytes at a
        time: the metric names in code order and the NUMA buffer; each
        job's node names in code order and buffers; None; then the job,
        launcher and process records."""
        put((tuple(self.metric_codes), self.numa.tobytes()))
        for job_id, builder in self.builders.items():
            put((job_id, tuple(builder.node_codes),
                 *(getattr(builder, name).tobytes() for name in builder.BUFFERS)))
        put(None)
        put((tuple(self.nodes.items()),
             tuple((job_id, (info.exe, info.n_processes, info.threads_per_process))
                   for job_id, info in self.launcher.items()),
             tuple((job_id, tuple((seen.process_name, seen.unique_pid_count)
                                  for seen in observed))
                   for job_id, observed in self.processes.items())))

    def take_range(self, receive: Callable[[], object], finish: Callable[[], None]) -> None:
        """Append the records that another reader, which read the next range
        of the file, streamed by ``send``; each ``receive()`` gives the next
        message.  ``finish()`` is called once the last has come and raises
        unless the stream can be trusted.  Names are mapped to this
        reader's codes, so the records load as if this reader had read the
        range itself.  A reader that this raises from is left part-way and
        must be dropped."""
        metrics, numa = receive()
        metric_code = np.array([self.metric_codes[name] for name in metrics], dtype=np.intc)
        first_numa_row = len(self.numa) // len(_NUMA_FIELDS)
        self.numa.frombytes(numa)
        for job_id, node_names, *buffers in iter(receive, None):
            _builder(self.builders, job_id).extend(node_names, buffers, metric_code,
                                                   first_numa_row)
        nodes, launchers, processes = receive()
        self.nodes.update(nodes)
        self.launcher.update((job_id, LauncherInfo(*fields)) for job_id, fields in launchers)
        for job_id, observed in processes:
            self.processes.setdefault(job_id, []).extend(
                appident.ProcessObservation(*fields) for fields in observed)
        finish()

    def archives(self) -> dict[str, JobArchive]:
        """Each job's archive, in job_id order.

        Every job's meminfo columns are built first and the NUMA buffer is
        freed before the perf columns are built: those take more room than
        their buffers, so the peak stays where they are all built.  That
        one large free also makes glibc's malloc keep, rather than return,
        the heap that ``summarize_all`` reuses block after block: on the
        benchmark's archive (``archives_1k`` seed 1, getrusage around the
        call in a fresh process) ``summarize_all`` takes ~650 minor page
        faults after a load in two byte ranges and 511 after one pass,
        where per-job NUMA buffers, freed one by one, left it ~9,600.
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


# The smallest byte range that a worker is forked for: a file is cut into
# ranges of at least this size, one per usable CPU.  Forking, a worker's
# slower start and the merge cost about what reading 2 MB costs: prefixes of
# the benchmark's canonical archive load in two ranges in 1.27x the time of
# one pass at 4 MB and 0.70x at 8 MB (2-core host, medians of 9).
_RANGE_MIN_BYTES = 4 << 20


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_start(fd: int, at: int, size: int) -> int:
    """The offset right after the first ``\\n`` at or after ``at`` in the
    first ``size`` bytes of file ``fd``; ``size`` when there is none."""
    while at < size:
        window = os.pread(fd, min(_CHUNK_BYTES, size - at), at)
        newline = window.find(b"\n")
        if newline >= 0:
            return at + newline + 1
        if not window:  # the file is shorter than it was
            break
        at += len(window)
    return size


def _cuts(fd: int, size: int) -> list[int]:
    """The byte offsets that cut the first ``size`` bytes of file ``fd``
    into ranges, from 0 to ``size``: one range per usable CPU, each of at
    least ``_RANGE_MIN_BYTES`` and each cut right after a ``\\n``.  One range
    where this process cannot fork, or must not: while another Python
    thread runs, a forked child could find a lock held forever."""
    count = min(_usable_cpus(), size // _RANGE_MIN_BYTES)
    if count < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, size]
    cuts = [0]
    for k in range(1, count):
        at = _line_start(fd, size * k // count, size)
        if cuts[-1] < at < size:
            cuts.append(at)
    cuts.append(size)
    return cuts


class _Window(io.RawIOBase):
    """Bytes ``start`` to ``end`` of open file ``fd``, read by ``os.pread``
    (the file position is neither used nor moved)."""

    def __init__(self, fd: int, start: int, end: int):
        super().__init__()
        self.fd, self.at, self.end = fd, start, end

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.end - self.at), self.at)
        buffer[:len(data)] = data
        self.at += len(data)
        return len(data)


def _read_range(reader: _ArchiveReader, fd: int, start: int, end: int) -> None:
    """Read the lines of bytes ``start`` to ``end`` of file ``fd`` into
    ``reader``, a chunk of lines at a time, decoded as UTF-8 with universal
    newlines; the first line is row 1."""
    with io.TextIOWrapper(io.BufferedReader(_Window(fd, start, end), _CHUNK_BYTES),
                          encoding="utf-8") as handle:
        row = 1
        for chunk in iter(partial(handle.readlines, _CHUNK_BYTES), []):
            # stretches of lines that _LINE takes, and of lines it does not,
            # in file order
            at = 0
            for taken, run in groupby(map(_LINE.fullmatch, chunk), bool):
                run = list(run)
                if taken:
                    reader.take_matches(run)
                else:
                    reader.take_lines(chunk[at:at + len(run)], row + at)
                at += len(run)
            row += len(chunk)


class _Worker:
    """A forked child that reads one byte range of the file into a reader
    of its own and streams it back through a pipe (``_ArchiveReader.send``)."""

    def __init__(self, fd: int, start: int, end: int, inherited: list[int]):
        """Fork the child, or raise OSError; ``inherited`` are the read ends
        of the pipes of earlier workers, which the child closes."""
        read_end, write_end = os.pipe()
        self.stream, self.status = open(read_end, "rb"), None
        try:
            with warnings.catch_warnings():
                # CPython >= 3.12 warns when a process with other OS threads
                # forks.  No other Python thread runs (see _cuts); the others
                # are native pools, such as numpy's BLAS threads, idle
                # between calls, and the child never calls into them: it
                # reads its range with the reader, numpy's text parser and
                # frombuffer, and leaves by os._exit.
                warnings.simplefilter("ignore", DeprecationWarning)
                self.pid = os.fork()
        except OSError:
            self.stream.close()
            os.close(write_end)
            raise
        if self.pid == 0:
            status = 1
            try:
                for other in [read_end, *inherited]:
                    os.close(other)
                reader = _ArchiveReader()
                _read_range(reader, fd, start, end)
                with open(write_end, "wb") as out:
                    def send(message):
                        pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                        out.flush()

                    reader.send(send)
                status = 0
            finally:
                # never return into the caller's code, nor flush its stdio
                os._exit(status)
        os.close(write_end)

    def receive(self):
        return pickle.load(self.stream)

    def finish(self) -> None:
        """Raise unless the stream has ended and the child exited with 0."""
        if self.stream.read(1):
            raise ValueError("archive worker sent more than its range")
        if self.wait() != 0:
            raise ChildProcessError(f"archive worker exited with status {self.status}")

    def wait(self) -> int:
        """Reap the child (once): its wait status."""
        if self.status is None:
            self.status = os.waitpid(self.pid, 0)[1]
        return self.status

    def stop(self) -> None:
        """Kill the child if it is not reaped yet, reap it and close the pipe."""
        if self.status is None:
            from signal import SIGKILL  # here, since a load that forks nothing needs no signal

            os.kill(self.pid, SIGKILL)
            self.wait()
        self.stream.close()


def _load_ranges(fd: int, cuts: list[int]) -> _ArchiveReader:
    """A reader of the ranges between ``cuts`` in file order: the first read
    here, each later one by a worker, whose stream is appended.  Raises if
    any range fails: a bad line (the first range's too), a decode error, no
    process or pipe for a worker, a worker killed or its stream short, long
    or unreadable.  Every worker is stopped before this returns or raises."""
    workers = []
    try:
        for start, end in zip(cuts[1:], cuts[2:]):
            workers.append(_Worker(fd, start, end, [w.stream.fileno() for w in workers]))
        reader = _ArchiveReader()
        _read_range(reader, fd, cuts[0], cuts[1])
        for worker in workers:
            reader.take_range(worker.receive, worker.finish)
        return reader
    finally:
        for worker in workers:
            worker.stop()


def load_archives(path) -> dict[str, JobArchive]:
    """Read the archive JSONL (schema in docs/formats.md) grouped by job.

    Each line is one JSON object.  Record order in the file does not matter,
    except among records of one job with equal (node, metric, time), which
    keep it.  A malformed record raises SchemaError whose row is its 1-based
    line number.  A large file is read in byte ranges, one per usable CPU,
    all but the first by forked workers (``_load_ranges``).  If any range
    fails, the partial reader is dropped and the whole file is read again in
    one pass, which decides the columns or the error: they are always those
    of one pass.  The file must be seekable (a pipe is an OSError).
    """
    with open(path, "rb") as handle:
        fd = handle.fileno()
        size = os.lseek(fd, 0, os.SEEK_END)
        cuts = _cuts(fd, size)
        if len(cuts) > 2:
            try:
                return _load_ranges(fd, cuts).archives()
            except Exception:  # not trusted: the one pass below decides
                pass
        reader = _ArchiveReader()
        _read_range(reader, fd, 0, size)
    return reader.archives()
