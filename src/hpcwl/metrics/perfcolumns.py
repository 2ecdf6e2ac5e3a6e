"""Per-job performance summaries joined to a ``JobTable``'s rows.

The memory, Lustre and concurrency analyses read summary fields as float
columns aligned with the job table.  A field is present when the job has a
summary and the field is neither None nor NaN; a column is NaN where its
field is not present, so those jobs land in the absent and N/A rows.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import compress
from operator import attrgetter
from typing import Mapping

import numpy as np

from ..appident import NOT_AVAILABLE
from ..jobtable import Codes, JobTable, read_only, selects_all
from ..perfsummary import JobPerfSummary, LaunchType

FLOAT_FIELDS = ("mem_avg_per_core", "mem_max_per_core", "cpu_user_fraction",
                "runnable_threads_median", "file_opens", "lustre_rx", "lustre_tx")


@dataclass(frozen=True, eq=False)
class PerfColumns:
    summarized: np.ndarray  # bool: the job has a summary
    mem_avg_per_core: np.ndarray  # float64, NaN where not present
    mem_max_per_core: np.ndarray
    cpu_user_fraction: np.ndarray
    runnable_threads_median: np.ndarray
    file_opens: np.ndarray
    lustre_rx: np.ndarray
    lustre_tx: np.ndarray
    launch_type: Codes  # "unknown" for a job with no summary
    app_label: Codes    # "NA" for a job with no summary

    def __post_init__(self):
        read_only(self)

    @classmethod
    def join(cls, table: JobTable, summaries: Mapping[str, JobPerfSummary]) -> PerfColumns:
        """Each row's summary, looked up by the row's job id."""
        found = list(map(summaries.get, table.job_id.tolist()))
        summarized = np.array([s is not None for s in found], dtype=bool)
        have = list(compress(found, summarized.tolist()))
        columns = {}
        for name in FLOAT_FIELDS:
            column = columns[name] = np.full(len(found), np.nan)
            # None becomes NaN
            column[summarized] = np.array(list(map(attrgetter(name), have)), dtype=np.float64)
        kinds = list(map(attrgetter("launch_type"), have))
        value = {kind: kind.value for kind in set(kinds)}
        return cls(summarized=summarized, **columns,
                   launch_type=_codes(list(map(value.__getitem__, kinds)), summarized,
                                      LaunchType.UNKNOWN.value),
                   app_label=_codes(list(map(attrgetter("app_label"), have)), summarized,
                                    NOT_AVAILABLE))

    def check(self, table: JobTable) -> None:
        """Raise ValueError unless the columns have ``table``'s length (a
        length-1 column would otherwise broadcast over every row)."""
        if len(self.summarized) != len(table):
            raise ValueError("performance columns and job table differ in length")

    def take(self, rows: np.ndarray) -> PerfColumns:
        """The rows a boolean mask or an index array selects, in order; a
        selection of every row in order gives these columns."""
        if selects_all(rows, len(self.summarized)):
            return self
        columns = {f.name: getattr(self, f.name) for f in fields(self)}
        return PerfColumns(**{name: column.take(rows) if isinstance(column, Codes)
                              else column[rows] for name, column in columns.items()})


def _codes(values: list[str], summarized: np.ndarray, default: str) -> Codes:
    """A string column holding ``values`` in the summarized rows, in order,
    and ``default`` in the others."""
    names = sorted(set(values) | {default})
    index = dict(zip(names, range(len(names))))
    codes = np.full(len(summarized), index[default], dtype=np.int32)
    codes[summarized] = np.fromiter(map(index.__getitem__, values), np.int32, len(values))
    return Codes(tuple(names), codes)
