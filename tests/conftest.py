"""Shared fixtures: a small test machine and a job factory."""
from __future__ import annotations

from dataclasses import fields
from datetime import date

import numpy as np
import pytest

from hpcwl.ingest import (
    JOB_FIELDS,
    AllocationRecord,
    AllocType,
    Dataset,
    ExitStatus,
    FactorWindow,
    JobRecord,
    JobSequence,
    NsfUserStatus,
    ResourceSpec,
    ResourceType,
    build_dataset,
)
from hpcwl.jobtable import Codes, JobTable
from hpcwl.metrics import PerfColumns

# 2015-08-01T00:00:00Z
T0 = 1438387200

GIB = 1 << 30


def make_resource(name="TESTMACHINE", rtype=ResourceType.HPC, nodes=100,
                  cores_per_node=16, factor=2.0, mem_per_node=64 * GIB,
                  **kwargs) -> ResourceSpec:
    return ResourceSpec(
        name=name, rtype=rtype, nodes=nodes, cores_per_node=cores_per_node,
        production_start=date(2010, 1, 1), production_end=date(2030, 1, 1),
        su_factors=(FactorWindow(date(2010, 1, 1), date(2030, 1, 1), factor),),
        mem_per_node=mem_per_node, **kwargs)


def make_job(job_id="j1", resource="TESTMACHINE", user="alice",
             charge_number="TG-001", submit=T0, start=None, end=None,
             nodes=1, cores=16, queue="normal",
             exit_status=ExitStatus.COMPLETED, local_su=None, **kwargs) -> JobRecord:
    start = submit + 600 if start is None else start
    end = start + 3600 if end is None else end
    wall_hours = (end - start) / 3600.0
    return JobRecord(
        job_id=job_id, resource=resource, user=user, charge_number=charge_number,
        directorate=kwargs.pop("directorate", "MPS"),
        parent_science=kwargs.pop("parent_science", "Physics"),
        field_of_science=kwargs.pop("field_of_science", "Nuclear Physics"),
        nsf_user_status=kwargs.pop("nsf_user_status", NsfUserStatus.GRAD_STUDENT),
        submit_time=submit, start_time=start, end_time=end,
        nodes=nodes, cores=cores, queue=queue, exit_status=exit_status,
        local_su_charged=cores * wall_hours if local_su is None else local_su,
        **kwargs)


def jobs_of(jobs) -> JobSequence:
    """Job records as the JobSequence a Dataset holds, in their order;
    loaded jobs (a JobSequence already) as they are."""
    if isinstance(jobs, JobSequence):
        return jobs
    jobs = list(jobs)
    return JobSequence.from_values({name: [getattr(job, name) for job in jobs]
                                    for name in JOB_FIELDS})


def table_of(jobs, resources=None) -> JobTable:
    """The job table of records or loaded jobs, in their order; with
    ``resources``, the SU factor, XD SU and type columns too."""
    return JobTable.from_columns(jobs_of(jobs).columns, resources)


def dataset_of(jobs, allocations, resources) -> Dataset:
    """``build_dataset`` of job records or loaded jobs."""
    return build_dataset(jobs_of(jobs), allocations, resources)


def perf_columns(jobs, summaries, resources=None):
    """The jobs' table, built with ``resources``, and the summaries joined to
    it: the first two arguments of the memory, Lustre and concurrency
    analyses."""
    table = table_of(jobs, resources)
    return table, PerfColumns.join(table, summaries)


def column_arrays(columns) -> dict[str, np.ndarray]:
    """Every array of a JobTable or PerfColumns by field name, a string
    column's codes included."""
    out = {}
    for f in fields(columns):
        column = getattr(columns, f.name)
        if isinstance(column, Codes):
            column = column.codes
        if isinstance(column, np.ndarray):
            out[f.name] = column
    return out


def make_allocation(charge_number="TG-001", resource="TESTMACHINE",
                    awarded=100.0, used=100.0,
                    alloc_type=AllocType.RESEARCH, discipline="MPS",
                    award_date=date(2015, 1, 1), tagged=False) -> AllocationRecord:
    return AllocationRecord(
        charge_number=charge_number, resource=resource, alloc_type=alloc_type,
        discipline=discipline, awarded_local_su=awarded, used_local_su=used,
        award_date=award_date, is_gateway_tagged=tagged)


@pytest.fixture
def test_resources():
    spec = make_resource()
    return {spec.name: spec}
