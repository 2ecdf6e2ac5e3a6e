"""The gateway, wait-time, queue-depth, exit-status, node-failure and
periodogram kernels against the record loops (tests/rollups_oracle.py), by
repr.  The kernels take the whole table with some rows taken, as a report
passes it, so its name tables hold values no kept row has."""
import dataclasses
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rollups_oracle as oracle
from conftest import make_allocation, make_job, make_resource, table_of
from hpcwl import backlog, report, statmodels, synth
from hpcwl.errors import HpcwlError
from hpcwl.ingest import ExitStatus, FactorWindow
from hpcwl.metrics import gateway_census, gateway_conversion, gateway_usage
from hpcwl.metrics.gateways import DEFAULT_RELIABILITY_DATE, MODES
from hpcwl.report import ReportContext

DAY = 86400
RELIABLE = 1427846400  # 2015-04-01T00:00:00Z, the default reliability date
Q4_2015 = 1443657600   # 2015-10-01T00:00:00Z
Y2016 = 1451606400     # 2016-01-01T00:00:00Z

RESOURCES = {
    "TESTMACHINE": make_resource(),  # factor 2.0 over 2010-2030
    # no factor from 2015-10-01 on
    "PARTIAL": dataclasses.replace(make_resource(name="PARTIAL"), su_factors=(
        FactorWindow(date(2015, 1, 1), date(2015, 10, 1), 1.5),)),
}
# GHOST has no description: no factor

COMMUNITY = {"cipres_comm": "Cipres", "gridchem_comm": "Gridchem"}
# carol shares alice's email; dave's is "", the name of the "" gateway user
EMAILS = {"alice": "alice@uni.edu", "bob": "bob@uni.edu", "carol": "alice@uni.edu",
          "dave": ""}
ALLOCATIONS = [make_allocation(charge_number="TG-TAG", tagged=True),
               make_allocation(charge_number="TG-GW", tagged=True),
               make_allocation(charge_number="TG-1")]

# instants a second apart or equal, on the reliability date and a quarter and
# a year boundary, so first jobs tie and periods cross a year
INSTANTS = st.builds(lambda anchor, offset: anchor + offset,
                     st.sampled_from((RELIABLE, Q4_2015, Y2016)),
                     st.sampled_from((-DAY, -1, 0, 0, 1, 3600)))


@st.composite
def jobs_strategy(draw, max_size=30):
    jobs = []
    for i in range(draw(st.integers(0, max_size))):
        submit = draw(INSTANTS)
        start = submit + draw(st.sampled_from((0, 0, 1, 600)))
        nodes = draw(st.integers(1, 3))
        jobs.append(make_job(
            job_id=draw(st.sampled_from(("a", f"j{i}"))),
            resource=draw(st.sampled_from(("TESTMACHINE", "PARTIAL", "GHOST"))),
            # mystery_comm is a community-looking account with no gateway
            user=draw(st.sampled_from(("alice", "bob", "carol", "dave", "cipres_comm",
                                       "gridchem_comm", "mystery_comm"))),
            charge_number=draw(st.sampled_from(("TG-GW", "TG-TAG", "TG-1", "TG-2"))),
            gateway_user=draw(st.sampled_from((None, None, "", "alice@uni.edu",
                                               "bob@uni.edu", "x@y.org"))),
            submit=submit, start=start, end=start + draw(st.sampled_from((0, 0, 1, 3600))),
            nodes=nodes, cores=nodes * draw(st.sampled_from((1, 16))),
            local_su=draw(st.floats(0.0, 1e6)),
            exit_status=draw(st.sampled_from((ExitStatus.COMPLETED, ExitStatus.COMPLETED,
                                              ExitStatus.NODE_FAIL, ExitStatus.FAILED,
                                              ExitStatus.TIMEOUT)))))
    return jobs


@st.composite
def kept_strategy(draw, max_size=30):
    """The jobs, and the rows a report's filters kept of them."""
    jobs = draw(jobs_strategy(max_size))
    keep = draw(st.lists(st.booleans(), min_size=len(jobs), max_size=len(jobs)))
    return jobs, np.array(keep, dtype=bool)


def _forms(jobs, keep):
    """The kept jobs as records, for the oracle, and as rows taken from the
    whole table."""
    table = table_of(jobs, RESOURCES).take(keep)
    return [job for job, kept in zip(jobs, keep.tolist()) if kept], table


def _outcome(compute):
    try:
        return repr(compute())
    except (HpcwlError, ValueError) as err:
        return type(err)


@settings(max_examples=80, deadline=None)
@given(kept_strategy(), st.sampled_from(("quarter", "year")))
def test_gateway_usage_equals_the_oracle(kept, period):
    records, table = _forms(*kept)
    for mode in MODES:
        assert repr(gateway_usage(table, ALLOCATIONS, COMMUNITY, mode, period)) == repr(
            oracle.gateway_usage(records, ALLOCATIONS, COMMUNITY, RESOURCES, mode, period))


@settings(max_examples=80, deadline=None)
@given(kept_strategy(), st.sampled_from(("quarter", "year")),
       st.sampled_from((DEFAULT_RELIABILITY_DATE, date(2015, 10, 1), date(2016, 1, 1))))
def test_gateway_census_equals_the_oracle(kept, period, reliability_date):
    records, table = _forms(*kept)
    assert repr(gateway_census(table, COMMUNITY, period, reliability_date)) == repr(
        oracle.gateway_census(records, COMMUNITY, period, reliability_date))


@settings(max_examples=80, deadline=None)
@given(kept_strategy(), st.integers(0, 3))
def test_gateway_conversion_equals_the_oracle(kept, min_xsede_jobs):
    records, table = _forms(*kept)
    assert repr(gateway_conversion(table, COMMUNITY, EMAILS, min_xsede_jobs)) == repr(
        oracle.gateway_conversion(records, COMMUNITY, EMAILS, min_xsede_jobs))


@settings(max_examples=80, deadline=None)
@given(kept_strategy())
def test_waits_depths_and_exit_codes_equal_the_oracle(kept):
    records, table = _forms(*kept)
    for by_resource in (False, True):
        assert _outcome(lambda: backlog.wait_stats(table, by_resource)) == _outcome(
            lambda: oracle.wait_stats(records, by_resource))
        assert repr(statmodels.exit_code_table(table, by_resource)) == repr(
            oracle.exit_code_table(records, by_resource))
    for community in (None, COMMUNITY):
        assert repr(backlog.user_queue_depth(table, community)) == repr(
            oracle.user_queue_depth(records, community))


@settings(max_examples=80, deadline=None)
@given(kept_strategy(max_size=40), st.sampled_from(statmodels.MODELS), st.booleans())
def test_node_fail_fit_equals_the_oracle(kept, model, include_failed):
    records, table = _forms(*kept)
    assert _outcome(lambda: statmodels.fit_node_fail(table, model, include_failed)) \
        == _outcome(lambda: oracle.fit_node_fail(records, model, include_failed))
    # zero wall times reach the covariate only when called directly
    assert _outcome(lambda: [v.tolist() if isinstance(v, np.ndarray) else v
                             for v in statmodels.model_covariate(table, model)]) \
        == _outcome(lambda: [v.tolist() if isinstance(v, np.ndarray) else v
                             for v in oracle.model_covariate(records, model)])


def test_fixed_cases_equal_the_oracle():
    t = Q4_2015
    jobs = [
        # a "" gateway user is a name: it is attributed, counted and joined
        make_job(job_id="g", user="cipres_comm", gateway_user="", submit=t, local_su=1.0),
        make_job(job_id="p", user="dave", submit=t + 60),
        # the first gateway job at the same second as the first personal one
        make_job(job_id="tie-g", user="gridchem_comm", gateway_user="bob@uni.edu", submit=t),
        make_job(job_id="tie-p", user="bob", submit=t),
        # no SU factor, and an unknown resource
        make_job(job_id="nf", user="cipres_comm", resource="PARTIAL", submit=t, local_su=3.0),
        make_job(job_id="ur", user="cipres_comm", resource="GHOST", submit=t, local_su=4.0),
        # a zero-length job whose submit and end are one instant
        make_job(job_id="z", user="alice", submit=t, start=t, end=t,
                 exit_status=ExitStatus.NODE_FAIL),
        make_job(job_id="y", user="alice", submit=t - 60, start=t - 30, end=t),
    ]
    records, table = _forms(jobs, np.ones(len(jobs), dtype=bool))
    usage = gateway_usage(table, ALLOCATIONS, COMMUNITY)
    assert repr(usage) == repr(oracle.gateway_usage(records, ALLOCATIONS, COMMUNITY,
                                                    RESOURCES))
    assert usage.excluded_no_factor == 2
    assert usage.per_gateway["Cipres"]["job_count"] == 3.0
    assert usage.per_gateway["Cipres"]["xd_su"] == 2.0  # only job g has a factor
    conversion = gateway_conversion(table, COMMUNITY, EMAILS, min_xsede_jobs=0)
    assert [(r.gateway, r.user_key) for r in conversion] == [("Cipres", "")]
    assert repr(conversion) == repr(oracle.gateway_conversion(records, COMMUNITY,
                                                              EMAILS, 0))
    depth = {r.user: r.max_depth for r in backlog.user_queue_depth(table)}
    assert depth["alice"] == 1
    assert statmodels.exit_code_table(table)["TESTMACHINE"]["canceled"] == 0
    with pytest.raises(ValueError, match="positive wall time"):
        statmodels.model_covariate(table, "walltime_pow_nodes")


def test_the_periodogram_equals_the_oracle():
    dataset = synth.make_synthetic_dataset(seed=3, n_jobs=300).dataset
    ctx = ReportContext(dataset=dataset)
    for resource in (None, dataset.jobs[0].resource):
        params = {"resource": resource, "min_period_days": 0.5}
        assert repr(report.compute_analysis(ctx, "periodogram", params)) == repr(
            oracle.periodogram(dataset.jobs, params))
