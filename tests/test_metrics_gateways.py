import json
from datetime import date

from conftest import T0, make_allocation, make_job
from hpcwl.jobtable import JobTable
from hpcwl.metrics import (
    gateway_census,
    gateway_conversion,
    gateway_usage,
    load_community_users,
)

CMAP = {"cipres_comm": "Cipres", "gridchem_comm": "Gridchem"}
QUARTER = 92 * 86400


def test_community_user_attribution(test_resources):
    job = make_job(user="cipres_comm", gateway_user="e@x.org", local_su=5.0)
    usage = gateway_usage(JobTable.of([job], test_resources), [], CMAP, mode="community_user")
    assert usage.per_gateway["Cipres"]["job_count"] == 1
    assert usage.per_gateway["Cipres"]["local_su"] == 5.0
    assert usage.per_gateway["Cipres"]["xd_su"] == 10.0  # factor 2.0


def test_associated_allocation_casts_larger_net(test_resources):
    jobs = [
        # the community user charged TG-GW at some point
        make_job(job_id="a", user="cipres_comm", charge_number="TG-GW"),
        # a personal job on the same allocation counts in this mode only
        make_job(job_id="b", user="alice", charge_number="TG-GW"),
        make_job(job_id="c", user="bob", charge_number="TG-OTHER"),
    ]
    table = JobTable.of(jobs, test_resources)
    community = gateway_usage(table, [], CMAP, mode="community_user")
    associated = gateway_usage(table, [], CMAP, mode="associated_allocation")
    assert community.per_gateway["Cipres"]["job_count"] == 1
    assert associated.per_gateway["Cipres"]["job_count"] == 2
    assert "TG-OTHER" not in str(associated.per_gateway)


def test_gateway_tagged_mode(test_resources):
    allocs = [make_allocation(charge_number="TG-TAGGED", tagged=True)]
    jobs = [make_job(job_id="a", charge_number="TG-TAGGED"),
            make_job(job_id="b", charge_number="TG-PLAIN")]
    usage = gateway_usage(JobTable.of(jobs, test_resources), allocs, CMAP, mode="gateway_tagged")
    assert usage.per_gateway["(untagged-gateway)"]["job_count"] == 1


def test_unknown_gateway_flagged(test_resources):
    job = make_job(user="mystery_comm", gateway_user="e@x.org")
    usage = gateway_usage(JobTable.of([job], test_resources), [], CMAP)
    assert usage.unknown_gateway_jobs == [job.job_id]
    assert usage.per_gateway == {}


def test_two_gateway_hand_table(test_resources):
    jobs = [
        make_job(job_id="a", user="cipres_comm", local_su=10.0),
        make_job(job_id="b", user="cipres_comm", local_su=20.0),
        make_job(job_id="c", user="gridchem_comm", local_su=5.0),
        make_job(job_id="d", user="alice", local_su=99.0),
    ]
    usage = gateway_usage(JobTable.of(jobs, test_resources), [], CMAP)
    assert usage.per_gateway["Cipres"] == {
        "job_count": 2, "local_su": 30.0, "xd_su": 60.0}
    assert usage.per_gateway["Gridchem"] == {
        "job_count": 1, "local_su": 5.0, "xd_su": 10.0}
    assert set(usage.per_gateway) == {"Cipres", "Gridchem"}


def test_usage_series_by_quarter(test_resources):
    jobs = [make_job(job_id="a", user="cipres_comm", local_su=1.0),
            make_job(job_id="b", user="cipres_comm", submit=T0 + QUARTER,
                     local_su=2.0)]
    usage = gateway_usage(JobTable.of(jobs, test_resources), [], CMAP)
    assert set(usage.series) == {"2015-Q3", "2015-Q4"}


# --- census ---------------------------------------------------------------------

def test_active_both_quarters_new_only_first(test_resources):
    jobs = [make_job(job_id="a", user="alice"),
            make_job(job_id="b", user="alice", submit=T0 + QUARTER)]
    rows = gateway_census(JobTable.of(jobs), CMAP)
    assert [r.period for r in rows] == ["2015-Q3", "2015-Q4"]
    assert rows[0].active_hpc_users == 1 and rows[0].new_hpc_users == 1
    assert rows[1].active_hpc_users == 1 and rows[1].new_hpc_users == 0


def test_same_email_on_two_gateways_is_two_census_users(test_resources):
    jobs = [make_job(job_id="a", user="cipres_comm", gateway_user="x@y.org"),
            make_job(job_id="b", user="gridchem_comm", gateway_user="x@y.org")]
    rows = gateway_census(JobTable.of(jobs), CMAP)
    assert rows[0].active_gateway_users == 2


def test_census_hand_count_and_lower_bound_flag(test_resources):
    early = 1420113600  # 2015-01-01, before the reliability date
    jobs = [
        make_job(job_id="a", user="alice", submit=early),
        make_job(job_id="b", user="cipres_comm", gateway_user="u1@x.org",
                 submit=early),
        make_job(job_id="c", user="alice"),
        make_job(job_id="d", user="bob"),
        make_job(job_id="e", user="cipres_comm", gateway_user="u1@x.org"),
        make_job(job_id="f", user="cipres_comm", gateway_user="u2@x.org"),
    ]
    rows = gateway_census(JobTable.of(jobs), CMAP)
    q1, q3 = rows[0], rows[1]
    assert q1.period == "2015-Q1"
    assert q1.gateway_counts_lower_bound is True
    assert (q1.active_hpc_users, q1.active_gateway_users) == (1, 1)
    assert q3.period == "2015-Q3"
    assert q3.gateway_counts_lower_bound is False
    assert (q3.active_hpc_users, q3.new_hpc_users) == (2, 1)   # bob is new
    assert (q3.active_gateway_users, q3.new_gateway_users) == (2, 1)  # u2 is new
    assert q3.combined_active == 4


def test_community_accounts_not_counted_as_hpc_users(test_resources):
    # a lone unattributed community job registers nobody at all
    assert gateway_census(JobTable.of([make_job(job_id="a", user="cipres_comm")]), CMAP) == []
    jobs = [make_job(job_id="a", user="cipres_comm"),
            make_job(job_id="b", user="alice")]
    rows = gateway_census(JobTable.of(jobs), CMAP)
    assert rows[0].active_hpc_users == 1
    assert rows[0].active_gateway_users == 0


# --- conversion ------------------------------------------------------------------

EMAILS = {"alice": "alice@uni.edu", "bob": "bob@uni.edu"}


def personal(job_id, user, when, n=1):
    return [make_job(job_id=f"{job_id}{i}", user=user, submit=when + i * 3600)
            for i in range(n)]


def gateway(job_id, email, when, n=1):
    return [make_job(job_id=f"{job_id}{i}", user="cipres_comm",
                     gateway_user=email, submit=when + i * 3600)
            for i in range(n)]


def test_gateway_first_then_many_personal_jobs_included():
    jobs = gateway("g", "alice@uni.edu", T0, n=3)
    jobs += personal("p", "alice", T0 + 30 * 86400, n=47)
    rows = gateway_conversion(JobTable.of(jobs), CMAP, EMAILS)
    assert len(rows) == 1
    row = rows[0]
    assert row.gateway == "Cipres"
    assert row.user_key == "alice@uni.edu"
    assert row.gw_job_count == 3
    assert row.xsede_job_count == 47
    assert row.first_gw_job == date(2015, 8, 1)
    assert row.first_xsede_job == date(2015, 8, 31)


def test_exactly_ten_personal_jobs_excluded():
    jobs = gateway("g", "alice@uni.edu", T0)
    jobs += personal("p", "alice", T0 + 86400, n=10)
    assert gateway_conversion(JobTable.of(jobs), CMAP, EMAILS) == []
    jobs += personal("q", "alice", T0 + 2 * 86400, n=1)  # now 11
    assert len(gateway_conversion(JobTable.of(jobs), CMAP, EMAILS)) == 1


def test_personal_first_excluded():
    jobs = personal("p", "bob", T0, n=20)
    jobs += gateway("g", "bob@uni.edu", T0 + 30 * 86400)
    assert gateway_conversion(JobTable.of(jobs), CMAP, EMAILS) == []


# --- mapping file ------------------------------------------------------------------

def test_load_community_users_csv_and_json(tmp_path):
    csv_path = tmp_path / "map.csv"
    csv_path.write_text("gateway,user\nCipres,cipres_comm\n")
    assert load_community_users(csv_path) == {"cipres_comm": "Cipres"}
    json_path = tmp_path / "map.json"
    json_path.write_text(json.dumps({"Cipres": ["cipres_comm", "cipres2"]}))
    assert load_community_users(json_path) == {
        "cipres_comm": "Cipres", "cipres2": "Cipres"}
