import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_job, table_of
from hpcwl.errors import EmptyProfile
from hpcwl.metrics import DepthProfile, ProjectDepth, depth_profile, joint_ratio, width_curves

YEAR = 365 * 86400


def profile_of(pairs):
    """pairs: (depth, usage[, jobs]) tuples -> DepthProfile."""
    projects = []
    for i, entry in enumerate(pairs):
        depth, usage = entry[0], entry[1]
        jobs = entry[2] if len(entry) > 2 else 1
        projects.append(ProjectDepth(f"P{i}", depth, float(usage), jobs))
    return DepthProfile(by="cores", window_year=None, projects=tuple(projects))


def oracle_joint_ratio(pairs):
    """Exhaustive scan over observed depths, written independently."""
    n = len(pairs)
    total = sum(u for _, u in pairs)
    for d in sorted({d for d, _ in pairs}):
        f_p = sum(1 for dd, _ in pairs if dd <= d) / n
        f_u = sum(u for dd, u in pairs if dd <= d) / total
        if f_p + f_u >= 1.0:
            deep_pct = int(math.floor(100 * (1 - f_u) + 0.5))
            n_deep = sum(1 for dd, _ in pairs if dd > d)
            return deep_pct, 100 - deep_pct, d, n_deep
    raise AssertionError("no crossing found")


# --- depth_profile ------------------------------------------------------------

def test_depth_is_max_job_size():
    jobs = [make_job(job_id="a", cores=8, nodes=1),
            make_job(job_id="b", cores=1024, nodes=64)]
    profile = depth_profile(table_of(jobs), by="cores")
    assert profile.projects[0].depth == 1024
    assert profile.projects[0].job_count == 2


def test_window_year_excludes_other_years():
    jobs = [make_job(job_id="a", cores=2048, nodes=128, submit=T0 - YEAR),
            make_job(job_id="b", cores=8, nodes=1, submit=T0)]
    profile = depth_profile(table_of(jobs), by="cores", window_year=2015)
    assert profile.projects[0].depth == 8
    assert profile.projects[0].job_count == 1


def test_five_project_fixture_matches_brute_force():
    jobs = []
    expect = {}
    for p, sizes in (("P1", [1, 8, 64]), ("P2", [16]), ("P3", [4, 4, 4]),
                     ("P4", [512, 2]), ("P5", [32, 33])):
        expect[p] = (max(sizes), len(sizes))
        for i, c in enumerate(sizes):
            jobs.append(make_job(job_id=f"{p}-{i}", charge_number=p,
                                 cores=c, nodes=max(1, c // 16)))
    profile = depth_profile(table_of(jobs), by="cores")
    for project in profile.projects:
        depth, count = expect[project.project_id]
        assert project.depth == depth
        assert project.job_count == count
        assert project.usage_core_hours == pytest.approx(
            sum(j.core_hours for j in jobs if j.charge_number == project.project_id))


def test_nodes_variant():
    jobs = [make_job(job_id="a", cores=64, nodes=4)]
    assert depth_profile(table_of(jobs), by="nodes").projects[0].depth == 4


# --- joint_ratio ---------------------------------------------------------------

def test_two_equal_projects_fifty_fifty():
    result = joint_ratio(profile_of([(1, 50.0), (100, 50.0)]))
    assert (result.ratio_deep_usage_pct, result.ratio_deep_projects_pct) == (50, 50)
    assert result.depth_at_ratio == 1
    assert result.projects_at_ratio == 1  # the deep one


def test_seventy_thirty_fixture():
    result = joint_ratio(profile_of([(1, 10.0), (2, 10.0), (4, 10.0), (8, 70.0)]))
    assert result.ratio_label == "70:30"
    assert result.depth_at_ratio == 4
    assert result.projects_at_ratio == 1
    assert result.usage_at_ratio == 70.0


def test_single_project_degenerate():
    result = joint_ratio(profile_of([(64, 10.0)]))
    assert result.ratio_label == "0:100"
    assert result.depth_at_ratio == 64
    assert result.projects_at_ratio == 0


def test_empty_profile_raises():
    with pytest.raises(EmptyProfile):
        joint_ratio(profile_of([]))
    with pytest.raises(EmptyProfile):
        joint_ratio(profile_of([(1, 0.0)]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5000), st.floats(0.001, 1e9)),
                min_size=1, max_size=8))
def test_joint_ratio_matches_exhaustive_oracle(pairs):
    result = joint_ratio(profile_of(pairs))
    deep, wide, depth, n_deep = oracle_joint_ratio(pairs)
    assert result.ratio_deep_usage_pct == deep
    assert result.ratio_deep_projects_pct == wide
    assert result.depth_at_ratio == depth
    assert result.projects_at_ratio == n_deep
    assert result.ratio_deep_usage_pct + result.ratio_deep_projects_pct == 100


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 500), st.floats(0.01, 1e6)),
                min_size=1, max_size=8),
       st.floats(0.001, 1e6))
def test_joint_ratio_invariant_under_usage_scaling(pairs, scale):
    base = joint_ratio(profile_of(pairs))
    scaled = joint_ratio(profile_of([(d, u * scale) for d, u in pairs]))
    assert scaled.ratio_label == base.ratio_label
    assert scaled.depth_at_ratio == base.depth_at_ratio


# --- width curves ----------------------------------------------------------------

def test_single_project_step_function():
    curves = width_curves(profile_of([(16, 10.0, 3)]))
    assert curves.depths == (16,)
    assert curves.project_fraction == (1.0,)
    assert curves.job_fraction == (1.0,)
    assert curves.usage_fraction == (1.0,)


def test_curves_end_at_one_and_nondecreasing():
    curves = width_curves(profile_of([(1, 5.0, 2), (4, 20.0, 7), (4, 5.0, 1),
                                      (64, 70.0, 10)]))
    for series in (curves.project_fraction, curves.job_fraction,
                   curves.usage_fraction):
        assert series[-1] == pytest.approx(1.0)
        assert all(a <= b for a, b in zip(series, series[1:]))


def test_curves_match_brute_force_cumulative_sums():
    pairs = [(1, 10.0, 5), (2, 30.0, 2), (8, 40.0, 1), (8, 10.0, 1), (32, 10.0, 1)]
    curves = width_curves(profile_of(pairs))
    n, total_jobs = len(pairs), sum(p[2] for p in pairs)
    total_usage = sum(p[1] for p in pairs)
    for depth, pf, jf, uf in zip(curves.depths, curves.project_fraction,
                                 curves.job_fraction, curves.usage_fraction):
        assert pf == pytest.approx(sum(1 for d, _, _ in pairs if d <= depth) / n)
        assert jf == pytest.approx(
            sum(j for d, _, j in pairs if d <= depth) / total_jobs)
        assert uf == pytest.approx(
            sum(u for d, u, _ in pairs if d <= depth) / total_usage)
