import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import T0, make_job
from perfsummary_oracle import loader_order, summarize_records
from hpcwl.errors import InvalidMemInfo, MissingEpilog, MissingProlog, SchemaError
from hpcwl.perfsummary import (
    CPU_TOTAL,
    CPU_USER,
    FILE_OPENS,
    IB_RX,
    IB_TX,
    LUSTRE_RX,
    LUSTRE_TX,
    RUNNABLE_THREADS,
    JobArchive,
    JobPerfSummary,
    LauncherInfo,
    LaunchType,
    MemInfoSample,
    NumaMem,
    PerfSample,
    SampleKind,
    SampleTag,
    classify_launch_type,
    counter_delta,
    load_archives,
    memory_per_core,
    non_lustre_ib,
    summarize_all,
    summarize_job,
    write_summaries,
)
from hpcwl.stats import quantile

GIB = 1 << 30


def counter(node, time, metric, value, tag=SampleTag.PERIODIC):
    return PerfSample(node=node, time=time, metric=metric,
                      kind=SampleKind.COUNTER, value=value, tag=tag)


def instant(node, time, value, metric=RUNNABLE_THREADS):
    return PerfSample(node=node, time=time, metric=metric,
                      kind=SampleKind.INSTANTANEOUS, value=value)


def meminfo(node, time, total, free, file_pages, slab):
    return MemInfoSample(node=node, time=time,
                         numa_nodes=(NumaMem(total, free, file_pages, slab),))


# --- memory formula ---------------------------------------------------------

def test_memory_all_free_is_zero():
    sample = meminfo("n1", T0, 64 * GIB, 64 * GIB, 0, 0)
    assert memory_per_core(sample, 16) == 0.0
    assert memory_per_core(sample, 1) == 0.0


def test_memory_single_numa_hand_arithmetic():
    sample = meminfo("n1", T0, 64 * GIB, 32 * GIB, 8 * GIB, 8 * GIB)
    assert memory_per_core(sample, 16) == 1 * GIB


def test_memory_two_numa_nodes_hand_arithmetic():
    numa = NumaMem(32 * GIB, 20 * GIB, 2 * GIB, 2 * GIB)  # 8 GiB used
    sample = MemInfoSample(node="n1", time=T0, numa_nodes=(numa, numa))
    assert memory_per_core(sample, 16) == 1 * GIB


def test_memory_negative_component_rejected():
    sample = MemInfoSample(node="n1", time=T0,
                           numa_nodes=(NumaMem(64, -1, 0, 0),))
    with pytest.raises(InvalidMemInfo):
        memory_per_core(sample, 4)
    overfull = meminfo("n1", T0, 8, 4, 4, 4)  # free+cache > total
    with pytest.raises(InvalidMemInfo):
        memory_per_core(overfull, 4)


# --- counter semantics -------------------------------------------------------

def test_counter_delta_simple_and_reset():
    assert counter_delta([1000, 1500, 2000]) == (1000.0, False)
    # reset between samples contributes the post-reset value
    assert counter_delta([1000, 1500, 200, 500]) == (1000.0, True)


@given(st.lists(st.integers(min_value=0, max_value=10**12), min_size=2, max_size=40),
       st.data())
def test_counter_split_invariant(values, data):
    i = data.draw(st.integers(min_value=1, max_value=len(values) - 1))
    whole, _ = counter_delta(values)
    left, _ = counter_delta(values[:i + 1])
    right, _ = counter_delta(values[i:])
    assert left + right == whole


# --- job summarization -------------------------------------------------------

def job_and_window():
    job = make_job(submit=T0, start=T0 + 600, end=T0 + 4200, nodes=1, cores=16)
    return job, job.start_time, job.end_time


def test_cpu_user_fraction_hand_arithmetic():
    job, start, end = job_and_window()
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, CPU_USER, 1000, SampleTag.JOB_PROLOG),
        counter("n1", start, CPU_TOTAL, 2000, SampleTag.JOB_PROLOG),
        counter("n1", end, CPU_USER, 1900, SampleTag.JOB_EPILOG),
        counter("n1", end, CPU_TOTAL, 3000, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.cpu_user_fraction == 0.9


def test_no_in_window_samples_fields_absent():
    job, start, end = job_and_window()
    # samples exactly at the boundary are out of the open window
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), meminfo=(
        meminfo("n1", start, 64 * GIB, 32 * GIB, 0, 0),
        meminfo("n1", end, 64 * GIB, 32 * GIB, 0, 0),
    ))
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.mem_avg_per_core is None
    assert summary.mem_max_per_core is None
    assert summary.runnable_threads_median is None
    assert summary.samples_used == 0


def test_memory_avg_and_max_small_set():
    job, start, _ = job_and_window()
    samples = tuple(
        meminfo("n1", start + 600 * (i + 1), 64 * GIB, 64 * GIB - used, 0, 0)
        for i, used in enumerate((16 * GIB, 32 * GIB, 48 * GIB)))
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), meminfo=samples)
    summary = summarize_job(job, archive, cores_per_node=16)
    assert summary.mem_avg_per_core == 2 * GIB
    assert summary.mem_max_per_core == 3 * GIB
    assert summary.samples_used == 3


def test_out_of_window_instantaneous_samples_ignored():
    job, start, end = job_and_window()
    inside = (instant("n1", start + 600, 16), instant("n1", start + 1200, 16))
    outside = (instant("n1", start - 60, 1), instant("n1", end + 60, 99),
               instant("n1", start, 2), instant("n1", end, 98))
    with_noise = JobArchive(job_id=job.job_id, nodes=("n1",),
                            samples=inside + outside)
    clean = JobArchive(job_id=job.job_id, nodes=("n1",), samples=inside)
    s_noise = summarize_job(job, with_noise, 16)
    s_clean = summarize_job(job, clean, 16)
    assert s_noise.runnable_threads_median == s_clean.runnable_threads_median == 16


def test_median_of_constant_stream_is_constant():
    # the summaries' median is the type 7 quantile at 0.5
    assert quantile([7.0] * 5, 0.5) == 7.0
    assert quantile([7.0] * 4, 0.5) == 7.0
    assert quantile([1.0, 2.0], 0.5) == 1.5


def test_counter_regression_flagged_and_reset_handled():
    job, start, end = job_and_window()
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, LUSTRE_RX, 1000, SampleTag.JOB_PROLOG),
        counter("n1", start + 1200, LUSTRE_RX, 4000),
        counter("n1", start + 2400, LUSTRE_RX, 500),  # reset
        counter("n1", end, LUSTRE_RX, 700, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, 16)
    assert summary.lustre_rx == 3000 + 500 + 200
    assert any(f.startswith("counter_regression") for f in summary.flags)


def test_missing_prolog_and_epilog():
    job, start, end = job_and_window()
    no_prolog = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", end, CPU_USER, 10, SampleTag.JOB_EPILOG),))
    with pytest.raises(MissingProlog):
        summarize_job(job, no_prolog, 16)
    no_epilog = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, CPU_USER, 10, SampleTag.JOB_PROLOG),))
    with pytest.raises(MissingEpilog):
        summarize_job(job, no_epilog, 16)


def test_counters_sum_over_nodes():
    job = make_job(nodes=2, cores=32)
    start, end = job.start_time, job.end_time
    samples = []
    for node, (rx0, rx1) in (("n1", (100, 600)), ("n2", (50, 250))):
        samples.append(counter(node, start, LUSTRE_RX, rx0, SampleTag.JOB_PROLOG))
        samples.append(counter(node, end, LUSTRE_RX, rx1, SampleTag.JOB_EPILOG))
    archive = JobArchive(job_id=job.job_id, nodes=("n1", "n2"),
                         samples=tuple(samples))
    summary = summarize_job(job, archive, 16)
    assert summary.lustre_rx == 500 + 200


def test_non_lustre_ib_examples():
    assert non_lustre_ib(10e9, 4e9) == (6e9, False)
    assert non_lustre_ib(4e9, 10e9) == (0.0, True)
    assert non_lustre_ib(7.5, 0.0) == (7.5, False)


def test_non_lustre_ib_field_and_clamp_flag():
    job, start, end = job_and_window()
    samples = []
    for metric, v0, v1 in ((IB_RX, 0, 100), (IB_TX, 0, 100),
                           (LUSTRE_RX, 0, 500), (LUSTRE_TX, 0, 500)):
        samples.append(counter("n1", start, metric, v0, SampleTag.JOB_PROLOG))
        samples.append(counter("n1", end, metric, v1, SampleTag.JOB_EPILOG))
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), samples=tuple(samples))
    summary = summarize_job(job, archive, 16)
    assert summary.non_lustre_ib == 0.0
    assert "non_lustre_ib_clamped" in summary.flags


def test_classify_launch_type_table():
    assert classify_launch_type(64, 1, True) is LaunchType.MULTI_PROCESS
    assert classify_launch_type(1, 1, True) is LaunchType.SERIAL
    assert classify_launch_type(8, 4, False) is LaunchType.UNKNOWN
    assert classify_launch_type(1, 8, True) is LaunchType.MULTI_THREADED
    assert classify_launch_type(16, 2, True) is LaunchType.MULTI_PROCESS_MULTI_THREADED


def test_launcher_info_drives_label_and_type():
    job, start, end = job_and_window()
    archive = JobArchive(job_id=job.job_id, nodes=("n1",),
                         launcher=LauncherInfo(exe="/apps/namd2", n_processes=16,
                                               threads_per_process=1))
    summary = summarize_job(job, archive, 16)
    assert summary.app_label == "NAMD"
    assert summary.launch_type is LaunchType.MULTI_PROCESS


def test_jobs_without_archive_get_no_summary():
    job = make_job()
    summaries, skipped = summarize_all([job], {}, lambda j: 16)
    assert summaries == {}
    assert skipped == {job.job_id: "no_archive"}


def test_archive_jsonl_round_trip(tmp_path):
    job, start, end = job_and_window()
    lines = [
        {"type": "job", "job_id": job.job_id, "nodes": ["n1"]},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": start,
         "metric": CPU_USER, "kind": "counter", "value": 0, "tag": "job_prolog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": end,
         "metric": CPU_USER, "kind": "counter", "value": 90, "tag": "job_epilog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": start,
         "metric": CPU_TOTAL, "kind": "counter", "value": 0, "tag": "job_prolog"},
        {"type": "perf", "job_id": job.job_id, "node": "n1", "time": end,
         "metric": CPU_TOTAL, "kind": "counter", "value": 100, "tag": "job_epilog"},
        {"type": "meminfo", "job_id": job.job_id, "node": "n1", "time": start + 600,
         "numa": [{"mem_total": 64 * GIB, "mem_free": 48 * GIB,
                   "file_pages": 0, "slab": 0}]},
        {"type": "launcher", "job_id": job.job_id, "exe": "/apps/namd2",
         "n_processes": 16, "threads_per_process": 1},
        {"type": "process", "job_id": job.job_id, "process_name": "namd2",
         "unique_pid_count": 16},
    ]
    import json

    path = tmp_path / "archive.jsonl"
    path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    archives = load_archives(path)
    assert set(archives) == {job.job_id}
    summaries, skipped = summarize_all([job], archives, lambda j: 16)
    assert not skipped
    summary = summaries[job.job_id]
    assert summary.cpu_user_fraction == 0.9
    assert summary.mem_avg_per_core == 1 * GIB
    out = tmp_path / "summaries.jsonl"
    write_summaries(summaries, out)
    emitted = json.loads(out.read_text().splitlines()[0])
    assert emitted["job_id"] == job.job_id
    assert emitted["app_label"] == "NAMD"


# --- columnar summaries against the record-at-a-time oracle ------------------

ORACLE_JOB = make_job(job_id="jo", submit=T0, start=T0 + 600, end=T0 + 4200)
# a coarse time grid around the run window, so equal timestamps are common
GRID = st.integers(-3, 15).map(lambda k: ORACLE_JOB.start_time + 300 * k)
LISTABLE = ("n1", "n2", "n3")
NODES = LISTABLE + ("x9",)  # x9 is never in the job's node list
VALUES = st.integers(0, 10**6) | st.floats(0, 1e12, allow_nan=False, allow_infinity=False)


@st.composite
def counter_group(draw, node, metric, complete):
    """Records of one (node, metric): prologs and epilogs (several at one
    time now and then, none when not ``complete``), periodic samples, and
    resets by chance."""
    least = 1 if complete else 0
    tags = ([SampleTag.JOB_PROLOG] * draw(st.sampled_from((least, 1, 1, 1, 2, 3)))
            + [SampleTag.JOB_EPILOG] * draw(st.sampled_from((least, 1, 1, 1, 2, 3)))
            + [SampleTag.PERIODIC] * draw(st.integers(0, 8)))
    same_time = draw(st.booleans())
    first = draw(GRID)
    return [PerfSample(node, first if same_time and tag is not SampleTag.PERIODIC
                       else draw(GRID), metric, SampleKind.COUNTER, draw(VALUES), tag)
            for tag in tags]


@st.composite
def numa_parts(draw):
    parts = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.integers(0, 9)) == 0:  # now and then an invalid one
            parts.append(NumaMem(*draw(st.lists(st.integers(-5, 100), min_size=4,
                                                max_size=4))))
            continue
        total = draw(st.integers(0, 2**40))
        free = draw(st.integers(0, total))
        file_pages = draw(st.integers(0, total - free))
        slab = draw(st.integers(0, total - free - file_pages))
        parts.append(NumaMem(total, free, file_pages, slab))
    return tuple(parts)


@st.composite
def oracle_archives(draw):
    """(node list, perf records, meminfo records, cores per node)."""
    listed = tuple(draw(st.lists(st.sampled_from(LISTABLE), min_size=1, max_size=3,
                                 unique=True)))
    complete = draw(st.integers(0, 3)) > 0
    samples = []
    for node in NODES:
        for metric in draw(st.sets(st.sampled_from((CPU_USER, CPU_TOTAL, LUSTRE_RX,
                                                     IB_RX, IB_TX, FILE_OPENS)))):
            samples += draw(counter_group(node, metric, complete))
    samples += draw(st.lists(st.builds(
        PerfSample, st.sampled_from(NODES), GRID, st.just(RUNNABLE_THREADS),
        st.just(SampleKind.INSTANTANEOUS), VALUES), max_size=12))
    # either kind under any name: instantaneous samples of counter metrics,
    # counter samples of runnable_threads
    samples += draw(st.lists(st.builds(
        PerfSample, st.sampled_from(NODES), GRID,
        st.sampled_from((RUNNABLE_THREADS, CPU_USER, LUSTRE_RX, "other")),
        st.sampled_from(SampleKind), VALUES), max_size=4))
    meminfo = draw(st.lists(st.builds(MemInfoSample, st.sampled_from(NODES), GRID,
                                      numa_parts()), max_size=12))
    return (listed, draw(st.permutations(samples)), draw(st.permutations(meminfo)),
            draw(st.sampled_from((0, 1, 16, 16, 24, 24))))


def _outcome(summarize):
    try:
        return summarize()
    except (MissingProlog, MissingEpilog, InvalidMemInfo, ValueError) as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(oracle_archives())
def test_columnar_summary_equals_the_record_oracle(drawn):
    listed, samples, meminfo, cores = drawn
    archive = JobArchive(job_id="jo", nodes=listed, samples=tuple(samples),
                         meminfo=tuple(meminfo))
    columnar = _outcome(lambda: summarize_job(ORACLE_JOB, archive, cores, db=(),
                                              ignore_list=()))
    oracle = _outcome(lambda: summarize_records(
        ORACLE_JOB, listed, loader_order(samples), loader_order(meminfo), cores,
        db=(), ignore_list=()))
    assert columnar == oracle
    assert len(archive.samples) == len(samples)
    assert len(archive.meminfo) == len(meminfo)


def test_epilog_before_prolog_takes_the_pair_in_time_order():
    job, start, end = job_and_window()
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", end, LUSTRE_RX, 100, SampleTag.JOB_PROLOG),
        counter("n1", start + 600, LUSTRE_RX, 5000),
        counter("n1", start, LUSTRE_RX, 400, SampleTag.JOB_EPILOG),
    ))
    summary = summarize_job(job, archive, 16)
    # [epilog 400, prolog 100]: a decrease, so the post-reset value counts
    assert summary.lustre_rx == 100.0
    assert summary.flags == (f"counter_regression:n1:{LUSTRE_RX}",)


def test_first_of_tied_prologs_and_epilogs_is_used():
    job, start, end = job_and_window()
    archive = JobArchive(job_id=job.job_id, nodes=("n1",), samples=(
        counter("n1", start, LUSTRE_RX, 10, SampleTag.JOB_PROLOG),
        counter("n1", start, LUSTRE_RX, 50, SampleTag.JOB_PROLOG),
        counter("n1", end, LUSTRE_RX, 110, SampleTag.JOB_EPILOG),
        counter("n1", end, LUSTRE_RX, 990, SampleTag.JOB_EPILOG),
    ))
    assert summarize_job(job, archive, 16).lustre_rx == 100.0


# --- archive files -------------------------------------------------------------

def _perf_line(job_id, s):
    return {"type": "perf", "job_id": job_id, "node": s.node, "time": s.time,
            "metric": s.metric, "kind": s.kind.value, "value": s.value, "tag": s.tag.value}


def _meminfo_line(job_id, m):
    return {"type": "meminfo", "job_id": job_id, "node": m.node, "time": m.time,
            "numa": [{"mem_total": n.mem_total, "mem_free": n.mem_free,
                      "file_pages": n.file_pages, "slab": n.slab} for n in m.numa_nodes]}


def _job_records(rng, job, nodes):
    """Perf and meminfo records of one job on a 10-minute grid, with no two
    records of a (node, metric) or a node's meminfo at one time."""
    start, end = job.start_time, job.end_time
    grid = range(start - 300, end + 600, 600)
    samples, meminfo = [], []
    for node in nodes:
        for metric in (CPU_USER, CPU_TOTAL, LUSTRE_RX, LUSTRE_TX, IB_RX, IB_TX, FILE_OPENS):
            value = int(rng.integers(1 << 20, 1 << 40))
            samples.append(counter(node, start, metric, value, SampleTag.JOB_PROLOG))
            for t in grid:
                value = int(rng.integers(0, 1000)) if rng.random() < 0.05 else (
                    value + int(rng.integers(0, 1 << 20)))
                samples.append(counter(node, t, metric, value))
            samples.append(counter(node, end, metric, value + 1, SampleTag.JOB_EPILOG))
        for t in grid:
            samples.append(instant(node, t, float(rng.integers(0, 20))))
            used = [int(u) for u in rng.integers(0, 16 * GIB, size=2)]
            meminfo.append(MemInfoSample(node, t, tuple(
                NumaMem(32 * GIB, 32 * GIB - u - 1024, 512, 512) for u in used)))
    return samples, meminfo


def _archive_file(tmp_path, rng, n_jobs=4):
    jobs, lines, records = [], [], {}
    for k in range(n_jobs):
        job = make_job(job_id=f"a{k}", submit=T0, start=T0 + 600,
                       end=T0 + 600 + 3600 * (k + 1), nodes=k + 1, cores=16 * (k + 1))
        nodes = tuple(f"c{k}{i}" for i in range(k + 1))
        samples, meminfo = _job_records(rng, job, nodes)
        jobs.append(job)
        records[job.job_id] = (nodes, samples, meminfo)
        lines.append({"type": "job", "job_id": job.job_id, "nodes": list(nodes)})
        lines += [_perf_line(job.job_id, s) for s in samples]
        lines += [_meminfo_line(job.job_id, m) for m in meminfo]
    return jobs, lines, records


def _write_lines(path, lines):
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return path


def test_shuffled_file_loads_to_the_same_summaries(tmp_path):
    rng = np.random.default_rng(5)
    jobs, lines, records = _archive_file(tmp_path, rng)
    in_order = load_archives(_write_lines(tmp_path / "sorted.jsonl", lines))
    shuffled = [lines[i] for i in rng.permutation(len(lines))]
    mixed = load_archives(_write_lines(tmp_path / "shuffled.jsonl", shuffled))
    cores = lambda job: 16
    expected, skipped = summarize_all(jobs, in_order, cores, db=(), ignore_list=())
    assert not skipped and len(expected) == len(jobs)
    assert summarize_all(jobs, mixed, cores, db=(), ignore_list=()) == (expected, {})
    for job in jobs:
        nodes, samples, meminfo = records[job.job_id]
        assert expected[job.job_id] == summarize_records(
            job, nodes, loader_order(samples), loader_order(meminfo), 16,
            db=(), ignore_list=())
        for archive in (in_order[job.job_id], mixed[job.job_id]):
            assert len(archive.samples) == len(samples)
            assert len(archive.meminfo) == len(meminfo)
    assert any("counter_regression" in flag
               for summary in expected.values() for flag in summary.flags)


def test_other_spellings_of_valid_fields_load_the_same_columns(tmp_path):
    """Records that miss the inline fast path (no tag, integral float or
    digit-string times, string values, keys in another order) load the
    same as plain ones."""
    rng = np.random.default_rng(8)
    _, lines, _ = _archive_file(tmp_path, rng, n_jobs=2)
    respelled = []
    for k, line in enumerate(lines):
        line = dict(reversed(list(line.items())))
        if line["type"] == "perf":
            if line["tag"] == "periodic" and k % 2:
                del line["tag"]
            line["time"] = (float(line["time"]), str(line["time"]), line["time"])[k % 3]
            line["value"] = (str(line["value"]), line["value"])[k % 2]
        elif line["type"] == "meminfo":
            line["time"] = float(line["time"])
            line["numa"] = [{key: float(v) for key, v in part.items()} for part in line["numa"]]
        respelled.append(line)
    plain = load_archives(_write_lines(tmp_path / "plain.jsonl", lines))
    other = load_archives(_write_lines(tmp_path / "other.jsonl", respelled))
    assert plain.keys() == other.keys()
    for job_id in plain:
        for a, b in ((plain[job_id].samples, other[job_id].samples),
                     (plain[job_id].meminfo, other[job_id].meminfo)):
            assert a.nodes == b.nodes
            for name in ("node", "time", "kind", "value", "tag", "numa_bounds", "numa"):
                if hasattr(a, name):
                    assert np.array_equal(getattr(a, name), getattr(b, name)), name
            if hasattr(a, "metric"):
                assert [a.metrics[m] for m in a.metric] == [b.metrics[m] for m in b.metric]


GOOD_PERF = {"type": "perf", "job_id": "j1", "node": "n1", "time": T0,
             "metric": CPU_USER, "kind": "counter", "value": 5, "tag": "periodic"}
GOOD_MEMINFO = {"type": "meminfo", "job_id": "j1", "node": "n1", "time": T0,
                "numa": [{"mem_total": 8, "mem_free": 4, "file_pages": 1, "slab": 1}]}
NAN, INF = float("nan"), float("inf")


def _numa(**changes):
    return [dict(GOOD_MEMINFO["numa"][0], **changes)]


@pytest.mark.parametrize("record,field", [
    (dict(GOOD_PERF, value=NAN), "value"),
    (dict(GOOD_PERF, value=INF), "value"),
    (dict(GOOD_PERF, value=-INF), "value"),
    (dict(GOOD_PERF, value=True), "value"),
    (dict(GOOD_PERF, value=-1), "value"),
    (dict(GOOD_PERF, value="many"), "value"),
    (dict(GOOD_PERF, value=10**400), "value"),
    (dict(GOOD_PERF, value=None), "value"),
    (dict(GOOD_PERF, time=T0 + 0.5), "time"),
    (dict(GOOD_PERF, time=True), "time"),
    (dict(GOOD_PERF, time=NAN), "time"),
    (dict(GOOD_PERF, time=2**60), "time"),
    (dict(GOOD_PERF, time="4_000"), "time"),
    ({k: v for k, v in GOOD_PERF.items() if k != "time"}, "time"),
    ({k: v for k, v in GOOD_PERF.items() if k != "node"}, "node"),
    ({k: v for k, v in GOOD_PERF.items() if k != "metric"}, "metric"),
    ({k: v for k, v in GOOD_PERF.items() if k != "job_id"}, "job_id"),
    (dict(GOOD_PERF, kind="gauge"), "kind"),
    (dict(GOOD_PERF, kind=["counter"]), "kind"),
    ({k: v for k, v in GOOD_PERF.items() if k != "kind"}, "kind"),
    (dict(GOOD_PERF, tag="job_start"), "tag"),
    (dict(GOOD_MEMINFO, time=1.5), "time"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_free=True)), "mem_free"),
    (dict(GOOD_MEMINFO, numa=_numa(slab=0.5)), "slab"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_total=NAN)), "mem_total"),
    (dict(GOOD_MEMINFO, numa=_numa(mem_total=2**54)), "mem_total"),
    (dict(GOOD_MEMINFO, numa=[{"mem_total": 8, "mem_free": 4, "file_pages": 1}]), "slab"),
    (dict(GOOD_MEMINFO, numa={"mem_total": 8}), "numa"),
    (dict(GOOD_MEMINFO, numa=[5]), "numa"),
    ({"type": "launcher", "job_id": "j1", "exe": 5}, "exe"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": True}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": 2.5}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "n_processes": -1}, "n_processes"),
    ({"type": "launcher", "job_id": "j1", "exe": "a", "threads_per_process": INF},
     "threads_per_process"),
    ({"type": "process", "job_id": "j1", "process_name": "a", "unique_pid_count": True},
     "unique_pid_count"),
    ({"type": "process", "job_id": "j1", "process_name": "a", "unique_pid_count": 0},
     "unique_pid_count"),
    ({"type": "process", "job_id": "j1", "unique_pid_count": 2}, "process_name"),
    ({"type": "job", "job_id": "j1", "nodes": "n1"}, "nodes"),
    ({"type": "node", "job_id": "j1"}, "type"),
    ({"job_id": "j1"}, "type"),
    ({"type": "job", "job_id": "j1", "nodes": ["n1", "n2", "n1"]}, "nodes"),
])
def test_malformed_record_is_a_schema_error_naming_its_line(tmp_path, record, field):
    path = tmp_path / "archive.jsonl"
    # a blank line still counts: the bad record is on line 4
    path.write_text(json.dumps(GOOD_PERF) + "\n" + json.dumps(GOOD_MEMINFO) + "\n\n"
                    + json.dumps(record) + "\n" + json.dumps(GOOD_PERF) + "\n")
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert (err.value.row, err.value.field) == (4, field)
    assert str(err.value).startswith("row 4: ")


@pytest.mark.parametrize("text", ["{\"type\": \"perf\",\n", "[1, 2]\n", "7\n"])
def test_a_line_that_is_not_an_object_is_a_schema_error(tmp_path, text):
    path = tmp_path / "archive.jsonl"
    path.write_text(json.dumps(GOOD_PERF) + "\n" + text)
    with pytest.raises(SchemaError) as err:
        load_archives(path)
    assert err.value.row == 2


def test_a_node_listed_twice_is_refused():
    with pytest.raises(ValueError, match="listed twice"):
        JobArchive(job_id="j1", nodes=("n1", "n2", "n1"))
    with pytest.raises(ValueError, match="listed twice"):
        summarize_records(ORACLE_JOB, ("n1", "n1"), [], [], 16, db=(), ignore_list=())


def test_write_summaries_refuses_non_finite_values(tmp_path):
    for bad in (JobPerfSummary(job_id="j", cpu_user_fraction=float("nan")),
                JobPerfSummary(job_id="j", runnable_threads_median=float("inf"))):
        with pytest.raises(ValueError):
            write_summaries({"j": bad}, tmp_path / "out.jsonl")
