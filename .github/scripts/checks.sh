#!/usr/bin/env bash
# Every check of .github/workflows/tests.yml, one function per workflow step.
#
# Usage: bash .github/scripts/checks.sh [STEP]
#
# With a STEP (one of STEPS below), runs that step.  With none, runs every
# step this host can run, in workflow order, and prints one line for each
# step or matrix leg it skips.  Outputs go to $RUNNER_TEMP, or to a new
# temporary directory when that is unset; in the checkout only the
# git-ignored .bench_work/ changes.  Without an `hpcwl` command on PATH, the
# CLI step runs `python3 -m hpcwl.cli` from src/ in its place, and says so.
set -euo pipefail

cd "$(dirname "$0")/../.."
SCRIPTS=.github/scripts
STEPS=(tier1 bench_digests bench_second_archive bench_one_cpu bench_second_job_table
       bench_old_numpy_archives bench_old_numpy_report cli same_bytes)

# exits STATUS COMMAND...: run COMMAND, which must exit with STATUS
exits() {
    local want=$1 status=0
    shift
    "$@" || status=$?
    if [ "$status" -ne "$want" ]; then
        echo "exit status $status, not $want: $*"
        return 1
    fi
}

# bench LOG WORKLOAD SEED [PREFIX...]: one benchmark call (after PREFIX,
# such as `taskset -c 0`), logged to $OUT/LOG, and its result line checked:
# bench/run.py exits 0 even when a check fails
bench() {
    local log=$OUT/$1 workload=$2 seed=$3
    shift 3
    "$@" python3 bench/run.py --workload "$workload" --seed "$seed" --seconds 1 | tee "$log"
    python3 "$SCRIPTS/bench_ok.py" "$log"
}

# handoff WORKLOAD INPUT...: copy the named seed-2 inputs of WORKLOAD, and
# its benchmark output as out/, to $OUT/WORKLOAD-2 for the CLI step:
# bench/run.py keeps one seed per workload in .bench_work, and a later step
# replaces it
handoff() {
    local workload=$1 dir=$OUT/$1-2 name
    shift
    rm -rf "$dir"
    mkdir -p "$dir"
    for name in "$@"; do
        cp .bench_work/inputs/"$workload"-2-*/"$name" "$dir/"
    done
    cp -r .bench_work/out/"$workload" "$dir/out"
}

tier1() {
    PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python3 -m pytest -q --continue-on-collection-errors
}

bench_digests() {
    bench bench.log all 1
}

# seed 2's inputs differ from seed 1's
bench_second_archive() {
    bench bench2.log archives_1k 2
    handoff archives_1k jobs.jsonl archives.jsonl
}

# with one usable CPU the loader reads the archive in one pass; the other
# steps read it in byte ranges on a multi-CPU host
bench_one_cpu() {
    bench bench_one_cpu.log archives_1k 1 taskset -c 0
}

# seed 2's jobs differ from seed 1's, so the subsets an analysis takes of
# the job table do too
bench_second_job_table() {
    bench bench3.log bundle_10k 2
    handoff bundle_10k jobs.csv allocations.csv
}

# the archive loader parses integers with numpy's text parser
bench_old_numpy_archives() {
    bench bench.log archives_1k 1
}

# jobtable.distinct and Codes.present stand in for np.unique on the report path
bench_old_numpy_report() {
    bench bench4.log bundle_10k 1
}

# summarize_fails JOBS ARCHIVE: summarize fails on ARCHIVE as one pass does,
# on all CPUs and on one, with exit 2 and the same message, which it prints
summarize_fails() {
    local err=${2%.jsonl}
    exits 2 hpcwl summarize --jobs "$1" --archives "$2" --out "$OUT/bad_summaries.jsonl" \
        2> "${err}_all_cpus.err"
    exits 2 taskset -c 0 hpcwl summarize --jobs "$1" --archives "$2" \
        --out "$OUT/bad_summaries.jsonl" 2> "${err}_one_cpu.err"
    cmp "${err}_all_cpus.err" "${err}_one_cpu.err"
    cat "${err}_all_cpus.err"
}

# the hpcwl command, as a user runs it
cli() {
    if ! command -v hpcwl > /dev/null; then
        mkdir -p "$OUT/bin"
        printf '#!/bin/sh\nexec python3 -m hpcwl.cli "$@"\n' > "$OUT/bin/hpcwl"
        chmod +x "$OUT/bin/hpcwl"
        export PATH=$OUT/bin:$PATH PYTHONPATH=$PWD/src${PYTHONPATH:+:$PYTHONPATH}
        echo "no hpcwl on PATH: running python3 -m hpcwl.cli from src/ as hpcwl"
    fi
    local demo=(--demo --demo-jobs 1000) archive=$OUT/archives_1k-2 table=$OUT/bundle_10k-2
    local filter at row
    [ -d "$archive" ] || bench_second_archive
    [ -d "$table" ] || bench_second_job_table
    hpcwl report "${demo[@]}" --outdir "$OUT/demo"
    python3 "$SCRIPTS/cli_checks.py" manifest "$OUT/demo"
    hpcwl backlog "${demo[@]}" --resource TACC-STAMPEDE > "$OUT/backlog.csv"
    test "$(head -n 1 "$OUT/backlog.csv")" \
        = "resource,time,date,queued_core_years,running_nodes,queued_nodes,required_nodes"
    # a resource or queue no job ran on is an analysis error (exit 1), by flag and by spec
    exits 1 hpcwl backlog "${demo[@]}" --resource NOPE
    for filter in resources queues; do
        echo '{"name": "nope", "date_range": ["2015-07-01", "2016-01-01"], "filters": {"'$filter'": ["NOPE"]}, "analyses": [{"analysis": "backlog"}]}' \
            > "$OUT/nope_$filter.json"
        exits 1 hpcwl report "${demo[@]}" --spec "$OUT/nope_$filter.json" --outdir "$OUT/nope_$filter"
    done
    # validate on the demo and on the seed-2 job table: exit 0, and every
    # line a JSON object with a known code
    hpcwl validate "${demo[@]}" > "$OUT/validate.jsonl"
    hpcwl validate --jobs "$table/jobs.csv" --allocations "$table/allocations.csv" \
        >> "$OUT/validate.jsonl"
    python3 "$SCRIPTS/cli_checks.py" validate "$OUT/validate.jsonl"
    # summarize on the seed-2 archive writes the same bytes as the benchmark run on it
    hpcwl summarize --jobs "$archive/jobs.jsonl" --archives "$archive/archives.jsonl" \
        --out "$OUT/summaries.jsonl"
    cmp "$OUT/summaries.jsonl" "$archive/out/summaries.jsonl"
    # a malformed line past the midpoint of that archive, in a worker's
    # range on a multi-CPU host
    at=$(($(wc -l < "$archive/archives.jsonl") * 3 / 4))
    {
        head -n "$at" "$archive/archives.jsonl"
        echo '{"type": "perf", "job_id": "j1", "node": "n1", "time": 5, "metric": "cpu_user_ticks", "kind": "gauge", "value": 1, "tag": "periodic"}'
        tail -n +$((at + 1)) "$archive/archives.jsonl"
    } > "$OUT/bad_archives.jsonl"
    summarize_fails "$archive/jobs.jsonl" "$OUT/bad_archives.jsonl"
    # a byte that is not UTF-8 in a node name past the midpoint: the same,
    # and the message names its line
    at=$(awk -v from="$at" 'NR > from && /"node": "/ { print NR; exit }' "$archive/archives.jsonl")
    LC_ALL=C sed "${at}s/\"node\": \"/&$(printf '\377')/" "$archive/archives.jsonl" \
        > "$OUT/bad_byte_archives.jsonl"
    summarize_fails "$archive/jobs.jsonl" "$OUT/bad_byte_archives.jsonl"
    grep -qxF "input error: row $at: node is not UTF-8 text" "$OUT/bad_byte_archives_all_cpus.err"
    # ingest on the seed-2 job table: exit 0, some jobs kept, and one
    # rejects line per rejected row
    hpcwl ingest --jobs "$table/jobs.csv" --allocations "$table/allocations.csv" \
        --rejects "$OUT/rejects.jsonl" > "$OUT/ingest.json"
    python3 "$SCRIPTS/cli_checks.py" ingest "$OUT/ingest.json" "$OUT/rejects.jsonl"
    # the same with a byte that is not UTF-8 in the first cell (a job_id) of
    # a kept row: exactly one rejected row more
    row=$(($(wc -l < "$table/jobs.csv") / 2))
    while grep -q "\"row\": $row}" "$OUT/rejects.jsonl"; do
        row=$((row + 1))
    done
    LC_ALL=C sed "$((row + 1))s/^./&$(printf '\377')/" "$table/jobs.csv" > "$OUT/bad_jobs.csv"
    hpcwl ingest --jobs "$OUT/bad_jobs.csv" --allocations "$table/allocations.csv" \
        --rejects "$OUT/bad_rejects.jsonl" > "$OUT/bad_ingest.json"
    python3 "$SCRIPTS/cli_checks.py" ingest "$OUT/bad_ingest.json" "$OUT/bad_rejects.jsonl" \
        "$OUT/ingest.json"
    # two demo reports are byte-identical
    hpcwl report --demo --demo-jobs 3000 --outdir "$OUT/rerun_a"
    hpcwl report --demo --demo-jobs 3000 --outdir "$OUT/rerun_b"
    diff -r "$OUT/rerun_a" "$OUT/rerun_b"
}

# the report writes every CSV cell itself, so the demo manifests that the
# CI legs on Python 3.11-3.13 uploaded to manifests/ are byte-identical
same_bytes() {
    local version
    ls manifests
    test "$(ls manifests | wc -l)" -eq 3
    for version in 3.12 3.13; do
        cmp manifests/demo-manifest-3.11/manifest.json "manifests/demo-manifest-$version/manifest.json"
    done
}

# every step this host can run, in workflow order, as the CI leg of its
# numpy would; one line for each step and matrix leg left out
all() {
    local numpy here version step reason ran=0 skipped=0
    numpy=$(python3 -c "import numpy; print(numpy.__version__)")
    here=$(python3 -c "import sys; print('%d.%d' % sys.version_info[:2])")
    echo "outputs in $OUT; python3 is Python $here with numpy $numpy"
    for version in 3.10 3.11 3.12 3.13; do
        if [ "$version" != "$here" ]; then
            skipped=$((skipped + 1))
            if "python$version" -c "import numpy" > /dev/null 2>&1; then
                echo "skip the Python $version legs: run checks.sh with python$version as python3"
            else
                echo "skip the Python $version legs: python$version here has no numpy"
            fi
        fi
    done
    for step in "${STEPS[@]}"; do
        reason=
        case $step in
            tier1) ;;
            same_bytes) reason="it compares the demo manifests that the CI legs upload" ;;
            bench_old_numpy_*)
                [[ $numpy == 1.24.* ]] || reason="a step of the numpy 1.24 leg; numpy here is $numpy" ;;
            *) [[ $numpy != 1.24.* ]] || reason="a step of the latest-numpy legs; numpy here is $numpy" ;;
        esac
        if [ -n "$reason" ]; then
            echo "skip $step: $reason"
            skipped=$((skipped + 1))
        else
            echo "== $step"
            "$step"
            ran=$((ran + 1))
        fi
    done
    echo "checks.sh: $ran steps passed, $skipped steps and legs skipped, in $SECONDS s"
}

if [ $# -gt 1 ] || [[ $# -eq 1 && " ${STEPS[*]} " != *" $1 "* ]]; then
    echo "usage: checks.sh [STEP], STEP one of: ${STEPS[*]}" >&2
    exit 2
fi
OUT=${RUNNER_TEMP:-$(mktemp -d)}
"${1:-all}"
