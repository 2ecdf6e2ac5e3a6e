"""Checks of ``hpcwl`` command output, for the CLI step of checks.sh.

Usage:
  python3 .github/scripts/cli_checks.py manifest DIR
  python3 .github/scripts/cli_checks.py validate FLAGS
  python3 .github/scripts/cli_checks.py ingest COUNTS REJECTS [CLEAN]

``manifest``: DIR's manifest.json agrees with its files (``hpcwl`` must be
importable).  ``validate``: every line of FLAGS, ``hpcwl validate`` output,
is a JSON object with a known code.  ``ingest``: COUNTS, ``hpcwl ingest``
output, kept some jobs and counts as many rejected rows as REJECTS, its
rejects file, has lines; with CLEAN, the counts of the same inputs less one
bad row, exactly one rejected row more than CLEAN.  Each exits 0, or with a
message saying what disagrees.
"""
import json
import sys

CODES = {"production_window", "geometry", "aggregated_accounting",
         "unknown_resource", "duplicate_allocation", "unused_allocation"}


def manifest(outdir):
    from hpcwl.report import verify_manifest

    return 0 if verify_manifest(outdir) else "manifest.json disagrees with the files"


def validate(path):
    with open(path, encoding="utf-8") as handle:
        flags = [json.loads(line) for line in handle]
    bad = [flag for flag in flags if not isinstance(flag, dict) or flag.get("code") not in CODES]
    return f"unexpected validate lines: {bad[:3]!r}" if bad else 0


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def ingest(counts_path, rejects_path, clean_path=None):
    counts = _load(counts_path)
    with open(rejects_path, encoding="utf-8") as handle:
        rejects = sum(1 for _ in handle)
    if not counts["jobs"] > 0:
        return f"ingest kept no jobs: {counts!r}"
    if counts["rejected_rows"] != rejects:
        return (f"ingest counted {counts['rejected_rows']} rejected rows, "
                f"the rejects file holds {rejects}")
    clean = _load(clean_path)["rejected_rows"] if clean_path else None
    if clean is not None and counts["rejected_rows"] != clean + 1:
        return f"ingest counted {counts['rejected_rows']} rejected rows, {clean} without the bad row"
    return 0


CHECKS = {"manifest": manifest, "validate": validate, "ingest": ingest}

if __name__ == "__main__":
    sys.exit(CHECKS[sys.argv[1]](*sys.argv[2:]))
