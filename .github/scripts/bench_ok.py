"""Check the result line of a ``bench/run.py`` log.

Usage: python3 .github/scripts/bench_ok.py LOG

``bench/run.py`` exits 0 even when a check fails and prints its result as
one JSON object on the last line.  This exits 0 when that line says
``"correct": true`` and ``"failed": 0``, and exits with a message naming
both otherwise (or with a traceback when the line is not such an object).
"""
import json
import sys


def main(path: str):
    with open(path, encoding="utf-8") as handle:
        result = json.loads(handle.read().splitlines()[-1])
    if result["correct"] is True and result["failed"] == 0:
        return 0
    return "benchmark: correct=%s failed=%s" % (result["correct"], result["failed"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
