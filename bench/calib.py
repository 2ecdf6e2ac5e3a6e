"""A fixed reference computation that measures the host's current speed.

A shared host can switch between speeds, by up to 2x and for seconds to
minutes at a time, on everything it runs at once, so a timing alone says as
much about the host as about the program.  run.py starts this script before
the first full run of a call and after each one, in a fresh process that
never imports hpcwl (nothing the program does can change it), and scales the
call's timings by the median of all its times (see run.py).  The computation
mixes interpreted Python on dicts and small objects with numpy passes over
an 8 MB array, like the program.

    python3 bench/calib.py --reps 5 --result cal.json
"""
from __future__ import annotations

import argparse
import gc
import json
import sys
import time


def kernel(array) -> float:
    """One timed pass of the fixed computation, in seconds."""
    import numpy as np

    t0 = time.perf_counter()
    groups: dict = {}
    for i in range(150_000):
        groups.setdefault((i * 7919) % 20011, []).append((i, str(i)))
    sorted(groups.items(), key=lambda kv: len(kv[1]))
    for _ in range(3):
        np.sort(np.sin(array * 3.1) + array)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--result", required=True, help="where to write the timings")
    args = parser.parse_args(argv)
    import numpy as np

    array = np.random.default_rng(0).random(1_000_000)
    gc.disable()
    times = [kernel(array) for _ in range(args.reps)]
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump({"cal_s": times}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
