"""Interpreter calls per step of one benchmark stream, counted exactly.

Usage, from the root of a checkout:

  python3 tools/count_calls.py ons-n100

Feeds stream 0 of benchmark seed 1 through `perfbench/streams.run_stream`,
set-up and input generation included, under `sys.setprofile`, and prints
the `call` plus `c_call` events divided by the stream's step count.  The
count is a pure function of the code and the seed, so it repeats run to run
and can compare two checkouts on a noisy host.
"""

import argparse
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import streams

    wl = streams.WORKLOADS[args.workload]
    seed = streams.stream_seeds(1, 1)[0]
    events = 0

    def count(frame, event, arg):
        nonlocal events
        if event == "call" or event == "c_call":
            events += 1

    sys.setprofile(count)
    try:
        streams.run_stream(wl, seed)
    finally:
        sys.setprofile(None)
    print(f"{args.workload} seed 1: {events / wl.steps:.1f} calls per step ({events} over {wl.steps} steps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
