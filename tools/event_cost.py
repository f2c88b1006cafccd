"""Step wall time per turning point of one benchmark stream: the timing twin of count_calls.py's fit.

Usage, from the root of a checkout:

  python3 tools/event_cost.py markowitz-n200 [--root CHECKOUT]

`--root` times the code of another checkout (default: this one) with this
script, so a base commit that predates it can be timed too.

Feeds stream 0 of benchmark seed 1 through `perfbench/streams.run_stream`
PASSES times, each in the same process, and keeps every step's fastest
pass: the stream is a pure function of the code and the seed, so each pass
repeats the same work and the host's jitter only ever adds.  A step's wall
is the benchmark's own `step_ns`, the time of the `driver.step` call.

It prints two things:

  - the least-squares fit of each step's wall on (1, k_a, k_c), its
    matrix-leg and vector-leg turning points, as a base in microseconds
    per step plus microseconds per event of each leg (a leg with no event
    in the stream gets no term), the fit `count_calls.py` makes of the
    interpreter calls;
  - the median step wall per k_t, the step's turning points, with the
    number of steps that had that many.

The numbers are wall times on the host that runs it, so compare two
checkouts with runs on the same host, close together; the call counts of
`count_calls.py` are the exact side of the same comparison.
"""

import argparse
import os
import sys
from pathlib import Path

# count_calls sets the BLAS thread variables before it imports numpy.
from count_calls import ROOT, event_fit, load_streams
import numpy as np

PASSES = 5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose code is timed (default: this one)")
    args = parser.parse_args(argv)
    streams = load_streams(args.root.resolve())

    wl = streams.WORKLOADS[args.workload]
    seed = streams.stream_seeds(1, 1)[0]
    wall = None
    for _ in range(PASSES):
        result = streams.run_stream(wl, seed)
        if result.error:
            print(f"{args.workload} seed 1: stream stopped at {result.error}")
            return 1
        wall = result.step_ns if wall is None else np.minimum(wall, result.step_ns)
    us = wall / 1e3
    reports = result.session.reports
    k_t = np.array([r.k_t for r in reports])
    print(f"{args.workload} seed 1: {us.size} steps, fastest of {PASSES} passes")
    print(f"  {event_fit(us, reports, unit='us ')}")
    print("  median step wall per k_t:")
    for kt in np.unique(k_t):
        at = k_t == kt
        print(f"    k_t {int(kt):3d}: {np.median(us[at]):8.1f} us over {int(at.sum())} steps")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed the pipe (`| head -1`): send what is still
        # buffered to devnull, so the flush at exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
