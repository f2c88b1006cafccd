"""Interpreter calls per step of one benchmark stream, counted exactly.

Usage, from the root of a checkout:

  python3 tools/count_calls.py ons-n100

Feeds stream 0 of benchmark seed 1 through `perfbench/streams.run_stream`,
set-up and input generation included, under `sys.setprofile`, and prints
the `call` plus `c_call` events divided by the stream's step count.  The
count is a pure function of the code and the seed, so it repeats run to run
and can compare two checkouts on a noisy host.  Under the total it prints
the ten functions that make the most calls, each per step and as a share of
the total: a Python function by qualified name, file and first line, a C
function by module or type and name.  A generator counts once per resume.
"""

import argparse
import collections
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
    py_calls = collections.Counter()  # code object -> calls
    c_calls = collections.Counter()  # C function name -> calls

    def count(frame, event, arg):
        if event == "call":
            py_calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[c_name(arg)] += 1

    sys.setprofile(count)
    try:
        streams.run_stream(wl, seed)
    finally:
        sys.setprofile(None)
    by_name = collections.Counter(c_calls)
    for code, calls in py_calls.items():
        by_name[py_name(code)] += calls
    events = sum(by_name.values())
    print(f"{args.workload} seed 1: {events / wl.steps:.1f} calls per step ({events} over {wl.steps} steps)")
    for name, calls in by_name.most_common(10):
        print(f"  {calls / wl.steps:7.1f}  {calls / events:6.1%}  {name}")
    return 0


def py_name(code):
    qualname = getattr(code, "co_qualname", code.co_name)  # co_qualname is new in Python 3.11
    return f"{qualname} ({Path(code.co_filename).name}:{code.co_firstlineno})"


def c_name(fn):
    module = getattr(fn, "__module__", None)
    return f"{module}.{fn.__qualname__}" if module else fn.__qualname__


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed the pipe (`| head -1`): send what is still
        # buffered to devnull, so the flush at exit raises no second error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
