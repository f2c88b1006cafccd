"""Interpreter calls and wall time per step of one benchmark stream, and their fits per turning point.

Usage, from the root of a checkout:

  python3 tools/count_calls.py ons-n100 [--root CHECKOUT]

`--root` measures the code of another checkout (default: this one) with
this script, so a base commit that predates it can be measured too.

Feeds stream 0 of benchmark seed 1 through `perfbench/streams.run_stream`,
set-up and input generation included, under `sys.setprofile`, and prints
the `call` plus `c_call` events divided by the stream's step count.  The
count is a pure function of the code and the seed, so it repeats run to run
and can compare two checkouts on a noisy host.

Under the total it splits it in two: the set-up calls, those made inside
`streams.open_stream` (flow construction plus `init_session`), and the
calls per step without them.  Under that it prints the per-event fit: the
least-squares fit of each step's calls on (1, k_a, k_c), its matrix-leg and
vector-leg turning points, as a base per step plus a cost per event of each
leg (a leg with no event in the stream gets no term).  A step's calls are those from the moment its
input is drawn, through `run_stream`'s `nxt` hook, to the moment the next
step's is; the last step, whose count would take in the stream's wrap-up,
is left out of the fit.  The hook's own call is not counted, so the total
is the same as without it.  Next comes the mean over the steps with no
turning point (k_t = 0), the cost of a step that changes nothing.  Then it
prints the ten functions that make the most calls, each per step and as a
share of the total: a Python function by qualified name, file and first
line, a C function by module or type and name.  A generator counts once per
resume.

Last comes the same fit of each step's wall, in microseconds: the stream is
fed PASSES more times without the profiler, in the same process, and each
step keeps its fastest pass.  The stream is a pure function of the code and
the seed, so each pass repeats the same work and the host's jitter only ever
adds.  A step's wall is the benchmark's own `step_ns`, the time of the
`driver.step` call.  It is a wall time on the host that runs it, so compare
two checkouts with runs on the same host, close together; the call counts
are the exact side of the same comparison.

Its blind spot: `sys.setprofile` reports a C function only when the
interpreter calls it as a Python-level builtin or method.  It sees
`ufunc.reduce` (`np.maximum.reduce(...)`) and `ndarray.dot`, but not a
ufunc called directly (`np.abs`, `np.isfinite`, `np.sign`) or an operator
on arrays (`a + b`, `a[idx]`).  So the count can rise while the work falls:
moving a ratio test from one `ufunc.reduce` to a few `np.abs` and operator
passes changes the count by the reduces alone.  Read it beside the timing,
never as one.
"""

import argparse
import collections
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings, which it reads on import)

ROOT = Path(__file__).resolve().parents[1]

PASSES = 5


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout whose code is measured (default: this one)")
    args = parser.parse_args(argv)
    streams = load_streams(args.root.resolve())
    wl = streams.WORKLOADS[args.workload]
    seed = streams.stream_seeds(1, 1)[0]
    py_calls = collections.Counter()  # code object -> calls
    c_calls = collections.Counter()  # C function name -> calls
    marks = []  # calls counted when each step's input was drawn
    setup = []  # calls counted when open_stream was entered and when it returned
    open_code = streams.open_stream.__code__

    def draw(it):
        return next(it)

    def count(frame, event, arg):
        if event == "call":
            if frame.f_code is draw.__code__:
                marks.append(py_calls.total() + c_calls.total())
            else:
                if frame.f_code is open_code:
                    setup.append(py_calls.total() + c_calls.total())
                py_calls[frame.f_code] += 1
        elif event == "c_call":
            c_calls[c_name(arg)] += 1
        elif event == "return" and frame.f_code is open_code:
            setup.append(py_calls.total() + c_calls.total())

    sys.setprofile(count)
    try:
        result = streams.run_stream(wl, seed, nxt=draw)
    finally:
        sys.setprofile(None)
    by_name = collections.Counter(c_calls)
    for code, calls in py_calls.items():
        by_name[py_name(code)] += calls
    events = sum(by_name.values())
    print(f"{args.workload} seed 1: {events / wl.steps:.1f} calls per step ({events} over {wl.steps} steps)")
    setup_calls = setup[1] - setup[0]
    print(
        f"  set-up (flow construction and init_session): {setup_calls} calls;"
        f" without it {(events - setup_calls) / wl.steps:.1f} calls per step"
    )
    per_step = np.diff(marks)
    print(f"  {event_fit(per_step, result.session.reports)}")
    print(f"  {quiet_steps(per_step, result.session.reports)}")
    for name, calls in by_name.most_common(10):
        print(f"  {calls / wl.steps:7.1f}  {calls / events:6.1%}  {name}")
    wall = np.inf
    for _ in range(PASSES):
        result = streams.run_stream(wl, seed)
        if result.error:
            print(f"  stream stopped at {result.error}")
            return 1
        wall = np.minimum(wall, result.step_ns)
    print(f"  wall, fastest of {PASSES} passes unprofiled: {event_fit(wall / 1e3, result.session.reports, 'us ')}")
    return 0


def load_streams(root):
    """The benchmark's `streams` module of the checkout at `root`, with that checkout's `hones` on the path."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import streams

    return streams


def event_fit(calls, reports, unit=""):
    """The least-squares fit of each step's `calls` on (1, k_a, k_c), as one line of text.

    `unit` prefixes each term's label ("us " for a fit of step walls).
    """
    k = np.array([(1, r.k_a, r.k_c) for r in reports[: calls.size]], dtype=float)
    terms = [(0, "base"), (1, "per matrix-leg event"), (2, "per vector-leg event")]
    terms = [(col, unit + label) for col, label in terms if k[:, col].any()]
    coef = np.linalg.lstsq(k[:, [col for col, _ in terms]], calls.astype(float), rcond=None)[0]
    fit = ", ".join(f"{c:.1f} {label}" for c, (_, label) in zip(coef, terms))
    return f"fit over {calls.size} steps: {fit}"


def quiet_steps(calls, reports):
    """The mean of `calls` over the steps with no turning point (k_t = 0), as one line of text."""
    quiet = np.array([r.k_t == 0 for r in reports[: calls.size]], dtype=bool)
    if not quiet.any():
        return "no step without a turning point"
    return f"steps with k_t = 0: {calls[quiet].mean():.1f} calls on average over {int(quiet.sum())} steps"


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
