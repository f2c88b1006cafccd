"""Compare the stream benchmark's fingerprints and step reports of two checkouts.

Usage, from the root of a checkout:

  python3 tools/probe_diff.py BASE_DIR [--head HEAD_DIR] [--seeds 1 2 3]

For every workload and seed it compares these things between the trees, each
computed in a fresh process per tree:

  - the `perfbench/run.py --probe` fingerprint of stream 0 (turning-point
    counts, multiplication tally, rebuilds, support sizes, final iterate);
  - a digest of every step of the two streams `stream_seeds(seed, 2)`: all
    `StepReport` fields except the timings (`wall_ns`, `a_update_ns`) and
    the multiplication tally (`mult_count`), so residuals, refreshes and
    events to the bit, plus the final v, mu0 and M.  The per-step
    `mult_count` sequence gets a line of its own, since a change may move
    the tally and nothing else;
  - a digest of the turning points alone: each step's events as
    (leg, index, kind, support size), the parameter left out, so a change
    that moves residuals or the parameters' last bits but no turning point
    reads "events same";
  - the sha256 of the `SolverSession.save` bytes at the end of each of the
    same two streams: the touched-row mask, the g log and the stored rows or
    their born entries, which neither of the above sees;
  - a digest of what `SolverSession.load` gives back from those bytes, each
    tree saving and loading with its own code: every live row as read, the
    touched-row mask, the g log, A0, c, c_shift, the support, v, mu0, M,
    eta_tilde, D, t and tol.  A change of checkpoint format that restores
    the same session reads as "checkpoint bytes moved, restored state same".

It prints one line per comparison; everything that moved is also printed as
a GitHub Actions `::warning::` annotation.  A `repairs` line per workload and
seed, and a total per workload over the seeds, give each tree's counts over
the same two streams: refinements (`StepReport.refreshes` summed), rebuilds
and steps whose residual is above the session's `tol`, and beside them
`par1_drift`, the largest end-of-stream `session.validate()` (Par1 against a
fresh factorization of the live rows), whose total is the maximum over the
seeds.  They move with the path's roundoff, so they are printed, not
compared.  The exit code is 0 whether or
not anything moved, so a CI step reports without gating; it is 2 when a
child fails to run.
"""

import argparse
import dataclasses
import hashlib
import json
import numbers
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("synthetic-n1000", "ons-n100", "markowitz-n200")

# StepReport fields left out of the report digest: the two timings, and the
# tally, which is compared on its own line.
UNHASHED = ("wall_ns", "a_update_ns", "mult_count")

# The counts of the `repairs` line, summed over a seed's two streams, and
# the key of its Par1 drift, the maximum over them.
REPAIRS = ("refinements", "rebuilds", "over_tol")
DRIFT = "par1_drift"


def run_child(cmd):
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe(root, workload, seed):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--probe"]
    return run_child(cmd + ["--workload", workload, "--seed", str(seed)])


def digest(root, workload, seed):
    return run_child([sys.executable, __file__, "--digest-of", str(root), workload, str(seed)])


def _feed(h, value):
    """Feed `value` to the hash `h` exactly: floats by their bits, arrays by dtype, shape and bytes."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if f.name not in UNHASHED:
                h.update(f.name.encode())
                _feed(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, numbers.Integral):
        h.update(b"i%d" % int(value))
    elif isinstance(value, numbers.Real):
        h.update(b"f" + struct.pack("<d", float(value)))
    elif hasattr(value, "dtype"):
        h.update(f"a{value.dtype.str}{value.shape}".encode() + value.tobytes())
    else:
        h.update(b"s" + str(value).encode())


def report_digest(root, workload, seed):
    """The report and tally digests of the two streams of `seed`, from the tree at `root`."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import streams

    wl = streams.WORKLOADS[workload]
    step = streams.driver.step
    reports = []

    def recorded(*args, **kwargs):
        report = step(*args, **kwargs)
        reports.append(report)
        return report

    streams.driver.step = recorded
    h_rep, h_mult, h_ev, h_save, h_load = (hashlib.sha256() for _ in range(5))
    mult_total = event_total = 0
    repairs = dict.fromkeys(REPAIRS, 0)
    repairs[DRIFT] = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        for s in streams.stream_seeds(seed, 2):
            reports.clear()
            res = streams.run_stream(wl, s)
            ses = res.session
            _feed(h_rep, [res.error, reports, ses.quadruple.v, ses.quadruple.mu0, ses.par1.M])
            mults = [r.mult_count for r in reports]
            _feed(h_mult, mults)
            mult_total += sum(mults)
            events = [[(ev.leg, ev.index, ev.kind, ev.support_size) for ev in r.events] for r in reports]
            _feed(h_ev, events)
            event_total += sum(map(len, events))
            repairs["refinements"] += sum(r.refreshes for r in reports)
            repairs["rebuilds"] += sum(r.rebuilds for r in reports)
            repairs["over_tol"] += sum(r.kkt_residual > ses.config.tol for r in reports)
            repairs[DRIFT] = max(repairs[DRIFT], ses.validate())
            path = Path(tmp) / "session.bin"
            ses.save(path)
            h_save.update(path.read_bytes())
            twin = type(ses).load(path)
            A, q, par1 = twin.A, twin.quadruple, twin.par1
            live = A.live()
            # A Diagonal A0 by its diagonal, a dense one as it is.
            a0 = getattr(A.a0, "d", A.a0)
            state = [A[live], A.touched, A.g_log, a0, twin.c, twin.c_shift, q.support.idx, q.v, q.mu0]
            _feed(h_load, state + [par1.M, par1.eta_tilde, par1.D, twin.t, twin.config.tol])
    return {
        "report digest": {"reports": h_rep.hexdigest()[:16]},
        "mult_count sequence": {"mult_count": h_mult.hexdigest()[:16], "mult_total": mult_total},
        "events": {"events": h_ev.hexdigest()[:16], "event_total": event_total},
        "checkpoint digest": {"checkpoint": h_save.hexdigest()[:16]},
        "restored state": {"restored": h_load.hexdigest()[:16]},
        "repairs": repairs,
    }


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--digest-of"]:
        _, root, workload, seed = argv
        print(json.dumps(report_digest(root, workload, int(seed))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("--head", default=str(Path(__file__).resolve().parents[1]), help="checkout to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    names = ("fingerprint", "report digest", "mult_count sequence", "events", "checkpoint digest", "restored state")
    moved = dict.fromkeys(names, 0)
    for workload in WORKLOADS:
        totals = [{**dict.fromkeys(REPAIRS, 0), DRIFT: 0.0} for _ in range(2)]
        for seed in args.seeds:
            try:
                fps = probe(args.base, workload, seed), probe(args.head, workload, seed)
                digs = digest(args.base, workload, seed), digest(args.head, workload, seed)
            except RuntimeError as err:
                print(f"::error::{err}")
                return 2
            where = f"{workload} seed {seed}"
            repairs = [dig.pop("repairs") for dig in digs]
            for total, counts in zip(totals, repairs):
                for key in REPAIRS:
                    total[key] += counts[key]
                total[DRIFT] = max(total[DRIFT], counts[DRIFT])
            pairs = {"fingerprint": fps, **{name: (digs[0][name], digs[1][name]) for name in digs[0]}}
            for name, (base, head) in pairs.items():
                diff = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
                for key in diff:
                    print(f"::warning::{where}: {name} {key} moved {base.get(key)} -> {head.get(key)}")
                print(f"{'moved' if diff else 'same '} {where}: {name} {json.dumps(head, sort_keys=True)}")
                moved[name] += bool(diff)
            print(f"repairs {where}: base {json.dumps(repairs[0])} head {json.dumps(repairs[1])}")
        print(f"repairs {workload} total: base {json.dumps(totals[0])} head {json.dumps(totals[1])}")
    total = len(WORKLOADS) * len(args.seeds)
    print(", ".join(f"{count} of {total} {name.removesuffix('s')}s moved" for name, count in moved.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
