"""Compare the stream benchmark's `--probe` fingerprints of two checkouts.

Usage, from the root of a checkout:

  python3 tools/probe_diff.py BASE_DIR [--head HEAD_DIR] [--seeds 1 2 3]

Runs `perfbench/run.py --probe` for every workload and seed in both trees,
each in a fresh process, and prints one line per (workload, seed).  Every
fingerprint field that moved is printed as a GitHub Actions `::warning::`
annotation.  The exit code is 0 whether or not anything moved, so a CI step
reports without gating; it is 2 when a probe fails to run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("synthetic-n1000", "ons-n100", "markowitz-n200")


def probe(root, workload, seed):
    cmd = [sys.executable, str(Path(root) / "perfbench" / "run.py"), "--probe"]
    cmd += ["--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("--head", default=str(Path(__file__).resolve().parents[1]), help="checkout to compare")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    moved = 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            try:
                base, head = probe(args.base, workload, seed), probe(args.head, workload, seed)
            except RuntimeError as err:
                print(f"::error::{err}")
                return 2
            diff = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
            for key in diff:
                print(f"::warning::{workload} seed {seed}: fingerprint {key} moved {base.get(key)} -> {head.get(key)}")
            print(f"{'moved' if diff else 'same '} {workload} seed {seed}: {json.dumps(head, sort_keys=True)}")
            moved += bool(diff)
    print(f"{moved} of {len(WORKLOADS) * len(args.seeds)} fingerprints moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
