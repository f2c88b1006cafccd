"""Run the stream benchmark in alternating parent/change pairs and summarize them.

Usage, from the root of a checkout:

  python3 tools/bench_pairs.py PARENT_DIR --workload synthetic-n1000 \
      --seeds 11 12 13 14 15 16 17 18 19 20 --seconds 30 --out BENCH_x.json

Pair k runs `perfbench/run.py --workload W --seed S --seconds X --trace 0`
once in PARENT_DIR and once in the change tree (`--head`, default: this
checkout), one after the other, the parent first on even k and the change
first on odd k, each in a fresh process.  `--workload` may be given more
than once; every workload runs every seed.

The output file keeps every run (exit code, wall seconds, the run's JSON
line) and a summary per workload and end-to-end metric: median, quartiles
(numpy.percentile, linear interpolation), min and max of each side, the
pairs the change wins and ties, the ratio of the medians, and whether the
change's median is better than the parent's by more than the parent's
interquartile range.  Which way is better comes from `BENCHMARK.json` of the
change tree.  When the output file exists, its runs are kept, the new ones
are added as the next batch, and the summary covers them all.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CHILD_TIMEOUT_S = 1800
SIDES = ("parent", "change")


def run_once(root, workload, seed, seconds):
    """One benchmark run in the tree at `root`: (exit code, wall seconds, last JSON line or None)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    wall = round(time.perf_counter() - t0, 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, wall, result


def side_stats(values):
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "min": min(values), "max": max(values)}


def summarize(runs, better):
    """Per workload and metric: both sides' spread, wins and the median gap against the parent's IQR."""
    summary = {}
    for workload in sorted({r["workload"] for r in runs}):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault((r["batch"], r["pair"]), {})[r["side"]] = r
        whole = [p for p in pairs.values() if all(s in p and p[s]["result"] for s in SIDES)]
        out = {
            "pairs": len(whole),
            "seeds": [p["parent"]["seed"] for p in whole],
            "exits_nonzero": sum(r["exit"] != 0 for p in pairs.values() for r in p.values()),
        }
        names = [m for m in better if all(m in p[s]["result"]["metrics"] for p in whole for s in SIDES)] if whole else []
        for name in names:
            sign = 1.0 if better[name] == "higher" else -1.0
            per_pair = [{"seed": p["parent"]["seed"]} | {s: p[s]["result"]["metrics"][name]["value"] for s in SIDES}
                        for p in whole]
            parent = [p["parent"] for p in per_pair]
            change = [p["change"] for p in per_pair]
            ps, cs = side_stats(parent), side_stats(change)
            gain = sign * (cs["median"] - ps["median"])
            out[name] = {
                "better": better[name],
                "parent": ps,
                "change": cs,
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "ties": sum(c == p for p, c in zip(parent, change)),
                "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
                "median_gap_exceeds_parent_iqr": bool(gain > ps["q3"] - ps["q1"]),
                "per_pair": per_pair,
            }
        summary[workload] = out
    return summary


def host():
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("--head", default=str(Path(__file__).resolve().parents[1]), help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="summary file (JSON)")
    parser.add_argument("--what", default="", help="one line on the change, kept in the file")
    args = parser.parse_args(argv)

    roots = {"parent": str(Path(args.parent).resolve()), "change": str(Path(args.head).resolve())}
    bench = json.loads((Path(roots["change"]) / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    runs = doc.get("runs", [])
    batch = 1 + max((r["batch"] for r in runs), default=0)
    pair = 0
    for workload in args.workload:
        for seed in args.seeds:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                code, wall, result = run_once(roots[side], workload, seed, args.seconds)
                runs.append({"batch": batch, "pair": pair, "workload": workload, "seed": seed, "side": side,
                             "exit": code, "wall_s": wall, "result": result})
                print(f"batch {batch} pair {pair} {workload} seed {seed} {side}: exit {code}, {wall} s", flush=True)
            pair += 1
            # Write as we go, so an interrupted batch keeps what it ran.
            doc.update(
                what=args.what or doc.get("what", ""),
                command=f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
                host=host(),
                order="pairs alternate which side runs first: parent first on even pair index, change first on odd; "
                      "all runs sequential, each in a fresh process",
                quartiles="numpy.percentile, linear interpolation",
                runs=runs,
                summary=summarize(runs, better),
            )
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
