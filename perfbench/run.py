"""Stream benchmark for hones: one caller, one compute thread, closed loop.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload synthetic-n1000 --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1        # every workload, one table
  python3 perfbench/run.py --self-test                    # count fingerprints repeat

A run prints one line per metric (value, unit, sample count) and, as its last
line, a JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--trace 0` reports the end-to-end metrics; `--trace 1` reports the per-layer
metrics from one traced stream.  The run exits nonzero when the final iterate
disagrees with the independent oracle, when repeated streams of the same seed
do not repeat bit for bit, or when a checkpoint does not load back.  Run
details (machine, versions, samples, fingerprint) go to
`.perfbench_out/result-<workload>-seed<seed>-trace<k>.json`.
"""

import os

# One compute thread: BLAS must see this before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_SETUPS = 10  # set-up samples per run; each stream gives one, the rest run alone
WARMUP_SHARE = 0.1  # share of a stream run once, untimed, before measuring
OVERRUN = 1.3  # start no further repeat pass once the streams took this many times --seconds
CHILD_TIMEOUT_S = 900

E2E_UNITS = {
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checkpoint_mb": "MB",
    "ok_step_share": "ratio",
}


def layer_units():
    """Every per-layer metric name with its unit, in report order."""
    from tracer import LEG_REBUILD, NEXT, PHASES, span_names

    units = {}
    for name in span_names():
        if name == NEXT:
            units[f"{name}.s"] = "s"
        elif name == LEG_REBUILD:
            units.update({f"{name}.calls": "count", f"{name}.s": "s"})
        else:
            units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
    units.update(
        {
            "driver.a_update_s": "s",
            "driver.rebuilds": "count",
            "driver.rebuilds_per_step": "ratio",
            "driver.support_sum": "count",
            "driver.support_mean": "count",
            "driver.s_star_final": "count",
            "path_matrix.events": "count",
            "path_vector.events": "count",
            "path.excess_events": "count",
            "path.zero_excess_share": "ratio",
            "counters.mult_total": "count",
            "counters.mult_per_event": "count",
        }
    )
    units.update({f"phase.{p}_s": "s" for p in PHASES + ("unaccounted",)})
    units.update(
        {
            "trace.steps_per_s": "1/s",
            "trace.untraced_steps_per_s": "1/s",
            "trace.overhead": "ratio",
            "pgwarm.steps_per_s": "1/s",
            "pgwarm.hones_steps_per_s": "1/s",
            "pgwarm.speedup": "ratio",
            "pgwarm.unconverged": "count",
        }
    )
    return units


def git_revision():
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_info(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb():
    """Peak resident memory of this process image.

    VmHWM restarts at exec; ru_maxrss would also carry the peak of the parent
    that forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_count(wl, seconds, passes=1):
    """Distinct streams that fill `seconds` at the workload's nominal pace."""
    return max(1, round(seconds / (passes * wl.stream_s)))


def checked(res, lines, label):
    """Oracle check of one recorded stream; appends a line, returns pass/fail."""
    from streams import X_AGREEMENT_TOL, oracle_check

    ok = not res.error
    if res.error:
        lines.append(f"{label}: stream raised at {res.error}")
    dev, msg = oracle_check(res)
    lines.append(f"{label}: oracle check {msg}")
    return ok and dev <= X_AGREEMENT_TOL


def checkpoint_roundtrip(wl, session, lines):
    """Save the session, load it back; returns (size in MB, loads back equal)."""
    from hones import driver

    OUT.mkdir(exist_ok=True)
    path = OUT / f"checkpoint-{wl.name}.bin"
    try:
        session.save(path)
        size_mb = path.stat().st_size / 1e6
        loaded = driver.SolverSession.load(path)
    finally:
        path.unlink(missing_ok=True)
    same = bool((loaded.x == session.x).all()) and loaded.t == session.t
    lines.append(f"checkpoint {size_mb:.3f} MB loads back to the same iterate: {same}")
    return size_mb, same


def probe(args):
    """One untimed stream, stream 0 of the seed, in this fresh process."""
    from streams import WORKLOADS, fingerprint, run_stream, stream_seeds

    res = run_stream(WORKLOADS[args.workload], stream_seeds(args.seed, 1)[0])
    print(json.dumps(fingerprint(res.session), sort_keys=True))
    return 0


def bench(wl, seed, seconds):
    """Untraced run: the end-to-end metrics over distinct streams of one seed.

    Every stream is fed `wl.passes` times, round robin, so that its passes
    lie apart in time, and each step counts with the fastest of its passes.
    The computation repeats bit for bit, so the passes differ only by the
    host's contention, which slows single steps by up to half.  Peak RSS is
    read once stream 0 has run, before any output check allocates.
    """
    import numpy as np

    from streams import fingerprint, run_stream, setup_seconds, stream_seeds

    seeds = stream_seeds(seed, run_count(wl, seconds, wl.passes))
    run_stream(wl, seeds[0], steps=max(1, int(wl.steps * WARMUP_SHARE)))
    buf = np.empty((wl.steps, wl.n))
    lines, ok = [], True
    best_step, best_iter, fps = {}, {}, {}
    attempted = failed = 0
    ckpt_mb = None
    setups = []
    deadline = time.perf_counter() + OVERRUN * seconds
    for p, (i, s) in itertools.product(range(wl.passes), enumerate(seeds)):
        if p >= 1 and time.perf_counter() > deadline:
            lines.append(f"machine too slow: pass {p + 1} stopped before stream {i}")
            break
        res = run_stream(wl, s, record=buf if p == 0 else None)
        setups.append(res.setup_s)
        fp = fingerprint(res.session)
        if p == 0:
            best_step[s], best_iter[s], fps[s] = res.step_ns, res.iter_ns, fp
            attempted += res.attempted
            failed += res.failed
            ok &= checked(res, lines, f"stream {i} (seed {s})")
            if i == 0:
                rss = peak_rss_mb()  # before any check allocates
                ckpt_mb, same = checkpoint_roundtrip(wl, res.session, lines)
                ok &= same
        elif fp != fps[s]:
            lines.append(f"stream {i} (seed {s}) did not repeat in pass {p}: {fp}")
            ok = False
        else:
            np.minimum(best_step[s], res.step_ns, out=best_step[s])
            np.minimum(best_iter[s], res.iter_ns, out=best_iter[s])
    setups += [setup_seconds(wl, seeds[i % len(seeds)]) for i in range(MIN_SETUPS - len(setups))]

    lines.append(f"{len(seeds)} streams, {wl.passes} pass(es) each; a step sample is its fastest pass")

    step_ms = np.concatenate(list(best_step.values())) / 1e6
    iter_s = sum(int(v.sum()) for v in best_iter.values()) / 1e9
    metrics = {
        "steps_per_s": step_ms.size / iter_s,
        "step_ms_p50": float(np.percentile(step_ms, 50)),
        "step_ms_p99": float(np.percentile(step_ms, 99)),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "checkpoint_mb": ckpt_mb,
        "ok_step_share": 1.0 - failed / attempted,
    }
    samples = {
        "steps_per_s": step_ms.size,
        "step_ms_p50": step_ms.size,
        "step_ms_p99": step_ms.size,
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "checkpoint_mb": 1,
        "ok_step_share": attempted,
    }
    return {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "units": E2E_UNITS,
        "lines": lines,
        "fingerprints": {str(s): fp for s, fp in fps.items()},
    }


def bench_traced(wl, seed, seconds):
    """Traced run: stream 0 fed alternately untraced and traced.

    The per-layer metrics come from the last traced pass, which also runs the
    output checks under the tracer; the overhead compares the medians of the
    untraced and traced passes.
    """
    import numpy as np

    from streams import fingerprint, pg_reference, run_stream, stream_seeds
    from tracer import NEXT, Tracer

    s = stream_seeds(seed, 1)[0]
    run_stream(wl, s, steps=max(1, int(wl.steps * WARMUP_SHARE)))
    buf = np.empty((wl.steps, wl.n))
    pairs = max(2, run_count(wl, seconds / 2))
    plain_sps, traced_sps, fps = [], [], []
    lines = []
    for i in range(pairs):
        res = run_stream(wl, s)
        plain_sps.append(res.steps_per_s)
        fps.append(fingerprint(res.session))
        tracer = Tracer()
        with tracer.installed():
            res = run_stream(wl, s, record=buf, nxt=tracer.wrap(NEXT, next), tracer=tracer)
            if i == pairs - 1:
                tracer.t = wl.steps + 1
                ok = checked(res, lines, f"traced stream (seed {s})")
                _, same = checkpoint_roundtrip(wl, res.session, lines)
        traced_sps.append(res.steps_per_s)
        fps.append(fingerprint(res.session))
    repeats = all(f == fps[0] for f in fps)
    lines.append(f"stream 0 repeats bit for bit over {len(fps)} passes, traced and untraced: {repeats}")
    ok &= same and repeats

    sps = (statistics.median(plain_sps), statistics.median(traced_sps))
    metrics = traced_metrics(tracer, res, sps, pg_reference(wl, s))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.csv"
    tracer.write(spans_path)
    lines.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    wall = metrics["driver.step.s"]
    lines.append(
        f"phases of {wall:.3f} s step wall: "
        + ", ".join(f"{k[6:-2]} {100 * v / wall:.1f}%" for k, v in metrics.items() if k.startswith("phase."))
    )
    lines.append(f"trace overhead {100 * metrics['trace.overhead']:.1f}% on steps_per_s")
    lines.append(
        f"pg-warm over the first {wl.pg_prefix} steps: {metrics['pgwarm.steps_per_s']:.3g} steps/s "
        f"against hones {metrics['pgwarm.hones_steps_per_s']:.3g} ({metrics['pgwarm.unconverged']} pg steps unconverged)"
    )
    return {
        "correct": ok,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
        "samples": {},
        "units": layer_units(),
        "lines": lines,
        "fingerprints": {str(s): fps[0]},
    }


def traced_metrics(tracer, res, sps, pg):
    """Per-layer metrics of one traced stream.

    `sps` is the (untraced, traced) median steps/s of stream 0 and `pg` the
    pg-warm reference from `streams.pg_reference`.
    """
    from streams import fingerprint
    from tracer import LEG_REBUILD, NEXT

    m = {}
    for name, (calls, ns, self_ns) in tracer.totals().items():
        if name != NEXT:
            m[f"{name}.calls"] = calls
        m[f"{name}.s"] = ns / 1e9
        if name not in (NEXT, LEG_REBUILD):
            m[f"{name}.self_s"] = self_ns / 1e9

    reports = res.session.reports
    steps = len(reports)
    fp = fingerprint(res.session)
    a_update_ns = sum(r.a_update_ns for r in reports)
    m.update(
        {
            "driver.a_update_s": a_update_ns / 1e9,
            "driver.rebuilds": fp["rebuilds"],
            "driver.rebuilds_per_step": fp["rebuilds"] / steps,
            "driver.support_sum": fp["support_sum"],
            "driver.support_mean": fp["support_sum"] / steps,
            "driver.s_star_final": reports[-1].s_star,
            "path_matrix.events": fp["k_a"],
            "path_vector.events": fp["k_c"],
            "path.excess_events": fp["e_sum"],
            "path.zero_excess_share": sum(r.e_t == 0 for r in reports) / steps,
            "counters.mult_total": fp["mult_total"],
            "counters.mult_per_event": fp["mult_total"] / max(fp["k_a"] + fp["k_c"], 1),
        }
    )
    _, phases = tracer.phases(a_update_ns)
    m.update({f"phase.{p}_s": ns / 1e9 for p, ns in phases.items()})
    m.update(
        {
            "trace.steps_per_s": sps[1],
            "trace.untraced_steps_per_s": sps[0],
            "trace.overhead": sps[0] / sps[1] - 1.0,
            "pgwarm.steps_per_s": pg[0],
            "pgwarm.hones_steps_per_s": pg[1],
            "pgwarm.speedup": pg[1] / pg[0],
            "pgwarm.unconverged": pg[2],
        }
    )
    return m


def run_one(args):
    from streams import WORKLOADS

    wl = WORKLOADS[args.workload]
    meta = machine_info(args.seed)
    out = (bench_traced if args.trace else bench)(wl, args.seed, args.seconds)
    failed, attempted = out["failed"], out["attempted"]
    print(f"# {wl.name} seed {args.seed} trace {args.trace}: {json.dumps(meta, sort_keys=True)}")
    print(f"# failed_step_share {failed / attempted:.6f} ({failed} of {attempted} steps)")
    for line in out["lines"]:
        print(f"# {line}")
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in out["units"].items()}
    for name, metric in metrics.items():
        count = out["samples"].get(name)
        print(f"{wl.name:16s} {name:40s} {metric['value']:>16.6g} {metric['unit']:6s}" + (f" n={count}" if count else ""))
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": meta,
        "metrics": metrics,
        **{k: v for k, v in out.items() if k not in ("metrics", "units")},
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": out["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if out["correct"] else 1


def child(workload, seed, seconds, trace, *extra):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)


def run_all(args):
    """Every workload in a fresh process of its own."""
    from streams import WORKLOADS

    code, summary = 0, {}
    for name in WORKLOADS:
        proc = child(name, args.seed, args.seconds, args.trace)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"# {name}: exit code {proc.returncode}")
            code = 1
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(summary))
    return code


def self_test(args):
    """Fingerprints repeat across fresh processes; names match BENCHMARK.json."""
    from streams import WORKLOADS

    ok = True
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (
        ("workloads", list(WORKLOADS)),
        ("end_to_end", list(E2E_UNITS)),
        ("per_layer", list(layer_units())),
    ):
        if [m["name"] for m in spec[key]] != names:
            print(f"FAIL {key} names differ from BENCHMARK.json")
            ok = False
    for name in list(WORKLOADS) if args.workload == "all" else [args.workload]:
        runs = [child(name, args.seed, args.seconds, 0, "--probe") for _ in range(2)]
        fps = [json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None for p in runs]
        same = fps[0] is not None and fps[0] == fps[1]
        print(f"{'ok  ' if same else 'FAIL'} {name} seed {args.seed}: {json.dumps(fps[0], sort_keys=True)}")
        ok &= same
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check that count fingerprints repeat")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "hones" / "__init__.py").is_file():
        print(f"error: the hones sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from streams import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.self_test:
        return self_test(args)
    if args.workload == "all":
        return run_all(args)
    if args.probe:
        return probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
