"""Benchmark harness: reproducible runs, machine-readable outputs, self checks.

Subcommands
  run-synthetic / run-ons / run-markowitz
      Run one scenario with the chosen solver and write a per-step CSV plus a
      JSON summary.  The oracle solver doubles as a verification twin: it
      follows the path solver's stream and additionally writes the per-step
      agreement between both solutions.
  run-grid
      Fan a JSON list of scenarios across worker threads.
  verify
      One-shot correctness gate over the seeded property suite; exit 0 iff
      every invariant passes.  Its first check holds the oracle against the
      exact rational reference on problems of sizes 2..--n.

CSV schema (schema_version 1):
  t, k_a, k_c, k_t, e_t, support_size, kkt_residual, wall_ns, mult_count,
  wall_opt_ns, a_update_ns, s_max, s_star, rebuilds, iterations
Timing columns (wall_ns, wall_opt_ns, a_update_ns) describe the solver the
file is named for: a_update_ns is its matrix update, wall_opt_ns its solve
and wall_ns their sum; the JSON's wall and epoch seconds sum those columns.
They are nondeterministic; everything else is bitwise reproducible for a
fixed seed.
"""

import argparse
import csv
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .baselines import pg_warmstart_solve
from .driver import (
    SolverConfig,
    StepReport,
    aggregate_reports,
    count_ops,
    init_session,
    run_sequence,
    step,
)
from .errors import HonesError
from .flows import FlowConfig, flow_for_config, load_prices, synthetic_flow
from .kkt import (
    Problem,
    exact_solve,
    oracle_solve,
    project_simplex,
    zero_tol,
)
from .state import condition_proxy

SCHEMA_VERSION = 1
CSV_COLUMNS = [
    "t",
    "k_a",
    "k_c",
    "k_t",
    "e_t",
    "support_size",
    "kkt_residual",
    "wall_ns",
    "mult_count",
    "wall_opt_ns",
    "a_update_ns",
    "s_max",
    "s_star",
    "rebuilds",
    "iterations",
]


def _int_at_least(text, low):
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _positive_int(text):
    return _int_at_least(text, 1)


def _nonnegative_int(text):
    return _int_at_least(text, 0)


def build_parser():
    parser = argparse.ArgumentParser(prog="hones", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--n", type=int, default=100, help="problem dimension")
        sp.add_argument("--steps", type=int, default=1000, help="number of sequential updates")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--solver", choices=["hones", "pg-warm", "oracle"], default="hones")
        sp.add_argument("--tol", type=float, default=1e-8, help="optimality tolerance")
        sp.add_argument("--epoch", type=_positive_int, default=250, help="steps per timing epoch")
        sp.add_argument("--eager", action="store_true", help="disable lazy row maintenance (not for pg-warm)")
        sp.add_argument("--pg-max-iter", type=_nonnegative_int, help="iteration cap for pg-warm (default 20000)")
        sp.add_argument("--out-dir", type=Path, default=Path("out"))
        sp.add_argument("--tag", default="", help="suffix for output file names")
        if name == "run-synthetic":
            sp.add_argument("--c-factor", type=float, default=0.1)
        else:
            sp.add_argument("--prices", type=Path, default=None, help="wide CSV of prices; generated if omitted")
        if name != "run-ons":  # the ons A0 is I, whatever the ridge
            sp.add_argument("--epsilon", type=float, default=1e-4, help="initial ridge scale")
        return sp

    add_run("run-synthetic", "Gaussian rank-one stream benchmark")
    add_run("run-ons", "closed-loop portfolio-update stream")
    add_run("run-markowitz", "minimum-variance stream from log returns")

    gp = sub.add_parser("run-grid", help="run a JSON list of scenarios across threads")
    gp.add_argument("--file", type=Path, required=True)
    gp.add_argument("--threads", type=_positive_int, default=4)
    gp.add_argument("--out-dir", type=Path, default=Path("out"))

    vp = sub.add_parser("verify", help="seeded correctness gate")
    vp.add_argument("--n", type=_positive_int, default=8)
    vp.add_argument("--seeds", type=_positive_int, default=25)
    vp.add_argument("--steps", type=_positive_int, default=60)
    vp.add_argument("--inject-fault", choices=["m-corruption"], default=None)
    return parser


def parse_args(parser, argv):
    """Parse argv with `parser`, refusing as argparse does (exit 2) a run flag its solver does not read.

    pg-warm keeps no session, so it takes no --eager; only pg-warm reads
    --pg-max-iter, whose default is then 20000.
    """
    args = parser.parse_args(argv)
    solver = getattr(args, "solver", None)
    if solver == "pg-warm" and args.eager:
        parser.error("--eager does not apply to --solver pg-warm")
    if solver not in (None, "pg-warm") and args.pg_max_iter is not None:
        parser.error(f"--pg-max-iter does not apply to --solver {solver}")
    if solver == "pg-warm" and args.pg_max_iter is None:
        args.pg_max_iter = 20000
    return args


def _flow_and_feedback(kind, args, feedback_box):
    """The scenario's flow; its x feedback reads feedback_box["x"].

    A --prices file sets args.n to its ticker count and must hold a usable
    row for every step plus one; a short file raises ValueError.
    """
    prices = None
    if kind != "synthetic" and args.prices is not None:
        prices = load_prices(args.prices)
        if prices.dropped_rows:
            print(f"warning: dropped {prices.dropped_rows} price rows", file=sys.stderr)
        if prices.steps < args.steps + 1:
            raise ValueError(
                f"{args.prices} has {prices.steps} usable price rows, {args.steps} steps need {args.steps + 1}"
            )
        args.n = prices.n
    # A flag the command lacks leaves FlowConfig's default.
    knobs = {key: getattr(args, key) for key in ("epsilon", "c_factor") if hasattr(args, key)}
    cfg = FlowConfig(kind, args.n, args.steps, seed=args.seed, **knobs)
    return flow_for_config(cfg, prices=prices, x_feedback=lambda: feedback_box["x"])


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@dataclasses.dataclass(slots=True)
class PgStepReport(StepReport):
    """A pg-warm step: a StepReport with the zero counts of a run that takes no path, and its iteration count."""

    iterations: int


def _report_row(rep):
    """The CSV row of one StepReport, each column read off it by name (iterations is 0 but for pg-warm)."""
    derived = {"kkt_residual": repr(rep.kkt_residual), "wall_opt_ns": rep.wall_ns - rep.a_update_ns}
    return [derived[col] if col in derived else getattr(rep, col, 0) for col in CSV_COLUMNS]


def run_scenario(kind, args):
    """Run one scenario and write its files.

    One loop steps every solver.  hones and the oracle twin step a session;
    pg-warm builds none and starts from the initial problem's oracle
    optimum, which is the session's first iterate.  The two reference
    solvers keep the dense A current and re-solve each accumulated problem,
    and their reports carry their own timings.
    """
    config = SolverConfig(tol=args.tol, lazy_a=not args.eager)
    feedback_box = {"x": None}
    flow = _flow_and_feedback(kind, args, feedback_box)
    name = f"{kind}-{args.solver}-n{args.n}-s{args.steps}-seed{args.seed}"
    if args.tag:
        name += f"-{args.tag}"

    pg = args.solver == "pg-warm"
    session = None if pg else init_session(flow.a0, flow.c0, config)
    feedback_box["x"] = oracle_solve(Problem(flow.a0, flow.c0)).x if pg else session.x

    reports = []
    deviations = []
    # Only the oracle twin and pg-warm keep the dense matrix current.
    A = np.array(flow.a0, dtype=np.float64) if args.solver != "hones" else None
    warm = None
    unconverged = 0
    for t, (g_t, c_t) in zip(range(1, args.steps + 1), flow):
        if not pg:
            rep = step(session, g_t, c_t)
            feedback_box["x"] = session.x
        if A is not None:
            ta = time.perf_counter_ns()
            A += np.outer(g_t, g_t)
            t0 = time.perf_counter_ns()
            problem = SimpleNamespace(A=A, c=np.asarray(c_t, dtype=np.float64), n=args.n)
            res = (
                pg_warmstart_solve(problem, feedback_box["x"], tol=args.tol, max_iter=args.pg_max_iter)
                if pg
                else oracle_solve(problem, x0=warm)
            )
            wall, a_ns = time.perf_counter_ns() - ta, t0 - ta
            if pg:
                x = feedback_box["x"] = res.x
                unconverged += 0 if res.converged else 1
                size = int(np.sum(x > zero_tol(x)))
                # t, k_a, k_c, k_t, e_t, support_size, s_max, s_star, kkt_residual, wall_ns, a_update_ns,
                # mult_count, rebuilds, refreshes, events, iterations
                rep = PgStepReport(t, 0, 0, 0, 0, size, size, 0, res.residual, wall, a_ns, 0, 0, 0, [], res.iterations)
            else:
                # verification twin: the path solver drives the stream, the
                # oracle re-solves the accumulated problem and the agreement
                # is logged; the timings are the oracle's own
                warm = res.x
                deviations.append((t, float(np.max(np.abs(warm - session.x)))))
                rep = dataclasses.replace(rep, wall_ns=wall, a_update_ns=a_ns)
        reports.append(rep)

    summary = aggregate_reports(reports, epoch=args.epoch)
    if pg:
        summary.update(iterations_total=sum(r.iterations for r in reports), unconverged_steps=unconverged)
    if deviations:
        summary["x_agreement_max"] = max(d for _, d in deviations)
    summary["schema_version"] = SCHEMA_VERSION
    summary["scenario"] = {
        "kind": kind,
        "solver": args.solver,
        "n": args.n,
        "steps": args.steps,
        "seed": args.seed,
        "epsilon": getattr(args, "epsilon", None),
        "c_factor": getattr(args, "c_factor", None),
        "tol": args.tol,
        "lazy_a": not args.eager,
    }
    if args.solver == "hones":
        summary["mult_bound_violations"] = count_ops(reports, args.n)

    args.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = args.out_dir / f"{name}.csv", args.out_dir / f"{name}.json"
    _write_csv(csv_path, CSV_COLUMNS, map(_report_row, reports))
    json_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if deviations:
        dev_path = args.out_dir / f"{name}-agreement.csv"
        _write_csv(dev_path, ["t", "max_abs_deviation"], [(t, repr(d)) for t, d in deviations])
        print(f"agreement: max deviation {summary['x_agreement_max']:.3e} -> {dev_path}")
    print(f"wrote {csv_path} and {json_path}")


def cmd_run(kind, args):
    try:
        run_scenario(kind, args)
        return 0
    except (HonesError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def cmd_run_grid(args):
    try:
        scenarios = json.loads(args.file.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"error reading grid file: {err}", file=sys.stderr)
        return 2
    if not (isinstance(scenarios, list) and all(isinstance(entry, dict) for entry in scenarios)):
        print("error: grid file must contain a JSON list of objects", file=sys.stderr)
        return 2

    parser = build_parser()

    def launch(entry):
        kind = entry.get("kind", "synthetic")
        argv = [f"run-{kind}"]
        for key, val in entry.items():
            if key == "kind" or val is False:
                continue
            argv.append(f"--{key.replace('_', '-')}")
            if val is not True:
                argv.append(str(val))
        try:
            sub_args = parse_args(parser, argv)
        except SystemExit as stop:  # argparse has printed the usage and its error
            return stop.code
        sub_args.out_dir = args.out_dir
        return cmd_run(kind, sub_args)

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        return max(pool.map(launch, scenarios), default=0)


def _check(table, name, ok, detail=""):
    table.append((name, ok, detail))
    mark = "pass" if ok else "FAIL"
    print(f"  [{mark}] {name}" + (f"  ({detail})" if detail and not ok else ""))
    return ok


def cmd_verify(args):
    table = []
    rng = np.random.default_rng(0)
    print("oracle and projection spot checks")
    worst = 0.0
    for seed in range(args.seeds):
        n = 2 + seed % max(1, args.n - 1)
        B = rng.standard_normal((n, n))
        problem = Problem(B @ B.T + (0.1 + rng.random()) * np.eye(n), rng.standard_normal(n))
        a = oracle_solve(problem)
        exact = np.array(exact_solve(problem, a.x)[1], dtype=float)
        worst = max(worst, float(np.max(np.abs(a.x - exact))))
    _check(table, "oracle-vs-exact", worst <= 1e-8, f"max dev {worst:.2e}")

    worst = 0.0
    for _ in range(200):
        y = rng.standard_normal(6) * 3
        x = project_simplex(y)
        worst = max(worst, float(np.max(np.abs(project_simplex(x) - x))))
    _check(table, "projection-idempotent", worst <= 1e-12, f"max dev {worst:.2e}")

    n = max(args.n, 12)
    flow = synthetic_flow(FlowConfig("synthetic", n, args.steps, c_factor=0.1, seed=7))
    session = init_session(flow.a0, flow.c0, SolverConfig())
    # The turning-point check measures each support change from the support
    # itself, before and after the step, not from the report it checks.
    reports, changes, xs = [], [], []
    for g_t, c_t in flow:
        before = session.support.mask
        reports.append(step(session, g_t, c_t))
        changes.append(np.count_nonzero(before ^ session.support.mask))
        xs.append(session.x)
    if args.inject_fault == "m-corruption":
        session.par1.M[0, 0] += 1.0

    kappa = condition_proxy(session.A, session.support, session.par1)
    dev = session.validate()
    _check(table, "state-validation", dev <= 1e-8 * max(1.0, kappa), f"deviation {dev:.2e}")

    ok_bound = all(r.k_t >= d and r.k_t - 2 * r.e_t == d for r, d in zip(reports, changes))
    _check(table, "turning-point-lower-bound", ok_bound)

    res = max(r.kkt_residual for r in reports)
    _check(table, "kkt-residual-per-step", res <= 1e-8, f"max residual {res:.2e}")

    bad = count_ops(reports, n)
    _check(table, "multiplication-bound", bad == 0, f"{bad} steps over budget")

    # The eager twin replays the flow (every iter(flow) starts it afresh)
    # against the lazy session's x's above.
    eager = init_session(flow.a0, flow.c0, SolverConfig(lazy_a=False))
    out = run_sequence(eager, flow, args.steps)
    twin_dev = max(float(np.max(np.abs(xa - xb))) for xa, (xb, _) in zip(xs, out))
    _check(table, "lazy-vs-eager-twin", twin_dev <= 1e-9, f"max dev {twin_dev:.2e}")

    failed = [name for name, ok, _ in table if not ok]
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    print("all invariants passed")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parse_args(parser, argv)
    if args.command in ("run-synthetic", "run-ons", "run-markowitz"):
        return cmd_run(args.command[len("run-") :], args)
    if args.command == "run-grid":
        return cmd_run_grid(args)
    if args.command == "verify":
        return cmd_verify(args)
    parser.error(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
