"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also exercised by a plain `pytest`.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from hones.baselines import pg_warmstart_solve
from hones.driver import SolverConfig, count_ops, init_session, run_sequence, step
from hones.flows import FlowConfig, flow_for_config, synthetic_flow, synthetic_prices
from hones.kkt import Problem, Support, oracle_solve
from hones.path_matrix import expand_support_lambda, shrink_support_lambda
from hones.state import (
    condition_proxy,
    direct_update_par2,
    init_par1,
    validate_state,
)

RESULTS = []


def record(name, ok, detail):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line)
    return ok


def make_flow(kind, n, steps, seed, feedback):
    knobs = {"c_factor": 0.1} if kind == "synthetic" else {}
    cfg = FlowConfig(kind, n, steps, seed=seed, **knobs)
    prices = synthetic_prices(n, steps + 1, seed=seed) if kind != "synthetic" else None
    return flow_for_config(cfg, prices=prices, x_feedback=feedback)


def test_criterion_1_and_2_oracle_equivalence_and_lower_bound():
    """1000 seeded runs x 50 steps across all three flows: per-step agreement
    with the independent oracle at 1e-7, residual at 1e-8, and the exact
    integer turning-point lower bound."""
    t_start = time.time()
    kinds = ("synthetic", "ons", "markowitz")
    sizes = (5, 10, 30)
    worst_dev = 0.0
    worst_res = 0.0
    bound_failures = 0
    steps_total = 0
    for run_id in range(1000):
        n = sizes[run_id % 3]
        kind = kinds[(run_id // 3) % 3]
        seed = run_id
        box = {"x": None}
        flow = make_flow(kind, n, 50, seed, lambda: box["x"])
        session = init_session(flow.a0, flow.c0)
        box["x"] = session.x
        A = np.array(flow.a0)
        warm = None
        prev_support = set(session.support.as_tuple())
        it = iter(flow)
        for _ in range(50):
            g_t, c_t = next(it)
            rep = step(session, g_t, c_t)
            box["x"] = session.x
            A += np.outer(g_t, g_t)
            ref = oracle_solve(SimpleNamespace(A=A, c=np.asarray(c_t, dtype=float), n=n), x0=warm)
            warm = ref.x
            worst_dev = max(worst_dev, float(np.max(np.abs(session.x - ref.x))))
            worst_res = max(worst_res, rep.kkt_residual)
            cur_support = set(session.support.as_tuple())
            if rep.k_t < len(prev_support ^ cur_support):
                bound_failures += 1
            prev_support = cur_support
            steps_total += 1
    elapsed = time.time() - t_start
    ok1 = worst_dev <= 1e-7 and worst_res <= 1e-8
    record(
        "1 oracle-equivalence",
        ok1,
        f"{steps_total} steps, max dev {worst_dev:.2e}, max residual {worst_res:.2e}, {elapsed:.0f}s",
    )
    ok2 = bound_failures == 0
    record("2 turning-point-lower-bound", ok2, f"{bound_failures} violations in {steps_total} steps")
    assert ok1
    assert ok2


@pytest.fixture(scope="module")
def criterion3_runs():
    runs = []
    for seed in range(5):
        flow = synthetic_flow(FlowConfig("synthetic", 100, 1000, c_factor=0.1, seed=seed))
        session = init_session(flow.a0, flow.c0)
        out = run_sequence(session, flow, 1000)
        runs.append((seed, [r for _, r in out]))
    return runs


def test_criterion_3_excess_turning_points(criterion3_runs):
    """Proportion of zero-excess steps >= 0.95 on every seed (n=100, c=0.1,
    T=1000)."""
    props = []
    for seed, reports in criterion3_runs:
        e = np.array([r.e_t for r in reports])
        props.append((seed, float(np.mean(e == 0))))
    ok = all(p >= 0.95 for _, p in props)
    detail = ", ".join(f"seed {s}: {p:.3f}" for s, p in props)
    record("3 excess-turning-points", ok, detail)
    assert ok, (
        "zero-excess proportion below 0.95; the two-leg path genuinely "
        "produces these turning points (every sampled event is oracle-"
        "confirmed), see README 'The simplex gauge'"
    )


def test_criterion_4_sparsity(criterion3_runs):
    """Mean support size lands in the stated bands for both c factors."""
    means = []
    for _, reports in criterion3_runs[:1]:
        sizes = [r.support_size for r in reports]
        means.append(float(np.mean(sizes)))
    flow = synthetic_flow(FlowConfig("synthetic", 100, 1000, c_factor=0.01, seed=0))
    session = init_session(flow.a0, flow.c0)
    out = run_sequence(session, flow, 1000)
    mean_dense = float(np.mean([r.support_size for _, r in out]))
    ok = 10.0 <= means[0] <= 30.0 and 60.0 <= mean_dense <= 95.0
    record(
        "4 sparsity-reproduction",
        ok,
        f"c=0.1 mean {means[0]:.1f} (want 10..30), c=0.01 mean {mean_dense:.1f} (want 60..95)",
    )
    assert ok


def test_criterion_5_complexity_bound(criterion3_runs):
    """Measured multiplications within the turning-point budget on every step."""
    violations = 0
    total = 0
    for _, reports in criterion3_runs:
        violations += count_ops(reports, 100)
        total += len(reports)
    ok = violations == 0
    record("5 complexity-bound", ok, f"{violations} of {total} steps over budget")
    assert ok


def test_criterion_6_relative_speed():
    """n=1000, c=0.1, T=500: solver wall time at most 1/1.5 of pg-warm at the
    same stopping tolerance, measured in-process on the same machine."""
    n, steps, tol = 1000, 500, 1e-8
    flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=0))
    session = init_session(flow.a0, flow.c0)
    out = run_sequence(session, flow, steps)
    hones_s = sum(r.wall_ns - r.a_update_ns for _, r in out) / 1e9

    flow2 = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=0))
    x = init_session(flow2.a0, flow2.c0).x.copy()
    A = np.array(flow2.a0)
    pg_s = 0.0
    unconverged = 0
    for g_t, c_t in flow2:
        A += np.outer(g_t, g_t)
        t0 = time.perf_counter_ns()
        res = pg_warmstart_solve(SimpleNamespace(A=A, c=c_t, n=n), x, tol=tol, max_iter=20000)
        pg_s += (time.perf_counter_ns() - t0) / 1e9
        x = res.x
        unconverged += 0 if res.converged else 1
    ok = hones_s <= pg_s / 1.5
    record(
        "6 relative-speed",
        ok,
        f"hones {hones_s:.2f}s vs pg-warm {pg_s:.2f}s (ratio {pg_s / max(hones_s, 1e-12):.1f}x, "
        f"{unconverged} pg steps unconverged)",
    )
    assert ok


def test_criterion_7_lazy_eager_equivalence():
    """Twin runs with lazy and eager matrix maintenance: identical event logs
    and per-step solutions within 1e-9 (n=100, T=500)."""
    n, steps = 100, 500
    flow_a = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=1))
    flow_b = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=1))
    lazy = init_session(flow_a.a0, flow_a.c0, SolverConfig(lazy_a=True))
    eager = init_session(flow_b.a0, flow_b.c0, SolverConfig(lazy_a=False))
    same_start = lazy.support == eager.support
    out_a = run_sequence(lazy, flow_a, steps)
    out_b = run_sequence(eager, flow_b, steps)
    max_dev = max(float(np.max(np.abs(xa - xb))) for (xa, _), (xb, _) in zip(out_a, out_b))
    # From one initial support, equal toggles give equal supports after every event.
    log_a = [(ev.leg, ev.index, ev.kind, ev.support_size) for _, r in out_a for ev in r.events]
    log_b = [(ev.leg, ev.index, ev.kind, ev.support_size) for _, r in out_b for ev in r.events]
    logs_equal = same_start and log_a == log_b
    ok = logs_equal and max_dev <= 1e-9
    record(
        "7 lazy-A-equivalence",
        ok,
        f"event logs {'identical' if logs_equal else 'DIFFER'}, max x dev {max_dev:.2e}",
    )
    assert ok


def test_criterion_8_state_consistency():
    """After every support change in a seeded n=30, T=200 run the cached state
    matches a fresh factorization at 1e-8 kappa; expand/shrink round-trips
    restore the state at 1e-12."""
    n, steps = 30, 200
    flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=3))
    session = init_session(flow.a0, flow.c0)
    worst_scaled = 0.0
    checked = 0
    it = iter(flow)
    for _ in range(steps):
        g_t, c_t = next(it)
        rep = step(session, g_t, c_t)
        if rep.k_t == 0:
            continue
        kappa = condition_proxy(session.A, session.support, session.par1)
        dev = session.validate()
        worst_scaled = max(worst_scaled, dev / (1e-8 * max(kappa, 1.0)))
        checked += 1
    ok_validate = worst_scaled <= 1.0

    rng = np.random.default_rng(123)
    worst_rt = 0.0
    for _ in range(50):
        m = 10
        B = rng.standard_normal((m, m))
        problem = Problem(B @ B.T + np.eye(m), rng.standard_normal(m))
        k = int(rng.integers(1, m - 1))
        support = Support(m, rng.choice(m, size=k, replace=False))
        par1 = init_par1(problem, support)
        g = rng.standard_normal(m)
        par2 = direct_update_par2(support, par1, g)
        # D_gg is read off the cache, as find_lambda reads it.
        d_gg = par2.eta[support.idx] @ g[support.idx]
        before = (par1.M.copy(), par1.eta_tilde.copy(), par1.D, par2.eta.copy(), par2.D_g, d_gg)
        j = int(rng.choice(support.complement()))
        mid = expand_support_lambda(support, j, problem.A, par1, par2)
        shrink_support_lambda(mid, j, par1, par2)
        worst_rt = max(
            worst_rt,
            float(np.max(np.abs(par1.M - before[0]))),
            float(np.max(np.abs(par1.eta_tilde - before[1]))),
            abs(par1.D - before[2]),
            float(np.max(np.abs(par2.eta - before[3]))),
            abs(par2.D_g - before[4]),
            abs(par2.eta[support.idx] @ g[support.idx] - before[5]),
        )
    ok_rt = worst_rt <= 1e-12
    ok = ok_validate and ok_rt
    record(
        "8 state-consistency",
        ok,
        f"{checked} validated steps, worst scaled deviation {worst_scaled:.2e} (<=1), "
        f"round-trip {worst_rt:.2e} (<=1e-12)",
    )
    assert ok


def test_zzz_print_summary():
    print()
    for line in RESULTS:
        print(line)
