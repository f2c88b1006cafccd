import numpy as np
import pytest

from hones.errors import CycleLimit, DegenerateDenominator, EmptySupport
from hones.kkt import Problem, Support, kkt_residual, oracle_solve, solve_given_support
from hones.path_matrix import (
    expand_support_lambda,
    find_lambda,
    run_lambda_leg,
    shrink_support_lambda,
    update_by_lambda,
)
from hones.state import (
    condition_proxy,
    direct_update_par2,
    init_par1,
    par1_from_matrix,
    validate_state,
)

from test_kkt import random_spd_problem


def fresh_state(problem, g):
    """Optimal quadruple plus caches for one problem and one direction."""
    q = oracle_solve(problem)
    par1 = init_par1(problem, q.support)
    par2 = direct_update_par2(q.support, par1, problem.c, g)
    return q, par1, par2


def first_support_change(A, c, g, samples=400):
    """Bisection oracle: earliest lambda in (0, 1] where the support changes."""
    base = oracle_solve(Problem(A, c)).support
    grid = np.linspace(0.0, 1.0, samples + 1)
    lo, hi = None, None
    for lam in grid[1:]:
        s = oracle_solve(Problem(A + lam * np.outer(g, g), c)).support
        if s != base:
            hi = lam
            lo = lam - 1.0 / samples
            break
    if hi is None:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        s = oracle_solve(Problem(A + mid * np.outer(g, g), c)).support
        if s == base:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFindLambda:
    def test_zero_direction_never_moves(self):
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.array([0.1, 0.0, -0.2]))
        q, par1, par2 = fresh_state(p, np.zeros(3))
        step = find_lambda(q.support, q, par1, par2)
        assert step.lam_inc == np.inf
        assert step.j is None

    def test_asymptotic_crossing_is_infinite(self):
        # x(lam) = (1/(2+lam), (1+lam)/(2+lam)): the first coordinate decays
        # but never reaches zero at finite lam.
        p = Problem(np.eye(2), np.zeros(2))
        q, par1, par2 = fresh_state(p, np.array([1.0, 0.0]))
        step = find_lambda(q.support, q, par1, par2)
        assert step.lam_inc == np.inf

    def test_first_event_matches_bisection(self):
        rng = np.random.default_rng(42)
        A = np.eye(3)
        c = np.array([0.4, 0.0, 0.0])
        g = rng.standard_normal(3)
        g[1] += 4.0
        lam_ref = first_support_change(A, c, g)
        assert lam_ref is not None, "construction must produce an event in (0,1)"
        p = Problem(A, c)
        q, par1, par2 = fresh_state(p, g)
        step = find_lambda(q.support, q, par1, par2)
        assert step.j is not None
        assert step.lam_inc == pytest.approx(lam_ref, abs=1e-9)


class TestUpdateByLambda:
    def test_zero_increment_is_identity(self):
        rng = np.random.default_rng(3)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, par2 = fresh_state(p, g)
        v0, mu0, M0 = q.v.copy(), q.mu0, par1.M.copy()
        update_by_lambda(0.0, q, par1, par2, find_lambda(q.support, q, par1, par2).scratch)
        np.testing.assert_array_equal(q.v, v0)
        assert q.mu0 == mu0
        np.testing.assert_array_equal(par1.M, M0)

    def test_zero_direction_is_identity(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        q, par1, par2 = fresh_state(p, np.zeros(2))
        v0, D0 = q.v.copy(), par1.D
        update_by_lambda(0.7, q, par1, par2, find_lambda(q.support, q, par1, par2).scratch)
        np.testing.assert_array_equal(q.v, v0)
        assert par1.D == D0

    def test_full_step_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        q, par1, par2 = fresh_state(p, np.array([1.0, 0.0]))
        update_by_lambda(1.0, q, par1, par2, find_lambda(q.support, q, par1, par2).scratch)
        np.testing.assert_allclose(q.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert q.mu0 == pytest.approx(2.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(par1.M, np.diag([0.5, 1.0]), atol=1e-12)

    def test_state_consistent_at_intermediate_lambda(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = random_spd_problem(rng, n)
            g = rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam = float(rng.uniform(0.05, 0.6))
            step = find_lambda(q.support, q, par1, par2)
            lam = min(lam, 0.9 * step.lam_inc)  # stay inside the first segment
            if lam <= 0 or not np.isfinite(lam):
                continue
            update_by_lambda(lam, q, par1, par2, step.scratch)
            A_lam = p.A + lam * np.outer(g, g)
            moved = Problem(A_lam, p.c)
            kappa = condition_proxy(A_lam, q.support, par1)
            assert validate_state(moved, q.support, par1, par2) <= 1e-10 * kappa
            assert kkt_residual(moved, q) <= 1e-9 * max(1.0, kappa)

    def test_degenerate_denominator_raises(self):
        p = Problem(np.eye(2), np.zeros(2))
        q, par1, par2 = fresh_state(p, np.ones(2))
        par2.D_gg = -2.0  # corrupt so 1 + lam D_gg crosses zero
        scratch = find_lambda(q.support, q, par1, par2).scratch
        with pytest.raises(DegenerateDenominator):
            update_by_lambda(1.0, q, par1, par2, scratch)


class TestExpandShrink:
    def test_expand_identity_block(self):
        p = Problem(np.eye(3), np.zeros(3))
        support = Support(3, [0])
        par1 = init_par1(p, support)
        par2 = direct_update_par2(support, par1, p.c, np.zeros(3))
        new = expand_support_lambda(0.0, support, 1, p.A, p.c, np.zeros(3), par1, par2)
        assert new.as_tuple() == (0, 1)
        expected = np.zeros((3, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(par1.M, expected, atol=1e-14)
        assert par1.D == pytest.approx(2.0, abs=1e-14)

    def test_expand_with_lambda_term(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        g = np.array([0.0, 1.0])
        par2 = direct_update_par2(support, par1, p.c, g)
        assert par2.eta[1] == pytest.approx(1.0)
        new = expand_support_lambda(1.0, support, 1, p.A, p.c, g, par1, par2)
        # pivot = A_jj + M_jS A_Sj + lam g_j eta_j = 1 + 0 + 1 = 2
        assert par1.M[1, 1] == pytest.approx(0.5, abs=1e-14)
        fresh = par1_from_matrix(p.A + np.outer(g, g), new)
        np.testing.assert_allclose(par1.M, fresh.M, atol=1e-14)

    def test_shrink_identity_block(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support.full(2)
        par1 = init_par1(p, support)
        par2 = direct_update_par2(support, par1, p.c, np.zeros(2))
        new = shrink_support_lambda(support, 1, p.c, par1, par2)
        assert new.as_tuple() == (0,)
        expected = np.zeros((2, 1))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(par1.M, expected, atol=1e-14)
        assert par1.D == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(par1.eta_tilde, [1.0, 1.0], atol=1e-14)

    def test_shrink_refuses_singleton(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        par2 = direct_update_par2(support, par1, p.c, np.zeros(2))
        with pytest.raises(EmptySupport):
            shrink_support_lambda(support, 0, p.c, par1, par2)

    def test_expand_then_shrink_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            p = random_spd_problem(rng, n)
            k = int(rng.integers(1, n - 1))
            idx = rng.choice(n, size=k, replace=False)
            support = Support(n, idx)
            par1 = init_par1(p, support)
            g = rng.standard_normal(n)
            par2 = direct_update_par2(support, par1, p.c, g)
            M0, teta0, D0 = par1.M.copy(), par1.eta_tilde.copy(), par1.D
            eta0, dg0, dgg0, dgc0 = par2.eta.copy(), par2.D_g, par2.D_gg, par2.D_gc
            j = int(rng.choice(support.complement()))
            lam = float(rng.uniform(0, 1))
            mid = expand_support_lambda(lam, support, j, p.A + lam * np.outer(g, g) - lam * np.outer(g, g), p.c, g, par1, par2)
            # matrix passed above is A itself; the lam term enters via eta
            shrink_support_lambda(mid, j, p.c, par1, par2)
            np.testing.assert_allclose(par1.M, M0, atol=1e-12)
            np.testing.assert_allclose(par1.eta_tilde, teta0, atol=1e-12)
            assert par1.D == pytest.approx(D0, abs=1e-12)
            np.testing.assert_allclose(par2.eta, eta0, atol=1e-12)
            assert par2.D_g == pytest.approx(dg0, abs=1e-12)
            assert par2.D_gg == pytest.approx(dgg0, abs=1e-12)
            assert par2.D_gc == pytest.approx(dgc0, abs=1e-12)

    def test_seeded_expand_validates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = 10
            p = random_spd_problem(rng, n)
            k = int(rng.integers(1, n - 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            lam = float(rng.uniform(0, 1))
            g = rng.standard_normal(n)
            A_lam = p.A + lam * np.outer(g, g)
            par1 = par1_from_matrix(A_lam, support)
            par2 = direct_update_par2(support, par1, p.c, g)
            # par2 must describe g against A_lam, which it does by construction.
            j = int(rng.choice(support.complement()))
            new = expand_support_lambda(0.0, support, j, A_lam, p.c, g, par1, par2)
            moved = Problem(A_lam, p.c)
            kappa = condition_proxy(A_lam, new, par1)
            assert validate_state(moved, new, par1, par2) <= 1e-10 * max(1.0, kappa)

    def test_seeded_shrink_validates(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 10
            p = random_spd_problem(rng, n)
            k = int(rng.integers(2, n + 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            par1 = init_par1(p, support)
            g = rng.standard_normal(n)
            par2 = direct_update_par2(support, par1, p.c, g)
            j = int(rng.choice(support.idx))
            new = shrink_support_lambda(support, j, p.c, par1, par2)
            kappa = condition_proxy(p.A, new, par1)
            assert validate_state(p, new, par1, par2) <= 1e-10 * max(1.0, kappa)


class TestRunLambdaLeg:
    def test_zero_direction_no_events(self):
        rng = np.random.default_rng(2)
        p = random_spd_problem(rng, 6)
        q, par1, par2 = fresh_state(p, np.zeros(6))
        x0 = q.x.copy()
        events = run_lambda_leg(p.A, p.c, np.zeros(6), q, par1, par2)
        assert events == []
        np.testing.assert_allclose(q.x, x0, atol=1e-14)

    def test_two_dim_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        g = np.array([1.0, 0.0])
        q, par1, par2 = fresh_state(p, g)
        events = run_lambda_leg(p.A, p.c, g, q, par1, par2)
        assert events == []
        np.testing.assert_allclose(q.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_simultaneous_entries_processed_smallest_first(self):
        A = np.eye(3)
        c = np.array([1.5, 0.0, 0.0])
        g = np.array([-1.0, 1.0, 1.0])
        p = Problem(A, c)
        q, par1, par2 = fresh_state(p, g)
        events = run_lambda_leg(A, c, g, q, par1, par2)
        assert [e.kind for e in events] == ["enter", "enter"]
        assert [e.index for e in events] == [1, 2]
        assert events[0].param == pytest.approx(0.25, abs=1e-10)
        assert events[1].param == pytest.approx(0.25, abs=1e-10)
        ref = oracle_solve(Problem(A + np.outer(g, g), c))
        np.testing.assert_allclose(q.x, ref.x, atol=1e-9)

    def test_events_strictly_ordered_and_single_toggle(self):
        rng = np.random.default_rng(31)
        found = 0
        for _ in range(200):
            n = int(rng.integers(3, 12))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            before = set(q.support.as_tuple())
            events = run_lambda_leg(p.A, p.c, g, q, par1, par2)
            found += len(events)
            params = [e.param for e in events]
            assert all(a <= b for a, b in zip(params, params[1:]))
            for e in events:
                after = set(e.support_after)
                assert len(before ^ after) == 1
                before = after
        assert found > 50, "test corpus should exercise plenty of events"

    def test_leg_end_matches_oracle_500_seeds(self):
        hits = 0
        for seed in range(500):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(2, 31))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            events = run_lambda_leg(p.A, p.c, g, q, par1, par2)
            hits += len(events)
            target = Problem(p.A + np.outer(g, g), p.c)
            ref = oracle_solve(target)
            assert np.max(np.abs(q.x - ref.x)) <= 1e-7
            assert kkt_residual(target, q) <= 1e-8
        assert hits > 200

    def test_piecewise_validity_after_events(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(3, 10))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam = 0.0
            while True:
                step = find_lambda(q.support, q, par1, par2)
                if not np.isfinite(step.lam_inc) or step.lam_inc >= 1.0 - lam:
                    update_by_lambda(1.0 - lam, q, par1, par2, scratch=step.scratch)
                    break
                update_by_lambda(step.lam_inc, q, par1, par2, scratch=step.scratch)
                lam += step.lam_inc
                j = step.j
                if q.support.contains(j):
                    support_new = shrink_support_lambda(q.support, j, p.c, par1, par2)
                else:
                    support_new = expand_support_lambda(lam, q.support, j, p.A, p.c, g, par1, par2)
                q.support = support_new
                q.v[j] = 0.0
                A_lam = p.A + lam * np.outer(g, g)
                re_solved = solve_given_support(Problem(A_lam, p.c), support_new)
                kappa = condition_proxy(A_lam, support_new, par1)
                assert np.max(np.abs(re_solved.v - q.v)) <= 1e-9 * max(1.0, kappa)
                assert re_solved.mu0 == pytest.approx(q.mu0, abs=1e-9 * max(1.0, kappa))
                checked += 1
                if checked > 2000:
                    break
        assert checked >= 50

    def test_interior_checkpoints_between_events(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            step = find_lambda(q.support, q, par1, par2)
            seg_end = min(step.lam_inc, 1.0)
            if seg_end <= 0:
                continue
            for frac in rng.uniform(0.05, 0.95, size=5):
                lam = float(frac * seg_end)
                qc, p1c, p2c = q.copy(), par1.copy(), par2.copy()
                update_by_lambda(lam, qc, p1c, p2c, step.scratch)
                A_lam = p.A + lam * np.outer(g, g)
                kappa = condition_proxy(A_lam, qc.support, p1c)
                assert kkt_residual(Problem(A_lam, p.c), qc) <= 1e-9 * max(1.0, kappa)

    def test_cycle_cap_raises(self):
        A = np.eye(3)
        c = np.array([1.5, 0.0, 0.0])
        g = np.array([-1.0, 1.0, 1.0])
        p = Problem(A, c)
        q, par1, par2 = fresh_state(p, g)
        with pytest.raises(CycleLimit):
            run_lambda_leg(A, c, g, q, par1, par2, cycle_cap=1)

    def test_rebuild_retry_recovers(self):
        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, par2 = fresh_state(p, g)
        par1.D = 1e-30  # first update sees a vanishing denominator, before any motion
        calls = []

        def rebuild(lam):
            calls.append(lam)
            A_lam = p.A + lam * np.outer(g, g)
            fresh1 = par1_from_matrix(A_lam, q.support)
            par1.refresh_from(fresh1)
            fresh2 = direct_update_par2(q.support, par1, p.c, g)
            par2.eta, par2.D_g, par2.D_gg, par2.D_gc = fresh2.eta, fresh2.D_g, fresh2.D_gg, fresh2.D_gc

        run_lambda_leg(p.A, p.c, g, q, par1, par2, rebuild=rebuild)
        assert calls, "rebuild hook must have been invoked"
        target = Problem(p.A + np.outer(g, g), p.c)
        assert kkt_residual(target, q) <= 1e-8

    def test_degenerate_propagates_without_rebuild(self):
        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, par2 = fresh_state(p, g)
        par1.D = 1e-30
        with pytest.raises(DegenerateDenominator):
            run_lambda_leg(p.A, p.c, g, q, par1, par2)
