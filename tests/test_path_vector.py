import numpy as np
import pytest

from hones.kkt import Problem, Support, kkt_residual, oracle_solve, solve_given_support
from hones.path_matrix import run_lambda_leg
from hones.path_vector import (
    expand_support_utilde,
    find_utilde_lambda,
    run_utilde_leg,
    shrink_support_utilde,
    update_by_utilde_lambda,
)
from hones.state import (
    condition_proxy,
    direct_update_par2,
    direct_update_par3,
    init_par1,
    par1_from_matrix,
    validate_state,
)

from test_kkt import random_spd_problem


def fresh_state(problem, l):
    q = oracle_solve(problem)
    par1 = init_par1(problem, q.support)
    par3 = direct_update_par3(q.support, par1, l)
    return q, par1, par3


class TestFindUtilde:
    def test_zero_drift(self):
        rng = np.random.default_rng(1)
        p = random_spd_problem(rng, 4)
        q, par1, par3 = fresh_state(p, np.zeros(4))
        step = find_utilde_lambda(q.support, q, par1, par3)
        assert step.lam_inc == np.inf
        assert step.j is None

    def test_small_antisymmetric_drift_stays_interior(self):
        t = 0.3
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([t, -t])
        q, par1, par3 = fresh_state(p, l)
        step = find_utilde_lambda(q.support, q, par1, par3)
        # x(t~) = (1/2 + t t~, 1/2 - t t~): second coordinate dies at 1/(2t) > 1
        assert step.lam_inc == pytest.approx(1.0 / (2 * t), abs=1e-12)
        assert step.lam_inc > 1.0

    def test_crossing_at_half(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        step = find_utilde_lambda(q.support, q, par1, par3)
        assert step.lam_inc == pytest.approx(0.5, abs=1e-14)
        assert step.j == 1
        assert q.support.contains(step.j)  # a leave: the support becomes (0,)


class TestUpdateByUtilde:
    def test_zero_increment(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        v0, mu0 = q.v.copy(), q.mu0
        update_by_utilde_lambda(0.0, q, par1, par3, find_utilde_lambda(q.support, q, par1, par3).scratch)
        np.testing.assert_array_equal(q.v, v0)
        assert q.mu0 == mu0

    def test_zero_drift_any_increment(self):
        p = Problem(np.eye(3), np.zeros(3))
        q, par1, par3 = fresh_state(p, np.zeros(3))
        v0 = q.v.copy()
        update_by_utilde_lambda(0.8, q, par1, par3, find_utilde_lambda(q.support, q, par1, par3).scratch)
        np.testing.assert_array_equal(q.v, v0)

    def test_quarter_step_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        update_by_utilde_lambda(0.25, q, par1, par3, find_utilde_lambda(q.support, q, par1, par3).scratch)
        np.testing.assert_allclose(q.x, [0.75, 0.25], atol=1e-14)
        ref = solve_given_support(Problem(np.eye(2), np.array([0.5, 0.0])), q.support)
        np.testing.assert_allclose(q.v, ref.v, atol=1e-12)
        assert q.mu0 == pytest.approx(ref.mu0, abs=1e-12)

    def test_caches_untouched(self):
        rng = np.random.default_rng(7)
        p = random_spd_problem(rng, 5)
        l = rng.standard_normal(5)
        q, par1, par3 = fresh_state(p, l)
        M0, xi0 = par1.M.copy(), par3.xi.copy()
        update_by_utilde_lambda(0.3, q, par1, par3, find_utilde_lambda(q.support, q, par1, par3).scratch)
        np.testing.assert_array_equal(par1.M, M0)
        np.testing.assert_array_equal(par3.xi, xi0)


class TestExpandShrinkUtilde:
    def test_expand_zero_drift(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        par3 = direct_update_par3(support, par1, np.zeros(2))
        new = expand_support_utilde(support, 1, p.A, np.zeros(2), par1, par3)
        assert new.as_tuple() == (0, 1)
        np.testing.assert_allclose(par1.M, np.eye(2), atol=1e-14)
        assert np.all(par3.xi == 0.0)
        assert par3.D_l == 0.0

    def test_expand_unit_drift_worked_example(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        l = np.array([0.0, 1.0])
        par3 = direct_update_par3(support, par1, l)
        assert par3.xi[1] == pytest.approx(-1.0)
        new = expand_support_utilde(support, 1, p.A, l, par1, par3)
        assert par3.xi[1] == pytest.approx(-1.0, abs=1e-14)
        assert par3.D_l == pytest.approx(-1.0, abs=1e-14)
        fresh1 = par1_from_matrix(p.A, new)
        fresh3 = direct_update_par3(new, fresh1, l)
        np.testing.assert_allclose(par3.xi, fresh3.xi, atol=1e-14)
        assert par3.D_l == pytest.approx(fresh3.D_l, abs=1e-14)

    def test_shrink_zero_drift_matches_matrix_leg(self):
        from hones.path_matrix import shrink_support_lambda

        rng = np.random.default_rng(3)
        p = random_spd_problem(rng, 6)
        support = Support(6, [0, 2, 3, 5])
        par1a = init_par1(p, support)
        par1b = init_par1(p, support)
        par2 = direct_update_par2(support, par1a, p.c, np.zeros(6))
        par3 = direct_update_par3(support, par1b, np.zeros(6))
        shrink_support_lambda(support, 3, p.c, par1a, par2)
        shrink_support_utilde(support, 3, np.zeros(6), par1b, par3)
        np.testing.assert_array_equal(par1a.M, par1b.M)
        np.testing.assert_array_equal(par1a.eta_tilde, par1b.eta_tilde)
        assert par1a.D == par1b.D
        assert np.all(par3.xi == 0.0) and par3.D_l == 0.0

    def test_expand_then_shrink_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            p = random_spd_problem(rng, n)
            k = int(rng.integers(1, n - 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            par1 = init_par1(p, support)
            l = rng.standard_normal(n)
            par3 = direct_update_par3(support, par1, l)
            M0, teta0, D0 = par1.M.copy(), par1.eta_tilde.copy(), par1.D
            xi0, dl0 = par3.xi.copy(), par3.D_l
            j = int(rng.choice(support.complement()))
            mid = expand_support_utilde(support, j, p.A, l, par1, par3)
            shrink_support_utilde(mid, j, l, par1, par3)
            np.testing.assert_allclose(par1.M, M0, atol=1e-12)
            np.testing.assert_allclose(par1.eta_tilde, teta0, atol=1e-12)
            assert par1.D == pytest.approx(D0, abs=1e-12)
            np.testing.assert_allclose(par3.xi, xi0, atol=1e-12)
            assert par3.D_l == pytest.approx(dl0, abs=1e-12)

    def test_seeded_updates_validate(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = 10
            p = random_spd_problem(rng, n)
            k = int(rng.integers(2, n - 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            par1 = init_par1(p, support)
            l = rng.standard_normal(n)
            par3 = direct_update_par3(support, par1, l)
            j_in = int(rng.choice(support.complement()))
            support = expand_support_utilde(support, j_in, p.A, l, par1, par3)
            j_out = int(rng.choice(support.idx))
            if support.size > 1:
                support = shrink_support_utilde(support, j_out, l, par1, par3)
            kappa = condition_proxy(p.A, support, par1)
            assert validate_state(p, support, par1, par3=par3) <= 1e-10 * max(1.0, kappa)


class TestRunUtildeLeg:
    def test_zero_drift_no_events(self):
        rng = np.random.default_rng(2)
        p = random_spd_problem(rng, 5)
        q, par1, par3 = fresh_state(p, np.zeros(5))
        x0 = q.x.copy()
        events = run_utilde_leg(p.A, np.zeros(5), q, par1, par3)
        assert events == []
        np.testing.assert_allclose(q.x, x0, atol=1e-14)

    def test_single_leave_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        events = run_utilde_leg(p.A, l, q, par1, par3)
        assert len(events) == 1
        assert events[0].kind == "leave" and events[0].index == 1
        assert events[0].param == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(q.x, [1.0, 0.0], atol=1e-12)

    def test_affine_between_events(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            p = random_spd_problem(rng, n, c_scale=2.0)
            l = 2.0 * rng.standard_normal(n)
            q, par1, par3 = fresh_state(p, l)
            step = find_utilde_lambda(q.support, q, par1, par3)
            seg = min(step.lam_inc, 1.0)
            if seg <= 0:
                continue
            ts = np.array([0.2, 0.5, 0.8]) * seg
            vs = []
            for t in ts:
                qc = q.copy()
                update_by_utilde_lambda(float(t), qc, par1, par3, step.scratch)
                vs.append(qc.v)
            second_diff = vs[0] - 2.0 * vs[1] + vs[2]
            assert np.max(np.abs(second_diff)) <= 1e-12

    def test_leg_end_matches_oracle_500_seeds(self):
        hits = 0
        for seed in range(500):
            rng = np.random.default_rng(20_000 + seed)
            n = int(rng.integers(2, 31))
            p = random_spd_problem(rng, n, c_scale=2.0)
            l = 3.0 * rng.standard_normal(n)
            q, par1, par3 = fresh_state(p, l)
            events = run_utilde_leg(p.A, l, q, par1, par3)
            hits += len(events)
            target = Problem(p.A, p.c + l)
            ref = oracle_solve(target)
            assert np.max(np.abs(q.x - ref.x)) <= 1e-7
            assert kkt_residual(target, q) <= 1e-8
        assert hits > 200

    def test_manhattan_corner_order_independent(self):
        for seed in range(50):
            rng = np.random.default_rng(30_000 + seed)
            n = int(rng.integers(2, 12))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            l = 2.0 * rng.standard_normal(n)

            # matrix leg first, then vector leg on the updated matrix
            q1 = oracle_solve(p)
            par1 = init_par1(p, q1.support)
            par2 = direct_update_par2(q1.support, par1, p.c, g)
            run_lambda_leg(p.A, p.c, g, q1, par1, par2)
            A1 = p.A + np.outer(g, g)
            par3 = direct_update_par3(q1.support, par1, l)
            run_utilde_leg(A1, l, q1, par1, par3)

            # vector leg first on the original matrix, then matrix leg
            q2 = oracle_solve(p)
            par1b = init_par1(p, q2.support)
            par3b = direct_update_par3(q2.support, par1b, l)
            run_utilde_leg(p.A, l, q2, par1b, par3b)
            c1 = p.c + l
            par2b = direct_update_par2(q2.support, par1b, c1, g)
            run_lambda_leg(p.A, c1, g, q2, par1b, par2b)

            assert np.max(np.abs(q1.x - q2.x)) <= 1e-7
            ref = oracle_solve(Problem(A1, c1))
            assert np.max(np.abs(q1.x - ref.x)) <= 1e-7
