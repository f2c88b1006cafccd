import dataclasses

import numpy as np
import pytest

from hones import path_matrix
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
    par2 = direct_update_par2(q.support, par1, g)
    return q, par1, par2


def at_lam(A, g, support, lam):
    """A fresh Par1 and matrix-leg cache of A + lam g g' on `support`: what the lam-current scalars must equal."""
    A_lam = A + lam * np.outer(g, g)
    par1 = par1_from_matrix(A_lam[support.idx], support)
    return par1, direct_update_par2(support, par1, g)


def assert_frozen(A, support, par1, par2, g, tol):
    """Par1 and the cache equal a fresh factorization of the step's starting A on the current support."""
    kappa = condition_proxy(A, support, par1)
    assert validate_state(Problem(A, np.zeros(support.n)), support, par1, par2, g) <= tol * max(1.0, kappa)


def assert_lam_scalars(A, g, support, lam, direction, tol):
    """find_lambda's lam-current D, D_g and D_gg equal those of a fresh factorization of A + lam g g'."""
    fresh1, fresh2 = at_lam(A, g, support, lam)
    _, _, d, d_g, d_gg, _ = direction
    d_gg_fresh = float(fresh2.eta[support.idx] @ g[support.idx])
    for got, want in ((d, fresh1.D), (d_g, fresh2.D_g), (d_gg, d_gg_fresh)):
        assert abs(got - want) <= tol * max(1.0, abs(want))


def state_bytes(support, par1, cache):
    """The bytes of the support, Par1 and a leg cache, field by field."""
    fields = [support.idx, support.mask, par1.M, par1.eta_tilde, par1.D]
    fields += [getattr(cache, f.name) for f in dataclasses.fields(cache)]
    return [np.asarray(f).tobytes() for f in fields]


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
        g = np.zeros(3)
        q, par1, par2 = fresh_state(p, g)
        lam_inc, j, _ = find_lambda(q.support, q, par1, par2, g, 0.0)
        assert lam_inc == np.inf
        assert j is None

    def test_asymptotic_crossing_is_infinite(self):
        # x(lam) = (1/(2+lam), (1+lam)/(2+lam)): the first coordinate decays
        # but never reaches zero at finite lam.
        p = Problem(np.eye(2), np.zeros(2))
        g = np.array([1.0, 0.0])
        q, par1, par2 = fresh_state(p, g)
        lam_inc, _, _ = find_lambda(q.support, q, par1, par2, g, 0.0)
        assert lam_inc == np.inf

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
        lam_inc, j, _ = find_lambda(q.support, q, par1, par2, g, 0.0)
        assert j is not None
        assert lam_inc == pytest.approx(lam_ref, abs=1e-9)


    def test_w1_is_read_off_the_iterate(self):
        # find_lambda reads w1 = g_S'x_S off the iterate and hands on
        # sigma w1, sigma = 1 / (1 + lam D_gg-hat).  On the support
        # x_S = mu0 M_SS 1 + M_SS c_S with M the inverse block of
        # A + lam g g', so w1 equals D_g mu0 + g_S'M_SS c_S in that matrix's
        # terms, at a fresh state (sigma = 1 exactly) and mid-leg.
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p = random_spd_problem(rng, n)
            g = rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam = 0.0
            for _ in range(2):
                idx = q.support.idx
                lam_inc, _, direction = find_lambda(q.support, q, par1, par2, g, lam)
                w1 = float(g[idx] @ q.v[idx])
                sigma = 1.0 / (1.0 + lam * direction[5])
                assert direction[0] == sigma * w1
                if lam == 0.0:
                    assert direction[0] == w1
                fresh1, fresh2 = at_lam(p.A, g, q.support, lam)
                d_g_mu0 = fresh2.D_g * q.mu0
                g_m_c = float(g[idx] @ fresh1.M[idx] @ p.c[idx])
                assert abs(w1 - (d_g_mu0 + g_m_c)) <= 1e-12 * max(abs(d_g_mu0), abs(g_m_c))
                checked += 1
                inc = min(0.5, 0.5 * lam_inc)
                update_by_lambda(inc, q, par1, par2, direction, end=False)
                lam += inc
        assert checked == 80

    def test_d_gg_is_read_off_the_cache(self):
        # find_lambda reads D_gg-hat = g_S'eta_S off the leg cache, which
        # stays in the lam = 0 frame, and hands it on last in the direction;
        # on the support eta_S = M_SS g_S, so it equals g_S'M_SS g_S with M
        # the inverse block of the starting A.  The lam-current D, D_g and
        # D_gg it derives equal those of a fresh factorization of
        # A + lam g g', at a fresh state and mid-leg, and at lam = 0 they are
        # Par1's and the cache's own bits.
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(40):
            n = int(rng.integers(2, 10))
            p = random_spd_problem(rng, n)
            g = rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam = 0.0
            for _ in range(2):
                idx = q.support.idx
                lam_inc, _, direction = find_lambda(q.support, q, par1, par2, g, lam)
                d_gg = direction[5]
                assert d_gg == float(par2.eta[idx] @ g[idx])
                g_m_g = float(g[idx] @ par1.M[idx] @ g[idx])
                assert abs(d_gg - g_m_g) <= 1e-12 * g_m_g
                assert_lam_scalars(p.A, g, q.support, lam, direction, 1e-10)
                if lam == 0.0:
                    assert direction[2:5] == (par1.D, par2.D_g, d_gg)
                checked += 1
                inc = min(0.5, 0.5 * lam_inc)
                update_by_lambda(inc, q, par1, par2, direction, end=False)
                lam += inc
                assert_frozen(p.A, q.support, par1, par2, g, 1e-12)
        assert checked == 80


class TestUpdateByLambda:
    def test_zero_increment_is_identity(self):
        rng = np.random.default_rng(3)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, par2 = fresh_state(p, g)
        v0, mu0, M0 = q.v.copy(), q.mu0, par1.M.copy()
        update_by_lambda(0.0, q, par1, par2, find_lambda(q.support, q, par1, par2, g, 0.0)[2], end=False)
        np.testing.assert_array_equal(q.v, v0)
        assert q.mu0 == mu0
        np.testing.assert_array_equal(par1.M, M0)

    def test_zero_direction_is_identity(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        g = np.zeros(2)
        q, par1, par2 = fresh_state(p, g)
        v0, D0 = q.v.copy(), par1.D
        update_by_lambda(0.7, q, par1, par2, find_lambda(q.support, q, par1, par2, g, 0.0)[2], end=False)
        np.testing.assert_array_equal(q.v, v0)
        assert par1.D == D0

    def test_full_step_closed_form(self):
        # The leg's one advance from 0 to 1 is also its end: Par1 moves to A + g g'.
        p = Problem(np.eye(2), np.zeros(2))
        g = np.array([1.0, 0.0])
        q, par1, par2 = fresh_state(p, g)
        update_by_lambda(1.0, q, par1, par2, find_lambda(q.support, q, par1, par2, g, 0.0)[2], end=True)
        np.testing.assert_allclose(q.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert q.mu0 == pytest.approx(2.0 / 3.0, abs=1e-12)
        np.testing.assert_allclose(par1.M, np.diag([0.5, 1.0]), atol=1e-12)

    def test_state_consistent_at_intermediate_lambda(self):
        # An interior advance moves v and mu0 to the optimum of A + lam g g'
        # and leaves Par1 and the cache alone, in the frame of the starting
        # A; there find_lambda's lam-current scalars are those of
        # A + lam g g'.  The leg's end then takes Par1 to a fresh
        # factorization of A + g g'.
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(2, 9))
            p = random_spd_problem(rng, n)
            g = rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam = float(rng.uniform(0.05, 0.6))
            lam_inc, _, direction = find_lambda(q.support, q, par1, par2, g, 0.0)
            lam = min(lam, 0.9 * lam_inc)  # stay inside the first segment
            if lam <= 0 or not np.isfinite(lam):
                continue
            before = state_bytes(q.support, par1, par2)
            update_by_lambda(lam, q, par1, par2, direction, end=False)
            assert state_bytes(q.support, par1, par2) == before
            A_lam = p.A + lam * np.outer(g, g)
            kappa = condition_proxy(A_lam, q.support, at_lam(p.A, g, q.support, lam)[0])
            assert kkt_residual(Problem(A_lam, p.c), q) <= 1e-9 * max(1.0, kappa)
            lam_inc, _, direction = find_lambda(q.support, q, par1, par2, g, lam)
            assert_lam_scalars(p.A, g, q.support, lam, direction, 1e-10 * max(1.0, kappa))
            update_by_lambda(1.0 - lam, q, par1, par2, direction, end=True)
            A_end = p.A + np.outer(g, g)
            kappa = condition_proxy(A_end, q.support, par1)
            assert validate_state(Problem(A_end, p.c), q.support, par1) <= 1e-10 * max(1.0, kappa)
            checked += 1
        assert checked >= 10

    def test_degenerate_denominator_raises(self):
        p = Problem(np.eye(2), np.zeros(2))
        g = np.ones(2)
        q, par1, par2 = fresh_state(p, g)
        w1, dvec, d, d_g, _, d_gg0 = find_lambda(q.support, q, par1, par2, g, 0.0)[2]
        before = state_bytes(q.support, par1, par2) + [q.v.tobytes()]
        with pytest.raises(DegenerateDenominator):  # a D_gg of -2 makes 1 + lam D_gg cross zero
            update_by_lambda(1.0, q, par1, par2, (w1, dvec, d, d_g, -2.0, d_gg0), end=True)
        assert state_bytes(q.support, par1, par2) + [q.v.tobytes()] == before


class TestExpandShrink:
    def test_expand_identity_block(self):
        p = Problem(np.eye(3), np.zeros(3))
        support = Support(3, [0])
        par1 = init_par1(p, support)
        par2 = direct_update_par2(support, par1, np.zeros(3))
        new = expand_support_lambda(support, 1, p.A, par1, par2)
        assert new.as_tuple() == (0, 1)
        expected = np.zeros((3, 2))
        expected[0, 0] = expected[1, 1] = 1.0
        np.testing.assert_allclose(par1.M, expected, atol=1e-14)
        assert par1.D == pytest.approx(2.0, abs=1e-14)

    def test_expand_with_lambda_term(self):
        # An entry at lam = 1 pivots the starting A: the pivot is
        # A_jj + M_jS A_Sj = 1 + 0, with no lam term, and the cache follows.
        # The rank-one term enters once, at the leg's end, which takes Par1
        # to the factorization of A + g g' (M_jj = 1 / 2).
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        g = np.array([0.0, 1.0])
        par2 = direct_update_par2(support, par1, g)
        assert par2.eta[1] == pytest.approx(1.0)
        new = expand_support_lambda(support, 1, p.A, par1, par2)
        np.testing.assert_allclose(par1.M, np.eye(2), atol=1e-14)
        assert_frozen(p.A, new, par1, par2, g, 1e-14)
        q = solve_given_support(Problem(p.A + np.outer(g, g), p.c), new)
        direction = find_lambda(new, q, par1, par2, g, 1.0)[2]
        assert direction[5] == pytest.approx(1.0, abs=1e-14)  # D_gg-hat = g_S'A_SS^{-1} g_S
        update_by_lambda(0.0, q, par1, par2, direction, end=True)
        assert par1.M[1, 1] == pytest.approx(0.5, abs=1e-14)
        fresh = par1_from_matrix((p.A + np.outer(g, g))[new.idx], new)
        np.testing.assert_allclose(par1.M, fresh.M, atol=1e-14)
        np.testing.assert_allclose(par1.eta_tilde, fresh.eta_tilde, atol=1e-14)
        assert par1.D == pytest.approx(fresh.D, abs=1e-14)

    def test_shrink_identity_block(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, range(2))
        par1 = init_par1(p, support)
        par2 = direct_update_par2(support, par1, np.zeros(2))
        new = shrink_support_lambda(support, 1, par1, par2)
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
        par2 = direct_update_par2(support, par1, np.zeros(2))
        with pytest.raises(EmptySupport):
            shrink_support_lambda(support, 0, par1, par2)

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
            par2 = direct_update_par2(support, par1, g)
            M0, teta0, D0 = par1.M.copy(), par1.eta_tilde.copy(), par1.D
            eta0, dg0 = par2.eta.copy(), par2.D_g
            dgg0 = float(par2.eta[support.idx] @ g[support.idx])  # D_gg as find_lambda reads it
            j = int(rng.choice(support.complement()))
            mid = expand_support_lambda(support, j, p.A, par1, par2)
            shrink_support_lambda(mid, j, par1, par2)
            np.testing.assert_allclose(par1.M, M0, atol=1e-12)
            np.testing.assert_allclose(par1.eta_tilde, teta0, atol=1e-12)
            assert par1.D == pytest.approx(D0, abs=1e-12)
            np.testing.assert_allclose(par2.eta, eta0, atol=1e-12)
            assert par2.D_g == pytest.approx(dg0, abs=1e-12)
            assert float(par2.eta[support.idx] @ g[support.idx]) == pytest.approx(dgg0, abs=1e-12)

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
            par1 = par1_from_matrix(A_lam[support.idx], support)
            par2 = direct_update_par2(support, par1, g)
            # par2 must describe g against A_lam, which it does by construction.
            j = int(rng.choice(support.complement()))
            new = expand_support_lambda(support, j, A_lam, par1, par2)
            moved = Problem(A_lam, p.c)
            kappa = condition_proxy(A_lam, new, par1)
            assert validate_state(moved, new, par1, par2, g) <= 1e-10 * max(1.0, kappa)

    def test_seeded_shrink_validates(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = 10
            p = random_spd_problem(rng, n)
            k = int(rng.integers(2, n + 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            par1 = init_par1(p, support)
            g = rng.standard_normal(n)
            par2 = direct_update_par2(support, par1, g)
            j = int(rng.choice(support.idx))
            new = shrink_support_lambda(support, j, par1, par2)
            kappa = condition_proxy(p.A, new, par1)
            assert validate_state(p, new, par1, par2, g) <= 1e-10 * max(1.0, kappa)

    def test_wrong_index_refused_before_any_work(self):
        # An expand with a member and a shrink with a non-member raise
        # ValueError and leave the support, Par1 and Par2 as they were.
        p = random_spd_problem(np.random.default_rng(13), 5)
        support = Support(5, [0, 2, 3])
        par1 = init_par1(p, support)
        g = np.arange(5.0) - 1.5
        par2 = direct_update_par2(support, par1, g)
        before = state_bytes(support, par1, par2)
        with pytest.raises(ValueError, match="index 2 already in support"):
            expand_support_lambda(support, 2, p.A, par1, par2)
        assert state_bytes(support, par1, par2) == before
        with pytest.raises(ValueError, match="index 1 not in support"):
            shrink_support_lambda(support, 1, par1, par2)
        assert state_bytes(support, par1, par2) == before


class TestRunLambdaLeg:
    def test_zero_direction_no_events(self):
        rng = np.random.default_rng(2)
        p = random_spd_problem(rng, 6)
        q, par1, _ = fresh_state(p, np.zeros(6))
        x0 = q.x.copy()
        events = run_lambda_leg(p.A, np.zeros(6), q, par1)
        assert events == []
        np.testing.assert_allclose(q.x, x0, atol=1e-14)

    def test_two_dim_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        g = np.array([1.0, 0.0])
        q, par1, _ = fresh_state(p, g)
        events = run_lambda_leg(p.A, g, q, par1)
        assert events == []
        np.testing.assert_allclose(q.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_simultaneous_entries_processed_smallest_first(self):
        A = np.eye(3)
        c = np.array([1.5, 0.0, 0.0])
        g = np.array([-1.0, 1.0, 1.0])
        p = Problem(A, c)
        q, par1, _ = fresh_state(p, g)
        events = run_lambda_leg(A, g, q, par1)
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
            q, par1, _ = fresh_state(p, g)
            support = set(q.support.as_tuple())
            events = run_lambda_leg(p.A, g, q, par1)
            found += len(events)
            params = [e.param for e in events]
            assert all(a <= b for a, b in zip(params, params[1:]))
            # Replaying the toggles one at a time must walk the support.
            for e in events:
                if e.kind == "enter":
                    assert e.index not in support
                    support.add(e.index)
                else:
                    assert e.kind == "leave" and e.index in support
                    support.remove(e.index)
                assert len(support) == e.support_size
            assert support == set(q.support.as_tuple())
        assert found > 50, "test corpus should exercise plenty of events"

    def test_leg_end_matches_oracle_500_seeds(self):
        hits = 0
        for seed in range(500):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(2, 31))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, _ = fresh_state(p, g)
            events = run_lambda_leg(p.A, g, q, par1)
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
                lam_inc, j, direction = find_lambda(q.support, q, par1, par2, g, lam)
                if not np.isfinite(lam_inc) or lam_inc >= 1.0 - lam:
                    update_by_lambda(1.0 - lam, q, par1, par2, direction, end=True)
                    break
                update_by_lambda(lam_inc, q, par1, par2, direction, end=False)
                lam += lam_inc
                if q.support.mask[j]:
                    support_new = shrink_support_lambda(q.support, j, par1, par2)
                else:
                    support_new = expand_support_lambda(q.support, j, p.A, par1, par2)
                q.support = support_new
                q.v[j] = 0.0
                # The toggle pivots the starting A's factorization; the
                # iterate is the optimum of A + lam g g' on the new support.
                assert_frozen(p.A, support_new, par1, par2, g, 1e-10)
                A_lam = p.A + lam * np.outer(g, g)
                re_solved = solve_given_support(Problem(A_lam, p.c), support_new)
                kappa = condition_proxy(A_lam, support_new, at_lam(p.A, g, support_new, lam)[0])
                assert np.max(np.abs(re_solved.v - q.v)) <= 1e-9 * max(1.0, kappa)
                assert re_solved.mu0 == pytest.approx(q.mu0, abs=1e-9 * max(1.0, kappa))
                checked += 1
                if checked > 2000:
                    break
            A_end = p.A + np.outer(g, g)
            kappa = condition_proxy(A_end, q.support, par1)
            assert validate_state(Problem(A_end, p.c), q.support, par1) <= 1e-10 * max(1.0, kappa)
        assert checked >= 50

    def test_interior_checkpoints_between_events(self):
        # At any interior lam of the first segment the iterate is the
        # optimum of A + lam g g', Par1 and the cache are still the starting
        # A's fresh factorization, bit for bit, and find_lambda's lam-current
        # scalars are those of a fresh factorization of A + lam g g'.
        rng = np.random.default_rng(55)
        checked = 0
        for _ in range(30):
            n = int(rng.integers(3, 9))
            p = random_spd_problem(rng, n, c_scale=2.0)
            g = 2.0 * rng.standard_normal(n)
            q, par1, par2 = fresh_state(p, g)
            lam_inc, _, direction = find_lambda(q.support, q, par1, par2, g, 0.0)
            seg_end = min(lam_inc, 1.0)
            if seg_end <= 0:
                continue
            for frac in rng.uniform(0.05, 0.95, size=5):
                lam = float(frac * seg_end)
                qc, p1c, p2c = fresh_state(p, g)  # the same state afresh, as a copy
                update_by_lambda(lam, qc, p1c, p2c, direction, end=False)
                assert state_bytes(qc.support, p1c, p2c) == state_bytes(q.support, par1, par2)
                A_lam = p.A + lam * np.outer(g, g)
                kappa = condition_proxy(A_lam, qc.support, at_lam(p.A, g, qc.support, lam)[0])
                assert kkt_residual(Problem(A_lam, p.c), qc) <= 1e-9 * max(1.0, kappa)
                lam_direction = find_lambda(qc.support, qc, p1c, p2c, g, lam)[2]
                assert_lam_scalars(p.A, g, qc.support, lam, lam_direction, 1e-10 * max(1.0, kappa))
                checked += 1
        assert checked >= 50

    def test_cycle_cap_raises(self, monkeypatch):
        monkeypatch.setattr(path_matrix, "CYCLE_CAP_PER_INDEX", 0)
        A = np.eye(3)
        c = np.array([1.5, 0.0, 0.0])
        g = np.array([-1.0, 1.0, 1.0])
        p = Problem(A, c)
        q, par1, _ = fresh_state(p, g)
        with pytest.raises(CycleLimit):
            run_lambda_leg(A, g, q, par1)

    def test_rebuild_retry_recovers(self):
        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, _ = fresh_state(p, g)
        par1.D = 1e-30  # first update sees a vanishing denominator, before any motion
        calls = []

        def rebuild():
            # Par1 only, from the starting A, the frame the leg runs in; the
            # leg re-derives its own Par2 after the hook.
            calls.append(q.support)
            par1.refresh_from(par1_from_matrix(p.A[q.support.idx], q.support))

        run_lambda_leg(p.A, g, q, par1, rebuild=rebuild)
        assert calls, "rebuild hook must have been invoked"
        target = Problem(p.A + np.outer(g, g), p.c)
        assert kkt_residual(target, q) <= 1e-8

    def test_degenerate_propagates_without_rebuild(self):
        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 5)
        g = rng.standard_normal(5)
        q, par1, _ = fresh_state(p, g)
        par1.D = 1e-30
        with pytest.raises(DegenerateDenominator):
            run_lambda_leg(p.A, g, q, par1)
