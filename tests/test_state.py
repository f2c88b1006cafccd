import numpy as np
import pytest

from hones.counters import MultCounter
from hones.errors import SingularSubmatrix
from hones.kkt import Problem, Quadruple, Support, solve_given_support
from hones.state import (
    condition_proxy,
    direct_update_par2,
    direct_update_par3,
    init_par1,
    par1_from_matrix,
    refresh_quadruple,
    validate_state,
)

from test_kkt import random_spd_problem


class TestInitPar1:
    def test_identity_full_support(self):
        n = 4
        p = Problem(np.eye(n), np.zeros(n))
        par1 = init_par1(p, Support(n, range(n)))
        np.testing.assert_allclose(par1.M, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(par1.eta_tilde, np.ones(n), atol=1e-14)
        assert par1.D == pytest.approx(n, abs=1e-12)

    def test_diag(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        par1 = init_par1(p, Support(2, range(2)))
        np.testing.assert_allclose(par1.M, np.diag([0.5, 1.0]), atol=1e-14)
        np.testing.assert_allclose(par1.eta_tilde, [0.5, 1.0], atol=1e-14)
        assert par1.D == pytest.approx(1.5, abs=1e-14)

    def test_identity_partial_support(self):
        p = Problem(np.eye(3), np.zeros(3))
        par1 = init_par1(p, Support(3, [0]))
        expected = np.zeros((3, 1))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(par1.M, expected, atol=1e-14)
        np.testing.assert_allclose(par1.eta_tilde, np.ones(3), atol=1e-14)
        assert par1.D == pytest.approx(1.0, abs=1e-14)

    def test_block_definitions(self):
        rng = np.random.default_rng(2)
        p = random_spd_problem(rng, 6)
        support = Support(6, [1, 3, 4])
        par1 = init_par1(p, support)
        idx, comp = support.idx, support.complement()
        inv = np.linalg.inv(p.A[np.ix_(idx, idx)])
        np.testing.assert_allclose(par1.M[idx, :], inv, atol=1e-12)
        np.testing.assert_allclose(par1.M[comp, :], -p.A[np.ix_(comp, idx)] @ inv, atol=1e-12)
        assert par1.M.shape == (6, 3)

    def test_singular_raises(self):
        A = np.eye(3)
        A[1, 1] = 0.0
        with pytest.raises(SingularSubmatrix):
            par1_from_matrix(A[[1]], Support(3, [1]))


class TestDirectUpdates:
    def test_par2_zero_direction(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        s = Support(2, range(2))
        par2 = direct_update_par2(s, init_par1(p, s), np.zeros(2))
        assert np.all(par2.eta == 0.0)
        assert par2.D_g == 0.0

    def test_par2_identity(self):
        rng = np.random.default_rng(1)
        n = 5
        p = Problem(np.eye(n), rng.standard_normal(n))
        s = Support(n, range(n))
        g = rng.standard_normal(n)
        par2 = direct_update_par2(s, init_par1(p, s), g)
        np.testing.assert_allclose(par2.eta, g, atol=1e-14)
        assert par2.D_g == pytest.approx(g.sum(), abs=1e-12)
        assert par2.eta @ g == pytest.approx(g @ g, abs=1e-12)  # D_gg as find_lambda reads it

    def test_par2_worked_example(self):
        p = Problem(np.diag([2.0, 1.0]), np.array([1.0, 0.0]))
        s = Support(2, range(2))
        par2 = direct_update_par2(s, init_par1(p, s), np.ones(2))
        np.testing.assert_allclose(par2.eta, [0.5, 1.0], atol=1e-14)
        assert par2.D_g == pytest.approx(1.5, abs=1e-14)
        assert par2.eta @ np.ones(2) == pytest.approx(1.5, abs=1e-14)  # D_gg as find_lambda reads it

    def test_par3_zero_drift(self):
        p = Problem(np.eye(3), np.zeros(3))
        s = Support(3, range(3))
        par3 = direct_update_par3(s, init_par1(p, s), np.zeros(3))
        assert np.all(par3.eta == 0.0)
        assert par3.D_g == 0.0

    def test_par3_identity(self):
        rng = np.random.default_rng(4)
        n = 4
        p = Problem(np.eye(n), np.zeros(n))
        s = Support(n, range(n))
        l = rng.standard_normal(n)
        par3 = direct_update_par3(s, init_par1(p, s), l)
        np.testing.assert_allclose(par3.eta, -l, atol=1e-14)
        assert par3.D_g == pytest.approx(-l.sum(), abs=1e-12)

    def test_par3_worked_example(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        s = Support(2, range(2))
        par3 = direct_update_par3(s, init_par1(p, s), np.array([2.0, 0.0]))
        np.testing.assert_allclose(par3.eta, [-1.0, 0.0], atol=1e-14)
        assert par3.D_g == pytest.approx(-1.0, abs=1e-14)

    def test_off_support_blocks(self):
        rng = np.random.default_rng(8)
        p = random_spd_problem(rng, 7)
        support = Support(7, [0, 2, 5])
        par1 = init_par1(p, support)
        g = rng.standard_normal(7)
        l = rng.standard_normal(7)
        par2 = direct_update_par2(support, par1, g)
        par3 = direct_update_par3(support, par1, l)
        idx, comp = support.idx, support.complement()
        inv = np.linalg.inv(p.A[np.ix_(idx, idx)])
        np.testing.assert_allclose(par2.eta[idx], inv @ g[idx], atol=1e-12)
        np.testing.assert_allclose(
            par2.eta[comp], g[comp] - p.A[np.ix_(comp, idx)] @ inv @ g[idx], atol=1e-12
        )
        np.testing.assert_allclose(par3.eta[idx], -inv @ l[idx], atol=1e-12)
        np.testing.assert_allclose(
            par3.eta[comp], -l[comp] + p.A[np.ix_(comp, idx)] @ inv @ l[idx], atol=1e-12
        )


class TestRefreshQuadruple:
    def test_one_refinement_is_exact_under_a_large_shift_of_c(self):
        # c + 1e6 * 1 moves only mu0 (c is rounded to a multiple of 2^-30, so
        # the shift is exact), and the solution of the unshifted problem is
        # the reference: x_S, and off the support v = -mu.  Recomputing
        # v = mu0 eta_tilde + M c afresh loses about 1e6 * eps * |M|
        # here; one refinement does not.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 12))
            p = random_spd_problem(rng, n)
            p = Problem(p.A, np.round(p.c * 2**30) / 2**30)
            support = Support(n, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            ref = solve_given_support(p, support)
            shifted = Problem(p.A, p.c + 1e6)
            par1 = init_par1(shifted, support)
            start = solve_given_support(shifted, support)
            q = Quadruple(support, start.v + 1e-6 * rng.standard_normal(n), start.mu0 + 1e-3 * rng.standard_normal())
            counter = MultCounter()
            refresh_quadruple(q, par1, shifted.A, shifted.c, counter)
            idx = support.idx
            assert np.max(np.abs(q.v[idx] - ref.v[idx])) <= 1e-12
            assert np.max(np.abs(q.v - ref.v)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref.v))))
            assert q.mu0 == pytest.approx(ref.mu0 - 1e6, abs=1e-9)
            assert counter.total == n * idx.size + n


class TestValidateState:
    def test_fresh_state_validates(self):
        rng = np.random.default_rng(21)
        p = random_spd_problem(rng, 8)
        support = Support(8, [0, 3, 4, 7])
        par1 = init_par1(p, support)
        g, l = rng.standard_normal(8), rng.standard_normal(8)
        par2 = direct_update_par2(support, par1, g)
        par3 = direct_update_par3(support, par1, l)
        # Either leg's cache is a Par2, checked against its vector u.
        assert validate_state(p, support, par1, par2, g) <= 1e-12
        assert validate_state(p, support, par1, par3, -l) <= 1e-12

    def test_corruption_detected(self):
        p = Problem(np.eye(3), np.zeros(3))
        support = Support(3, range(3))
        par1 = init_par1(p, support)
        par1.M[1, 1] += 1.0
        assert validate_state(p, support, par1) >= 0.5

    def test_condition_proxy_identity(self):
        p = Problem(np.eye(4), np.zeros(4))
        support = Support(4, range(4))
        par1 = init_par1(p, support)
        assert condition_proxy(p.A, support, par1) == pytest.approx(1.0)
