import numpy as np
import pytest

from hones.baselines import pg_residual, pg_warmstart_solve
from hones.kkt import Problem, kkt_residual, oracle_solve, project_simplex

from test_kkt import random_spd_problem


class TestPgWarmstart:
    def test_warm_start_at_optimum_is_immediate(self):
        rng = np.random.default_rng(1)
        p = random_spd_problem(rng, 8, c_scale=2.0)
        opt = oracle_solve(p).x
        res = pg_warmstart_solve(p, opt, tol=1e-8)
        assert res.converged
        assert res.iterations <= 1
        np.testing.assert_allclose(res.x, opt, atol=1e-8)

    def test_identity_hessian_single_projection(self):
        rng = np.random.default_rng(2)
        n = 6
        c = rng.standard_normal(n)
        p = Problem(np.eye(n), c)
        res = pg_warmstart_solve(p, np.full(n, 1.0 / n), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, project_simplex(c), atol=1e-9)

    def test_agrees_with_oracle_seeded(self):
        for seed in range(40):
            rng = np.random.default_rng(40_000 + seed)
            p = random_spd_problem(rng, 30, c_scale=2.0)
            x0 = rng.dirichlet(np.ones(30))
            res = pg_warmstart_solve(p, x0, tol=1e-9, max_iter=20_000)
            assert res.converged, f"seed {seed} did not converge"
            ref = oracle_solve(p)
            assert np.max(np.abs(res.x - ref.x)) <= 1e-6

    def test_iterates_feasible_and_envelope_monotone(self):
        rng = np.random.default_rng(7)
        p = random_spd_problem(rng, 12, c_scale=3.0)
        x = rng.dirichlet(np.ones(12))
        best = np.inf
        # re-run the iteration manually through shrinking tolerances to sample
        # the envelope at increasing depths
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            res = pg_warmstart_solve(p, x, tol=tol)
            assert abs(res.x.sum() - 1.0) <= 1e-12
            assert np.min(res.x) >= -1e-12
            assert res.residual <= best + 1e-15
            best = min(best, res.residual)
            x = res.x

    def test_unconverged_reports_not_raises(self):
        rng = np.random.default_rng(9)
        p = random_spd_problem(rng, 20, c_scale=5.0)
        res = pg_warmstart_solve(p, np.full(20, 0.05), tol=1e-12, max_iter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_max_iter_zero_checks_once_and_negative_is_rejected(self):
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
        res = pg_warmstart_solve(p, np.full(3, 1.0 / 3.0), tol=1e-12, max_iter=0)
        assert res.iterations == 0 and np.isfinite(res.residual)
        with pytest.raises(ValueError, match="max_iter must be nonnegative"):
            pg_warmstart_solve(p, np.full(3, 1.0 / 3.0), max_iter=-1)

    def test_rejects_non_finite_or_misshapen_warm_start(self):
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
        for x0 in (np.full(3, np.nan), [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5], np.full(4, 0.25)):
            with pytest.raises(ValueError, match="x0 must lie in the simplex"):
                pg_warmstart_solve(p, x0)

    def test_residual_matches_quadruple_form(self):
        rng = np.random.default_rng(11)
        p = random_spd_problem(rng, 9, c_scale=2.0)
        q = oracle_solve(p)
        grad = p.A @ q.x - p.c
        assert abs(pg_residual(q.x, grad) - kkt_residual(p, q)) <= 1e-9
