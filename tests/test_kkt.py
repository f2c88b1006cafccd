import numpy as np
import pytest

from hones.errors import SingularSubmatrix
from hones.kkt import (
    Problem,
    Quadruple,
    Support,
    enumerate_solve,
    kkt_residual,
    oracle_solve,
    project_simplex,
    solve_given_support,
)


def random_spd_problem(rng, n, spread=1.0, c_scale=1.0):
    B = rng.standard_normal((n, n))
    A = B @ B.T + (0.1 + spread * rng.random()) * np.eye(n)
    c = c_scale * rng.standard_normal(n)
    return Problem(A, c)


def bordered_solve(A, c, idx):
    """Independent dense solve of the fixed-support stationarity system."""
    idx = np.asarray(idx)
    s = idx.size
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = A[np.ix_(idx, idx)]
    K[:s, s] = -1.0
    K[s, :s] = 1.0
    rhs = np.concatenate([c[idx], [1.0]])
    sol = np.linalg.solve(K, rhs)
    x_s, mu0 = sol[:s], sol[s]
    comp = np.setdiff1d(np.arange(A.shape[0]), idx)
    mu_sc = A[np.ix_(comp, idx)] @ x_s - mu0 - c[comp]
    return x_s, mu_sc, mu0


class TestSupport:
    def test_basic(self):
        s = Support(5, [3, 1])
        assert list(s.idx) == [1, 3]
        assert s.contains(3) and not s.contains(0)
        assert list(s.complement()) == [0, 2, 4]
        assert s.with_added(0).as_tuple() == (0, 1, 3)
        assert s.with_removed(1).as_tuple() == (3,)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            Support(3, [])
        with pytest.raises(ValueError):
            Support(3, [3])


class TestProblem:
    def test_rejects_asymmetric(self):
        A = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            Problem(A, np.zeros(2))

    def test_rejects_semidefinite(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            Problem(A, np.zeros(2))


class TestSolveGivenSupport:
    def test_identity_uniform(self):
        p = Problem(np.eye(2), np.zeros(2))
        q = solve_given_support(p, Support.full(2))
        assert q.mu0 == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(q.x_s, [0.5, 0.5], atol=1e-14)
        assert q.mu_sc.size == 0

    def test_diag_two_one(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        q = solve_given_support(p, Support.full(2))
        assert q.mu0 == pytest.approx(2.0 / 3.0, abs=1e-14)
        np.testing.assert_allclose(q.x_s, [1.0 / 3.0, 2.0 / 3.0], atol=1e-14)

    def test_against_bordered_solve(self):
        rng = np.random.default_rng(7)
        p = random_spd_problem(rng, 3)
        support = Support(3, [0, 2])
        q = solve_given_support(p, support)
        x_s, mu_sc, mu0 = bordered_solve(p.A, p.c, [0, 2])
        np.testing.assert_allclose(q.x_s, x_s, atol=1e-12)
        np.testing.assert_allclose(q.mu_sc, mu_sc, atol=1e-12)
        assert q.mu0 == pytest.approx(mu0, abs=1e-12)

    def test_stationarity_residual_any_support(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            p = random_spd_problem(rng, n)
            k = int(rng.integers(1, n + 1))
            support = Support(n, rng.choice(n, size=k, replace=False))
            q = solve_given_support(p, support)
            # Stationarity and the sum constraint hold regardless of signs.
            x, mu = q.x, q.mu
            stat = p.A @ x - q.mu0 - mu - p.c
            scale = np.max(np.abs(p.A)) * max(1.0, np.max(np.abs(x)))
            assert np.max(np.abs(stat)) <= 1e-10 * scale
            assert abs(np.sum(q.x_s) - 1.0) <= 1e-10

    def test_singular_submatrix(self):
        # Nearly dependent support rows push the condition estimate over the cap.
        A = np.array([[1.0, 1.0 - 1e-15], [1.0 - 1e-15, 1.0]])
        p = Problem(np.eye(2), np.zeros(2))
        p.A = A  # bypass the SPD constructor check to exercise the guard
        with pytest.raises(SingularSubmatrix):
            solve_given_support(p, Support.full(2), cond_cap=1e12)

    def test_one_conditioning_rule(self):
        # kappa = 2e12, but the Cholesky-diagonal proxy reads about 5e11: the
        # solve and the Par1 factorization must both apply the exact estimate
        # to a block this small.
        from hones.state import par1_from_matrix

        p = Problem(np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]]), np.zeros(2))
        with pytest.raises(SingularSubmatrix):
            solve_given_support(p, Support.full(2), cond_cap=1e12)
        with pytest.raises(SingularSubmatrix):
            par1_from_matrix(p.A, Support.full(2), cond_cap=1e12)


class TestKktResidual:
    def test_zero_at_optimum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = random_spd_problem(rng, int(rng.integers(2, 8)))
            q = oracle_solve(p)
            assert kkt_residual(p, q) <= 1e-10

    def test_unit_violation_example(self):
        p = Problem(np.eye(2), np.zeros(2))
        q = Quadruple(Support(2, [0]), np.array([1.0, 0.0]), 1.0)
        assert kkt_residual(p, q) == pytest.approx(1.0, abs=1e-14)

    def test_linear_growth_in_perturbation(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        base = oracle_solve(p)

        def residual_at(delta):
            v = base.v + np.array([delta, -delta])
            return kkt_residual(p, Quadruple(base.support, v, base.mu0))

        r1 = residual_at(1e-4)
        r2 = residual_at(5e-5)
        assert r1 == pytest.approx(2 * r2, rel=1e-6)
        assert r1 == pytest.approx(2e-4, rel=1e-6)


class TestOracle:
    def test_identity_uniform(self):
        for n in (1, 2, 5, 17):
            p = Problem(np.eye(n), np.zeros(n))
            q = oracle_solve(p)
            np.testing.assert_allclose(q.x, np.full(n, 1.0 / n), atol=1e-12)

    def test_diag(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        q = oracle_solve(p)
        np.testing.assert_allclose(q.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        assert q.is_feasible()

    def test_vertex_solution(self):
        p = Problem(np.eye(3), np.array([10.0, 0.0, 0.0]))
        q = oracle_solve(p)
        np.testing.assert_allclose(q.x, [1.0, 0.0, 0.0], atol=1e-12)
        assert q.mu0 == pytest.approx(-9.0, abs=1e-12)
        np.testing.assert_allclose(q.mu, [0.0, 9.0, 9.0], atol=1e-12)

    def test_matches_enumeration_500_seeds(self):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 11  # sizes 2..12
            p = random_spd_problem(rng, n, c_scale=2.0)
            q = oracle_solve(p)
            ref = enumerate_solve(p)
            np.testing.assert_allclose(q.x, ref.x, atol=1e-8)
            assert kkt_residual(p, q) <= 1e-9

    def test_unique_from_different_starts(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            p = random_spd_problem(rng, n, c_scale=2.0)
            a = oracle_solve(p)
            x0 = rng.dirichlet(np.ones(n))
            b = oracle_solve(p, x0=x0)
            np.testing.assert_allclose(a.x, b.x, atol=1e-8)

    def test_boundary_warm_start(self):
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
        q = oracle_solve(p, x0=np.array([1.0, 0.0, 0.0]))
        assert kkt_residual(p, q) <= 1e-9


def brute_force_projection(y):
    """Try every support with the closed-form threshold; keep the feasible one."""
    n = len(y)
    best, best_dist = None, np.inf
    for bits in range(1, 1 << n):
        idx = [i for i in range(n) if bits >> i & 1]
        theta = (sum(y[i] for i in idx) - 1.0) / len(idx)
        x = np.zeros(n)
        x[idx] = y[idx] - theta
        if np.min(x[idx]) < -1e-12:
            continue
        dist = np.sum((x - y) ** 2)
        if dist < best_dist:
            best, best_dist = x, dist
    return best


class TestProjectSimplex:
    def test_feasible_unchanged(self):
        y = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(y), y, atol=1e-14)

    def test_zero_gives_uniform(self):
        np.testing.assert_allclose(project_simplex(np.zeros(4)), np.full(4, 0.25), atol=1e-14)

    def test_worked_example(self):
        x = project_simplex(np.array([1.0, 0.5, -0.5]))
        np.testing.assert_allclose(x, [0.75, 0.25, 0.0], atol=1e-14)

    def test_against_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            y = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
            x = project_simplex(y)
            ref = brute_force_projection(y)
            np.testing.assert_allclose(x, ref, atol=1e-10)
            assert abs(x.sum() - 1.0) <= 1e-12
            assert np.min(x) >= 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            y = rng.standard_normal(6) * 3
            x = project_simplex(y)
            np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_simplex(np.array([1.0, np.nan]))

