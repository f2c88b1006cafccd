from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hones import kkt
from hones.errors import NoConvergence, SingularSubmatrix
from hones.flows import FlowConfig, flow_for_config
from hones.kkt import (
    Diagonal,
    Problem,
    Quadruple,
    Support,
    diagonal_of,
    exact_solve,
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
        assert s.mask[3] and not s.mask[0]
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

    def test_diagonal_checked_without_factorization(self, monkeypatch):
        def no_cholesky(A):
            raise AssertionError("factorized a diagonal A")

        monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
        Problem(np.diag([1e-4, 2.0, 3.0]), np.zeros(3))
        for bad in ([1.0, 0.0, 2.0], [1.0, -1.0, 2.0]):
            with pytest.raises(ValueError, match="positive definite"):
                Problem(np.diag(bad), np.zeros(3))

    def test_rejects_non_finite_on_and_off_the_diagonal(self):
        # Off the diagonal a non-finite entry sends A down the dense route,
        # whose full check must still catch it.
        for bad in (np.inf, -np.inf, np.nan):
            for i, j in ((1, 1), (0, 2), (2, 0)):
                A = np.diag([1.0, 2.0, 3.0])
                A[i, j] = bad
                with pytest.raises(ValueError, match="A and c must be finite"):
                    Problem(A, np.zeros(3))

    def test_negative_zero_off_diagonal_takes_the_dense_route(self):
        A = np.diag([1.0, 2.0, 3.0])
        A[0, 2] = -0.0
        p = Problem(A, np.array([0.3, -0.1, 0.2]))
        assert not isinstance(p.A, Diagonal)
        q = oracle_solve(p)
        assert kkt_residual(p, q) <= 1e-12

    def test_diagonal_of_is_bit_exact(self):
        A = np.diag([1.0, 2.0, 3.0])
        d = diagonal_of(A)
        assert np.array_equal(d, [1.0, 2.0, 3.0]) and not np.shares_memory(d, A)
        # A -0.0 off the diagonal is not +0.0, so A is not taken as diagonal.
        A[0, 2] = -0.0
        assert diagonal_of(A) is None
        assert diagonal_of(np.array([[1.0, 1e-300], [1e-300, 1.0]])) is None


def dense_of(d):
    """The dense matrix with diagonal d, built as the flows built A0 before `Diagonal`."""
    a = np.zeros((d.size, d.size))
    np.fill_diagonal(a, d)
    return a


class TestDiagonal:
    def test_reads_equal_the_dense_matrix_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for n in (1, 2, 7, 40):
            d = rng.standard_normal(n)
            d[rng.random(n) < 0.2] = -0.0
            d[rng.random(n) < 0.1] = rng.choice([0.0, np.inf, -np.inf, np.nan])
            A, dense = Diagonal(d), dense_of(d)
            assert A.shape == dense.shape and A.ndim == 2
            for _ in range(20):
                j = int(rng.integers(n))
                rows = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                cols = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                for key in (
                    j, -1 - j, (j, cols), (j, j), (j, slice(None)), rows, (rows, slice(None)),
                    np.ix_(rows, cols), np.ix_(rows, rows), (rows, rows), slice(1, None),
                ):
                    got, want = A[key], dense[key]
                    assert np.shape(got) == np.shape(want)
                    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_dense_matrix_on_demand(self):
        for n in (1, 7, 100):
            for eps in (1e-4, 3e-4, 1.0):
                A = Diagonal(eps * np.ones(n))
                assert np.asarray(A).tobytes() == (eps * np.eye(n)).tobytes()
                dense = np.array(A, dtype=np.float64)
                dense[0, 0] = 2.0  # a fresh array each time
                assert A[0, 0] == eps
        with pytest.raises(ValueError, match="without a copy"):
            np.asarray(Diagonal(np.ones(3)), copy=False)

    def test_keeps_its_own_read_only_copy(self):
        d = np.array([1.0, 2.0, 3.0])
        A = Diagonal(d)
        d[0] = 5.0
        assert A[0, 0] == 1.0 and not A.d.flags.writeable
        with pytest.raises(ValueError):
            Diagonal(np.ones((2, 2)))
        with pytest.raises(ValueError):
            Diagonal(np.empty(0))

    def test_problem_checks_it_in_linear_time(self, monkeypatch):
        def no_dense(*_args, **_kwargs):
            raise AssertionError("built the dense matrix")

        monkeypatch.setattr(Diagonal, "__array__", no_dense)
        p = Problem(Diagonal([1e-4, 2.0, 3.0]), np.zeros(3))
        assert isinstance(p.A, Diagonal) and p.A.d.tobytes() == np.array([1e-4, 2.0, 3.0]).tobytes()
        for bad in ([1.0, np.inf, 2.0], [np.nan, 1.0, 2.0], [1.0, -np.inf, 2.0]):
            with pytest.raises(ValueError, match="A and c must be finite"):
                Problem(Diagonal(bad), np.zeros(3))
        for bad in ([1.0, 0.0, 2.0], [1.0, -0.0, 2.0], [1.0, -1.0, 2.0]):
            with pytest.raises(ValueError, match="positive definite"):
                Problem(Diagonal(bad), np.zeros(3))
        for c in (np.zeros(2), np.zeros((3, 1)), np.array([0.0, np.nan, 1.0]), np.array([np.inf, 0.0, 0.0])):
            with pytest.raises(ValueError, match="c must have length|A and c must be finite"):
                Problem(Diagonal(np.ones(3)), c)
        # The same errors as the dense route.
        for d, c in (([1.0, np.inf], np.zeros(2)), ([1.0, -1.0], np.zeros(2)), ([1.0, 2.0], np.zeros(3))):
            with pytest.raises(ValueError) as diag_err:
                Problem(Diagonal(d), c)
            with pytest.raises(ValueError) as dense_err:
                Problem(np.diag(d), c)
            assert str(diag_err.value) == str(dense_err.value)

    def test_oracle_matches_the_dense_matrix_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 80))
            d = np.exp(rng.uniform(-10.0, 4.0, n))
            c = d * rng.standard_normal(n)
            p, dense = Problem(Diagonal(d), c), Problem(np.diag(d), c)
            assert p.A.d.tobytes() == dense.A.d.tobytes()
            # Problem holds np.diag(d) as a Diagonal too; a bare namespace keeps the dense matrix.
            dense = SimpleNamespace(A=np.diag(d), c=c, n=n)
            assert_same_bits(oracle_solve(p), oracle_solve(dense))
            support = Support(n, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            assert_same_bits(solve_given_support(p, support), solve_given_support(dense, support))


class TestSolveGivenSupport:
    def test_identity_uniform(self):
        p = Problem(np.eye(2), np.zeros(2))
        q = solve_given_support(p, Support(2, range(2)))
        assert q.mu0 == pytest.approx(0.5, abs=1e-14)
        np.testing.assert_allclose(q.x_s, [0.5, 0.5], atol=1e-14)
        assert q.mu_sc.size == 0

    def test_diag_two_one(self):
        p = Problem(np.diag([2.0, 1.0]), np.zeros(2))
        q = solve_given_support(p, Support(2, range(2)))
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
            x, mu = q.x, np.where(q.support.mask, 0.0, -q.v)
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
            solve_given_support(p, Support(2, range(2)), cond_cap=1e12)

    def test_one_conditioning_rule(self):
        # kappa = 2e12, but the Cholesky-diagonal proxy reads about 5e11: the
        # solve and the Par1 factorization must both apply the exact estimate
        # to a block this small.
        from hones.state import par1_from_matrix

        p = Problem(np.array([[1.0, 1.0 - 1e-12], [1.0 - 1e-12, 1.0]]), np.zeros(2))
        with pytest.raises(SingularSubmatrix):
            solve_given_support(p, Support(2, range(2)), cond_cap=1e12)
        with pytest.raises(SingularSubmatrix):
            par1_from_matrix(p.A, Support(2, range(2)))


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
        assert (q.x_s > 0.0).all() and q.mu_sc.size == 0

    def test_vertex_solution(self):
        p = Problem(np.eye(3), np.array([10.0, 0.0, 0.0]))
        q = oracle_solve(p)
        np.testing.assert_allclose(q.x, [1.0, 0.0, 0.0], atol=1e-12)
        assert q.mu0 == pytest.approx(-9.0, abs=1e-12)
        assert q.support.as_tuple() == (0,)
        np.testing.assert_allclose(q.mu_sc, [9.0, 9.0], atol=1e-12)

    def test_matches_exact_500_seeds(self):
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = 2 + seed % 11  # sizes 2..12
            p = random_spd_problem(rng, n, c_scale=2.0)
            q = oracle_solve(p)
            ref = exact_solve(p, q.x)
            certify(p, ref)
            assert ref[0] == q.support.as_tuple()
            np.testing.assert_allclose(q.x, [float(v) for v in ref[1]], atol=1e-8)
            assert kkt_residual(p, q) <= 1e-9

    def test_a_failed_active_set_raises(self, monkeypatch):
        # No size has a second solver behind the active set: a failure, or a
        # result above the residual check, reaches the caller.
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
        with monkeypatch.context() as patch:
            patch.setattr(kkt, "kkt_residual", lambda problem, q: 5e-9)
            with pytest.raises(NoConvergence, match="residual check"):
                oracle_solve(p)

        def stuck(*args):
            raise NoConvergence("injected")

        monkeypatch.setattr(kkt, "_active_set_loop", stuck)
        with pytest.raises(NoConvergence, match="injected"):
            oracle_solve(p)

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

    def test_rejects_non_finite_or_misshapen_warm_start(self):
        p = Problem(np.diag([2.0, 1.0, 3.0]), np.zeros(3))
        for x0 in (np.full(3, np.nan), [np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0], [0.5, 0.5], np.full(4, 0.25)):
            with pytest.raises(ValueError, match="x0 must lie in the simplex"):
                oracle_solve(p, x0=x0)


def certify(problem, result):
    """Check an exact (support, x, mu, mu0) against the KKT conditions, in Fractions.

    Independent of `exact_solve`: stationarity of 0.5 x'Ax - c'x is read
    from A's symmetric part entry by entry, and every condition must hold
    exactly.
    """
    support, x, mu, mu0 = result
    A, c, n = np.asarray(problem.A).tolist(), problem.c.tolist(), problem.n
    assert all(isinstance(v, Fraction) for v in [*x, *mu, mu0])
    assert len(x) == len(mu) == n
    for i in range(n):
        grad = sum((Fraction(A[i][j]) + Fraction(A[j][i])) / 2 * x[j] for j in range(n))
        assert grad - mu0 - mu[i] - Fraction(c[i]) == 0
    assert sum(x) == 1
    assert min(x) >= 0 and min(mu) >= 0
    assert all(xi * mi == 0 for xi, mi in zip(x, mu))
    assert list(support) == sorted(set(support))
    assert {i for i in range(n) if x[i]} <= set(support)
    assert all(mu[i] == 0 for i in support)


class TestExact:
    def test_uniform_start_reaches_the_oracle_support(self):
        for seed in range(0, 500, 5):  # every size 2..12
            rng = np.random.default_rng(seed)
            n = 2 + seed % 11
            p = random_spd_problem(rng, n, c_scale=2.0)
            ref = exact_solve(p, np.full(n, 1.0 / n))
            certify(p, ref)
            assert ref[0] == oracle_solve(p).support.as_tuple()

    def test_vertex_optimum(self):
        p = Problem(np.eye(3), [10.0, 0.0, 0.0])
        ref = exact_solve(p, np.full(3, 1.0 / 3.0))
        certify(p, ref)
        assert ref == ((0,), [1, 0, 0], [0, 9, 9], -9)

    def test_degenerate_optimum_keeps_its_zero(self):
        # x = (1, 0) and mu = (0, 0): coordinate 1 is zero on both sides.
        p = Problem(np.eye(2), [1.0, 0.0])
        ref = exact_solve(p, [0.5, 0.5])
        certify(p, ref)
        assert ref == ((0, 1), [1, 0], [0, 0], 0)

    def test_diagonal(self):
        p = Problem(Diagonal([2.0, 1.0, 3.0]), np.zeros(3))
        ref = exact_solve(p, [1.0, 0.0, 0.0])
        certify(p, ref)
        assert ref[1] == [Fraction(3, 11), Fraction(6, 11), Fraction(2, 11)]

    def test_single_coordinate(self):
        p = Problem(np.array([[2.0]]), [5.0])
        ref = exact_solve(p, [1.0])
        certify(p, ref)
        assert ref == ((0,), [1], [0], -3)

    def test_reads_the_symmetric_part(self):
        p = Problem(np.array([[2.0, 1.0 + 2.0**-40], [1.0, 3.0]]), [0.5, 0.25])
        ref = exact_solve(p, [0.5, 0.5])
        certify(p, ref)

    def test_rejects_a_start_off_the_simplex(self):
        with pytest.raises(ValueError, match="x0 must lie in the simplex"):
            exact_solve(Problem(np.eye(2), np.zeros(2)), [0.7, 0.7])


def assert_same_bits(a, b):
    assert a.support == b.support
    assert a.v.tobytes() == b.v.tobytes()
    assert np.float64(a.mu0).tobytes() == np.float64(b.mu0).tobytes()


class TestDiagonalSeed:
    """Over a diagonal A the oracle seeds from c / diag instead of a dense solve."""

    @staticmethod
    def dense_twin(p):
        # A dense A, which no Problem holds once it is diagonal: oracle_solve
        # takes the dense np.linalg.solve seed.
        return SimpleNamespace(A=np.asarray(p.A), c=p.c, n=p.n)

    def test_flows_match_the_dense_seed_bit_for_bit(self):
        for kind in ("synthetic", "ons", "markowitz"):
            for seed in range(4):
                flow = flow_for_config(FlowConfig(kind, 30, 5, seed=seed), x_feedback=lambda: None)
                p = Problem(flow.a0, flow.c0)
                assert isinstance(p.A, Diagonal)
                assert_same_bits(oracle_solve(p), oracle_solve(self.dense_twin(p)))

    def test_random_diagonals_match_the_dense_seed_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            d = np.exp(rng.uniform(-10.0, 4.0, n))
            p = Problem(np.diag(d), d * rng.standard_normal(n))
            assert_same_bits(oracle_solve(p), oracle_solve(self.dense_twin(p)))

    def test_session_setup_factorizes_nothing_of_size_n(self, monkeypatch):
        from hones.driver import init_session

        n = 400
        flow = flow_for_config(FlowConfig("synthetic", n, 5, seed=3))

        def guarded(fn):
            def wrapper(a, *args, **kwargs):
                if np.shape(a)[0] == n:
                    raise AssertionError(f"{fn.__name__} on an operand with n = {n} rows")
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.linalg, "solve", guarded(np.linalg.solve))
        monkeypatch.setattr(np.linalg, "cholesky", guarded(np.linalg.cholesky))
        session = init_session(flow.a0, flow.c0)
        assert 0 < session.quadruple.support.size < n


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

