"""Adversarial parameter regimes for the path legs and the driver."""

import numpy as np
import pytest

from hones.driver import init_session, run_sequence, step
from hones.flows import FlowConfig, synthetic_flow
from hones.kkt import Problem, kkt_residual, oracle_solve
from hones.path_matrix import run_lambda_leg
from hones.path_vector import run_utilde_leg
from hones.state import init_par1

from test_kkt import random_spd_problem


def leg_state(problem):
    q = oracle_solve(problem)
    return q, init_par1(problem, q.support)


class TestMatrixLegExtremes:
    def test_direction_proportional_to_ones(self):
        # g parallel to the all-ones vector sits exactly on the Cauchy-Schwarz
        # boundary D_g^2 = D D_gg; the update denominator must stay positive
        # for every lam in [0, 1].
        rng = np.random.default_rng(1)
        for scale in (0.3, 3.0, 30.0):
            p = random_spd_problem(rng, 8, c_scale=1.0)
            g = scale * np.ones(8)
            q, par1 = leg_state(p)
            run_lambda_leg(p.A, g, q, par1)
            target = Problem(p.A + np.outer(g, g), p.c)
            assert np.max(np.abs(q.x - oracle_solve(target).x)) <= 1e-7

    def test_huge_and_tiny_directions(self):
        rng = np.random.default_rng(2)
        for scale in (1e-6, 1e-3, 1e3):
            p = random_spd_problem(rng, 10, c_scale=1.0)
            g = scale * rng.standard_normal(10)
            q, par1 = leg_state(p)
            run_lambda_leg(p.A, g, q, par1)
            target = Problem(p.A + np.outer(g, g), p.c)
            assert kkt_residual(target, q) <= 1e-8 * max(1.0, scale * scale)

    def test_ridge_dominated_matrix(self):
        # A = eps I + v v' has condition ~ |v|^2 / eps; the transient regime
        # of the sequential flows lives here.
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = 12
            eps = 1e-4
            v = rng.standard_normal(n)
            A = eps * np.eye(n) + np.outer(v, v)
            c = eps * rng.standard_normal(n)
            p = Problem(A, c)
            g = rng.standard_normal(n)
            q, par1 = leg_state(p)
            run_lambda_leg(p.A, g, q, par1)
            target = Problem(A + np.outer(g, g), c)
            ref = oracle_solve(target)
            assert np.max(np.abs(q.x - ref.x)) <= 1e-7


class TestVectorLegExtremes:
    def test_huge_drift(self):
        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 9, c_scale=1.0)
        l = 50.0 * rng.standard_normal(9)
        q, par1 = leg_state(p)
        run_utilde_leg(p.A, l, q, par1)
        target = Problem(p.A, p.c + l)
        assert np.max(np.abs(q.x - oracle_solve(target).x)) <= 1e-7

    def test_drift_toward_single_vertex(self):
        # a dominant positive drift on one coordinate must empty the rest
        p = Problem(np.eye(5), np.zeros(5))
        l = np.zeros(5)
        l[2] = 25.0
        q, par1 = leg_state(p)
        events = run_utilde_leg(p.A, l, q, par1)
        assert q.support.as_tuple() == (2,)
        assert all(e.kind == "leave" for e in events)
        np.testing.assert_allclose(q.x, [0, 0, 1, 0, 0], atol=1e-10)


class TestDriverExtremes:
    def test_two_dim_long_sequence(self):
        flow = synthetic_flow(FlowConfig("synthetic", 2, 300, c_factor=0.5, seed=5))
        ses = init_session(flow.a0, flow.c0)
        A = np.array(flow.a0)
        it = iter(flow)
        for _ in range(300):
            g_t, c_t = next(it)
            rep = step(ses, g_t, c_t)
            A += np.outer(g_t, g_t)
            assert rep.kkt_residual <= 1e-8
        ref = oracle_solve(Problem(A, c_t))
        assert np.max(np.abs(ses.x - ref.x)) <= 1e-7

    def test_large_c_factor_vertex_hopping(self):
        # big anchor point: solutions live on or near vertices and hop
        flow = synthetic_flow(FlowConfig("synthetic", 20, 150, c_factor=2.0, seed=6))
        ses = init_session(flow.a0, flow.c0)
        A = np.array(flow.a0)
        it = iter(flow)
        for _ in range(150):
            g_t, c_t = next(it)
            rep = step(ses, g_t, c_t)
            A += np.outer(g_t, g_t)
            assert rep.kkt_residual <= 1e-8
        ref = oracle_solve(Problem(A, c_t))
        assert np.max(np.abs(ses.x - ref.x)) <= 1e-7
        assert min(r.support_size for r in ses.reports) >= 1

    def test_repeated_identical_direction(self):
        n = 6
        flow_g = np.ones(n) + 0.1 * np.arange(n)
        ses = init_session(np.eye(n), np.zeros(n))
        A = np.eye(n)
        c = np.zeros(n)
        for t in range(40):
            A = A + np.outer(flow_g, flow_g)
            rep = step(ses, flow_g, c)
            assert rep.kkt_residual <= 1e-8
        ref = oracle_solve(Problem(A, c))
        assert np.max(np.abs(ses.x - ref.x)) <= 1e-7
