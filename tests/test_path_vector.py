import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from hones import path_vector
from hones.kkt import Problem, Support, _tiny, kkt_residual, oracle_solve, solve_given_support
from hones.path_matrix import _first_zero, run_lambda_leg
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
from test_path_matrix import state_bytes


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
        lam_inc, j, _ = find_utilde_lambda(q.support, q, par1, par3)
        assert lam_inc == np.inf
        assert j is None

    def test_small_antisymmetric_drift_stays_interior(self):
        t = 0.3
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([t, -t])
        q, par1, par3 = fresh_state(p, l)
        lam_inc, j, (_, d) = find_utilde_lambda(q.support, q, par1, par3)
        # x(t~) = (1/2 + t t~, 1/2 - t t~): second coordinate dies at 1/(2t) > 1,
        # past the leg's end, so the sign certificate ends the leg.
        assert (lam_inc, j) == (np.inf, None)
        full_inc, full_j = _first_zero(q.support, q.v, d, -1.0, None, None)
        assert full_inc == pytest.approx(1.0 / (2 * t), abs=1e-12) and full_j == 1
        assert full_inc > 1.0

    def test_crossing_at_half(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        lam_inc, j, _ = find_utilde_lambda(q.support, q, par1, par3)
        assert lam_inc == pytest.approx(0.5, abs=1e-14)
        assert j == 1
        assert q.support.mask[j]  # a leave: the support becomes (0,)


class TestUpdateByUtilde:
    def test_zero_increment(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        v0, mu0 = q.v.copy(), q.mu0
        update_by_utilde_lambda(0.0, q, find_utilde_lambda(q.support, q, par1, par3)[2])
        np.testing.assert_array_equal(q.v, v0)
        assert q.mu0 == mu0

    def test_zero_drift_any_increment(self):
        p = Problem(np.eye(3), np.zeros(3))
        q, par1, par3 = fresh_state(p, np.zeros(3))
        v0 = q.v.copy()
        update_by_utilde_lambda(0.8, q, find_utilde_lambda(q.support, q, par1, par3)[2])
        np.testing.assert_array_equal(q.v, v0)

    def test_quarter_step_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        update_by_utilde_lambda(0.25, q, find_utilde_lambda(q.support, q, par1, par3)[2])
        np.testing.assert_allclose(q.x, [0.75, 0.25], atol=1e-14)
        ref = solve_given_support(Problem(np.eye(2), np.array([0.5, 0.0])), q.support)
        np.testing.assert_allclose(q.v, ref.v, atol=1e-12)
        assert q.mu0 == pytest.approx(ref.mu0, abs=1e-12)

    def test_caches_untouched(self):
        rng = np.random.default_rng(7)
        p = random_spd_problem(rng, 5)
        l = rng.standard_normal(5)
        q, par1, par3 = fresh_state(p, l)
        M0, xi0 = par1.M.copy(), par3.eta.copy()
        update_by_utilde_lambda(0.3, q, find_utilde_lambda(q.support, q, par1, par3)[2])
        np.testing.assert_array_equal(par1.M, M0)
        np.testing.assert_array_equal(par3.eta, xi0)


class TestExpandShrinkUtilde:
    def test_expand_zero_drift(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        par3 = direct_update_par3(support, par1, np.zeros(2))
        new = expand_support_utilde(support, 1, p.A, par1, par3)
        assert new.as_tuple() == (0, 1)
        np.testing.assert_allclose(par1.M, np.eye(2), atol=1e-14)
        assert np.all(par3.eta == 0.0)
        assert par3.D_g == 0.0

    def test_expand_unit_drift_worked_example(self):
        p = Problem(np.eye(2), np.zeros(2))
        support = Support(2, [0])
        par1 = init_par1(p, support)
        l = np.array([0.0, 1.0])
        par3 = direct_update_par3(support, par1, l)
        assert par3.eta[1] == pytest.approx(-1.0)
        new = expand_support_utilde(support, 1, p.A, par1, par3)
        assert par3.eta[1] == pytest.approx(-1.0, abs=1e-14)
        assert par3.D_g == pytest.approx(-1.0, abs=1e-14)
        fresh1 = par1_from_matrix(p.A[new.idx], new)
        fresh3 = direct_update_par3(new, fresh1, l)
        np.testing.assert_allclose(par3.eta, fresh3.eta, atol=1e-14)
        assert par3.D_g == pytest.approx(fresh3.D_g, abs=1e-14)

    def test_shrink_zero_drift_matches_matrix_leg(self):
        from hones.path_matrix import shrink_support_lambda

        rng = np.random.default_rng(3)
        p = random_spd_problem(rng, 6)
        support = Support(6, [0, 2, 3, 5])
        par1a = init_par1(p, support)
        par1b = init_par1(p, support)
        par2 = direct_update_par2(support, par1a, np.zeros(6))
        par3 = direct_update_par3(support, par1b, np.zeros(6))
        shrink_support_lambda(support, 3, par1a, par2)
        shrink_support_utilde(support, 3, par1b, par3)
        np.testing.assert_array_equal(par1a.M, par1b.M)
        np.testing.assert_array_equal(par1a.eta_tilde, par1b.eta_tilde)
        assert par1a.D == par1b.D
        assert np.all(par3.eta == 0.0) and par3.D_g == 0.0

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
            xi0, dl0 = par3.eta.copy(), par3.D_g
            j = int(rng.choice(support.complement()))
            mid = expand_support_utilde(support, j, p.A, par1, par3)
            shrink_support_utilde(mid, j, par1, par3)
            np.testing.assert_allclose(par1.M, M0, atol=1e-12)
            np.testing.assert_allclose(par1.eta_tilde, teta0, atol=1e-12)
            assert par1.D == pytest.approx(D0, abs=1e-12)
            np.testing.assert_allclose(par3.eta, xi0, atol=1e-12)
            assert par3.D_g == pytest.approx(dl0, abs=1e-12)

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
            support = expand_support_utilde(support, j_in, p.A, par1, par3)
            j_out = int(rng.choice(support.idx))
            if support.size > 1:
                support = shrink_support_utilde(support, j_out, par1, par3)
            kappa = condition_proxy(p.A, support, par1)
            assert validate_state(p, support, par1, par3, -l) <= 1e-10 * max(1.0, kappa)

    def test_wrong_index_refused_before_any_work(self):
        # An expand with a member and a shrink with a non-member raise
        # ValueError and leave the support, Par1 and the leg cache as they were.
        p = random_spd_problem(np.random.default_rng(17), 5)
        support = Support(5, [1, 3, 4])
        par1 = init_par1(p, support)
        par3 = direct_update_par3(support, par1, np.arange(5.0) - 2.0)
        before = state_bytes(support, par1, par3)
        with pytest.raises(ValueError, match="index 3 already in support"):
            expand_support_utilde(support, 3, p.A, par1, par3)
        assert state_bytes(support, par1, par3) == before
        with pytest.raises(ValueError, match="index 0 not in support"):
            shrink_support_utilde(support, 0, par1, par3)
        assert state_bytes(support, par1, par3) == before


class TestRunUtildeLeg:
    def test_zero_drift_no_events(self):
        rng = np.random.default_rng(2)
        p = random_spd_problem(rng, 5)
        q, par1, par3 = fresh_state(p, np.zeros(5))
        x0 = q.x.copy()
        events = run_utilde_leg(p.A, np.zeros(5), q, par1)
        assert events == []
        np.testing.assert_allclose(q.x, x0, atol=1e-14)

    def test_zero_drift_skips_the_leg(self, monkeypatch):
        # A drift of exact zeros, of either sign, returns at once: no cache,
        # no ratio test, no advance, and every bit of the state as it was.
        from hones import path_vector

        def refuse(*args, **kwargs):
            raise AssertionError("a zero drift derived a cache")

        rng = np.random.default_rng(4)
        p = random_spd_problem(rng, 6, c_scale=2.0)
        q = oracle_solve(p)
        par1 = init_par1(p, q.support)
        q.v[q.support.complement()[:1]] = -0.0  # an advance by zero velocity would flip it
        support, v0, mu0 = q.support, q.v.copy(), q.mu0
        M0, teta0, D0 = par1.M.copy(), par1.eta_tilde.copy(), par1.D
        monkeypatch.setattr(path_vector, "direct_update_par3", refuse)
        for l in (np.zeros(6), np.full(6, -0.0), np.array([0.0, -0.0] * 3)):
            assert run_utilde_leg(p.A, l, q, par1) == []
            assert q.support is support and q.v.tobytes() == v0.tobytes()
            assert np.float64(q.mu0).tobytes() == np.float64(mu0).tobytes()
            assert par1.M.tobytes() == M0.tobytes() and par1.eta_tilde.tobytes() == teta0.tobytes()
            assert np.float64(par1.D).tobytes() == np.float64(D0).tobytes()

        # One nonzero entry, however small, runs the leg.
        derived = []

        def counted(*args, **kwargs):
            derived.append(args)
            return direct_update_par3(*args, **kwargs)

        monkeypatch.setattr(path_vector, "direct_update_par3", counted)
        for k in range(6):
            l = np.zeros(6)
            l[k] = 1e-12
            run_utilde_leg(p.A, l, q, par1)
        assert len(derived) == 6

    def test_single_leave_closed_form(self):
        p = Problem(np.eye(2), np.zeros(2))
        l = np.array([2.0, 0.0])
        q, par1, par3 = fresh_state(p, l)
        events = run_utilde_leg(p.A, l, q, par1)
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
            lam_inc, _, direction = find_utilde_lambda(q.support, q, par1, par3)
            seg = min(lam_inc, 1.0)
            if seg <= 0:
                continue
            ts = np.array([0.2, 0.5, 0.8]) * seg
            vs = []
            for t in ts:
                qc = dataclasses.replace(q, v=q.v.copy())
                update_by_utilde_lambda(float(t), qc, direction)
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
            events = run_utilde_leg(p.A, l, q, par1)
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
            run_lambda_leg(p.A, g, q1, par1)
            A1 = p.A + np.outer(g, g)
            run_utilde_leg(A1, l, q1, par1)

            # vector leg first on the original matrix, then matrix leg
            q2 = oracle_solve(p)
            par1b = init_par1(p, q2.support)
            run_utilde_leg(p.A, l, q2, par1b)
            c1 = p.c + l
            run_lambda_leg(p.A, g, q2, par1b)

            assert np.max(np.abs(q1.x - q2.x)) <= 1e-7
            ref = oracle_solve(Problem(A1, c1))
            assert np.max(np.abs(q1.x - ref.x)) <= 1e-7


def certified_find(support, v, d, exclude=None):
    """find_utilde_lambda on stub caches whose velocity is `d`, bit for bit: q = 0, so it is eta - 0 * 0."""
    quadruple = SimpleNamespace(v=v)
    par1 = SimpleNamespace(D=1.0, eta_tilde=np.zeros(v.size))
    par3 = SimpleNamespace(D_g=0.0, eta=d)
    return find_utilde_lambda(support, quadruple, par1, par3, exclude=exclude)


class TestSignCertificate:
    """The vector leg ends at its first ratio test only where the full ratio test would end it too."""

    @staticmethod
    def check(support, v, d, exclude=None, lam=0.0):
        """Assert find_utilde_lambda's contract at (v, d); returns whether the certificate fired.

        When it fires, find returns (inf, None) and the full ratio test gives
        no index or an increment that _run_leg does not take (at least 1, so
        not below 1 - lam); when it does not, find returns the full test's
        result.
        """
        fired = path_vector._sign_certificate(v, d)
        inc, j = _first_zero(support, v, d, -1.0, exclude, None)
        got = certified_find(support, v, d, exclude)
        if fired:
            assert got[:2] == (np.inf, None)
            assert j is None or (inc >= 1.0 and not inc < 1.0 - lam)
        else:
            assert got[:2] == (inc, j)
        assert got[2][1].tobytes() == d.tobytes()
        return fired

    def test_exact_zero_at_the_excluded_index_mid_leg(self):
        # Right after a toggle _run_leg sets v[j] = 0 and passes j back as
        # exclude; an entry at zero fails the certificate, so the full test runs.
        support = Support(5, [0, 1, 3])
        v = np.array([0.4, 0.0, -0.3, 0.6, -0.1])
        d = np.array([0.01, -0.02, 0.01, -0.01, 0.03])
        assert not self.check(support, v, d, exclude=1, lam=0.37)
        v[1] = -0.0
        assert not self.check(support, v, d, exclude=1, lam=0.37)
        # The same state with the zero lifted is certified.
        v[1] = 0.2
        assert self.check(support, v, d, exclude=1, lam=0.37)

    def test_entries_at_and_just_above_the_zero_threshold(self):
        for vmax in (0.25, 1.0, 7.5):
            zeta = _tiny(vmax)
            for sign in (1.0, -1.0):
                # Entry 1 is x_1 on the support, or -mu_1 off it.
                support = Support(4, [0, 1, 2] if sign > 0 else [0, 2])
                v = np.array([vmax, sign * zeta, 0.5, -0.5])
                d = np.array([0.0, sign * zeta / 4, 0.1, -0.1])
                assert not self.check(support, v, d)
                v[1] = sign * np.nextafter(zeta, np.inf)
                assert self.check(support, v, d)
                # Just above the threshold, but the entry crosses zero before t = 1.
                d[1] = 2 * v[1]
                assert not self.check(support, v, d)
                inc, j = _first_zero(support, v, d, -1.0, None, None)
                assert (inc, j) == (0.5, 1)

    def test_singleton_support(self):
        support = Support(4, [2])
        v = np.array([-0.3, -0.1, 1.0, -0.7])
        # A drift that keeps x_2 = 1 and moves every multiplier away from zero.
        assert self.check(support, v, np.array([0.1, 0.05, 0.0, 0.2]))
        # The pinned index is skipped by the full test, but the certificate
        # sees its sign change and leaves the answer to the full test.
        assert not self.check(support, v, np.array([0.1, 0.05, 2.0, 0.2]))
        # A multiplier that reaches zero at t = 1/2.
        assert not self.check(support, v, np.array([0.1, -0.2, 0.0, 0.2]))

    def test_special_velocities(self):
        support = Support(6, [0, 2, 4])
        v = np.array([0.3, -0.2, 0.3, -0.1, 0.4, -0.5])
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, np.inf, -np.inf, np.nan]
        fired = 0
        for i in range(6):
            for value in specials:
                d = np.full(6, 1e-3) * np.sign(v)
                d[i] = value
                fired += self.check(support, v, d)
                fired += self.check(support, v, d, exclude=(i + 1) % 6, lam=0.5)
        # NaN and an infinity toward zero refuse; 0, subnormals and an
        # infinity away from zero are certified.
        d = np.full(6, 1e-3) * np.sign(v)
        d[0] = np.nan
        assert not path_vector._sign_certificate(v, d)
        d[0] = np.inf
        assert not path_vector._sign_certificate(v, d)
        d[0] = -np.inf
        assert path_vector._sign_certificate(v, d)
        assert fired > 50

    def test_seeded_adversarial_sweep(self):
        rng = np.random.default_rng(41)
        fired = 0
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(1, n + 1))
            support = Support(n, np.sort(rng.choice(n, size=k, replace=False)))
            mag = rng.choice([1e-3, 0.5, 1.0, 40.0])
            v = mag * rng.random(n)
            v[~support.mask] *= -1.0
            zeta = _tiny(float(np.max(np.abs(v))))
            for i in np.flatnonzero(rng.random(n) < 0.2):
                s = 1.0 if support.mask[i] else -1.0
                v[i] = s * rng.choice([0.0, zeta, np.nextafter(zeta, np.inf), 2 * zeta])
            ratio = rng.choice([-2.0, 0.0, 0.5, 1.0 - 2**-52, 1.0, 1.0 + 2**-52, 1.5, 1e300], size=n)
            d = v * ratio
            for i in np.flatnonzero(rng.random(n) < 0.1):
                d[i] = rng.choice([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])
            exclude = int(rng.integers(n)) if rng.random() < 0.3 else None
            fired += self.check(support, v, d, exclude=exclude, lam=float(rng.random()))
        assert 300 < fired < 3000

    @pytest.mark.parametrize(
        "kind, n, steps, c_factor, seed",
        [("synthetic", 40, 200, 0.6, 3), ("synthetic", 60, 200, 0.5, 7), ("ons", 30, 400, None, 3)],
    )
    def test_streams_end_in_the_same_bits_with_the_full_ratio_test(self, monkeypatch, kind, n, steps, c_factor, seed):
        from hones.driver import init_session, step
        from hones.flows import FlowConfig, flow_for_config

        def run():
            box = {}
            cfg = FlowConfig(kind, n, steps, seed=seed, **({"c_factor": c_factor} if c_factor else {}))
            flow = flow_for_config(cfg, x_feedback=lambda: box["ses"].x)
            ses = box["ses"] = init_session(flow.a0, flow.c0)
            trail = []
            for g, c in flow:
                rep = step(ses, g, c)
                events = [(e.leg, e.param.hex(), e.index, e.kind, e.support_size) for e in rep.events]
                trail.append((rep.mult_count, rep.rebuilds, rep.refreshes, rep.kkt_residual.hex(), events))
            par1, q = ses.par1, ses.quadruple
            state = [q.support.idx, q.v, np.float64(q.mu0), par1.M, par1.eta_tilde, np.float64(par1.D)]
            return trail, [np.asarray(a).tobytes() for a in state]

        real, calls = path_vector._sign_certificate, []

        def spy(v, d):
            calls.append(real(v, d))
            return calls[-1]

        monkeypatch.setattr(path_vector, "_sign_certificate", spy)
        certified = run()
        monkeypatch.setattr(path_vector, "_sign_certificate", lambda _v, _d: False)
        assert run() == certified
        assert sum(calls) > steps // 2
        if kind == "synthetic":  # unfused steps turn in the vector leg
            assert sum(e[0] == "vector" for t in certified[0] for e in t[-1]) > 20
