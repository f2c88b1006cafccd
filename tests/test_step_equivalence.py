"""The per-step helpers compute every float from the same operands in the same order as before.

Each helper on the step path was rewritten to make fewer interpreter calls.
The `ref_*` functions below are the earlier implementations, kept here only
as references: every case asserts identical outputs, arrays equal byte for
byte (layout included, since later BLAS products depend on it) and scalars
equal bit for bit, indices equal.  One reference is not bit for bit: the
matrix leg that moved Par1 and its cache to A + lam g g' at every advance
(`ref_run_lambda_leg`).  The leg that keeps the lam = 0 frame rounds
differently, so it is held to the same turning points and to x within 1e-9
on seeded streams of every flow.
"""

import warnings

import numpy as np
import pytest

from hones import counters as cnt
from hones import driver, path_matrix
from hones.errors import CycleLimit, DegenerateDenominator, DegenerateError, DegeneratePivot
from hones.flows import FlowConfig, flow_for_config
from hones.kkt import ZETA_SCALE, Diagonal, Problem, Quadruple, Support, kkt_residual
from hones.path_matrix import (
    DBL_MAX,
    PathEvent,
    _first_zero,
    _pivot,
    _tiny,
    find_lambda,
    shrink_support_lambda,
)
from hones.path_vector import find_utilde_lambda
from hones.state import Par1, direct_update_par2, direct_update_par3, outer, par1_from_matrix

from test_kkt import random_spd_problem

# -- the earlier implementations -------------------------------------------


def ref_zero_tol(v):
    vmax = float(np.max(np.abs(v))) if np.size(v) else 0.0
    return ZETA_SCALE * max(1.0, vmax)


def ref_first_zero(support, v, dvec, w1, exclude, counter):
    zeta = ref_zero_tol(v)
    eligible = np.ones(support.n, dtype=bool)
    if exclude is not None:
        eligible[exclude] = False
    if support.size == 1:
        eligible[support.idx[0]] = False
    live = eligible & (np.abs(v) > zeta)
    near = np.flatnonzero(eligible & (np.abs(v) <= zeta))
    if near.size:
        u_near = w1 * dvec[near]
        if counter is not None:
            counter.total += near.size
        zeta_u = ZETA_SCALE * max(1.0, float(np.max(np.abs(u_near))))
        inward = np.where(support.mask[near], u_near < -zeta_u, u_near > zeta_u)
        hits = near[inward]
        if hits.size:
            return 0.0, int(hits[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = -v / dvec
    if w1 > 0.0:
        cand = live & np.isfinite(ratios) & (ratios > 0.0)
        if not cand.any():
            return np.inf, None
        masked = np.where(cand, ratios, np.inf)
        j = int(np.argmin(masked))
    elif w1 < 0.0:
        cand = live & np.isfinite(ratios) & (ratios < 0.0)
        if not cand.any():
            return np.inf, None
        masked = np.where(cand, ratios, -np.inf)
        j = int(np.argmax(masked))
    else:
        return np.inf, None
    return float(masked[j]) / w1, j


def ref_first_zero_masked(support, v, dvec, w1, exclude, counter):
    """The ratio test with a live mask, -v / dvec and an isfinite pass."""
    av = np.abs(v)
    vmax = float(np.maximum.reduce(av))
    zeta = _tiny(vmax)
    live = av > zeta
    near = av <= zeta
    if exclude is not None:
        live[exclude] = near[exclude] = False
    if support.size == 1:
        live[support.idx[0]] = near[support.idx[0]] = False
    near = near.nonzero()[0]
    if near.size:
        u_near = w1 * dvec[near]
        if counter is not None:
            counter.total += near.size
        zeta_u = _tiny(float(np.maximum.reduce(np.abs(u_near))))
        on = support.mask[near]
        hits = near[(on & (u_near < -zeta_u)) | (~on & (u_near > zeta_u))]
        if hits.size:
            return 0.0, int(hits[0])
    if not (w1 > 0.0 or w1 < 0.0):
        return np.inf, None
    if True in (np.abs(dvec) <= vmax / DBL_MAX):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratios = -v / dvec
    else:
        ratios = -v / dvec
    if w1 > 0.0:
        fill, toward = np.inf, ratios > 0.0
    else:
        fill, toward = -np.inf, ratios < 0.0
    ratios[~(live & np.isfinite(ratios) & toward)] = fill
    j = int(ratios.argmin() if w1 > 0.0 else ratios.argmax())
    a = float(ratios[j])
    if a == fill:
        return np.inf, None
    return a / w1, j

def ref_kkt_residual(problem, quadruple):
    A, c = problem.A, problem.c
    idx = quadruple.support.idx
    x_s = quadruple.v[idx]
    mu = np.where(quadruple.support.mask, 0.0, -quadruple.v)
    stat = A[idx].T @ x_s - quadruple.mu0 - mu - c
    x = quadruple.x
    return max(
        float(np.max(np.abs(stat))),
        abs(float(np.sum(x_s)) - 1.0),
        float(np.max(np.abs(mu * x))),
        max(0.0, -float(np.min(x))),
        max(0.0, -float(np.min(mu))),
    )


def ref_direct_update_par2(support, par1, g, counter=None):
    idx = support.idx
    gs = g[idx]
    eta = par1.M @ gs
    off = ~support.mask
    eta[off] += g[off]
    d_g = float(np.sum(eta[idx]))
    if counter is not None:
        counter.total += support.n * idx.size
    return eta, d_g


def ref_d_gg(support, eta, g):
    """D_gg = g_S'eta_S, as the cache derivation formed it when the cache kept it."""
    return float(eta[support.idx] @ g[support.idx])


def ref_direct_update_par3(support, par1, l, counter=None):
    idx = support.idx
    xi = -(par1.M @ l[idx])
    off = ~support.mask
    xi[off] -= l[off]
    d_l = float(np.sum(xi[idx]))
    if counter is not None:
        counter.total += support.n * idx.size
    return xi, d_l


def ref_utilde_direction(par1, xi, d_l):
    q = d_l / par1.D
    return q, xi - q * par1.eta_tilde


def ref_find_lambda(support, quadruple, par1, par2, g, exclude):
    """The matrix leg's ratio test on a Par1 and cache kept at A + lam g g'."""
    idx = support.idx
    d, d_g = par1.D, par2.D_g
    gs = g[idx]
    w1 = float(gs @ quadruple.v[idx])
    d_gg = float(par2.eta[idx] @ gs)
    dvec = d_g * par1.eta_tilde - d * par2.eta
    atil, j = _first_zero(support, quadruple.v, dvec, w1, exclude, None)
    if j is None:
        return np.inf, None, (w1, dvec, d_gg)
    alpha = atil * d / (1.0 + atil * d_g * d_g)
    if alpha * d_gg >= 1.0:
        return np.inf, None, (w1, dvec, d_gg)
    return max(alpha / (1.0 - alpha * d_gg), 0.0), j, (w1, dvec, d_gg)


def ref_update_by_lambda(lam_inc, quadruple, par1, par2, direction):
    """The advance that moved the quadruple, Par1 and the cache together by one rank-one."""
    d, d_g = par1.D, par2.D_g
    w1, dvec, d_gg = direction
    denom0 = 1.0 + lam_inc * d_gg
    if denom0 <= _tiny(1.0):
        raise DegenerateDenominator(f"1 + lam D_gg = {denom0}")
    alpha0 = 1.0 / denom0
    alpha = lam_inc * alpha0
    denom = d - alpha * d_g * d_g
    if denom <= _tiny(d):
        raise DegenerateDenominator(f"D - alpha D_g^2 = {denom}")
    atil = alpha / denom
    quadruple.v += (atil * w1) * dvec
    quadruple.mu0 += atil * d_g * w1
    eta = par2.eta
    par1.rank1(eta, (-alpha) * eta[quadruple.support.idx])
    par1.eta_tilde -= (alpha * d_g) * eta
    par1.D = denom
    par2.eta = alpha0 * eta
    par2.D_g = alpha0 * d_g


def ref_expand_support_lambda(lam, support, j, A, g, par1, par2):
    """An entry at lam, whose pivot carried the rank-one term lam eta_j g."""
    new_support = support.with_added(j)
    idx = support.idx
    mj_s = par1.M[j, :]
    aj = A[j]
    a_jj = float(aj[j])
    lam_eta_g = lam * float(par2.eta[j])
    ajj = a_jj + float(mj_s @ aj[idx]) + lam_eta_g * float(g[j])
    if ajj <= _tiny(a_jj):
        raise DegeneratePivot(f"pivot {ajj} adding index {j}")
    gamma = -(aj + A[idx].T @ mj_s)
    if lam_eta_g != 0.0:
        gamma -= lam_eta_g * g
    gamma[idx] = mj_s
    gamma[j] = 1.0
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par2, None)
    return new_support


def ref_run_lambda_leg(A, g, quadruple, par1, counter=None, ensure_column=None, rebuild=None):
    """The matrix leg that kept Par1 and its cache at A + lam g g' through every advance.

    Its in-leg rebuild refactorizes A[idx] + lam g_S g' itself; the driver's
    hook, which refactorizes the stored rows, does not fit this frame.
    """
    cap = path_matrix.CYCLE_CAP_PER_INDEX * quadruple.support.n
    par2 = direct_update_par2(quadruple.support, par1, g)
    events, lam, exclude, rebuilt = [], 0.0, None, False
    while True:
        try:
            inc, j, direction = ref_find_lambda(quadruple.support, quadruple, par1, par2, g, exclude)
            if not inc < 1.0 - lam:
                ref_update_by_lambda(1.0 - lam, quadruple, par1, par2, direction)
                return events
            ref_update_by_lambda(inc, quadruple, par1, par2, direction)
            lam += inc
            support = quadruple.support
            if support.mask[j]:
                new_support, kind = shrink_support_lambda(support, j, par1, par2), "leave"
            else:
                ensure_column(j)
                new_support, kind = ref_expand_support_lambda(lam, support, j, A, g, par1, par2), "enter"
            quadruple.support = new_support
            quadruple.v[j] = 0.0
            events.append(PathEvent("matrix", lam, j, kind, new_support.size))
            if len(events) > cap:
                raise CycleLimit(f"matrix leg exceeded {cap} turning points")
            exclude = j
        except DegenerateError:
            if rebuilt:
                raise
            rebuilt = True
            idx = quadruple.support.idx
            par1.refresh_from(par1_from_matrix(A[idx] + lam * outer(g[idx], g), quadruple.support))
            par2 = direct_update_par2(quadruple.support, par1, g)
            exclude = None


def ref_with_added(support, j):
    return Support(support.n, np.append(support.idx, j))


def ref_with_removed(support, j):
    return Support(support.n, support.idx[support.idx != j])


def ref_insert_col(M, j, support_after):
    return np.insert(M, int(np.searchsorted(support_after.idx, j)), 0.0, axis=1)


def ref_remove_col(M, j, support_before):
    return np.delete(M, int(np.searchsorted(support_before.idx, j)), axis=1)


def ref_rank1(M, u, coef_s):
    M += np.outer(u, coef_s)


def ref_par1_rank1(M, u, coef_s):
    M += u[:, None] * coef_s


def ref_add_outer(store, g):
    size = store.size
    per = driver.UPDATE_BLOCK // store.n or 1
    live = store.rows[:size]
    order = np.argsort(store.slot, kind="stable")[:size]  # the index of each block row
    g_live = g[:, None] if size == store.n else g[order, None]
    for k in range(0, size, per):
        live[k : k + per] += g_live[k : k + per] * g
    if size < store.n:
        if store.log_size == store.log.shape[0]:
            store.log = driver._grown(store.log, max(2 * store.log_size, 1))
        store.log[store.log_size] = g
        store.log_size += 1
        # Every live row now holds every logged g.
        store.stamp[order] = store.log_size


# -- helpers -----------------------------------------------------------------


def bits(x):
    """The exact bits of a float (or None), so that -0.0 and 0.0 differ."""
    return None if x is None else np.float64(x).tobytes()


def same_up_to_zero_sign(got, want, before):
    """Equal values, and equal bits wherever the accumulator `before` did not hold -0.0.

    The dgemm products (`state.outer`) store a product with a zero factor as
    +0.0 where the broadcast product may give -0.0, and only -0.0 plus that
    product tells the two signs apart.
    """
    assert got.shape == want.shape and np.array_equal(got, want)
    neg_zero = (before == 0.0) & np.signbit(before)
    assert got[~neg_zero].tobytes() == want[~neg_zero].tobytes()


def with_signed_zeros(rng, x, share=0.2):
    """`x` with about `share` of its entries set to +0.0 and as many to -0.0."""
    x = x.copy()
    x[rng.random(x.shape) < share] = 0.0
    x[rng.random(x.shape) < share] = -0.0
    return x


def with_subnormals(rng, x, share=0.1):
    """`x` with about `share` of its entries set to subnormals of either sign."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice([-1.0, 1.0], hit.sum()) * rng.integers(1, 2**52, hit.sum()) * 5e-324
    return x


def same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.flags.c_contiguous == b.flags.c_contiguous and a.flags.f_contiguous == b.flags.f_contiguous
    assert a.tobytes() == b.tobytes()


def both_first_zero(support, v, dvec, w1, exclude=None):
    """Run both ratio tests on copies; assert the same result and tally, and untouched inputs."""
    v0, d0 = v.copy(), dvec.copy()
    c_new, c_ref = cnt.MultCounter(), cnt.MultCounter()
    # A tiny velocity overflows the ratio to inf in both versions alike.
    with np.errstate(over="ignore"):
        a, j = _first_zero(support, v, dvec, w1, exclude, c_new)
        a_ref, j_ref = ref_first_zero(support, v, dvec, w1, exclude, c_ref)
    assert (bits(a), j) == (bits(a_ref), j_ref)
    assert c_new.total == c_ref.total
    same_array(v, v0)
    same_array(dvec, d0)
    return a, j


# -- the ratio test ----------------------------------------------------------


class TestFirstZero:
    def test_tie_goes_to_the_smallest_index(self):
        s = Support(5, [0, 2])
        v = np.array([0.5, -1.0, 0.5, -1.0, -2.0])
        dvec = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        # Ratios -v / dvec are (-0.5, 0.5, -0.5, 0.5, 2): 1 and 3 tie when
        # w1 > 0, 0 and 2 when w1 < 0.
        assert both_first_zero(s, v, dvec, 1.0) == (0.5, 1)
        assert both_first_zero(s, v, dvec, -1.0) == (0.5, 0)

    def test_parked_tie_goes_to_the_smallest_index(self):
        s = Support(4, [0, 1])
        v = np.array([0.0, 1.0, 0.0, 0.0])
        dvec = np.array([-1.0, 0.5, 1.0, 1.0])
        assert both_first_zero(s, v, dvec, 1.0) == (0.0, 0)

    def test_exclude(self):
        s = Support(5, [0, 2])
        v = np.array([0.5, -1.0, 0.5, -1.0, -2.0])
        dvec = np.array([1.0, 2.0, 1.0, 2.0, 1.0])
        a, j = both_first_zero(s, v, dvec, 1.0, exclude=1)
        assert j == 3
        # An excluded zero-parked index cannot fire either.
        v[1] = 0.0
        assert both_first_zero(s, v, dvec, 1.0, exclude=1)[1] == 3

    def test_singleton_support_cannot_leave(self):
        s = Support(3, [1])
        v = np.array([-0.5, 1.0, -0.25])
        dvec = np.array([0.0, -4.0, 0.0])
        assert both_first_zero(s, v, dvec, 1.0) == (np.inf, None)
        v[1] = 0.0  # parked and pushed out: still pinned
        assert both_first_zero(s, v, dvec, 1.0) == (np.inf, None)

    def test_zero_parked_pushed_inward_and_outward(self):
        s = Support(4, [0, 1])
        v = np.array([0.0, 1.0, 0.0, -1.0])
        # In-support 0 pushed negative (leave), off-support 2 pushed positive (enter).
        for dvec, want in (
            (np.array([-1.0, 0.0, 0.0, 0.0]), (0.0, 0)),
            (np.array([1.0, 0.0, 1.0, 0.0]), (0.0, 2)),
        ):
            assert both_first_zero(s, v, dvec, 1.0) == want
        # Pushed the feasible way (0 up, 2 down): nothing fires at a = 0.
        a, j = both_first_zero(s, v, np.array([1.0, 0.0, -1.0, 1.0]), 1.0)
        assert (a, j) == (1.0, 3)
        # A velocity below the parked tolerance does not fire.
        both_first_zero(s, v, np.array([-1e-14, 0.0, 1e-14, 0.0]), 1.0)
        for w1 in (-1.0, -3.0):
            both_first_zero(s, v, np.array([-1.0, 0.0, 1.0, 0.0]), w1)

    def test_w1_zero(self):
        s = Support(3, [0, 1])
        v = np.array([0.5, 0.5, -1.0])
        assert both_first_zero(s, v, np.array([1.0, -1.0, 1.0]), 0.0) == (np.inf, None)
        assert both_first_zero(s, v, np.array([1.0, -1.0, 1.0]), -0.0) == (np.inf, None)

    def test_signed_zero_and_tiny_velocities(self):
        s = Support(6, [0, 1, 2])
        v = np.array([0.25, 0.25, 0.5, -1.0, -2.0, -3.0])
        for dvec in (
            np.array([0.0, -0.0, 1e-310, -1e-310, 0.0, -0.0]),
            np.array([-0.0, 0.0, -1e-300, 1e-300, -5e-324, 5e-324]),
            np.array([0.0, -1.0, 0.0, 1.0, -0.0, 2.0]),
        ):
            for w1 in (1.0, -1.0, 1e-300, -7.5):
                both_first_zero(s, v, dvec, w1)

    def test_zero_velocity_warns_nothing(self):
        s = Support(3, [0, 1])
        v = np.array([0.5, 0.5, 0.0])
        with np.errstate(divide="raise", invalid="raise"):
            both_first_zero(s, v, np.array([0.0, -0.0, 0.0]), 1.0)
            both_first_zero(s, v, np.array([0.0, -1.0, 0.0]), -1.0)

    def test_tiny_velocity_warns_nothing(self):
        # A velocity entry so small that -v / dvec overflows takes the guarded
        # division, like a zero one: the ratio is inf, and inf is no candidate.
        s = Support(4, [0, 1])
        v = np.array([0.5, 0.5, -1.0, -2.0])
        for dvec in (np.array([1.0, -1.0, 5e-324, 1.0]), np.array([1e-300, -1.0, -1e-310, 2.0])):
            for w1 in (1.0, -1.0):
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    got = _first_zero(s, v, dvec, w1, None, None)
                a, j = both_first_zero(s, v, dvec, w1)
                assert (bits(got[0]), got[1]) == (bits(a), j) and j != 2

    def test_tiny_drift_runs_the_vector_leg_without_warning(self):
        # A drift entry of 5e-324 at n = 6 made the leg's ratio test overflow,
        # which pytest's warnings-as-errors turned into an exception.
        from hones.path_vector import run_utilde_leg

        problem = random_spd_problem(np.random.default_rng(4), 6)
        for i in range(6):
            ses = driver.init_session(problem.A, problem.c)
            l = np.zeros(6)
            l[i] = 5e-324
            assert run_utilde_leg(ses.A, l, ses.quadruple, ses.par1) == []

    def test_no_candidate(self):
        s = Support(3, [0, 1])
        v = np.array([0.5, 0.5, -1.0])
        # Every coordinate moves away from zero.
        assert both_first_zero(s, v, np.array([1.0, 1.0, -1.0]), 1.0) == (np.inf, None)
        assert both_first_zero(s, v, np.array([-1.0, -1.0, 1.0]), -1.0) == (np.inf, None)

    def test_seeded_sweep(self):
        rng = np.random.default_rng(2024)
        fired = parked = none = 0
        for _ in range(3000):
            n = int(rng.integers(1, 14))
            k = int(rng.integers(1, n + 1))
            s = Support(n, rng.choice(n, size=k, replace=False))
            v = np.where(s.mask, rng.random(n), -rng.random(n)) * 10.0 ** rng.integers(-3, 4)
            v[rng.random(n) < 0.2] = 0.0
            v[rng.random(n) < 0.05] = -0.0
            dvec = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
            dvec[rng.random(n) < 0.15] = rng.choice([0.0, -0.0, 1e-310, -1e-310])
            w1 = float(rng.choice([0.0, 1.0, -1.0, rng.standard_normal()]))
            exclude = int(rng.integers(n)) if rng.random() < 0.4 else None
            a, j = both_first_zero(s, v, dvec, w1, exclude)
            fired += j is not None and a > 0.0
            parked += j is not None and a == 0.0
            none += j is None
        assert fired and parked and none

    def test_never_returns_the_excluded_index(self):
        # _run_leg passes the index that just toggled as `exclude` and relies
        # on this to keep an index from re-triggering.  Each case excludes the
        # index the test would pick without exclusion, and a random one.
        rng = np.random.default_rng(2025)
        parked = ratio = singleton = 0
        for _ in range(3000):
            n = int(rng.integers(1, 14))
            k = 1 if rng.random() < 0.25 else int(rng.integers(1, n + 1))
            s = Support(n, rng.choice(n, size=k, replace=False))
            v = np.where(s.mask, rng.random(n), -rng.random(n)) * 10.0 ** rng.integers(-3, 4)
            v[rng.random(n) < 0.3] = 0.0
            dvec = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
            w1 = float(rng.choice([1.0, -1.0, rng.standard_normal()]))
            a, j = both_first_zero(s, v, dvec, w1)
            if j is None:
                continue
            parked += a == 0.0
            ratio += a > 0.0
            singleton += s.size == 1
            for exclude in (j, int(rng.integers(n)), *s.idx[:1]):
                assert both_first_zero(s, v, dvec, w1, exclude)[1] != exclude
        assert parked > 100 and ratio > 100 and singleton > 100


    def test_mirrored_division_matches_the_masked_one(self):
        # The ratio test divides v / dvec once, writes 0.0 where no candidate
        # may be, and keeps no live mask and no isfinite pass.  Against the
        # masked version: the same (a, j) bits and the same warnings, on
        # signed zeros, infinities and NaNs in v and dvec too.
        rng = np.random.default_rng(2026)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310])
        seen = {"ratio": 0, "parked": 0, "none": 0, "warned": 0, "singleton": 0, "exclude": 0}
        for _ in range(4000):
            n = int(rng.integers(1, 14))
            k = 1 if rng.random() < 0.25 else int(rng.integers(1, n + 1))
            s = Support(n, rng.choice(n, size=k, replace=False))
            v = np.where(s.mask, rng.random(n), -rng.random(n)) * 10.0 ** rng.integers(-3, 4)
            dvec = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
            v[rng.random(n) < 0.2] = 0.0
            for x, share in ((v, 0.1), (dvec, 0.15)):
                hit = rng.random(n) < share
                x[hit] = rng.choice(special, size=int(hit.sum()))
            w1 = float(rng.choice([1.0, -1.0, rng.standard_normal(), 0.0, 1e-300]))
            exclude = int(rng.integers(n)) if rng.random() < 0.4 else None
            outs = []
            for f in (ref_first_zero_masked, _first_zero):
                c = cnt.MultCounter()
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    a, j = f(s, v, dvec, w1, exclude, c)
                outs.append((bits(a), j, c.total, sorted(str(w.message) for w in caught)))
            assert outs[0] == outs[1]
            seen["ratio"] += j is not None and a > 0.0
            seen["parked"] += j is not None and a == 0.0
            seen["none"] += j is None
            seen["warned"] += bool(caught)
            seen["singleton"] += s.size == 1 and j is not None
            seen["exclude"] += exclude is not None and j is not None
        assert min(seen.values()) > 50, seen

# -- the residual ------------------------------------------------------------


def random_quadruple(rng, n, k):
    s = Support(n, rng.choice(n, size=k, replace=False))
    v = np.where(s.mask, rng.random(n), -rng.random(n))
    v[s.idx] /= v[s.idx].sum()
    return s, v


class TestKktResidual:
    def same(self, problem, q):
        r = kkt_residual(problem, q)
        assert bits(r) == bits(ref_kkt_residual(problem, q))
        return r

    def test_at_the_optimum_and_off_it(self):
        from hones.kkt import oracle_solve, solve_given_support

        rng = np.random.default_rng(5)
        for n in (1, 2, 5, 12):
            p = random_spd_problem(rng, n, c_scale=2.0)
            q = oracle_solve(p)
            assert self.same(p, q) <= 1e-9
            for k in range(1, n + 1):
                cand = solve_given_support(p, Support(n, rng.choice(n, size=k, replace=False)))
                self.same(p, cand)

    def test_sign_terms_dominate(self):
        p = Problem(np.eye(4), np.zeros(4))
        s = Support(4, [0, 1])
        for v in (
            [1.5, -0.5, -0.25, 2.0],  # negative x and negative mu
            [0.0, 1.0, 0.0, -0.0],  # exact zeros of either sign
            [-0.0, 1.0, 3.0, 0.0],
        ):
            for mu0 in (0.0, -1.0, 2.5):
                self.same(p, Quadruple(s, np.array(v), mu0))

    def test_singleton_and_full_support(self):
        rng = np.random.default_rng(11)
        p = random_spd_problem(rng, 6)
        for k in (1, 6):
            for _ in range(20):
                s, v = random_quadruple(rng, 6, k)
                v += rng.standard_normal(6) * 1e-3
                self.same(p, Quadruple(s, v, float(rng.standard_normal())))

    def test_seeded_sweep(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            n = int(rng.integers(1, 16))
            p = random_spd_problem(rng, n, c_scale=float(rng.choice([0.0, 1.0, 10.0])))
            s, v = random_quadruple(rng, n, int(rng.integers(1, n + 1)))
            v *= 10.0 ** rng.integers(-8, 3)
            v[rng.random(n) < 0.1] = -0.0
            self.same(p, Quadruple(s, v, float(rng.standard_normal())))


# -- the leg caches ----------------------------------------------------------


def random_par1(rng, n, k):
    p = random_spd_problem(rng, n)
    s = Support(n, rng.choice(n, size=k, replace=False))
    return p, s, par1_from_matrix(p.A[s.idx], s)


class TestDirectUpdates:
    def test_seeded_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            p, s, par1 = random_par1(rng, n, int(rng.integers(1, n + 1)))
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-4, 4)
            g[rng.random(n) < 0.2] = 0.0
            l = rng.standard_normal(n)
            c_new, c_ref = cnt.MultCounter(), cnt.MultCounter()
            par2 = direct_update_par2(s, par1, g, c_new)
            eta, d_g = ref_direct_update_par2(s, par1, g, c_ref)
            same_array(par2.eta, eta)
            assert bits(par2.D_g) == bits(d_g)
            # The matrix leg's ratio test reads D_gg off the cache with the
            # derivation's former bits, and hands it on last.  At lam = 0
            # sigma is exactly 1, so its lam-current w1, D, D_g and D_gg are
            # the bits of the iterate, Par1 and the cache; mid-leg they are
            # sigma-scaled from the same read-off.
            q = Quadruple(s, rng.standard_normal(n), 0.0)
            w1 = float(g[s.idx] @ q.v[s.idx])
            d_gg = ref_d_gg(s, eta, g)
            w1_lam, _, d, d_g_lam, d_gg_lam, d_gg_hat = find_lambda(s, q, par1, par2, g, 0.0)[2]
            assert bits(d_gg_hat) == bits(d_gg)
            assert [bits(x) for x in (w1_lam, d, d_g_lam, d_gg_lam)] == [bits(x) for x in (w1, par1.D, d_g, d_gg)]
            lam = float(rng.uniform(0.0, 1.0))
            w1_lam, _, d, d_g_lam, d_gg_lam, d_gg_hat = find_lambda(s, q, par1, par2, g, lam)[2]
            sigma = 1.0 / (1.0 + lam * d_gg)
            assert bits(d_gg_hat) == bits(d_gg)
            assert [bits(x) for x in (w1_lam, d_g_lam, d_gg_lam)] == [bits(sigma * x) for x in (w1, d_g, d_gg)]
            assert bits(d) == bits(par1.D - lam * d_g * (sigma * d_g))
            par3 = direct_update_par3(s, par1, l, c_new)
            xi, d_l = ref_direct_update_par3(s, par1, l, c_ref)
            same_array(par3.eta, xi)
            assert bits(par3.D_g) == bits(d_l)
            got_q, got_d = find_utilde_lambda(s, q, par1, par3)[2]
            want_q, want_d = ref_utilde_direction(par1, xi, d_l)
            assert bits(got_q) == bits(want_q)
            same_array(got_d, want_d)
            assert c_new.total == c_ref.total


class TestMatrixLegFrame:
    """The lam = 0 frame keeps the turning points and iterates of the per-advance matrix leg."""

    @staticmethod
    def run(kind, n, steps, seed, leg):
        """Per step: the events as (leg, index, kind, support size) and x, with `leg` as the matrix leg."""
        box = {}
        flow = flow_for_config(FlowConfig(kind, n, steps, seed=seed), x_feedback=lambda: box["ses"].x)
        ses = box["ses"] = driver.init_session(flow.a0, flow.c0)
        out = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(driver, "run_lambda_leg", leg)
            for g, c in flow:
                rep = driver.step(ses, g, c)
                out.append(([(e.leg, e.index, e.kind, e.support_size) for e in rep.events], ses.x.copy()))
        return out

    @pytest.mark.parametrize("kind", ["synthetic", "ons", "markowitz"])
    def test_same_events_and_x_as_the_per_advance_leg(self, kind):
        events = 0
        for seed in range(1, 7):
            got = self.run(kind, 20, 60, seed, path_matrix.run_lambda_leg)
            want = self.run(kind, 20, 60, seed, ref_run_lambda_leg)
            for (ev, x), (ev_ref, x_ref) in zip(got, want, strict=True):
                assert ev == ev_ref
                assert np.max(np.abs(x - x_ref)) <= 1e-9
                events += sum(e[0] == "matrix" for e in ev)
        assert events >= 100


# -- support toggles -----------------------------------------------------------


def same_support(a, b):
    assert a.n == b.n and a.size == b.size
    same_array(a.idx, b.idx)
    same_array(a.mask, b.mask)
    assert not (a.idx.flags.writeable or a.mask.flags.writeable)
    assert a == b and hash(a) == hash(b)
    same_array(a.complement(), b.complement())


class TestSupportToggles:
    def test_every_toggle_of_small_supports(self):
        for n in range(1, 7):
            for bits_ in range(1, 1 << n):
                s = Support(n, [i for i in range(n) if bits_ >> i & 1])
                for j in range(n):
                    if s.mask[j]:
                        if s.size > 1:
                            same_support(s.with_removed(j), ref_with_removed(s, j))
                        else:
                            with pytest.raises(ValueError):
                                s.with_removed(j)
                    else:
                        same_support(s.with_added(j), ref_with_added(s, j))

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_random_toggle_sequences_keep_idx_the_mask_nonzero(self, n):
        rng = np.random.default_rng(n)
        s = Support(n, [int(rng.integers(n))])
        toggles = 0
        for _ in range(600):
            j = int(rng.integers(n))
            if s.mask[j] and s.size == 1:
                with pytest.raises(ValueError):
                    s.with_removed(j)
                with pytest.raises(ValueError):
                    s.with_added(j)
                continue
            s = s.with_removed(j) if s.mask[j] else s.with_added(j)
            toggles += 1
            want = s.mask.nonzero()[0]
            assert s.idx.dtype == want.dtype and np.array_equal(s.idx, want) and s.size == want.size
            assert not (s.idx.flags.writeable or s.mask.flags.writeable)
        assert toggles == 0 if n == 1 else toggles > 200

    def test_refuses_what_it_refused(self):
        s = Support(4, [1, 2])
        with pytest.raises(ValueError):
            s.with_added(1)
        with pytest.raises(ValueError):
            s.with_removed(0)

    def test_from_sorted_matches_the_checked_constructor(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 30))
            mask = rng.random(n) < 0.5
            mask[int(rng.integers(n))] = True
            same_support(Support.from_sorted(np.flatnonzero(mask), mask.copy()), Support(n, np.flatnonzero(mask)))


# -- Par1 column updates -------------------------------------------------------


class TestPar1Columns:
    def test_insert_remove_rank1_sweep(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(2, 15))
            _, s, par1 = random_par1(rng, n, int(rng.integers(1, n)))
            j = int(rng.choice(s.complement()))
            after = s.with_added(j)
            ref = ref_insert_col(par1.M, j, after)
            par1.insert_col(j, after)
            same_array(par1.M, ref)

            u = rng.standard_normal(n)
            coef = rng.standard_normal(after.size) * 10.0 ** rng.integers(-5, 5)
            ref = par1.M.copy()
            ref_rank1(ref, u, coef)
            par1.rank1(u, coef)
            same_array(par1.M, ref)

            k = int(rng.choice(after.idx))
            if after.size > 1:
                ref = ref_remove_col(par1.M, k, after)
                par1.remove_col(k, after)
                same_array(par1.M, ref)

    def test_single_column(self):
        M = np.arange(3.0).reshape(3, 1)
        par1 = Par1(M.copy(), np.ones(3), 1.0)
        s = Support(3, [1])
        after = s.with_added(2)
        par1.insert_col(2, after)
        same_array(par1.M, ref_insert_col(M, 2, after))
        par1.remove_col(2, after)
        same_array(par1.M, M)


# -- the outer products --------------------------------------------------------


class TestOuterProducts:
    # Shapes on either side of the BLAS size regimes: numpy's own 1 x 1
    # product, one row or one column, the benchmark's blocks (100 x 6,
    # 200 x 191, 1000 x 15) and large ones up to n = 3000 and s = n.
    SHAPES = [
        (1, 1), (1, 7), (9, 1), (100, 6), (200, 191), (200, 200), (1000, 15), (1000, 1000), (3000, 30), (3000, 300)
    ]

    @pytest.mark.parametrize("n, s", SHAPES + [(3000, 3000)])
    def test_outer_has_the_bits_of_einsum(self, n, s):
        # Signed zeros and subnormals in u, and |v| >= 1 or a signed zero, so
        # that no product underflows to zero.  The aliased products (v with
        # itself, and a leading block of v with v) are the ones numpy hands
        # to syrk rather than gemm.
        rng = np.random.default_rng(41 + n + s)
        u = with_signed_zeros(rng, with_subnormals(rng, rng.standard_normal(n)))
        v = with_signed_zeros(rng, rng.choice([-1.0, 1.0], s) * (1.0 + rng.exponential(size=s)))
        for a, b in ((u, v), (v, u), (v, v), (v[: s // 2 or 1], v)):
            got, want = outer(a, b), np.einsum("i,j->ij", a, b)
            assert got.shape == want.shape and got.flags.c_contiguous
            if got.size == 1:  # numpy's scalar product keeps the sign of a zero
                assert np.array_equal(got, want)
            else:
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_outer_zero_products(self):
        # A product with a zero factor is +0.0, as einsum stores it; a
        # product that underflows to zero, and the one product of a 1 x 1
        # call, are zeros of either sign.
        u, v = np.array([-0.0, 0.0, -1.0, 1e-170]), np.array([-1.0, 1.0, -0.0, 0.0, -1e-170])
        got, want = outer(u, v), np.einsum("i,j->ij", u, v)
        assert np.array_equal(got, want)
        exact_zero = (u[:, None] == 0.0) | (v[None, :] == 0.0)
        assert not np.signbit(got[exact_zero]).any()
        for a, b in ((-1.0, 0.0), (0.0, -1.0), (-0.0, -0.0)):
            assert outer(np.array([a]), np.array([b])).tolist() == [[0.0]]

    @pytest.mark.parametrize("n, s", SHAPES)
    def test_par1_rank1_across_shapes(self, n, s):
        rng = np.random.default_rng(53 + n + s)
        M = with_signed_zeros(rng, rng.standard_normal((n, s)))
        u = with_signed_zeros(rng, with_subnormals(rng, rng.standard_normal(n)))
        coef = with_signed_zeros(rng, with_subnormals(rng, rng.standard_normal(s)))
        par1, ref = Par1(M.copy(), np.ones(n), 1.0), M.copy()
        par1.rank1(u, coef)
        ref_par1_rank1(ref, u, coef)
        same_up_to_zero_sign(par1.M, ref, M)
        assert par1.M.flags.c_contiguous

    def test_par1_rank1_with_signed_zeros(self):
        rng = np.random.default_rng(23)
        flipped = 0
        for _ in range(400):
            n = int(rng.integers(1, 30))
            s = int(rng.integers(1, n + 1))
            M = with_signed_zeros(rng, rng.standard_normal((n, s)))
            u = with_signed_zeros(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5))
            coef = with_signed_zeros(rng, rng.standard_normal(s))
            par1, ref = Par1(M.copy(), np.ones(n), 1.0), M.copy()
            par1.rank1(u, coef)
            ref_par1_rank1(ref, u, coef)
            same_up_to_zero_sign(par1.M, ref, M)
            assert par1.M.flags.c_contiguous
            flipped += par1.M.tobytes() != ref.tobytes()
        # The sweep does reach the one case where the bits differ.
        assert flipped

    def test_zero_sign_cases(self):
        # Only -0.0 in M meeting a product of -0.0 (stored as +0.0) gives
        # +0.0 where the broadcast product gave -0.0.
        M = np.array([[-0.0, -0.0, 0.0, 0.0, 1.0]])
        u, coef = np.array([1.0]), np.array([-0.0, 0.0, -0.0, 0.0, -0.0])
        par1, ref = Par1(M.copy(), np.ones(1), 1.0), M.copy()
        par1.rank1(u, coef)
        ref_par1_rank1(ref, u, coef)
        assert np.signbit(par1.M).ravel().tolist() == [False] * 5
        assert np.signbit(ref).ravel().tolist() == [True, False, False, False, False]
        same_up_to_zero_sign(par1.M, ref, M)

    def stores(self, rng, n, lazy):
        """Two equal LiveRows stores: all n rows live, or all but about a tenth of them."""
        A0 = rng.standard_normal((n, n))
        A0 = with_signed_zeros(rng, A0 + A0.T)
        if not lazy:
            return [driver.LiveRows(A0.copy(), np.ones(n, bool), None, np.empty((0, n))) for _ in range(2)]
        touched = np.zeros(n, bool)
        touched[rng.choice(n, size=n - 1 - n // 10, replace=False)] = True
        rows = A0[touched]
        return [driver.LiveRows(rows.copy(), touched.copy(), A0.copy(), np.empty((0, n))) for _ in range(2)]

    @pytest.mark.parametrize("block", [driver.UPDATE_BLOCK, 64])
    def test_add_outer_full_and_lazy(self, monkeypatch, block):
        # At the real block size, n = 300 takes two blocks of up to
        # 65536 // 300 = 218 rows, full, or lazy on every live row (269), and
        # n = 1000 takes 65 rows a block; a full store of n <= 256 rows is
        # one block, g with itself, which numpy hands to syrk.  A block of
        # 64 entries splits every store into many.  g carries signed zeros
        # and subnormals, so some products underflow.  A lazy store
        # adds only to the rows it is given (all live rows on even steps,
        # about a third of them on odd ones), and the rest are replayed when
        # the comparison reads them through the store.
        monkeypatch.setattr(driver, "UPDATE_BLOCK", block)
        rng = np.random.default_rng(31 + block)
        blocks = {False: 0, True: 0}
        for n, lazy in (
            (1, False), (5, True), (12, False), (40, True), (200, False),
            (300, False), (300, True), (1000, False), (1000, True),
        ):
            new, ref = self.stores(rng, n, lazy)
            for t in range(6):
                g = with_subnormals(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3))
                g = with_signed_zeros(rng, g)
                live = new.live()
                idx = live if t % 2 == 0 else np.sort(rng.choice(live, size=live.size // 3, replace=False))
                # Each update starts from the same rows in both stores.
                ref.rows[ref.slot[live]] = before = new[live].copy()
                blocks[lazy] = max(blocks[lazy], -(-(n if new.full else idx.size) // (block // n or 1)))
                new.add_outer(g, idx)
                ref_add_outer(ref, g)
                assert (new.size, new.log_size) == (ref.size, ref.log_size)
                same_up_to_zero_sign(new[live], ref.rows[ref.slot[live]], before)
                same_array(new.g_log, ref.g_log)
                if not new.full and t % 2:
                    # A row that goes live is caught up from the same log in both.
                    j = int(np.flatnonzero(new.slot == n)[0])
                    new.touch(j)
                    ref.touch(j)
                    same_array(new[j], ref[j])
        assert min(blocks.values()) > 1


# -- the replay of stale rows ------------------------------------------------


class TestReplay:
    @pytest.mark.parametrize("n", [2, 3, 7, 100, 1000])
    @pytest.mark.parametrize("block", [driver.UPDATE_BLOCK, 64])
    def test_replay_equals_per_step_adds(self, monkeypatch, n, block):
        # Two equal stores take the same g's, with signed zeros in g and in
        # the rows.  One adds each g to every live row as it comes; the other
        # adds it to the first live row only when there are three, and its
        # other rows catch up by replay: the middle one at every fifth step,
        # the last one once, over more steps than one chunk of a replay holds
        # (n = 2 has one live row, which only the replay brings current).
        # The rows must agree to the bit.
        monkeypatch.setattr(driver, "UPDATE_BLOCK", block)
        rng = np.random.default_rng(n + block)
        per = max(block // n, 2) - 1  # logged terms per chunk of a replay
        steps = per + 3
        live = np.arange(min(n - 1, 3))
        touched = np.zeros(n, bool)
        touched[live] = True
        rows = with_signed_zeros(rng, rng.standard_normal((live.size, n)))
        step_store, replay_store = (
            driver.LiveRows(rows.copy(), touched.copy(), Diagonal(np.ones(n)), np.empty((0, n))) for _ in range(2)
        )
        for t in range(steps):
            g = with_signed_zeros(rng, rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3))
            step_store.add_outer(g, live)
            replay_store.add_outer(g, live[: live.size // 3])
            if live.size == 3 and t % 5 == 0:
                same_array(replay_store[live[1]], step_store[live[1]])
        assert replay_store.stamp[live[-1]] == 0 and replay_store.log_size == steps
        same_array(replay_store[live], step_store[live])
        assert (replay_store.stamp[live] == steps).all()

    def test_one_row_store_never_replays(self, monkeypatch):
        # A one-row store is always full: its single row is live from the
        # start and gets every g as it comes.
        def refuse(store, j):
            raise AssertionError(f"replayed row {j}")

        monkeypatch.setattr(driver, "_replay", refuse)
        ses = driver.init_session(np.array([[2.0]]), np.array([0.5]))
        assert ses.A.full and ses.A.a0 is None
        for t in range(5):
            driver.step(ses, np.array([-0.0 if t % 2 else 1.5]), np.array([0.1 * t]))
            assert ses.A[0, 0] == ses.A.rows[0, 0] and ses.A.log_size == 0
        assert ses.A.full
