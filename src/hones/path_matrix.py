"""Homotopy leg that moves the quadratic term from A to A + g g'.

The optimum of  0.5 x'(A + lam g g')x - c'x  over the simplex is tracked for
lam from 0 to 1.  Between turning points the support is constant and the KKT
state moves along an explicit rational curve in lam; at a turning point one
coordinate of v = (x_S, -mu_{S^c}) hits zero and the support gains or loses
exactly that index.  All updates are rank-one corrections of the cached state,
never a fresh factorization.

The step functions hand each other plain values: find_lambda returns
(lam increment, index, direction), and the direction (w1, dvec, D_gg) goes on
to update_by_lambda, which moves the state to that turning point.
w1 = g_S'x_S is read off the iterate and D_gg = g_S'eta_S off the leg cache,
so the leg never reads the linear term c, and its cache is the one the
vector leg carries.  _run_leg, the event loop both legs share, then toggles
the index through expand_support_lambda or shrink_support_lambda.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CycleLimit, DegenerateDenominator, DegenerateError, DegeneratePivot
from .kkt import ZETA_SCALE, _tiny
from .state import direct_update_par2

# A leg raises CycleLimit past this many turning points per index (10 n).
CYCLE_CAP_PER_INDEX = 10

DBL_MAX = float(np.finfo(np.float64).max)


@dataclass(slots=True)
class PathEvent:
    """One turning point: where it happened, which index toggled, and the support size after."""

    leg: str  # "matrix" or "vector"
    param: float
    index: int
    kind: str  # "enter" or "leave"
    support_size: int


def _first_zero(support, v, dvec, w1, exclude, counter):
    """Ratio test: the first a >= 0 at which v + a * w1 * dvec has a zero coordinate.

    Returns (a, index), or (inf, None) when no coordinate ever hits zero.
    Two indices are skipped: `exclude`, the index that toggled at the
    current parameter, so a just-processed zero cannot re-trigger, and a
    singleton support's index, which cannot leave (the sum constraint pins
    it at one, so any leave ratio there is numerical noise).  Indices
    currently parked at zero only fire (at a = 0) when their velocity pushes
    them infeasible, which realizes simultaneous hits as a deterministic
    sequence of zero-length increments.  Smallest index wins ties.
    """
    skip = () if exclude is None else (exclude,)
    skip += (support.idx[0],) if support.size == 1 else ()
    # Both zero thresholds are kkt._tiny's rule, written out for a maximum
    # that is not negative (a NaN one gets the floor, as in _tiny).
    av = np.abs(v)
    vmax = float(np.maximum.reduce(av))
    near = av <= ZETA_SCALE * (vmax if vmax > 1.0 else 1.0)
    for i in skip:
        near[i] = False

    # Coordinates already at zero that are being pushed infeasible must toggle
    # right now (leave needs velocity < 0, enter needs velocity > 0).
    near = near.nonzero()[0]
    if near.size:
        u_near = w1 * dvec[near]
        if counter is not None:
            counter.total += near.size
        umax = float(np.maximum.reduce(np.abs(u_near)))
        zeta_u = ZETA_SCALE * (umax if umax > 1.0 else 1.0)
        on = support.mask[near]
        hits = near[(on & (u_near < -zeta_u)) | (~on & (u_near > zeta_u))]
        if hits.size:
            return 0.0, int(hits[0])

    if not (w1 > 0.0 or w1 < 0.0):
        return np.inf, None
    # Only a zero velocity, or one so small that some |v_i / dvec_i| passes
    # DBL_MAX, can make the division warn.  Such an entry has
    # |dvec_i| < |v_i| / DBL_MAX, which rounds to at most vmax / DBL_MAX;
    # fmin skips a NaN, which must not hide a zero.
    if np.fmin.reduce(np.abs(dvec)) <= vmax / DBL_MAX:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = v / dvec
    else:
        r = v / dvec
    # r is minus the ratio.  0.0 is never a candidate: it marks the indices
    # at zero and the ones the test must skip.
    r[near] = 0.0
    for i in skip:
        r[i] = 0.0
    # A candidate moves toward zero: its ratio has the sign of w1.  An
    # infinite one equals the fill, and a NaN fails both comparisons.
    if w1 > 0.0:
        fill = -np.inf
        r[~(r < 0.0)] = fill
        j = int(r.argmax())
    else:
        fill = np.inf
        r[~(r > 0.0)] = fill
        j = int(r.argmin())
    a = float(r[j])
    if a == fill:
        return np.inf, None
    return -a / w1, j


def find_lambda(support, quadruple, par1, par2, g, exclude=None, counter=None):
    """Locate the next turning point of the matrix leg: (lam increment, index, direction).

    v as a function of lam is v + atil(lam) * w1 * dvec where atil is a
    monotone reparametrization of lam, so the ratio test runs in atil; its
    result is mapped back to a lam increment, or infinity (index None) when
    no coordinate ever hits zero on the forward path (equivalently when the
    minimizing ratio fails alpha * D_gg < 1).  The direction (w1, dvec, D_gg)
    is what update_by_lambda needs at this state: w1 = g_S'x_S, read off the
    iterate (on the support x_S = mu0 M_SS 1 + M_SS c_S, so it equals
    D_g mu0 + g_S'M_SS c_S), dvec = D_g eta_tilde - D eta, and
    D_gg = g_S'eta_S, read off the leg cache (it equals g_S'M_SS g_S).
    """
    idx = support.idx
    d = par1.D
    d_g = par2.D_g
    gs = g[idx]
    w1 = float(gs @ quadruple.v[idx])
    d_gg = float(par2.eta[idx] @ gs)
    dvec = d_g * par1.eta_tilde - d * par2.eta
    if counter is not None:
        counter.total += 2 * support.n + 2 * idx.size

    atil, j = _first_zero(support, quadruple.v, dvec, w1, exclude, counter)
    if j is None:
        return np.inf, None, (w1, dvec, d_gg)
    alpha = atil * d / (1.0 + atil * d_g * d_g)
    if alpha * d_gg >= 1.0:
        return np.inf, None, (w1, dvec, d_gg)
    lam_inc = alpha / (1.0 - alpha * d_gg)
    if lam_inc < 0.0:
        lam_inc = 0.0
    return lam_inc, j, (w1, dvec, d_gg)


def update_by_lambda(lam_inc, quadruple, par1, par2, direction, counter=None):
    """Advance the quadruple and both caches by a lam increment.

    `lam_inc` is finite and nonnegative: _run_leg advances by find_lambda's
    increment only while it is below 1 - lam, and by 1 - lam otherwise.
    `direction` is the (w1, dvec, D_gg) that find_lambda returned at this
    state.
    Every right-hand side uses the values from before the call; the scalars
    are rescaled last for that reason.  Raises DegenerateDenominator when the
    update denominators lose positivity, which signals a rebuild.
    """
    support = quadruple.support
    d = par1.D
    d_g = par2.D_g
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
    par1.rank1(eta, (-alpha) * eta[support.idx])
    par1.eta_tilde -= (alpha * d_g) * eta
    par1.D = denom
    par2.eta = alpha0 * eta
    par2.D_g = alpha0 * d_g
    n, s = support.n, support.size
    if counter is not None:
        counter.total += (n * s + s) + 3 * n + n + 10


def _expand_geometry(support, j, A, par1, lam_eta_g=0.0, gvec=None, counter=None):
    """Pivot, full-length gamma vector and new support for adding index j.

    `Support.with_added` refuses a j already in the support before any
    work.  Only the j-th row of A plus the already-live support rows are
    read, each once (A is symmetric, so row j stands for column j).  The
    optional lam * eta_j correction folds in the rank-one term when the
    matrix is still parametrized by lam.
    """
    new_support = support.with_added(j)
    idx = support.idx
    mj_s = par1.M[j, :]
    aj = A[j]
    a_jj = float(aj[j])
    ajj = a_jj + float(mj_s @ aj[idx]) + lam_eta_g * (float(gvec[j]) if gvec is not None else 0.0)
    if counter is not None:
        counter.total += idx.size + 2
    if ajj <= _tiny(a_jj):
        raise DegeneratePivot(f"pivot {ajj} adding index {j}")
    w = A[idx].T @ mj_s
    gamma = -(aj + w)
    if counter is not None:
        counter.total += support.n * idx.size
    if gvec is not None and lam_eta_g != 0.0:
        gamma -= lam_eta_g * gvec
        if counter is not None:
            counter.total += support.n
    gamma[idx] = mj_s
    gamma[j] = 1.0
    return ajj, gamma, new_support


def _shrink_geometry(support, j, par1):
    """Pivot M_jj, full-length beta vector (column j of M, -1 at j) and new support for removing index j.

    `Support.with_removed` refuses before any work: a singleton support
    with EmptySupport for any j, and a j off the support with ValueError.
    """
    new_support = support.with_removed(j)
    beta = par1.col(j, support)
    mjj = float(beta[j])
    if mjj <= _tiny(1.0):
        raise DegeneratePivot(f"pivot {mjj} removing index {j}")
    beta[j] = -1.0
    return mjj, beta, new_support


def _pivot(support, new_support, j, vec, inv, par1, cache, counter):
    """Block pivot on index j: M <- R_j(M) + vec vec_S' inv, and the same on the leg cache.

    An entry passes vec = gamma and inv = 1 / pivot; a leave passes vec = beta
    and inv = -1 / M_jj.  `cache`, the leg's Par2 in either leg, applies its
    own part.  The tally counts the six scalar products of the pivot too.
    """
    teta_j = float(par1.eta_tilde[j])
    par1.D += teta_j * teta_j * inv
    cache.pivot(j, vec, inv, teta_j)
    par1.M[j, :] = 0.0
    if new_support.size > support.size:
        par1.insert_col(j, new_support)
    else:
        par1.remove_col(j, support)
    par1.rank1(vec, vec[new_support.idx] * inv)
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde += (teta_j * inv) * vec
    n, s1 = new_support.n, new_support.size
    if counter is not None:
        counter.total += s1 + n * s1 + 2 * n + 6


def expand_support_lambda(lam, support, j, A, g, par1, par2, counter=None):
    """Add index j to the support at parameter lam; updates Par1 and Par2.

    Requires the j-th row of A to be current.  Returns the new support.
    """
    ajj, gamma, new_support = _expand_geometry(
        support, j, A, par1, lam_eta_g=lam * float(par2.eta[j]), gvec=g, counter=counter
    )
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par2, counter)
    return new_support


def shrink_support_lambda(support, j, par1, par2, counter=None):
    """Remove index j from the support; updates Par1 and Par2."""
    mjj, beta, new_support = _shrink_geometry(support, j, par1)
    _pivot(support, new_support, j, beta, -(1.0 / mjj), par1, par2, counter)
    return new_support


def run_lambda_leg(A, g, quadruple, par1, counter=None, ensure_column=None, rebuild=None):
    """Drive the matrix leg from lam = 0 to lam = 1.

    Derives the leg's own Par2 from Par1 for direction g, mutates the
    quadruple and Par1 in place and returns the list of turning points.
    `ensure_column(j)` is called before any expand so a lazily kept A can
    make the needed row live.  On a degeneracy, `rebuild(lam)` is called once
    to refactorize Par1 in place from the support rows of A + lam g g'; the
    leg then re-derives Par2 from it and retries, and a second degeneracy
    propagates.

    Raises CycleLimit when the number of events exceeds CYCLE_CAP_PER_INDEX * n.
    """
    return _run_leg(
        "matrix",
        quadruple,
        derive=lambda tally: direct_update_par2(quadruple.support, par1, g, tally),
        find=lambda par2, exclude: find_lambda(
            quadruple.support, quadruple, par1, par2, g, exclude=exclude, counter=counter
        ),
        advance=lambda par2, inc, direction: update_by_lambda(
            inc, quadruple, par1, par2, direction, counter=counter
        ),
        shrink=lambda par2, j: shrink_support_lambda(quadruple.support, j, par1, par2, counter=counter),
        expand=lambda par2, lam, j: expand_support_lambda(lam, quadruple.support, j, A, g, par1, par2, counter=counter),
        counter=counter,
        ensure_column=ensure_column,
        rebuild=rebuild,
    )


def _run_leg(leg, quadruple, derive, find, advance, shrink, expand, counter, ensure_column, rebuild):
    """Event loop shared by both legs: advance to each turning point, toggle, repeat.

    The leg parameter runs from 0 to 1.  `derive(counter)` returns the leg's
    cache, a Par2, from the current Par1; it is tallied when the leg
    starts and untallied after a rebuild.  Every other callback takes that
    cache first: `find(cache, exclude)` returns the next turning point as
    (increment, index, direction), `advance(cache, inc, direction)` moves the
    state by a parameter increment along that direction, and
    `shrink(cache, j)` / `expand(cache, lam, j)` toggle index j and return the
    new support.  The index that just toggled is passed back as `exclude`,
    which the ratio test never returns, so no index can re-trigger at once;
    more than CYCLE_CAP_PER_INDEX * n turning points raise CycleLimit.  The
    leg wrappers pass closures that look their step functions up by module
    global at call time, so a rebinding of those names (for instance by a
    tracer) takes effect here.
    """
    cap = CYCLE_CAP_PER_INDEX * quadruple.support.n
    cache = derive(counter)
    events = []
    lam = 0.0
    exclude = None
    rebuilt = False
    while True:
        try:
            inc, j, direction = find(cache, exclude)
            if not inc < 1.0 - lam:
                advance(cache, 1.0 - lam, direction)
                return events
            advance(cache, inc, direction)
            lam += inc
            if quadruple.support.mask[j]:
                new_support = shrink(cache, j)
                kind = "leave"
            else:
                if ensure_column is not None:
                    ensure_column(j)
                new_support = expand(cache, lam, j)
                kind = "enter"
            quadruple.support = new_support
            quadruple.v[j] = 0.0
            events.append(PathEvent(leg, lam, j, kind, new_support.size))
            if len(events) > cap:
                raise CycleLimit(f"{leg} leg exceeded {cap} turning points")
            exclude = j
        except DegenerateError:
            if rebuilt or rebuild is None:
                raise
            rebuilt = True
            rebuild(lam)
            cache = derive(None)
            exclude = None
