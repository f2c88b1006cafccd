"""Homotopy leg that moves the quadratic term from A to A + g g'.

The optimum of  0.5 x'(A + lam g g')x - c'x  over the simplex is tracked for
lam from 0 to 1.  Between turning points the support is constant and the KKT
state moves along an explicit rational curve in lam; at a turning point one
coordinate of v = (x_S, -mu_{S^c}) hits zero and the support gains or loses
exactly that index.  All updates are rank-one corrections of the cached state,
never a fresh factorization.

The leg runs on the step's starting matrix A (the lam = 0 frame): Par1 and
the leg cache hold A's factorization on the current support for the whole
leg, and a turning point pivots that frozen factorization, as the vector
leg's do.  On a fixed support Sherman-Morrison gives the state of A + lam g g'
from it in O(1) scalars (find_lambda), so a turning point costs one n x |S|
pass over M, the pivot's, and one rank-one at the leg's end takes Par1 to
A + g g'.  That frame is also the one the online active set of Ferreau,
Bock and Diehl (IJRNC 18(8), 2008) keeps.

The step functions hand each other plain values: find_lambda returns
(lam increment, index, direction), and the direction goes on to
update_by_lambda, which moves v and mu0 to that turning point, and on the
leg's last advance Par1 to A + g g'.  w1 = g_S'x_S is read off the iterate
and D_gg = g_S'eta_S off the leg cache, so the leg never reads the linear
term c, and its cache is the one the vector leg carries.  _run_leg, the
event loop both legs share, then toggles the index through
expand_support_lambda or shrink_support_lambda, which are the vector leg's
toggles too.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CycleLimit, DegenerateDenominator, DegenerateError, DegeneratePivot
from .kkt import ZETA_SCALE, _tiny
from .state import carry, direct_update_par2

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


def find_lambda(support, quadruple, par1, par2, g, lam, exclude=None, counter=None):
    """Locate the next turning point of the matrix leg at parameter lam: (lam increment, index, direction).

    Par1 and the cache hold the step's starting matrix A on the current
    support (the lam = 0 frame): M-hat, eta_tilde-hat, D-hat, eta-hat and
    D_g-hat.  On that support Sherman-Morrison gives the state of A + lam g g'
    through sigma = 1 / (1 + lam D_gg-hat), with D_gg-hat = g_S'eta_S read off
    the cache (it equals g_S'M_SS g_S): D_g = sigma D_g-hat,
    D_gg = sigma D_gg-hat, D = D-hat - lam sigma D_g-hat^2, and the
    lam-current velocity is sigma (D_g-hat eta_tilde-hat - D-hat eta-hat).
    v as a function of the increment is v + atil * w1 * dvec, where atil is a
    monotone reparametrization of it, dvec is the bracket and sigma rides on
    w1 = g_S'x_S, read off the iterate, so no pass over n is added; the ratio
    test runs in atil and its result is mapped back to a lam increment, or
    infinity (index None) when no coordinate ever hits zero on the forward
    path (equivalently when the minimizing ratio fails alpha * D_gg < 1).
    The direction (sigma w1, dvec, D, D_g, D_gg, D_gg-hat), its scalars at
    lam but D_gg-hat, is what update_by_lambda needs.  At lam = 0, sigma is
    exactly 1 and every value has the bits of a leg run on the current
    matrix.
    """
    idx = support.idx
    d_g = par2.D_g
    gs = g[idx]
    d_gg = float(par2.eta[idx] @ gs)
    sigma = 1.0 / (1.0 + lam * d_gg)
    w1 = sigma * float(gs @ quadruple.v[idx])
    dvec = d_g * par1.eta_tilde - par1.D * par2.eta
    d_g_lam = sigma * d_g
    d_lam = par1.D - lam * d_g * d_g_lam
    d_gg_lam = sigma * d_gg
    direction = (w1, dvec, d_lam, d_g_lam, d_gg_lam, d_gg)
    if counter is not None:
        counter.total += 2 * support.n + 2 * idx.size

    atil, j = _first_zero(support, quadruple.v, dvec, w1, exclude, counter)
    if j is None:
        return np.inf, None, direction
    alpha = atil * d_lam / (1.0 + atil * d_g_lam * d_g_lam)
    if alpha * d_gg_lam >= 1.0:
        return np.inf, None, direction
    lam_inc = alpha / (1.0 - alpha * d_gg_lam)
    if lam_inc < 0.0:
        lam_inc = 0.0
    return lam_inc, j, direction


def update_by_lambda(lam_inc, quadruple, par1, par2, direction, end, counter=None):
    """Advance v and mu0 by a lam increment; at the leg's end, also move Par1 to A + g g'.

    `lam_inc` is finite and nonnegative: _run_leg advances by find_lambda's
    increment only while it is below 1 - lam, and by 1 - lam otherwise,
    with `end` set.  `direction` is what find_lambda returned at this state.
    Between turning points Par1 and the cache stay in the lam = 0 frame, so
    only v and mu0 move.  At the end one rank-one takes Par1 to lam = 1:
    with c = 1 / (1 + D_gg-hat), M -= c eta eta_S', eta_tilde -= c D_g eta
    and D -= c D_g^2, in the cache's hatted values; the cache, which the leg
    drops, stays as it was.  Raises DegenerateDenominator, before anything
    moves, when the update denominators lose positivity, which signals a
    rebuild.
    """
    support = quadruple.support
    w1, dvec, d, d_g, d_gg, d_gg0 = direction
    denom0 = 1.0 + lam_inc * d_gg
    if denom0 <= _tiny(1.0):
        raise DegenerateDenominator(f"1 + lam D_gg = {denom0}")
    alpha = lam_inc * (1.0 / denom0)
    denom = d - alpha * d_g * d_g
    if denom <= _tiny(d):
        raise DegenerateDenominator(f"D - alpha D_g^2 = {denom}")
    atil = alpha / denom

    quadruple.v += (atil * w1) * dvec
    quadruple.mu0 += atil * par2.D_g * w1
    n = support.n
    if counter is not None:
        counter.total += n + 9
    if end:
        eta, eta_d_g = par2.eta, par2.D_g
        c = 1.0 / (1.0 + d_gg0)
        c_d_g = c * eta_d_g
        par1.rank1(eta, (-c) * eta[support.idx])
        par1.eta_tilde -= c_d_g * eta
        par1.D -= c_d_g * eta_d_g
        if counter is not None:
            counter.total += (n * support.size + support.size) + n + 3


def _expand_geometry(support, j, A, par1, counter=None):
    """Pivot, full-length gamma vector and new support for adding index j.

    `Support.with_added` refuses a j already in the support before any
    work.  Only the j-th row of A plus the already-live support rows are
    read, each once (A is symmetric, so row j stands for column j).  Both
    legs pivot the matrix Par1 holds, which is the stored A during either
    leg, so no rank-one term enters.
    """
    new_support = support.with_added(j)
    idx = support.idx
    mj_s = par1.M[j, :]
    aj = A[j]
    a_jj = float(aj[j])
    ajj = a_jj + float(mj_s @ aj[idx])
    if counter is not None:
        counter.total += idx.size + 2
    if ajj <= _tiny(a_jj):
        raise DegeneratePivot(f"pivot {ajj} adding index {j}")
    w = A[idx].T @ mj_s
    gamma = -(aj + w)
    if counter is not None:
        counter.total += support.n * idx.size
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
    """Block pivot on index j: M <- R_j(M) + vec vec_S' inv, and state.carry on both caches.

    An entry passes vec = gamma and inv = 1 / pivot; a leave passes vec = beta
    and inv = -1 / M_jj.  The one carry rule takes Par1's (eta_tilde, D) and
    `cache`, the leg's Par2 in either leg, through the same pivot.  The
    tally counts the six scalar products of the pivot too.
    """
    teta_j = float(par1.eta_tilde[j])
    cache.D_g = carry(cache.eta, cache.D_g, j, vec, inv, teta_j)
    par1.D = carry(par1.eta_tilde, par1.D, j, vec, inv, teta_j)
    par1.M[j, :] = 0.0
    if new_support.size > support.size:
        par1.insert_col(j, new_support)
    else:
        par1.remove_col(j, support)
    par1.rank1(vec, vec[new_support.idx] * inv)
    n, s1 = new_support.n, new_support.size
    if counter is not None:
        counter.total += s1 + n * s1 + 2 * n + 6


def expand_support_lambda(support, j, A, par1, par2, counter=None):
    """Add index j to the support; updates Par1 and the leg's Par2 in either leg.

    A is the matrix Par1 holds, whose j-th row must be current: the step's
    starting matrix in the matrix leg (the lam = 0 frame), A + g g' in the
    vector leg.  Returns the new support.
    """
    ajj, gamma, new_support = _expand_geometry(support, j, A, par1, counter=counter)
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par2, counter)
    return new_support


def shrink_support_lambda(support, j, par1, par2, counter=None):
    """Remove index j from the support; updates Par1 and the leg's Par2 in either leg."""
    mjj, beta, new_support = _shrink_geometry(support, j, par1)
    _pivot(support, new_support, j, beta, -(1.0 / mjj), par1, par2, counter)
    return new_support


def run_lambda_leg(A, g, quadruple, par1, counter=None, ensure_column=None, rebuild=None):
    """Drive the matrix leg from lam = 0 to lam = 1.

    Derives the leg's own Par2 from Par1 for direction g, mutates the
    quadruple and Par1 in place and returns the list of turning points.
    A is the step's starting matrix and stays so for the whole leg: Par1 and
    the cache hold its factorization on the current support, every toggle
    pivots it as in the vector leg, and the final advance moves Par1 to
    A + g g' with one rank-one.  So a leg that raises leaves Par1 consistent
    with A.  `ensure_column(j)` is called before any expand so a lazily kept
    A can make the needed row live.  On a degeneracy, `rebuild()` is called
    once to refactorize Par1 in place from the support rows of A; the leg
    then re-derives Par2 from it and retries at the same lam, and a second
    degeneracy propagates.

    Raises CycleLimit when the number of events exceeds CYCLE_CAP_PER_INDEX * n.
    """
    return _run_leg(
        "matrix",
        quadruple,
        derive=lambda tally: direct_update_par2(quadruple.support, par1, g, tally),
        find=lambda par2, lam, exclude: find_lambda(
            quadruple.support, quadruple, par1, par2, g, lam, exclude=exclude, counter=counter
        ),
        advance=lambda par2, inc, direction, end: update_by_lambda(
            inc, quadruple, par1, par2, direction, end, counter=counter
        ),
        shrink=lambda par2, j: shrink_support_lambda(quadruple.support, j, par1, par2, counter=counter),
        expand=lambda par2, j: expand_support_lambda(quadruple.support, j, A, par1, par2, counter=counter),
        counter=counter,
        ensure_column=ensure_column,
        rebuild=rebuild,
    )


def _run_leg(leg, quadruple, derive, find, advance, shrink, expand, counter, ensure_column, rebuild):
    """Event loop shared by both legs: advance to each turning point, toggle, repeat.

    The leg parameter runs from 0 to 1.  `derive(counter)` returns the leg's
    cache, a Par2, from the current Par1; it is tallied when the leg
    starts and untallied after a rebuild.  Every other callback takes that
    cache first: `find(cache, lam, exclude)` returns the next turning point
    from parameter lam as (increment, index, direction),
    `advance(cache, inc, direction, end)` moves the state by a parameter
    increment along that direction, with `end` set on the leg's last
    advance, and `shrink(cache, j)` / `expand(cache, j)` toggle index j and
    return the new support.  The index that just toggled is passed back as
    `exclude`, which the ratio test never returns, so no index can
    re-trigger at once; more than CYCLE_CAP_PER_INDEX * n turning points
    raise CycleLimit.  The leg wrappers pass closures that look their step
    functions up by module global at call time, so a rebinding of those
    names (for instance by a tracer) takes effect here.
    """
    cap = CYCLE_CAP_PER_INDEX * quadruple.support.n
    cache = derive(counter)
    events = []
    lam = 0.0
    exclude = None
    rebuilt = False
    while True:
        try:
            inc, j, direction = find(cache, lam, exclude)
            if not inc < 1.0 - lam:
                advance(cache, 1.0 - lam, direction, True)
                return events
            advance(cache, inc, direction, False)
            lam += inc
            if quadruple.support.mask[j]:
                new_support = shrink(cache, j)
                kind = "leave"
            else:
                if ensure_column is not None:
                    ensure_column(j)
                new_support = expand(cache, j)
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
            rebuild()
            cache = derive(None)
            exclude = None
