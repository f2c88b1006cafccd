"""Homotopy leg that moves the quadratic term from A to A + g g'.

The optimum of  0.5 x'(A + lam g g')x - c'x  over the simplex is tracked for
lam from 0 to 1.  Between turning points the support is constant and the KKT
state moves along an explicit rational curve in lam; at a turning point one
coordinate of v = (x_S, -mu_{S^c}) hits zero and the support gains or loses
exactly that index.  All updates are rank-one corrections of the cached state,
never a fresh factorization.
"""

from dataclasses import dataclass

import numpy as np

from . import counters as cnt
from .errors import CycleLimit, DegenerateDenominator, DegenerateError, DegeneratePivot, EmptySupport
from .kkt import ZETA_SCALE, zero_tol


@dataclass
class PathEvent:
    """One turning point: where it happened, which index toggled, and the support after."""

    leg: str  # "matrix" or "vector"
    param: float
    index: int
    kind: str  # "enter" or "leave"
    support_after: tuple


@dataclass
class LambdaScratch:
    """Direction data shared between find_lambda and the following update."""

    w1: float  # D_g mu0 - D_gc
    dvec: np.ndarray  # D_g eta_tilde - D eta


@dataclass
class PathStep:
    """The next turning point of a leg: increment, toggling index (None if none), direction data."""

    lam_inc: float
    j: int | None
    scratch: object


def _tiny(x):
    return ZETA_SCALE * max(1.0, abs(x))


def _first_zero(support, v, dvec, w1, exclude, counter):
    """Ratio test: the first a >= 0 at which v + a * w1 * dvec has a zero coordinate.

    Returns (a, index), or (inf, None) when no coordinate ever hits zero.
    `exclude` suppresses the index that toggled at the current parameter so a
    just-processed zero cannot re-trigger.  Indices currently parked at zero
    only fire (at a = 0) when their velocity pushes them infeasible, which
    realizes simultaneous hits as a deterministic sequence of zero-length
    increments.  Smallest index wins ties.
    """
    zeta = zero_tol(v)
    eligible = np.ones(support.n, dtype=bool)
    if exclude is not None:
        eligible[exclude] = False
    if support.size == 1:
        # A singleton support cannot lose its index: the sum constraint pins
        # x_j at one, so any leave ratio there is numerical noise.
        eligible[support.idx[0]] = False
    live = eligible & (np.abs(v) > zeta)

    # Coordinates already at zero that are being pushed infeasible must toggle
    # right now (leave needs velocity < 0, enter needs velocity > 0).
    near = np.flatnonzero(eligible & (np.abs(v) <= zeta))
    if near.size:
        u_near = w1 * dvec[near]
        cnt.add(counter, near.size)
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


def find_lambda(support, quadruple, par1, par2, exclude=None, counter=None):
    """Locate the next turning point of the matrix leg.

    v as a function of lam is v + atil(lam) * w1 * dvec where atil is a
    monotone reparametrization of lam, so the ratio test runs in atil; its
    result is mapped back to a lam increment, or infinity when no coordinate
    ever hits zero on the forward path (equivalently when the minimizing
    ratio fails alpha * D_gg < 1).
    """
    n = support.n
    d = par1.D
    d_g, d_gg, d_gc = par2.D_g, par2.D_gg, par2.D_gc
    w1 = d_g * quadruple.mu0 - d_gc
    dvec = d_g * par1.eta_tilde - d * par2.eta
    cnt.add(counter, 2 * n + 1)
    scratch = LambdaScratch(w1, dvec)

    atil, j = _first_zero(support, quadruple.v, dvec, w1, exclude, counter)
    if j is None:
        return PathStep(np.inf, None, scratch)
    alpha = atil * d / (1.0 + atil * d_g * d_g)
    if alpha * d_gg >= 1.0:
        return PathStep(np.inf, None, scratch)
    lam_inc = max(alpha / (1.0 - alpha * d_gg), 0.0)
    return PathStep(lam_inc, j, scratch)


def update_by_lambda(lam_inc, quadruple, par1, par2, scratch, counter=None):
    """Advance the quadruple and both caches by a lam increment.

    `scratch` is the direction data of the find_lambda call at this state.
    Every right-hand side uses the values from before the call; the scalars
    are rescaled last for that reason.  Raises DegenerateDenominator when the
    update denominators lose positivity, which signals a rebuild.
    """
    if not (np.isfinite(lam_inc) and lam_inc >= 0.0):
        raise ValueError(f"lam_inc must be finite and nonnegative, got {lam_inc}")
    support = quadruple.support
    d = par1.D
    d_g, d_gg, d_gc = par2.D_g, par2.D_gg, par2.D_gc
    denom0 = 1.0 + lam_inc * d_gg
    if denom0 <= _tiny(1.0):
        raise DegenerateDenominator(f"1 + lam D_gg = {denom0}")
    alpha0 = 1.0 / denom0
    alpha = lam_inc * alpha0
    denom = d - alpha * d_g * d_g
    if denom <= _tiny(d):
        raise DegenerateDenominator(f"D - alpha D_g^2 = {denom}")
    atil = alpha / denom
    w1, dvec = scratch.w1, scratch.dvec

    quadruple.v += (atil * w1) * dvec
    quadruple.mu0 += atil * d_g * w1

    eta = par2.eta
    par1.rank1(eta, (-alpha) * eta[support.idx])
    par1.eta_tilde -= (alpha * d_g) * eta
    par1.D = denom
    par2.eta = alpha0 * eta
    par2.D_g = alpha0 * d_g
    par2.D_gg = alpha0 * d_gg
    par2.D_gc = alpha0 * d_gc
    n, s = support.n, support.size
    cnt.add(counter, (n * s + s) + 3 * n + n + 12)
    return quadruple, par1, par2


def _expand_geometry(support, j, A, par1, lam_eta_g=0.0, gvec=None, counter=None):
    """Pivot and full-length gamma vector for adding index j to the support.

    Only the j-th row of A plus the already-live support rows are read (A is
    symmetric, so row j stands for column j).  The optional lam * eta_j
    correction folds in the rank-one term when the matrix is still
    parametrized by lam.
    """
    if support.contains(j):
        raise ValueError(f"index {j} already in support")
    idx = support.idx
    mj_s = par1.M[j, :]
    ajj = float(A[j, j]) + float(mj_s @ A[j, idx]) + lam_eta_g * (float(gvec[j]) if gvec is not None else 0.0)
    cnt.add(counter, idx.size + 2)
    if ajj <= _tiny(float(A[j, j])):
        raise DegeneratePivot(f"pivot {ajj} adding index {j}")
    w = A[idx].T @ mj_s
    gamma = -(A[j] + w)
    cnt.add(counter, support.n * idx.size)
    if gvec is not None and lam_eta_g != 0.0:
        gamma -= lam_eta_g * gvec
        cnt.add(counter, support.n)
    gamma[idx] = mj_s
    gamma[j] = 1.0
    return ajj, gamma


def _shrink_geometry(support, j, par1):
    """Pivot M_jj and full-length beta vector (column j of M, -1 at j) for removing index j."""
    if not support.contains(j):
        raise ValueError(f"index {j} not in support")
    if support.size < 2:
        raise EmptySupport("cannot shrink a singleton support")
    beta = par1.col(j, support)
    mjj = float(beta[j])
    if mjj <= _tiny(1.0):
        raise DegeneratePivot(f"pivot {mjj} removing index {j}")
    beta[j] = -1.0
    return mjj, beta


def _pivot(support, new_support, j, vec, inv, par1, cache, b, counter):
    """Block pivot on index j: M <- R_j(M) + vec vec_S' inv, and the same on the caches.

    An entry passes vec = gamma and inv = 1 / pivot; a leave passes vec = beta
    and inv = -1 / M_jj.  `cache` (Par2 or Par3) applies its own part, with
    `b` the linear-term pivot product Par2 needs.
    """
    teta_j = float(par1.eta_tilde[j])
    par1.D += teta_j * teta_j * inv
    cache.pivot(j, vec, inv, teta_j, b)
    par1.zero_row(j)
    if new_support.size > support.size:
        par1.insert_col(j, new_support)
    else:
        par1.remove_col(j, support)
    par1.rank1(vec, vec[new_support.idx] * inv)
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde += (teta_j * inv) * vec
    n, s1 = new_support.n, new_support.size
    cnt.add(counter, s1 + n * s1 + 2 * n)


def expand_support_lambda(lam, support, j, A, c, g, par1, par2, counter=None):
    """Add index j to the support at parameter lam; updates Par1 and Par2.

    Requires the j-th row of A to be current.  Returns the new support.
    """
    ajj, gamma = _expand_geometry(
        support, j, A, par1, lam_eta_g=lam * float(par2.eta[j]), gvec=g, counter=counter
    )
    new_support = support.with_added(j)
    b = -float(c[new_support.idx] @ gamma[new_support.idx])
    cnt.add(counter, new_support.size + 8)
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par2, b, counter)
    return new_support


def shrink_support_lambda(support, j, c, par1, par2, counter=None):
    """Remove index j from the support; updates Par1 and Par2."""
    mjj, beta = _shrink_geometry(support, j, par1)
    new_support = support.with_removed(j)
    idx2 = new_support.idx
    b = -float(c[idx2] @ beta[idx2]) - float(c[j]) * mjj
    cnt.add(counter, idx2.size + 9)
    _pivot(support, new_support, j, beta, -(1.0 / mjj), par1, par2, b, counter)
    return new_support


def run_lambda_leg(
    A,
    c,
    g,
    quadruple,
    par1,
    par2,
    counter=None,
    cycle_cap=None,
    ensure_column=None,
    rebuild=None,
):
    """Drive the matrix leg from lam = 0 to lam = 1.

    Mutates the quadruple and the caches in place and returns the list of
    turning points.  `ensure_column(j)` is called before any expand so a
    lazily maintained A can refresh the needed row.  `rebuild(lam)` may
    refresh the caches in place after a degeneracy; it is tried once, after
    which the error propagates.

    Raises CycleLimit when the number of events exceeds the cap (default 10n).
    """
    return _run_leg(
        "matrix",
        quadruple,
        find=lambda exclude: find_lambda(quadruple.support, quadruple, par1, par2, exclude=exclude, counter=counter),
        advance=lambda inc, scratch: update_by_lambda(inc, quadruple, par1, par2, scratch=scratch, counter=counter),
        shrink=lambda j: shrink_support_lambda(quadruple.support, j, c, par1, par2, counter=counter),
        expand=lambda lam, j: expand_support_lambda(lam, quadruple.support, j, A, c, g, par1, par2, counter=counter),
        cycle_cap=cycle_cap,
        ensure_column=ensure_column,
        rebuild=rebuild,
    )


def _run_leg(leg, quadruple, find, advance, shrink, expand, cycle_cap, ensure_column, rebuild):
    """Event loop shared by both legs: advance to each turning point, toggle, repeat.

    The leg parameter runs from 0 to 1.  `find(exclude)` returns the next
    turning point, `advance(inc, scratch)` moves the state by a parameter
    increment, `shrink(j)` / `expand(lam, j)` toggle index j and return the
    new support.  The leg wrappers pass closures that look their step
    functions up by module global at call time, so a rebinding of those names
    (for instance by a tracer) takes effect here.
    """
    n = quadruple.support.n
    cap = 10 * n if cycle_cap is None else cycle_cap
    events = []
    lam = 0.0
    exclude = None
    rebuilt = False
    last = None
    while True:
        try:
            step = find(exclude)
            inc = step.lam_inc
            if not np.isfinite(inc) or inc >= 1.0 - lam:
                advance(1.0 - lam, step.scratch)
                return events
            advance(inc, step.scratch)
            lam += inc
            j = step.j
            if last is not None and last[0] == j and abs(lam - last[1]) <= _tiny(lam):
                raise DegeneratePivot(f"index {j} re-triggered at {leg} leg parameter {lam}")
            if quadruple.support.contains(j):
                new_support = shrink(j)
                kind = "leave"
            else:
                if ensure_column is not None:
                    ensure_column(j)
                new_support = expand(lam, j)
                kind = "enter"
            quadruple.support = new_support
            quadruple.v[j] = 0.0
            events.append(PathEvent(leg, lam, j, kind, new_support.as_tuple()))
            if len(events) > cap:
                raise CycleLimit(f"{leg} leg exceeded {cap} turning points")
            exclude = j
            last = (j, lam)
        except DegenerateError:
            if rebuilt or rebuild is None:
                raise
            rebuilt = True
            rebuild(lam)
            exclude = None
            last = None
