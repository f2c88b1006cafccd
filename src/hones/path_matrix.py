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

    @property
    def u(self):
        """Velocity of v in the reparametrized path coordinate."""
        return self.w1 * self.dvec


@dataclass
class LambdaStep:
    lam_inc: float
    j: int | None
    support_new: object
    scratch: LambdaScratch


def _tiny(x):
    return ZETA_SCALE * max(1.0, abs(x))


def find_lambda(support, quadruple, par1, par2, exclude=None, counter=None):
    """Locate the next turning point of the matrix leg.

    v as a function of lam is v + atil(lam) * w1 * dvec where atil is a
    monotone reparametrization of lam, so coordinate i crosses zero at
    atil = -v_i / (w1 * dvec_i).  The smallest positive crossing wins; the
    result is mapped back to a lam increment, or infinity when no coordinate
    ever hits zero on the forward path (equivalently when the minimizing
    ratio fails alpha * D_gg < 1).

    `exclude` suppresses the index that toggled at the current parameter so a
    just-processed zero cannot re-trigger.  Indices currently parked at zero
    only fire when their velocity pushes them infeasible, which realizes
    simultaneous hits as a deterministic sequence of zero-length increments.
    """
    v = quadruple.v
    n = support.n
    d = par1.D
    d_g, d_gg, d_gc = par2.D_g, par2.D_gg, par2.D_gc
    w1 = d_g * quadruple.mu0 - d_gc
    dvec = d_g * par1.eta_tilde - d * par2.eta
    cnt.add(counter, 2 * n + 1)
    scratch = LambdaScratch(w1, dvec)

    zeta = zero_tol(v)
    eligible = np.ones(n, dtype=bool)
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
            j = int(hits[0])
            return LambdaStep(0.0, j, _toggled(support, j), scratch)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = -v / dvec
    if w1 > 0.0:
        cand = live & np.isfinite(ratios) & (ratios > 0.0)
        if not cand.any():
            return LambdaStep(np.inf, None, support, scratch)
        masked = np.where(cand, ratios, np.inf)
        j = int(np.argmin(masked))
        atil = float(masked[j]) / w1
    elif w1 < 0.0:
        cand = live & np.isfinite(ratios) & (ratios < 0.0)
        if not cand.any():
            return LambdaStep(np.inf, None, support, scratch)
        masked = np.where(cand, ratios, -np.inf)
        j = int(np.argmax(masked))
        atil = float(masked[j]) / w1
    else:
        return LambdaStep(np.inf, None, support, scratch)

    alpha = atil * d / (1.0 + atil * d_g * d_g)
    if alpha * d_gg >= 1.0:
        return LambdaStep(np.inf, None, support, scratch)
    lam_inc = max(alpha / (1.0 - alpha * d_gg), 0.0)
    return LambdaStep(lam_inc, j, _toggled(support, j), scratch)


def _toggled(support, j):
    return support.with_removed(j) if support.contains(j) else support.with_added(j)


def update_by_lambda(lam_inc, quadruple, par1, par2, scratch=None, counter=None):
    """Advance the quadruple and both caches by a lam increment.

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

    if scratch is None:
        w1 = d_g * quadruple.mu0 - d_gc
        dvec = d_g * par1.eta_tilde - d * par2.eta
        cnt.add(counter, 2 * support.n + 1)
    else:
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

    Only the j-th column of A plus the already-live support columns are read.
    The optional lam * eta_j correction folds in the rank-one term when the
    matrix is still parametrized by lam.
    """
    idx = support.idx
    mj_s = par1.M[j, :]
    ajj = float(A[j, j]) + float(mj_s @ A[idx, j]) + lam_eta_g * (float(gvec[j]) if gvec is not None else 0.0)
    cnt.add(counter, idx.size + 2)
    if ajj <= _tiny(float(A[j, j])):
        raise DegeneratePivot(f"pivot {ajj} adding index {j}")
    w = A[:, idx] @ mj_s
    gamma = -(A[:, j] + w)
    cnt.add(counter, support.n * idx.size)
    if gvec is not None and lam_eta_g != 0.0:
        gamma -= lam_eta_g * gvec
        cnt.add(counter, support.n)
    gamma[idx] = mj_s
    gamma[j] = 1.0
    return ajj, gamma


def _apply_expand_m(par1, support_new, j, gamma, inv, counter=None):
    """R_j(M) + gamma gamma_tilde' / pivot, restricted to the new support columns."""
    par1.zero_row(j)
    par1.insert_col(j, support_new)
    coef = gamma[support_new.idx] * inv
    par1.rank1(gamma, coef)
    n, s1 = support_new.n, support_new.size
    cnt.add(counter, s1 + n * s1)


def expand_support_lambda(lam, support, j, A, c, g, par1, par2, counter=None):
    """Add index j to the support at parameter lam; updates Par1 and Par2.

    Requires the j-th column of A to be current.  Returns the new support.
    """
    if support.contains(j):
        raise ValueError(f"index {j} already in support")
    eta_j = float(par2.eta[j])
    teta_j = float(par1.eta_tilde[j])
    ajj, gamma = _expand_geometry(
        support, j, A, par1, lam_eta_g=lam * eta_j, gvec=g, counter=counter
    )
    support_new = support.with_added(j)
    inv = 1.0 / ajj
    b = -float(c[support_new.idx] @ gamma[support_new.idx])
    cnt.add(counter, support_new.size + 8)
    par1.D += teta_j * teta_j * inv
    par2.D_g += eta_j * teta_j * inv
    par2.D_gg += eta_j * eta_j * inv
    par2.D_gc += eta_j * b * inv
    _apply_expand_m(par1, support_new, j, gamma, inv, counter=counter)
    par2.eta[j] = 0.0
    par2.eta += (eta_j * inv) * gamma
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde += (teta_j * inv) * gamma
    cnt.add(counter, 2 * support.n)
    return support_new


def _apply_shrink_m(par1, support, support_new, j, beta, btil_s, inv, counter=None):
    par1.zero_row(j)
    par1.remove_col(j, support)
    coef = btil_s * (-inv)
    par1.rank1(beta, coef)
    n, s1 = support_new.n, support_new.size
    cnt.add(counter, s1 + n * s1)


def shrink_support_lambda(support, j, c, par1, par2, counter=None):
    """Remove index j from the support; updates Par1 and Par2."""
    if not support.contains(j):
        raise ValueError(f"index {j} not in support")
    if support.size < 2:
        raise EmptySupport("cannot shrink a singleton support")
    colj = par1.col(j, support)
    mjj = par1.mjj(j, support)
    if mjj <= _tiny(1.0):
        raise DegeneratePivot(f"pivot {mjj} removing index {j}")
    support_new = support.with_removed(j)
    idx2 = support_new.idx
    beta = colj.copy()
    beta[j] = -1.0
    btil_s = colj[idx2]
    eta_j = float(par2.eta[j])
    teta_j = float(par1.eta_tilde[j])
    btilde = -float(c[idx2] @ btil_s) - float(c[j]) * mjj
    cnt.add(counter, idx2.size + 9)
    inv = 1.0 / mjj
    par1.D -= teta_j * teta_j * inv
    par2.D_g -= eta_j * teta_j * inv
    par2.D_gg -= eta_j * eta_j * inv
    par2.D_gc -= eta_j * btilde * inv
    _apply_shrink_m(par1, support, support_new, j, beta, btil_s, inv, counter=counter)
    par2.eta[j] = 0.0
    par2.eta -= (eta_j * inv) * beta
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde -= (teta_j * inv) * beta
    cnt.add(counter, 2 * support.n)
    return support_new


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
    lazily maintained A can refresh the needed column.  `rebuild(lam)` may
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
                support_new = shrink(j)
                kind = "leave"
            else:
                if ensure_column is not None:
                    ensure_column(j)
                support_new = expand(lam, j)
                kind = "enter"
            quadruple.support = support_new
            quadruple.v[j] = 0.0
            events.append(PathEvent(leg, lam, j, kind, support_new.as_tuple()))
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
