"""Homotopy leg that moves the linear term from c to c + l.

With the matrix frozen, the KKT state is exactly affine in the leg parameter:
v moves along v - (xi - (D_l / D) eta_tilde) * t and mu0 along
mu0 + (D_l / D) * t, so locating turning points reduces to n scalar ratio
tests and the between-event updates are division-free.  Support changes reuse
the same block pivot machinery as the matrix leg, only now applied to Par3.
"""

from dataclasses import dataclass

import numpy as np

from . import counters as cnt
from .errors import DegeneratePivot, EmptySupport
from .kkt import ZETA_SCALE, zero_tol
from .path_matrix import _apply_expand_m, _apply_shrink_m, _expand_geometry, _run_leg, _tiny, _toggled


@dataclass
class UtildeScratch:
    """Affine velocity of the vector leg, shared between find and update."""

    q: float  # D_l / D
    d: np.ndarray  # xi - (D_l / D) eta_tilde


@dataclass
class UtildeStep:
    lam_inc: float
    j: int | None
    support_new: object
    scratch: UtildeScratch


def _velocity(par1, par3, counter=None):
    q = par3.D_l / par1.D
    d = par3.xi - q * par1.eta_tilde
    cnt.add(counter, par1.eta_tilde.size)
    return UtildeScratch(q, d)


def find_utilde_lambda(support, quadruple, par1, par3, exclude=None, counter=None):
    """Locate the next turning point of the vector leg.

    v(t) = v - d * t, so coordinate i crosses zero at t = v_i / d_i.  Smallest
    positive crossing wins (smallest index on ties); infinity when no
    coordinate crosses on [0, inf).  Zero-parked coordinates fire immediately
    when their velocity pushes them infeasible, except the just-toggled
    `exclude` index.
    """
    v = quadruple.v
    scratch = _velocity(par1, par3, counter=counter)
    d = scratch.d

    zeta = zero_tol(v)
    eligible = np.ones(support.n, dtype=bool)
    if exclude is not None:
        eligible[exclude] = False
    if support.size == 1:
        # Sum-to-one pins the lone support coordinate at one; see find_lambda.
        eligible[support.idx[0]] = False
    live = eligible & (np.abs(v) > zeta)

    near = np.flatnonzero(eligible & (np.abs(v) <= zeta))
    if near.size:
        d_near = d[near]
        zeta_d = ZETA_SCALE * max(1.0, float(np.max(np.abs(d_near))))
        inward = np.where(support.mask[near], d_near > zeta_d, d_near < -zeta_d)
        hits = near[inward]
        if hits.size:
            j = int(hits[0])
            return UtildeStep(0.0, j, _toggled(support, j), scratch)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = v / d
    cand = live & np.isfinite(ratios) & (ratios > 0.0)
    if not cand.any():
        return UtildeStep(np.inf, None, support, scratch)
    masked = np.where(cand, ratios, np.inf)
    j = int(np.argmin(masked))
    return UtildeStep(float(masked[j]), j, _toggled(support, j), scratch)


def update_by_utilde_lambda(lam_inc, quadruple, par1, par3, scratch=None, counter=None):
    """Advance v and mu0 by a vector-leg increment; the caches are untouched."""
    if not (np.isfinite(lam_inc) and lam_inc >= 0.0):
        raise ValueError(f"lam_inc must be finite and nonnegative, got {lam_inc}")
    if scratch is None:
        scratch = _velocity(par1, par3, counter=counter)
    quadruple.v -= lam_inc * scratch.d
    quadruple.mu0 += scratch.q * lam_inc
    cnt.add(counter, quadruple.v.size + 1)
    return quadruple


def expand_support_utilde(support, j, A, l, par1, par3, counter=None):
    """Add index j during the vector leg; updates Par1 and Par3.

    The matrix is frozen here, so the pivot carries no lam correction; A must
    already include the step's rank-one update in column j.
    """
    if support.contains(j):
        raise ValueError(f"index {j} already in support")
    xi_j = float(par3.xi[j])
    teta_j = float(par1.eta_tilde[j])
    ajj, gamma = _expand_geometry(support, j, A, par1, counter=counter)
    support_new = support.with_added(j)
    inv = 1.0 / ajj
    par1.D += teta_j * teta_j * inv
    par3.D_l += xi_j * teta_j * inv
    cnt.add(counter, 6)
    _apply_expand_m(par1, support_new, j, gamma, inv, counter=counter)
    par3.xi[j] = 0.0
    par3.xi += (xi_j * inv) * gamma
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde += (teta_j * inv) * gamma
    cnt.add(counter, 2 * support.n)
    return support_new


def shrink_support_utilde(support, j, l, par1, par3, counter=None):
    """Remove index j during the vector leg; updates Par1 and Par3."""
    if not support.contains(j):
        raise ValueError(f"index {j} not in support")
    if support.size < 2:
        raise EmptySupport("cannot shrink a singleton support")
    colj = par1.col(j, support)
    mjj = par1.mjj(j, support)
    if mjj <= _tiny(1.0):
        raise DegeneratePivot(f"pivot {mjj} removing index {j}")
    support_new = support.with_removed(j)
    beta = colj.copy()
    beta[j] = -1.0
    btil_s = colj[support_new.idx]
    xi_j = float(par3.xi[j])
    teta_j = float(par1.eta_tilde[j])
    inv = 1.0 / mjj
    par1.D -= teta_j * teta_j * inv
    par3.D_l -= xi_j * teta_j * inv
    cnt.add(counter, 6)
    _apply_shrink_m(par1, support, support_new, j, beta, btil_s, inv, counter=counter)
    par3.xi[j] = 0.0
    par3.xi -= (xi_j * inv) * beta
    par1.eta_tilde[j] = 0.0
    par1.eta_tilde -= (teta_j * inv) * beta
    cnt.add(counter, 2 * support.n)
    return support_new


def run_utilde_leg(
    A,
    l,
    quadruple,
    par1,
    par3,
    counter=None,
    cycle_cap=None,
    ensure_column=None,
    rebuild=None,
):
    """Drive the vector leg from t = 0 to t = 1.

    Mirror image of run_lambda_leg with the matrix frozen: mutates the
    quadruple and caches in place, returns the turning points, retries once
    through `rebuild(t)` on a degeneracy, and enforces the event cap.
    """
    return _run_leg(
        "vector",
        quadruple,
        find=lambda exclude: find_utilde_lambda(
            quadruple.support, quadruple, par1, par3, exclude=exclude, counter=counter
        ),
        advance=lambda inc, scratch: update_by_utilde_lambda(
            inc, quadruple, par1, par3, scratch=scratch, counter=counter
        ),
        shrink=lambda j: shrink_support_utilde(quadruple.support, j, l, par1, par3, counter=counter),
        expand=lambda _t, j: expand_support_utilde(quadruple.support, j, A, l, par1, par3, counter=counter),
        cycle_cap=cycle_cap,
        ensure_column=ensure_column,
        rebuild=rebuild,
    )
