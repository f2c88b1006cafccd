"""Homotopy leg that moves the linear term from c to c + l.

With the matrix frozen, the KKT state is exactly affine in the leg parameter:
v moves along v - (xi - (D_l / D) eta_tilde) * t and mu0 along
mu0 + (D_l / D) * t, so the between-event updates are division-free.  The
rest is the matrix leg's machinery: the ratio test is path_matrix's
_first_zero with weight -1, and a support change is path_matrix's _pivot
with Par3 as the cache, through Par3.pivot.
"""

from dataclasses import dataclass

import numpy as np

from . import counters as cnt
from .path_matrix import PathStep, _expand_geometry, _first_zero, _pivot, _run_leg, _shrink_geometry


@dataclass
class UtildeScratch:
    """Affine velocity of the vector leg, shared between find and update."""

    q: float  # D_l / D
    d: np.ndarray  # xi - (D_l / D) eta_tilde


def find_utilde_lambda(support, quadruple, par1, par3, exclude=None, counter=None):
    """Locate the next turning point of the vector leg.

    v(t) = v - d * t, so coordinate i crosses zero at t = v_i / d_i: the
    matrix leg's ratio test with weight -1.  Only the velocity enters the
    multiplication tally.
    """
    q = par3.D_l / par1.D
    d = par3.xi - q * par1.eta_tilde
    cnt.add(counter, d.size)
    lam_inc, j = _first_zero(support, quadruple.v, d, -1.0, exclude, None)
    return PathStep(lam_inc, j, UtildeScratch(q, d))


def update_by_utilde_lambda(lam_inc, quadruple, par1, par3, scratch, counter=None):
    """Advance v and mu0 along the velocity that find_utilde_lambda put in `scratch`; caches are untouched."""
    if not (np.isfinite(lam_inc) and lam_inc >= 0.0):
        raise ValueError(f"lam_inc must be finite and nonnegative, got {lam_inc}")
    quadruple.v -= lam_inc * scratch.d
    quadruple.mu0 += scratch.q * lam_inc
    cnt.add(counter, quadruple.v.size + 1)
    return quadruple


def expand_support_utilde(support, j, A, l, par1, par3, counter=None):
    """Add index j during the vector leg; updates Par1 and Par3.

    The matrix is frozen here, so the pivot carries no lam correction; A must
    already include the step's rank-one update in row j.
    """
    ajj, gamma = _expand_geometry(support, j, A, par1, counter=counter)
    new_support = support.with_added(j)
    cnt.add(counter, 6)
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par3, None, counter)
    return new_support


def shrink_support_utilde(support, j, l, par1, par3, counter=None):
    """Remove index j during the vector leg; updates Par1 and Par3."""
    mjj, beta = _shrink_geometry(support, j, par1)
    new_support = support.with_removed(j)
    cnt.add(counter, 6)
    _pivot(support, new_support, j, beta, -(1.0 / mjj), par1, par3, None, counter)
    return new_support


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
