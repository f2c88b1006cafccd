"""Homotopy leg that moves the linear term from c to c + l.

With the matrix frozen, the KKT state is exactly affine in the leg parameter:
with the leg cache xi = -(M + I_{S^c}) l and D_l = 1'xi_S (state.Par2 for
u = -l, whose fields are eta and D_g), v moves along
v - (xi - (D_l / D) eta_tilde) * t and mu0 along mu0 + (D_l / D) * t, so the
between-event updates are division-free.  The rest is the matrix leg's
machinery: the ratio test is path_matrix's _first_zero with weight -1, a
support change is path_matrix's _pivot, which carries the cache through
Par2.pivot as in the matrix leg, and the event loop is path_matrix._run_leg.
find_utilde_lambda returns (t increment, index, direction) with the
direction (q, d) = (D_l / D, xi - q eta_tilde), which is all
update_by_utilde_lambda reads.

In exact arithmetic the gauge leaves the shipped flows a drift of beta 1,
whose velocity is zero, but in floating point every ons step and every fused
synthetic step leaves a rounding-level remainder, so the leg runs there and
almost never turns.  Such a leg ends at its first ratio test by a sign
certificate (`_sign_certificate`): when no entry of v is near zero and every
v_i - d_i has the sign of v_i, no coordinate reaches zero for t in [0, 1],
and the full ratio test, which would return no index or an increment of at
least 1, is skipped.
"""

import numpy as np

from .kkt import ZETA_SCALE
from .path_matrix import _expand_geometry, _first_zero, _pivot, _run_leg, _shrink_geometry
from .state import direct_update_par3


def find_utilde_lambda(support, quadruple, par1, par2, exclude=None, counter=None):
    """Locate the next turning point of the vector leg: (t increment, index, direction).

    v(t) = v - d * t, so coordinate i crosses zero at t = v_i / d_i: the
    matrix leg's ratio test with weight -1.  When `_sign_certificate` shows
    that no coordinate reaches zero before t = 1, it returns (inf, None,
    direction) without that test; _run_leg then takes the same final
    advance.  Only the velocity enters the multiplication tally.
    """
    q = par2.D_g / par1.D
    d = par2.eta - q * par1.eta_tilde
    if counter is not None:
        counter.total += d.size
    v = quadruple.v
    if _sign_certificate(v, d):
        return np.inf, None, (q, d)
    lam_inc, j = _first_zero(support, v, d, -1.0, exclude, None)
    return lam_inc, j, (q, d)


def _sign_certificate(v, d):
    """True when v - d * t has no zero for t in [0, 1] that _first_zero could report below 1.

    It holds when every |v_i| exceeds _first_zero's own zero threshold, so
    no entry counts as parked at zero, and every v_i - d_i has the sign of
    v_i.  Then either v_i / d_i is not positive, or d_i lies strictly
    between 0 and v_i and the rounded ratio is at least 1, so the ratio test
    would return no index or an increment of at least 1, and the leg would
    take the same final advance.  The signs are exact: a rounded difference
    is zero only when the operands are equal, and sign(v_i) is +-1, so the
    product by it neither rounds nor overflows.  A NaN in v or d fails the
    test.
    """
    av = np.abs(v)
    vmax = float(np.maximum.reduce(av))
    # _first_zero's threshold, kkt._tiny(vmax) written out as it is there.
    if not np.minimum.reduce(av) > ZETA_SCALE * (vmax if vmax > 1.0 else 1.0):
        return False
    return bool(np.minimum.reduce(np.sign(v) * (v - d)) > 0.0)


def update_by_utilde_lambda(lam_inc, quadruple, direction, counter=None):
    """Advance v and mu0 along the direction (q, d) of find_utilde_lambda; the caches are untouched.

    `lam_inc` is finite and nonnegative, as in update_by_lambda.
    """
    q, d = direction
    quadruple.v -= lam_inc * d
    quadruple.mu0 += q * lam_inc
    if counter is not None:
        counter.total += quadruple.v.size + 1


def expand_support_utilde(support, j, A, par1, par2, counter=None):
    """Add index j during the vector leg; updates Par1 and the leg's Par2.

    A must already include the step's rank-one update in row j.
    """
    ajj, gamma, new_support = _expand_geometry(support, j, A, par1, counter=counter)
    _pivot(support, new_support, j, gamma, 1.0 / ajj, par1, par2, counter)
    return new_support


def shrink_support_utilde(support, j, par1, par2, counter=None):
    """Remove index j during the vector leg; updates Par1 and the leg's Par2."""
    mjj, beta, new_support = _shrink_geometry(support, j, par1)
    _pivot(support, new_support, j, beta, -(1.0 / mjj), par1, par2, counter)
    return new_support


def run_utilde_leg(A, l, quadruple, par1, counter=None, ensure_column=None, rebuild=None):
    """Drive the vector leg from t = 0 to t = 1.

    Mirror image of run_lambda_leg for the linear term: derives the leg's
    own Par2 from Par1 for drift l, mutates the quadruple and Par1 in place,
    returns the turning points, and enforces the same event cap.  On a
    degeneracy, `rebuild()` is called once to refactorize Par1 in place from
    the support rows of A; the leg then re-derives its Par2 and retries.

    An all-zero drift (every markowitz step) returns no turning points at
    once, with no cache, ratio test or advance: its velocity is exactly zero,
    so the advance would only add signed zeros to v and mu0.  A nonzero
    drift runs the leg even when it is only rounding (every ons step, and
    every fused synthetic step); where find_utilde_lambda's sign certificate
    holds (it did on every ons step measured), the leg ends after that one
    cheap test instead of a full ratio test.
    """
    if not np.logical_or.reduce(l):
        return []
    return _run_leg(
        "vector",
        quadruple,
        derive=lambda tally: direct_update_par3(quadruple.support, par1, l, tally),
        find=lambda par2, _t, exclude: find_utilde_lambda(
            quadruple.support, quadruple, par1, par2, exclude=exclude, counter=counter
        ),
        advance=lambda _par2, inc, direction, _end: update_by_utilde_lambda(inc, quadruple, direction, counter=counter),
        shrink=lambda par2, j: shrink_support_utilde(quadruple.support, j, par1, par2, counter=counter),
        expand=lambda par2, j: expand_support_utilde(quadruple.support, j, A, par1, par2, counter=counter),
        counter=counter,
        ensure_column=ensure_column,
        rebuild=rebuild,
    )
