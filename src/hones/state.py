"""Cached intermediate state that makes every path step cheap.

Three bundles are maintained alongside the KKT quadruple:

  Par1 = {M, eta_tilde, D}      shared across steps; M is the n x |S| block of
                                live columns: A_SS^{-1} on the support rows and
                                -A_{S^c S} A_SS^{-1} below.  Column k belongs
                                to the k-th support index in increasing order.
  Par2 = {eta, D_g, D_gg, D_gc} specific to one rank-one direction g; it lasts
                                one matrix leg.
  Par3 = {xi, D_l}              specific to one linear-term drift l; it lasts
                                one vector leg.

Only Par1 outlives a step: the driver derives Par2 and Par3 from it by the
direct_update_* products when their legs start.  Everything can be recomputed
from scratch by factorization (init_par1); the path modules keep the same
objects current with rank-one corrections, and validate_state measures how far
they have drifted.  At a turning point path_matrix._pivot applies the block
pivot to Par1 and hands the same pivot vector to Par2.pivot or Par3.pivot,
whichever cache the leg carries.
"""

from dataclasses import dataclass, field

import numpy as np

from . import counters as cnt
from .kkt import DEFAULT_COND_CAP, check_block

class Par1:
    """Inverse-block cache M plus eta_tilde = (M + I_{S^c}) 1 and D = 1' A_SS^{-1} 1.

    M is stored as the n x |S| block of live columns; the columns of the full
    inverse-block matrix off the support are structurally zero and not kept.
    """

    __slots__ = ("M", "eta_tilde", "D")

    def __init__(self, M, eta_tilde, D):
        self.M = M
        self.eta_tilde = eta_tilde
        self.D = float(D)

    def copy(self):
        return Par1(self.M.copy(), self.eta_tilde.copy(), self.D)

    # -- reads and updates used by the path legs ----------------------------

    def col(self, j, support):
        """Column j of M (j must be in the support) as a full-length vector."""
        pos = int(np.searchsorted(support.idx, j))
        return self.M[:, pos].copy()

    def rank1(self, u, coef_s):
        """M += outer(u, coef_s) in place."""
        self.M += np.outer(u, coef_s)

    def zero_row(self, j):
        self.M[j, :] = 0.0

    def insert_col(self, j, support_after):
        """Make room for a new zero column j."""
        pos = int(np.searchsorted(support_after.idx, j))
        self.M = np.insert(self.M, pos, 0.0, axis=1)

    def remove_col(self, j, support_before):
        pos = int(np.searchsorted(support_before.idx, j))
        self.M = np.delete(self.M, pos, axis=1)

    def refresh_from(self, other):
        """Adopt another Par1's fields in place, preserving object identity."""
        self.M = other.M
        self.eta_tilde = other.eta_tilde
        self.D = other.D


@dataclass
class Par2:
    """Direction-specific cache: eta = (M + I_{S^c}) g and three inner products."""

    eta: np.ndarray
    D_g: float
    D_gg: float
    D_gc: float
    g: np.ndarray = field(repr=False)

    def copy(self):
        return Par2(self.eta.copy(), self.D_g, self.D_gg, self.D_gc, self.g)

    def pivot(self, j, vec, inv, teta_j, b):
        """Carry the cache through a block pivot on j (see path_matrix._pivot)."""
        eta_j = float(self.eta[j])
        self.D_g += eta_j * teta_j * inv
        self.D_gg += eta_j * eta_j * inv
        self.D_gc += eta_j * b * inv
        self.eta[j] = 0.0
        self.eta += (eta_j * inv) * vec

    def refresh_from(self, other):
        self.eta = other.eta
        self.D_g, self.D_gg, self.D_gc = other.D_g, other.D_gg, other.D_gc
        self.g = other.g


@dataclass
class Par3:
    """Drift-specific cache: xi = -(M + I_{S^c}) l and D_l = 1' xi_S."""

    xi: np.ndarray
    D_l: float
    l: np.ndarray = field(repr=False)

    def pivot(self, j, vec, inv, teta_j, b):
        """Carry the cache through a block pivot on j; the drift needs no `b`."""
        xi_j = float(self.xi[j])
        self.D_l += xi_j * teta_j * inv
        self.xi[j] = 0.0
        self.xi += (xi_j * inv) * vec

    def refresh_from(self, other):
        self.xi = other.xi
        self.D_l = other.D_l
        self.l = other.l


def par1_from_matrix(A, support, cond_cap=DEFAULT_COND_CAP):
    """Build Par1 by direct factorization of A_SS.

    Accepts the raw matrix so the driver can rebuild from its lazily updated
    copy; only the support rows of A are read (A is symmetric, so they stand
    for its support columns).  Raises SingularSubmatrix when kkt.check_block
    refuses A_SS.
    """
    idx = support.idx
    n = A.shape[0]
    # Column k of both blocks is read from row idx[k] of A.
    ass = np.ascontiguousarray(A[np.ix_(idx, idx)].T)
    check_block(ass, support, cond_cap)
    inv = np.linalg.solve(ass, np.eye(idx.size))
    inv = 0.5 * (inv + inv.T)
    cols = np.empty((n, idx.size))
    cols[idx, :] = inv
    comp = support.complement()
    if comp.size:
        cols[comp, :] = -np.ascontiguousarray(A[np.ix_(idx, comp)].T) @ inv
    eta_tilde = cols @ np.ones(idx.size)
    if comp.size:
        eta_tilde[comp] += 1.0
    D = float(np.sum(eta_tilde[idx]))
    return Par1(cols, eta_tilde, D)


def init_par1(problem, support, cond_cap=DEFAULT_COND_CAP):
    return par1_from_matrix(problem.A, support, cond_cap=cond_cap)


def direct_update_par2(support, par1, c, g, counter=None):
    """Recompute the direction cache for a new g by four direct products."""
    idx = support.idx
    gs = g[idx]
    eta = par1.M @ gs
    off = ~support.mask
    eta[off] += g[off]
    d_g = float(np.sum(eta[idx]))
    d_gg = float(eta[idx] @ gs)
    d_gc = -float(eta[idx] @ c[idx])
    cnt.add(counter, support.n * idx.size + 2 * idx.size)
    return Par2(eta, d_g, d_gg, d_gc, g)


def direct_update_par3(support, par1, l, counter=None):
    """Recompute the drift cache for a new l."""
    idx = support.idx
    xi = -(par1.M @ l[idx])
    off = ~support.mask
    xi[off] -= l[off]
    d_l = float(np.sum(xi[idx]))
    cnt.add(counter, support.n * idx.size)
    return Par3(xi, d_l, l)


def refresh_quadruple(quadruple, par1, c, counter=None):
    """Recompute (v, mu0) for the current support from the cached inverse.

    This is the closed-form fixed-support solution expressed through Par1:
    mu0 = (1 - 1'(Mc)_S) / D and v = mu0 eta_tilde + Mc + c off the support.
    The driver uses it to pin accumulated path-update roundoff back to M's
    accuracy whenever the reported residual crosses its refresh threshold.
    """
    support = quadruple.support
    idx = support.idx
    mc = par1.M @ c[idx]
    mu0 = (1.0 - float(np.sum(mc[idx]))) / par1.D
    v = mu0 * par1.eta_tilde + mc
    off = ~support.mask
    v[off] += c[off]
    quadruple.v = v
    quadruple.mu0 = mu0
    cnt.add(counter, support.n * idx.size + support.n)
    return quadruple


def condition_proxy(A, support, par1):
    """kappa(A_SS) estimate ||M_SS||_inf * ||A_SS||_inf from the stored state."""
    idx = support.idx
    ass = A[np.ix_(idx, idx)]
    mss = par1.M[idx, :]
    return float(np.abs(mss).sum(axis=1).max() * np.abs(ass).sum(axis=1).max())


def _rel(stored, fresh):
    err = float(np.max(np.abs(np.asarray(stored) - np.asarray(fresh))))
    scale = max(1.0, float(np.max(np.abs(fresh))))
    return err / scale


def validate_state(problem, support, par1, par2=None, par3=None):
    """Max relative deviation between the stored state and a fresh recomputation.

    Rebuilds Par1 by factorization of the given problem matrix and, when Par2
    or Par3 are supplied, re-derives them from their defining products (the g
    and l vectors travel with the caches).  Returns the worst field deviation;
    a freshly initialized state comes back at roundoff level and a corrupted
    field shows up at order one.
    """
    fresh1 = par1_from_matrix(problem.A, support)
    dev = max(
        _rel(par1.M, fresh1.M),
        _rel(par1.eta_tilde, fresh1.eta_tilde),
        _rel(par1.D, fresh1.D),
    )
    if par2 is not None:
        fresh2 = direct_update_par2(support, fresh1, problem.c, par2.g)
        dev = max(
            dev,
            _rel(par2.eta, fresh2.eta),
            _rel(par2.D_g, fresh2.D_g),
            _rel(par2.D_gg, fresh2.D_gg),
            _rel(par2.D_gc, fresh2.D_gc),
        )
    if par3 is not None:
        fresh3 = direct_update_par3(support, fresh1, par3.l)
        dev = max(dev, _rel(par3.xi, fresh3.xi), _rel(par3.D_l, fresh3.D_l))
    return dev
