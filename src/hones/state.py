"""Cached intermediate state that makes every path step cheap.

Two bundles are maintained alongside the KKT quadruple:

  Par1 = {M, eta_tilde, D}      shared across steps; M is the n x |S| block of
                                live columns: A_SS^{-1} on the support rows and
                                -A_{S^c S} A_SS^{-1} below.  Column k belongs
                                to the k-th support index in increasing order.
  Par2 = {eta, D_g}             the leg cache: the image eta = (M + I_{S^c}) u
                                of the leg's vector u and its support sum
                                D_g = 1'eta_S.  u is the direction g in the
                                matrix leg and minus the drift l in the vector
                                leg; it lasts one leg.

Only Par1 outlives a step: each leg derives its own Par2 from it by a direct
product when it starts (direct_update_par2 for g, direct_update_par3 for l),
and again after an in-leg rebuild.  Any other product of the cache is read
off it where it is needed: the matrix leg's D_gg = g_S'eta_S, like its
w1 = g_S'x_S, is formed by its ratio test.  Everything can be recomputed
from scratch by factorization (init_par1); the path modules keep the same
objects current with rank-one corrections, and validate_state measures how far
they have drifted.  At a turning point path_matrix._pivot applies the block
pivot to Par1 and hands the same pivot vector to Par2.pivot, in either leg.

During either leg Par1 and the cache describe the matrix the store holds,
on the current support.  In the vector leg that is A + g g'.  In the matrix
leg it is the step's starting A (the lam = 0 frame): the leg reads the state
of A + lam g g' off them through O(1) Sherman-Morrison scalars, and its last
advance moves Par1 to A + g g' with one rank-one, after which the store
takes the same update.  So between steps, and after an error raised inside
a leg, Par1 factorizes the stored rows up to the path's roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .kkt import DEFAULT_COND_CAP, check_block


def outer(u, v):
    """The rank-one product u v' (1-D u and v) as one BLAS dgemm with K = 1.

    Each entry is u[i] * v[j] rounded once, the bits of einsum's "i,j->ij"
    product, and a product with a zero factor comes out +0.0 even when its
    sign is negative, as einsum stores it; adding it to an accumulator
    changes only a -0.0 there.  Not `@`: numpy's matmul does not hand K = 1
    to BLAS and runs several times slower.  Not np.outer: it keeps the
    -0.0, so its sums differ in the sign of a zero.  `ndarray.dot` skips
    np.dot's dispatcher, so a product costs one interpreter call.

    Two zero products can keep their sign, and so differ from einsum's in
    it alone: a nonzero product that underflows to zero, under a BLAS
    kernel that rounds by fused multiply-add (numpy's bundled OpenBLAS does
    on x86-64), and the single product of a 1 x 1 call, which numpy makes
    without BLAS.
    """
    return u[:, None].dot(v[None, :])


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

    # -- reads and updates used by the path legs ----------------------------

    def col(self, j, support):
        """Column j of M (j must be in the support) as a full-length vector."""
        return self.M[:, support.idx.searchsorted(j)].copy()

    def rank1(self, u, coef_s):
        """M += outer(u, coef_s) in place, the product by one dgemm (see `outer`)."""
        self.M += outer(u, coef_s)

    def insert_col(self, j, support_after):
        """Make room for a new zero column j."""
        pos = support_after.idx.searchsorted(j)
        M = self.M
        grown = np.empty((M.shape[0], M.shape[1] + 1))
        grown[:, :pos] = M[:, :pos]
        grown[:, pos] = 0.0
        grown[:, pos + 1 :] = M[:, pos:]
        self.M = grown

    def remove_col(self, j, support_before):
        pos = support_before.idx.searchsorted(j)
        M = self.M
        cut = np.empty((M.shape[0], M.shape[1] - 1))
        cut[:, :pos] = M[:, :pos]
        cut[:, pos:] = M[:, pos + 1 :]
        self.M = cut

    def refresh_from(self, other):
        """Adopt another Par1's fields in place, preserving object identity (a leg holds a reference)."""
        self.M = other.M
        self.eta_tilde = other.eta_tilde
        self.D = other.D


@dataclass
class Par2:
    """Leg cache: eta = (M + I_{S^c}) u and D_g = 1'eta_S, for u = g in the matrix leg and u = -l in the vector leg."""

    eta: np.ndarray
    D_g: float

    def pivot(self, j, vec, inv, teta_j):
        """Carry the cache through a block pivot on j (see path_matrix._pivot)."""
        eta_j = float(self.eta[j])
        self.D_g += eta_j * teta_j * inv
        self.eta[j] = 0.0
        self.eta += (eta_j * inv) * vec


def par1_from_matrix(rows, support):
    """Build Par1 by direct factorization of A_SS.

    `rows` holds the support rows of A, A[support.idx] (|S| x n); A is
    symmetric, so they stand for its support columns, and they are all the
    driver needs to keep live.  Raises SingularSubmatrix when kkt.check_block
    refuses A_SS under DEFAULT_COND_CAP.
    """
    idx = support.idx
    n = rows.shape[1]
    # Column k of both blocks is read from row k of `rows`.
    ass = np.ascontiguousarray(rows[:, idx].T)
    check_block(ass, support, DEFAULT_COND_CAP)
    inv = np.linalg.solve(ass, np.eye(idx.size))
    inv = 0.5 * (inv + inv.T)
    cols = np.empty((n, idx.size))
    cols[idx, :] = inv
    comp = support.complement()
    if comp.size:
        cols[comp, :] = -np.ascontiguousarray(rows[:, comp].T) @ inv
    eta_tilde = cols @ np.ones(idx.size)
    if comp.size:
        eta_tilde[comp] += 1.0
    D = float(np.sum(eta_tilde[idx]))
    return Par1(cols, eta_tilde, D)


def init_par1(problem, support):
    return par1_from_matrix(problem.A[support.idx], support)


def direct_update_par2(support, par1, g, counter=None):
    """The matrix leg's cache for a new direction g, by direct products."""
    idx = support.idx
    eta = par1.M @ g[idx]
    off = support.complement()
    eta[off] += g[off]
    if counter is not None:
        counter.total += support.n * idx.size
    return Par2(eta, float(np.add.reduce(eta[idx])))


def direct_update_par3(support, par1, l, counter=None):
    """The vector leg's cache for a new drift l: the Par2 of u = -l.

    It negates the product, xi = -(M l_S), and then takes xi[off] -= l[off].
    direct_update_par2(-l) gives the same values except the sign of a zero:
    an entry whose sum cancels exactly is +0.0 in M (-l_S) and -0.0 in
    -(M l_S).
    """
    idx = support.idx
    xi = -(par1.M @ l[idx])
    off = support.complement()
    xi[off] -= l[off]
    if counter is not None:
        counter.total += support.n * idx.size
    return Par2(xi, float(np.add.reduce(xi[idx])))


def refresh_quadruple(quadruple, par1, A, c, counter=None):
    """One step of iterative refinement of (v, mu0) in place on the current support.

    With the residual r = c + mu0 - A[idx]'x_S (A symmetric, so its support
    rows stand for its support columns) the correction solves the
    fixed-support KKT system through the cached inverse:
    dmu0 = (1 - 1'x_S - 1'(M r_S)_S) / D and
    v <- where(S, v, r) + dmu0 eta_tilde + M r_S, mu0 += dmu0.  Off the
    support v becomes -mu at the corrected x_S.  The error of the result
    scales with |r| and M's accuracy, not with |c|, so a large linear term
    (the gauge's c grows with t) costs no accuracy (Wilkinson 1963; Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 12).  Only the M
    product and the eta_tilde term are tallied; the residual's A product,
    like kkt_residual's, is not.
    """
    support = quadruple.support
    idx = support.idx
    x_s = quadruple.v[idx]
    r = c + quadruple.mu0 - A[idx].T @ x_s
    mr = par1.M @ r[idx]
    d_mu0 = (1.0 - float(np.add.reduce(x_s)) - float(np.add.reduce(mr[idx]))) / par1.D
    r[idx] = x_s
    r += d_mu0 * par1.eta_tilde
    r += mr
    quadruple.v = r
    quadruple.mu0 += d_mu0
    if counter is not None:
        counter.total += support.n * idx.size + support.n


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


def validate_state(problem, support, par1, par2=None, u=None):
    """Max relative deviation between the stored state and a fresh recomputation.

    Rebuilds Par1 by factorization of the given problem matrix and, when a
    leg cache Par2 is supplied with its vector u (g in the matrix leg, -l in
    the vector leg), re-derives it as direct_update_par2(u).  Returns the
    worst field deviation; a freshly initialized state comes back at
    roundoff level and a corrupted field shows up at order one.
    """
    fresh1 = par1_from_matrix(problem.A[support.idx], support)
    dev = max(
        _rel(par1.M, fresh1.M),
        _rel(par1.eta_tilde, fresh1.eta_tilde),
        _rel(par1.D, fresh1.D),
    )
    if par2 is not None:
        fresh2 = direct_update_par2(support, fresh1, u)
        dev = max(dev, _rel(par2.eta, fresh2.eta), _rel(par2.D_g, fresh2.D_g))
    return dev
