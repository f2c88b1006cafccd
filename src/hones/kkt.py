"""Single-instance machinery for quadratic programs over the probability simplex.

The problem is  minimize 0.5 x'Ax - c'x  subject to sum(x) = 1, x >= 0, with A
symmetric positive definite.  Everything here is static: given one (A, c) we can
solve for a fixed support, evaluate optimality residuals, run an independent
active-set oracle, or project a point onto the simplex.  The incremental path
machinery lives in the path_* modules and is deliberately disjoint from this
code so the two can cross-check each other.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, SingularSubmatrix

# A coordinate counts as strictly positive only above this scale times the
# iterate's magnitude; below it is treated as zero (roundoff at turning points).
ZETA_SCALE = 1e-12

DEFAULT_COND_CAP = 1e12


def zero_tol(v):
    """Absolute zero threshold for entries of v."""
    vmax = float(np.max(np.abs(v))) if np.size(v) else 0.0
    return ZETA_SCALE * max(1.0, vmax)


class Support:
    """Ordered index set of coordinates allowed to be positive.

    Immutable.  Indices are 0-based, strictly increasing and nonempty.
    """

    __slots__ = ("n", "idx", "mask")

    def __init__(self, n, indices):
        idx = np.unique(np.asarray(indices, dtype=np.intp))
        if idx.size == 0:
            raise ValueError("support must be nonempty")
        if n < 1 or idx[0] < 0 or idx[-1] >= n:
            raise ValueError(f"support indices out of range for n={n}")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        self.n = int(n)
        self.idx = idx
        self.mask = mask
        self.idx.setflags(write=False)
        self.mask.setflags(write=False)

    @classmethod
    def full(cls, n):
        return cls(n, np.arange(n))

    @classmethod
    def from_mask(cls, mask):
        return cls(len(mask), np.flatnonzero(mask))

    @property
    def size(self):
        return self.idx.size

    def contains(self, j):
        return bool(self.mask[j])

    def complement(self):
        return np.flatnonzero(~self.mask)

    def with_added(self, j):
        if self.mask[j]:
            raise ValueError(f"index {j} already in support")
        return Support(self.n, np.append(self.idx, j))

    def with_removed(self, j):
        if not self.mask[j]:
            raise ValueError(f"index {j} not in support")
        return Support(self.n, self.idx[self.idx != j])

    def as_tuple(self):
        return tuple(int(i) for i in self.idx)

    def __len__(self):
        return self.idx.size

    def __iter__(self):
        return iter(self.idx)

    def __eq__(self, other):
        return (
            isinstance(other, Support)
            and self.n == other.n
            and self.idx.size == other.idx.size
            and bool(np.all(self.idx == other.idx))
        )

    def __hash__(self):
        return hash((self.n, self.as_tuple()))

    def __repr__(self):
        return f"Support(n={self.n}, idx={list(self.idx)})"


@dataclass
class Quadruple:
    """Full KKT state (S, x_S, mu_{S^c}, mu0) of a simplex QP.

    Stored as the length-n concatenation v with v_S = x_S and v_{S^c} =
    -mu_{S^c}, plus the equality multiplier mu0.  Sign feasibility is NOT
    enforced at construction; candidates from solve_given_support may violate
    it and callers check with `is_feasible`.
    """

    support: Support
    v: np.ndarray
    mu0: float

    @property
    def x_s(self):
        return self.v[self.support.idx]

    @property
    def mu_sc(self):
        return -self.v[self.support.complement()]

    @property
    def x(self):
        """Full-length primal vector (zero off support)."""
        return np.where(self.support.mask, self.v, 0.0)

    @property
    def mu(self):
        """Full-length inequality multipliers (zero on support)."""
        return np.where(self.support.mask, 0.0, -self.v)

    def copy(self):
        return Quadruple(self.support, self.v.copy(), self.mu0)

    def is_feasible(self, tol=None):
        tol = zero_tol(self.v) if tol is None else tol
        return bool(np.all(self.x_s > -tol) and np.all(self.mu_sc > -tol))


class Problem:
    """One simplex QP instance: finite, symmetric positive-definite A and finite linear term c."""

    __slots__ = ("A", "c", "n")

    def __init__(self, A, c):
        A = np.asarray(A, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if n < 1 or c.shape != (n,):
            raise ValueError("c must have length n >= 1")
        if not (np.isfinite(A).all() and np.isfinite(c).all()):
            raise ValueError("A and c must be finite")
        scale = max(1.0, float(np.max(np.abs(A))))
        if np.max(np.abs(A - A.T)) > 1e-10 * scale:
            raise ValueError("A must be symmetric within 1e-10 relative")
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            raise ValueError("A must be positive definite") from None
        self.A = A
        self.c = c
        self.n = n


def check_block(ass, support, cond_cap):
    """Raise SingularSubmatrix unless A_SS factorizes and its condition estimate is within cond_cap.

    The one rule for every A_SS: at init, in the oracle and in each rebuild.
    """
    try:
        chol = np.linalg.cholesky(ass)
    except np.linalg.LinAlgError:
        raise SingularSubmatrix(f"A_SS not positive definite for S={list(support.idx)}") from None
    if not np.isfinite(cond_cap):
        return
    # Exact for small blocks; Cholesky-diagonal lower bound otherwise.  The
    # proxy under-reports, so the cap only fires on definite trouble.
    if ass.shape[0] <= 64:
        kappa = float(np.linalg.cond(ass))
    else:
        d = np.diag(chol)
        kappa = float((d.max() / d.min()) ** 2)
    if kappa > cond_cap:
        raise SingularSubmatrix(f"condition estimate above cap {cond_cap:g}")


def solve_given_support(problem, support, cond_cap=DEFAULT_COND_CAP):
    """Solve the stationarity system for a fixed support.

    Returns the candidate quadruple (x_S, mu_{S^c}, mu0) that satisfies
    stationarity, the sum constraint and complementary slackness by
    construction.  Signs are not guaranteed; the caller decides feasibility.

    Raises SingularSubmatrix when A_SS cannot be factorized or its condition
    estimate exceeds cond_cap.
    """
    A, c = problem.A, problem.c
    idx = support.idx
    ass = A[np.ix_(idx, idx)]
    check_block(ass, support, cond_cap)
    rhs = np.column_stack((np.ones(idx.size), c[idx]))
    z = np.linalg.solve(ass, rhs)
    z1, z2 = z[:, 0], z[:, 1]
    denom = float(np.sum(z1))
    mu0 = (1.0 - float(np.sum(z2))) / denom
    x_s = mu0 * z1 + z2
    comp = support.complement()
    v = np.zeros(problem.n)
    v[idx] = x_s
    if comp.size:
        mu_sc = A[np.ix_(comp, idx)] @ x_s - mu0 - c[comp]
        v[comp] = -mu_sc
    return Quadruple(support, v, mu0)


def kkt_residual(problem, quadruple):
    """Max-norm violation of the optimality conditions.

    Covers stationarity, the sum-to-one constraint, complementary slackness
    and both sign constraints.  Zero (to roundoff) exactly at the optimum.
    Only the support rows of A are read (A is symmetric, so they stand for
    its support columns), and `problem` may carry a matrix whose other rows
    are stale (the driver's lazily maintained copy).
    """
    A, c = problem.A, problem.c
    idx = quadruple.support.idx
    x_s = quadruple.v[idx]
    mu = quadruple.mu
    stat = A[idx].T @ x_s - quadruple.mu0 - mu - c
    x = quadruple.x
    return max(
        float(np.max(np.abs(stat))),
        abs(float(np.sum(x_s)) - 1.0),
        float(np.max(np.abs(mu * x))),
        max(0.0, -float(np.min(x))),
        max(0.0, -float(np.min(mu))),
    )


def enumerate_solve(problem, limit=20):
    """Exhaustive-support solve: try every nonempty support, keep the KKT-feasible one.

    Exponential in n; guarded by `limit`.  Each support goes through
    solve_given_support without a condition cap, and one whose block does not
    factorize is skipped.  Serves as the ground-truth fallback for small
    problems and as a cross-check in tests.
    """
    n = problem.n
    if n > limit:
        raise ValueError(f"enumeration limited to n <= {limit}")
    arange = np.arange(n)
    best = None
    best_violation = np.inf
    for bits in range(1, 1 << n):
        support = Support(n, arange[(bits >> arange & 1).astype(bool)])
        try:
            cand = solve_given_support(problem, support, cond_cap=np.inf)
        except SingularSubmatrix:
            continue
        mu_sc = cand.mu_sc
        violation = max(0.0, -float(np.min(cand.x_s)))
        if mu_sc.size:
            violation = max(violation, -float(np.min(mu_sc)))
        if violation < best_violation:
            best, best_violation = cand, violation
    if best is None:
        raise NoConvergence("no solvable support found by enumeration")
    if kkt_residual(problem, best) > 1e-8:
        raise NoConvergence("no KKT-feasible support found by enumeration")
    return best


def oracle_solve(problem, x0=None, max_changes=None, cond_cap=DEFAULT_COND_CAP):
    """Independent global solve by a primal active-set iteration.

    Starts from the uniform vector (or a feasible x0), alternates

      * equality solve on the working support,
      * ratio step and drop of the blocking coordinate when that candidate
        leaves the simplex,
      * insertion of the most negative off-support multiplier otherwise,

    until the candidate is KKT-feasible.  Tolerates boundary warm starts, so
    it doubles as a per-step cross-check for the path solver.  For n <= 12 an
    exhaustive enumeration backs it up.

    Raises NoConvergence after max_changes support changes (default 50 n).
    """
    n = problem.n
    cap = 50 * n if max_changes is None else max_changes
    if x0 is None:
        # Seed from the projected unconstrained minimizer: usually within a
        # few support changes of the answer, and exact for scaled identities.
        try:
            x = project_simplex(np.linalg.solve(problem.A, problem.c))
        except np.linalg.LinAlgError:
            x = np.full(n, 1.0 / n)
    else:
        x = np.asarray(x0, dtype=np.float64).copy()
        if x.shape != (n,) or np.any(x < -1e-12) or abs(x.sum() - 1.0) > 1e-8:
            raise ValueError("x0 must lie in the simplex")
        np.clip(x, 0.0, None, out=x)
        x /= x.sum()
    mask = x > zero_tol(x)
    if not mask.any():
        mask[int(np.argmax(x))] = True
    support = Support.from_mask(mask)

    try:
        result = _active_set_loop(problem, x, support, cap, cond_cap)
    except (NoConvergence, SingularSubmatrix):
        if n <= 12:
            result = enumerate_solve(problem)
        else:
            raise
    if kkt_residual(problem, result) > 1e-9:
        if n <= 12:
            result = enumerate_solve(problem)
        else:
            raise NoConvergence("active-set result failed the residual check")
    return result


def _active_set_loop(problem, x, support, cap, cond_cap):
    changes = 0
    while True:
        cand = solve_given_support(problem, support, cond_cap=cond_cap)
        x_hat = cand.x_s
        tol = zero_tol(x_hat)
        if np.min(x_hat) >= -tol:
            mu_sc = cand.mu_sc
            if mu_sc.size == 0 or np.min(mu_sc) >= -tol:
                return cand
            comp = support.complement()
            j = int(comp[np.argmin(mu_sc)])
            support = support.with_added(j)
            x = cand.x
            np.clip(x, 0.0, None, out=x)
        else:
            idx = support.idx
            xs = x[idx]
            d = x_hat - xs
            neg = np.flatnonzero(x_hat < -tol)
            thetas = xs[neg] / (xs[neg] - x_hat[neg])
            k = int(np.argmin(thetas))
            theta = float(thetas[k])
            j = int(idx[neg[k]])
            xs = xs + theta * d
            x = np.zeros(problem.n)
            x[idx] = np.clip(xs, 0.0, None)
            x[j] = 0.0
            if support.size <= 1:
                raise NoConvergence("active set collapsed")
            support = support.with_removed(j)
        changes += 1
        if changes > cap:
            raise NoConvergence(f"active set exceeded {cap} support changes")


def project_simplex(y):
    """Euclidean projection onto the probability simplex.

    Sort-based threshold rule: x_i = max(y_i - theta, 0) with theta chosen so
    the result sums to one.  O(n log n).
    """
    y = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(y)):
        raise ValueError("input must be finite")
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, y.size + 1)
    rho = int(np.max(np.flatnonzero(u * k > css)))
    theta = css[rho] / (rho + 1.0)
    return np.maximum(y - theta, 0.0)
