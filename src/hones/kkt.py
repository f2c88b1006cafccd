"""Single-instance machinery for quadratic programs over the probability simplex.

The problem is  minimize 0.5 x'Ax - c'x  subject to sum(x) = 1, x >= 0, with A
symmetric positive definite.  Everything here is static: given one (A, c) we can
solve for a fixed support, evaluate optimality residuals, run an independent
active-set oracle or its exact rational reference, or project a point onto
the simplex.  The incremental path machinery lives in the path_* modules and
is deliberately disjoint from this code so the two can cross-check each other.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptySupport, NoConvergence, SingularSubmatrix

# A coordinate counts as strictly positive only above this scale times the
# iterate's magnitude; below it is treated as zero (roundoff at turning points).
ZETA_SCALE = 1e-12

DEFAULT_COND_CAP = 1e12


def _tiny(x):
    """ZETA_SCALE * max(1, |x|), without a builtin call: the one zero-threshold rule."""
    return ZETA_SCALE * (x if x > 1.0 else -x if x < -1.0 else 1.0)


def zero_tol(v):
    """Absolute zero threshold for entries of v."""
    return _tiny(float(np.max(np.abs(v))) if np.size(v) else 0.0)


class Support:
    """Ordered index set of coordinates allowed to be positive.

    Immutable.  Indices are 0-based, strictly increasing and nonempty.
    `size` is |S|; the complement is computed on first use and kept.
    """

    __slots__ = ("n", "idx", "mask", "size", "_comp")

    def __init__(self, n, indices):
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("support must be nonempty")
        if n < 1 or idx.min() < 0 or idx.max() >= n:
            raise ValueError(f"support indices out of range for n={n}")
        mask = np.zeros(n, dtype=bool)
        mask[idx] = True
        self._adopt(mask.nonzero()[0], mask)

    def _adopt(self, idx, mask):
        self.n = mask.size
        self.idx = idx
        self.mask = mask
        self.size = idx.size
        self._comp = None
        idx.flags.writeable = False
        mask.flags.writeable = False

    @classmethod
    def from_sorted(cls, idx, mask):
        """The support over the strictly increasing, nonempty `idx` and its `mask`, both adopted unchecked."""
        self = cls.__new__(cls)
        self._adopt(idx, mask)
        return self

    def complement(self):
        """The indices off the support, increasing (read-only)."""
        if self._comp is None:
            self._comp = (~self.mask).nonzero()[0]
            self._comp.flags.writeable = False
        return self._comp

    def with_added(self, j):
        if self.mask[j]:
            raise ValueError(f"index {j} already in support")
        mask = self.mask.copy()
        mask[j] = True
        return Support.from_sorted(mask.nonzero()[0], mask)

    def with_removed(self, j):
        if self.size == 1:
            raise EmptySupport("cannot shrink a singleton support")
        if not self.mask[j]:
            raise ValueError(f"index {j} not in support")
        mask = self.mask.copy()
        mask[j] = False
        return Support.from_sorted(mask.nonzero()[0], mask)

    def as_tuple(self):
        return tuple(int(i) for i in self.idx)

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
    it, and callers check the signs of `x_s` and `mu_sc`.
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


class Diagonal:
    """A read-only n x n diagonal matrix that stores only its diagonal d.

    A read `A[rows]` or `A[rows, cols]`, each an int, an int array or a
    slice (A[j], A[j, cols], A[idx], A[np.ix_(rows, cols)], ...), returns,
    bit for bit, what the dense matrix returns, +0.0 off the diagonal, so
    the solver reads it as it reads an array.  `np.asarray` builds the
    dense matrix on demand.
    """

    __slots__ = ("d", "shape", "_ar")

    ndim = 2

    def __init__(self, d):
        d = np.array(d, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("the diagonal must be a nonempty vector")
        d.flags.writeable = False
        self.d = d
        self.shape = (d.size, d.size)
        self._ar = np.arange(d.size)

    def __getitem__(self, key):
        rows, cols = key if isinstance(key, tuple) else (key, slice(None))
        r, c = self._ar[rows], self._ar[cols]
        if isinstance(cols, slice):
            r = r[..., None]
        return np.where(r == c, self.d[r], 0.0)[()]

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a Diagonal has no dense array to view without a copy")
        a = np.zeros(self.shape, dtype=dtype)
        np.fill_diagonal(a, self.d)
        return a


def diagonal_of(A):
    """A copy of A's diagonal when every entry off it is +0.0, bit for bit; else None.

    One pass over A and no temporary: the integer view counts an entry as
    nonzero unless all its bits are clear.
    """
    d = np.diag(A)
    if np.count_nonzero(A.view(np.uint64)) == np.count_nonzero(d.view(np.uint64)):
        return d.copy()
    return None


class Problem:
    """One simplex QP instance: finite, symmetric positive-definite A and finite linear term c.

    This is where "is A diagonal?" is decided, once: an A whose entries off
    the diagonal are all +0.0 is held as a `Diagonal` from here on, so a
    reader asks `isinstance(problem.A, Diagonal)` and nothing else.  A
    `Diagonal` A is checked in O(n): it is symmetric, and positive definite
    iff its diagonal is finite and positive; it is kept as it is, with no
    n x n array.  A dense A that is diagonal costs one pass over A plus O(n)
    work on its diagonal: `diagonal_of` has already proven every entry off
    it +0.0, so only the diagonal needs the finiteness check.  Any other A
    (a -0.0 off the diagonal included) stays dense and costs an O(n^2)
    finiteness and symmetry check and an O(n^3) Cholesky factorization.
    """

    __slots__ = ("A", "c", "n")

    def __init__(self, A, c):
        if not isinstance(A, Diagonal):
            A = np.asarray(A, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        n = A.shape[0]
        if n < 1 or c.shape != (n,):
            raise ValueError("c must have length n >= 1")
        d = A.d if isinstance(A, Diagonal) else diagonal_of(A)
        if not (np.isfinite(A if d is None else d).all() and np.isfinite(c).all()):
            raise ValueError("A and c must be finite")
        if d is not None:
            if not (d > 0.0).all():
                raise ValueError("A must be positive definite")
        else:
            scale = max(1.0, float(np.max(np.abs(A))))
            if np.max(np.abs(A - A.T)) > 1e-10 * scale:
                raise ValueError("A must be symmetric within 1e-10 relative")
            try:
                np.linalg.cholesky(A)
            except np.linalg.LinAlgError:
                raise ValueError("A must be positive definite") from None
        self.A = A if d is None or isinstance(A, Diagonal) else Diagonal(d)
        self.c = c
        self.n = n


def check_block(ass, support, cond_cap):
    """Raise SingularSubmatrix unless A_SS factorizes and its condition estimate is within cond_cap.

    The one rule for every A_SS: at init, in the oracle and in each rebuild.
    The estimate is always computed, so an infinite cap still pays for it.
    """
    # Up to 64 rows the estimate is exact: lambda_max / lambda_min, which for
    # a positive definite block is the 2-norm condition number an SVD gives,
    # and the block is positive definite iff lambda_min > 0.  Above, a failed
    # Cholesky factorization refuses it, and the square of its diagonal's
    # spread is a lower bound, so the cap only fires on definite trouble.
    small = ass.shape[0] <= 64
    try:
        d = np.linalg.eigvalsh(ass) if small else np.diag(np.linalg.cholesky(ass))
    except np.linalg.LinAlgError:
        d = None
    if d is None or not d[0] > 0.0:
        raise SingularSubmatrix(f"A_SS not positive definite for S={list(support.idx)}")
    kappa = float(d[-1] / d[0] if small else (d.max() / d.min()) ** 2)
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
    rhs = np.empty((idx.size, 2))
    rhs[:, 0] = 1.0
    rhs[:, 1] = c[idx]
    z = np.linalg.solve(ass, rhs)
    z1, z2 = z[:, 0], z[:, 1]
    denom = float(np.add.reduce(z1))
    mu0 = (1.0 - float(np.add.reduce(z2))) / denom
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

    Covers stationarity, the sum-to-one constraint and both sign
    constraints.  Complementary slackness needs no term: the quadruple keeps
    x_S and -mu_{S^c} in one vector v over disjoint coordinates, so x is zero
    off the support and mu is zero on it by construction, and every mu_i x_i
    is an exact zero.  Zero (to roundoff) exactly at the optimum.  Only the
    support rows of A are read (A is symmetric, so they stand for its support
    columns), so `problem` may carry a store that holds no other row (the
    driver's live rows).
    """
    A, c = problem.A, problem.c
    v = quadruple.v
    support = quadruple.support
    idx = support.idx
    x_s = v[idx]
    off = np.where(support.mask, 0.0, v)  # -mu: v off the support, zero on it
    stat = A[idx].T @ x_s - quadruple.mu0 + off - c
    # The first term is never negative, so the sign terms need no clamp at 0.
    return max(
        float(np.maximum.reduce(np.abs(stat))),
        abs(float(np.add.reduce(x_s)) - 1.0),
        -float(np.minimum.reduce(x_s)),
        float(np.maximum.reduce(off)),
    )


def oracle_solve(problem, x0=None, cond_cap=DEFAULT_COND_CAP):
    """Independent global solve by a primal active-set iteration.

    Starts from the uniform vector (or a feasible x0), alternates

      * equality solve on the working support,
      * ratio step and drop of the blocking coordinate when that candidate
        leaves the simplex,
      * insertion of the most negative off-support multiplier otherwise,

    until the candidate is KKT-feasible.  Tolerates boundary warm starts, so
    it doubles as a per-step cross-check for the path solver.  `exact_solve`
    is its exact reference.

    Without x0 the seed costs O(n log n) when `problem.A` is a `Diagonal`
    (a `Problem` holds every diagonal A as one) and a dense O(n^3) solve
    otherwise; each support change then costs one O(s^3) solve on the
    working support.

    Raises ValueError when x0 is not a finite length-n point of the simplex,
    SingularSubmatrix on a working block that fails `check_block`, and
    NoConvergence after 50 n support changes or on a result whose KKT
    residual is above 1e-9.
    """
    n = problem.n
    if x0 is not None:
        x = simplex_start(x0, n)
    elif isinstance(problem.A, Diagonal):
        # Seed from the projected unconstrained minimizer, usually within a
        # few support changes of the answer.  Over a diagonal A it is c / d
        # in O(n), the exact bits LAPACK's LU solve returns.
        x = project_simplex(problem.c / problem.A.d)
    else:
        try:
            x = project_simplex(np.linalg.solve(problem.A, problem.c))
        except np.linalg.LinAlgError:
            x = np.full(n, 1.0 / n)
    mask = x > zero_tol(x)
    if not mask.any():
        mask[int(np.argmax(x))] = True
    support = Support.from_sorted(mask.nonzero()[0], mask)

    result = _active_set_loop(problem, x, support, 50 * n, cond_cap)
    if kkt_residual(problem, result) > 1e-9:
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


def exact_solve(problem, x0):
    """The exact optimum, by a primal active set in rational arithmetic.

    Reads A (through its symmetric part) and c as the exact binary values of
    their floats, and starts from `simplex_start(x0, n)` read and
    renormalized exactly.  Each iteration solves the bordered system
    [A_SS -1; 1' 0][x_S; mu0] = [c_S; 1]; then, as in `oracle_solve`, a
    candidate that leaves the simplex takes a ratio step and drops the
    coordinate that blocks it, and one inside adds the most negative
    off-support multiplier.  Ties go to the smallest index.

    Returns (support, x, mu, mu0): the increasing support indices as a tuple,
    x and mu as length-n lists of Fractions, and mu0 a Fraction.  They meet
    stationarity, sum(x) = 1, x >= 0, mu >= 0 and x_i mu_i = 0 exactly, so
    the result needs no tolerance.  Start it from a float answer, such as the
    oracle's x: it then takes milliseconds at n = 12.  A long run of drops
    from a far start grows the iterate's denominators, and costs seconds at
    n = 30.

    Raises ValueError as `simplex_start` does, and NoConvergence after 50 n
    support changes.
    """
    from fractions import Fraction  # imported here, so `import hones` does not load it

    n = problem.n
    A = np.asarray(problem.A).tolist()
    a = [[(Fraction(u) + Fraction(v)) / 2 for u, v in zip(row, col)] for row, col in zip(A, zip(*A))]
    c = [Fraction(v) for v in problem.c.tolist()]
    x = [Fraction(v) for v in simplex_start(x0, n).tolist()]
    total = sum(x)
    x = [v / total for v in x]
    support = [i for i in range(n) if x[i]]
    for _ in range(50 * n + 1):
        # Gauss-Jordan on [A_SS -1 c_S; 1' 0 1] swaps no pivot: the first s pivots are those of
        # the positive definite A_SS, and the last is its Schur complement 1'A_SS^-1 1 > 0.
        rows = [[a[i][j] for j in support] + [-1, c[i]] for i in support] + [[1] * len(support) + [0, 1]]
        for p, pivot in enumerate(rows):
            pivot[p:] = [v / pivot[p] for v in pivot[p:]]
            for row in rows:
                if row is not pivot and row[p]:
                    row[p:] = [u - row[p] * v for u, v in zip(row[p:], pivot[p:])]
        *x_s, mu0 = (row[-1] for row in rows)
        blocked = [(x[i] / (x[i] - v), k) for k, (i, v) in enumerate(zip(support, x_s)) if v < 0]
        if blocked:
            theta, k = min(blocked)
            for i, v in zip(support, x_s):
                x[i] += theta * (v - x[i])
            del support[k]  # x there is now exactly 0
            continue
        on = dict(zip(support, x_s))
        x = [on.get(i, Fraction(0)) for i in range(n)]
        mu = [Fraction(0) if i in on else sum(a[i][j] * x[j] for j in support) - mu0 - c[i] for i in range(n)]
        low = min(mu)
        if low >= 0:
            return tuple(support), x, mu, mu0
        support = sorted(support + [mu.index(low)])
    raise NoConvergence(f"exact active set exceeded {50 * n} support changes")


def simplex_start(x0, n):
    """A copy of the warm start x0, clipped and rescaled onto the simplex.

    Raises ValueError unless x0 has length n, is finite, has no entry below
    -1e-12 and sums to 1 within 1e-8.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (n,) or not np.isfinite(x).all() or x.min() < -1e-12 or abs(x.sum() - 1.0) > 1e-8:
        raise ValueError("x0 must lie in the simplex")
    np.clip(x, 0.0, None, out=x)
    x /= x.sum()
    return x


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
