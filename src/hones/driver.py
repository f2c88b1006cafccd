"""Sequential outer loop: one homotopy step per incoming (g_t, c_t) pair.

Each step runs the matrix leg (A -> A + g g') and then the vector leg
(c -> c + l) on the updated matrix.  On the simplex 1'x = 1 the step
(g, c_new) has the same solution as (g - b 1, c_new - b g) for any scalar b,
up to multiples of 1 in c that only move mu0.  The driver writes the drift as
l = a g + beta 1 + r, the least-squares split over span{g, 1}, and takes
b = a whenever the remainder is small (||r|| <= ||l|| / 2) and a is no larger
than the largest |g_i|; otherwise b = 0.  The matrix leg then follows the
joint path of the a g part on its own, and the vector leg carries only
beta 1 + r, where beta 1 has zero velocity.  The |a| <= max|g| cap refuses
the fuse on about 30% of synthetic steps at n = 1000 (a fused share of 0.70
at FlowConfig seed 1, against 0.998 at n = 100); on those steps the vector
leg carries the whole drift, and it takes about as many turning points as
the matrix leg.  The session therefore solves an
equivalent gauged problem: its matrix and linear term differ from the
caller's, its iterate does not, and it keeps the offset between the two
linear terms so that the next drift is measured in the caller's terms.

The problem matrix is maintained lazily
and by rows (A is symmetric, so row j stands for column j): only rows whose
index has ever touched a support (the set S*) are kept current, and a row is
caught up from the logged g history the first time its index enters.  Once
every row is live the whole matrix takes the rank-one update in place and the
log is dropped.  A twin eager mode keeps the full matrix current instead and
must produce identical trajectories.

Between steps the session keeps the matrix, the linear term, the quadruple
and Par1, and nothing else: each leg derives its own cache from Par1 when it
starts (Par2 for the matrix leg, Par3 for the vector leg) and drops it when
it ends.  A checkpoint (`HSS5`) holds that lasting state and its config.

Per step the driver emits a StepReport with the turning-point counts, the
excess over the support symmetric-difference lower bound, the optimality
residual, wall time split into solve and matrix-maintenance parts, and the
scalar-multiplication tally used by the complexity check.
"""

import struct
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .counters import MultCounter
from .errors import HonesError
from .kkt import DEFAULT_COND_CAP, Problem, Quadruple, Support, kkt_residual, oracle_solve
from .path_matrix import run_lambda_leg
from .path_vector import run_utilde_leg
from .state import (
    Par1,
    direct_update_par2,
    direct_update_par3,
    init_par1,
    par1_from_matrix,
    refresh_quadruple,
    validate_state,
)


# Re-derive (v, mu0) from M when the step's residual exceeds this share of tol.
REFRESH_FACTOR = 0.25

# Refactorize Par1 from the live rows every this many steps.
REBUILD_EVERY = 1000

# Entries per block of the lazy rank-one row update.  Blocks of about 128 KB
# keep the temporaries on the allocator's heap; one s* x n temporary is mapped
# fresh each step, and at n = 1000 its page faults cost more than the adds.
UPDATE_BLOCK = 16384


@dataclass
class SolverConfig:
    """The two settings of one solver session.

    tol: residual target; a step whose residual exceeds REFRESH_FACTOR * tol
        re-derives (v, mu0) from the cached inverse, then rebuilds if needed.
    lazy_a: keep only the touched rows of A current (False: the whole A, the
        eager twin).
    A tol that is not finite and positive, or a lazy_a that is not a bool,
    raises ValueError.  cond_cap, the condition-estimate cap for every
    factorization of A_SS, is a class constant, not a setting.
    """

    tol: float = 1e-8
    lazy_a: bool = True
    cond_cap: ClassVar[float] = DEFAULT_COND_CAP

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not isinstance(self.lazy_a, bool):
            raise ValueError(f"lazy_a must be a bool, got {self.lazy_a!r}")


@dataclass
class StepReport:
    """What one step did.

    kkt_residual is measured against the equivalent gauged problem the
    session solves (its matrix and linear term), not the caller's (A, c): the
    two share the iterate but differ in mu0 and in the stored matrix.
    refreshes counts the re-derivations of (v, mu0) from the cached inverse.
    """

    t: int
    k_a: int
    k_c: int
    k_t: int
    e_t: int
    support_size: int
    s_max: int
    s_star: int
    kkt_residual: float
    wall_ns: int
    a_update_ns: int
    mult_count: int
    rebuilds: int
    refreshes: int


class SolverSession:
    """All state of one sequential solve that lasts from one step to the next.

    The stored matrix starts as a copy of the initial A.  In lazy mode the
    invariant is: for every j in S*, row j equals the initial row plus the
    accumulated rank-one contributions of all g's appended to the log so far;
    rows outside S* are stale but never read.  Every read goes by row, so the
    live data is contiguous.  Once S* holds every index the log is empty and
    stays so.

    A, c and the logged g's are in the gauge the legs run in; c_shift is that
    c minus the caller's last linear term (zero until a step fuses a drift).
    Of the caches only Par1 is kept: Par2 and Par3 belong to one step's g and
    drift, so `step` derives each one from Par1 when its leg starts.
    """

    def __init__(self, A0, c0, quadruple, par1, config):
        self.config = config
        self.n = int(A0.shape[0])
        self.A = np.array(A0, dtype=np.float64)
        self.c = np.array(c0, dtype=np.float64)
        self.c_shift = np.zeros(self.n)
        self.quadruple = quadruple
        self.par1 = par1
        self.t = 0
        self.s_star_mask = quadruple.support.mask.copy()
        self.g_log = []
        self.counter = MultCounter()
        self.rebuild_count = 0
        self.events = []
        self.reports = []

    @property
    def x(self):
        return self.quadruple.x

    @property
    def support(self):
        return self.quadruple.support

    @property
    def s_star_idx(self):
        return np.flatnonzero(self.s_star_mask)

    def residual(self):
        """Optimality residual of the current quadruple against the gauged (A_t, c_t).

        This is the equivalent problem the legs solve, so mu0 and the matrix
        differ from the caller's; the iterate does not.  kkt_residual reads
        only the support rows of A, which are current by the session invariant.
        """
        return kkt_residual(self, self.quadruple)

    def validate(self):
        """Par1's drift against a fresh factorization of the live rows."""
        return validate_state(self, self.support, self.par1)

    # -- checkpointing -------------------------------------------------------
    #
    # The one checkpoint layout; little-endian, floats IEEE-754 binary64:
    #   "HSS5", n u32, t u32, k u32 (logged g's), s u32 (support size),
    #       lazy_a u8, 3 pad bytes
    #   A n*n (row layout), c n, c_shift n, touched-row mask n u8, g log k*n
    #   support s i64, v n, mu0, M n*s (row-major), eta_tilde n, D
    #   tol
    # `load` checks all of it before it builds anything.

    HEADER = struct.Struct("<4sIIIIB3x")

    @staticmethod
    def _sections(n, k, s):
        """(name, dtype, count) of the arrays after the header, in file order."""
        return [
            ("A", "<f8", n * n), ("c", "<f8", n), ("c_shift", "<f8", n), ("mask", "u1", n), ("g_log", "<f8", k * n),
            ("support", "<i8", s), ("v", "<f8", n), ("mu0", "<f8", 1), ("M", "<f8", n * s),
            ("eta_tilde", "<f8", n), ("D", "<f8", 1), ("tol", "<f8", 1),
        ]

    def save(self, path):
        q, par1, cfg = self.quadruple, self.par1, self.config
        k, s = len(self.g_log), q.support.size
        fields = dict(A=self.A, c=self.c, c_shift=self.c_shift, mask=self.s_star_mask, g_log=self.g_log)
        fields.update(support=q.support.idx, v=q.v, mu0=q.mu0, M=par1.M, eta_tilde=par1.eta_tilde, D=par1.D)
        fields.update(tol=cfg.tol)
        parts = [self.HEADER.pack(b"HSS5", self.n, self.t, k, s, cfg.lazy_a)]
        parts += [np.asarray(fields[name], dtype).tobytes() for name, dtype, _ in self._sections(self.n, k, s)]
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path):
        """Restore a session written by `save`, config included; it continues bit for bit.

        A file that is not exactly a checkpoint (wrong magic, a length other
        than its header implies, a flag byte other than 0 or 1, a support that
        is not strictly increasing inside the touched rows, a non-finite
        float, a tol SolverConfig refuses) raises ValueError before any
        session is built.
        """
        with open(path, "rb") as fh:
            buf = fh.read()
        if len(buf) < cls.HEADER.size or buf[:4] != b"HSS5":
            raise ValueError("not a session checkpoint")
        _, n, t, k, s, lazy = cls.HEADER.unpack_from(buf)
        sections = cls._sections(n, k, s)
        size = cls.HEADER.size + sum(np.dtype(dtype).itemsize * count for _, dtype, count in sections)
        if len(buf) != size:
            raise ValueError(f"checkpoint has {len(buf)} bytes, its header implies {size}")
        f = {}
        off = cls.HEADER.size
        for name, dtype, count in sections:
            f[name] = np.frombuffer(buf, dtype, count, off)
            off += f[name].nbytes
        mask, idx = f["mask"], f["support"]
        if lazy > 1 or (mask > 1).any():
            raise ValueError("lazy_a and touched-row bytes must be 0 or 1")
        if not (s and idx[0] >= 0 and idx[-1] < n and (np.diff(idx) > 0).all() and mask[idx].all()):
            raise ValueError("support must be nonempty, strictly increasing and inside the touched rows")
        if not all(np.isfinite(f[name]).all() for name, dtype, _ in sections if dtype == "<f8"):
            raise ValueError("checkpoint holds a NaN or infinite float")
        config = SolverConfig(tol=float(f["tol"][0]), lazy_a=bool(lazy))

        def vec(name):
            return f[name].astype(np.float64)

        support = Support(n, idx)
        quadruple = Quadruple(support, vec("v"), float(f["mu0"][0]))
        par1 = Par1(vec("M").reshape(n, s), vec("eta_tilde"), float(f["D"][0]))
        ses = cls(f["A"].reshape(n, n), f["c"], quadruple, par1, config)
        ses.t = t
        ses.c_shift = vec("c_shift")
        ses.s_star_mask = mask.astype(bool)
        ses.g_log = list(vec("g_log").reshape(k, n))
        return ses


def init_session(A0, c0, config=None):
    """Start a session at the global optimum of the initial problem."""
    config = config or SolverConfig()
    problem = Problem(A0, c0)
    quadruple = oracle_solve(problem)
    par1 = init_par1(problem, quadruple.support)
    return SolverSession(A0, c0, quadruple, par1, config)


def _catch_up_column(session, j):
    """Bring row j (column j of the symmetric A) current from the logged g's.

    Only the row is written: stale rows must keep their pristine initial
    values or a later catch-up would double-count.  Every read in the solver
    is row-wise, so column staleness is never observed.
    """
    if not session.g_log:
        return
    G = np.asarray(session.g_log)
    session.A[j] += G.T @ G[:, j]


def _add_outer_rows(A, g, rows):
    """A[rows] += outer(g[rows], g), a block of rows at a time."""
    per = max(1, UPDATE_BLOCK // g.size)
    for k in range(0, rows.size, per):
        r = rows[k : k + per]
        A[r] += np.outer(g[r], g)


def _gauge_share(g, l):
    """The gauge scalar b of one step: the share of g in the drift l, or 0.

    l = a g + beta 1 + r is the least-squares split over span{g, 1}; b = a
    when ||r|| <= ||l|| / 2 and |a| <= max|g|, else 0.  The cap keeps g - b 1
    from turning into a near multiple of 1, whose updates would grow A along
    11' and push the support's block toward singular.  The split costs O(n)
    and, like the matrix maintenance, stays out of the multiplication tally.
    """
    if not l.any():
        return 0.0
    n = g.size
    gc = g - g.sum() / n
    gg = float(gc @ gc)
    if gg == 0.0:
        return 0.0
    gl = float(gc @ l)
    a = gl / gg
    ll = float(l @ l)
    sl = float(l.sum())
    # ||r||^2 = ||l - mean(l) 1||^2 - a gl, since r is orthogonal to g - mean(g) 1.
    rr = ll - sl * sl / n - a * gl
    if 4.0 * rr <= ll and abs(a) <= float(np.abs(g).max()):
        return a
    return 0.0


def step(session, g_t, c_t):
    """Advance one problem update; returns the StepReport.

    Gauges the step (see the module docstring), runs the matrix leg along
    g - b 1, folds that rank-one update into the live rows, then runs the
    vector leg for what is left of the drift.  Degeneracies inside a leg
    trigger one in-place rebuild and retry before propagating.  Input of the
    wrong shape or with non-finite entries is rejected with ValueError before
    anything changes; a broken turning point invariant raises HonesError.
    """
    cfg = session.config
    counter = session.counter
    t_start = time.perf_counter_ns()
    a_ns = 0
    rebuilds_before = session.rebuild_count
    mult_before = counter.total

    n = session.n
    g = np.asarray(g_t, dtype=np.float64)
    c_new = np.asarray(c_t, dtype=np.float64)
    if g.shape != (n,) or c_new.shape != (n,):
        raise ValueError(f"step vectors must have length {n}")
    if not (np.isfinite(g).all() and np.isfinite(c_new).all()):
        raise ValueError("step vectors must be finite")
    session.t += 1
    q = session.quadruple
    prev_mask = q.support.mask.copy()
    s_start = q.support.size

    # The caller's drift, split against g; c_shift changes only when b != 0,
    # so a flow that never fuses keeps c_shift at exactly zero.
    c_shift = session.c_shift
    b = _gauge_share(g, c_new - (session.c - c_shift))
    if b:
        c_shift = c_shift - b * g
        g = g - b
    c_new = c_new + c_shift

    def ensure_column(j):
        nonlocal a_ns
        if session.s_star_mask[j]:
            return
        t0 = time.perf_counter_ns()
        if cfg.lazy_a:
            _catch_up_column(session, j)
        session.s_star_mask[j] = True
        a_ns += time.perf_counter_ns() - t0

    # Each leg's cache lasts only that leg.  Its rebuild callback (passed by
    # keyword, where a tracer can wrap it) refactorizes Par1 and re-derives
    # the cache in place, so the leg's reference stays valid.
    par2 = direct_update_par2(q.support, session.par1, session.c, g, counter)

    def rebuild_matrix_leg(lam):
        rebuild(session, session.A + lam * np.outer(g, g))
        par2.refresh_from(direct_update_par2(q.support, session.par1, session.c, g))

    events_a = run_lambda_leg(
        session.A,
        session.c,
        g,
        q,
        session.par1,
        par2,
        counter=counter,
        ensure_column=ensure_column,
        rebuild=rebuild_matrix_leg,
    )

    t0 = time.perf_counter_ns()
    if cfg.lazy_a and not session.s_star_mask.all():
        _add_outer_rows(session.A, g, session.s_star_idx)
        session.g_log.append(g)
    else:
        # No stale row is left to catch up, so the history can go.
        session.A += np.outer(g, g)
        session.g_log = []
    a_ns += time.perf_counter_ns() - t0

    l = c_new - session.c

    par3 = direct_update_par3(q.support, session.par1, l, counter)

    def rebuild_vector_leg(_t):
        rebuild(session)
        par3.refresh_from(direct_update_par3(q.support, session.par1, l))

    events_c = run_utilde_leg(
        session.A,
        l,
        q,
        session.par1,
        par3,
        counter=counter,
        ensure_column=ensure_column,
        rebuild=rebuild_vector_leg,
    )
    session.c = c_new
    session.c_shift = c_shift

    if session.t % REBUILD_EVERY == 0:
        rebuild(session)

    refreshes = 0
    residual = session.residual()
    if residual > REFRESH_FACTOR * cfg.tol:
        # Accumulated path roundoff: pin (v, mu0) back to the cached inverse,
        # rebuilding that first if it has drifted too.
        refresh_quadruple(q, session.par1, session.c, counter)
        refreshes += 1
        residual = session.residual()
        if residual > REFRESH_FACTOR * cfg.tol:
            rebuild(session)
            refresh_quadruple(q, session.par1, session.c, counter)
            refreshes += 1
            residual = session.residual()

    events = events_a + events_c
    session.events.extend(events)
    s_max = max([s_start] + [len(ev.support_after) for ev in events])

    k_a, k_c = len(events_a), len(events_c)
    k_t = k_a + k_c
    sym_diff = int(np.count_nonzero(prev_mask ^ q.support.mask))
    if k_t < sym_diff:
        raise HonesError(f"{k_t} turning points fell below the symmetric-difference bound {sym_diff}")
    if (k_t - sym_diff) % 2:
        raise HonesError(f"{k_t - sym_diff} toggles beyond the support change do not pair up")
    if not session.s_star_mask[q.support.idx].all():
        raise HonesError("support escaped the touched set")
    report = StepReport(
        t=session.t,
        k_a=k_a,
        k_c=k_c,
        k_t=k_t,
        e_t=(k_t - sym_diff) // 2,
        support_size=q.support.size,
        s_max=s_max,
        s_star=int(session.s_star_mask.sum()),
        kkt_residual=residual,
        wall_ns=time.perf_counter_ns() - t_start,
        a_update_ns=a_ns,
        mult_count=counter.total - mult_before,
        rebuilds=session.rebuild_count - rebuilds_before,
        refreshes=refreshes,
    )
    session.reports.append(report)
    return report


def rebuild(session, A=None):
    """Refactorize Par1 in place from `A` (default: the stored matrix).

    The matrix leg passes its parametrized A + lam g g'.  The quadruple is
    untouched, and a leg re-derives its own cache after calling this.  Raises
    SingularSubmatrix if the live block cannot be factorized.
    """
    fresh = par1_from_matrix(session.A if A is None else A, session.support)
    session.rebuild_count += 1
    session.par1.refresh_from(fresh)
    return session


def run_sequence(session, flow, steps):
    """Run `steps` updates pulled from the flow; returns [(x_t, report), ...]."""
    out = []
    it = iter(flow)
    for _ in range(steps):
        g_t, c_t = next(it)
        report = step(session, g_t, c_t)
        out.append((session.x.copy(), report))
    return out


def complexity_bound(n, report):
    """Per-step multiplication budget, term by term from the tallied operations.

    With s = s_max, every tallied routine is bounded at size s:
      fixed       3 n s + 9 n + 3 s + 14: the Par2 and Par3 products, the
                  last ratio test and advance of each leg (the matrix leg's
                  ratio test counting up to n near-zero checks);
      per k_A     3 n s + 9 n + 4 s + 22: one more matrix ratio test and
                  advance, plus an entry (which costs more than a leave);
      per k_c     2 n s + 3 n + 2 s + 8: the same for the vector leg;
      per refresh n s + n: one re-derivation of (v, mu0).
    Rebuilds factorize outside the tally.  An in-leg retry after a rebuild
    repeats one ratio test and advance, which this budget does not cover.
    """
    s = report.s_max
    fixed = 3 * n * s + 9 * n + 3 * s + 14
    per_a = 3 * n * s + 9 * n + 4 * s + 22
    per_c = 2 * n * s + 3 * n + 2 * s + 8
    return fixed + report.k_a * per_a + report.k_c * per_c + report.refreshes * (n * s + n)


@dataclass
class OpCheck:
    t: int
    measured: int
    bound: int

    @property
    def ok(self):
        return self.measured <= self.bound


def count_ops(reports, n):
    """Check every step's multiplication tally against its budget."""
    return [OpCheck(r.t, r.mult_count, complexity_bound(n, r)) for r in reports]


def run_summary(sizes, wall_ns, epoch):
    """Step count, support-size statistics and wall seconds (total and per epoch) of any run."""
    sizes = np.asarray(sizes, dtype=float)
    return {
        "steps": len(sizes),
        "support": {
            "mean": float(sizes.mean()),
            "std": float(sizes.std(ddof=1)) if len(sizes) > 1 else 0.0,
            "max": int(sizes.max()),
            "min": int(sizes.min()),
        },
        "wall_s": float(np.sum(wall_ns, dtype=float) / 1e9),
        "epoch_wall_s": _epoch_seconds(wall_ns, epoch),
    }


def _epoch_seconds(ns, epoch):
    ns = np.asarray(ns, dtype=float)
    return [float(ns[i : i + epoch].sum() / 1e9) for i in range(0, ns.size, epoch)]


def aggregate_reports(reports, epoch=250):
    """Summary statistics covering support size, excess turning points and time."""
    if not reports:
        return {
            "steps": 0,
            "support": {},
            "excess_turning_points": {},
            "epoch_wall_s": [],
            "epoch_wall_opt_s": [],
        }
    e = np.array([r.e_t for r in reports], dtype=float)
    wall = np.array([r.wall_ns for r in reports], dtype=float)
    opt = wall - np.array([r.a_update_ns for r in reports], dtype=float)
    summary = run_summary([r.support_size for r in reports], wall, epoch)
    summary.update(
        excess_turning_points={
            "proportion_zero": float(np.mean(e == 0)),
            "q99": float(np.quantile(e, 0.99)),
            "q999": float(np.quantile(e, 0.999)),
            "max": int(e.max()),
        },
        kkt_residual_max=float(max(r.kkt_residual for r in reports)),
        mult_total=int(sum(r.mult_count for r in reports)),
        rebuilds=int(sum(r.rebuilds for r in reports)),
        wall_opt_s=float(opt.sum() / 1e9),
        epoch_wall_opt_s=_epoch_seconds(opt, epoch),
    )
    return summary
