"""Sequential outer loop: one homotopy step per incoming (g_t, c_t) pair.

Each step runs the matrix leg (A -> A + g g') and then the vector leg
(c -> c + l) on the updated matrix.  On the simplex 1'x = 1 the step
(g, c_new) has the same solution as (g - b 1, c_new - b g) for any scalar b,
up to multiples of 1 in c that only move mu0.  The driver writes the drift as
l = a g + beta 1 + r, the least-squares split over span{g, 1}, and fuses
whenever |a| <= max|g|: b = a, and otherwise b = 0.  The matrix leg then
follows the joint path of the a g part on its own, and the vector leg
carries only beta 1 + r, where beta 1 has zero velocity.  The cap refuses
the fuse on about 30% of synthetic steps at n = 1000 (a fused share of 0.70
at FlowConfig seed 1, against 0.998 at n = 100); on those steps the vector
leg carries the whole drift, and it takes about as many turning points as
the matrix leg.  The session therefore solves an
equivalent gauged problem: its matrix and linear term differ from the
caller's, its iterate does not, and it keeps the offset between the two
linear terms so that the next drift is measured in the caller's terms.

The problem matrix is kept lazily and by rows (A is symmetric, so row j
stands for column j), and one object owns all of it: the LiveRows store.
It keeps the touched set S* (the rows whose index has ever entered a
support), the live rows in one contiguous block with a slot map, and the
pristine A0 and the g log that a row is caught up from when it goes live.
The live rows are those of S* in lazy mode and all n in eager mode;
init_session picks them, and from then on both modes run the same code.
The legs call the store's `touch(j)` before j enters a support, and `step`
calls its `add_outer(g, idx)` once, with the support the matrix leg ends
on.  While a row is not live, that call logs g and adds the rank-one term
to the support's rows only, so a step costs O(s n) in the store plus its
replays: every other live row carries a stamp, the number of logged g's it
includes, and is brought current from the log, in step order and so bit
for bit, when `touch` or a read reaches it or when the last row goes live.
A0 is kept as the problem's `kkt.Diagonal` when it is diagonal and as a
dense copy otherwise; once every row is live, every row is current, A0 and
the log are dropped, and `add_outer` adds to all n rows.  So memory is
O(s* n + k n) for k logged g's, not O(n^2), until every row is live.  Until
then each live row is a pure function of A0, the log and the log size at
which it went live, which the store keeps, so a checkpoint stores that size
and not the row.  The eager twin must follow the same path: acceptance
criterion 7 asserts equal event logs and per-step solutions within 1e-9 of
the lazy run's.

After the legs one residual rule pins down the path's roundoff: when the
step's residual exceeds REFRESH_FACTOR * tol, (v, mu0) take one step of
iterative refinement through M (state.refresh_quadruple), and M is first
refactorized from the live rows when the residual exceeds tol itself.
Refinement corrects the iterate by its residual, so its error does not grow
with |c| or |mu0|, which the gauge lets grow with t; there is no periodic
rebuild.

Between steps the session keeps the store, the linear term, the quadruple
and Par1, and nothing else: each leg derives its own cache, a Par2, from
Par1 when it starts and drops it when it ends.  A checkpoint (`HSS7`) holds that lasting state and its config.

Per step the driver emits a StepReport with that step's turning points and
their counts, the excess over the support symmetric-difference lower bound,
the optimality residual, wall time split into solve and matrix-maintenance
parts (the time the store spent), and the step's own scalar-multiplication
tally, used by the complexity check.  The session keeps none of it between
steps except the report list.
"""

import numbers
import struct
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .counters import MultCounter
from .errors import HonesError
from .kkt import DEFAULT_COND_CAP, Diagonal, Problem, Quadruple, Support, kkt_residual, oracle_solve
from .path_matrix import PathEvent, run_lambda_leg
from .path_vector import run_utilde_leg
from .state import Par1, init_par1, outer, par1_from_matrix, refresh_quadruple, validate_state


# Refine (v, mu0) through M when the step's residual exceeds this share of tol.
REFRESH_FACTOR = 0.25

# Entries per block of the rank-one update of the live rows, and of the
# scratch block `_replay` sums in.  Until every row is live, `add_outer` adds
# only to the support's rows, one block while s <= UPDATE_BLOCK // n (65 at
# n = 1000).  A full store adds to all n rows: in one block up to n = 256,
# and above it in blocks of 512 KB, which keep the temporaries off fresh
# pages (one n x n temporary is 8 MB at n = 1000).
UPDATE_BLOCK = 65536

# The stamp of a row that is not live: above any log size.
NOT_LIVE = np.iinfo(np.intp).max


@dataclass
class SolverConfig:
    """The two settings of one solver session.

    tol: residual target; a step whose residual exceeds REFRESH_FACTOR * tol
        takes one step of iterative refinement of (v, mu0) through the cached
        inverse, and refactorizes that inverse first when the residual
        exceeds tol.
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
        if not (isinstance(self.tol, numbers.Real) and not isinstance(self.tol, bool)):
            raise ValueError(f"tol must be a real number, got {self.tol!r}")
        if not (np.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if not isinstance(self.lazy_a, bool):
            raise ValueError(f"lazy_a must be a bool, got {self.lazy_a!r}")


@dataclass(slots=True)
class StepReport:
    """What one step did.

    kkt_residual is measured against the equivalent gauged problem the
    session solves (its matrix and linear term), not the caller's (A, c): the
    two share the iterate but differ in mu0 and in the stored matrix.
    refreshes is 1 when the step refined (v, mu0) through the cached
    inverse, and 0 otherwise; rebuilds counts its refactorizations of Par1.
    events lists the step's turning points, the matrix leg's first.
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
    events: list[PathEvent]


def _grown(buf, rows):
    """A copy of the full buffer `buf` with room for `rows` rows."""
    grown = np.empty((rows, buf.shape[1]))
    grown[: buf.shape[0]] = buf
    return grown


class LiveRows:
    """A symmetric n x n matrix kept lazily by rows, read as if it were the matrix.

    The store is the session's whole matrix state.  `touched` marks the rows
    whose index has ever entered a support (the set S*).  The live rows are
    either all n (eager mode) or exactly the touched ones (lazy mode).  Row j
    sits in block row slot[j] of `rows`, in the order the rows went live;
    once every row is live, the block is in index order and the slot map is
    the identity, so reads skip it.  A row that is not live has slot
    n, which lies past the block (it never holds more than n rows), so
    reading it raises IndexError and never returns another row.  The reads
    the solver makes all go by row: A[j], A[j, cols], A[idx] and
    A[np.ix_(idx, cols)].

    While a row is not live, `a0` keeps the pristine initial matrix (a
    read-only `kkt.Diagonal`, or a dense copy; either is read by row) and the
    log keeps every g added since, one per row of a doubling buffer; a row
    that goes live is rebuilt from the two.
    Until every row is live, a live row j also carries a stamp, stamp[j]:
    how many logged g's it already includes.  `add_outer` brings only the
    rows it is given (the step's support) up to the new g, so a step costs
    O(s n) and the other live rows fall behind.  A row that has fallen
    behind (a stale row) is brought current by replaying its missed logged
    terms in step order, which gives it the very bits the per-step adds
    would have; that happens when `touch` reaches it, when any read covers
    it and, for every stale row at once, when the last row goes live.  Then
    A0 and the log are dropped, and every row is current from there on.
    Until then born[j] is the log size at which live row j went live (0
    for the rows live from the start), so row j is a pure function of A0,
    the first born[j] logged g's and the later ones: `save` writes born
    instead of the rows, and `rebuilt` builds them back.  `busy_ns` counts
    the nanoseconds spent on catch-ups, replays, row updates and the log.
    """

    __slots__ = (
        "n", "rows", "slot", "size", "touched", "s_star", "a0", "log", "log_size", "stamp", "born", "scratch",
        "busy_ns",
    )

    def __init__(self, rows, touched, a0, log):
        """`rows` holds every row, or the touched rows in increasing index order.

        The store adopts `rows`, the writable mask `touched` and `log`, the
        buffer the g's are logged in, one per row; none is logged yet, so
        the rows are those of the initial matrix.  `a0` is None when every
        row is live.  `s_star` counts the touched rows; `touch` keeps it.
        """
        self.n = rows.shape[1]
        self.touched = touched
        self.s_star = int(np.count_nonzero(touched))
        self.busy_ns = 0
        self._adopt(rows, a0, log)

    def _adopt(self, rows, a0, log):
        """Hold `rows`, `a0` and `log` as a store with no g logged yet: every field but n, touched and busy_ns."""
        n = self.n
        live = np.arange(n) if rows.shape[0] == n else np.flatnonzero(self.touched)
        self.rows = rows
        self.size = live.size
        self.slot = np.full(n, n, dtype=np.intp)
        self.slot[live] = np.arange(live.size)
        self.a0 = a0
        self.log = log
        self.log_size = 0
        # A row that is not live carries a stamp no log reaches, so no read
        # takes it for stale; the read then raises at its slot.
        self.stamp = np.full(n, NOT_LIVE, dtype=np.intp)
        self.stamp[live] = 0
        self.born = None if a0 is None else self.stamp.copy()
        self.scratch = None

    @classmethod
    def rebuilt(cls, touched, a0, log, born):
        """The lazy store over `a0` and the g's in `log` whose touched rows went live at log sizes `born`.

        `born` has one entry per touched row, in increasing index order.
        Each row goes live through the catch-up, in index order, with the
        log cut to its first born g's, and is left stale at that stamp; the
        first read replays the rest.  A row's bits depend on its own born
        entry alone, and its slot reaches no read and no saved byte, so the
        store continues bit for bit like the one whose born entries these
        are.
        """
        live = np.flatnonzero(touched)
        store = cls(np.empty((live.size, touched.size)), np.zeros_like(touched), a0, log)
        for j, k in zip(live.tolist(), born.tolist()):
            store.log_size = k
            _catch_up_column(store, j)
        store.log_size = log.shape[0]
        store.touched = touched
        store.s_star = live.size
        return store

    def __getitem__(self, key):
        if self.size == self.n:  # every row live and current, in index order
            return self.rows[key]
        rows = key[0] if isinstance(key, tuple) else key
        if np.minimum.reduce(self.stamp[rows], axis=None, initial=NOT_LIVE) < self.log_size:
            t0 = time.perf_counter_ns()
            self._bring_current(rows)
            self.busy_ns += time.perf_counter_ns() - t0
        if rows is key:
            return self.rows[self.slot[key]]
        return self.rows[(self.slot[rows],) + key[1:]]

    @property
    def full(self):
        return self.size == self.n

    @property
    def g_log(self):
        """The logged g's, one per row, oldest first (a view of the log's filled prefix)."""
        return self.log[: self.log_size]

    def live(self):
        """Indices of the live rows, increasing."""
        return np.flatnonzero(self.slot < self.n)

    def _bring_current(self, rows):
        """Replay every stale live row among `rows` (any row index); rows that are not live are left alone."""
        stale = np.zeros(self.n, dtype=bool)
        stale[rows] = True
        stale &= self.stamp < self.log_size
        for j in stale.nonzero()[0]:
            _replay(self, j)

    def touch(self, j):
        """Add j to the touched set; row j is made live or brought current first if it is not."""
        if self.stamp[j] != self.log_size:
            t0 = time.perf_counter_ns()
            _catch_up_column(self, j)
            self.busy_ns += time.perf_counter_ns() - t0
        if not self.touched[j]:
            self.touched[j] = True
            self.s_star += 1

    def add_outer(self, g, idx):
        """Row j += g[j] g for every j in `idx` (distinct, live), or for every row once all are live.

        The rows go in blocks of about UPDATE_BLOCK entries.  While a row is
        not live, g is also logged, and the rows of `idx`, brought current
        first, are stamped with the new log size; every other live row falls
        one more logged g behind.
        """
        t0 = time.perf_counter_ns()
        n = self.n
        per = UPDATE_BLOCK // n or 1
        if self.size == n:
            live = self.rows
            for k in range(0, n, per):
                live[k : k + per] += outer(g[k : k + per], g)
        else:
            if np.minimum.reduce(self.stamp[idx], initial=NOT_LIVE) < self.log_size:
                self._bring_current(idx)
            slots, g_s = self.slot[idx], g[idx]
            for k in range(0, idx.size, per):
                self.rows[slots[k : k + per]] += outer(g_s[k : k + per], g)
            if self.log_size == self.log.shape[0]:
                self.log = _grown(self.log, max(2 * self.log_size, 1))
            self.log[self.log_size] = g
            self.log_size += 1
            self.stamp[idx] = self.log_size
        self.busy_ns += time.perf_counter_ns() - t0


class SolverSession:
    """All state of one sequential solve that lasts from one step to the next.

    `A` is the LiveRows store, which owns the whole matrix state: the live
    rows, the touched set S*, and the pristine A0 and g log that rows are
    caught up from.  Its invariant: each live row, as read, equals the
    initial row plus the rank-one contributions of every step so far (the
    store brings a stale row current before a read returns it, and the
    support's rows are always current); a row that is not live is not
    stored, and reading it raises.

    A, c and the logged g's are in the gauge the legs run in; c_shift is that
    c minus the caller's last linear term (zero until a step fuses a drift).
    Of the caches only Par1 is kept: a leg's Par2 belongs to one step's g or
    drift, so each leg derives its own from Par1 when it starts.
    """

    def __init__(self, A, c0, quadruple, par1, config):
        self.config = config
        self.n = A.n
        self.A = A
        self.c = np.array(c0, dtype=np.float64)
        self.c_shift = np.zeros(self.n)
        self.quadruple = quadruple
        self.par1 = par1
        self.t = 0
        self.rebuild_count = 0
        self.reports = []

    @property
    def x(self):
        return self.quadruple.x

    @property
    def support(self):
        return self.quadruple.support

    def residual(self):
        """Optimality residual of the current quadruple against the gauged (A_t, c_t).

        This is the equivalent problem the legs solve, so mu0 and the matrix
        differ from the caller's; the iterate does not.  kkt_residual reads
        only the support rows of A, which are live by the session invariant.
        """
        return kkt_residual(self, self.quadruple)

    def validate(self):
        """Par1's drift against a fresh factorization of the live rows."""
        return validate_state(self, self.support, self.par1)

    # -- checkpointing -------------------------------------------------------
    #
    # The one checkpoint layout; little-endian, floats IEEE-754 binary64:
    #   "HSS7", n u32, t u32, k u32 (logged g's), s u32 (support size),
    #       lazy_a u8, A0 kind u8 (0: none, 1: a Diagonal, 2: dense), 2 pad bytes
    #   A0 0, n (the Diagonal's d) or n*n (by kind), c n, c_shift n,
    #       touched-row mask n u8, g log k*n,
    #       born r i64 (kind 1 or 2: the log size at which each of the r
    #       touched rows went live, in increasing index order), or
    #       A n*n (kind 0: every row is live, in index order)
    #   support s i64, v n, mu0, M n*s (row-major), eta_tilde n, D
    #   tol
    # While A0 is kept the file holds no row: `load` rebuilds each live row
    # from A0, the log and its born entry.  `load` checks all of it before it
    # builds anything.

    HEADER = struct.Struct("<4sIIIIBB2x")

    @staticmethod
    def _sections(n, k, s, a0_size, r):
        """(name, dtype, count) of the arrays after the header, in file order, for r live rows."""
        born, rows = (r, 0) if a0_size else (0, r * n)
        return [
            ("A0", "<f8", a0_size), ("c", "<f8", n), ("c_shift", "<f8", n), ("mask", "u1", n), ("g_log", "<f8", k * n),
            ("born", "<i8", born), ("A", "<f8", rows), ("support", "<i8", s), ("v", "<f8", n), ("mu0", "<f8", 1),
            ("M", "<f8", n * s), ("eta_tilde", "<f8", n), ("D", "<f8", 1), ("tol", "<f8", 1),
        ]

    def save(self, path):
        """Write the session to `path`; it reads no row of the store, so it replays nothing."""
        q, par1, cfg, A = self.quadruple, self.par1, self.config, self.A
        k, s = A.log_size, q.support.size
        a0 = A.a0.d if isinstance(A.a0, Diagonal) else np.empty(0) if A.a0 is None else A.a0
        born, rows = (np.empty(0), A.rows) if A.full else (A.born[A.live()], np.empty(0))
        fields = dict(A0=a0, c=self.c, c_shift=self.c_shift, mask=A.touched, g_log=A.g_log, born=born, A=rows)
        fields.update(support=q.support.idx, v=q.v, mu0=q.mu0, M=par1.M, eta_tilde=par1.eta_tilde, D=par1.D)
        fields.update(tol=cfg.tol)
        parts = [self.HEADER.pack(b"HSS7", self.n, self.t, k, s, cfg.lazy_a, 0 if A.a0 is None else a0.ndim)]
        sections = self._sections(self.n, k, s, a0.size, A.size)
        parts += [np.asarray(fields[name], dtype).tobytes() for name, dtype, _ in sections]
        with open(path, "wb") as fh:
            fh.write(b"".join(parts))

    @classmethod
    def load(cls, path):
        """Restore a session written by `save`, config included; it continues bit for bit.

        A file that is not exactly a checkpoint (wrong magic, a length other
        than its header and mask imply, a flag byte other than 0 or 1, an A0
        kind other than 0, 1 or 2, an A0 or log kept when every row is live
        or no A0 when one is not, a born entry outside 0..k, a support that
        is not strictly increasing inside the touched rows, a non-finite
        float, a kept A0 and c that `Problem` refuses, as `init_session`
        would, a tol SolverConfig refuses) raises ValueError before any
        session is built.  While A0 is kept, the live rows are rebuilt by the
        store's own catch-up (`LiveRows.rebuilt`).
        """
        with open(path, "rb") as fh:
            buf = fh.read()
        if len(buf) < cls.HEADER.size or buf[:4] != b"HSS7":
            raise ValueError("not a session checkpoint")
        _, n, t, k, s, lazy, kind = cls.HEADER.unpack_from(buf)
        if lazy > 1 or kind > 2:
            raise ValueError("lazy_a must be 0 or 1 and the A0 kind 0, 1 or 2")
        a0_size = (0, n, n * n)[kind]
        # The live-row count follows from the mask, which sits at a fixed offset.
        mask_at = cls.HEADER.size + 8 * (a0_size + 2 * n)
        if len(buf) < mask_at + n:
            raise ValueError(f"checkpoint has {len(buf)} bytes, too few for its header")
        mask = np.frombuffer(buf, "u1", n, mask_at)
        if (mask > 1).any():
            raise ValueError("touched-row bytes must be 0 or 1")
        r = int(np.count_nonzero(mask)) if lazy else n
        sections = cls._sections(n, k, s, a0_size, r)
        size = cls.HEADER.size + sum(np.dtype(dtype).itemsize * count for _, dtype, count in sections)
        if len(buf) != size:
            raise ValueError(f"checkpoint has {len(buf)} bytes, its header and mask imply {size}")
        if (r == n) != (kind == 0) or (r == n and k):
            raise ValueError("A0 and the log are kept while, and only while, a row is not live")
        f = {}
        off = cls.HEADER.size
        for name, dtype, count in sections:
            f[name] = np.frombuffer(buf, dtype, count, off)
            off += f[name].nbytes
        if not ((f["born"] >= 0) & (f["born"] <= k)).all():
            raise ValueError(f"born entries must lie in 0..{k}, the log size")
        idx = f["support"]
        if not (s and idx[0] >= 0 and idx[-1] < n and (np.diff(idx) > 0).all() and mask[idx].all()):
            raise ValueError("support must be nonempty, strictly increasing and inside the touched rows")
        if not all(np.isfinite(f[name]).all() for name, dtype, _ in sections if dtype == "<f8"):
            raise ValueError("checkpoint holds a NaN or infinite float")
        if kind:  # A0 and c must make a Problem, as they must in init_session
            a0 = Problem(Diagonal(f["A0"]) if kind == 1 else f["A0"].reshape(n, n).astype(np.float64), f["c"]).A
        config = SolverConfig(tol=float(f["tol"][0]), lazy_a=bool(lazy))

        def vec(name):
            return f[name].astype(np.float64)

        support = Support(n, idx)
        quadruple = Quadruple(support, vec("v"), float(f["mu0"][0]))
        par1 = Par1(vec("M").reshape(n, s), vec("eta_tilde"), float(f["D"][0]))
        touched = mask.astype(bool)
        if kind:
            A = LiveRows.rebuilt(touched, a0, vec("g_log").reshape(k, n), f["born"])
        else:
            A = LiveRows(vec("A").reshape(n, n), touched, None, np.empty((0, n)))
        ses = cls(A, f["c"], quadruple, par1, config)
        ses.t = t
        ses.c_shift = vec("c_shift")
        return ses


def init_session(A0, c0, config=None):
    """Start a session at the global optimum of the initial problem.

    Only the support's rows of A0 go live (all n in eager mode); the rest
    stay in the pristine A0 until their index first enters a support.

    A0 may be a `kkt.Diagonal` (every shipped flow carries one) or an
    array; `Problem` holds a diagonal array as a Diagonal too.  The store
    keeps that Diagonal itself as its A0 (it is read-only, so no copy is
    needed), or a dense copy of any other A0.  Set-up over a Diagonal costs
    O(n) for the checks, O(n log n) for the oracle's seed, O(s^3) per oracle
    support change and O(n s^2) for Par1 on the initial support of size s;
    in lazy mode no n x n array is allocated or read.  A dense A0 that is
    diagonal adds one pass over it, and any other A0 adds O(n^3) for its
    Cholesky check and the oracle's dense seed.
    """
    config = config or SolverConfig()
    problem = Problem(A0, c0)
    quadruple = oracle_solve(problem)
    par1 = init_par1(problem, quadruple.support)
    live = quadruple.support.idx if config.lazy_a else np.arange(problem.n)
    a0 = None
    if live.size < problem.n:
        a0 = problem.A if isinstance(problem.A, Diagonal) else problem.A.copy()
    A = LiveRows(problem.A[live], quadruple.support.mask.copy(), a0, np.empty((0, problem.n)))
    return SolverSession(A, c0, quadruple, par1, config)


def _catch_up_column(store, j):
    """Make row j (column j of the symmetric A) of the LiveRows `store` live and current.

    A live row that has fallen behind is replayed (see `_replay`).  A row
    that is not live takes the next free block row, grown by doubling when
    full, and gets the pristine row of A0 (either form reads a dense row,
    +0.0 off a Diagonal's diagonal) plus G' G[:, j] over the logged g's,
    which the log keeps as one contiguous block; its stamp and born entry
    are the log size.  When that makes every row live, every stale row is
    replayed, and A0, the log, the born entries and the replay scratch, no
    longer needed, are dropped.
    """
    if store.slot[j] < store.n:
        _replay(store, j)
        return
    i = store.size
    if i == store.rows.shape[0]:
        store.rows = _grown(store.rows, min(2 * i, store.n))
    store.slot[j] = i
    store.size += 1
    store.stamp[j] = store.born[j] = store.log_size
    row = store.rows[i]
    row[:] = store.a0[j]
    if store.log_size:
        G = store.g_log
        row += G.T @ G[:, j]
    if store.full:
        store._bring_current(slice(None))
        # Every row is live and current: hold them in index order as a full
        # store, so that reads and the rank-one update no longer go through
        # the slot map.
        store._adopt(store.rows[store.slot], None, np.empty((0, store.n)))


def _replay(store, j):
    """Bring the live row j of `store` current: add the logged terms it missed, in step order.

    Per chunk of logged g's, the scratch block P (UPDATE_BLOCK // n rows, at
    least 2, kept by the store) takes the row followed by G[a:b, j] * G[a:b],
    and the row becomes the sum of P down its rows.  numpy sums a
    C-contiguous block of two or more columns down axis 0 one row after the
    other, so this is the row plus each term in turn, the bits of the
    per-step adds; only a one-column block is summed pairwise, and a
    one-row store is always full, so it never replays.
    """
    P = store.scratch
    if P is None:
        P = store.scratch = np.empty((max(UPDATE_BLOCK // store.n, 2), store.n))
    per = P.shape[0] - 1
    row = store.rows[store.slot[j]]
    G = store.g_log
    end = store.log_size
    for a in range(store.stamp[j], end, per):
        b = min(a + per, end)
        P[0] = row
        np.einsum("k,ki->ki", G[a:b, j], G[a:b], out=P[1 : b - a + 1])
        np.add.reduce(P[: b - a + 1], axis=0, out=row)
    store.stamp[j] = end


def _gauge_share(g, l):
    """The gauge scalar b of one step: the share of g in the drift l, or 0.

    l = a g + beta 1 + r is the least-squares split over span{g, 1}; the
    step fuses, b = a, whenever |a| <= max|g|, else b = 0.  The split is
    exact for any b and beta 1 has zero velocity, so fusing the g part never
    adds velocity to the vector leg, however large r is.  The cap keeps
    g - b 1 from turning into a near multiple of 1, whose updates would grow
    A along 11' and push the support's block toward singular.  The split
    costs O(n) and, like the matrix maintenance, stays out of the
    multiplication tally.
    """
    if not np.logical_or.reduce(l):
        return 0.0
    gc = g - np.add.reduce(g) / g.size
    gg = float(gc @ gc)
    if gg == 0.0:
        return 0.0
    a = float(gc @ l) / gg
    return a if abs(a) <= float(np.maximum.reduce(np.abs(g))) else 0.0


def step(session, g_t, c_t):
    """Advance one problem update; returns the StepReport.

    Gauges the step (see the module docstring), runs the matrix leg along
    g - b 1, folds that rank-one update into the live rows, then runs the
    vector leg for what is left of the drift.  Degeneracies inside a leg
    trigger one in-place rebuild and retry before propagating.  Input of the
    wrong shape or with non-finite entries is rejected with ValueError before
    anything changes; a broken turning point invariant raises HonesError.
    """
    cfg, A = session.config, session.A
    counter = MultCounter()
    t_start = time.perf_counter_ns()
    busy_before = A.busy_ns
    rebuilds_before = session.rebuild_count

    n = session.n
    g = np.asarray(g_t, dtype=np.float64)
    c_new = np.asarray(c_t, dtype=np.float64)
    if g.shape != (n,) or c_new.shape != (n,):
        raise ValueError(f"step vectors must have length {n}")
    if not (np.logical_and.reduce(np.isfinite(g)) and np.logical_and.reduce(np.isfinite(c_new))):
        raise ValueError("step vectors must be finite")
    session.t += 1
    q = session.quadruple
    prev_support = q.support
    s_start = prev_support.size

    # The caller's drift, split against g; c_shift changes only when b != 0,
    # so a flow that never fuses keeps c_shift at exactly zero.
    c_shift = session.c_shift
    b = _gauge_share(g, c_new - (session.c - c_shift))
    if b:
        c_shift = c_shift - b * g
        g = g - b
    c_new = c_new + c_shift

    # Each leg derives its own cache from Par1 and makes a row live through
    # the store before it enters.  Both legs pivot the matrix the store
    # holds: the matrix leg runs on the step's starting A and moves Par1 to
    # A + g g' only at its end, after which the store takes the same update.
    # So the rebuild hook (passed by keyword, where a tracer can wrap it)
    # refactorizes Par1 in place from the stored support rows in either leg;
    # the leg's reference stays valid, and the leg then re-derives its cache.
    events_a = run_lambda_leg(
        A, g, q, session.par1, counter=counter, ensure_column=A.touch, rebuild=lambda: rebuild(session)
    )
    A.add_outer(g, q.support.idx)
    events_c = run_utilde_leg(
        A, c_new - session.c, q, session.par1, counter=counter, ensure_column=A.touch, rebuild=lambda: rebuild(session)
    )
    session.c = c_new
    session.c_shift = c_shift

    residual = session.residual()
    refreshes = int(residual > REFRESH_FACTOR * cfg.tol)
    if refreshes:
        # Accumulated path roundoff: one step of iterative refinement through
        # M, which is refactorized first when the residual exceeds tol.
        if residual > cfg.tol:
            rebuild(session)
        refresh_quadruple(q, session.par1, A, session.c, counter)
        residual = session.residual()

    events = events_a + events_c
    s_max = s_start
    for ev in events:
        if ev.support_size > s_max:
            s_max = ev.support_size

    k_a, k_c = len(events_a), len(events_c)
    k_t = k_a + k_c
    # Every toggle builds a new Support, so a step that ends on the Support
    # it started on changed nothing: its symmetric difference is 0, and its
    # support lies in the touched set, which only grows, as it did before.
    moved = q.support is not prev_support
    sym_diff = int(np.add.reduce(prev_support.mask ^ q.support.mask)) if moved else 0
    if k_t < sym_diff:
        raise HonesError(f"{k_t} turning points fell below the symmetric-difference bound {sym_diff}")
    if (k_t - sym_diff) % 2:
        raise HonesError(f"{k_t - sym_diff} toggles beyond the support change do not pair up")
    if moved and not np.logical_and.reduce(A.touched[q.support.idx]):
        raise HonesError("support escaped the touched set")
    report = StepReport(
        t=session.t,
        k_a=k_a,
        k_c=k_c,
        k_t=k_t,
        e_t=(k_t - sym_diff) // 2,
        support_size=q.support.size,
        s_max=s_max,
        s_star=A.s_star,
        kkt_residual=residual,
        wall_ns=time.perf_counter_ns() - t_start,
        a_update_ns=A.busy_ns - busy_before,
        mult_count=counter.total,
        rebuilds=session.rebuild_count - rebuilds_before,
        refreshes=refreshes,
        events=events,
    )
    session.reports.append(report)
    return report


def rebuild(session):
    """Refactorize Par1 in place from the stored support rows.

    The quadruple is untouched, and a leg re-derives its own cache after
    calling this.  Raises SingularSubmatrix if the live block cannot be
    factorized.
    """
    fresh = par1_from_matrix(session.A[session.support.idx], session.support)
    session.rebuild_count += 1
    session.par1.refresh_from(fresh)


def run_sequence(session, flow, steps):
    """Run `steps` updates pulled from the flow; returns [(x_t, report), ...].

    Raises ValueError when the flow ends before `steps` updates.
    """
    out = []
    it = iter(flow)
    for k in range(steps):
        pair = next(it, None)
        if pair is None:
            raise ValueError(f"flow ended after {k} of {steps} steps")
        report = step(session, *pair)
        out.append((session.x.copy(), report))
    return out


def complexity_bound(n, report):
    """Per-step multiplication budget, term by term from the tallied operations.

    With s = s_max, every tallied routine is bounded at size s.  The matrix
    leg's ratio test tallies its velocity and its two support products
    (2 n + 2 s) plus up to n near-zero checks; its O(1) scalars (sigma, the
    lam-current D, D_g and D_gg, and the map back to lam) are not tallied.
    An interior advance moves only v and mu0 (n + 9), and the leg's last
    advance adds the one rank-one that takes Par1 to A + g g'
    (n s + s + n + 3).
      fixed       3 n s + 7 n + 3 s + 13: both legs' cache products (2 n s),
                  the matrix leg's last ratio test (3 n + 2 s) and last
                  advance (n s + s + 2 n + 12), and the vector leg's
                  velocity and advance (2 n + 1);
      per k_A     2 n s + 5 n + 4 s + 14: one more matrix ratio test and
                  interior advance, plus an entry (which costs more than a
                  leave), 2 n s' + 3 n + 2 s' + 9 on the support size s'
                  it starts from; the three run on at most s - 1 indices;
      per k_c     2 n s + 3 n + 2 s + 8: the same for the vector leg, whose
                  velocity (n) and advance (n + 1) it counts in full;
      per refresh n s + n: one refinement of (v, mu0), its M product and
                  eta_tilde term (its residual's A product, like the
                  residual's own, is not tallied).
    Rebuilds factorize outside the tally.  An in-leg retry after a rebuild
    repeats one ratio test and advance, which the budget does not cover.  A
    step whose gauged drift is exactly zero (every markowitz step) skips the
    vector leg and so spends none of its cache product, velocity and advance
    (n s + 2 n + 1); the fixed term still counts them.
    """
    s = report.s_max
    fixed = 3 * n * s + 7 * n + 3 * s + 13
    per_a = 2 * n * s + 5 * n + 4 * s + 14
    per_c = 2 * n * s + 3 * n + 2 * s + 8
    return fixed + report.k_a * per_a + report.k_c * per_c + report.refreshes * (n * s + n)


def count_ops(reports, n):
    """The number of steps whose multiplication tally exceeds its budget, `complexity_bound`."""
    return sum(r.mult_count > complexity_bound(n, r) for r in reports)


def aggregate_reports(reports, epoch=250):
    """The one summary of any StepReport list: support size, excess turning points, residual, tallies and time.

    Per step, wall_ns is the whole step and a_update_ns its matrix update;
    the solve, wall_opt, is their difference.  Seconds are summed over the
    run and over each epoch of `epoch` steps.
    """
    if not reports:
        return {
            "steps": 0,
            "support": {},
            "excess_turning_points": {},
            "epoch_wall_s": [],
            "epoch_wall_opt_s": [],
        }
    sizes = np.array([r.support_size for r in reports], dtype=float)
    e = np.array([r.e_t for r in reports], dtype=float)
    wall = np.array([r.wall_ns for r in reports], dtype=float)
    opt = wall - np.array([r.a_update_ns for r in reports], dtype=float)
    epochs = range(0, len(reports), epoch)
    return {
        "steps": len(reports),
        "support": {
            "mean": float(sizes.mean()),
            "std": float(sizes.std(ddof=1)) if len(reports) > 1 else 0.0,
            "max": int(sizes.max()),
            "min": int(sizes.min()),
        },
        "excess_turning_points": {
            "proportion_zero": float(np.mean(e == 0)),
            "q99": float(np.quantile(e, 0.99)),
            "q999": float(np.quantile(e, 0.999)),
            "max": int(e.max()),
        },
        "kkt_residual_max": float(max(r.kkt_residual for r in reports)),
        "mult_total": int(sum(r.mult_count for r in reports)),
        "rebuilds": int(sum(r.rebuilds for r in reports)),
        "wall_s": float(wall.sum() / 1e9),
        "epoch_wall_s": [float(wall[i : i + epoch].sum() / 1e9) for i in epochs],
        "wall_opt_s": float(opt.sum() / 1e9),
        "epoch_wall_opt_s": [float(opt[i : i + epoch].sum() / 1e9) for i in epochs],
    }
