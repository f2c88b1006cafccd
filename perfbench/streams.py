"""Workloads of the stream benchmark and the closed loop that drives hones.

One caller feeds the generated (g_t, c_t) pairs to `hones.driver.step` and
waits for each solution before producing the next pair.  The ons flow is
closed-loop for real: its next g_t reads the solver's current output.
Everything a run does is a pure function of the workload and the seed, so the
exact counts of a stream (turning points, multiplications, rebuilds) repeat
bit for bit and serve as its fingerprint.
"""

import hashlib
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from hones import driver, kkt
from hones.baselines import pg_warmstart_solve
from hones.errors import HonesError
from hones.flows import FlowConfig, flow_for_config

# The library defaults are what a user of the stream gets: tol 1e-8, a
# periodic rebuild every 1000 steps, dense Par1 layout, lazy matrix.
CONFIG = driver.SolverConfig()

# The end-of-run oracle must agree with the final iterate to this max-norm
# distance; the measured disagreement is a few 1e-12 on every workload.
X_AGREEMENT_TOL = 1e-7

PG_MAX_ITER = 20000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # flow kind: synthetic | ons | markowitz
    n: int
    steps: int  # stream length T
    stream_s: float  # nominal seconds per stream, sizes a run to --seconds
    passes: int  # times an untraced run feeds each of its streams
    pg_prefix: int  # steps of the pg-warm reference in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        # The host jitters each step by up to half, and it slows the
        # interpreter-bound median step more than the whole stream.  Each
        # stream is fed several times, its passes seconds apart, and every
        # step counts with its fastest pass.
        Workload("synthetic-n1000", "synthetic", 1000, 500, 1.3, 6, 20),
        # Rebuild steps are slower, and their share varies from one stream to
        # the next, which moves the median step by up to a quarter: a run
        # feeds two streams.
        Workload("ons-n100", "ons", 100, 8000, 3.75, 4, 2000),
        # Work barely varies with the seed: one stream, more passes.
        Workload("markowitz-n200", "markowitz", 200, 3000, 3.5, 8, 500),
    )
}


def stream_seeds(seed, count):
    """Seeds of the `count` distinct streams a run feeds for workload seed `seed`."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def make_flow(wl, seed, x_feedback):
    """The workload's flow; the synthetic one keeps FlowConfig's c_factor of 0.1."""
    return flow_for_config(FlowConfig(wl.kind, wl.n, wl.steps, seed=seed), x_feedback=x_feedback)


def open_stream(wl, seed):
    """Flow construction plus `init_session`: the set-up a user pays once."""
    box = {}
    flow = make_flow(wl, seed, lambda: box["session"].x)
    session = driver.init_session(flow.a0, flow.c0, CONFIG)
    box["session"] = session
    return flow, session


def setup_seconds(wl, seed):
    t0 = time.perf_counter()
    open_stream(wl, seed)
    return time.perf_counter() - t0


@dataclass
class StreamResult:
    setup_s: float
    loop_s: float  # whole stream loop, input generation included
    step_ns: np.ndarray  # wall of every step() call that returned
    iter_ns: np.ndarray  # the same plus making its input pair
    attempted: int
    failed: int  # raised, residual over tol, or never attempted after a raise
    error: str
    session: object
    inputs: tuple  # (A0 + G'G, c_T) from the recorded inputs, or None

    @property
    def steps_per_s(self):
        return self.step_ns.size / self.loop_s


def run_stream(wl, seed, steps=None, record=None, nxt=next, tracer=None):
    """Set up and feed one stream of `steps` pairs (default: the workload's T).

    `record`, a T x n buffer, keeps the fed g_t so the final iterate can be
    checked against the oracle; `nxt` and `tracer` let the traced run time
    input generation and stamp spans with the step number.
    """
    t0 = time.perf_counter()
    flow, session = open_stream(wl, seed)
    setup_s = time.perf_counter() - t0
    total = wl.steps if steps is None else steps
    step_ns = np.zeros(total, dtype=np.int64)
    iter_ns = np.zeros(total, dtype=np.int64)
    c_t = flow.c0
    tol = CONFIG.tol
    clock = time.perf_counter_ns
    done = over_tol = 0
    error = ""
    it = iter(flow)
    loop0 = clock()
    try:
        for k in range(total):
            if tracer is not None:
                tracer.t = k + 1
            i0 = clock()
            g, c_t = nxt(it)
            s0 = clock()
            report = driver.step(session, g, c_t)
            s1 = clock()
            step_ns[k] = s1 - s0
            iter_ns[k] = s1 - i0
            done = k + 1
            if report.kkt_residual > tol:
                over_tol += 1
            if record is not None:
                record[k] = g
    except HonesError as err:
        error = f"step {done + 1}: {type(err).__name__}: {err}"
    loop_s = (clock() - loop0) / 1e9

    inputs = None
    if record is not None:
        G = record[:done]
        inputs = (np.asarray(flow.a0, dtype=np.float64) + G.T @ G, np.array(c_t, dtype=np.float64))
    return StreamResult(
        setup_s=setup_s,
        loop_s=loop_s,
        step_ns=step_ns[:done],
        iter_ns=iter_ns[:done],
        attempted=total,
        failed=over_tol + (total - done),
        error=error,
        session=session,
        inputs=inputs,
    )


def fingerprint(session):
    """Exact counts of a stream, plus a digest of the final iterate."""
    reports = session.reports
    return {
        "k_a": sum(r.k_a for r in reports),
        "k_c": sum(r.k_c for r in reports),
        "e_sum": sum(r.e_t for r in reports),
        "mult_total": sum(r.mult_count for r in reports),
        "rebuilds": sum(r.rebuilds for r in reports),
        "support_sum": sum(r.support_size for r in reports),
        "x_sha256": hashlib.sha256(session.x.tobytes()).hexdigest()[:16],
    }


def oracle_check(result):
    """Max-norm distance between the final iterate and an independent solve.

    The oracle sees the accumulated problem A0 + G'G and the last c_t, built
    from the inputs the stream fed, never the session's lazily kept matrix.
    The stream must have been run with `record`.
    Returns (distance, message); the distance is inf when the oracle fails.
    """
    A, c = result.inputs
    try:
        ref = kkt.oracle_solve(kkt.Problem(A, c), cond_cap=CONFIG.cond_cap)
    except (HonesError, ValueError) as err:
        return float("inf"), f"oracle failed: {type(err).__name__}: {err}"
    dev = float(np.max(np.abs(ref.x - result.session.x)))
    return dev, f"max |x - x_oracle| = {dev:.3e} (tolerance {X_AGREEMENT_TOL:g})"


def pg_reference(wl, seed):
    """pg-warm against hones on the first `pg_prefix` steps of the stream.

    pg-warm keeps the full matrix current and warm-starts from its previous
    iterate at the same tol; on the ons flow it closes the loop on its own
    iterate.  Returns (pg steps/s, hones steps/s, pg steps unconverged).
    """
    steps = wl.pg_prefix
    hones_sps = run_stream(wl, seed, steps=steps).steps_per_s

    box = {}
    flow = make_flow(wl, seed, lambda: box["x"])
    A = np.array(flow.a0, dtype=np.float64)
    box["x"] = kkt.oracle_solve(kkt.Problem(A, flow.c0)).x
    unconverged = 0
    it = iter(flow)
    t0 = time.perf_counter()
    for _ in range(steps):
        g, c_t = next(it)
        A += np.outer(g, g)
        problem = SimpleNamespace(A=A, c=np.asarray(c_t, dtype=np.float64), n=wl.n)
        res = pg_warmstart_solve(problem, box["x"], tol=CONFIG.tol, max_iter=PG_MAX_ITER)
        box["x"] = res.x
        unconverged += 0 if res.converged else 1
    pg_sps = steps / (time.perf_counter() - t0)
    return pg_sps, hones_sps, unconverged
