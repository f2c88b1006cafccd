import csv
import dataclasses
import itertools
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hones import driver, path_matrix, path_vector
from hones.driver import (
    SolverConfig,
    SolverSession,
    aggregate_reports,
    complexity_bound,
    count_ops,
    init_session,
    rebuild,
    run_sequence,
    step,
)
from hones.flows import (
    FlowConfig,
    PriceSeries,
    flow_for_config,
    markowitz_flow,
    ons_flow,
    synthetic_flow,
    synthetic_prices,
)
from hones.errors import CycleLimit, DegenerateDenominator, HonesError
from hones.kkt import DEFAULT_COND_CAP, Diagonal, Problem, oracle_solve
from hones.path_matrix import PathEvent

from test_step_equivalence import ref_add_outer

GOLDEN_DIR = Path(__file__).parent / "golden"


GOLDEN_CHECKPOINT = GOLDEN_DIR / "session-hss7-synthetic-n12-seed61-t20.bin"

# Checkpoint sections in file order; "born" holds the log size at which each
# live row went live while A0 is kept, "A" the rows once every row is live.
CHECKPOINT_SECTIONS = (
    "header", "A0", "c", "c_shift", "mask", "g_log", "born", "A", "support", "v", "mu0", "M", "eta_tilde", "D",
    "config",
)


def checkpoint_sizes(n, k, s, a0, r):
    """Byte size of each section, for a0 floats of A0 and r live rows (their born entries while a0 > 0)."""
    born, rows = (r, 0) if a0 else (0, r * n)
    return (24, 8 * a0, 8 * n, 8 * n, n, 8 * k * n, 8 * born, 8 * rows, 8 * s, 8 * n, 8, 8 * n * s, 8 * n, 8, 8)


def layout(buf):
    """The start offset of each section of the checkpoint `buf`."""
    n, _, k, s, lazy, kind = struct.unpack_from("<IIIIBB", buf, 4)
    a0 = (0, n, n * n)[kind]
    r = int(np.frombuffer(buf, "u1", n, 24 + 8 * (a0 + 2 * n)).sum()) if lazy else n
    sizes = checkpoint_sizes(n, k, s, a0, r)
    starts = np.cumsum((0,) + sizes[:-1])
    assert starts[-1] + sizes[-1] == len(buf)
    return {name: int(at) for name, at in zip(CHECKPOINT_SECTIONS, starts)}


def golden_layout():
    """The golden checkpoint's bytes and the start offset of each section."""
    buf = GOLDEN_CHECKPOINT.read_bytes()
    assert struct.unpack_from("<BB", buf, 20) == (1, 1)
    return buf, layout(buf)


def full_checkpoint(path):
    """An eager n = 12 session saved before its first step: every row is live, so the file holds all of them."""
    flow = synthetic_flow(FlowConfig("synthetic", 12, 10, c_factor=0.1, seed=61))
    init_session(flow.a0, flow.c0, SolverConfig(lazy_a=False)).save(path)
    return path.read_bytes()


def dense_checkpoint(path):
    """A lazy n = 12 session over a dense SPD A0 (default_rng(3)) saved after 5 steps: A0 kind 2."""
    n = 12
    B = np.random.default_rng(3).standard_normal((n, n))
    flow = synthetic_flow(FlowConfig("synthetic", n, 5, c_factor=0.1, seed=3))
    ses = init_session(1e-3 * (B @ B.T / n + 0.1 * np.eye(n)), flow.c0)
    run_sequence(ses, flow, 5)
    assert not ses.A.full
    ses.save(path)
    return path.read_bytes()


def _put(buf, at, fmt, value):
    struct.pack_into(fmt, buf, at, value)
    return buf


def _support_outside_touched(buf, at):
    """Swap one support index for a row that is not live, keeping the support increasing."""
    n = struct.unpack_from("<I", buf, 4)[0]
    mask = np.frombuffer(buf, "u1", n, at["mask"])
    idx = np.frombuffer(buf, "<i8", (at["v"] - at["support"]) // 8, at["support"]).copy()
    j = int(np.flatnonzero(mask == 0)[0])
    idx[min(int(np.searchsorted(idx, j)), idx.size - 1)] = j
    buf[at["support"] : at["v"]] = idx.astype("<i8").tobytes()
    return buf


def _a0_negative(buf, at):
    """Set the diagonal A0 entry of the first row that is not live to -1.0."""
    n = struct.unpack_from("<I", buf, 4)[0]
    j = int(np.flatnonzero(np.frombuffer(buf, "u1", n, at["mask"]) == 0)[0])
    return _put(buf, at["A0"] + 8 * j, "<d", -1.0)


def _born(value):
    """Damage that sets the last born entry to `value` (k + 1 for None)."""

    def damage(buf, at):
        k = struct.unpack_from("<I", buf, 12)[0]
        return _put(buf, at["A"] - 8, "<q", k + 1 if value is None else value)

    return damage


NOT_A_CHECKPOINT = "not a session checkpoint"
SIZE = r"checkpoint has \d+ bytes, its header and mask imply \d+"
TOO_SHORT = r"checkpoint has \d+ bytes, too few for its header"
NON_FINITE = "NaN or infinite float"

# Damage that load must refuse, besides a cut at the start of each section:
# the damage and the reason load must give.  Each applies to the golden
# checkpoint unless CASE_SOURCE names another file.
DAMAGE = {
    "short-1": (lambda buf, at: buf[:-1], SIZE),
    "extra-1": (lambda buf, at: buf + b"\0", SIZE),
    "garbage": (lambda buf, at: b"not a snapshot", NOT_A_CHECKPOINT),
    "short-header": (lambda buf, at: buf[:10], NOT_A_CHECKPOINT),
    **{
        f"magic-{magic}": (lambda buf, at, magic=magic: _put(buf, 0, "4s", magic.encode()), NOT_A_CHECKPOINT)
        for magic in ("HSS1", "HSS2", "HSS3", "HSS4", "HSS5", "HSS6", "junk")
    },
    # n = 11 moves the mask onto the bytes of c_shift.
    "header-n": (lambda buf, at: _put(buf, 4, "<I", 11), "touched-row bytes must be 0 or 1"),
    "header-s": (lambda buf, at: _put(buf, 16, "<I", 9), SIZE),
    "lazy-2": (lambda buf, at: _put(buf, 20, "B", 2), "lazy_a must be 0 or 1"),
    "a0-kind-3": (lambda buf, at: _put(buf, 21, "B", 3), "the A0 kind 0, 1 or 2"),
    "a0-negative": (_a0_negative, "A must be positive definite"),
    "a0-dense-asymmetric": (lambda buf, at: _put(buf, at["A0"] + 8 * 1, "<d", 5.0), "A must be symmetric within 1e-10"),
    "a0-dense-negative": (lambda buf, at: _put(buf, at["A0"] + 8 * 26, "<d", -1.0), "A must be positive definite"),
    # A0[0, 1] = A0[1, 0] = 1 against a diagonal near 1e-3: symmetric, a positive diagonal, indefinite.
    "a0-dense-indefinite": (
        lambda buf, at: _put(_put(buf, at["A0"] + 8 * 1, "<d", 1.0), at["A0"] + 8 * 12, "<d", 1.0),
        "A must be positive definite",
    ),
    "born-above-k": (_born(None), "born entries must lie in 0..20"),
    "born-negative": (_born(-1), "born entries must lie in 0..20"),
    "mask-2": (lambda buf, at: _put(buf, at["mask"] + 3, "B", 2), "touched-row bytes must be 0 or 1"),
    "support-duplicate": (
        lambda buf, at: _put(buf, at["support"] + 8, "8s", buf[at["support"] : at["support"] + 8]),
        "support must be nonempty, strictly increasing",
    ),
    "support-outside-touched": (_support_outside_touched, "inside the touched rows"),
    "nan-A": (lambda buf, at: _put(buf, at["A"] + 8 * 13, "<d", float("nan")), NON_FINITE),
    "nan-M": (lambda buf, at: _put(buf, at["M"], "<d", float("nan")), NON_FINITE),
    "inf-tol": (lambda buf, at: _put(buf, at["config"], "<d", float("inf")), NON_FINITE),
    "tol-minus-1": (lambda buf, at: _put(buf, at["config"], "<d", -1.0), "tol must be finite and positive"),
}

# The golden checkpoint holds no rows and a diagonal A0; these cases need a
# file that holds every row, or a dense A0 (A0[0, 1], A0[1, 0] and A0[2, 2] above).
CASE_SOURCE = {
    "cut-A": full_checkpoint,
    "nan-A": full_checkpoint,
    "a0-dense-asymmetric": dense_checkpoint,
    "a0-dense-negative": dense_checkpoint,
    "a0-dense-indefinite": dense_checkpoint,
}

# What load must say of a file cut at the start of each section.
CUT_REASON = dict.fromkeys(CHECKPOINT_SECTIONS, SIZE) | {"header": NOT_A_CHECKPOINT} | dict.fromkeys(
    ("A0", "c", "c_shift", "mask"), TOO_SHORT
)


def synthetic_session(n, seed, c_factor=0.1, config=None, steps=1000):
    flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=c_factor, seed=seed))
    session = init_session(flow.a0, flow.c0, config)
    return session, flow


NON_TIMING = (
    "t", "k_a", "k_c", "k_t", "e_t", "support_size", "s_max", "s_star", "kkt_residual", "mult_count", "rebuilds"
)


def _fields(report):
    return [getattr(report, f) for f in NON_TIMING]


def rebuilding_every(period):
    """`step`, followed by a `rebuild` of Par1 after every `period`-th step of the session.

    It forces rebuilds at fixed steps, so a test can pin a path through them;
    the forced rebuild is counted by the session, not by the step's report.
    """

    def stepped(session, g, c):
        report = step(session, g, c)
        if session.t % period == 0:
            rebuild(session)
        return report

    return stepped


def event_keys(events):
    """What a lazy/eager twin must share of each turning point; the support after it follows from the toggles."""
    return [(ev.leg, ev.index, ev.kind, ev.support_size) for ev in events]


def ons_session(n, seed, steps, config=None):
    """A session and its closed-loop ons flow, fed back the session's iterate."""
    box = {}
    flow = flow_for_config(FlowConfig("ons", n, steps, seed=seed), x_feedback=lambda: box["ses"].x)
    box["ses"] = init_session(flow.a0, flow.c0, config)
    return box["ses"], flow


def run_against_oracle(ses, flow):
    """Feed the whole flow; returns max |x - x_oracle| on the caller's A0 + G'G and last c."""
    A = np.array(flow.a0, dtype=np.float64)
    for g, c in flow:
        step(ses, g, c)
        A += np.outer(g, g)
    return float(np.max(np.abs(ses.x - oracle_solve(Problem(A, c)).x)))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"lazy_a": 1},
            {"tol": None},
            {"tol": "x"},
            {"tol": True},
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    def test_only_tol_and_lazy_a_are_settable(self):
        # The rebuild period, cycle cap and condition cap are constants.
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "lazy_a"]
        for knob in ("rebuild_every", "cycle_cap", "cond_cap"):
            with pytest.raises(TypeError):
                SolverConfig(**{knob: 1})
        assert SolverConfig().cond_cap == DEFAULT_COND_CAP

    def test_edge_values_accepted(self):
        cfg = SolverConfig(tol=1e-300, lazy_a=False)
        assert (cfg.tol, cfg.lazy_a) == (1e-300, False)


class TestInitSession:
    def test_scaled_identity_gives_uniform(self):
        n = 7
        ses = init_session(1e-4 * np.eye(n), np.zeros(n))
        np.testing.assert_allclose(ses.x, np.full(n, 1.0 / n), atol=1e-12)
        assert np.flatnonzero(ses.A.touched).size == n

    def test_diag(self):
        ses = init_session(np.diag([2.0, 1.0]), np.zeros(2))
        np.testing.assert_allclose(ses.x, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    def test_rejects_non_finite_input(self):
        # Problem refuses the input before its symmetry and definiteness
        # checks can misread it.
        for bad in (np.nan, np.inf):
            A0 = np.eye(3)
            A0[1, 1] = bad
            with pytest.raises(ValueError, match="A and c must be finite"):
                init_session(A0, np.zeros(3))
            c0 = np.zeros(3)
            c0[2] = bad
            with pytest.raises(ValueError, match="A and c must be finite"):
                init_session(np.eye(3), c0)

    def test_diagonal_matches_the_dense_matrix_bit_for_bit(self, tmp_path):
        # The checkpoint holds the whole lasting state, so equal bytes after
        # set-up and after each step mean equal sessions.
        rng = np.random.default_rng(31)
        for lazy_a in (True, False):
            for n in (1, 5, 60):
                d = np.exp(rng.uniform(-6.0, 2.0, n))
                c = d * rng.standard_normal(n)
                twins = [init_session(a0, c, SolverConfig(lazy_a=lazy_a)) for a0 in (Diagonal(d), np.diag(d))]
                for t in range(6):
                    if t:
                        g, c = rng.standard_normal(n), c + rng.standard_normal(n)
                        for ses in twins:
                            step(ses, g, c)
                    saved = []
                    for k, ses in enumerate(twins):
                        ses.save(tmp_path / f"{k}.bin")
                        saved.append((tmp_path / f"{k}.bin").read_bytes())
                    assert saved[0] == saved[1]

    @pytest.mark.parametrize("kind", ["ons", "markowitz"])
    @pytest.mark.parametrize("n", [5, 20])
    def test_price_flows_start_with_every_row_live(self, kind, n):
        # A0 is a multiple of I and c0 = 0, so the oracle's first support is
        # all n: the store starts full, keeps no A0 and so never logs, catches
        # up or replays.  The synthetic flow starts on a partial support.
        flow = flow_for_config(FlowConfig(kind, n, 10, seed=3), x_feedback=lambda: None)
        assert np.all(flow.a0.d == flow.a0.d[0]) and not flow.c0.any()
        A = init_session(flow.a0, flow.c0).A
        assert A.full and A.a0 is None and A.s_star == n
        flow = flow_for_config(FlowConfig("synthetic", 20, 10, seed=3))
        A = init_session(flow.a0, flow.c0).A
        assert not A.full and A.a0 is not None and A.s_star < 20

    def test_singleton(self):
        ses = init_session(np.eye(1), np.zeros(1))
        np.testing.assert_allclose(ses.x, [1.0], atol=1e-15)
        rep = step(ses, np.array([0.5]), np.array([0.3]))
        assert rep.k_t == 0
        np.testing.assert_allclose(ses.x, [1.0], atol=1e-15)


class TestStep:
    def test_null_step_changes_nothing(self):
        rng = np.random.default_rng(0)
        n = 6
        B = rng.standard_normal((n, n))
        A0 = B @ B.T + np.eye(n)
        c0 = rng.standard_normal(n)
        ses = init_session(A0, c0)
        x0 = ses.x.copy()
        rep = step(ses, np.zeros(n), c0.copy())
        np.testing.assert_allclose(ses.x, x0, atol=1e-12)
        assert rep.k_t == 0 and rep.e_t == 0
        assert rep.kkt_residual <= 1e-10

    def test_symmetric_flow_stays_uniform(self):
        n = 5
        prices = PriceSeries(
            dates=[f"d{k}" for k in range(11)],
            tickers=[f"s{k}" for k in range(n)],
            prices=np.ones((11, n)) * 50.0,
        )
        ses = init_session(np.eye(n), np.zeros(n))
        flow = ons_flow(prices, lambda: ses.x)
        for t, (g, c) in enumerate(flow, start=1):
            np.testing.assert_allclose(g, np.ones(n), atol=1e-14)
            np.testing.assert_allclose(c, (t / 4.0) * np.ones(n), atol=1e-12)
            rep = step(ses, g, c)
            assert rep.k_t == 0
            np.testing.assert_allclose(ses.x, np.full(n, 1.0 / n), atol=1e-10)

    def test_matches_oracle_every_step(self):
        n, steps = 10, 100
        ses, flow = synthetic_session(n, seed=123, steps=steps)
        A = np.array(flow.a0)
        for g, c in flow:
            rep = step(ses, g, c)
            A += np.outer(g, g)
            ref = oracle_solve(Problem(A, c))
            assert np.max(np.abs(ses.x - ref.x)) <= 1e-7
            assert rep.kkt_residual <= 1e-8

    def test_rejects_bad_shapes(self):
        ses, flow = synthetic_session(5, seed=3)
        g, c = next(iter(flow))
        step(ses, g, c)
        bad = [(np.zeros(6), c), (g, np.zeros(4))]
        for k, value in ((0, np.nan), (2, np.inf), (4, -np.inf)):
            g_bad, c_bad = g.copy(), c.copy()
            g_bad[k] = c_bad[k] = value
            bad += [(g_bad, c), (g, c_bad)]
        t, x, c_cur, M = ses.t, ses.x.copy(), ses.c.copy(), ses.par1.M.copy()
        for g_bad, c_bad in bad:
            with pytest.raises(ValueError):
                step(ses, g_bad, c_bad)
            assert ses.t == t
            assert np.array_equal(ses.x, x)
            assert np.array_equal(ses.c, c_cur)
            assert np.array_equal(ses.par1.M, M)

    def test_unpaired_toggle_raises(self, monkeypatch):
        # A leg that reports one toggle but leaves the support as it was
        # breaks the parity of the turning-point count.
        def one_phantom_toggle(A, l, quadruple, *args, **kwargs):
            return [PathEvent("vector", 0.5, 0, "leave", quadruple.support.size)]

        ses = init_session(np.eye(3), np.zeros(3))
        monkeypatch.setattr(driver, "run_utilde_leg", one_phantom_toggle)
        with pytest.raises(HonesError, match="pair up"):
            step(ses, np.zeros(3), np.zeros(3))


    def test_support_escaping_the_touched_set_raises(self, monkeypatch):
        # An eager session reads every row, so only the check stops a
        # support that moved outside the touched set.
        def phantom_entry(A, l, quadruple, *args, **kwargs):
            quadruple.support = quadruple.support.with_added(3)
            return [PathEvent("vector", 0.5, 3, "enter", quadruple.support.size)]

        ses = init_session(np.eye(4), np.array([2.0, 0.0, 0.0, 0.0]), SolverConfig(lazy_a=False))
        assert ses.support.as_tuple() == (0,) and not ses.A.touched[3]
        monkeypatch.setattr(driver, "run_utilde_leg", phantom_entry)
        monkeypatch.setattr(SolverSession, "residual", lambda _self: 0.0)
        with pytest.raises(HonesError, match="escaped the touched set"):
            step(ses, np.zeros(4), np.array([2.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("lazy", [True, False])
    def test_s_star_counts_the_touched_rows(self, tmp_path, lazy):
        ses, flow = synthetic_session(100, seed=11, config=SolverConfig(lazy_a=lazy))
        stream = list(flow)[:80]
        for g, c in stream[:10]:
            assert step(ses, g, c).s_star == np.count_nonzero(ses.A.touched)
        ses.save(tmp_path / "session.bin")
        twin = SolverSession.load(tmp_path / "session.bin")
        assert twin.A.s_star == ses.A.s_star
        grew = 0
        for g, c in stream[10:]:
            before = twin.A.s_star
            assert step(twin, g, c).s_star == np.count_nonzero(twin.A.touched)
            grew += twin.A.s_star > before
        assert grew > 0


class TestRunSequence:
    def test_zero_steps(self):
        ses, flow = synthetic_session(4, seed=1)
        assert run_sequence(ses, flow, 0) == []

    def test_flow_that_runs_out_raises_value_error(self):
        ses, flow = synthetic_session(4, seed=1, steps=3)
        with pytest.raises(ValueError, match="flow ended after 3 of 5 steps"):
            run_sequence(ses, flow, 5)
        assert ses.t == 3

    def test_lower_bound_and_excess_nonnegative(self):
        ses, flow = synthetic_session(12, seed=5)
        prev = set(ses.support.as_tuple())
        excess = 0
        for _, (g, c) in zip(range(150), flow):
            rep = step(ses, g, c)
            cur = set(ses.support.as_tuple())
            sym_diff = len(prev ^ cur)
            assert rep.k_t >= sym_diff
            assert rep.e_t == (rep.k_t - sym_diff) / 2 >= 0
            excess += rep.e_t
            prev = cur
        assert excess > 0  # the stream does take turning points beyond the bound

    def test_aggregate_shapes(self):
        ses, flow = synthetic_session(8, seed=9)
        out = run_sequence(ses, flow, 60)
        agg = aggregate_reports([r for _, r in out], epoch=25)
        assert agg["steps"] == 60
        assert len(agg["epoch_wall_s"]) == 3
        assert 1 <= agg["support"]["min"] <= agg["support"]["max"] <= 8


class TestRebuild:
    def test_noop_after_init(self):
        ses, _ = synthetic_session(6, seed=3)
        x0 = ses.x.copy()
        rebuild(ses)
        assert ses.validate() <= 1e-12
        np.testing.assert_array_equal(ses.x, x0)

    def test_restores_after_corruption(self):
        ses, flow = synthetic_session(6, seed=4)
        run_sequence(ses, flow, 10)
        ses.par1.M[0, 0] += 1e-7
        assert ses.validate() > 1e-9
        rebuild(ses)
        assert ses.validate() <= 1e-12

    def test_midrun_rebuild_leaves_trajectory_unchanged(self):
        # A rebuild forced after every 25th step rebuilds twice in 60 steps.
        ses_b, flow_b = synthetic_session(8, seed=7)
        out_b = run_sequence(ses_b, flow_b, 60)
        ses_a, flow_a = synthetic_session(8, seed=7)
        stepped = rebuilding_every(25)
        xs_a = []
        for g, c in itertools.islice(flow_a, 60):
            stepped(ses_a, g, c)
            xs_a.append(ses_a.x.copy())
        assert ses_a.rebuild_count - ses_b.rebuild_count >= 2
        assert len(xs_a) == len(out_b) == 60
        for xa, (xb, _) in zip(xs_a, out_b):
            assert np.max(np.abs(xa - xb)) <= 1e-9


class TestLazyA:
    def test_columns_match_eager_twin(self):
        n, steps = 20, 80
        lazy, flow_a = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=True))
        eager, flow_b = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=False))
        run_sequence(lazy, flow_a, steps)
        run_sequence(eager, flow_b, steps)
        live = np.flatnonzero(lazy.A.touched)
        assert live.size >= lazy.support.size
        np.testing.assert_allclose(
            lazy.A[live], eager.A[live], atol=1e-10 * max(1.0, np.max(np.abs(eager.A[np.arange(n)])))
        )

    def test_full_store_sorts_its_rows_once(self):
        # Rows go live in the order their index first enters, and the block is
        # put in index order when the last one does; from then on it matches
        # the eager twin's block row for row.
        n, steps = 12, 40
        lazy, flow_a = synthetic_session(n, seed=2, config=SolverConfig(lazy_a=True))
        eager, flow_b = synthetic_session(n, seed=2, config=SolverConfig(lazy_a=False))
        unsorted = False
        it_a, it_b = iter(flow_a), iter(flow_b)
        for _ in range(steps):
            step(lazy, *next(it_a))
            step(eager, *next(it_b))
            A = lazy.A
            if not A.full:
                unsorted |= bool((np.diff(A.slot[A.live()]) < 0).any())
        assert unsorted and lazy.A.full
        assert np.array_equal(lazy.A.slot, np.arange(n))
        np.testing.assert_allclose(lazy.A.rows, eager.A.rows, rtol=1e-12)
        assert lazy.A[np.arange(n)].tobytes() == lazy.A.rows.tobytes()

    def test_reading_a_row_that_is_not_live_raises(self):
        # A row outside S* is not stored: every form of read that touches it
        # raises instead of returning another row.
        n = 40
        ses, flow = synthetic_session(n, seed=19)
        run_sequence(ses, flow, 100)
        live, stale = np.flatnonzero(ses.A.touched), np.flatnonzero(~ses.A.touched)
        assert stale.size and np.array_equal(ses.A.live(), live)
        j = int(stale[0])
        mixed = np.sort(np.append(live[:3], j))
        for read in (
            lambda: ses.A[j],
            lambda: ses.A[j, live],
            lambda: ses.A[mixed],
            lambda: ses.A[np.ix_(mixed, live)],
        ):
            with pytest.raises(IndexError):
                read()
        assert ses.A[np.ix_(live, stale)].shape == (live.size, stale.size)

    @staticmethod
    def stale_and_reference(monkeypatch, n, seed, steps):
        """A lazy session with stale rows after `steps`, and its twin whose store adds every g to every live row."""
        with monkeypatch.context() as m:
            m.setattr(driver.LiveRows, "add_outer", lambda store, g, idx: ref_add_outer(store, g))
            ref, flow = synthetic_session(n, seed)
            run_sequence(ref, flow, steps)
        lazy, flow = synthetic_session(n, seed)
        run_sequence(lazy, flow, steps)
        A = lazy.A
        live = A.live()
        assert np.array_equal(live, ref.A.live()) and not A.full
        assert (ref.A.stamp[live] == ref.A.log_size).all()
        stale = live[A.stamp[live] < A.log_size]
        assert stale.size >= 4 and (A.stamp[lazy.support.idx] == A.log_size).all()
        return lazy, ref, stale

    @pytest.mark.parametrize("read", ["row", "row-cols", "rows", "ix"])
    def test_a_read_of_stale_rows_returns_them_current(self, monkeypatch, read):
        # A read brings exactly the stale rows it covers current, to the
        # bits of the per-step adds, and leaves the other stale rows behind.
        lazy, ref, stale = self.stale_and_reference(monkeypatch, 60, 23, 60)
        j = int(stale[0])
        mixed = np.sort(np.append(lazy.support.idx, stale[:2]))
        key, brought = {
            "row": (j, stale[:1]),
            "row-cols": ((j, mixed), stale[:1]),
            "rows": (mixed, stale[:2]),
            "ix": (np.ix_(mixed, mixed), stale[:2]),
        }[read]
        assert lazy.A[key].tobytes() == ref.A[key].tobytes()
        behind = np.setdiff1d(stale, brought)
        assert (lazy.A.stamp[brought] == lazy.A.log_size).all()
        assert behind.size and (lazy.A.stamp[behind] < lazy.A.log_size).all()

    @pytest.mark.parametrize("n, seed, marks", [(200, 89, (20, 30, 60)), (12, 2, (6, 40))])
    def test_save_with_stale_rows_writes_the_reference_bytes(self, tmp_path, monkeypatch, n, seed, marks):
        # The reference store adds every g to every live row as it comes; the
        # lazy one saves with stale rows, and at n = 12 also after step 9,
        # whose last row to go live replayed the rows stale since step 6.
        steps = marks[-1]
        saved = {}
        for name in ("ref", "lazy"):
            with monkeypatch.context() as m:
                if name == "ref":
                    m.setattr(driver.LiveRows, "add_outer", lambda store, g, idx: ref_add_outer(store, g))
                ses, flow = synthetic_session(n, seed)
                for t, (g, c) in enumerate(flow, start=1):
                    step(ses, g, c)
                    if t in marks:
                        A = ses.A
                        if name == "lazy" and t == marks[0]:
                            assert (A.stamp[A.live()] < A.log_size).any()
                        ses.save(tmp_path / f"{name}-{t}.bin")
                        saved[name, t] = (tmp_path / f"{name}-{t}.bin").read_bytes()
                    if t == steps:
                        break
        assert ses.A.full == (n == 12)
        for t in marks:
            assert saved["lazy", t] == saved["ref", t]

    def test_session_continued_after_a_mid_stream_save_is_bit_identical(self, tmp_path):
        # Saving reads no row, and loading rebuilds every live row stale at
        # the stamp it went live at; neither moves a bit of what follows.
        n, steps = 200, 120
        plain, flow = synthetic_session(n, seed=89)
        saver, _ = synthetic_session(n, seed=89)
        twin = None
        for t, (g, c) in enumerate(flow, start=1):
            if t == steps // 2:
                assert (saver.A.stamp[saver.A.live()] < saver.A.log_size).any()
                saver.save(tmp_path / "mid.bin")
                twin = SolverSession.load(tmp_path / "mid.bin")
            reps = [step(ses, g, c) for ses in (plain, saver) + ((twin,) if twin else ())]
            assert all(_fields(r) == _fields(reps[0]) for r in reps)
            assert all(r.events == reps[0].events for r in reps)
            assert all(ses.x.tobytes() == plain.x.tobytes() for ses in (saver, twin) if ses)
            if t == steps:
                break
        for name, ses in (("plain", plain), ("saver", saver), ("twin", twin)):
            ses.save(tmp_path / f"{name}.bin")
        assert (tmp_path / "plain.bin").read_bytes() == (tmp_path / "saver.bin").read_bytes()
        assert (tmp_path / "plain.bin").read_bytes() == (tmp_path / "twin.bin").read_bytes()

    def test_dense_initial_matrix_matches_eager_twin_and_oracle(self, tmp_path):
        # A non-diagonal A0 is kept as a dense copy, the pristine source of
        # every row until it goes live; a checkpoint keeps all of it.
        n, steps = 30, 80
        rng = np.random.default_rng(83)
        B = rng.standard_normal((n, n))
        A0 = 1e-3 * (B @ B.T / n + 0.1 * np.eye(n))
        flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=83))
        lazy = init_session(A0, flow.c0, SolverConfig(lazy_a=True))
        eager = init_session(A0, flow.c0, SolverConfig(lazy_a=False))
        assert lazy.support == eager.support
        assert lazy.A.a0.shape == (n, n) and np.array_equal(lazy.A.a0, A0)
        assert not lazy.A.full and eager.A.full and eager.A.a0 is None
        A = A0.copy()
        for t, (g, c) in enumerate(flow, start=1):
            if t == steps // 2:
                lazy.save(tmp_path / "session.bin")
                assert (tmp_path / "session.bin").read_bytes()[21] == 2
                twin = SolverSession.load(tmp_path / "session.bin")
            rep = step(lazy, g, c)
            rep_eager = step(eager, g, c)
            assert event_keys(rep.events) == event_keys(rep_eager.events)
            if t >= steps // 2:
                assert _fields(step(twin, g, c)) == _fields(rep) and np.array_equal(twin.x, lazy.x)
            A += np.outer(g, g)
            assert np.max(np.abs(lazy.x - eager.x)) <= 1e-9
        assert lazy.reports[0].s_star < np.flatnonzero(lazy.A.touched).size < n
        assert np.max(np.abs(lazy.x - oracle_solve(Problem(A, c)).x)) <= 1e-9

    def test_lazy_session_holds_no_dense_matrix(self, tmp_path):
        n, steps = 200, 60
        ses, flow = synthetic_session(n, seed=89)
        run_sequence(ses, flow, steps)
        r = np.flatnonzero(ses.A.touched).size
        assert r < n and ses.A.a0.d.shape == (n,)
        arrays = [ses.A.rows, ses.A.slot, ses.A.stamp, ses.A.touched, ses.A.a0.d, ses.A.log, ses.par1.M, ses.quadruple.v]
        arrays += [v for v in vars(ses).values() if isinstance(v, np.ndarray)]
        assert all(a.size < n * n for a in arrays)
        path = tmp_path / "session.bin"
        ses.save(path)
        s = ses.support.size
        assert path.stat().st_size == sum(checkpoint_sizes(n, steps, s, n, r))

    def test_lazy_session_over_a_dense_diagonal_holds_a_diagonal(self):
        # Problem holds np.diag(d) as a Diagonal, and the store keeps that
        # Diagonal as its A0; rows that go live later are read from it.
        n, steps = 200, 60
        flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=0.1, seed=89))
        ses = init_session(np.diag(flow.a0.d), flow.c0)
        assert isinstance(ses.A.a0, Diagonal) and ses.A.a0.d.tobytes() == flow.a0.d.tobytes()
        run_sequence(ses, flow, steps)
        assert ses.reports[0].s_star < np.count_nonzero(ses.A.touched) < n
        assert isinstance(ses.A.a0, Diagonal)
        arrays = [ses.A.rows, ses.A.slot, ses.A.stamp, ses.A.touched, ses.A.a0.d, ses.A.log, ses.par1.M]
        arrays += [v for v in vars(ses).values() if isinstance(v, np.ndarray)]
        assert all(a.size < n * n for a in arrays)

    def test_diagonal_a0_traces_no_n_by_n_array(self):
        # At n = 20 000 a dense A0 alone would be 3.2 GB; the flow, set-up
        # and five steps trace well under 100 MB.
        n = 20_000
        tracemalloc.start()
        try:
            ses, flow = synthetic_session(n, seed=1, steps=5)
            run_sequence(ses, flow, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert ses.A.a0.d.shape == (n,) and not ses.A.full

    def test_only_lazy_sessions_catch_rows_up(self, monkeypatch):
        # Eager sessions have every row live from the start, so no step may
        # reach the catch-up; the lazy twin reaches it through the driver
        # global, which a tracer rebinds, both to make a row live and to
        # replay a live row that has fallen behind.
        n, steps = 20, 50
        real, calls, replays = driver._catch_up_column, [], []

        def counted(store, j):
            if store.slot[j] == store.n:
                calls.append(j)
            else:
                assert store.stamp[j] < store.log_size
                replays.append(j)
            real(store, j)

        monkeypatch.setattr(driver, "_catch_up_column", counted)
        lazy, flow = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=True))
        initial = lazy.A.live()
        run_sequence(lazy, flow, steps)
        # Each row that went live after init was caught up exactly once.
        assert calls and np.array_equal(np.sort(calls), np.setdiff1d(lazy.A.live(), initial))
        assert replays

        def refuse(store, j):
            raise AssertionError(f"eager session caught up row {j}")

        monkeypatch.setattr(driver, "_catch_up_column", refuse)
        eager, flow = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=False))
        run_sequence(eager, flow, steps)
        assert eager.A.full and eager.A.log_size == 0 and eager.A.a0 is None
        assert np.array_equal(eager.A.touched, lazy.A.touched)

    def test_trajectories_and_event_logs_identical(self):
        n, steps = 15, 60
        lazy, flow_a = synthetic_session(n, seed=13, config=SolverConfig(lazy_a=True))
        eager, flow_b = synthetic_session(n, seed=13, config=SolverConfig(lazy_a=False))
        assert lazy.support == eager.support
        out_a = run_sequence(lazy, flow_a, steps)
        out_b = run_sequence(eager, flow_b, steps)
        for (xa, ra), (xb, rb) in zip(out_a, out_b):
            assert np.max(np.abs(xa - xb)) <= 1e-9
            assert (ra.k_a, ra.k_c) == (rb.k_a, rb.k_c)
            assert event_keys(ra.events) == event_keys(rb.events)

    def test_determinism_bitwise(self):
        runs = []
        for _ in range(2):
            ses, flow = synthetic_session(10, seed=17)
            out = run_sequence(ses, flow, 40)
            runs.append(([ev for _, r in out for ev in r.events], [x for x, _ in out]))
        ev_a, xs_a = runs[0]
        ev_b, xs_b = runs[1]
        assert len(ev_a) == len(ev_b)
        for a, b in zip(ev_a, ev_b):
            assert (a.leg, a.param, a.index, a.kind, a.support_size) == (
                b.leg,
                b.param,
                b.index,
                b.kind,
                b.support_size,
            )
        for xa, xb in zip(xs_a, xs_b):
            assert np.array_equal(xa, xb)


class TestCountOps:
    def test_bound_holds_on_seeded_run(self):
        n = 30
        ses, flow = synthetic_session(n, seed=23)
        out = run_sequence(ses, flow, 120)
        assert count_ops([r for _, r in out], n) == 0

    def test_counts_the_steps_over_budget(self):
        n = 30
        ses, flow = synthetic_session(n, seed=23)
        reports = [r for _, r in run_sequence(ses, flow, 10)]
        over = [dataclasses.replace(r, mult_count=complexity_bound(n, r) + 1) for r in reports[:3]]
        at = [dataclasses.replace(r, mult_count=complexity_bound(n, r)) for r in reports[3:]]
        assert count_ops(over + at, n) == 3

    def test_null_step_bound_formula(self):
        n = 6
        ses = init_session(np.eye(n), np.zeros(n))
        rep = step(ses, np.zeros(n), np.zeros(n))
        assert rep.k_t == 0
        assert rep.refreshes == 0 and rep.rebuilds == 0
        s = rep.s_max
        expected = 3 * n * s + 9 * n + 3 * s + 14
        assert complexity_bound(n, rep) == expected
        assert rep.mult_count <= expected


# The vector leg's advance takes no Par1 or cache, so faults go into the ratio tests.
LEG_RATIO_TESTS = [(path_matrix, "find_lambda"), (path_vector, "find_utilde_lambda")]


class TestFaultInjection:
    """Forced degeneracies through `step`: one in-leg rebuild and retry, then propagate."""

    @staticmethod
    def _arm(monkeypatch, module, name, times):
        """Make the leg's ratio test raise `times` times, each after spoiling Par1 and the leg's cache."""
        real = getattr(module, name)
        left = [times]

        def flaky(support, quadruple, par1, cache, *args, **kwargs):
            if left[0]:
                left[0] -= 1
                # Only the rebuild callback can repair this: it must re-derive
                # Par1 and every derived field of the leg's cache (g and l are
                # the leg's inputs and stay).
                par1.M *= 1.001
                for key, value in vars(cache).items():
                    if key not in ("g", "l"):
                        setattr(cache, key, value * 1.001)
                raise DegenerateDenominator("injected")
            return real(support, quadruple, par1, cache, *args, **kwargs)

        monkeypatch.setattr(module, name, flaky)
        return left

    @pytest.mark.parametrize("module, name", LEG_RATIO_TESTS, ids=["matrix", "vector"])
    def test_one_degeneracy_rebuilds_and_retries(self, monkeypatch, module, name):
        ses, flow = synthetic_session(20, seed=5)
        stream = list(flow)[:10]
        for g, c in stream[:9]:
            assert step(ses, g, c).rebuilds == 0
        # A drift off span{g, 1} keeps the step unfused, so both legs move.
        g, c = stream[9]
        c = c + 0.05 * np.random.default_rng(5).standard_normal(20)
        left = self._arm(monkeypatch, module, name, 1)
        rep = step(ses, g, c)
        assert left == [0] and rep.rebuilds == 1 and rep.refreshes == 0
        assert rep.k_a > 0 and rep.k_c > 0
        G = np.array([g for g, _ in stream])
        ref = oracle_solve(Problem(flow.a0 + G.T @ G, c))
        assert np.max(np.abs(ses.x - ref.x)) <= 1e-9

    @pytest.mark.parametrize("module, name", LEG_RATIO_TESTS, ids=["matrix", "vector"])
    def test_second_degeneracy_in_a_leg_propagates(self, monkeypatch, module, name):
        ses, flow = synthetic_session(20, seed=5)
        g, c = next(iter(flow))
        left = self._arm(monkeypatch, module, name, 2)
        with pytest.raises(DegenerateDenominator, match="injected"):
            step(ses, g, c)
        assert left == [0] and ses.rebuild_count == 1

    def test_cycle_cap_raises_from_step(self, monkeypatch):
        monkeypatch.setattr(path_matrix, "CYCLE_CAP_PER_INDEX", 0)
        ses, flow = synthetic_session(20, seed=5)
        with pytest.raises(CycleLimit):
            run_sequence(ses, flow, 50)

    def test_error_mid_matrix_leg_leaves_par1_on_the_stored_rows(self, monkeypatch):
        # The matrix leg pivots the factorization of the stored A and moves
        # Par1 to A + g g' only at its end, as the store's own update comes
        # after the leg.  So a HonesError raised inside the leg leaves Par1
        # the factorization of the stored rows on the current support.
        monkeypatch.setattr(path_matrix, "CYCLE_CAP_PER_INDEX", 0)
        flow = synthetic_flow(FlowConfig("synthetic", 40, 60, seed=3))
        ses = init_session(flow.a0, flow.c0)
        with pytest.raises(CycleLimit, match="matrix leg"):
            for g, c in flow:
                step(ses, g, c)
        assert ses.validate() <= 1e-10


class TestCheckpoint:
    def test_round_trip_continues_identically(self, tmp_path):
        n, steps = 9, 30
        ses, flow = synthetic_session(n, seed=29)
        stream = list(flow)[: 2 * steps]
        for g, c in stream[:steps]:
            step(ses, g, c)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.t == ses.t
        np.testing.assert_array_equal(twin.x, ses.x)
        for g, c in stream[steps:]:
            ra = step(ses, g, c)
            rb = step(twin, g, c)
            assert np.max(np.abs(ses.x - twin.x)) <= 1e-12
            assert (ra.k_a, ra.k_c) == (rb.k_a, rb.k_c)

    def test_config_restored(self, tmp_path):
        cfg = SolverConfig(tol=1e-6, lazy_a=False)
        stepped = rebuilding_every(5)
        ses, flow = synthetic_session(9, seed=41, config=cfg)
        stream = list(flow)[:30]
        for g, c in stream[:10]:
            stepped(ses, g, c)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.config == cfg
        fields = ("t", "k_a", "k_c", "e_t", "support_size", "s_max", "s_star", "kkt_residual", "mult_count", "rebuilds")
        for g, c in stream[10:]:
            ra = stepped(ses, g, c)
            rb = stepped(twin, g, c)
            assert [getattr(ra, f) for f in fields] == [getattr(rb, f) for f in fields]
            assert np.array_equal(ses.x, twin.x)
        assert twin.rebuild_count == 4

    def test_eager_session_resaves_to_the_same_bytes(self, tmp_path):
        ses, flow = synthetic_session(12, seed=31, config=SolverConfig(lazy_a=False))
        stream = list(flow)[:40]
        for g, c in stream[:20]:
            step(ses, g, c)
        assert not ses.A.touched.all()
        ses.save(tmp_path / "session.bin")
        buf = (tmp_path / "session.bin").read_bytes()
        twin = SolverSession.load(tmp_path / "session.bin")
        assert twin.A.full and np.array_equal(twin.A.touched, ses.A.touched)
        twin.save(tmp_path / "resaved.bin")
        assert (tmp_path / "resaved.bin").read_bytes() == buf
        for g, c in stream[20:]:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)

    def test_log_dropped_once_every_row_is_live(self, tmp_path):
        # Every row is live from step 15 on; the log held rows before that.
        ses, flow = synthetic_session(12, seed=79)
        stream = list(flow)[:40]
        for g, c in stream[:30]:
            step(ses, g, c)
        assert ses.A.touched.all() and ses.A.log_size == 0 and ses.A.a0 is None
        path = tmp_path / "session.bin"
        ses.save(path)
        buf = path.read_bytes()
        assert buf[:4] == b"HSS7"
        n, _, k, s, _, kind = struct.unpack_from("<IIIIBB", buf, 4)
        # Neither the log nor the A0 section holds anything.
        assert k == 0 and kind == 0
        assert len(buf) == sum(checkpoint_sizes(n, 0, s, 0, n))
        twin = SolverSession.load(path)
        for g, c in stream[30:]:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)

    def test_saved_when_the_vector_leg_makes_the_last_row_live(self, tmp_path):
        # The last row goes live in step 7's vector leg, after that step's
        # rank-one update; A0 and the log go with it, so a save right after
        # the step loads.
        ses, flow = synthetic_session(10, seed=9, c_factor=1.0)
        stream = list(flow)[:30]
        for t, (g, c) in enumerate(stream[:7]):
            step(ses, g, c)
            assert ses.A.full == (t == 6)
        assert ses.reports[-1].k_c and ses.A.a0 is None and ses.A.log_size == 0
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        for g, c in stream[7:]:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)

    def test_gauged_session_continues_bit_identically(self, tmp_path):
        ses, flow = ons_session(15, seed=53, steps=60)
        it = iter(flow)
        for _ in range(30):
            step(ses, *next(it))
        assert ses.c_shift.any()
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert np.array_equal(twin.c_shift, ses.c_shift) and np.array_equal(twin.c, ses.c)
        for g, c in it:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)

    def test_golden_checkpoint_continues_bit_identically(self, tmp_path):
        # A lazy synthetic session (n=12, seed 61, tol=1e-7, a rebuild forced
        # after every 7th step) saved after 20 steps, with two stale rows, a
        # 20-entry log and a nonzero gauge offset.  It loads, re-saves to the
        # same bytes, and continues exactly like the run that was never saved.
        stepped = rebuilding_every(7)
        buf = GOLDEN_CHECKPOINT.read_bytes()
        cfg = SolverConfig(tol=1e-7)
        old = SolverSession.load(GOLDEN_CHECKPOINT)
        assert old.config == cfg and old.t == 20
        assert not old.A.touched.all() and len(old.A.g_log) == 20 and old.c_shift.any()
        old.save(tmp_path / "resaved.bin")
        assert (tmp_path / "resaved.bin").read_bytes() == buf
        ses, flow = synthetic_session(12, seed=61, config=cfg)
        stream = list(flow)[:30]
        for g, c in stream[:20]:
            stepped(ses, g, c)
        for g, c in stream[20:]:
            assert _fields(stepped(ses, g, c)) == _fields(stepped(old, g, c))
            assert np.array_equal(ses.x, old.x)
        G = np.array([g for g, _ in stream])
        ref = oracle_solve(Problem(flow.a0 + G.T @ G, stream[-1][1]))
        assert np.max(np.abs(old.x - ref.x)) <= 1e-9

    def test_diagonal_a0_loads_as_a_diagonal_and_continues_bit_identically(self, tmp_path):
        ses, flow = synthetic_session(12, seed=29)
        stream = list(flow)[:40]
        for g, c in stream[:5]:
            step(ses, g, c)
        path = tmp_path / "session.bin"
        ses.save(path)
        assert path.read_bytes()[21] == 1
        twin = SolverSession.load(path)
        assert isinstance(twin.A.a0, Diagonal) and twin.A.a0.d.tobytes() == ses.A.a0.d.tobytes()
        live_at_save = np.count_nonzero(twin.A.touched)
        for g, c in stream[5:]:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)
        # Rows went live from the loaded Diagonal after the load, the last of them too.
        assert live_at_save < 12 and twin.A.full
        ses.save(tmp_path / "ses.bin")
        twin.save(tmp_path / "twin.bin")
        assert (tmp_path / "ses.bin").read_bytes() == (tmp_path / "twin.bin").read_bytes()

    def test_save_reads_no_row(self, tmp_path, monkeypatch):
        # save writes each live row's born entry, not the row, so it replays
        # no stale row and leaves the store exactly as it found it.
        ses, flow = synthetic_session(30, seed=7)
        run_sequence(ses, flow, 10)
        A = ses.A
        assert ((A.stamp < A.log_size) & (A.slot < A.n)).any()
        before = A.stamp.copy(), A.rows.copy(), A.busy_ns

        def refuse(store, j):
            raise AssertionError(f"save replayed row {j}")

        monkeypatch.setattr(driver, "_replay", refuse)
        ses.save(tmp_path / "a.bin")
        ses.save(tmp_path / "b.bin")
        assert np.array_equal(A.stamp, before[0]) and np.array_equal(A.rows, before[1]) and A.busy_ns == before[2]
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_continuation_sweep_is_bit_identical(self, tmp_path):
        # Sessions saved after 0, 3, 10 and 25 steps, at three sizes and four
        # seeds, continue exactly like the runs that were never saved.
        for n in (8, 30, 150):
            for seed in range(1, 5):
                flow = synthetic_flow(FlowConfig("synthetic", n, 60, c_factor=0.1, seed=seed))
                stream = list(flow)
                for at in (0, 3, 10, 25):
                    ses = init_session(flow.a0, flow.c0)
                    run_sequence(ses, stream, at)
                    ses.save(tmp_path / "session.bin")
                    twin = SolverSession.load(tmp_path / "session.bin")
                    for g, c in stream[at:]:
                        assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
                        assert ses.x.tobytes() == twin.x.tobytes()
                    live = ses.A.live()
                    assert np.array_equal(twin.A.live(), live) and ses.A[live].tobytes() == twin.A[live].tobytes()
                    assert ses.par1.M.tobytes() == twin.par1.M.tobytes()

    def test_saved_before_first_step_continues(self, tmp_path):
        ses, flow = synthetic_session(8, seed=67)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.t == 0
        live = ses.A.live()
        assert np.array_equal(twin.A.live(), live) and np.array_equal(twin.A[live], ses.A[live])
        assert np.array_equal(twin.par1.M, ses.par1.M) and np.array_equal(twin.A.a0, ses.A.a0)
        for g, c in list(flow)[:15]:
            assert _fields(step(ses, g, c)) == _fields(step(twin, g, c))
            assert np.array_equal(ses.x, twin.x)

    def test_caches_equal_after_load(self, tmp_path):
        ses, flow = synthetic_session(10, seed=71)
        run_sequence(ses, flow, 12)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.support == ses.support and twin.quadruple.mu0 == ses.quadruple.mu0
        assert np.array_equal(twin.quadruple.v, ses.quadruple.v)
        assert np.array_equal(twin.par1.M, ses.par1.M) and twin.par1.D == ses.par1.D
        assert np.array_equal(twin.par1.eta_tilde, ses.par1.eta_tilde)

    @pytest.mark.parametrize("case", [f"cut-{name}" for name in CHECKPOINT_SECTIONS] + sorted(DAMAGE))
    def test_damaged_checkpoint_rejected(self, tmp_path, case):
        if case in CASE_SOURCE:
            buf = CASE_SOURCE[case](tmp_path / "intact.bin")
            at = layout(buf)
            SolverSession.load(tmp_path / "intact.bin")
        else:
            buf, at = golden_layout()
        if case.startswith("cut-"):
            bad, reason = buf[: at[case[4:]]], CUT_REASON[case[4:]]
        else:
            damage, reason = DAMAGE[case]
            bad = damage(bytearray(buf), at)
        path = tmp_path / "damaged.bin"
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match=reason):
            SolverSession.load(path)


class TestResidualRule:
    """One rule after the legs: refine once above REFRESH_FACTOR * tol, rebuilding first above tol."""

    @pytest.mark.parametrize("shift, rebuilds", [(5e-9, 0), (1e-6, 1)])
    def test_refines_and_rebuilds_by_the_residual(self, shift, rebuilds):
        # A shifted mu0 moves every stationarity entry by the shift, and the
        # legs carry the shift along: tol / 4 < 5e-9 <= tol refines only.
        ses, flow = synthetic_session(12, seed=5)
        it = iter(flow)
        for _ in range(10):
            assert step(ses, *next(it)).refreshes == 0
        ses.quadruple.mu0 += shift
        rep = step(ses, *next(it))
        assert (rep.refreshes, rep.rebuilds) == (1, rebuilds)
        assert rep.kkt_residual <= driver.REFRESH_FACTOR * ses.config.tol

    def test_no_storm_on_a_long_ons_stream(self):
        # ons FlowConfig seed 2, n = 100: the gauge grows |mu0| to about 4500
        # by t = 8000, so re-deriving v from M c left residuals above tol
        # (5 steps) and rebuilt on 1811 steps; refinement keeps every step in
        # tol without a rebuild.
        ses, flow = ons_session(100, seed=2, steps=8000)
        over = rebuilds = 0
        for g, c in flow:
            rep = step(ses, g, c)
            over += rep.kkt_residual > ses.config.tol
            rebuilds += rep.rebuilds
        assert ses.t == 8000 and abs(ses.quadruple.mu0) > 1000
        assert over == 0 and rebuilds == 0


class TestGauge:
    def test_capped_share_keeps_high_risk_aversion_in_tol(self):
        # risk_aversion = 10 makes the drift nearly 10 g, so g - b 1 would be
        # about g - 10 and A would grow like 100 t 11'; the |a| <= max|g| cap
        # keeps that drift in the vector leg.
        n, steps = 200, 1500
        prices = synthetic_prices(n, steps + 1, seed=3).prices
        flow = markowitz_flow(np.log(prices[1:] / prices[:-1]), risk_aversion=10.0)
        ses = init_session(flow.a0, flow.c0)
        dev = run_against_oracle(ses, flow)
        assert sum(r.kkt_residual > ses.config.tol for r in ses.reports) == 0
        assert dev <= 1e-9

    def test_drift_along_g_leaves_vector_leg_idle(self, monkeypatch):
        def drift_step(ses, flow):
            it = iter(flow)
            for _ in range(10):
                step(ses, *next(it))
            g, _ = next(it)
            return step(ses, g, ses.c - ses.c_shift + 1.0 * g)

        n, seed = 30, 71
        rep = drift_step(*synthetic_session(n, seed=seed))
        assert rep.k_c == 0
        # The same step unfused moves coordinates across zero in the vector leg.
        monkeypatch.setattr(driver, "_gauge_share", lambda g, l: 0.0)
        assert drift_step(*synthetic_session(n, seed=seed)).k_c > 0

    @pytest.mark.parametrize("kind", ["synthetic", "ons"])
    def test_gauged_run_matches_oracle_in_callers_terms(self, kind):
        n, steps, seed = 25, 200, 73
        if kind == "synthetic":
            ses, flow = synthetic_session(n, seed=seed, steps=steps)
        else:
            ses, flow = ons_session(n, seed=seed, steps=steps)
        dev = run_against_oracle(ses, flow)
        assert ses.c_shift.any()
        assert dev <= 1e-9

    def test_markowitz_matches_golden_rows(self):
        # The drift is zero, so the gauge never fuses and the driver must
        # reproduce the pinned markowitz rows (cli run-markowitz --n 20
        # --steps 40 --seed 7, a rebuild forced after every 10th step) with
        # c_shift at exactly 0.
        with open(GOLDEN_DIR / "markowitz-hones-n20-s40-seed7.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        pick = [rows[0].index(col) for col in NON_TIMING]
        flow = flow_for_config(FlowConfig("markowitz", 20, 40, seed=7))
        stepped = rebuilding_every(10)
        ses = init_session(flow.a0, flow.c0)
        for (g, c), row in zip(flow, rows[1:]):
            rep = stepped(ses, g, c)
            got = [repr(v) if isinstance(v, float) else str(v) for v in _fields(rep)]
            assert got == [row[i] for i in pick]
        assert len(ses.reports) == 40
        assert np.array_equal(ses.c_shift, np.zeros(20))
