import csv
import struct
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
from hones.kkt import Problem, oracle_solve
from hones.path_matrix import PathEvent

GOLDEN_DIR = Path(__file__).parent / "golden"


GOLDEN_CHECKPOINT = GOLDEN_DIR / "session-hss4-synthetic-n12-seed61-t20.bin"

# Checkpoint sections in file order.
CHECKPOINT_SECTIONS = (
    "header", "A", "c", "c_shift", "mask", "g_log", "support", "v", "mu0", "M", "eta_tilde", "D", "config",
)


def golden_layout():
    """The golden checkpoint's bytes and the start offset of each section."""
    buf = GOLDEN_CHECKPOINT.read_bytes()
    n, _, k, s = struct.unpack_from("<IIII", buf, 4)
    sizes = (24, 8 * n * n, 8 * n, 8 * n, n, 8 * k * n, 8 * s, 8 * n, 8, 8 * n * s, 8 * n, 8, 32)
    starts = np.cumsum((0,) + sizes[:-1])
    assert starts[-1] + sizes[-1] == len(buf)
    return buf, {name: int(at) for name, at in zip(CHECKPOINT_SECTIONS, starts)}


def _put(buf, at, fmt, value):
    struct.pack_into(fmt, buf, at, value)
    return buf


def _support_outside_touched(buf, at):
    """Swap one support index for a stale row, keeping the support increasing."""
    n = struct.unpack_from("<I", buf, 4)[0]
    mask = np.frombuffer(buf, "u1", n, at["mask"])
    idx = np.frombuffer(buf, "<i8", (at["v"] - at["support"]) // 8, at["support"]).copy()
    j = int(np.flatnonzero(mask == 0)[0])
    idx[min(int(np.searchsorted(idx, j)), idx.size - 1)] = j
    buf[at["support"] : at["v"]] = idx.astype("<i8").tobytes()
    return buf


# Damage to the golden checkpoint that load must refuse, besides a cut at the
# start of each section.
DAMAGE = {
    "short-1": lambda buf, at: buf[:-1],
    "extra-1": lambda buf, at: buf + b"\0",
    "garbage": lambda buf, at: b"not a snapshot",
    "short-header": lambda buf, at: buf[:10],
    "magic-HSS1": lambda buf, at: _put(buf, 0, "4s", b"HSS1"),
    "magic-HSS2": lambda buf, at: _put(buf, 0, "4s", b"HSS2"),
    "magic-HSS3": lambda buf, at: _put(buf, 0, "4s", b"HSS3"),
    "magic-junk": lambda buf, at: _put(buf, 0, "4s", b"junk"),
    "header-n": lambda buf, at: _put(buf, 4, "<I", 11),
    "header-s": lambda buf, at: _put(buf, 16, "<I", 9),
    "lazy-2": lambda buf, at: _put(buf, 20, "B", 2),
    "mask-2": lambda buf, at: _put(buf, at["mask"] + 3, "B", 2),
    "support-duplicate": lambda buf, at: _put(buf, at["support"] + 8, "8s", buf[at["support"] : at["support"] + 8]),
    "support-outside-touched": _support_outside_touched,
    "nan-A": lambda buf, at: _put(buf, at["A"] + 8 * 13, "<d", float("nan")),
    "nan-M": lambda buf, at: _put(buf, at["M"], "<d", float("nan")),
    "inf-tol": lambda buf, at: _put(buf, at["config"] + 16, "<d", float("inf")),
    "rebuild-every-minus-3": lambda buf, at: _put(buf, at["config"], "<q", -3),
    "cycle-cap-minus-1": lambda buf, at: _put(buf, at["config"] + 8, "<q", -1),
    "tol-minus-1": lambda buf, at: _put(buf, at["config"] + 16, "<d", -1.0),
}


def synthetic_session(n, seed, c_factor=0.1, config=None, steps=1000):
    flow = synthetic_flow(FlowConfig("synthetic", n, steps, c_factor=c_factor, seed=seed))
    session = init_session(flow.a0, flow.c0, config)
    return session, flow


NON_TIMING = (
    "t", "k_a", "k_c", "k_t", "e_t", "support_size", "s_max", "s_star", "kkt_residual", "mult_count", "rebuilds"
)


def _fields(report):
    return [getattr(report, f) for f in NON_TIMING]


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
            {"rebuild_every": -3},
            {"cycle_cap": -1},
            {"tol": -1.0},
            {"tol": 0.0},
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"cond_cap": 0.5},
            {"cond_cap": float("nan")},
            {"lazy_a": 1},
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            SolverConfig(**bad)

    def test_edge_values_accepted(self):
        cfg = SolverConfig(rebuild_every=0, cycle_cap=0, tol=1e-300, lazy_a=False, cond_cap=1.0)
        assert (cfg.rebuild_every, cfg.cycle_cap) == (0, 0)


class TestInitSession:
    def test_scaled_identity_gives_uniform(self):
        n = 7
        ses = init_session(1e-4 * np.eye(n), np.zeros(n))
        np.testing.assert_allclose(ses.x, np.full(n, 1.0 / n), atol=1e-12)
        assert ses.s_star_idx.size == n

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
        A = flow.a0.copy()
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
            return [PathEvent("vector", 0.5, 0, "leave", quadruple.support.as_tuple())]

        ses = init_session(np.eye(3), np.zeros(3))
        monkeypatch.setattr(driver, "run_utilde_leg", one_phantom_toggle)
        with pytest.raises(HonesError, match="pair up"):
            step(ses, np.zeros(3), np.zeros(3))


class TestRunSequence:
    def test_zero_steps(self):
        ses, flow = synthetic_session(4, seed=1)
        assert run_sequence(ses, flow, 0) == []

    def test_lower_bound_and_excess_nonnegative(self):
        ses, flow = synthetic_session(12, seed=5)
        prev = set(ses.support.as_tuple())
        for x, rep in run_sequence(ses, flow, 150):
            cur = set(ses.support.as_tuple()) if rep.t == ses.t else None
        # recompute per step from the saved reports and event log
        ses2, flow2 = synthetic_session(12, seed=5)
        prev = set(ses2.support.as_tuple())
        for _, rep in run_sequence(ses2, flow2, 150):
            cur = set(ses2.support.as_tuple())
            # support after this step is not directly the symmetric difference
            # partner; reports already encode both counts
            assert rep.e_t >= 0
            assert rep.k_t >= rep.k_t - 2 * rep.e_t  # definition consistency
            prev = cur

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
        cfg_a = SolverConfig(rebuild_every=25)
        cfg_b = SolverConfig(rebuild_every=0)
        ses_a, flow_a = synthetic_session(8, seed=7, config=cfg_a)
        ses_b, flow_b = synthetic_session(8, seed=7, config=cfg_b)
        out_a = run_sequence(ses_a, flow_a, 60)
        out_b = run_sequence(ses_b, flow_b, 60)
        assert sum(r.rebuilds for _, r in out_a) >= 2
        for (xa, _), (xb, _) in zip(out_a, out_b):
            assert np.max(np.abs(xa - xb)) <= 1e-9


class TestLazyA:
    def test_columns_match_eager_twin(self):
        n, steps = 20, 80
        lazy, flow_a = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=True))
        eager, flow_b = synthetic_session(n, seed=11, config=SolverConfig(lazy_a=False))
        run_sequence(lazy, flow_a, steps)
        run_sequence(eager, flow_b, steps)
        live = lazy.s_star_idx
        assert live.size >= lazy.support.size
        np.testing.assert_allclose(
            lazy.A[live], eager.A[live], atol=1e-10 * max(1.0, np.max(np.abs(eager.A)))
        )

    def test_stale_rows_never_read(self, monkeypatch):
        # Poison every row outside S*; a catch-up first restores the pristine
        # row, so any other read of a stale row shows up as NaN.
        n, steps = 40, 100
        ses, flow = synthetic_session(n, seed=19)
        twin, flow_b = synthetic_session(n, seed=19)
        pristine = ses.A.copy()
        ses.A[~ses.s_star_mask] = np.nan
        catch_up = driver._catch_up_column

        def restore_then_catch_up(session, j):
            if session is ses:
                session.A[j] = pristine[j]
            catch_up(session, j)

        monkeypatch.setattr(driver, "_catch_up_column", restore_then_catch_up)
        out = run_sequence(ses, flow, steps)
        ref = run_sequence(twin, flow_b, steps)
        assert not ses.s_star_mask.all()
        assert np.isnan(ses.A[~ses.s_star_mask]).all()
        for (xa, ra), (xb, rb) in zip(out, ref):
            assert np.array_equal(xa, xb)
            assert _fields(ra) == _fields(rb)

    def test_trajectories_and_event_logs_identical(self):
        n, steps = 15, 60
        lazy, flow_a = synthetic_session(n, seed=13, config=SolverConfig(lazy_a=True))
        eager, flow_b = synthetic_session(n, seed=13, config=SolverConfig(lazy_a=False))
        out_a = run_sequence(lazy, flow_a, steps)
        out_b = run_sequence(eager, flow_b, steps)
        for (xa, ra), (xb, rb) in zip(out_a, out_b):
            assert np.max(np.abs(xa - xb)) <= 1e-9
            assert (ra.k_a, ra.k_c) == (rb.k_a, rb.k_c)
        assert len(lazy.events) == len(eager.events)
        for ea, eb in zip(lazy.events, eager.events):
            assert (ea.leg, ea.index, ea.kind, ea.support_after) == (
                eb.leg,
                eb.index,
                eb.kind,
                eb.support_after,
            )

    def test_determinism_bitwise(self):
        runs = []
        for _ in range(2):
            ses, flow = synthetic_session(10, seed=17)
            out = run_sequence(ses, flow, 40)
            runs.append((ses.events, [x for x, _ in out]))
        ev_a, xs_a = runs[0]
        ev_b, xs_b = runs[1]
        assert len(ev_a) == len(ev_b)
        for a, b in zip(ev_a, ev_b):
            assert (a.leg, a.param, a.index, a.kind, a.support_after) == (
                b.leg,
                b.param,
                b.index,
                b.kind,
                b.support_after,
            )
        for xa, xb in zip(xs_a, xs_b):
            assert np.array_equal(xa, xb)


class TestCountOps:
    def test_bound_holds_on_seeded_run(self):
        n = 30
        ses, flow = synthetic_session(n, seed=23)
        out = run_sequence(ses, flow, 120)
        checks = count_ops([r for _, r in out], n)
        assert all(ch.ok for ch in checks)

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


LEG_ADVANCES = [(path_matrix, "update_by_lambda"), (path_vector, "update_by_utilde_lambda")]


class TestFaultInjection:
    """Forced degeneracies through `step`: one in-leg rebuild and retry, then propagate."""

    @staticmethod
    def _arm(monkeypatch, module, name, times):
        """Make the leg's advance raise `times` times, each after spoiling Par1 and the leg's cache."""
        real = getattr(module, name)
        left = [times]

        def flaky(lam_inc, quadruple, par1, cache, *args, **kwargs):
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
            return real(lam_inc, quadruple, par1, cache, *args, **kwargs)

        monkeypatch.setattr(module, name, flaky)
        return left

    @pytest.mark.parametrize("module, name", LEG_ADVANCES, ids=["matrix", "vector"])
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

    @pytest.mark.parametrize("module, name", LEG_ADVANCES, ids=["matrix", "vector"])
    def test_second_degeneracy_in_a_leg_propagates(self, monkeypatch, module, name):
        ses, flow = synthetic_session(20, seed=5)
        g, c = next(iter(flow))
        left = self._arm(monkeypatch, module, name, 2)
        with pytest.raises(DegenerateDenominator, match="injected"):
            step(ses, g, c)
        assert left == [0] and ses.rebuild_count == 1

    def test_cycle_cap_raises_from_step(self):
        ses, flow = synthetic_session(20, seed=5, config=SolverConfig(cycle_cap=1))
        with pytest.raises(CycleLimit):
            run_sequence(ses, flow, 50)


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
        cfg = SolverConfig(rebuild_every=5, tol=1e-6)
        ses, flow = synthetic_session(9, seed=41, config=cfg)
        stream = list(flow)[:30]
        for g, c in stream[:10]:
            step(ses, g, c)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.config == cfg
        fields = ("t", "k_a", "k_c", "e_t", "support_size", "s_max", "s_star", "kkt_residual", "mult_count", "rebuilds")
        for g, c in stream[10:]:
            ra = step(ses, g, c)
            rb = step(twin, g, c)
            assert [getattr(ra, f) for f in fields] == [getattr(rb, f) for f in fields]
            assert np.array_equal(ses.x, twin.x)
        assert sum(r.rebuilds for r in twin.reports) == 4

    def test_load_rejects_lazy_a_mismatch(self, tmp_path):
        n, steps = 200, 50
        ses, flow = synthetic_session(n, seed=47)
        stream = list(flow)[: steps + 20]
        for g, c in stream[:steps]:
            step(ses, g, c)
        assert not ses.s_star_mask.all()
        path = tmp_path / "session.bin"
        ses.save(path)
        with pytest.raises(ValueError, match="lazy_a"):
            SolverSession.load(path, SolverConfig(lazy_a=False))
        twin = SolverSession.load(path, SolverConfig(lazy_a=True))
        for g, c in stream[steps:]:
            ra = step(ses, g, c)
            rb = step(twin, g, c)
            assert _fields(ra) == _fields(rb)
            assert np.array_equal(ses.x, twin.x)

    def test_log_dropped_once_every_row_is_live(self, tmp_path):
        # Every row is live from step 15 on; the log held rows before that.
        ses, flow = synthetic_session(12, seed=79)
        stream = list(flow)[:40]
        for g, c in stream[:30]:
            step(ses, g, c)
        assert ses.s_star_mask.all() and ses.g_log == []
        path = tmp_path / "session.bin"
        ses.save(path)
        buf = path.read_bytes()
        assert buf[:4] == b"HSS4"
        assert struct.unpack_from("<III", buf, 4)[2] == 0
        twin = SolverSession.load(path)
        for g, c in stream[30:]:
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
        # A lazy synthetic session (n=12, seed 61, rebuild_every=7, tol=1e-7)
        # saved after 20 steps, with two stale rows, a 20-entry log and a
        # nonzero gauge offset.  It loads, re-saves to the same bytes, and
        # continues exactly like the run that was never saved.
        buf = GOLDEN_CHECKPOINT.read_bytes()
        cfg = SolverConfig(rebuild_every=7, tol=1e-7)
        old = SolverSession.load(GOLDEN_CHECKPOINT)
        assert old.config == cfg and old.t == 20
        assert not old.s_star_mask.all() and len(old.g_log) == 20 and old.c_shift.any()
        old.save(tmp_path / "resaved.bin")
        assert (tmp_path / "resaved.bin").read_bytes() == buf
        ses, flow = synthetic_session(12, seed=61, config=cfg)
        stream = list(flow)[:30]
        for g, c in stream[:20]:
            step(ses, g, c)
        for g, c in stream[20:]:
            assert _fields(step(ses, g, c)) == _fields(step(old, g, c))
            assert np.array_equal(ses.x, old.x)
        G = np.array([g for g, _ in stream])
        ref = oracle_solve(Problem(flow.a0 + G.T @ G, stream[-1][1]))
        assert np.max(np.abs(old.x - ref.x)) <= 1e-9

    def test_saved_before_first_step_continues(self, tmp_path):
        ses, flow = synthetic_session(8, seed=67)
        path = tmp_path / "session.bin"
        ses.save(path)
        twin = SolverSession.load(path)
        assert twin.t == 0
        assert np.array_equal(twin.par1.M, ses.par1.M) and np.array_equal(twin.A, ses.A)
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
        buf, at = golden_layout()
        if case.startswith("cut-"):
            bad = buf[: at[case[4:]]]
        else:
            bad = DAMAGE[case](bytearray(buf), at)
        path = tmp_path / "damaged.bin"
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError):
            SolverSession.load(path)


class TestGauge:
    def test_capped_share_keeps_high_risk_aversion_in_tol(self):
        # risk_aversion = 10 makes the drift nearly 10 g, so g - b 1 would be
        # about g - 10 and A would grow like 100 t 11'; the |a| <= max|g| cap
        # keeps that drift in the vector leg.
        n, steps = 200, 1500
        flow = markowitz_flow(synthetic_prices(n, steps + 1, seed=3).log_returns(), risk_aversion=10.0)
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
        # --steps 40 --seed 7 --rebuild-every 10) with c_shift at exactly 0.
        with open(GOLDEN_DIR / "markowitz-hones-n20-s40-seed7.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        pick = [rows[0].index(col) for col in NON_TIMING]
        flow = flow_for_config(FlowConfig("markowitz", 20, 40, seed=7))
        ses = init_session(flow.a0, flow.c0, SolverConfig(rebuild_every=10))
        for (g, c), row in zip(flow, rows[1:]):
            rep = step(ses, g, c)
            got = [repr(v) if isinstance(v, float) else str(v) for v in _fields(rep)]
            assert got == [row[i] for i in pick]
        assert len(ses.reports) == 40
        assert np.array_equal(ses.c_shift, np.zeros(20))
