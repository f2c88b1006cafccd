import tracemalloc

import numpy as np
import pytest

from hones import flows
from hones.errors import EmptySeries, ParseError
from hones.flows import (
    PRICE_BLOCK,
    FlowConfig,
    PriceSeries,
    SyntheticPrices,
    flow_for_config,
    load_prices,
    markowitz_flow,
    ons_flow,
    price_blocks,
    ratio_blocks,
    save_prices,
    synthetic_flow,
    synthetic_prices,
)


def constant_prices(n, rows, level=100.0):
    return PriceSeries(
        dates=[f"d{k}" for k in range(rows)],
        tickers=[f"s{k}" for k in range(n)],
        prices=np.full((rows, n), level),
    )


class TestFlowConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FlowConfig("nope", 5, 10)
        with pytest.raises(ValueError):
            FlowConfig("synthetic", 0, 10)
        with pytest.raises(ValueError):
            FlowConfig("synthetic", 5, 10, epsilon=0.0)
        with pytest.raises(ValueError):
            FlowConfig("synthetic", 5, 10, c_factor=-1.0)
        # A kind refuses a knob its flow does not read.
        for kind, knob in [("ons", "epsilon"), ("ons", "c_factor"), ("markowitz", "c_factor")]:
            with pytest.raises(ValueError, match=f"the {kind} flow has no {knob}"):
                FlowConfig(kind, 5, 10, **{knob: 0.5})


class TestOnsFlow:
    def test_constant_prices(self):
        n = 4
        prices = constant_prices(n, 6)
        x = np.full(n, 1.0 / n)
        flow = ons_flow(prices, lambda: x)
        for t, (g, c) in enumerate(flow, start=1):
            np.testing.assert_allclose(g, np.ones(n), atol=1e-14)
            np.testing.assert_allclose(c, (t / 4.0) * np.ones(n), atol=1e-12)

    def test_doubling_asset(self):
        prices = PriceSeries(
            dates=["d0", "d1"],
            tickers=["a", "b"],
            prices=np.array([[10.0, 10.0], [20.0, 10.0]]),
        )
        x = np.array([0.5, 0.5])
        g, c = next(iter(ons_flow(prices, lambda: x)))
        np.testing.assert_allclose(g, [4.0 / 3.0, 2.0 / 3.0], atol=1e-14)
        np.testing.assert_allclose(c, 0.25 * g, atol=1e-14)

    def test_drift_is_quarter_of_direction(self):
        prices = synthetic_prices(5, 20, seed=3)
        x = np.full(5, 0.2)
        flow = ons_flow(prices, lambda: x)
        c_prev = np.zeros(5)
        for g, c in flow:
            np.testing.assert_allclose(c - c_prev, 0.25 * g, atol=1e-12)
            c_prev = c

    def test_closed_loop_uses_latest_x(self):
        prices = synthetic_prices(3, 10, seed=1)
        holder = {"x": np.array([1.0, 0.0, 0.0])}
        seen = []
        flow = ons_flow(prices, lambda: seen.append(holder["x"].copy()) or holder["x"])
        it = iter(flow)
        next(it)
        holder["x"] = np.array([0.0, 1.0, 0.0])
        next(it)
        assert np.array_equal(seen[0], [1.0, 0.0, 0.0])
        assert np.array_equal(seen[1], [0.0, 1.0, 0.0])

    def test_rejects_nonpositive_prices(self):
        bad = PriceSeries(["d0", "d1"], ["a"], np.array([[1.0], [-2.0]]))
        with pytest.raises(ValueError):
            ons_flow(bad, lambda: np.ones(1))


class TestMarkowitzFlow:
    def test_identical_returns_give_zero_directions(self):
        w = np.tile(np.array([0.01, -0.02, 0.005]), (8, 1))
        for g, c in markowitz_flow(w):
            np.testing.assert_allclose(g, 0.0, atol=1e-15)
            np.testing.assert_allclose(c, 0.0, atol=1e-15)

    def test_two_observation_example(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = list(markowitz_flow(w))
        np.testing.assert_allclose(out[0][0], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(out[1][0], np.sqrt(0.5) * np.array([-1.0, 1.0]), atol=1e-14)

    def test_rank_one_reconstructs_scaled_covariance(self):
        rng = np.random.default_rng(17)
        T, n = 50, 5
        w = 0.02 * rng.standard_normal((T, n))
        eps = 1e-4
        flow = markowitz_flow(w, epsilon=eps)
        A = np.array(flow.a0)
        for t, (g, c) in enumerate(flow, start=1):
            A += np.outer(g, g)
            mean = w[:t].mean(axis=0)
            scaled_cov = sum(np.outer(w[s] - mean, w[s] - mean) for s in range(t))
            np.testing.assert_allclose(A, eps * np.eye(n) + scaled_cov, atol=1e-9)

    def test_initial_matrices_are_scaled_identities_bit_for_bit(self):
        eps = 3e-4
        a0s = (
            synthetic_flow(FlowConfig("synthetic", 7, 3, epsilon=eps)).a0,
            markowitz_flow(np.zeros((3, 7)), epsilon=eps).a0,
        )
        for a0 in a0s:
            assert np.asarray(a0).tobytes() == (eps * np.eye(7)).tobytes()

    def test_risk_aversion_emits_scaled_mean(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((10, 3))
        lam = 0.7
        for t, (g, c) in enumerate(markowitz_flow(w, risk_aversion=lam), start=1):
            np.testing.assert_allclose(c, lam * t * w[:t].mean(axis=0), atol=1e-12)


class TestSyntheticFlow:
    def test_zero_c_factor_means_zero_linear_term(self):
        flow = synthetic_flow(FlowConfig("synthetic", 6, 20, c_factor=0.0, seed=5))
        assert np.all(flow.c0 == 0.0)
        for g, c in flow:
            assert np.all(c == 0.0)

    def test_drift_matches_direct_recomputation(self):
        cfg = FlowConfig("synthetic", 8, 30, c_factor=0.1, seed=11)
        flow = synthetic_flow(cfg)
        A = np.array(flow.a0)
        c_prev = flow.c0.copy()
        for g, c in flow:
            A += np.outer(g, g)
            np.testing.assert_allclose(c, A @ flow.y, atol=1e-10)
            np.testing.assert_allclose(c - c_prev, g * (g @ flow.y), atol=1e-12)
            c_prev = c

    def test_seed_determinism_bitwise(self):
        cfg = FlowConfig("synthetic", 7, 25, c_factor=0.1, seed=21)
        a = list(synthetic_flow(cfg))
        b = list(synthetic_flow(cfg))
        for (ga, ca), (gb, cb) in zip(a, b):
            assert np.array_equal(ga, gb)
            assert np.array_equal(ca, cb)

    def test_distinct_seeds_differ(self):
        a = next(iter(synthetic_flow(FlowConfig("synthetic", 7, 5, seed=1))))
        b = next(iter(synthetic_flow(FlowConfig("synthetic", 7, 5, seed=2))))
        assert not np.array_equal(a[0], b[0])


class TestPriceIO:
    def test_round_trip(self, tmp_path):
        series = synthetic_prices(4, 12, seed=9)
        path = tmp_path / "prices.csv"
        save_prices(path, series)
        loaded = load_prices(path)
        assert loaded.tickers == series.tickers
        assert loaded.dates == series.dates
        np.testing.assert_array_equal(loaded.prices, series.prices)
        assert loaded.dropped_rows == 0

    def test_well_formed_small_file(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,1.1,2.2\n2020-01-03,1.2,2.1\n")
        series = load_prices(path)
        assert series.steps == 3 and series.n == 2

    def test_nan_row_dropped_with_count(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2020-01-01,1.0,2.0\n2020-01-02,NaN,2.2\n2020-01-03,1.2,2.1\n")
        series = load_prices(path)
        assert series.steps == 2
        assert series.dropped_rows == 1

    def test_nonpositive_row_dropped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\n2020-01-01,1.0\n2020-01-02,-3.0\n")
        series = load_prices(path)
        assert series.steps == 1 and series.dropped_rows == 1

    def test_ragged_row_is_parse_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a,b\n2020-01-01,1.0\n")
        with pytest.raises(ParseError) as err:
            load_prices(path)
        assert err.value.row == 1

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("")
        with pytest.raises(EmptySeries):
            load_prices(path)

    def test_all_rows_dropped_raises(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,a\nd0,bad\n")
        with pytest.raises(EmptySeries):
            load_prices(path)


class TestFlowForConfig:
    def test_synthetic_dispatch(self):
        flow = flow_for_config(FlowConfig("synthetic", 5, 10, seed=1))
        assert flow.a0.shape == (5, 5)

    def test_ons_needs_feedback(self):
        with pytest.raises(ValueError):
            flow_for_config(FlowConfig("ons", 5, 10, seed=1))

    def test_ons_refuses_missing_feedback_before_drawing(self, monkeypatch):
        def no_draw(seed):
            raise AssertionError("drew prices")

        monkeypatch.setattr(flows, "rng_for", no_draw)
        with pytest.raises(ValueError, match="needs x_feedback"):
            flow_for_config(FlowConfig("ons", 5, 10, seed=1))

    def test_markowitz_from_generated_prices(self):
        flow = flow_for_config(FlowConfig("markowitz", 5, 10, seed=1))
        out = list(flow)
        assert len(out) == 10


def feedback(n):
    x = np.full(n, 1.0 / n)
    x[0] += 0.3
    x /= x.sum()
    return lambda: x


class TestReplay:
    @pytest.mark.parametrize("kind", ["synthetic", "ons", "markowitz"])
    def test_every_iteration_gives_the_same_bytes(self, kind):
        # Steps past one price block, so the price flows replay their blocks too.
        flow = flow_for_config(FlowConfig(kind, 6, PRICE_BLOCK + 3, seed=4), x_feedback=feedback(6))
        first, second = list(flow), list(flow)
        assert len(first) == len(second) == PRICE_BLOCK + 3
        for (ga, ca), (gb, cb) in zip(first, second):
            assert ga.tobytes() == gb.tobytes()
            assert ca.tobytes() == cb.tobytes()


def ref_synthetic_prices(n, steps, seed=0, drift=0.0002, vol=0.01):
    """The whole-array recipe `synthetic_prices` followed before it drew its prices in blocks."""
    rng = np.random.Generator(np.random.Philox(seed ^ 0x5A17))
    shocks = drift + vol * rng.standard_normal((steps - 1, n))
    prices = np.empty((steps, n))
    prices[0] = 0.0
    np.cumsum(shocks, axis=0, out=prices[1:])
    np.exp(prices, out=prices)
    prices *= 100.0
    return prices


def ref_ons(prices, x):
    """The ons pairs from the whole ratio array at once, with a fixed portfolio x."""
    ratios = prices[1:] / prices[:-1]
    c = np.zeros(prices.shape[1])
    for r in ratios:
        g = r / float(x @ r)
        c = c + 0.25 * g
        yield g, c.copy()


def series(prices):
    return PriceSeries([f"t{k}" for k in range(len(prices))], [f"a{k}" for k in range(prices.shape[1])], prices)


class TestPriceBlocks:
    B = PRICE_BLOCK
    STEPS = (1, 2, B, B + 1, B + 2, 2 * B + 1)

    @pytest.mark.parametrize("n", [1, 9])
    @pytest.mark.parametrize("seed", range(4))
    def test_blocks_equal_the_one_block_recipe(self, n, seed):
        for steps in self.STEPS:
            ref = ref_synthetic_prices(n, steps, seed)
            blocks = list(price_blocks(n, steps, seed))
            assert sum(len(b) for b in blocks) == steps
            assert max(len(b) for b in blocks) <= PRICE_BLOCK
            assert np.concatenate(blocks).tobytes() == ref.tobytes()
            assert synthetic_prices(n, steps, seed).prices.tobytes() == ref.tobytes()
            assert np.concatenate(list(SyntheticPrices(n, steps, seed).blocks())).tobytes() == ref.tobytes()
            whole = series(ref)
            assert np.concatenate(list(ratio_blocks(whole))).tobytes() == (ref[1:] / ref[:-1]).tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_price_flows_match_the_whole_series(self, seed):
        n = 5
        for steps in self.STEPS:
            ref = ref_synthetic_prices(n, steps + 1, seed)
            x = feedback(n)
            cfg = {kind: FlowConfig(kind, n, steps, seed=seed) for kind in ("ons", "markowitz")}
            # The streamed source and a series in memory give the pairs of the whole arrays.
            want = {
                "ons": list(ref_ons(ref, x())),
                "markowitz": list(markowitz_flow(np.log(ref[1:] / ref[:-1]))),
            }
            for kind, pairs in want.items():
                for prices in (None, series(ref)):
                    got = list(flow_for_config(cfg[kind], prices=prices, x_feedback=x))
                    assert len(got) == len(pairs) == steps
                    for (g, c), (g_ref, c_ref) in zip(got, pairs):
                        assert g.tobytes() == g_ref.tobytes()
                        assert c.tobytes() == c_ref.tobytes()


class TestFlowMemory:
    """A price flow holds blocks of prices, never the whole stream."""

    N, T = 100, 20000
    LIMIT = 2_000_000  # bytes; a T x n float64 array is 16 MB

    @staticmethod
    def traced_peak(run):
        run(10)  # first use: numpy's lazily imported modules stay out of the figure
        tracemalloc.start()
        try:
            run(None)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind", ["ons", "markowitz"])
    def test_generated_stream_does_not_grow_with_T(self, kind):
        def run(steps):
            cfg = FlowConfig(kind, self.N, steps or self.T, seed=1)
            for _ in flow_for_config(cfg, x_feedback=feedback(self.N)):
                pass

        assert self.traced_peak(run) < self.LIMIT

    def test_markowitz_over_a_series_adds_only_blocks(self):
        prices = synthetic_prices(self.N, self.T + 1, seed=1)

        def run(steps):
            cfg = FlowConfig("markowitz", self.N, steps or self.T, seed=1)
            for _ in flow_for_config(cfg, prices=prices):
                pass

        assert self.traced_peak(run) < self.LIMIT
