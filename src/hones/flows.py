"""Problem-flow generators and price-data ingestion.

Three flows produce the (g_t, c_t) streams consumed by the driver:

  ons_flow        closed-loop portfolio updates: A0 = I, g_t = r_t / (x_t' r_t)
                  for price ratios r_t and the solver's own previous output
                  x_t, with c_t accumulating g_t / 4.
  synthetic_flow  i.i.d. Gaussian rank-one directions on top of A0 = eps I,
                  solving 0.5 (x - y)' A (x - y); expanding the square gives
                  the linear term c_t = A_t y, so the drift is g_t (g_t' y).
  markowitz_flow  running-mean/covariance estimates from log returns; the
                  scaled sample covariance t * Sigma_t satisfies the exact
                  rank-one recursion with g_t = sqrt((t-1)/t) (w_t - mean_{t-1}).

Every flow carries its initial matrix as `a0`, a `kkt.Diagonal` (eps I, or I
for ons), so no n x n array is built, filled or scanned until a caller asks
for one with `np.asarray(flow.a0)`; `c0` is the initial linear term.

The price flows read their prices in blocks of PRICE_BLOCK rows as the stream
runs, so they hold no T x n array of prices, ratios or log returns.  A price
source is anything with `n` and `blocks()`: a `PriceSeries` (a CSV, or one
built by hand) yields views of its array, and `SyntheticPrices`, which
`flow_for_config` passes when it is given no series, draws each block when
it is reached.  One rule generates prices (`price_blocks`; `synthetic_prices`
joins the same blocks into its series) and one rule turns a source into
ratios (`ratio_blocks`), so every (g_t, c_t) has the bits it would have from
the whole series at once.

Randomness uses the Philox counter-based bit generator so streams are
reproducible across platforms for a given seed.  Every `iter(flow)` starts
the stream afresh from its source or its saved generator state, so a flow
replays the same pairs each time it is iterated.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptySeries, ParseError
from .kkt import Diagonal


@dataclass
class FlowConfig:
    """The parameters of one flow; every field a config accepts changes the flow it configures.

    `epsilon` (the ridge of A0 = eps I) and `c_factor` (the scale of the
    synthetic anchor y) default to None, which the config replaces with the
    kind's default, 1e-4 and 0.1.  A kind whose flow does not read one of
    them keeps it None and refuses any other value: ons reads neither (its
    A0 is I), markowitz no c_factor.
    """

    kind: str  # "ons" | "markowitz" | "synthetic"
    n: int
    steps: int
    epsilon: float | None = None
    c_factor: float | None = None
    seed: int = 0

    def __post_init__(self):
        # The knobs each kind's flow reads, with their defaults.
        reads = {"ons": {}, "markowitz": {"epsilon": 1e-4}, "synthetic": {"epsilon": 1e-4, "c_factor": 0.1}}
        if self.kind not in reads:
            raise ValueError(f"unknown flow kind {self.kind!r}")
        if self.n < 1 or self.steps < 1:
            raise ValueError("n and steps must be positive")
        for name in ("epsilon", "c_factor"):
            if getattr(self, name) is None:
                setattr(self, name, reads[self.kind].get(name))
            elif name not in reads[self.kind]:
                raise ValueError(f"the {self.kind} flow has no {name}")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.c_factor is not None and self.c_factor < 0:
            raise ValueError("c_factor must be nonnegative")


# Rows of prices a price flow generates or reads at a time: enough that a
# step costs a row view, few enough that a block of n = 1000 is 2 MB.
PRICE_BLOCK = 256


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class PriceSeries:
    dates: list
    tickers: list
    prices: np.ndarray  # T x n, strictly positive

    @property
    def n(self):
        return self.prices.shape[1]

    @property
    def steps(self):
        return self.prices.shape[0]

    def blocks(self):
        """Views of the price array, PRICE_BLOCK rows at a time."""
        return (self.prices[k : k + PRICE_BLOCK] for k in range(0, self.steps, PRICE_BLOCK))


@dataclass(frozen=True)
class SyntheticPrices:
    """The series `synthetic_prices(n, steps, seed)` as a source that holds no price.

    Each `blocks()` call draws the series afresh, one block at a time.
    """

    n: int
    steps: int
    seed: int = 0

    def blocks(self):
        return price_blocks(self.n, self.steps, self.seed)


def price_blocks(n, steps, seed=0):
    """The geometric random walk of `synthetic_prices`, PRICE_BLOCK rows at a time.

    Row 0 is 100.  Each later block draws its log increments 0.0002 + 0.01 z
    (a drift and a volatility) from one Philox stream, adds the last log
    level of the block before to its first row, and sums, exponentiates and
    scales in place, so the rows are those of a single block of `steps` rows.
    """
    rng = rng_for(seed ^ 0x5A17)
    yield np.full((1, n), 100.0)
    level = None
    for start in range(1, steps, PRICE_BLOCK):
        lv = rng.standard_normal((min(PRICE_BLOCK, steps - start), n))
        lv *= 0.01
        lv += 0.0002
        if level is not None:
            lv[0] += level
        np.cumsum(lv, axis=0, out=lv)
        level = lv[-1].copy()
        np.exp(lv, out=lv)
        lv *= 100.0
        yield lv


def ratio_blocks(prices):
    """The ratios r_t = p_t / p_{t-1} of a price source, one block per price block.

    The first block has a row fewer than its prices; every later block
    divides its first row by the last row of the block before.
    """
    last = None
    for p in prices.blocks():
        if last is None:
            r = p[1:] / p[:-1]
        else:
            r = np.empty(p.shape)
            np.divide(p[0], last, out=r[0])
            np.divide(p[1:], p[:-1], out=r[1:])
        last = p[-1].copy()
        yield r


class SyntheticFlow:
    """Gaussian rank-one stream for the standard-QP benchmark.

    Deterministic per (seed, n): the anchor point y = c_factor * y0 is drawn
    first, then one g per step.  c_t tracks A_t y exactly through the
    telescoping drift l_t = g_t (g_t' y).
    """

    def __init__(self, config):
        if config.kind != "synthetic":
            raise ValueError("config.kind must be 'synthetic'")
        self.config = config
        rng = rng_for(config.seed)
        self.y = config.c_factor * rng.standard_normal(config.n)
        # Where the g's start in the stream: each iteration resumes from here.
        self._state = rng.bit_generator.state
        self.a0 = Diagonal(np.full(config.n, config.epsilon))
        self.c0 = config.epsilon * self.y

    def __iter__(self):
        bits = np.random.Philox()
        bits.state = self._state
        rng = np.random.Generator(bits)
        c = self.c0.copy()
        for _ in range(self.config.steps):
            g = rng.standard_normal(self.config.n)
            c = c + g * float(g @ self.y)
            yield g, c.copy()


def synthetic_flow(config):
    return SyntheticFlow(config)


class OnsFlow:
    """Closed-loop generalized-projection stream from a price source.

    x_feedback must return the solver's current output; it is consulted right
    before each step so that g_t uses exactly the portfolio held when the
    ratios r_t realize.
    """

    def __init__(self, prices, x_feedback):
        if isinstance(prices, PriceSeries) and np.any(prices.prices <= 0):
            raise ValueError("prices must be strictly positive")
        self.prices = prices
        self.x_feedback = x_feedback
        n = prices.n
        self.a0 = Diagonal(np.ones(n))
        self.c0 = np.zeros(n)

    def __iter__(self):
        c = self.c0.copy()
        for ratios in ratio_blocks(self.prices):
            for r in ratios:
                x = np.asarray(self.x_feedback(), dtype=np.float64)
                g = r / float(x @ r)
                c = c + 0.25 * g
                yield g, c.copy()


def ons_flow(prices, x_feedback):
    return OnsFlow(prices, x_feedback)


class MarkowitzFlow:
    """Minimum-variance stream from log returns.

    `returns` is a function of no argument that yields the T x n log returns
    in row blocks, afresh on each call.  With zero risk appetite the linear
    term vanishes identically; a positive risk_aversion emits
    c_t = risk_aversion * t * mean_t instead.  The first step only seeds the
    running mean, so g_1 = 0.
    """

    def __init__(self, returns, n, epsilon=1e-4, risk_aversion=0.0):
        self.returns = returns
        self.risk_aversion = float(risk_aversion)
        self.a0 = Diagonal(np.full(n, epsilon))
        self.c0 = np.zeros(n)

    def __iter__(self):
        n = self.c0.size
        mean = np.zeros(n)
        t = 0
        for block in self.returns():
            for w_t in block:
                t += 1
                if t == 1:
                    g = np.zeros(n)
                else:
                    g = math.sqrt((t - 1) / t) * (w_t - mean)
                mean = mean + (w_t - mean) / t
                c = self.risk_aversion * t * mean if self.risk_aversion else np.zeros(n)
                yield g, c


def markowitz_flow(log_returns, epsilon=1e-4, risk_aversion=0.0):
    """The markowitz flow over a T x n matrix of log returns."""
    w = np.asarray(log_returns, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError("log_returns must be a T x n matrix")
    return MarkowitzFlow(lambda: (w,), w.shape[1], epsilon=epsilon, risk_aversion=risk_aversion)


def synthetic_prices(n, steps, seed=0):
    """Geometric random-walk prices for exercising the price-driven flows, as one series."""
    prices = np.concatenate(list(price_blocks(n, steps, seed)))
    dates = [f"t{k:05d}" for k in range(steps)]
    tickers = [f"A{k:03d}" for k in range(n)]
    return PriceSeries(dates, tickers, prices)


def load_prices(path):
    """Read a wide CSV (date, ticker..., one row per day) into a PriceSeries.

    Rows containing a missing, non-numeric or non-positive price are dropped;
    the count of dropped rows is reported on the returned series as
    `dropped_rows` for caller-side warnings.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptySeries(f"{path} is empty") from None
        if len(header) < 2:
            raise ParseError("header must be 'date,ticker1,...'", row=0)
        tickers = [h.strip() for h in header[1:]]
        dates, rows = [], []
        dropped = 0
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"row has {len(row)} fields, expected {len(header)}", row=rownum
                )
            try:
                vals = [float(v) for v in row[1:]]
            except ValueError:
                dropped += 1
                continue
            if any(not np.isfinite(v) or v <= 0 for v in vals):
                dropped += 1
                continue
            dates.append(row[0])
            rows.append(vals)
    if not rows:
        raise EmptySeries(f"no usable rows in {path}")
    series = PriceSeries(dates, tickers, np.asarray(rows, dtype=np.float64))
    series.dropped_rows = dropped
    return series


def save_prices(path, series):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(series.tickers))
        for date, row in zip(series.dates, series.prices):
            writer.writerow([date] + [repr(float(v)) for v in row])


def flow_for_config(config, prices=None, x_feedback=None):
    """Instantiate the flow named by the config.

    A price flow reads `prices` (a `PriceSeries`), or when it is None the
    synthetic series of the config's n, steps + 1 rows and seed, drawn block
    by block as the stream runs.
    """
    if config.kind == "synthetic":
        return synthetic_flow(config)
    if prices is None:
        prices = SyntheticPrices(config.n, config.steps + 1, config.seed)
    if config.kind == "ons":
        if x_feedback is None:
            raise ValueError("ons flow is closed-loop and needs x_feedback")
        return ons_flow(prices, x_feedback)
    return MarkowitzFlow(lambda: (np.log(r, out=r) for r in ratio_blocks(prices)), prices.n, epsilon=config.epsilon)
