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

Randomness uses the Philox counter-based bit generator so streams are
reproducible across platforms for a given seed.
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

    def ratios(self):
        """Elementwise price ratios r_t = p_t / p_{t-1}, shape (T-1) x n."""
        return self.prices[1:] / self.prices[:-1]

    def log_returns(self):
        return np.log(self.ratios())


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
        self._rng = rng
        self.a0 = Diagonal(np.full(config.n, config.epsilon))
        self.c0 = config.epsilon * self.y

    def __iter__(self):
        c = self.c0.copy()
        for _ in range(self.config.steps):
            g = self._rng.standard_normal(self.config.n)
            c = c + g * float(g @ self.y)
            yield g, c.copy()


def synthetic_flow(config):
    return SyntheticFlow(config)


class OnsFlow:
    """Closed-loop generalized-projection stream from a price series.

    x_feedback must return the solver's current output; it is consulted right
    before each step so that g_t uses exactly the portfolio held when the
    ratios r_t realize.
    """

    def __init__(self, prices, x_feedback):
        if np.any(prices.prices <= 0):
            raise ValueError("prices must be strictly positive")
        self.prices = prices
        self.x_feedback = x_feedback
        n = prices.n
        self.a0 = Diagonal(np.ones(n))
        self.c0 = np.zeros(n)

    def __iter__(self):
        ratios = self.prices.ratios()
        c = self.c0.copy()
        for t in range(ratios.shape[0]):
            x = np.asarray(self.x_feedback(), dtype=np.float64)
            r = ratios[t]
            g = r / float(x @ r)
            c = c + 0.25 * g
            yield g, c.copy()


def ons_flow(prices, x_feedback):
    return OnsFlow(prices, x_feedback)


class MarkowitzFlow:
    """Minimum-variance stream from log returns.

    With zero risk appetite the linear term vanishes identically; a positive
    risk_aversion emits c_t = risk_aversion * t * mean_t instead.  The first
    step only seeds the running mean, so g_1 = 0.
    """

    def __init__(self, log_returns, epsilon=1e-4, risk_aversion=0.0):
        w = np.asarray(log_returns, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError("log_returns must be a T x n matrix")
        self.w = w
        self.risk_aversion = float(risk_aversion)
        n = w.shape[1]
        self.a0 = Diagonal(np.full(n, epsilon))
        self.c0 = np.zeros(n)

    def __iter__(self):
        n = self.w.shape[1]
        mean = np.zeros(n)
        for t in range(1, self.w.shape[0] + 1):
            w_t = self.w[t - 1]
            if t == 1:
                g = np.zeros(n)
            else:
                g = math.sqrt((t - 1) / t) * (w_t - mean)
            mean = mean + (w_t - mean) / t
            c = self.risk_aversion * t * mean if self.risk_aversion else np.zeros(n)
            yield g, c


def markowitz_flow(log_returns, epsilon=1e-4, risk_aversion=0.0):
    return MarkowitzFlow(log_returns, epsilon=epsilon, risk_aversion=risk_aversion)


def synthetic_prices(n, steps, seed=0, drift=0.0002, vol=0.01):
    """Geometric random-walk prices for exercising the price-driven flows."""
    rng = rng_for(seed ^ 0x5A17)
    shocks = drift + vol * rng.standard_normal((steps - 1, n))
    # Log levels, then prices, in one block: row 0 is the zero level.
    prices = np.empty((steps, n))
    prices[0] = 0.0
    np.cumsum(shocks, axis=0, out=prices[1:])
    np.exp(prices, out=prices)
    prices *= 100.0
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
    """Instantiate the flow named by the config; price flows need a series."""
    if config.kind == "synthetic":
        return synthetic_flow(config)
    if prices is None:
        prices = synthetic_prices(config.n, config.steps + 1, seed=config.seed)
    if config.kind == "ons":
        if x_feedback is None:
            raise ValueError("ons flow is closed-loop and needs x_feedback")
        return ons_flow(prices, x_feedback)
    return markowitz_flow(prices.log_returns(), epsilon=config.epsilon)
