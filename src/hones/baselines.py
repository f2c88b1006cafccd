"""Warm-started projected-gradient baseline for speed comparisons.

Projected gradient with a Barzilai-Borwein step length and nonmonotone
backtracking, stopped on the same optimality residual as the path solver so
wall-clock comparisons are like for like.  Deliberately simple: it exists as
an honest comparator ("pg-warm" in reports), not as a tuned reimplementation
of any published method.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from .kkt import project_simplex, simplex_start, zero_tol


@dataclass
class PGResult:
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def pg_residual(x, grad):
    """Optimality residual of a feasible iterate given its gradient.

    Same quantity the path solver reports: the multiplier mu0 is fit to the
    support gradient, off-support multipliers follow from stationarity, and
    the worst violation across stationarity, feasibility, sign constraints
    and complementary slackness is returned.
    """
    mask = x > zero_tol(x)
    if not mask.any():
        mask[int(np.argmax(x))] = True
    gs = grad[mask]
    mu0 = 0.5 * (float(np.max(gs)) + float(np.min(gs)))
    mu = grad - mu0
    stat_support = float(np.max(np.abs(gs - mu0)))
    mu_off = mu[~mask]
    sign_viol = max(0.0, -float(np.min(mu_off))) if mu_off.size else 0.0
    comp = float(np.max(np.abs(np.where(mask, 0.0, mu) * x)))
    return max(stat_support, sign_viol, comp, abs(float(np.sum(x)) - 1.0))


def pg_warmstart_solve(problem, x0, tol=1e-8, max_iter=5000):
    """Minimize over the simplex starting from a feasible x0.

    Returns PGResult; converged is False when the iteration cap is reached,
    which callers report rather than treat as fatal.  max_iter = 0 checks the
    residual of x0 once.  Raises ValueError before any work unless x0 is a
    finite length-n point of the simplex and max_iter is nonnegative.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    A, c = np.asarray(problem.A), problem.c  # a Diagonal A is made dense once, not per product
    x = simplex_start(x0, c.shape[0])

    grad = A @ x - c
    f = 0.5 * float(x @ grad) - 0.5 * float(c @ x)
    fmem = deque([f], maxlen=10)  # the nonmonotone line search's memory
    alpha = 1.0
    best_res = np.inf

    for it in range(max_iter + 1):
        res = pg_residual(x, grad)
        best_res = min(best_res, res)
        if res <= tol:
            return PGResult(x, it, res, True)
        if it == max_iter:
            break
        d = project_simplex(x - alpha * grad) - x
        dnorm = float(np.max(np.abs(d)))
        if dnorm <= 1e-16:
            alpha = 1.0  # stalled step length, reset and retry once
            d = project_simplex(x - grad) - x
            if float(np.max(np.abs(d))) <= 1e-16:
                break
        g_d = float(grad @ d)
        Ad = A @ d
        d_ad = float(d @ Ad)
        theta = 1.0
        fmax = max(fmem)
        f_new = f + theta * g_d + 0.5 * theta * theta * d_ad
        while f_new > fmax + 1e-4 * theta * g_d and theta > 1e-12:
            theta *= 0.5
            f_new = f + theta * g_d + 0.5 * theta * theta * d_ad
        x = x + theta * d
        grad = grad + theta * Ad
        f = f_new
        fmem.append(f)
        if d_ad > 0:
            alpha = min(max(float(d @ d) / d_ad, 1e-10), 1e10)
    return PGResult(x, max_iter, best_res, False)
