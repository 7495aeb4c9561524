"""Profit evaluation and best responses.

A company's profit ``W(P) = P * S(P)`` is piecewise smooth: within a
stretch of prices where its neighbor set stays put, the area is linear
(1D) or quadratic (2D) in the price, with slope ``dS/dP = -gamma``, and
pieces join continuously where a border shrinks to nothing.  The best
response walks that structure with a safeguarded Newton iteration on
``W'(P) = S + P * S'``: every area solve also returns the exact slope, the
next trial price is the vertex of ``P * S(P)`` under the exact area model
of the latest piece, and a bracket on the sign of ``W'`` falls back to
bisection when that vertex leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .areas import (
    LocalSolve,
    area_tolerance,
    areas_for_prices,
    fast_area,
    fast_signature,
)
from .errors import ValidationError
from .model import PriceVector, Scenario

__all__ = [
    "BestResponse",
    "best_response",
    "profit_curve",
    "utility",
]

# The best-response walk accepts a price where |W'| is this small relative
# to S + P |S'|, and stops at a kink or a wipe-out jump once its bracket
# is this narrow relative to the price ceiling.
STATIONARY_RTOL = 1e-11
BRACKET_RTOL = 1e-12
_MAX_STEPS = 100


@dataclass(frozen=True)
class BestResponse:
    """Profit-maximizing unilateral price."""

    price: float
    profit: float
    wiped_out: bool


def _values_with(
    scenario: Scenario, prices: PriceVector, company_id: int, price: float
) -> np.ndarray:
    values = prices.as_array()
    values[scenario.index_of[company_id]] = price
    return values


def utility(
    scenario: Scenario, prices: PriceVector, company_id: int, price: float
) -> tuple[float, float]:
    """Profit and area of one company at a candidate price.

    Other companies keep their ``prices`` entries.  Window checks are off
    here: probing counterfactual prices may legitimately truncate a cell
    at the window edge, and the final answer is re-checked by callers
    that care.
    """
    values = _values_with(scenario, prices, company_id, price)
    area = fast_area(scenario, values, company_id)
    return price * area, area


# ---------------------------------------------------------------------------
# Dense profit curves
# ---------------------------------------------------------------------------


def profit_curve(
    scenario: Scenario,
    prices: PriceVector,
    company_id: int,
    samples: int = 10_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Profit at ``samples`` evenly spaced prices over [0, price_upper].

    The areas come from :func:`areas_for_prices`: one solve per piece of
    the curve, a line solve or a one-cell clip, and the piece's exact
    area model in between, linear on a line and quadratic in the plane,
    so the curve is exact up to roundoff at every sample.
    """
    if samples < 1:
        raise ValidationError(f"a profit curve needs at least one sample, got {samples}")
    grid = np.linspace(0.0, scenario.price_upper, samples)
    return grid, grid * areas_for_prices(scenario, prices.as_array(), company_id, grid)


def unimodality_defect(profits: np.ndarray) -> float:
    """Largest rise after the running maximum has started falling.

    Zero for a cleanly unimodal sequence; small positive values bound
    how far the curve strays from rising-then-falling.
    """
    peak = int(np.argmax(profits))
    rise_defect = np.diff(profits[: peak + 1])
    fall_defect = np.diff(profits[peak:])
    worst = 0.0
    if len(rise_defect):
        worst = max(worst, float(-rise_defect.min(initial=0.0)))
    if len(fall_defect):
        worst = max(worst, float(fall_defect.max(initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# Best response
# ---------------------------------------------------------------------------


def best_response(
    scenario: Scenario,
    prices: PriceVector,
    company_id: int,
) -> BestResponse:
    """Profit-maximizing price for one company, holding others fixed.

    A safeguarded Newton walk on ``W'(P)`` from the company's current
    price (see :func:`_walk`), then the most profitable of ``0``, the
    price ceiling and the walk's end.  Ties break toward the lower price.
    A company with no market even at price zero is wiped out.
    """
    company = scenario.company(company_id)
    if company.frozen:
        raise ValidationError(f"company {company_id} is frozen and never optimizes")

    upper = scenario.price_upper
    eps = area_tolerance(scenario)
    values = prices.as_array()
    k = scenario.index_of[company_id]
    solved: dict[float, LocalSolve] = {}

    def solve(price: float) -> LocalSolve:
        if price not in solved:
            values[k] = price
            solved[price] = fast_signature(scenario, values, company_id)
        return solved[price]

    if solve(0.0).area <= eps:
        return BestResponse(upper, 0.0, True)

    ends = _walk(solve, prices.values[k], upper, eps, curved=scenario.dimension == 2)
    best_price, best_profit = 0.0, -np.inf
    for price in sorted({0.0, upper, *ends}):
        w = price * solve(price).area
        if w > best_profit * (1.0 + 1e-12) + 1e-15:
            best_price, best_profit = price, w
    if best_profit <= 0.0:
        return BestResponse(upper, 0.0, True)
    return BestResponse(best_price, best_profit, False)


def _profit_slope(price: float, at: LocalSolve, eps: float) -> float:
    """``W'(P) = S + P * S'``; a company without market counts as falling."""
    return at.area + price * at.slope if at.area > eps else -math.inf


def _walk(
    solve: Callable[[float], LocalSolve],
    start: float,
    upper: float,
    eps: float,
    curved: bool,
) -> list[float]:
    """Prices at the maximum of ``W`` on ``[0, upper]``.

    Keeps a bracket ``[lo, hi]`` with ``W'(lo) > 0 >= W'(hi)`` and steps to
    the vertex of ``P * S(P)`` under the exact area model of the latest
    solve's piece: linear from one solve, plus (in 2D) the curvature from
    the slopes of two solves with the same neighbor set.  A vertex outside
    the bracket, or a step longer than half the step before last, means
    bisection.  Returns the stationary price, or the ends of a bracket
    narrowed to ``BRACKET_RTOL * upper`` around a kink or a wipe-out jump.
    """
    if _profit_slope(upper, solve(upper), eps) >= 0.0:
        return [upper]
    lo, hi = 0.0, upper
    last_price, last = 0.0, solve(0.0)
    curvature = 0.0
    price = start if lo < start < hi else 0.5 * upper
    step, previous_step = math.inf, math.inf
    for _ in range(_MAX_STEPS):
        at = solve(price)
        g = _profit_slope(price, at, eps)
        if g > 0.0:
            lo = price
        else:
            hi = price
        if at.area > eps:
            if abs(g) <= STATIONARY_RTOL * (at.area - price * at.slope):
                return [price]
            curvature = (
                (at.slope - last.slope) / (price - last_price)
                if curved and at.neighbors == last.neighbors
                else 0.0
            )
            last_price, last = price, at
        if hi - lo <= BRACKET_RTOL * upper:
            return [lo, hi]
        proposal = _model_vertex(last_price, last, curvature)
        if not (lo < proposal < hi and abs(proposal - price) <= 0.5 * previous_step):
            proposal = 0.5 * (lo + hi)
        step, previous_step = abs(proposal - price), step
        price = proposal
    return [lo, hi]


def _model_vertex(price: float, at: LocalSolve, curvature: float) -> float:
    """Root nearest ``price`` of ``W'`` under the area model
    ``S(price + u) = S + S' u + curvature u^2 / 2``, where
    ``W'(price + u) = g + b u + 1.5 curvature u^2``; NaN when the model
    profit is not concave there."""
    g = at.area + price * at.slope
    b = 2.0 * at.slope + price * curvature
    if not b < 0.0:
        return math.nan
    disc = b * b - 6.0 * curvature * g
    if disc < 0.0:
        return price - g / b
    return price + 2.0 * g / (math.sqrt(disc) - b)
