"""Profit evaluation and best responses.

A company's profit ``W(P) = P * S(P)`` is piecewise smooth: each area
solve returns the piece of ``S`` that starts at its price, linear on a
line and quadratic in the plane, and pieces join where a neighbor set
changes or a company is wiped out.  The best response walks those pieces
with a safeguarded Newton iteration on ``W'(P) = S + P * S'``: the next
trial price is the root of ``W'`` under the latest solve's exact piece,
a piece along which ``W'`` stays positive sends the walk to the piece's
end, and a bracket on the sign of ``W'`` falls back to bisection when a
root leaves it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .areas import (
    AreaPiece,
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
# to S + P |S'|.  It steps this far, relative to the price ceiling, past
# the end of a piece to reach the next one, and stops once its bracket is
# this narrow.
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

    A company with a market at some price has one at price zero: without
    brand feedback a higher own price only shrinks the cell, and with it
    dense scans find no exception, though the area may rise with the
    price there.  So a start inside ``(0, price_upper)`` that holds a
    market rules the wipe-out out, and the profit at zero is ``0`` with
    no solve.  The solve at zero runs only for a start outside that
    interval, a start without market, or when the walk needs the piece
    there.  A response from a stationary start costs two solves: the
    start and the ceiling.
    """
    company = scenario.company(company_id)
    if company.frozen:
        raise ValidationError(f"company {company_id} is frozen and never optimizes")

    upper = scenario.price_upper
    eps = area_tolerance(scenario)
    values = prices.as_array()
    k = scenario.index_of[company_id]
    solved: dict[float, AreaPiece] = {}

    def solve(price: float) -> AreaPiece:
        if price not in solved:
            values[k] = price
            solved[price] = fast_signature(scenario, values, company_id)
        return solved[price]

    start = prices.values[k]
    if not (0.0 < start < upper and solve(start).area > eps) and solve(0.0).area <= eps:
        return BestResponse(upper, 0.0, True)

    ends = _walk(solve, start, upper, eps)
    best_price, best_profit = 0.0, 0.0
    for price in sorted({upper, *ends} - {0.0}):
        w = price * solve(price).area
        if w > best_profit * (1.0 + 1e-12) + 1e-15:
            best_price, best_profit = price, w
    if best_profit <= 0.0:
        return BestResponse(upper, 0.0, True)
    return BestResponse(best_price, best_profit, False)


def _profit_slope(price: float, at: AreaPiece, eps: float) -> float:
    """``W'(P) = S + P * S'``; a company without market counts as falling."""
    return at.area + price * at.slope if at.area > eps else -math.inf


def _walk(
    solve: Callable[[float], AreaPiece],
    start: float,
    upper: float,
    eps: float,
) -> list[float]:
    """Prices at the maximum of ``W`` on ``[0, upper]``.

    Keeps a bracket ``[lo, hi]`` with ``W'(lo) > 0 >= W'(hi)`` and steps to
    the root of ``W'`` under the area model of the latest solve's piece.
    When that solve is ``lo``, the model is exact up to the piece's end:
    the walk takes its root, or, where ``W'`` stays positive over the
    whole piece, steps ``BRACKET_RTOL * upper`` past the end, since a
    solve at the end itself may still return the piece.  Once that step
    reaches ``hi``, the maximum is the kink or wipe-out jump at the
    piece's end.  A solve there may fall on either side of a jump, so the
    walk returns the price ``BRACKET_RTOL * upper`` before the end, which
    lies on the piece, and ``hi``.  Any other root extrapolates, as does
    that of a damped line solve, whose piece is its own price alone: a
    step longer than half the step before last means bisection, as does
    a root outside the bracket.  Otherwise the walk returns the
    stationary price, or the ends of a bracket narrowed to
    ``BRACKET_RTOL * upper``.

    ``solve`` caches its pieces: the walk looks up the piece at ``lo``
    and at the last price with a market again, and solves at ``0`` only
    once it needs that piece, when ``W'`` at the start is not positive.
    """
    if _profit_slope(upper, solve(upper), eps) >= 0.0:
        return [upper]
    past = BRACKET_RTOL * upper
    lo, hi = 0.0, upper
    last_price = 0.0
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
            last_price = price
        if hi - lo <= past:
            return [lo, hi]
        low = solve(lo)
        end = lo + low.reach
        rising = low.reach > 0.0 and not _model_root(lo, low) <= end
        if rising and end + past >= hi:
            return [max(lo, end - past), hi]
        proposal = _model_root(last_price, solve(last_price))
        if g > 0.0 and low.reach > 0.0:
            # exact on the piece just solved: its root, or the next piece
            if rising:
                proposal = end + past
        elif not abs(proposal - price) <= 0.5 * previous_step:
            proposal = math.nan
        if not lo < proposal < hi:
            proposal = 0.5 * (lo + hi)
        step, previous_step = abs(proposal - price), step
        price = proposal
    return [lo, hi]


def _model_root(price: float, at: AreaPiece) -> float:
    """Root nearest ``price``, on the side ``W'`` points to, of ``W'``
    under the piece's area model ``S(price + u) = S + S' u + c u^2``,
    where ``W'(price + u) = g + b u + 3 c u^2``; NaN when it has none."""
    g = at.area + price * at.slope
    b = 2.0 * (at.slope + price * at.curvature)
    disc = b * b - 12.0 * at.curvature * g
    denominator = math.sqrt(disc) - b if disc >= 0.0 else 0.0
    return price + 2.0 * g / denominator if denominator > 0.0 else math.nan
