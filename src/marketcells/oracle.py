"""Brute-force grid oracle.

Ground truth that shares no code with the analytic solvers: rasterize
the window, hand every grid cell center to the cheapest company, and
count.  Under brand feedback the areas inside the weights are found by a
damped fixed point on the area vector.  Used to audit the geometric
solvers and best responses, never to drive them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleNoConvergence
from .model import Box, PriceVector, Scenario

__all__ = [
    "GridSpec",
    "OwnershipMap",
    "grid_best_response",
    "grid_partition",
]

DAMPING = 0.5
MAX_FIXED_POINT_SWEEPS = 10_000
# Most cells a grid may hold; the finest grid the tests use has about 9e6.
MAX_GRID_CELLS = 10**8


@dataclass(frozen=True)
class GridSpec:
    """Uniform sampling grid over a window.

    ``resolution`` is the requested cell edge; each axis uses the nearest
    cell count, so the effective edge differs from the request by at most
    one cell's worth.
    """

    resolution: float
    window: Box

    def __post_init__(self) -> None:
        if not self.resolution > 0.0:
            raise ValueError("grid resolution must be positive")
        for edge in self.window.edges:
            if edge / self.resolution < 0.5:
                raise ValueError("grid resolution exceeds the window edge")
        cells = math.prod(edge / self.resolution for edge in self.window.edges)
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid resolution {self.resolution:g} gives about {cells:.3g} cells, "
                f"more than the {MAX_GRID_CELLS:.0e} a grid may hold"
            )

    def axis_centers(self) -> list[np.ndarray]:
        out = []
        for lo, hi in zip(self.window.lo, self.window.hi):
            n = max(1, round((hi - lo) / self.resolution))
            h = (hi - lo) / n
            out.append(lo + h * (np.arange(n) + 0.5))
        return out

    @property
    def cell_measure(self) -> float:
        return math.prod(
            (hi - lo) / max(1, round((hi - lo) / self.resolution))
            for lo, hi in zip(self.window.lo, self.window.hi)
        )


@dataclass
class OwnershipMap:
    """Owner company index per grid cell center (ties go to the lowest
    company id, so the map is deterministic given the grid)."""

    grid: GridSpec
    owner_ids: np.ndarray


def _ownership_pass(
    scenario: Scenario, weights: np.ndarray, grid: GridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Single argmin sweep; returns (owner index array, counts)."""
    axes = grid.axis_centers()
    pos = scenario.positions
    n = len(scenario.companies)
    order = sorted(range(n), key=lambda k: scenario.ids[k])
    if scenario.dimension == 1:
        x = axes[0]
        best = np.full(x.shape, np.inf)
        owner = np.zeros(x.shape, dtype=np.int64)
        for k in order:
            field = weights[k] + (x - pos[k, 0]) ** 2
            take = field < best
            best[take] = field[take]
            owner[take] = k
    else:
        gx, gy = np.meshgrid(axes[0], axes[1], indexing="ij")
        best = np.full(gx.shape, np.inf)
        owner = np.zeros(gx.shape, dtype=np.int64)
        for k in order:
            field = weights[k] + (gx - pos[k, 0]) ** 2 + (gy - pos[k, 1]) ** 2
            take = field < best
            best[take] = field[take]
            owner[take] = k
    counts = np.bincount(owner.ravel(), minlength=n)
    return owner, counts


def grid_partition(
    scenario: Scenario, prices: PriceVector, grid: GridSpec
) -> tuple[OwnershipMap, dict[int, float]]:
    """Rasterized market split and per-company areas.

    With ``q = 0`` one argmin pass settles it.  With ``q = 1`` the areas
    feed the weights, so iterate ``S <- (1 - damping) S + damping *
    S_grid(S)`` from the brand-free split until the vector stops moving
    by more than the area tolerance.
    """
    p = prices.as_array()
    cell = grid.cell_measure
    if scenario.q == 0:
        owner, counts = _ownership_pass(scenario, p, grid)
    else:
        eps = 1e-9 * scenario.window.measure
        _, counts = _ownership_pass(scenario, p, grid)
        areas = counts * cell
        for _ in range(MAX_FIXED_POINT_SWEEPS):
            weights = p - scenario.beta * areas
            owner, counts = _ownership_pass(scenario, weights, grid)
            proposal = counts * cell
            step = np.max(np.abs(proposal - areas))
            areas = (1.0 - DAMPING) * areas + DAMPING * proposal
            if step * DAMPING < eps:
                break
        else:
            raise OracleNoConvergence(
                "damped area fixed point still moving after "
                f"{MAX_FIXED_POINT_SWEEPS} sweeps"
            )
        owner, counts = _ownership_pass(scenario, p - scenario.beta * areas, grid)
    area_by_id = {
        scenario.ids[k]: float(counts[k] * cell) for k in range(len(counts))
    }
    id_of_index = np.array(scenario.ids, dtype=np.int64)
    return OwnershipMap(grid, id_of_index[owner]), area_by_id


def grid_best_response(
    scenario: Scenario,
    prices: PriceVector,
    company_id: int,
    price_samples: int,
    grid: GridSpec | None = None,
) -> tuple[float, float]:
    """Best price on a uniform price grid, profits measured on the
    rasterized market.  Returns ``(argmax price, max profit)``; ties go
    to the lower price."""
    if price_samples < 2:
        raise ValueError("need at least two price samples")
    scenario.company(company_id)  # an unknown id raises ValidationError
    if grid is None:
        grid = GridSpec(1e-3 * max(scenario.window.edges), scenario.window)
    best_price, best_profit = 0.0, 0.0
    for price in np.linspace(0.0, scenario.price_upper, price_samples):
        trial = prices.with_price(scenario, company_id, float(price))
        _, areas = grid_partition(scenario, trial, grid)
        profit = float(price) * areas[company_id]
        if profit > best_profit:
            best_price, best_profit = float(price), profit
    return best_price, best_profit
