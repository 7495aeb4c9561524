"""Scenario builders and the acceptance-result ledger shared by tests."""

from __future__ import annotations

import numpy as np

from marketcells import (
    Box,
    Company,
    PriceVector,
    Scenario,
    solve_partition,
    wipeout_threshold,
)
from marketcells.errors import MarketCellsError

# Acceptance bookkeeping: criterion number -> (label, passed, detail).
ACCEPTANCE: dict[int, tuple[str, bool, str]] = {}
ACCEPTANCE_ATTEMPTED: list[int] = []

CRITERIA_LABELS = {
    1: "1D lattice equilibrium",
    2: "2D lattice equilibrium",
    3: "epsilon-Nash audit",
    4: "oracle equivalence",
    5: "wipe-out threshold",
    6: "quasiconcavity suite",
    7: "2D derivative identity",
    8: "price-sensitivity band (q=1)",
    9: "convexity and coverage",
}


def record(num: int, passed: bool, detail: str) -> None:
    ACCEPTANCE[num] = (CRITERIA_LABELS[num], passed, detail)


def check(num: int, passed: bool, detail: str) -> None:
    record(num, passed, detail)
    assert passed, f"criterion {num} ({CRITERIA_LABELS[num]}): {detail}"


# ---------------------------------------------------------------------------
# Reference formulas
# ---------------------------------------------------------------------------


def aggregate_price(
    scenario: Scenario,
    company_id: int,
    x,
    area: float,
    price: float | None = None,
) -> float:
    """Total cost a customer at ``x`` perceives from one company, written
    straight from the model: mill price plus squared distance minus the
    brand bonus ``beta * area**q``, with ``0**0 == 1`` so that the ``q = 0``
    bonus is the constant ``beta``.  ``price`` overrides the scenario price.
    """
    c = scenario.company(company_id)
    p = c.price if price is None else price
    dist_sq = sum((a - b) ** 2 for a, b in zip(x, c.position, strict=True))
    bonus = 1.0 if scenario.q == 0 else float(area)
    return p + dist_sq - scenario.beta * bonus


def own_threshold(scenario: Scenario, active: set[int], cid: int) -> float:
    """Wipe-out threshold of ``cid`` against its nearest flanks in
    ``active``, found by scanning every active position."""
    x0 = scenario.company(cid).position[0]
    d_left = d_right = None
    for other in active:
        if other == cid:
            continue
        x = scenario.company(other).position[0]
        if x < x0:
            d = x0 - x
            d_left = d if d_left is None else min(d_left, d)
        elif x > x0:
            d = x - x0
            d_right = d if d_right is None else min(d_right, d)
    return wipeout_threshold(d_left, d_right)


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------


def line_scenario(
    positions,
    prices,
    frozen=None,
    beta: float = 0.0,
    q: int = 0,
    price_upper: float = 6.0,
    margin: float = 1.0,
) -> Scenario:
    """1D scenario; outermost companies frozen unless stated otherwise."""
    positions = list(map(float, positions))
    n = len(positions)
    if frozen is None:
        lo_i = positions.index(min(positions))
        hi_i = positions.index(max(positions))
        frozen = [k in (lo_i, hi_i) for k in range(n)]
    window = Box((min(positions) - margin,), (max(positions) + margin,))
    half = max(abs(x) for x in positions) + 1.0
    return Scenario(
        dimension=1,
        beta=beta,
        q=q,
        companies=tuple(
            Company(k, (positions[k],), float(prices[k]), bool(frozen[k]))
            for k in range(n)
        ),
        focal_box_half=half,
        price_upper=price_upper,
        window=window,
    )


def lattice_1d(
    n: int = 11,
    endpoint_price: float = 1.0,
    interior_price: float = 0.5,
    price_upper: float = 4.0,
) -> Scenario:
    """Integer lattice on a line, endpoints frozen."""
    prices = [endpoint_price if k in (0, n - 1) else interior_price for k in range(n)]
    return line_scenario(
        list(range(n)), prices, beta=0.0, q=0, price_upper=price_upper, margin=2.0
    )


def triple_q1(beta: float, prices=(1.0, 1.0, 1.0), price_upper: float = 5.0) -> Scenario:
    """Companies at 0, 1, 2 with frozen ends; half-spacing window margin
    so equal prices give unit areas at every brand weight."""
    return line_scenario(
        [0.0, 1.0, 2.0], prices, beta=beta, q=1, price_upper=price_upper, margin=0.5
    )


def lattice_2d(
    n: int = 7,
    boundary_price: float = 0.5,
    interior_price: float = 1.0,
    price_upper: float = 4.0,
    margin: float = 1.5,
) -> Scenario:
    """Unit square lattice with the boundary ring frozen."""
    companies = []
    cid = 0
    for i in range(n):
        for j in range(n):
            border = i in (0, n - 1) or j in (0, n - 1)
            companies.append(
                Company(
                    cid,
                    (float(i), float(j)),
                    boundary_price if border else interior_price,
                    border,
                )
            )
            cid += 1
    window = Box((-margin, -margin), (n - 1 + margin, n - 1 + margin))
    return Scenario(
        dimension=2,
        beta=0.0,
        q=0,
        companies=tuple(companies),
        focal_box_half=float(n + margin),
        price_upper=price_upper,
        window=window,
    )


def random_line_scenario(rng: np.random.Generator, q: int = 0) -> Scenario:
    """Random 1D market: 5-12 companies, generic spacings and prices."""
    n = int(rng.integers(5, 13))
    gaps = rng.uniform(0.6, 1.4, size=n - 1)
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    positions -= positions.mean()
    prices = rng.uniform(0.5, 1.5, size=n)
    beta = 0.0
    if q == 1:
        thresholds = [
            2.0 * gaps[k] * gaps[k + 1] / (gaps[k] + gaps[k + 1])
            for k in range(n - 2)
        ]
        limit = min(thresholds) if thresholds else 2.0 * float(gaps.min())
        beta = float(rng.uniform(0.2, 0.45) * limit)
    return line_scenario(
        positions,
        prices,
        beta=beta,
        q=q,
        price_upper=6.0,
        margin=float(rng.uniform(0.6, 1.0)),
    )


def random_plane_scenario(rng: np.random.Generator) -> Scenario:
    """Random 2D market: a frozen ring sheltering 2-4 focal companies.

    Retries derived seeds until the scenario solves cleanly at its own
    prices, so every returned scenario is usable as-is.
    """
    for _ in range(50):
        center = np.array([3.0, 3.0])
        n_focal = int(rng.integers(2, 5))
        points: list[np.ndarray] = []
        guard = 0
        while len(points) < n_focal and guard < 200:
            guard += 1
            cand = center + rng.uniform(-0.9, 0.9, size=2)
            if all(np.linalg.norm(cand - p) > 0.5 for p in points):
                points.append(cand)
        n_ring = 8  # keeps every scenario at a dozen companies or fewer
        angles = (
            2.0 * np.pi * (np.arange(n_ring) + rng.uniform(-0.3, 0.3, size=n_ring))
            / n_ring
            + rng.uniform(0.0, 2.0 * np.pi)
        )
        ring = [
            center + rng.uniform(2.0, 2.4) * np.array([np.cos(a), np.sin(a)])
            for a in angles
        ]
        companies = []
        for k, p in enumerate(points):
            companies.append(
                Company(k, (float(p[0]), float(p[1])), float(rng.uniform(0.6, 1.2)), False)
            )
        for k, p in enumerate(ring):
            companies.append(
                Company(
                    n_focal + k,
                    (float(p[0]), float(p[1])),
                    float(rng.uniform(0.8, 1.4)),
                    True,
                )
            )
        try:
            scn = Scenario(
                dimension=2,
                beta=0.0,
                q=0,
                companies=tuple(companies),
                focal_box_half=8.0,
                price_upper=8.0,
                window=Box((-0.8, -0.8), (6.8, 6.8)),
            )
            solve_partition(scn, PriceVector.from_scenario(scn))
            return scn
        except MarketCellsError:
            continue
    raise RuntimeError("could not draw a valid random 2D scenario")


def random_scenario(rng: np.random.Generator, kind: str) -> Scenario:
    if kind == "line":
        return random_line_scenario(rng, q=0)
    if kind == "line_q1":
        return random_line_scenario(rng, q=1)
    if kind == "plane":
        return random_plane_scenario(rng)
    raise ValueError(kind)
