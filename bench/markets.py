"""Seeded market builders for the benchmark workloads.

Every builder takes a ``numpy.random.Generator`` and returns a validated
``Scenario``; the same generator state always gives the same market.
Sizes are fixed per builder and only continuous quantities (spacings,
prices, brand weights, jitter) are drawn, so the solve cost of one market
varies little from seed to seed.
"""

from __future__ import annotations

import numpy as np

from marketcells import Box, Company, PriceVector, Scenario, solve_partition
from marketcells.errors import MarketCellsError


def line_market(positions, prices, beta=0.0, q=0, price_upper=6.0, margin=1.0):
    """Line market with its two outermost companies frozen."""
    positions = [float(x) for x in positions]
    lo, hi = min(positions), max(positions)
    companies = tuple(
        Company(k, (x,), float(prices[k]), x in (lo, hi))
        for k, x in enumerate(positions)
    )
    return Scenario(
        dimension=1,
        beta=float(beta),
        q=q,
        companies=companies,
        focal_box_half=max(abs(lo), abs(hi)) + 1.0,
        price_upper=price_upper,
        window=Box((lo - margin,), (hi + margin,)),
    )


def random_line(rng: np.random.Generator, n: int, q: int) -> Scenario:
    """``n`` companies with spacings in [0.6, 1.4] and prices in [0.5, 1.5].

    With ``q = 1`` the brand weight is drawn in [0.2, 0.45] times the
    tightest interior wipe-out threshold ``2 d_L d_R / (d_L + d_R)``,
    below the band where the line solve falls back to its damped fixed
    point, and the frozen ends are priced in [0.5, 0.7].  Brand feedback
    pulls the optimizers' prices down to about 0.2-0.8; a frozen end
    priced well above them loses its whole market, and the solve then
    stops with ``WindowTooSmall`` because an optimizer owns the window
    edge.
    """
    gaps = rng.uniform(0.6, 1.4, size=n - 1)
    positions = np.concatenate([[0.0], np.cumsum(gaps)])
    positions -= positions.mean()
    prices = rng.uniform(0.5, 1.5, size=n)
    beta = 0.0
    if q == 1:
        prices[[0, -1]] = rng.uniform(0.5, 0.7, size=2)
        tightest = min(
            2.0 * gaps[k] * gaps[k + 1] / (gaps[k] + gaps[k + 1]) for k in range(n - 2)
        )
        beta = float(rng.uniform(0.2, 0.45) * tightest)
    return line_market(
        positions, prices, beta=beta, q=q, margin=float(rng.uniform(0.6, 1.0))
    )


def unit_line(n: int, beta: float) -> Scenario:
    """Unit-spacing brand line, prices 1, window margin 0.5."""
    return line_market(range(n), [1.0] * n, beta=beta, q=1, price_upper=5.0, margin=0.5)


def ring_market(rng: np.random.Generator, n_focal: int = 3) -> Scenario:
    """``n_focal`` free companies inside a frozen ring of eight.

    Draws again until the market solves at its own prices, so every
    returned market is usable as-is.
    """
    center = np.array([3.0, 3.0])
    for _ in range(50):
        points: list[np.ndarray] = []
        while len(points) < n_focal:
            cand = center + rng.uniform(-0.9, 0.9, size=2)
            if all(np.linalg.norm(cand - p) > 0.5 for p in points):
                points.append(cand)
        angles = (
            2.0 * np.pi * (np.arange(8) + rng.uniform(-0.3, 0.3, size=8)) / 8
            + rng.uniform(0.0, 2.0 * np.pi)
        )
        ring = [
            center + rng.uniform(2.0, 2.4) * np.array([np.cos(a), np.sin(a)])
            for a in angles
        ]
        companies = [
            Company(k, (float(p[0]), float(p[1])), float(rng.uniform(0.6, 1.2)), False)
            for k, p in enumerate(points)
        ] + [
            Company(n_focal + k, (float(p[0]), float(p[1])), float(rng.uniform(0.8, 1.4)), True)
            for k, p in enumerate(ring)
        ]
        scn = Scenario(
            dimension=2,
            beta=0.0,
            q=0,
            companies=tuple(companies),
            focal_box_half=8.0,
            price_upper=8.0,
            window=Box((-0.8, -0.8), (6.8, 6.8)),
        )
        try:
            solve_partition(scn, PriceVector.from_scenario(scn))
        except MarketCellsError:
            continue
        return scn
    raise RuntimeError("could not draw a ring market that solves at its own prices")


def jittered_lattice(rng: np.random.Generator, side: int) -> Scenario:
    """``side``-by-``side`` lattice, positions jittered by up to 0.2,
    prices in [0.8, 1.2], the boundary ring frozen."""
    companies = []
    for i in range(side):
        for j in range(side):
            jitter = rng.uniform(-0.2, 0.2, size=2)
            companies.append(
                Company(
                    len(companies),
                    (i + float(jitter[0]), j + float(jitter[1])),
                    float(rng.uniform(0.8, 1.2)),
                    i in (0, side - 1) or j in (0, side - 1),
                )
            )
    margin = 1.5
    return Scenario(
        dimension=2,
        beta=0.0,
        q=0,
        companies=tuple(companies),
        focal_box_half=side + margin,
        price_upper=4.0,
        window=Box((-margin, -margin), (side - 1 + margin, side - 1 + margin)),
    )
