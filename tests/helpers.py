"""Scenario builders and the acceptance-result ledger shared by tests."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from marketcells import (
    Box,
    Company,
    ConvexPolygon,
    MarketPartition,
    NeighborEdge,
    PriceVector,
    Scenario,
    load_scenario,
    solve_partition,
    wipeout_threshold,
)
from marketcells.areas import (
    _TIE_RTOL,
    _bisectors,
    _boundary_matrix,
    _singular_message,
    area_jacobian,
    area_tolerance,
    line_thresholds,
)
from marketcells.errors import (
    MarketCellsError,
    NoStableSurvivorSet,
    SingularSystem,
)
from marketcells.geometry import EPS_GEOM, clip_cell, loop_area

DEMOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

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


def brand_triple(beta: float) -> Scenario:
    """The demo ``brand_triple`` market at brand weight ``beta``."""
    return load_scenario((DEMOS / "brand_triple.json").read_text()).with_beta(beta)


def threshold_tie_market(beta: float) -> Scenario:
    """Five companies on a line, frozen ends, where the brand threshold
    evicts company 2 and its price ties it at the boundary of companies 1
    and 3: both survivors have it as their potential competitor."""
    positions = [0.0, 1.0, 1.2, 2.2, 3.2]
    prices = [1.0, 1.1, 3.0, 1.2, 1.0]
    scn = line_scenario(positions, prices, beta=beta, q=1, price_upper=6.0, margin=1.0)
    part = solve_partition(scn, PriceVector.from_scenario(scn))
    # company 2's elimination price: its field meets company 1's there
    b = part.cells[1].hi
    own = prices[1] - beta * part.areas[1] + (b - positions[1]) ** 2
    prices[2] = own - (b - positions[2]) ** 2
    return line_scenario(positions, prices, beta=beta, q=1, price_upper=6.0, margin=1.0)


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


def jittered_lattice_2d(rng: np.random.Generator, side: int) -> Scenario:
    """``side``-by-``side`` lattice, positions jittered by up to 0.2, prices
    in [0.8, 1.2], the boundary ring frozen; draws as the benchmark's
    ``jittered_lattice`` does, so one seed gives the same market."""
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


def ring_market(rng: np.random.Generator, n_focal: int = 2) -> Scenario:
    """``n_focal`` free companies inside a frozen ring of eight; draws as
    the benchmark's ``ring_market`` does, so one seed gives the same
    market."""
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


def random_scenario(rng: np.random.Generator, kind: str) -> Scenario:
    if kind == "line":
        return random_line_scenario(rng, q=0)
    if kind == "line_q1":
        return random_line_scenario(rng, q=1)
    if kind == "plane":
        return random_plane_scenario(rng)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# Reference line solve
# ---------------------------------------------------------------------------
# The line solve as it stood before it tracked the piece of the own price
# it holds on, copied verbatim: one price at a time, one right-hand side
# per boundary solve.  The parametric solve must reproduce it.


def singular_boundaries(A: np.ndarray) -> bool:
    """The reference solve's singularity test: the SVD condition number."""
    return bool(np.linalg.cond(A) > 1e12)


def _line_boundaries(
    x: np.ndarray, p: np.ndarray, beta: float, lo: float, hi: float
) -> np.ndarray:
    """Interior boundaries of consecutive active companies.

    Solves ``2 d_k R_k = p_{k+1} - p_k + x_{k+1}^2 - x_k^2 + beta (S_k -
    S_{k+1})`` with the window closing the outermost cells.  For
    ``beta = 0`` the system is diagonal.
    """
    d = np.diff(x)
    c = np.diff(p) + np.diff(x * x)
    if beta == 0.0:
        return c / (2.0 * d)
    A = _boundary_matrix(d, beta)
    rhs = c.copy()
    rhs[0] -= beta * lo
    rhs[-1] -= beta * hi
    if singular_boundaries(A):
        raise SingularSystem(_singular_message(x, beta))
    try:
        r = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(_singular_message(x, beta)) from exc
    scale = max(1.0, float(np.abs(rhs).max()))
    if not np.all(np.isfinite(r)) or np.max(np.abs(A @ r - rhs)) > 1e-6 * scale:
        raise SingularSystem(_singular_message(x, beta))
    return r


def _feedback_loop(
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
    candidates: list[int],
    lo: float,
    hi: float,
    eps_area: float,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Survivor elimination loop on a line.

    Returns ``(active, bounds, areas)`` where ``active`` indexes into the
    sorted input arrays, ``bounds`` has one more entry than ``active``
    (window edges included) and ``areas`` aligns with ``active``.
    Elimination removes the most negative solved area first, then the
    worst brand-threshold violator; removed companies never re-enter
    within one solve.
    """
    active = list(candidates)
    for _ in range(len(x) + 1):
        xs, ps = x[active], p[active]
        if len(active) == 1:
            bounds = np.array([lo, hi])
        else:
            r = _line_boundaries(xs, ps, beta, lo, hi)
            bounds = np.concatenate([[lo], r, [hi]])
        areas = np.diff(bounds)
        if len(active) > 1 and np.min(areas) <= eps_area:
            del active[int(np.argmin(areas))]
            continue
        if beta > 0.0 and len(active) > 1:
            thresholds = line_thresholds(xs)
            if float(np.min(thresholds)) <= beta:
                del active[int(np.argmin(thresholds))]
                continue
        return active, bounds, areas
    raise NoStableSurvivorSet("survivor elimination exceeded its removal budget")


def _invasion(
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
    active: list[int],
    bounds: np.ndarray,
    areas: np.ndarray,
    eps_price: float,
) -> bool:
    """Can some eliminated company undercut the solved state anywhere?

    Aggregate-price fields share one curvature, so the gap between an
    outsider's field and the survivors' lower envelope is piecewise
    linear; checking it at the cell boundaries (window edges included)
    is exhaustive.  ``p``, ``bounds``, ``areas`` and ``eps_price`` may carry
    a leading axis of price rows; the answer then has one flag per row.
    """
    out = [k for k in range(len(x)) if k not in active]
    if not out:
        return eps_price < 0.0  # never: one False per row
    w = p[..., active] - beta * areas
    envelope = (w[..., :, None] + (bounds[..., None, :] - x[active][:, None]) ** 2).min(-2)
    field = p[..., out, None] + (bounds[..., None, :] - x[out][:, None]) ** 2
    return (field - envelope[..., None, :]).min((-2, -1)) < -eps_price


def _solve_line(
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
    lo: float,
    hi: float,
    eps_area: float,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Full 1D solve: candidate selection, feedback solve, validation.

    The physically meaningful state is the one the market grows into
    from the brand-free split, which is also where the grid oracle's
    damped iteration starts.  So: seed candidates with the brand-free
    envelope survivors, run the linear-system elimination loop, and
    accept the result only if no eliminated company could undercut it.
    When strong feedback sends the linear path to an inconsistent state,
    fall back to a damped fixed point of the analytic envelope map and
    polish its survivor set with the exact linear solve.
    """
    candidates = list(range(len(x)))
    if beta == 0.0:
        return _feedback_loop(x, p, 0.0, candidates, lo, hi, eps_area)

    eps_price = 1e-9 * max(1.0, float(np.abs(p).max()), (hi - lo) ** 2)
    base_active, _, base_areas = _feedback_loop(x, p, 0.0, candidates, lo, hi, eps_area)
    active, bounds, areas = _feedback_loop(x, p, beta, base_active, lo, hi, eps_area)
    if not _invasion(x, p, beta, active, bounds, areas, eps_price):
        return active, bounds, areas

    # Damped fixed point of S -> envelope_areas(p - beta S), full roster so
    # eliminated companies may re-enter while the state evolves.
    s = np.zeros(len(x))
    s[base_active] = base_areas
    for _ in range(10_000):
        env_active, _, env_areas = _feedback_loop(
            x, p - beta * s, 0.0, list(range(len(x))), lo, hi, eps_area
        )
        proposal = np.zeros(len(x))
        proposal[env_active] = env_areas
        step = float(np.max(np.abs(proposal - s)))
        s = 0.5 * s + 0.5 * proposal
        if 0.5 * step < eps_area:
            break
    else:
        raise NoStableSurvivorSet(
            "damped area iteration found no stable survivor set"
        )
    final_candidates = [k for k in range(len(x)) if s[k] > eps_area]
    active, bounds, areas = _feedback_loop(
        x, p, beta, final_candidates, lo, hi, eps_area
    )
    if _invasion(x, p, beta, active, bounds, areas, eps_price):
        raise NoStableSurvivorSet(
            "no ownership-consistent survivor set found"
        )
    return active, bounds, areas


reference_solve_line = _solve_line


# ---------------------------------------------------------------------------
# Pieces of a profit curve
# ---------------------------------------------------------------------------


def neighbors_at(scenario: Scenario, prices: PriceVector, cid: int, price: float):
    """Neighbor set of ``cid`` when it alone moves to ``price``, ``None``
    without a market, built without the area module's piece kernel: in
    the plane the companies whose bisectors carry an edge of the one-cell
    clip (:func:`reference_edges`), on a line the flanking survivors of
    :func:`reference_solve_line`."""
    values = prices.with_price(scenario, cid, price).as_array()
    k = scenario.index_of[cid]
    if scenario.dimension == 2:
        verts, plane_ids, normals, offsets = one_cell(scenario, values, k)
        if len(verts) < 3:
            return None
        tie_tol = _TIE_RTOL * max(1.0, scenario.price_upper)
        lengths, _ = reference_edges(verts, normals, offsets, plane_ids, tie_tol)
        return frozenset(scenario.ids[j] for j in lengths)
    order = np.argsort(scenario.positions[:, 0], kind="stable")
    active, _, _ = reference_solve_line(
        scenario.positions[order, 0], values[order],
        scenario.beta if scenario.q == 1 else 0.0,
        scenario.window.lo[0], scenario.window.hi[0], area_tolerance(scenario),
    )
    survivors = [int(order[a]) for a in active]
    if k not in survivors:
        return None
    s = survivors.index(k)
    return frozenset(
        scenario.ids[survivors[t]] for t in (s - 1, s + 1) if 0 <= t < len(survivors)
    )


def piece_edges(
    scenario: Scenario, prices: PriceVector, cid: int, samples: int = 512
) -> list[float]:
    """Prices where the neighbor set of ``cid`` changes as it alone moves:
    a ``samples``-point scan of ``[0, price_upper]``, each change bisected
    to ``1e-10 x price_upper``.  One edge per changed scan interval."""
    upper = scenario.price_upper
    grid = np.linspace(0.0, upper, samples)
    sets = [neighbors_at(scenario, prices, cid, float(p)) for p in grid]
    edges = []
    for k in np.flatnonzero([a != b for a, b in zip(sets[:-1], sets[1:])]).tolist():
        lo, hi = float(grid[k]), float(grid[k + 1])
        while hi - lo > 1e-10 * upper:
            mid = 0.5 * (lo + hi)
            if neighbors_at(scenario, prices, cid, mid) == sets[k]:
                lo = mid
            else:
                hi = mid
        edges.append(0.5 * (lo + hi))
    return edges


# ---------------------------------------------------------------------------
# Per-company reference partition
# ---------------------------------------------------------------------------


def one_cell(scenario: Scenario, weights: np.ndarray, k: int):
    """Company ``k``'s cell by the scalar ``clip_cell``, cut by all its
    bisectors in cut order, with their companies, normals and offsets."""
    plane_ids, normals, offsets, dists, _, _ = _bisectors(
        scenario.positions, weights, np.array([k])
    )
    verts = clip_cell(scenario.positions[k], normals[0], offsets[0], dists[0], scenario.window)
    return verts, plane_ids[0], normals[0], offsets[0]


def reference_edges(verts, normals, offsets, plane_ids, tie_tol):
    """Border lengths and vertex-only ties of one cell, edge by edge: an
    edge belongs to the bisector tight (within ``tie_tol``) at both its
    ends, the one with the smaller gap sum when several are."""
    gaps = offsets[None, :] - verts @ normals.T
    tight = gaps <= tie_tol
    m = len(verts)
    lengths: dict[int, float] = {}
    for k in range(m):
        k2 = (k + 1) % m
        both = np.flatnonzero(tight[k] & tight[k2])
        if len(both) == 0:
            continue
        j = int(plane_ids[both[int(np.argmin(gaps[k, both] + gaps[k2, both]))]])
        lengths[j] = lengths.get(j, 0.0) + float(np.hypot(*(verts[k2] - verts[k])))
    ties = {int(plane_ids[t]) for t in np.flatnonzero(tight.any(axis=0))}
    return lengths, ties - set(lengths)


def reference_partition_2d(scenario: Scenario, prices: PriceVector) -> MarketPartition:
    """The plane partition clipped one company at a time with the scalar
    ``clip_cell``, each cell matched against all its bisectors: the
    reference the batched partition must reproduce (no window check)."""
    n = len(scenario.companies)
    ids = scenario.ids
    weights = prices.as_array()
    eps_area = area_tolerance(scenario)
    tie_tol = _TIE_RTOL * max(1.0, scenario.price_upper)
    loops, areas_by_index = [], np.zeros(n)
    border: dict[tuple[int, int], float] = {}
    ties_by_index: dict[int, set[int]] = {k: set() for k in range(n)}
    for k in range(n):
        verts, plane_ids, normals, offsets = one_cell(scenario, weights, k)
        loops.append(verts)
        if len(verts) >= 3:
            areas_by_index[k] = loop_area(verts)
        if areas_by_index[k] <= eps_area:
            continue
        lengths, ties_by_index[k] = reference_edges(verts, normals, offsets, plane_ids, tie_tol)
        for j, seg in lengths.items():
            key = (min(k, j), max(k, j))
            if key not in border or k < j:
                border[key] = seg
    surviving = areas_by_index > eps_area
    neighbors: dict[int, list[NeighborEdge]] = {cid: [] for cid in ids}
    potential: dict[int, set[int]] = {cid: set() for cid in ids}

    def distance(a, b):
        return float(np.linalg.norm(scenario.positions[a] - scenario.positions[b]))

    for (a, b), seg in sorted(border.items()):
        if surviving[a] and surviving[b]:
            flag = seg <= EPS_GEOM * max(1.0, scenario.window.diameter)
            neighbors[ids[a]].append(NeighborEdge(ids[b], seg, distance(a, b), flag))
            neighbors[ids[b]].append(NeighborEdge(ids[a], seg, distance(a, b), flag))
            if flag:
                potential[ids[a]].add(ids[b])
                potential[ids[b]].add(ids[a])
        elif surviving[a] != surviving[b]:
            owner, ghost = (a, b) if surviving[a] else (b, a)
            potential[ids[owner]].add(ids[ghost])
    corners = set()
    for k in range(n):
        for j in ties_by_index[k]:
            if surviving[k] and surviving[j]:
                corners.add((min(k, j), max(k, j)))
            elif surviving[k]:
                potential[ids[k]].add(ids[j])
    for a, b in sorted(corners - set(border)):
        neighbors[ids[a]].append(NeighborEdge(ids[b], 0.0, distance(a, b), True))
        neighbors[ids[b]].append(NeighborEdge(ids[a], 0.0, distance(a, b), True))
        potential[ids[a]].add(ids[b])
        potential[ids[b]].add(ids[a])
    return MarketPartition(
        dimension=2,
        cells={
            ids[k]: ConvexPolygon(loops[k]) if surviving[k] else None for k in range(n)
        },
        areas={ids[k]: float(areas_by_index[k]) if surviving[k] else 0.0 for k in range(n)},
        neighbors={cid: tuple(v) for cid, v in neighbors.items()},
        survivors=frozenset(ids[k] for k in range(n) if surviving[k]),
        potential_competitors={cid: frozenset(s) for cid, s in potential.items()},
    )


def assert_same_partition(part: MarketPartition, ref: MarketPartition, scale: float) -> None:
    """Same survivors, neighbor ids, flags and potential competitors; areas,
    border lengths and vertices within ``1e-12 x scale`` (to the bit at
    ``scale = 0``)."""
    tol = 1e-12 * scale
    assert part.survivors == ref.survivors
    assert part.potential_competitors == ref.potential_competitors
    for cid, cell in ref.cells.items():
        assert abs(part.areas[cid] - ref.areas[cid]) <= tol, cid
        if cell is None:
            assert part.cells[cid] is None, cid
            continue
        got = part.cells[cid].vertices
        assert got.shape == cell.vertices.shape, cid
        assert np.max(np.abs(got - cell.vertices)) <= tol, cid
    for cid, edges in ref.neighbors.items():
        got = part.neighbors[cid]
        assert [(e.company_id, e.potential_competitor) for e in got] == [
            (e.company_id, e.potential_competitor) for e in edges
        ], cid
        for e, f in zip(got, edges):
            assert abs(e.border_length - f.border_length) <= tol, cid
            assert e.distance == f.distance, cid


def plane_scenario(
    positions, prices, half: float = 2.0, price_upper: float = 10.0
) -> Scenario:
    """Free companies at ``positions`` with ``prices`` in the window
    ``[-half, half]^2``."""
    companies = tuple(
        Company(k, (float(x), float(y)), float(p), False)
        for k, ((x, y), p) in enumerate(zip(positions, prices))
    )
    return Scenario(
        dimension=2,
        beta=0.0,
        q=0,
        companies=companies,
        focal_box_half=half,
        price_upper=price_upper,
        window=Box((-half, -half), (half, half)),
    )


def assert_moved_is_the_partition(
    scn: Scenario, moved: MarketPartition, weights: np.ndarray, rtol: float = 1e-13
) -> None:
    """``moved``, a partition from ``areas.moved_partition``, is the fresh
    ``solve_partition`` at ``weights``: the same survivors, edge owners up
    to loop rotation and neighbor sets, no potential competitor, and areas,
    ``gamma`` and both ``area_jacobian`` matrices within ``rtol`` (the
    matrices relative to their largest entry)."""
    fresh = solve_partition(scn, PriceVector(tuple(weights)), check_window=False)
    assert moved.survivors == fresh.survivors
    assert not any(moved.potential_competitors.values())
    assert not any(fresh.potential_competitors.values())
    for cid in fresh.survivors:
        k = scn.index_of[cid]
        owners, got = (part.edges.owner[part.edges.cell == k] for part in (fresh, moved))
        assert len(got) == len(owners), cid
        assert any(np.array_equal(np.roll(got, s), owners) for s in range(len(got))), cid
        assert {e.company_id for e in moved.neighbors[cid]} == {
            e.company_id for e in fresh.neighbors[cid]
        }, cid
        assert abs(moved.areas[cid] - fresh.areas[cid]) <= rtol * fresh.areas[cid], cid
        assert abs(moved.gamma(cid) - fresh.gamma(cid)) <= rtol * fresh.gamma(cid), cid
    for got, want in zip(area_jacobian(scn, moved), area_jacobian(scn, fresh)):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))
