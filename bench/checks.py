"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
The references are closed forms computed here from positions and prices,
properties every answer must have, or the brute-force grid oracle
(``marketcells.oracle``), which shares no code with the analytic solvers.
No check compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

from marketcells import GridSpec, PriceVector, Scenario, grid_partition, solve_areas_q0

SCAN_SAMPLES = 10_000
AREA_RTOL = 1e-9
LATTICE_PRICE_TOL = 1e-5
DEVIATION_RTOL = 1e-6
UNIMODAL_RTOL = 1e-9


def converged(label: str, report) -> list[str]:
    return [] if report.converged else [f"{label}: equilibrium did not converge"]


def lattice_prices(label: str, scenario: Scenario, prices: PriceVector) -> list[str]:
    """Interior lattice prices from the closed form ``P = S / gamma``.

    Each interior cell is the unit square (area 1) with four neighbors at
    distance 1 sharing unit borders, so ``gamma = 4 / (2 * 1) = 2`` and
    ``P = 1/2``.
    """
    out = []
    for c in scenario.companies:
        if c.frozen:
            continue
        price = prices.price_of(scenario, c.id)
        if abs(price - 0.5) > LATTICE_PRICE_TOL:
            out.append(f"{label}: company {c.id} price {price!r} is not 1/2")
    return out


def grid_step(scenario: Scenario) -> float:
    return 1e-3 * max(scenario.window.edges)


def oracle_areas(
    label: str, scenario: Scenario, prices: PriceVector, areas: dict[int, float]
) -> list[str]:
    """Reported areas against the grid oracle at the same prices.

    The bound is that of the oracle-equivalence acceptance criterion:
    ``max(1% of the area, 2 h * perimeter)`` for a 2D cell and ``4 h`` on
    a line (its perimeter counts as 2), with ``h`` the grid step.  Under
    brand feedback the grid's own quantization error is amplified by the
    feedback, so the line bound is multiplied by ``feedback_gain``.  On a
    line every company is compared, so a hidden company that the grid
    gives market fails too.
    """
    h = grid_step(scenario)
    _, grid_areas = grid_partition(scenario, prices, GridSpec(h, scenario.window))
    out = []
    for cid, allowed in oracle_bounds(scenario, prices, areas).items():
        if abs(areas[cid] - grid_areas[cid]) > allowed:
            out.append(
                f"{label}: company {cid} area {areas[cid]!r} vs grid {grid_areas[cid]!r}"
            )
    return out


def oracle_bounds(
    scenario: Scenario, prices: PriceVector, areas: dict[int, float]
) -> dict[int, float]:
    """The bound of ``oracle_areas`` for each company it compares: every
    company on a line, the companies holding market in the plane."""
    h = grid_step(scenario)
    if scenario.dimension == 1:
        allowed = 4.0 * h * feedback_gain(scenario, areas)
        return {cid: allowed for cid in areas}
    cells = solve_areas_q0(scenario, prices, check_window=False).cells
    eps = 1e-9 * scenario.window.measure
    return {
        cid: max(0.01 * area, 2.0 * h * cells[cid].perimeter)
        for cid, area in areas.items()
        if area > eps
    }


def feedback_gain(scenario: Scenario, areas: dict[int, float]) -> float:
    """How much the brand feedback amplifies an error in a line's areas.

    The survivors' interior boundaries ``R`` solve ``A R = b`` with
    ``A = diag(2 d - 2 beta) + beta * (sub- and super-diagonal)``, where
    ``d`` are the survivor spacings; at ``beta = 0`` it is ``diag(2 d)``.
    An area error moves ``b`` like a boundary error scaled by ``2 d``, so
    the gain is the infinity norm of ``A^-1 diag(2 d)``: 1 without
    feedback, large near a degenerate survivor configuration.
    """
    if scenario.q == 0 or scenario.beta == 0.0:
        return 1.0
    eps = 1e-9 * scenario.window.measure
    x = np.sort([scenario.company(cid).position[0] for cid, a in areas.items() if a > eps])
    d = np.diff(x)
    if len(d) == 0:
        return 1.0
    beta = scenario.beta
    a = np.diag(2.0 * d - 2.0 * beta) + beta * (np.eye(len(d), k=1) + np.eye(len(d), k=-1))
    gain = np.abs(np.linalg.solve(a, np.diag(2.0 * d))).sum(axis=1).max()
    return max(1.0, float(gain))


def no_profitable_deviation(label: str, audit: dict) -> list[str]:
    """A dense price scan finds no deviation gaining over 1e-6 relative."""
    out = []
    for cid, outcome in audit.items():
        rel = outcome.improvement / max(outcome.current_profit, 1e-12)
        if rel > DEVIATION_RTOL:
            out.append(f"{label}: company {cid} gains {rel:.3e} by deviating")
    return out


def wipeout_threshold(d_left: float | None, d_right: float | None) -> float:
    """``2 d_L d_R / (d_L + d_R)``; one-sided limit ``2 d``."""
    if d_left is None and d_right is None:
        return math.inf
    if d_left is None:
        return 2.0 * d_right
    if d_right is None:
        return 2.0 * d_left
    return 2.0 * d_left * d_right / (d_left + d_right)


def _threshold_against(scenario: Scenario, active, cid: int) -> float:
    x0 = scenario.company(cid).position[0]
    offsets = [x0 - scenario.company(o).position[0] for o in active if o != cid]
    d_left = min((d for d in offsets if d > 0), default=None)
    d_right = min((-d for d in offsets if d < 0), default=None)
    return wipeout_threshold(d_left, d_right)


def activation(label: str, scenario: Scenario, scheme) -> list[str]:
    """No active optimizer sits at or above its threshold against its
    active flanks, and every hidden company does."""
    out = []
    active = set(scheme.activated)
    for cid in active:
        if scenario.company(cid).frozen:
            continue
        if scenario.beta >= _threshold_against(scenario, active, cid):
            out.append(f"{label}: active company {cid} violates its wipe-out threshold")
    for cid in scheme.hidden:
        if scenario.beta < _threshold_against(scenario, active, cid):
            out.append(f"{label}: hidden company {cid} could stand the market")
    return out


def area_sum(label: str, scenario: Scenario, areas) -> list[str]:
    total = math.fsum(areas)
    measure = scenario.window.measure
    if abs(total - measure) > AREA_RTOL * measure:
        return [f"{label}: areas sum to {total!r}, window measure is {measure!r}"]
    return []


def unimodality_defect(profits: np.ndarray) -> float:
    """Largest rise after the peak or fall before it."""
    peak = int(np.argmax(profits))
    before = np.diff(profits[: peak + 1])
    after = np.diff(profits[peak:])
    return max(float(-before.min(initial=0.0)), float(after.max(initial=0.0)))


def unimodal(label: str, profits: np.ndarray) -> list[str]:
    """The curve rises to its peak and falls after it, within 1e-9 of the
    peak (the quasiconcavity criterion)."""
    defect = unimodality_defect(profits) / max(float(profits.max()), 1e-12)
    return [f"{label}: unimodality defect {defect:.3e}"] if defect > UNIMODAL_RTOL else []


def profit_curve(
    label: str,
    scenario: Scenario,
    grid: np.ndarray,
    profits: np.ndarray,
    best_profit: float,
    audit_entry,
    oracle_index: int,
    oracle_profit: float,
    oracle_allowed: float,
) -> list[str]:
    """One deviation audit's curve: its sampling, its maximum and one
    sample against the grid oracle (its shape is ``unimodal``'s).

    ``oracle_profit`` is price times grid-oracle area at sample
    ``oracle_index``; ``oracle_allowed`` the matching profit bound.
    """
    expected = np.linspace(0.0, scenario.price_upper, SCAN_SAMPLES)
    if len(grid) != SCAN_SAMPLES or len(profits) != SCAN_SAMPLES:
        return [f"{label}: curve has {len(profits)} samples, expected {SCAN_SAMPLES}"]
    if not np.array_equal(grid, expected):
        return [f"{label}: curve prices are not the even {SCAN_SAMPLES}-point grid"]
    out = []
    top = float(profits.max())
    if top > best_profit * (1.0 + DEVIATION_RTOL) + 1e-15:
        out.append(f"{label}: scan maximum {top!r} beats best response {best_profit!r}")
    k = int(np.argmax(profits))
    if audit_entry.best_price != float(grid[k]):
        out.append(f"{label}: audit best price {audit_entry.best_price!r} is not the scan argmax")
    gain = max(0.0, top - audit_entry.current_profit)
    if abs(audit_entry.improvement - gain) > 1e-12 * max(1.0, top):
        out.append(f"{label}: audit improvement {audit_entry.improvement!r} vs scan {gain!r}")
    if abs(float(profits[oracle_index]) - oracle_profit) > oracle_allowed:
        out.append(
            f"{label}: profit {float(profits[oracle_index])!r} at sample {oracle_index} "
            f"vs grid oracle {oracle_profit!r}"
        )
    return out


def _convex(vertices: list) -> bool:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or len(v) < 3:
        return False
    e = np.roll(v, -1, axis=0) - v
    nxt = np.roll(e, -1, axis=0)
    cross = e[:, 0] * nxt[:, 1] - e[:, 1] * nxt[:, 0]
    scale = max(1.0, float(np.abs(e).max()) ** 2)
    return bool(np.all(cross >= -1e-9 * scale)) and float(cross.sum()) > 0.0


def cells_document(label: str, scenario: Scenario, doc: dict) -> list[str]:
    """A ``marketcells cells`` document: coverage, convexity, neighbor
    symmetry, and on a line the closed-form boundaries."""
    ids = {str(c.id) for c in scenario.companies}
    if set(doc["areas"]) != ids or set(doc["cells"]) != ids:
        return [f"{label}: document does not name every company exactly once"]
    out = area_sum(label, scenario, doc["areas"].values())
    for cid, edges in doc["neighbors"].items():
        for e in edges:
            back = [
                f["border_length"]
                for f in doc["neighbors"].get(str(e["id"]), [])
                if str(f["id"]) == cid
            ]
            if back != [e["border_length"]]:
                out.append(f"{label}: neighbor edge {cid}-{e['id']} is not symmetric")
    if scenario.dimension == 2:
        for cid, cell in doc["cells"].items():
            if cell is not None and not _convex(cell):
                out.append(f"{label}: cell {cid} is not convex")
        return out
    survivors = sorted(
        (scenario.company(int(cid)).position[0], int(cid))
        for cid, cell in doc["cells"].items()
        if cell is not None
    )
    for (xa, a), (xb, b) in zip(survivors, survivors[1:]):
        pa = scenario.company(a).price
        pb = scenario.company(b).price
        boundary = (pb - pa + xb * xb - xa * xa) / (2.0 * (xb - xa))
        tol = AREA_RTOL * max(1.0, abs(boundary))
        hi_a, lo_b = doc["cells"][str(a)][1], doc["cells"][str(b)][0]
        if abs(hi_a - boundary) > tol or abs(lo_b - boundary) > tol:
            out.append(f"{label}: boundary {a}|{b} at {hi_a!r}, closed form {boundary!r}")
    return out


def svg_document(label: str, scenario: Scenario, text: str) -> list[str]:
    """The SVG parses and carries a title naming every company."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return [f"{label}: SVG does not parse: {exc}"]
    titles = [el.text or "" for el in root.iter("{http://www.w3.org/2000/svg}title")]
    named = {t.split(":")[0] for t in titles}
    missing = [c.id for c in scenario.companies if f"company {c.id}" not in named]
    return [f"{label}: SVG names no company {missing[:5]}"] if missing else []
