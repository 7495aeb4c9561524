"""Market partition solvers.

Given a price vector, the market splits into convex cells of lowest
aggregate price.  With no brand feedback (``q = 0``) this is a plain
additively weighted diagram: each cell is an intersection of bisector
half-planes clipped to the window.  With linear brand feedback
(``q = 1``, 1D only) the areas appear inside the weights themselves, so
consecutive-boundary positions solve a small linear system, and
companies whose solved area is non-positive, or whose brand weight
exceeds the local wipe-out threshold ``2 d_L d_R / (d_L + d_R)``, are
eliminated one at a time until the survivor set is stable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryCompany,
    NoStableSurvivorSet,
    SingularSystem,
    WindowTooSmall,
)
from .geometry import (
    EPS_GEOM,
    ConvexPolygon,
    Interval,
    clip_cell,
    clip_cells,
    loop_area,
    loop_areas,
    successors,
    window_contacts,
)
from .model import Box, PriceVector, Scenario

__all__ = [
    "EdgeTable",
    "MarketPartition",
    "NeighborEdge",
    "WipeoutDiagnostics",
    "area_jacobian",
    "areas_for_prices",
    "compute_wipeout_diagnostics",
    "moved_partition",
    "solve_areas_q0",
    "solve_areas_q1_1d",
    "solve_partition",
    "wipeout_threshold",
]

# Price-gap tolerance (relative to the price scale) for detecting exact
# aggregate-price ties, which is what potential competitors are.
_TIE_RTOL = 1e-8


def _debug_logger(name: str):
    """The logger ``name`` when it has debug output on, else ``None``.

    Without ``logging`` imported nothing can have switched debug output
    on, so the module is not imported here: that keeps its import time
    and memory off every run that does not log.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(logging.DEBUG) else None


@dataclass(frozen=True)
class NeighborEdge:
    """One entry of a company's neighbor list."""

    company_id: int
    border_length: float
    distance: float
    potential_competitor: bool


@dataclass
class MarketPartition:
    """Cells, areas and the neighbor graph for one price vector.

    ``cells`` maps each company to an :class:`Interval` (1D), a
    :class:`ConvexPolygon` (2D) or ``None`` when the company holds no
    market.  1D border lengths are recorded as ``1.0`` so that the
    competition-intensity sum ``l / (2 d)`` reads the same in both
    dimensions.  ``potential_competitors[i]`` collects zero-area
    companies tying somewhere on ``i``'s closed cell as well as
    neighbors whose shared border has zero length.  In 2D, ``edges`` is
    the :class:`EdgeTable` of the surviving cells, from which the cells'
    vertices, border lengths and neighbors are read; ``None`` on a line.
    """

    dimension: int
    cells: dict[int, Interval | ConvexPolygon | None]
    areas: dict[int, float]
    neighbors: dict[int, tuple[NeighborEdge, ...]]
    survivors: frozenset[int]
    potential_competitors: dict[int, frozenset[int]]
    edges: EdgeTable | None = None

    def gamma(self, company_id: int) -> float | None:
        """Competition intensity: sum of border length over twice the
        center distance, across all neighbors."""
        edges = self.neighbors.get(company_id, ())
        if not edges:
            return None
        return sum(e.border_length / (2.0 * e.distance) for e in edges)

    def has_potential_competitor(self, company_id: int) -> bool:
        return bool(self.potential_competitors.get(company_id))


@dataclass
class WipeoutDiagnostics:
    """Per-company wipe-out indicators from the brand-feedback solve.

    ``thresholds`` holds the harmonic-mean bound on the brand weight,
    ``psi`` the survival margin consistent with the solved partition
    (positive for every survivor), and ``entry_points`` the boundary the
    two flanking survivors would share if the company were absent.
    Companies without surviving flanks on both sides are omitted.
    """

    thresholds: dict[int, float]
    psi: dict[int, float]
    entry_points: dict[int, float]

    def to_dict(self) -> dict:
        """JSON-ready view; company ids become string keys."""
        return {
            name: {str(k): v for k, v in sorted(getattr(self, name).items())}
            for name in ("thresholds", "psi", "entry_points")
        }


def area_tolerance(scenario: Scenario) -> float:
    """Areas at or below this count as zero (non-surviving)."""
    return 1e-9 * scenario.window.measure


def wipeout_threshold(d_left: float | None, d_right: float | None) -> float:
    """Brand-weight bound ``2 d_L d_R / (d_L + d_R)`` with one-sided and
    isolated cases taken as the limits ``2 d`` and infinity."""
    if d_left is None and d_right is None:
        return math.inf
    if d_left is None:
        return 2.0 * d_right
    if d_right is None:
        return 2.0 * d_left
    return 2.0 * d_left * d_right / (d_left + d_right)


# ---------------------------------------------------------------------------
# 1D core
# ---------------------------------------------------------------------------


def line_thresholds(x: np.ndarray) -> np.ndarray:
    """Wipe-out threshold per active company given sorted positions."""
    m = len(x)
    out = np.full(m, math.inf)
    if m < 2:
        return out
    d = np.diff(x)
    for k in range(m):
        d_left = d[k - 1] if k > 0 else None
        d_right = d[k] if k < m - 1 else None
        out[k] = wipeout_threshold(d_left, d_right)
    return out


def _line_boundaries(
    x: np.ndarray, p: np.ndarray, beta: float, lo: float, hi: float, slot: int | None
) -> np.ndarray:
    """Interior boundaries of consecutive active companies, and their
    change per unit price of the one at ``slot`` (``None``: none moves),
    as two columns.

    Solves ``2 d_k R_k = p_{k+1} - p_k + x_{k+1}^2 - x_k^2 + beta (S_k -
    S_{k+1})`` with the window closing the outermost cells.  The price at
    ``slot`` enters the right-hand sides of the two boundaries closing its
    cell, ``+1`` on the left one and ``-1`` on the right one, which is the
    second column.  For ``beta = 0`` the system is diagonal.
    """
    d = x[1:] - x[:-1]
    xx = x * x
    rhs = np.zeros((len(d), 2))
    rhs[:, 0] = p[1:] - p[:-1] + (xx[1:] - xx[:-1])
    if slot is not None:
        if slot > 0:
            rhs[slot - 1, 1] = 1.0
        if slot < len(d):
            rhs[slot, 1] = -1.0
    if beta == 0.0:
        return rhs / (2.0 * d)[:, None]
    rhs[0, 0] -= beta * lo
    rhs[-1, 0] -= beta * hi
    A = _boundary_matrix(d, beta)
    if singular_boundaries(A):
        raise SingularSystem(_singular_message(x, beta))
    try:
        r = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(_singular_message(x, beta)) from exc
    scale = max(1.0, float(np.abs(rhs[:, 0]).max()))
    if not np.all(np.isfinite(r)) or np.max(np.abs(A @ r[:, 0] - rhs[:, 0])) > 1e-6 * scale:
        raise SingularSystem(_singular_message(x, beta))
    return r


def _boundary_matrix(d: np.ndarray, beta: float) -> np.ndarray:
    """Matrix of the brand-feedback boundary system for spacings ``d``."""
    n = len(d)
    A = np.zeros((n, n))
    np.fill_diagonal(A, 2.0 * d - 2.0 * beta)
    k = np.arange(n - 1)
    A[k, k + 1] = beta
    A[k + 1, k] = beta
    return A


def singular_boundaries(A: np.ndarray) -> bool:
    """Whether the boundary system ``A`` is singular to working precision:
    its 2-norm condition number exceeds ``1e12``.

    ``A`` is symmetric, so that number is the ratio of its largest to its
    smallest eigenvalue magnitude; a zero eigenvalue counts as singular.
    A consistent rank-deficient system has a whole family of partitions;
    conditioning only explodes within rounding distance of exact
    degeneracy, so this trips nothing else.
    """
    size = np.abs(np.linalg.eigvalsh(A))
    return bool(size.min() == 0.0 or size.max() > 1e12 * size.min())


def _singular_message(x: np.ndarray, beta: float) -> str:
    thr = float(np.min(line_thresholds(x)))
    return (
        f"boundary system is singular at beta={beta:g}; the tightest "
        f"wipe-out threshold among active companies is {thr:g}"
    )


def _feedback_loop(
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
    candidates: list[int],
    lo: float,
    hi: float,
    eps_area: float,
    focal: int | None,
    margins: list[np.ndarray] | None,
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Survivor elimination loop on a line.

    Returns ``(active, bounds, areas)`` where ``active`` indexes into the
    sorted input arrays, ``bounds`` has one more row than ``active``
    (window edges included) and ``areas`` aligns with ``active``.  Both
    have two columns: the value, and its change per unit price of the
    company at ``focal`` (:func:`_line_boundaries`).
    Elimination removes the most negative solved area first, then the
    worst brand-threshold violator; removed companies never re-enter
    within one solve.  Each area decision goes to ``margins`` (unless
    ``None``) as rows ``(margin, rate)``: it holds while every ``margin +
    rate u`` stays non-negative, ``u`` the rise of the focal price.  The
    threshold decisions depend on no price.
    """
    active = list(candidates)
    for _ in range(len(x) + 1):
        bounds = np.zeros((len(active) + 1, 2))
        bounds[0, 0], bounds[-1, 0] = lo, hi
        if len(active) > 1:
            slot = active.index(focal) if focal in active else None
            bounds[1:-1] = _line_boundaries(x[active], p[active], beta, lo, hi, slot)
        areas = bounds[1:] - bounds[:-1]
        if len(active) > 1:
            j = int(np.argmin(areas[:, 0]))
            if areas[j, 0] <= eps_area:
                if margins is not None:
                    # j stays the smallest area, and at most eps_area
                    held = areas - areas[j]
                    held[j] = eps_area - areas[j, 0], -areas[j, 1]
                    margins.append(held)
                del active[j]
                continue
            if margins is not None:
                margins.append(areas - (eps_area, 0.0))
        if beta > 0.0 and len(active) > 1:
            thresholds = line_thresholds(x[active])
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
    focal: int | None,
    eps_price: float,
) -> tuple[bool, np.ndarray]:
    """Can some eliminated company undercut the solved state anywhere?

    Aggregate-price fields share one curvature, so the gap between an
    outsider's field and the survivors' lower envelope is piecewise
    linear; checking it at the cell boundaries (window edges included)
    is exhaustive.  Returns the answer and, as rows ``(gap, rate)``, each
    outsider's gap at each boundary against the survivor holding the
    envelope there, and its change per unit price of the company at
    ``focal``.  The difference of two fields is affine in the position,
    so that gap is affine in the focal price; the survivor's field never
    lies below the envelope, so the gap falls to any level no later than
    the true one.
    """
    out = np.array([k for k in range(len(x)) if k not in active], dtype=int)
    if not len(out):
        return False, np.zeros((0, 2))
    at = bounds[:, 0]
    xa, xo = x[active], x[out][:, None]
    fields = p[active, None] - beta * areas[:, :1] + (at - xa[:, None]) ** 2
    holder = np.argmin(fields, axis=0)
    gap = p[out, None] + (at - xo) ** 2 - fields[holder, np.arange(len(at))]
    own_rate = (np.array(active) == focal) - beta * areas[:, 1]
    rate = (out == focal)[:, None] - own_rate[holder] + 2.0 * (xa[holder] - xo) * bounds[:, 1]
    return float(gap.min()) < -eps_price, np.stack([gap, rate], axis=-1).reshape(-1, 2)


class _LinePiece(NamedTuple):
    """A line solve and the stretch of the focal price it holds on.

    ``active`` indexes the sorted input arrays, ``bounds`` has one more
    entry than ``active`` (window edges included), and ``areas`` and
    ``slopes`` align with ``active``: each area and its change per unit
    focal price with the survivor set fixed.  ``margins`` holds the
    solve's decisions as rows ``(margin, rate)`` (see
    :func:`_feedback_loop`); ``damped`` marks a solve settled by the damped
    fallback, whose piece is its own price alone.
    """

    active: list[int]
    bounds: np.ndarray
    areas: np.ndarray
    slopes: np.ndarray
    margins: list[np.ndarray]
    damped: bool = False

    @property
    def reach(self) -> float:
        """Largest rise ``u`` of the focal price over which every ``margin +
        rate u`` stays non-negative; 0 when a margin already is negative,
        and unbounded when the solve made no decision (a lone company)."""
        if self.damped:
            return 0.0
        if not sum(map(len, self.margins)):
            return math.inf
        m = np.concatenate(self.margins)
        if m[:, 0].min() < 0.0:
            return 0.0
        falling = m[m[:, 1] < 0.0]
        return float((falling[:, 0] / -falling[:, 1]).min()) if len(falling) else math.inf


def _solve_line(
    x: np.ndarray,
    p: np.ndarray,
    beta: float,
    lo: float,
    hi: float,
    eps_area: float,
    focal: int | None = None,
) -> _LinePiece:
    """Full 1D solve: candidate selection, feedback solve, validation, and
    the piece of the price of the company at ``focal`` that it holds on.

    The physically meaningful state is the one the market grows into
    from the brand-free split, which is also where the grid oracle's
    damped iteration starts.  So: seed candidates with the brand-free
    envelope survivors, run the linear-system elimination loop, and
    accept the result only if no eliminated company could undercut it.
    When strong feedback sends the linear path to an inconsistent state,
    fall back to a damped fixed point of the analytic envelope map and
    polish its survivor set with the exact linear solve.

    With the survivor set fixed the boundary system is linear, so every
    boundary, area and invasion gap is affine in the focal price, and the
    solve's decisions change only where one of them crosses zero: the
    piece ends at the first such price (:attr:`_LinePiece.reach`).
    ``eps_price`` only grows with the focal price, which every caller
    keeps non-negative, so the margins take it at the solved price.
    Without a focal company nothing moves and the piece is unbounded.
    """
    margins: list[np.ndarray] | None = None if focal is None else []
    base_active, bounds, areas = _feedback_loop(
        x, p, 0.0, list(range(len(x))), lo, hi, eps_area, focal, margins
    )
    if beta == 0.0:
        return _LinePiece(base_active, bounds[:, 0], areas[:, 0], areas[:, 1], margins or [])

    eps_price = 1e-9 * max(1.0, float(np.abs(p).max()), (hi - lo) ** 2)
    base_areas = areas[:, 0]
    active, bounds, areas = _feedback_loop(
        x, p, beta, base_active, lo, hi, eps_area, focal, margins
    )
    invaded, gaps = _invasion(x, p, beta, active, bounds, areas, focal, eps_price)
    if not invaded:
        if margins is not None:
            margins.append(gaps + (eps_price, 0.0))
        return _LinePiece(active, bounds[:, 0], areas[:, 0], areas[:, 1], margins or [])

    # Damped fixed point of S -> envelope_areas(p - beta S), full roster so
    # eliminated companies may re-enter while the state evolves.  Its
    # decisions are not tracked: the piece is its own price alone.
    s = np.zeros(len(x))
    s[base_active] = base_areas
    for _ in range(10_000):
        env_active, _, env_areas = _feedback_loop(
            x, p - beta * s, 0.0, list(range(len(x))), lo, hi, eps_area, None, None
        )
        proposal = np.zeros(len(x))
        proposal[env_active] = env_areas[:, 0]
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
        x, p, beta, final_candidates, lo, hi, eps_area, focal, None
    )
    if _invasion(x, p, beta, active, bounds, areas, focal, eps_price)[0]:
        raise NoStableSurvivorSet(
            "no ownership-consistent survivor set found"
        )
    return _LinePiece(active, bounds[:, 0], areas[:, 0], areas[:, 1], [], True)


def _partition_1d(
    scenario: Scenario,
    prices: PriceVector,
    beta: float,
    check_window: bool,
) -> MarketPartition:
    order, xs = line_layout(scenario)
    x = np.array(xs)
    all_ids = scenario.ids
    ids = [all_ids[k] for k in order]
    p = prices.as_array()[list(order)]
    lo, hi = scenario.window.lo[0], scenario.window.hi[0]
    eps_area = area_tolerance(scenario)

    active, bounds, areas_arr, *_ = _solve_line(x, p, beta, lo, hi, eps_area)

    cells: dict[int, Interval | ConvexPolygon | None] = {cid: None for cid in ids}
    areas: dict[int, float] = {cid: 0.0 for cid in ids}
    neighbors: dict[int, tuple[NeighborEdge, ...]] = {cid: () for cid in ids}
    potential: dict[int, set[int]] = {cid: set() for cid in ids}

    survivor_ids = [ids[k] for k in active]
    for slot, k in enumerate(active):
        cid = ids[k]
        cells[cid] = Interval(float(bounds[slot]), float(bounds[slot + 1]))
        areas[cid] = float(areas_arr[slot])

    for slot, k in enumerate(active):
        cid = ids[k]
        edges = []
        if slot > 0:
            left = active[slot - 1]
            edges.append(
                NeighborEdge(ids[left], 1.0, float(x[k] - x[left]), False)
            )
        if slot < len(active) - 1:
            right = active[slot + 1]
            edges.append(
                NeighborEdge(ids[right], 1.0, float(x[right] - x[k]), False)
            )
        neighbors[cid] = tuple(edges)

    # Zero-area companies tying a survivor's boundary price become its
    # potential competitors: one more price tick and they are real.
    tie_tol = _TIE_RTOL * max(1.0, scenario.price_upper)
    survived = np.zeros(len(ids), dtype=bool)
    survived[active] = True
    eliminated = np.flatnonzero(~survived)
    if len(eliminated):
        # Each survivor's two boundaries, window edges left out, against
        # every eliminated company's field there.  beta enters through
        # solved areas; eliminated companies hold none, so their brand
        # bonus vanishes (q = 1) or cancels (q = 0).
        slots = np.repeat(np.arange(len(active)), 2)
        b = np.column_stack([bounds[:-1], bounds[1:]]).ravel()
        inner = (b != lo) & (b != hi)
        slots, b = slots[inner], b[inner]
        own = p[active][slots] - beta * areas_arr[slots] + (b - x[active][slots]) ** 2
        step = _block_rows(max(1, len(b)))
        for start in range(0, len(eliminated), step):
            out = eliminated[start : start + step, None]
            other = p[out] + (b - x[out]) ** 2
            for e, s in zip(*np.nonzero(np.abs(other - own) <= tie_tol)):
                potential[survivor_ids[slots[s]]].add(ids[out[e, 0]])

    if check_window:
        for edge_slot in (0, len(active) - 1):
            cid = ids[active[edge_slot]]
            if not scenario.company(cid).frozen:
                raise WindowTooSmall(
                    f"non-frozen company {cid} owns a window-edge cell; "
                    "the window understates its true market"
                )

    return MarketPartition(
        dimension=1,
        cells=cells,
        areas=areas,
        neighbors=neighbors,
        survivors=frozenset(survivor_ids),
        potential_competitors={cid: frozenset(s) for cid, s in potential.items()},
    )


# ---------------------------------------------------------------------------
# 2D partition
# ---------------------------------------------------------------------------


def _edge_attribution(
    verts: np.ndarray,
    counts: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    plane_ids: np.ndarray,
    tie_tol: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Match the edges of padded loops to their generating bisectors.

    Row ``r`` is matched against its half-planes ``normals[r]``,
    ``offsets[r]`` of companies ``plane_ids[r]``.  An edge lies on a
    bisector when the price gap is within ``tie_tol`` at both endpoints;
    of several such (coincident bisectors) the one with the smallest gap
    sum wins, the lowest company index on a tie.  Returns ``(owners,
    ties)``: the company carrying each edge in loop order (``-1``: none, a
    window edge, and past a loop's end), and as rows ``(r, j)`` every
    company ``j`` tying only at isolated vertices of row ``r``'s loop
    (corner contacts or zero-area ties).
    """
    loop = np.arange(verts.shape[1]) < counts[:, None]
    # price gap of every half-plane at every vertex: (rows, width, planes)
    gaps = offsets[:, None, :] - verts @ normals.transpose(0, 2, 1)
    tight = loop[..., None] & (gaps <= tie_tol)
    both = tight & successors(tight, counts)
    sums = np.where(both, gaps + successors(gaps, counts), np.inf)
    first = both & (sums == sums.min(axis=2, keepdims=True))
    ranked = np.where(first, plane_ids[:, None, :], np.iinfo(plane_ids.dtype).max)
    column = np.where(both.any(axis=2), np.argmin(ranked, axis=2), -1)
    on_edge = np.zeros(tight.shape[::2], dtype=bool)
    carried = column >= 0
    on_edge[np.nonzero(carried)[0], column[carried]] = True
    owners = np.where(
        carried, np.take_along_axis(plane_ids, np.maximum(column, 0), axis=1), -1
    )
    rows, tied = np.nonzero(tight.any(axis=1) & ~on_edge)
    return owners, np.column_stack([rows, plane_ids[rows, tied]])


# Half-planes each row of a batched clip cuts with first: its nearest
# bisectors.  On jittered lattices an interior cell cuts with at most
# about 10, a cell reaching the window edge with up to about 24; the few
# rows that need more (0-2 per partition on 7x7 to 25x25) are cut again
# with every bisector.
_NEAREST = 24

# Rows solved together, at most: companies of one partition in a batched
# clip.
_BLOCK = 256

# Elements of the (rows x companies) arrays a batched clip block holds;
# each such array is 256 KB, so a block's working set stays near 1 MB.
_BLOCK_ELEMENTS = 1 << 15


class _NearestClip(NamedTuple):
    """Cells of a batch of rows, each the loop :func:`clip_cell` gives.

    ``verts`` and ``counts`` hold the padded loops (count ``0``: no cell)
    and ``area`` their areas.  ``owners`` and ``ties`` are what
    :func:`_edge_attribution` finds on the cells against all their
    bisectors.  ``reach`` and ``tie`` count the rows cut again with every
    bisector, by reason.
    """

    verts: np.ndarray
    counts: np.ndarray
    area: np.ndarray
    owners: np.ndarray
    ties: np.ndarray
    passes: int
    reach: int
    tie: int


def _block_rows(companies: int) -> int:
    """Rows per batched clip block for a market of ``companies``."""
    return max(1, min(_BLOCK, _BLOCK_ELEMENTS // companies))


def _bisectors(
    positions: np.ndarray, weights: np.ndarray, owners: np.ndarray, nearest: int | None = None
) -> tuple[np.ndarray, ...]:
    """Row ``r``: company ``k = owners[r]``'s bisectors in the partition at
    ``weights``, in cut order, its ``nearest`` nearest or all of them.

    Company ``j``'s half-plane ``a . x <= b`` holds where ``k``'s
    aggregate price is at most ``j``'s; its boundary lies at distance
    ``(|x_j - x_k|^2 + w_j - w_k) / (2 |x_j - x_k|)`` from ``x_k``.  Cut
    order is by that distance, then by company index.  Returns
    ``(companies, normals, offsets, dists, rest, norms)``: the first four
    hold the bisectors taken, one row per owner; ``rest`` and ``norms``
    are ``(rows x companies)``, the distance of every bisector not taken
    (``inf`` for those taken and for the owner) and the norm of every
    normal.  Only the bisectors taken get normals.
    """
    rows, n = len(owners), len(positions)
    anchors = positions[owners]
    own = weights[owners]
    index = np.arange(rows)
    row = index[:, None]
    # three (rows x companies) arrays at most, computed in place
    dx = positions[:, 0] - anchors[:, 0, None]
    dy = positions[:, 1] - anchors[:, 1, None]
    dist = np.multiply(dx, dx, out=dx)
    dist += np.multiply(dy, dy, out=dy)
    norms = np.sqrt(dist, out=dy)
    norms *= 2.0
    dist += weights
    dist -= own[:, None]
    dist[index, owners] = np.inf
    norms[index, owners] = 1.0
    dist /= norms
    if nearest is None or n - 1 <= nearest:
        # the company itself sorts last
        planes = np.argsort(dist, axis=1, kind="stable")[:, : n - 1]
    else:
        near = np.sort(np.argpartition(dist, nearest, axis=1)[:, :nearest], axis=1)
        planes = near[row, np.argsort(dist[row, near], axis=1, kind="stable")]
    dists = dist[row, planes]
    dist[row, planes] = np.inf
    others = positions[planes]
    normals = 2.0 * (others - anchors[:, None, :])
    offsets = (
        weights[planes] - own[:, None] + _squares(others)
        - _squares(anchors)[:, None]
    )
    return planes, normals, offsets, dists, dist, norms


def _squares(points: np.ndarray) -> np.ndarray:
    """``|x|^2`` of each point along the last axis."""
    return points[..., 0] * points[..., 0] + points[..., 1] * points[..., 1]


def _clip_nearest(
    scenario: Scenario,
    weights: np.ndarray,
    owners: np.ndarray,
    tie_tol: float,
) -> _NearestClip:
    """Row ``r``: company ``owners[r]``'s cell in the partition at
    ``weights``, as :func:`clip_cell` cuts it, to the bit.

    Each row cuts with its ``_NEAREST`` nearest :func:`_bisectors`.  A
    row is cut again with every bisector when (reach) its next bisector
    still lies within its farthest vertex plus the clip tolerance, so the
    one-cell clip would cut with it, or (tie) a bisector outside its
    nearest ones comes within ``tie_tol`` of a vertex, where
    :func:`_edge_attribution` records a tie.  A row left with under three
    vertices holds no cell; every other row keeps its exact loop, short
    edges included.  The nearest-bisector
    pass builds ``(rows x companies)`` arrays only, never a normal per
    row and company; the rows cut again hold one normal per company.
    """
    window = scenario.window
    rows = len(owners)
    anchors = scenario.positions[owners]
    planes, normals, offsets, dists, rest, norms = _bisectors(
        scenario.positions, weights, owners, _NEAREST
    )
    verts, counts, reach, passes = clip_cells(anchors, normals, offsets, dists, window)
    tol = EPS_GEOM * max(1.0, window.diameter)
    cell = counts >= 3
    reached = cell & (rest.min(axis=1) < reach + tol)
    # Price gap of a bisector at any vertex is at least |a_j| (t_j - reach).
    rest -= reach[:, None]
    rest *= norms
    tied = cell & ~reached & np.any(rest <= tie_tol, axis=1)
    recut = np.flatnonzero(reached | tied)
    if len(recut):
        wide, wide_normals, wide_offsets, wide_dists, _, _ = _bisectors(
            scenario.positions, weights, owners[recut]
        )
        cut, cut_counts, _, cut_passes = clip_cells(
            anchors[recut], wide_normals, wide_offsets, wide_dists, window
        )
        passes += cut_passes
        if cut.shape[1] > verts.shape[1]:
            verts = np.concatenate(
                [verts, np.zeros((rows, cut.shape[1] - verts.shape[1], 2))], axis=1
            )
        verts[recut, : cut.shape[1]] = cut
        counts[recut] = cut_counts
    counts[counts < 3] = 0
    area = loop_areas(verts, counts)
    owners, ties = _edge_attribution(verts, counts, normals, offsets, planes, tie_tol)
    if len(recut):
        owners[recut], wide_ties = _edge_attribution(
            verts[recut], counts[recut], wide_normals, wide_offsets, wide, tie_tol
        )
        wide_ties[:, 0] = recut[wide_ties[:, 0]]
        ties = np.concatenate([ties[~np.isin(ties[:, 0], recut)], wide_ties])
    return _NearestClip(
        verts, counts, area, owners, ties, passes, int(reached.sum()), int(tied.sum())
    )


def _partition_2d(
    scenario: Scenario,
    weights: np.ndarray,
    check_window: bool,
) -> MarketPartition:
    n = len(scenario.companies)
    window = scenario.window
    eps_area = area_tolerance(scenario)
    tie_tol = _TIE_RTOL * max(1.0, scenario.price_upper)

    # All cells are clipped in row blocks; each surviving cell's edges and
    # ties come from its own boundary, matched against the half-planes
    # that cut it.
    area = np.zeros(n)
    contact = np.zeros(n, dtype=bool)
    edges: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    ties: list[np.ndarray] = []
    passes = 0
    notes = np.zeros(2, dtype=np.intp)
    step = _block_rows(n)
    for start in range(0, n, step):
        rows = np.arange(start, min(n, start + step))
        batch = _clip_nearest(scenario, weights, rows, tie_tol)
        passes += batch.passes
        notes += (batch.reach, batch.tie)
        area[rows] = batch.area
        contact[rows] = window_contacts(batch.verts, batch.counts, window)
        kept = batch.area > eps_area
        loop = np.arange(batch.verts.shape[1]) < batch.counts[:, None]
        r, k = np.nonzero(loop & kept[:, None])
        edges.append((rows[r], batch.owners[r, k], batch.verts[r, k]))
        held = batch.ties[kept[batch.ties[:, 0]]]
        ties.append(np.column_stack([rows[held[:, 0]], held[:, 1]]))

    log = _debug_logger(__name__)
    if log is not None:
        log.debug(
            "partition: %d companies in the plane, %d clip passes, %d rows re-cut "
            "with every bisector (%d reach, %d tie)",
            n, passes, int(notes.sum()), *notes.tolist(),
        )

    surviving = area > eps_area
    if check_window:
        for k in np.flatnonzero(surviving & contact).tolist():
            if not scenario.companies[k].frozen:
                raise WindowTooSmall(
                    f"non-frozen company {scenario.ids[k]} owns a window-edge cell; "
                    "the window understates its true market"
                )

    cell, owner, verts = (np.concatenate(column) for column in zip(*edges))
    table = _edge_table(scenario.positions, cell, owner, verts)
    return _plane_partition(scenario, table, area[surviving], np.concatenate(ties))


class EdgeTable(NamedTuple):
    """Every edge of a plane partition's cells, cell by cell in company
    index order and each cell in its loop order.

    Edge ``e`` belongs to the cell of company index ``cell[e]`` and runs
    from vertex ``start[e]`` to the start of edge ``succ[e]``; ``prev[e]`` is
    the edge before it, so its start lies on the lines of edges ``prev[e]``
    and ``e``.  ``owner[e]`` is the company index whose bisector carries it,
    ``-1`` for a window side.  Each line is ``normal . x = offset``: a
    bisector with company ``j`` on ``i``'s cell has ``normal = 2 (x_j -
    x_i)`` and, at weights ``w``, ``offset = w_j - w_i + |x_j|^2 - |x_i|^2``
    (:meth:`offsets`); a window side has its outward unit normal and does
    not move.  While the cells keep their combinatorial type only
    ``start`` moves with the prices.
    """

    cell: np.ndarray
    owner: np.ndarray
    start: np.ndarray
    prev: np.ndarray
    succ: np.ndarray
    normal: np.ndarray

    def along(self) -> np.ndarray:
        """Every edge as the vector from its start to its end."""
        return self.start[self.succ] - self.start

    def offsets(self, scenario: Scenario, weights: np.ndarray) -> np.ndarray:
        """Every line's offset at ``weights``, as :func:`_bisectors` has it."""
        window = scenario.window
        out = np.sum(self.normal * np.where(self.normal > 0.0, window.hi, window.lo), axis=1)
        bisector = self.owner >= 0
        j, i = self.owner[bisector], self.cell[bisector]
        squares = _squares(scenario.positions)
        out[bisector] = weights[j] - weights[i] + squares[j] - squares[i]
        return out


def _loop_starts(cell: np.ndarray) -> np.ndarray:
    """Index of each cell's first edge in an :class:`EdgeTable`'s ``cell``."""
    return np.flatnonzero(np.concatenate(([True], cell[1:] != cell[:-1])))


def _edge_table(
    positions: np.ndarray, cell: np.ndarray, owner: np.ndarray, start: np.ndarray
) -> EdgeTable:
    """The :class:`EdgeTable` of the loops that run back to back in
    ``start``, edge ``e`` on the cell of company index ``cell[e]`` and
    carried by ``owner[e]``."""
    first = _loop_starts(cell)
    last = np.append(first[1:], len(cell)) - 1
    succ = np.arange(len(cell)) + 1
    succ[last] = first
    prev = np.arange(len(cell)) - 1
    prev[first] = last
    along = start[succ] - start
    # a window edge runs along its side, counterclockwise: its outward
    # normal is its direction turned clockwise, rounded to the exact axis
    normal = np.rint(
        np.column_stack([along[:, 1], -along[:, 0]])
        / np.hypot(along[:, 0], along[:, 1])[:, None]
    )
    bisector = owner >= 0
    normal[bisector] = 2.0 * (positions[owner[bisector]] - positions[cell[bisector]])
    return EdgeTable(cell, owner, start, prev, succ, normal)


def _plane_partition(
    scenario: Scenario, table: EdgeTable, areas: np.ndarray, ties: np.ndarray
) -> MarketPartition:
    """The plane partition whose surviving cells ``table`` holds, with their
    ``areas`` in its cell order, and the companies each row ``(k, j)`` of
    ``ties`` records as tying only at isolated points of company index
    ``k``'s cell."""
    ids = scenario.ids
    first = _loop_starts(table.cell)
    survivors = table.cell[first].tolist()
    ends = first.tolist() + [len(table.cell)]
    cells: dict[int, Interval | ConvexPolygon | None] = dict.fromkeys(ids)
    area_of = dict.fromkeys(ids, 0.0)
    for k, a, b, area in zip(survivors, ends, ends[1:], areas.tolist()):
        cells[ids[k]], area_of[ids[k]] = ConvexPolygon(table.start[a:b]), area
    neighbors, potential = _neighbor_graph(scenario, table, ties)
    return MarketPartition(
        dimension=2,
        cells=cells,
        areas=area_of,
        neighbors=neighbors,
        survivors=frozenset(ids[k] for k in survivors),
        potential_competitors=potential,
        edges=table,
    )


def _neighbor_graph(
    scenario: Scenario, table: EdgeTable, ties: np.ndarray
) -> tuple[dict[int, tuple[NeighborEdge, ...]], dict[int, frozenset[int]]]:
    """Neighbor lists and potential competitors of a plane partition, by
    company id, from its surviving cells' edges and ties.

    A cell's border with company ``j`` is the length of the edges ``j``'s
    bisector carries, added in loop order, and each row ``(k, j)`` of
    ``ties`` holds a company tying only at isolated points of company
    index ``k``'s cell.  Both cells of a border measure it; the lower
    index's measurement wins.  A border is exact, however short; one no
    longer than ``zero_border`` is still flagged as a potential
    competitor, as an exact corner tie is.  A zero-area company that
    carries an edge, or ties anywhere on a cell, is a potential competitor
    of that cell's company.
    """
    ids = scenario.ids
    n = len(ids)
    surviving = np.zeros(n, dtype=bool)
    surviving[table.cell] = True
    surviving = surviving.tolist()
    # each cell's border with each company, its edges added in loop order
    carried = table.owner >= 0
    along = table.along()[carried]
    pair, edge_pair = np.unique(
        table.cell[carried] * n + table.owner[carried], return_inverse=True
    )
    length = np.zeros(len(pair))
    np.add.at(length, edge_pair, np.hypot(along[:, 0], along[:, 1]))
    # one measurement per border, the lower cell's where it has one
    k, j = np.divmod(pair, n)
    lower = np.argsort(k > j, kind="stable")
    border, first = np.unique(
        np.minimum(k, j)[lower] * n + np.maximum(k, j)[lower], return_index=True
    )
    lo, hi = np.divmod(border, n)
    length = length[lower][first]

    neighbors: dict[int, list[NeighborEdge]] = {cid: [] for cid in ids}
    potential: dict[int, set[int]] = {cid: set() for cid in ids}
    zero_border = EPS_GEOM * max(1.0, scenario.window.diameter)
    distances = _pair_distances(scenario.positions, lo, hi)
    for a, b, seg, d in zip(lo.tolist(), hi.tolist(), length.tolist(), distances):
        if surviving[a] and surviving[b]:
            flag = seg <= zero_border
            neighbors[ids[a]].append(NeighborEdge(ids[b], seg, d, flag))
            neighbors[ids[b]].append(NeighborEdge(ids[a], seg, d, flag))
            if flag:
                potential[ids[a]].add(ids[b])
                potential[ids[b]].add(ids[a])
        else:
            owner, ghost = (a, b) if surviving[a] else (b, a)
            potential[ids[owner]].add(ids[ghost])

    corner_pairs: set[tuple[int, int]] = set()
    for k, j in ties.tolist():
        if surviving[j]:
            corner_pairs.add((min(k, j), max(k, j)))
        else:
            potential[ids[k]].add(ids[j])
    corners = np.array(sorted(corner_pairs - set(zip(lo.tolist(), hi.tolist()))), dtype=np.intp)
    corners = corners.reshape(-1, 2)
    for (a, b), d in zip(corners.tolist(), _pair_distances(scenario.positions, *corners.T)):
        neighbors[ids[a]].append(NeighborEdge(ids[b], 0.0, d, True))
        neighbors[ids[b]].append(NeighborEdge(ids[a], 0.0, d, True))
        potential[ids[a]].add(ids[b])
        potential[ids[b]].add(ids[a])
    return (
        {cid: tuple(v) for cid, v in neighbors.items()},
        {cid: frozenset(v) for cid, v in potential.items()},
    )


def _pair_distances(positions: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[float]:
    """Distance between companies ``a[p]`` and ``b[p]`` for every ``p``.  Each
    is the square root of one dot product, as ``np.linalg.norm`` takes it
    for a single pair, so both agree to the bit."""
    diff = positions[a] - positions[b]
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0]).tolist()


def _meet(
    a: np.ndarray, b: np.ndarray, ha: np.ndarray | float, hb: np.ndarray | float
) -> tuple[np.ndarray, bool]:
    """Row by row, the point on the lines ``a . x = ha`` and ``b . x = hb`` by
    Cramer's rule, and whether any two lines are too near parallel to
    meet: ``|det| <= EPS_GEOM |a| |b|``."""
    det = _cross(a, b)
    parallel = np.abs(det) <= EPS_GEOM * np.hypot(a[:, 0], a[:, 1]) * np.hypot(b[:, 0], b[:, 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        point = np.column_stack([ha * b[:, 1] - a[:, 1] * hb, a[:, 0] * hb - ha * b[:, 0]])
        point /= det[:, None]
    return point, bool(np.any(parallel))


def area_jacobian(
    scenario: Scenario, part: MarketPartition
) -> tuple[np.ndarray, np.ndarray]:
    """Exact price derivatives of every area and competition intensity on
    the piece of ``part``: ``(dS, dgamma)`` with ``dS[i, j] = dS_i / dP_j`` and
    ``dgamma[i, j] = dgamma_i / dP_j``, over company indices.

    ``-dS[i, i]`` is the competition intensity Newton and the reports read:
    ``part.gamma`` to the bit without brand feedback (0 with no neighbors),
    the exact ``-dS_i / dP_i`` with it.

    On a line, for either brand exponent, each price enters the boundary
    system of the survivors (frozen and hidden ones included) as ``+1`` on
    the left boundary of its cell and ``-1`` on the right one: one solve
    of :func:`_boundary_matrix` against all those columns gives every
    boundary's motion, and ``dS`` is the difference of a cell's two
    boundaries.  With ``beta = 0`` that is ``l_ij / (2 d_ij)`` for a neighbor
    ``j`` and ``-gamma_i`` on the diagonal, and the border lengths are 1, so
    ``dgamma = 0``.

    In the plane ``dS_i / dP_j = l_ij / (2 d_ij)`` for a neighbor ``j`` and
    ``dS_i / dP_i = -gamma_i`` from ``part.gamma`` itself (a row sum would
    round otherwise, and so would a running sum where Python's compensates,
    3.12 on).  Each vertex of a cell lies on the lines ``n . x = h`` of its
    two edges in ``part.edges``, so it moves by ``M^-1 dh`` with ``M``
    stacking their normals (:func:`_meet` at unit offsets gives the
    columns of ``M^-1``).  The bisector with company ``j`` on ``i``'s cell
    has ``n = 2 (x_j - x_i)`` and ``h`` moving by ``+1`` per unit of ``P_j``
    and ``-1`` per unit of ``P_i``; window edges do not move.  An edge's
    length moves by its unit direction dotted with the motion of its end
    over its start.
    """
    index = scenario.index_of
    n = len(scenario.companies)
    dS = np.zeros((n, n))
    dgamma = np.zeros((n, n))
    if part.dimension == 1:
        ids = scenario.ids
        order = [k for k in line_layout(scenario)[0] if ids[k] in part.survivors]
        m = len(order)
        if m > 1:
            d = np.diff(scenario.positions[order, 0])
            # boundary k closes slot k on the right and slot k + 1 on the left
            rhs = np.zeros((m - 1, m))
            k = np.arange(m - 1)
            rhs[k, k + 1], rhs[k, k] = 1.0, -1.0
            beta = scenario.beta if scenario.q == 1 else 0.0
            motion = np.zeros((m + 1, m))
            if beta == 0.0:
                motion[1:-1] = rhs / (2.0 * d)[:, None]
            else:
                motion[1:-1] = np.linalg.solve(_boundary_matrix(d, beta), rhs)
            dS[np.ix_(order, order)] = motion[1:] - motion[:-1]
        return dS, dgamma

    for cid, edges in part.neighbors.items():
        i = index[cid]
        for e in edges:
            dS[i, index[e.company_id]] += e.border_length / (2.0 * e.distance)
        dS[i, i] = -(part.gamma(cid) or 0.0)

    cell, owner, _, prev, succ, normal = part.edges
    along = part.edges.along()
    bisector = owner >= 0
    direction = along / np.hypot(along[:, 0], along[:, 1])[:, None]
    far = 0.5 * normal[bisector]
    # vertex e, where edge e starts, lies on the lines of edges prev[e] and
    # e: it moves by inv[e, :, 0] dh_prev + inv[e, :, 1] dh_e
    a, b = normal[prev], normal
    inv = np.stack([_meet(a, b, 1.0, 0.0)[0], _meet(a, b, 0.0, 1.0)[0]], axis=2)
    # edge e's length moves by u_e . (dv_succ - dv_e), a combination of the
    # offsets of the lines of edges e, succ[e] and prev[e]
    here = np.einsum("ei,eik->ek", direction, inv)
    there = np.einsum("ei,eik->ek", direction, inv[succ])
    terms = (
        (np.arange(len(owner)), there[:, 0] - here[:, 1]),
        (succ, there[:, 1]),
        (prev, -here[:, 0]),
    )
    weight = np.zeros(len(owner))
    weight[bisector] = 1.0 / (2.0 * np.hypot(far[:, 0], far[:, 1]))
    for line, coef in terms:
        # the line of edge f moves by +1 per unit of its owner's price and
        # by -1 per unit of its cell's own; window lines do not move
        moving = bisector & bisector[line]
        rows, value = cell[moving], (weight * coef)[moving]
        np.add.at(dgamma, (rows, owner[line[moving]]), value)
        np.add.at(dgamma, (rows, rows), -value)
    return dS, dgamma


def moved_partition(
    scenario: Scenario, part: MarketPartition, weights: np.ndarray
) -> MarketPartition | None:
    """The plane partition at ``weights``, moved from ``part`` with its
    combinatorial type kept, or ``None`` where certificates cannot show
    that the moved cells are that partition.

    The moved partition carries ``part.edges`` forward: cells, owners,
    ``prev``/``succ`` and normals stay, and each vertex is solved afresh
    from the lines of its two edges at ``weights`` (:func:`_meet`), not
    moved from where it was, so chained moves do not drift.  The move is
    refused unless:

    - ``part`` has no potential competitor, so no corner tie either;
    - every vertex's two lines meet at ``|det| > EPS_GEOM |a| |b|``, as in
      :func:`_plane_piece`;
    - every edge keeps its direction and is longer than the border that
      flags a potential competitor;
    - every vertex stays in the window, within ``EPS_GEOM max(1,
      diameter)``;
    - at every vertex of a cell, every company other than the cell's own
      and the owners of its two edges, companies with no cell included,
      prices higher by more than the tie gap of :func:`_edge_attribution`;
    - every moved area exceeds :func:`area_tolerance`.

    Then the moved cells are the partition at ``weights``.  A company's
    price gap to the cell's own is affine in the position, so positive
    at a convex cell's vertices it is positive on the whole cell: each
    moved cell lies inside the company's true cell, and a company with no
    cell gains none.  Every edge stays on a line whose normal does not
    move and keeps its direction, so each cell stays convex with the
    same angles and the moved cells still tile the window.  Cells that
    tile the window inside the true cells are the true cells.
    """
    table = part.edges
    if table is None or any(part.potential_competitors.values()):
        return None
    window = scenario.window
    tol = EPS_GEOM * max(1.0, window.diameter)
    offsets = table.offsets(scenario, weights)
    verts, parallel = _meet(table.normal[table.prev], table.normal, offsets[table.prev], offsets)
    if parallel:
        return None
    moved = table._replace(start=verts)
    along = moved.along()
    seg = np.hypot(along[:, 0], along[:, 1])
    if np.any(np.sum(along * table.along(), axis=1) <= 0.0) or np.any(seg <= tol):
        return None
    if np.any(verts < np.subtract(window.lo, tol)) or np.any(verts > np.add(window.hi, tol)):
        return None
    # every company's aggregate price at every vertex over the cell's own,
    # in blocks of vertices as a batched clip takes rows
    positions = scenario.positions
    fields = weights + _squares(positions)
    tie_tol = _TIE_RTOL * max(1.0, scenario.price_upper)
    step = _block_rows(len(positions))
    for start in range(0, len(verts), step):
        block = np.arange(start, min(len(verts), start + step))
        rows, cell = np.arange(len(block)), table.cell[block]
        gap = fields - 2.0 * (verts[block] @ positions.T)
        gap -= gap[rows, cell][:, None]
        for owner in (table.owner[table.prev[block]], table.owner[block], cell):
            gap[rows, np.where(owner >= 0, owner, cell)] = np.inf
        if np.any(gap <= tie_tol):
            return None

    # the cells' loops padded to one width, for one shoelace over all
    first = _loop_starts(table.cell)
    counts = np.diff(first, append=len(verts))
    loop = np.repeat(np.arange(len(counts)), counts)
    padded = np.zeros((len(counts), counts.max(), 2))
    padded[loop, np.arange(len(verts)) - first[loop]] = verts
    cell_areas = loop_areas(padded, counts)
    if np.any(cell_areas <= area_tolerance(scenario)):
        return None
    return _plane_partition(scenario, moved, cell_areas, np.zeros((0, 2), dtype=np.intp))


# ---------------------------------------------------------------------------
# Public solvers
# ---------------------------------------------------------------------------


def solve_areas_q0(
    scenario: Scenario,
    prices: PriceVector,
    check_window: bool = True,
) -> MarketPartition:
    """Partition for fixed additive weights.

    When ``q = 0`` the brand bonus cancels, so the weights are the prices
    themselves.
    """
    if scenario.dimension == 1:
        return _partition_1d(scenario, prices, beta=0.0, check_window=check_window)
    return _partition_2d(scenario, prices.as_array(), check_window)


def solve_areas_q1_1d(
    scenario: Scenario,
    prices: PriceVector,
    check_window: bool = True,
) -> tuple[MarketPartition, WipeoutDiagnostics]:
    """Brand-feedback partition on a line plus wipe-out diagnostics."""
    if scenario.dimension != 1 or scenario.q != 1:
        raise ValueError("this solver requires a 1D scenario with q=1")
    part = _partition_1d(scenario, prices, beta=scenario.beta, check_window=check_window)
    diag = _diagnostics_from_partition(scenario, prices, part)
    return part, diag


def solve_partition(
    scenario: Scenario, prices: PriceVector, check_window: bool = True
) -> MarketPartition:
    """Dispatch to the solver matching the scenario's brand exponent."""
    if scenario.q == 1:
        return _partition_1d(scenario, prices, scenario.beta, check_window)
    return solve_areas_q0(scenario, prices, check_window=check_window)


def _nearest_flanks(
    scenario: Scenario, survivors
) -> dict[int, tuple[int | None, int | None]]:
    """Nearest member of ``survivors`` strictly left and right of every
    company on the line, from one walk each way over ``line_layout``."""
    all_ids = scenario.ids
    ids = [all_ids[k] for k in line_layout(scenario)[0]]

    def walk(seq) -> dict[int, int | None]:
        out, last = {}, None
        for cid in seq:
            out[cid] = last
            if cid in survivors:
                last = cid
        return out

    left, right = walk(ids), walk(reversed(ids))
    return {cid: (left[cid], right[cid]) for cid in ids}


def _psi_terms(
    scenario: Scenario,
    prices: PriceVector,
    areas: dict[int, float],
    company_id: int,
    left: int,
    right: int,
) -> tuple[float, float, float]:
    """Threshold, survival margin and hidden-entry boundary for one
    company given its flanking survivors and their ``areas`` (by id)."""
    beta = scenario.beta
    x0 = scenario.company(company_id).position[0]
    xl = scenario.company(left).position[0]
    xr = scenario.company(right).position[0]
    d_left, d_right = x0 - xl, xr - x0
    p0 = prices.price_of(scenario, company_id)
    pl = prices.price_of(scenario, left)
    pr = prices.price_of(scenario, right)
    sl, sr = areas[left], areas[right]
    threshold = wipeout_threshold(d_left, d_right)
    psi = (pr + d_right**2 - beta * sr - p0) / (2.0 * d_right) + (
        pl + d_left**2 - beta * sl - p0
    ) / (2.0 * d_left)
    entry = (pr - pl - beta * sr + beta * sl) / (2.0 * (d_left + d_right)) + (
        xr + xl
    ) / 2.0
    return threshold, psi, entry


def _diagnostics_from_partition(
    scenario: Scenario, prices: PriceVector, part: MarketPartition
) -> WipeoutDiagnostics:
    thresholds: dict[int, float] = {}
    psi: dict[int, float] = {}
    entry: dict[int, float] = {}
    flanks = _nearest_flanks(scenario, part.survivors)
    for c in scenario.companies:
        if c.frozen:
            continue
        left, right = flanks[c.id]
        if left is None or right is None:
            continue
        thr, margin, r_entry = _psi_terms(scenario, prices, part.areas, c.id, left, right)
        thresholds[c.id] = thr
        psi[c.id] = margin
        entry[c.id] = r_entry
    return WipeoutDiagnostics(thresholds, psi, entry)


@lru_cache(maxsize=256)
def line_layout(scenario: Scenario) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Company indices sorted by position, plus the sorted positions."""
    order = sorted(range(len(scenario.companies)), key=lambda k: scenario.positions[k, 0])
    return tuple(order), tuple(float(scenario.positions[k, 0]) for k in order)


class AreaPiece(NamedTuple):
    """One company's area at a price and the piece of the area curve it
    starts: for a rise ``u`` of the own price up to ``reach`` the area is
    ``area + slope u + curvature u^2``.  ``damped`` marks a line solve
    settled by the damped fallback, whose piece is its own price alone."""

    area: float
    slope: float
    curvature: float
    reach: float
    damped: bool = False


def _solve_sorted_line(
    scenario: Scenario, values: np.ndarray, k: int | None = None
) -> tuple[tuple[int, ...], _LinePiece, int | None]:
    """``_solve_line`` on a line scenario's sorted positions, with company
    index ``k`` the focal one: returns the sort order, the piece, and
    ``k``'s slot among the active companies (``None``: no market)."""
    order, xs = line_layout(scenario)
    focal = None if k is None else order.index(k)
    beta = scenario.beta if scenario.q == 1 else 0.0
    piece = _solve_line(
        np.array(xs), values[list(order)], beta, scenario.window.lo[0],
        scenario.window.hi[0], area_tolerance(scenario), focal,
    )
    slot = piece.active.index(focal) if focal in piece.active else None
    return order, piece, slot


def fast_area(scenario: Scenario, values: np.ndarray, company_id: int) -> float:
    """Market area of one company under a full weight/price vector.

    The exploration workhorse behind profit evaluation: no window check,
    no neighbor bookkeeping.  ``values`` follows ``scenario.companies``
    order.  Respects the scenario's brand exponent.
    """
    k = scenario.index_of[company_id]
    if scenario.dimension == 1:
        _, piece, slot = _solve_sorted_line(scenario, values, k)
        return float(piece.areas[slot]) if slot is not None else 0.0
    verts, _, _ = _plane_cell(scenario, values, k)
    return loop_area(verts) if len(verts) >= 3 else 0.0


def fast_signature(
    scenario: Scenario, values: np.ndarray, company_id: int
) -> AreaPiece:
    """:func:`fast_area` of one company under a weight vector, with the
    piece of its area curve in the own price that starts there.

    On a line the piece comes from the same solve of the survivors'
    boundary system, which also carries the brand feedback when ``q = 1``:
    the area is linear in the own price until one of the solve's
    decisions changes (:attr:`_LinePiece.reach`).  In the plane the cell
    keeps its half-plane normals while their offsets shift by ``-u``, so
    its area is quadratic in ``u`` (:func:`_plane_piece`); an empty cell
    holds no market at any higher price.
    """
    k = scenario.index_of[company_id]
    if scenario.dimension == 1:
        _, piece, slot = _solve_sorted_line(scenario, values, k)
        if slot is None:
            return AreaPiece(0.0, 0.0, 0.0, piece.reach, piece.damped)
        area, slope = float(piece.areas[slot]), float(piece.slopes[slot])
        return AreaPiece(area, slope, 0.0, piece.reach, piece.damped)
    verts, normals, offsets = _plane_cell(scenario, values, k)
    if len(verts) < 3:
        return AreaPiece(0.0, 0.0, 0.0, math.inf)
    return AreaPiece(loop_area(verts), *_plane_piece(verts, normals, offsets, scenario.window))


def _plane_cell(
    scenario: Scenario, values: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Company ``k``'s cell by the one-cell clip, cut by all its
    :func:`_bisectors` in order, with their normals and offsets."""
    _, normals, offsets, dists, _, _ = _bisectors(scenario.positions, values, np.array([k]))
    verts = clip_cell(scenario.positions[k], normals[0], offsets[0], dists[0], scenario.window)
    return verts, normals[0], offsets[0]


# ---------------------------------------------------------------------------
# Batched areas over a vector of own prices
# ---------------------------------------------------------------------------


def areas_for_prices(
    scenario: Scenario, values: np.ndarray, company_id: int, prices: np.ndarray
) -> np.ndarray:
    """:func:`fast_area` of one company at every price in ``prices``.

    Everyone else keeps their ``values`` entry; only the company's own
    price moves.  One walk serves both dimensions: over the sorted
    prices, it solves at the lowest price not yet filled
    (:func:`fast_signature`), fills every price up to the end of that
    solve's piece from the piece's area model, and solves again.  A
    piece's first price takes the solve's own area, so it is the
    per-price area to the bit.
    """
    prices = np.asarray(prices, dtype=float)
    k = scenario.index_of[company_id]
    order = np.argsort(prices, kind="stable")
    walk = prices[order]
    areas = np.zeros(len(walk))
    values = np.array(values, dtype=float)
    i = pieces = damped = 0
    while i < len(walk):
        values[k] = walk[i]
        area, slope, curvature, reach, alone = fast_signature(scenario, values, company_id)
        pieces += 1
        damped += alone
        areas[i] = area
        end = max(i + 1, int(np.searchsorted(walk, walk[i] + reach, side="right")))
        u = walk[i + 1 : end] - walk[i]
        areas[i + 1 : end] = np.maximum(area + u * (slope + u * curvature), 0.0)
        i = end
    out = np.empty(len(walk))
    out[order] = areas
    log = _debug_logger(__name__)
    if log is not None:
        if scenario.dimension == 1:
            log.debug(
                "areas_for_prices: company %s, %d prices on a line, %d solved alone "
                "by the damped fallback, %d pieces (one line solve each)",
                company_id, len(prices), damped, pieces,
            )
        else:
            log.debug(
                "areas_for_prices: company %s, %d prices in the plane, %d pieces "
                "(one cell clip each)",
                company_id, len(prices), pieces,
            )
    return out


# The window's sides as half-planes ``a . x <= b``: x >= lo, x <= hi, y >= lo,
# y <= hi.  Their offsets do not move with any price.
_WINDOW_NORMALS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, -1.0], [0.0, 1.0]])


def _plane_piece(
    verts: np.ndarray, normals: np.ndarray, offsets: np.ndarray, window: Box
) -> tuple[float, float, float]:
    """Area change ``A1 u + A2 u^2`` of the cell ``verts`` while its
    company's price rises by ``u``, and the largest ``u`` that model holds.

    Each edge lies on the bisector or window side nearest both its ends.
    Bisector offsets fall by ``u`` and window sides stay, so each bisector
    edge moves inward by ``u`` over its line's norm, and ``A1`` is minus
    the sum of edge length over norm.  The vertex on the lines of its two
    edges moves by ``u dv`` with ``M dv = dh``, and the shoelace area of
    ``v + u dv`` has ``u^2`` coefficient ``A2``.  The piece ends where an
    edge shrinks to length 0 or a line that carries no edge reaches a
    vertex; an edge however short is one of the cell's edges, so the piece
    ends where it closes.  Where two edges' lines are (nearly) parallel it
    ends at once, with ``A1`` still exact and ``A2 = 0``.
    """
    lines = np.vstack([normals, _WINDOW_NORMALS])
    (x0, y0), (x1, y1) = window.lo, window.hi
    heights = np.concatenate([offsets, [-x0, x1, -y0, y1]])
    rates = np.concatenate([np.full(len(offsets), -1.0), np.zeros(4)])
    norms = np.hypot(lines[:, 0], lines[:, 1])
    gaps = (heights - verts @ lines.T) / norms
    # edge i runs from vertex i to vertex i + 1
    edge = np.argmin(np.abs(gaps) + np.abs(np.concatenate((gaps[1:], gaps[:1]))), axis=1)
    side = np.concatenate((verts[1:], verts[:1])) - verts
    slope = float(np.sum(np.hypot(side[:, 0], side[:, 1]) * rates[edge] / norms[edge]))
    before = np.concatenate((edge[-1:], edge[:-1]))
    dv, parallel = _meet(lines[before], lines[edge], rates[before], rates[edge])
    if parallel:
        return slope, 0.0, 0.0
    dv_next = np.concatenate((dv[1:], dv[:1]))
    curvature = 0.5 * float(np.sum(_cross(dv, dv_next)))
    dside = dv_next - dv
    shrink = np.sum(side * dside, axis=1)
    shrinking = shrink < 0.0
    ends = [-np.sum(side * side, axis=1)[shrinking] / shrink[shrinking]]
    closing = (rates - dv @ lines.T) / norms
    closing[:, edge] = 0.0
    near = closing < 0.0
    ends.append(np.maximum(gaps[near], 0.0) / -closing[near])
    return slope, curvature, float(np.min(np.concatenate(ends), initial=np.inf))


def _cross(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise 2D cross product ``p x q``."""
    return p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]


def compute_wipeout_diagnostics(
    scenario: Scenario,
    prices: PriceVector,
    part: MarketPartition,
    company_id: int,
) -> tuple[float, float, float]:
    """Hide one company, re-solve, and measure whether it could re-enter.

    Returns ``(threshold, psi, entry_point)`` computed from the hidden
    solve's areas: ``entry_point`` is where the flanking survivors meet
    once the company is gone, and ``psi`` is positive exactly when the
    company would undercut them there and regain market.
    """
    if scenario.dimension != 1:
        raise ValueError("wipe-out diagnostics are defined on 1D markets")
    order, _ = line_layout(scenario)
    ids = scenario.ids
    keep = [k for k in order if ids[k] != company_id]
    lo, hi = scenario.window.lo[0], scenario.window.hi[0]
    beta = scenario.beta if scenario.q == 1 else 0.0
    active, _, hidden_areas, *_ = _solve_line(
        scenario.positions[keep, 0], prices.as_array()[keep], beta, lo, hi,
        area_tolerance(scenario),
    )
    hidden_ids = [ids[keep[a]] for a in active]
    left, right = _nearest_flanks(scenario, set(hidden_ids))[company_id]
    if left is None or right is None:
        raise BoundaryCompany(
            f"company {company_id} lacks a surviving neighbor on one side"
        )
    area_by_id = dict(zip(hidden_ids, hidden_areas))
    return _psi_terms(scenario, prices, area_by_id, company_id, left, right)
