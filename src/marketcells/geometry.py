"""Planar geometry for market cells.

Cells are intersections of half-planes clipped to the evaluation window,
built incrementally: start from the window rectangle and cut with one
half-plane at a time.  A cut uses no tolerance: it adds an intersection
only where an edge's ends lie strictly on opposite sides of the line, so
a line through a vertex keeps that vertex once, and a point that rounds
onto its neighbor is kept once.  No cut emits a zero-length edge, and a
short edge is a real edge, never merged away.  ``EPS_GEOM`` (in window
units) decides when a boundary lies too far out to cut a cell, when an
edge lies on the window, when two lines are too close to parallel to
meet, and when a border is short enough to mark a potential competitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Box

__all__ = ["EPS_GEOM", "ConvexPolygon", "Interval"]

EPS_GEOM = 1e-9


@dataclass(frozen=True)
class Interval:
    """Closed interval; the 1D market cell."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval lo exceeds hi")

    @property
    def length(self) -> float:
        return self.hi - self.lo


class ConvexPolygon:
    """Convex polygon with counterclockwise vertices."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: np.ndarray):
        verts = np.asarray(vertices, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError("polygon needs at least 3 two-dimensional vertices")
        verts = verts.copy()
        verts.flags.writeable = False
        self.vertices = verts

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        return loop_area(self.vertices)

    @property
    def perimeter(self) -> float:
        d = np.diff(np.vstack([self.vertices, self.vertices[:1]]), axis=0)
        return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def is_convex(self, tol: float = EPS_GEOM) -> bool:
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
        scale = max(1.0, float(np.abs(e).max()) ** 2)
        return bool(np.all(cross >= -tol * scale))

    def contains(self, point: Sequence[float], tol: float = EPS_GEOM) -> bool:
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        w = np.asarray(point, dtype=float) - v
        cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
        scale = max(1.0, float(np.abs(e).max()))
        return bool(np.all(cross >= -tol * scale))


def clip_by_halfplane(verts: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """One Sutherland-Hodgman pass; returns the clipped vertex loop.  Each
    vertex's side is :func:`_clip_rows`'s expression, to the bit.  A vertex
    on the line is kept, and an edge adds its intersection only when its
    ends lie strictly on opposite sides.  An intersection can still round
    onto the point beside it; a point equal to the next one is dropped, so
    no vertex repeats."""
    s = verts[:, 0] * a[0] + verts[:, 1] * a[1] - b
    if np.all(s <= 0.0):
        return verts
    if np.all(s > 0.0):
        return verts[:0]
    out: list[np.ndarray] = []
    n = len(verts)
    for k in range(n):
        k2 = (k + 1) % n
        if s[k] <= 0.0:
            out.append(verts[k])
        if s[k] < 0.0 < s[k2] or s[k] > 0.0 > s[k2]:
            t = s[k] / (s[k] - s[k2])
            out.append(verts[k] + t * (verts[k2] - verts[k]))
    loop = np.array(out)
    return loop[np.any(loop != np.concatenate((loop[1:], loop[:1])), axis=1)]


def clip_cell(
    anchor: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    dists: np.ndarray,
    window: Box,
) -> np.ndarray:
    """Intersect ``a_k . x <= b_k`` with the window, in the order given.

    ``anchor`` is a reference point (the company position) and
    ``dists[k]`` the distance of boundary ``k`` from it, ascending: once
    every current vertex is nearer to the anchor than the next boundary,
    that line (and all later ones) cannot cut the cell.  Returns the exact
    vertex loop, possibly empty: an edge however short is kept, since its
    length is the cell's border with the company that carves it.
    """
    tol = EPS_GEOM * max(1.0, window.diameter)
    verts = window.corners()
    for k in range(len(dists)):
        rho = float(np.max(np.hypot(*(verts - anchor).T)))
        if dists[k] >= rho + tol:
            break
        verts = clip_by_halfplane(verts, normals[k], offsets[k])
        if len(verts) < 3:
            return verts[:0]
    return verts


def clip_cells(
    anchors: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    dists: np.ndarray,
    window: Box,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """:func:`clip_cell` for many cells at once, each with its own anchor
    and its own half-planes, already in cut order.

    Row ``r`` is the cell around ``anchors[r]`` cut by ``normals[r, i] . x
    <= offsets[r, i]``, whose boundary lies at distance ``dists[r, i]``
    from the anchor, ascending along the row.  Every pass cuts each row
    with its next half-plane, all rows at once, as ``clip_by_halfplane``
    would.  A row stops once its next boundary lies beyond its farthest
    vertex, and also once it is cut below three vertices; the passes stop
    when every row has.  The caller checks that no half-plane beyond a
    row's last one could cut it.

    Returns ``(verts, counts, reach, passes)``: ``verts`` is ``(rows,
    width, 2)``, row ``r`` holding its loop in its first ``counts[r]``
    entries, and ``reach[r]`` is the distance of its farthest vertex from
    its anchor.
    """
    rows, planes = dists.shape
    tol = EPS_GEOM * max(1.0, window.diameter)
    verts = np.tile(window.corners(), (rows, 1, 1))
    counts = np.full(rows, 4)
    live = np.arange(rows)
    passes = 0
    for i in range(planes):
        v = verts[live]
        near = dists[live, i] < _loop_reach(v, counts[live], anchors[live]) + tol
        live, v = live[near], v[near]
        if len(live) == 0:
            break
        passes += 1
        cut, cut_counts = _clip_rows(v, counts[live], normals[live, i], offsets[live, i])
        if cut.shape[1] > verts.shape[1]:
            verts = np.concatenate(
                [verts, np.zeros((rows, cut.shape[1] - verts.shape[1], 2))], axis=1
            )
        verts[live, : cut.shape[1]] = cut
        counts[live] = cut_counts
        live = live[cut_counts >= 3]
    return verts, counts, _loop_reach(verts, counts, anchors), passes


def successors(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each entry's successor along the padded loops of axis 1: loop ``r``
    holds its first ``counts[r]`` entries and wraps to its first one.
    Entries past a loop's end hold no particular value."""
    out = np.concatenate((values[:, 1:], values[:, :1]), axis=1)
    out[np.arange(len(values)), counts - 1] = values[:, 0]
    return out


def _loops(verts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the entries of padded loops that hold vertices, and each
    vertex's successor."""
    return np.arange(verts.shape[1]) < counts[:, None], successors(verts, counts)


def _loop_reach(verts: np.ndarray, counts: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Distance of each padded loop's farthest vertex from its anchor
    (``0`` for an empty loop)."""
    loop = np.arange(verts.shape[1]) < counts[:, None]
    dist = np.hypot(*(verts - anchors[:, None, :]).transpose(2, 0, 1))
    return np.max(np.where(loop, dist, 0.0), axis=1, initial=0.0)


def _clip_rows(
    verts: np.ndarray, counts: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass per row: loop ``r`` (its first
    ``counts[r]`` vertices) cut by ``a[r] . x <= b[r]``, with
    :func:`clip_by_halfplane`'s rules: no intersection where an edge ends
    on the line, and no point equal to the next one."""
    rows, width = verts.shape[:2]
    loop = np.arange(width) < counts[:, None]
    s = verts[..., 0] * a[:, 0, None] + verts[..., 1] * a[:, 1, None] - b[:, None]
    s_next = successors(s, counts)
    inside = loop & (s <= 0.0)
    crossing = loop & (((s < 0.0) & (s_next > 0.0)) | ((s > 0.0) & (s_next < 0.0)))
    emitted = inside.astype(np.intp) + crossing
    slot = np.cumsum(emitted, axis=1) - emitted
    cut_counts = slot[:, -1] + emitted[:, -1]
    cut = np.zeros((rows, max(1, int(cut_counts.max())), 2))
    r, k = np.nonzero(inside)
    cut[r, slot[r, k]] = verts[r, k]
    r, k = np.nonzero(crossing)
    sk, sk2, vk = s[r, k], s_next[r, k], verts[r, k]
    cut[r, slot[r, k] + inside[r, k]] = vk + (sk / (sk - sk2))[:, None] * (
        successors(verts, counts)[r, k] - vk
    )
    kept = np.arange(cut.shape[1]) < cut_counts[:, None]
    kept &= np.any(cut != successors(cut, cut_counts), axis=2)
    if np.any(np.count_nonzero(kept, axis=1) < cut_counts):
        slot = np.cumsum(kept, axis=1) - kept
        r, k = np.nonzero(kept)
        cut[r, slot[r, k]] = cut[r, k]
        cut_counts = slot[:, -1] + kept[:, -1]
    return cut, cut_counts


def window_contacts(verts: np.ndarray, counts: np.ndarray, window: Box) -> np.ndarray:
    """Per padded loop: True when some edge lies on the window boundary."""
    tol = EPS_GEOM * max(1.0, window.diameter)
    loop, following = _loops(verts, counts)
    hit = np.zeros(len(verts), dtype=bool)
    for axis in (0, 1):
        for bound in (window.lo[axis], window.hi[axis]):
            on = (np.abs(verts[..., axis] - bound) <= tol) & (
                np.abs(following[..., axis] - bound) <= tol
            )
            hit |= np.any(loop & on, axis=1)
    return hit


def loop_areas(verts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shoelace area of each padded loop (``0`` below three vertices)."""
    loop, following = _loops(verts, counts)
    x = np.where(loop, verts[..., 0], 0.0)
    y = np.where(loop, verts[..., 1], 0.0)
    area = _shoelace(x, y, following[..., 0], following[..., 1])
    area[counts < 3] = 0.0
    return area


def loop_area(verts: np.ndarray) -> float:
    """Shoelace area of a vertex loop (non-negative when counterclockwise)."""
    following = np.concatenate((verts[1:], verts[:1]))
    return float(_shoelace(verts[:, 0], verts[:, 1], following[:, 0], following[:, 1]))


def _shoelace(
    x: np.ndarray, y: np.ndarray, x_next: np.ndarray, y_next: np.ndarray
) -> np.ndarray:
    """Half the sum of ``x y_next - y x_next`` along the last axis, added in
    vertex order, so zero padding past a loop's end changes no bit."""
    return 0.5 * np.cumsum(x * y_next - y * x_next, axis=-1)[..., -1]
