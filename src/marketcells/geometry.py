"""Planar geometry for market cells.

Cells are intersections of half-planes clipped to the evaluation window,
built incrementally: start from the window rectangle and cut with one
half-plane at a time.  Everything is tolerance-aware; vertices closer
than ``EPS_GEOM`` (in window units) are merged so near-degenerate cuts do
not spawn phantom zero-length edges.
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
    """One Sutherland-Hodgman pass; returns the clipped vertex loop."""
    s = verts @ a - b
    if np.all(s <= 0.0):
        return verts
    if np.all(s > 0.0):
        return verts[:0]
    out: list[np.ndarray] = []
    n = len(verts)
    for k in range(n):
        k2 = (k + 1) % n
        inside_k, inside_k2 = s[k] <= 0.0, s[k2] <= 0.0
        if inside_k:
            out.append(verts[k])
        if inside_k != inside_k2:
            t = s[k] / (s[k] - s[k2])
            out.append(verts[k] + t * (verts[k2] - verts[k]))
    return np.array(out) if out else verts[:0]


def merge_close_vertices(verts: np.ndarray, eps: float) -> np.ndarray:
    """Collapse consecutive vertices closer than ``eps`` (cyclically)."""
    if len(verts) == 0:
        return verts
    keep: list[np.ndarray] = []
    for v in verts:
        if not keep or np.hypot(*(v - keep[-1])) > eps:
            keep.append(v)
    while len(keep) > 1 and np.hypot(*(keep[0] - keep[-1])) <= eps:
        keep.pop()
    return np.array(keep)


def clip_cell(
    anchor: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    window: Box,
    eps: float = EPS_GEOM,
) -> np.ndarray:
    """Intersect ``a_k . x <= b_k`` with the window, nearest cut first.

    ``anchor`` is a reference point (the company position).  Sorting the
    half-planes by their boundary's distance from the anchor lets distant
    ones be skipped outright: once every current vertex is nearer to the
    anchor than a boundary line, that line (and all later ones) cannot cut
    the cell.  Returns the vertex loop, possibly empty.
    """
    scale = max(1.0, window.diameter)
    verts = window.corners()
    if len(normals) == 0:
        return verts
    norms = np.hypot(normals[:, 0], normals[:, 1])
    t = (offsets - normals @ anchor) / norms
    for idx in np.argsort(t):
        rho = float(np.max(np.hypot(*(verts - anchor).T)))
        if t[idx] >= rho + eps * scale:
            break
        verts = clip_by_halfplane(verts, normals[idx], offsets[idx])
        if len(verts) < 3:
            return verts[:0]
    verts = merge_close_vertices(verts, eps * scale)
    if len(verts) < 3:
        return verts[:0]
    return verts


def clip_cells(
    anchor: np.ndarray,
    normals: np.ndarray,
    offsets: np.ndarray,
    window: Box,
    eps: float = EPS_GEOM,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`clip_cell` for cells that share their normals, one row of
    ``offsets`` per cell, clipped together.

    Every pass cuts each row with its own next-nearest half-plane, all
    rows at once, as ``clip_by_halfplane`` would.  A row stops once its
    next boundary lies beyond its farthest vertex, and also once it is cut
    below three vertices; the passes stop when every row has.  No vertex
    merging happens here.  Returns ``(verts, counts, passes)``: ``verts``
    is ``(rows, width, 2)``, row ``r`` holding its loop in its first
    ``counts[r]`` entries.
    """
    rows = offsets.shape[0]
    scale = max(1.0, window.diameter)
    verts = np.tile(window.corners(), (rows, 1, 1))
    counts = np.full(rows, 4)
    if len(normals) == 0:
        return verts, counts, 0
    norms = np.hypot(normals[:, 0], normals[:, 1])
    t = (offsets - normals @ anchor) / norms
    order = np.argsort(t, axis=1)
    t = np.take_along_axis(t, order, axis=1)
    live = np.arange(rows)
    passes = 0
    for i in range(len(normals)):
        v = verts[live]
        loop = np.arange(v.shape[1]) < counts[live, None]
        rho = np.max(np.where(loop, np.hypot(*(v - anchor).transpose(2, 0, 1)), 0.0), axis=1)
        near = t[live, i] < rho + eps * scale
        live, v = live[near], v[near]
        if len(live) == 0:
            break
        passes += 1
        plane = order[live, i]
        cut, cut_counts = _clip_rows(v, counts[live], normals[plane], offsets[live, plane])
        if cut.shape[1] > verts.shape[1]:
            verts = np.concatenate(
                [verts, np.zeros((rows, cut.shape[1] - verts.shape[1], 2))], axis=1
            )
        verts[live, : cut.shape[1]] = cut
        counts[live] = cut_counts
        live = live[cut_counts >= 3]
    return verts, counts, passes


def next_vertex(counts: np.ndarray, width: int) -> np.ndarray:
    """Index of each vertex's successor in padded loops of ``counts``
    vertices (``0`` after the last one)."""
    k = np.arange(1, width + 1)
    return np.where(k < counts[:, None], k, 0)


def _clip_rows(
    verts: np.ndarray, counts: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass per row: loop ``r`` (its first
    ``counts[r]`` vertices) cut by ``a[r] . x <= b[r]``."""
    width = verts.shape[1]
    loop = np.arange(width) < counts[:, None]
    s = (verts @ a[:, :, None])[..., 0] - b[:, None]
    following = next_vertex(counts, width)
    s_next = np.take_along_axis(s, following, axis=1)
    inside = loop & (s <= 0.0)
    crossing = loop & (inside != (s_next <= 0.0))
    emitted = inside.astype(np.intp) + crossing
    slot = np.cumsum(emitted, axis=1) - emitted
    cut_counts = emitted.sum(axis=1)
    cut = np.zeros((len(verts), max(1, int(cut_counts.max())), 2))
    row = np.broadcast_to(np.arange(len(verts))[:, None], loop.shape)
    cut[row[inside], slot[inside]] = verts[inside]
    v_next = np.take_along_axis(verts, following[..., None], axis=1)[crossing]
    sk, sk2, vk = s[crossing], s_next[crossing], verts[crossing]
    cut[row[crossing], slot[crossing] + inside[crossing]] = (
        vk + (sk / (sk - sk2))[:, None] * (v_next - vk)
    )
    return cut, cut_counts


def window_contact(verts: np.ndarray, window: Box, eps: float = EPS_GEOM) -> bool:
    """True when some polygon edge lies on the window boundary."""
    if len(verts) == 0:
        return False
    scale = max(1.0, window.diameter)
    tol = eps * scale
    nxt = np.roll(verts, -1, axis=0)
    for axis in (0, 1):
        for bound in (window.lo[axis], window.hi[axis]):
            on = (np.abs(verts[:, axis] - bound) <= tol) & (
                np.abs(nxt[:, axis] - bound) <= tol
            )
            if bool(np.any(on)):
                return True
    return False


def loop_area(verts: np.ndarray) -> float:
    """Shoelace area of a vertex loop (non-negative when counterclockwise)."""
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
