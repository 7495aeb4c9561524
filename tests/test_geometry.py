"""Cell half-planes, window clipping, polygon measures and cell borders.

Every case runs the production path: ``areas._bisectors`` builds a
company's half-planes in cut order, ``geometry.clip_cell`` clips them to
the window,
``window_contacts`` finds the cells on the window edge, and
``solve_areas_q0`` measures the borders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcells import (
    Box,
    Company,
    ConvexPolygon,
    PriceVector,
    Scenario,
    ValidationError,
    solve_areas_q0,
)
from marketcells.areas import _bisectors
from marketcells.geometry import (
    _clip_rows,
    clip_by_halfplane,
    clip_cell,
    loop_area,
    loop_areas,
    window_contacts,
)

from helpers import aggregate_price, lattice_2d

WINDOW = Box((-10.0, -10.0), (10.0, 10.0))
NO_PLANES = (np.zeros((0, 2)), np.zeros(0))


def unit_square(x0=0.0, y0=0.0):
    return ConvexPolygon(
        np.array([[x0, y0], [x0 + 1, y0], [x0 + 1, y0 + 1], [x0, y0 + 1]])
    )


def pair(xi, wi, xj, wj) -> Scenario:
    """Two frozen companies in ``WINDOW`` priced at their weights."""
    return Scenario(
        dimension=2,
        beta=0.0,
        q=0,
        companies=(Company(0, tuple(xi), wi, True), Company(1, tuple(xj), wj, True)),
        focal_box_half=10.0,
        price_upper=10.0,
        window=WINDOW,
    )


def gap(scn: Scenario, x) -> float:
    """``b - a . x`` of company 0's one half-plane against company 1."""
    _, normals, offsets, *_ = _bisectors(
        scn.positions, PriceVector.from_scenario(scn).as_array(), np.array([0])
    )
    return float(offsets[0, 0] - normals[0, 0] @ np.asarray(x, dtype=float))


def price_gap(scn: Scenario, x) -> float:
    """Company 1's aggregate price minus company 0's at ``x``."""
    return aggregate_price(scn, 1, x, 0.0) - aggregate_price(scn, 0, x, 0.0)


def clip(normals, offsets, anchor=(0.0, 0.0)):
    """``clip_cell`` of the half-planes, put in cut order: by the distance
    of their boundary from ``anchor``."""
    anchor = np.asarray(anchor, dtype=float)
    normals = np.asarray(normals, dtype=float).reshape(-1, 2)
    offsets = np.asarray(offsets, dtype=float)
    dists = (offsets - normals @ anchor) / np.hypot(normals[:, 0], normals[:, 1])
    order = np.argsort(dists, kind="stable")
    return clip_cell(anchor, normals[order], offsets[order], dists[order], WINDOW)


def touches_window(verts):
    """``window_contacts`` of one loop, padded so that an empty loop is a
    row with no vertices."""
    padded = np.zeros((1, max(1, len(verts)), 2))
    padded[0, : len(verts)] = verts
    return bool(window_contacts(padded, np.array([len(verts)]), WINDOW)[0])


def random_planes(rng, count, lo, hi):
    """Unit normals with offsets in ``[lo, hi]``: the origin is inside."""
    normals = rng.normal(size=(count, 2))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return normals, rng.uniform(lo, hi, size=count)


def lattice_partition(center_price: float = 1.0, prices=None):
    """3x3 unit lattice, everyone at price 1 unless stated: company
    ``3 i + j`` sits at ``(i, j)`` and the center (4) is the one optimizer."""
    scn = lattice_2d(3, boundary_price=1.0, interior_price=1.0)
    values = [1.0] * 9 if prices is None else list(prices)
    values[4] = center_price
    return solve_areas_q0(scn, PriceVector(tuple(values)))


def borders(part, cid) -> dict[int, float]:
    return {e.company_id: e.border_length for e in part.neighbors[cid]}


class TestBisector:
    def test_perpendicular_bisector_for_equal_weights(self):
        scn = pair((0.0, 0.0), 1.0, (2.0, 0.0), 1.0)
        # boundary x = 1; the first company's side is where the gap is positive
        assert gap(scn, (1.0, 5.0)) == pytest.approx(0.0)
        assert gap(scn, (0.5, 0.0)) > 0
        assert gap(scn, (1.5, 0.0)) < 0
        for x in [(1.0, 5.0), (0.5, 0.0), (1.5, 0.0)]:
            assert gap(scn, x) == pytest.approx(price_gap(scn, x))

    def test_weight_gap_shifts_boundary(self):
        # lighter weight on the left pushes the boundary right:
        # 0 + x^2 = 1 + (x-2)^2 solves to x = 1.25
        scn = pair((0.0, 0.0), 0.0, (2.0, 0.0), 1.0)
        assert gap(scn, (1.25, -3.0)) == pytest.approx(0.0)
        assert gap(scn, (1.249, 0.0)) > 0
        assert gap(scn, (1.249, 0.0)) == pytest.approx(price_gap(scn, (1.249, 0.0)))

    def test_vertical_pair(self):
        scn = pair((0.0, 0.0), 1.0, (0.0, 2.0), 1.0)
        assert gap(scn, (7.0, 1.0)) == pytest.approx(0.0)
        assert gap(scn, (0.0, 0.5)) > 0

    def test_coincident_positions_rejected(self):
        # a shared position has no bisector; the scenario refuses it
        with pytest.raises(ValidationError, match="share a position"):
            pair((1.0, 1.0), 0.0, (1.0, 1.0), 1.0)

    def test_grid_agreement(self):
        # the gap is the aggregate-price difference at every sampled point
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi, xj = rng.uniform(-3, 3, size=(2, 2))
            if np.linalg.norm(xi - xj) < 0.1:
                continue
            wi, wj = rng.uniform(0, 2, size=2)
            scn = pair(xi, float(wi), xj, float(wj))
            plane_ids, normals, offsets, *_ = _bisectors(
                scn.positions, np.array([wi, wj]), np.array([0])
            )
            assert plane_ids.tolist() == [[1]]
            pts = rng.uniform(-5, 5, size=(200, 2))
            gaps = offsets[0, 0] - pts @ normals[0, 0]
            price_i = wi + ((pts - xi) ** 2).sum(axis=1)
            price_j = wj + ((pts - xj) ** 2).sum(axis=1)
            np.testing.assert_allclose(gaps, price_j - price_i, atol=1e-12)
            for p, g in zip(pts[:10], gaps[:10]):
                assert g == pytest.approx(price_gap(scn, p), abs=1e-12)


class TestIntersect:
    def test_unit_square_from_four_halfplanes(self):
        verts = clip([(-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0)], [0.0, 1.0, 0.0, 1.0],
                     anchor=(0.5, 0.5))
        assert len(verts) == 4
        assert not touches_window(verts)
        assert ConvexPolygon(verts).area == pytest.approx(1.0)

    def test_contradictory_halfplanes_empty(self):
        verts = clip([(1.0, 0.0), (-1.0, 0.0)], [0.0, -1.0])
        assert len(verts) == 0
        assert not touches_window(verts)

    def test_single_halfplane_touches_window(self):
        verts = clip([(1.0, 0.0)], [0.0])
        assert touches_window(verts)
        assert ConvexPolygon(verts).area == pytest.approx(200.0)

    def test_no_planes_is_window(self):
        verts = clip(*NO_PLANES)
        assert touches_window(verts)
        assert ConvexPolygon(verts).area == pytest.approx(400.0)

    def test_membership_split(self):
        # sampled interior points satisfy all constraints; points outside
        # the returned polygon violate at least one
        rng = np.random.default_rng(11)
        for _ in range(25):
            normals, offsets = random_planes(rng, 6, 0.5, 4.0)
            verts = clip(normals, offsets)
            if len(verts) == 0:
                continue
            poly = ConvexPolygon(verts)
            pts = rng.uniform(-10, 10, size=(300, 2))
            for p in pts:
                violations = float(np.max(normals @ p - offsets))
                inside_win = bool(np.all(np.abs(p) <= 10.0))
                if poly.contains(p, tol=-1e-9):  # strictly inside
                    assert violations <= 1e-9 and inside_win
                elif violations < -1e-7 and inside_win:
                    assert poly.contains(p, tol=1e-7)

    def test_monte_carlo_area(self):
        rng = np.random.default_rng(5)
        normals, offsets = random_planes(rng, 5, 1.0, 5.0)
        verts = clip(normals, offsets)
        assert len(verts) >= 3
        pts = rng.uniform(-10, 10, size=(200_000, 2))
        hits = np.all(pts @ normals.T - offsets <= 0.0, axis=1)
        estimate = 400.0 * hits.mean()
        area = ConvexPolygon(verts).area
        assert abs(area - estimate) < 4.0 * 400.0 * np.sqrt(
            hits.mean() * (1 - hits.mean()) / len(pts)
        ) + 1e-9


class TestPolygonMeasures:
    def test_unit_square_area(self):
        assert unit_square().area == pytest.approx(1.0)

    def test_convexity_check(self):
        assert unit_square().is_convex()

    def test_shared_edge_full_side(self):
        # equal prices: the center owns the unit square around it, one full
        # side against each of its four lattice neighbors
        part = lattice_partition()
        assert part.areas[4] == pytest.approx(1.0)
        side = borders(part, 4)
        for cid in (1, 3, 5, 7):
            assert side[cid] == pytest.approx(1.0, abs=1e-7)

    def test_shared_corner_is_zero_length_contact(self):
        # diagonal lattice neighbors meet at one corner: a zero-length
        # neighbor edge, flagged as a potential competitor
        part = lattice_partition()
        edges = {e.company_id: e for e in part.neighbors[4]}
        for cid in (0, 2, 6, 8):
            assert edges[cid].border_length == 0.0
            assert edges[cid].potential_competitor
            assert edges[cid].distance == pytest.approx(math.sqrt(2.0))
            assert cid in part.potential_competitors[4]
        assert borders(part, 1)[3] == 0.0

    def test_partial_overlap(self):
        # a center priced 0.5 above its neighbors pulls each side in by
        # 0.25, so it covers half of each neighbor's facing side; the freed
        # corner becomes an edge of length 0.25 sqrt 2 between side neighbors
        part = lattice_partition(center_price=1.5)
        assert part.areas[4] == pytest.approx(0.25)
        assert set(borders(part, 4)) == {1, 3, 5, 7}
        for cid in (1, 3, 5, 7):
            assert borders(part, 4)[cid] == pytest.approx(0.5, abs=1e-7)
        assert borders(part, 1)[3] == pytest.approx(0.25 * math.sqrt(2.0), abs=1e-7)
        assert not part.potential_competitors[4]

    def test_disjoint(self):
        part = lattice_partition()
        assert set(borders(part, 0)) == {1, 3, 4}
        assert 8 not in borders(part, 0)
        assert 2 not in borders(part, 0)

    def test_shared_edge_symmetric(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            part = lattice_partition(
                float(rng.uniform(0.6, 1.4)), prices=rng.uniform(0.8, 1.2, size=9)
            )
            for cid, edges in part.neighbors.items():
                for e in edges:
                    back = {f.company_id: f for f in part.neighbors[e.company_id]}[cid]
                    assert (back.border_length, back.distance, back.potential_competitor) == (
                        e.border_length, e.distance, e.potential_competitor
                    )

    @given(
        center=st.floats(0.6, 1.4),
        corner=st.floats(0.6, 1.4),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_edge_symmetric_hypothesis(self, center, corner):
        # the center's cell is interior, so its borders add up to its perimeter
        prices = [1.0] * 9
        prices[0] = corner
        part = lattice_partition(center, prices=prices)
        lengths = borders(part, 4)
        assert sum(lengths.values()) == pytest.approx(part.cells[4].perimeter, abs=1e-7)
        for cid, length in lengths.items():
            assert borders(part, cid)[4] == length


def star_loops(rng, counts, width):
    """Star-shaped loops of ``counts[r]`` vertices around random centers,
    counterclockwise, zero-padded to ``width``."""
    loops = np.zeros((len(counts), width, 2))
    for r, m in enumerate(counts):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
        radii = rng.uniform(0.5, 2.0, m)
        loops[r, :m] = rng.uniform(-3.0, 3.0, 2) + np.stack(
            [radii * np.cos(angles), radii * np.sin(angles)], axis=1
        )
    return loops


class TestOneArithmetic:
    """The one-cell clip and the batched rows cut and measure a loop with
    the same arithmetic, so a cell is the same bits on either path."""

    def test_halfplane_cut_is_a_batched_row(self):
        rng = np.random.default_rng(18)
        rows = 2_000
        loops = star_loops(rng, [6] * rows, 6)
        a = rng.normal(size=(rows, 2))
        b = np.sum(a * loops.mean(axis=1), axis=1) + rng.uniform(-1.0, 1.0, rows)
        cut, counts = _clip_rows(loops, np.full(rows, 6), a, b)
        assert 0 < np.count_nonzero((counts > 0) & (counts != 6)) < rows
        for r in range(rows):
            assert np.array_equal(clip_by_halfplane(loops[r], a[r], b[r]), cut[r, : counts[r]]), r

    @pytest.mark.parametrize(
        "corner, a, b, expected",
        [
            (0.0, (1.0, 1.0), 1.0, [(0, 0), (1, 0), (0, 1)]),
            (0.0, (1.0, 2.0), 1.0, [(0, 0), (1, 0), (0, 0.5)]),
            (0.0, (1.0, 1.0), 2.0, [(0, 0), (1, 0), (1, 1), (0, 1)]),
            (0.0, (0.0, 1.0), 0.0, [(0, 0), (1, 0)]),
            # the line passes an ulp off (1.1, 1.1); the cut point on the
            # square's right side rounds onto that vertex
            (0.1, (1.0, -2.0), -1.0999999999999999, [(1.1, 1.1), (0.1, 1.1), (0.1, 0.6)]),
        ],
        ids=["two-vertices", "one-vertex", "touching-vertex", "along-an-edge", "rounds-onto-a-vertex"],
    )
    def test_cut_through_vertices_repeats_none(self, corner, a, b, expected):
        # a vertex on the line is kept once, never again as an intersection
        square = corner + np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        a = np.array(a)
        loop = clip_by_halfplane(square, a, b)
        cut, counts = _clip_rows(square[None], np.array([4]), a[None], np.array([b]))
        assert loop.tolist() == np.array(expected, dtype=float).tolist()
        assert np.array_equal(cut[0, : counts[0]], loop)

    def test_padded_loop_area_is_the_bare_loop_area(self):
        rng = np.random.default_rng(19)
        counts = rng.integers(3, 17, size=300)
        loops = star_loops(rng, counts, 24)
        area = loop_areas(loops, counts)
        assert area.tolist() == [loop_area(loops[r, :m]) for r, m in enumerate(counts)]
