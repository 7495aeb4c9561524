"""Market partition solvers: direct diagrams, brand feedback, wipe-out."""

import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from marketcells import (
    Box,
    PriceVector,
    WindowTooSmall,
    compute_wipeout_diagnostics,
    iterate_best_response,
    load_scenario,
    solve_areas_q0,
    solve_areas_q1_1d,
    solve_partition,
    wipeout_threshold,
)
from marketcells import areas
from marketcells.errors import BoundaryCompany, MarketCellsError

from helpers import (
    aggregate_price,
    assert_moved_is_the_partition,
    assert_same_partition,
    brand_triple,
    jittered_lattice_2d,
    lattice_2d,
    line_scenario,
    plane_scenario,
    random_line_scenario,
    random_plane_scenario,
    random_scenario,
    reference_partition_2d,
    reference_solve_line,
    ring_market,
    triple_q1,
)

PLANE_LATTICE = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "plane_lattice.json"


class TestLineDirect:
    def test_symmetric_pair_splits_in_the_middle(self):
        scn = line_scenario([0.0, 2.0], [1.0, 1.0])
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        cell = part.cells[0]
        assert cell.hi == pytest.approx(1.0)
        assert part.areas[0] == pytest.approx(part.areas[1])

    def test_price_gap_boundary(self):
        # (price_right - price_left + x_r^2 - x_l^2) / (2 spacing) = 1.25
        scn = line_scenario([0.0, 2.0], [0.0, 1.0])
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        assert part.cells[0].hi == pytest.approx(1.25)
        assert part.cells[1].lo == pytest.approx(1.25)

    def test_consecutive_survivors_share_boundaries(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            scn = random_line_scenario(rng, q=0)
            part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
            by_pos = sorted(
                part.survivors, key=lambda cid: scn.company(cid).position[0]
            )
            for a, b in zip(by_pos[:-1], by_pos[1:]):
                assert part.cells[a].hi == pytest.approx(part.cells[b].lo, abs=1e-12)

    def test_high_priced_company_eliminated_and_flagged_nowhere(self):
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 5.9, 1.0])
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        assert part.survivors == {0, 2}
        assert part.areas[1] == 0.0
        assert part.cells[1] is None
        # after elimination the remaining pair are each other's neighbors
        assert [e.company_id for e in part.neighbors[0]] == [2]

    def test_areas_cover_window(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            scn = random_line_scenario(rng, q=0)
            part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
            total = sum(part.areas.values())
            assert total == pytest.approx(scn.window.measure, rel=1e-12)

    def test_window_too_small_when_focal_reaches_edge(self):
        # the frozen flanks are priced out of the entire line
        scn2 = line_scenario(
            [-1.0, 0.0, 1.0], [5.5, 0.1, 5.5], frozen=[True, False, True]
        )
        part = solve_areas_q0(scn2, PriceVector.from_scenario(scn2), check_window=False)
        assert part.survivors == {1}
        with pytest.raises(WindowTooSmall):
            solve_areas_q0(scn2, PriceVector.from_scenario(scn2))


class TestPlaneDirect:
    def test_unit_lattice_interior_cells(self):
        scn = lattice_2d(n=5)
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        mid = 12  # company at (2, 2)
        assert part.areas[mid] == pytest.approx(1.0, abs=1e-9)
        edges = {e.company_id: e for e in part.neighbors[mid] if e.border_length > 0}
        assert sorted(edges) == [7, 11, 13, 17]
        for e in edges.values():
            assert e.border_length == pytest.approx(1.0, abs=1e-7)
            assert e.distance == pytest.approx(1.0)
        # diagonal companies touch only at cell corners
        assert part.potential_competitors[mid] == {6, 8, 16, 18}

    def test_monotone_area_in_own_price(self):
        scn = lattice_2d(n=5)
        base = PriceVector.from_scenario(scn)
        mid = 12
        areas = []
        for price in np.linspace(0.2, 3.0, 12):
            part = solve_areas_q0(
                scn, base.with_price(scn, mid, float(price)), check_window=False
            )
            areas.append(part.areas[mid])
        diffs = np.diff(areas)
        assert np.all(diffs <= 1e-12)
        positive = [a for a in areas if a > 1e-9]
        assert np.all(np.diff(positive) < 0)

    def test_finite_difference_matches_border_sum(self):
        # dS/dP = -sum of border length over twice the distance
        scn = lattice_2d(n=5)
        base = PriceVector.from_scenario(scn)
        mid = 12
        part = solve_areas_q0(scn, base)
        gamma = part.gamma(mid)
        h = 1e-6
        up = solve_areas_q0(scn, base.with_price(scn, mid, 1.0 + h), check_window=False)
        dn = solve_areas_q0(scn, base.with_price(scn, mid, 1.0 - h), check_window=False)
        fd = (up.areas[mid] - dn.areas[mid]) / (2 * h)
        assert fd == pytest.approx(-gamma, rel=1e-6)

    def test_every_cell_is_convex(self):
        scn = lattice_2d(n=5)
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        for cid in part.survivors:
            assert part.cells[cid].is_convex()

    def test_neighbor_relation_symmetric(self):
        scn = lattice_2d(n=5)
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        for cid, edges in part.neighbors.items():
            for e in edges:
                back = {b.company_id: b for b in part.neighbors[e.company_id]}
                assert cid in back
                assert back[cid].border_length == pytest.approx(
                    e.border_length, abs=1e-9
                )


class TestBrandFeedbackLine:
    def test_beta_zero_matches_direct_solver(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            scn = random_line_scenario(rng, q=1)
            scn = scn.with_beta(0.0)
            pv = PriceVector.from_scenario(scn)
            part_q1, _ = solve_areas_q1_1d(scn, pv, check_window=False)
            part_q0 = solve_areas_q0(scn, pv, check_window=False)
            for cid in part_q0.areas:
                assert part_q1.areas[cid] == pytest.approx(
                    part_q0.areas[cid], abs=1e-12
                )

    def test_symmetric_triple_all_survive(self):
        part, diag = solve_areas_q1_1d(
            triple_q1(0.5), PriceVector.from_scenario(triple_q1(0.5))
        )
        assert part.survivors == {0, 1, 2}
        assert part.areas[1] == pytest.approx(1.0)
        assert diag.psi[1] > 0
        assert diag.thresholds[1] == pytest.approx(1.0)

    def test_asymmetric_prices_match_hand_solve(self):
        # dense 2x2 solve by hand: boundaries 0.1875 and 1.9375
        scn = triple_q1(0.4)
        pv = PriceVector((1.0, 0.8, 1.2))
        part, _ = solve_areas_q1_1d(scn, pv)
        assert part.areas[0] == pytest.approx(0.6875, abs=1e-12)
        assert part.areas[1] == pytest.approx(1.75, abs=1e-12)
        assert part.areas[2] == pytest.approx(0.5625, abs=1e-12)

    def test_strong_brand_weight_wipes_middle(self):
        scn = triple_q1(1.2)
        part, diag = solve_areas_q1_1d(scn, PriceVector.from_scenario(scn))
        assert part.survivors == {0, 2}
        assert part.areas[1] == 0.0
        assert diag.psi[1] <= 0.0
        assert diag.thresholds[1] == pytest.approx(1.0)

    def test_survival_flips_at_the_harmonic_threshold(self):
        for beta, survives in [(0.9, True), (1.1, False)]:
            scn = triple_q1(beta)
            part, _ = solve_areas_q1_1d(scn, PriceVector.from_scenario(scn))
            assert (1 in part.survivors) == survives

    def test_fixed_point_consistency(self):
        # re-evaluating aggregate prices with solved areas reproduces ownership
        rng = np.random.default_rng(17)
        for _ in range(10):
            scn = random_line_scenario(rng, q=1)
            pv = PriceVector.from_scenario(scn)
            part, _ = solve_areas_q1_1d(scn, pv, check_window=False)
            xs = np.linspace(scn.window.lo[0] + 1e-6, scn.window.hi[0] - 1e-6, 400)
            for x in xs:
                fields = {
                    c.id: aggregate_price(
                        scn, c.id, (x,), part.areas[c.id],
                        price=pv.price_of(scn, c.id),
                    )
                    for c in scn.companies
                }
                owner = min(fields, key=fields.get)
                cell = part.cells[owner]
                assert cell is not None
                assert cell.lo - 1e-7 <= x <= cell.hi + 1e-7

    def test_area_monotone_in_own_price(self):
        scn = triple_q1(0.4)
        base = PriceVector.from_scenario(scn)
        areas = []
        for price in np.linspace(0.0, 3.0, 16):
            part, _ = solve_areas_q1_1d(
                scn, base.with_price(scn, 1, float(price)), check_window=False
            )
            areas.append(part.areas[1])
        assert np.all(np.diff(areas) <= 1e-12)

    def test_dominant_middle_takes_window_when_cheap(self):
        # strong feedback plus a low price: the middle owns everything
        scn = triple_q1(0.9)
        pv = PriceVector((1.0, 0.0, 1.0))
        part, _ = solve_areas_q1_1d(scn, pv, check_window=False)
        assert part.survivors == {1}
        assert part.areas[1] == pytest.approx(3.0)


class TestWipeoutDiagnostics:
    def test_symmetric_triple_without_brand_weight(self):
        scn = triple_q1(0.0)
        pv = PriceVector.from_scenario(scn)
        part, _ = solve_areas_q1_1d(scn, pv)
        threshold, psi, entry = compute_wipeout_diagnostics(scn, pv, part, 1)
        assert entry == pytest.approx(1.0)
        assert psi == pytest.approx(1.0)
        assert threshold == pytest.approx(1.0)

    def test_overpriced_middle_cannot_survive(self):
        scn = triple_q1(0.0, prices=(1.0, 2.0, 1.0))
        pv = PriceVector.from_scenario(scn)
        part, _ = solve_areas_q1_1d(scn, pv)
        threshold, psi, entry = compute_wipeout_diagnostics(scn, pv, part, 1)
        # exact tie at the hidden boundary: margin zero, no market
        assert psi == pytest.approx(0.0, abs=1e-12)
        assert part.areas[1] == pytest.approx(0.0, abs=1e-9)
        scn2 = triple_q1(0.0, prices=(1.0, 2.5, 1.0))
        pv2 = PriceVector.from_scenario(scn2)
        part2, _ = solve_areas_q1_1d(scn2, pv2)
        _, psi2, _ = compute_wipeout_diagnostics(scn2, pv2, part2, 1)
        assert psi2 < 0
        assert part2.areas[1] == 0.0

    def test_hidden_reading_uses_reshared_areas(self):
        # hiding the middle hands each frozen flank half the window, so the
        # re-entry margin reflects those enlarged areas
        scn = triple_q1(1.2)
        pv = PriceVector.from_scenario(scn)
        part, _ = solve_areas_q1_1d(scn, pv)
        threshold, psi, entry = compute_wipeout_diagnostics(scn, pv, part, 1)
        assert entry == pytest.approx(1.0)
        assert psi == pytest.approx(1.0 - 1.2 * 1.5, abs=1e-12)  # = -0.8
        assert threshold == pytest.approx(1.0)

    def test_boundary_company_rejected(self):
        scn = triple_q1(0.5)
        pv = PriceVector.from_scenario(scn)
        part, _ = solve_areas_q1_1d(scn, pv)
        with pytest.raises(BoundaryCompany):
            compute_wipeout_diagnostics(scn, pv, part, 0)

    def test_threshold_arithmetic(self):
        assert wipeout_threshold(1.0, 1.0) == pytest.approx(1.0)
        assert wipeout_threshold(1.0, None) == pytest.approx(2.0)
        assert wipeout_threshold(None, None) == np.inf
        assert wipeout_threshold(2.0, 1.0) == pytest.approx(4.0 / 3.0)


class TestDegeneracies:
    def test_singular_brand_system(self):
        # at two thirds of the wipe-out threshold the boundary system of
        # the unit-spaced triple loses rank: a whole family of partitions
        # solves it, and the solver refuses to pick one
        from marketcells import SingularSystem

        scn = triple_q1(2.0 / 3.0)
        with pytest.raises(SingularSystem, match="threshold"):
            solve_areas_q1_1d(scn, PriceVector.from_scenario(scn))

    def test_curve_piece_ends_at_a_straight_vertex(self):
        # a vertex whose two edges lie on one line has no velocity of its
        # own, so the piece of the profit curve ends at once and the next
        # price clips its cell again
        window = Box((0.0, 0.0), (2.0, 2.0))
        square = window.corners()
        straight = np.insert(square, 1, [1.0, 0.0], axis=0)
        none = (np.zeros((0, 2)), np.zeros(0), window)
        assert areas._plane_piece(square, *none) == (0.0, 0.0, np.inf)
        assert areas._plane_piece(straight, *none) == (0.0, 0.0, 0.0)


def piece_markets():
    """The random suite's line seeds at both brand exponents, 25 price
    draws each, and the brand triple at weights where its solves take the
    damped fallback (0.9, 1.2) or not (0.3), 200 draws each: there an
    outsider's invasion gap now and then ends a piece."""
    lines = [
        pytest.param(
            random_line_scenario(np.random.default_rng(1000 + seed), q=q),
            25,
            id=f"line-q{q}-{1000 + seed}",
        )
        for q in (0, 1)
        for seed in range(10)
    ]
    return lines + [
        pytest.param(brand_triple(b), 200, id=f"triple-{b}") for b in (0.3, 0.9, 1.2)
    ]


class TestLinePiece:
    """The parametric line solve against the one-price reference solve."""

    @pytest.mark.parametrize("scn, draws", piece_markets())
    def test_matches_the_reference_solve(self, scn, draws):
        # same survivors and areas as the reference at random prices, and
        # inside the piece the same survivors again, with areas on the
        # piece's lines
        order, xs = areas.line_layout(scn)
        x = np.array(xs)
        beta = scn.beta if scn.q == 1 else 0.0
        lo, hi = scn.window.lo[0], scn.window.hi[0]
        eps = areas.area_tolerance(scn)
        tol = 1e-12 * (hi - lo)
        rng = np.random.default_rng(len(order) + int(100 * beta))
        solved = 0
        for _ in range(draws):
            p = rng.uniform(0.0, scn.price_upper, size=len(x))
            focal = int(rng.integers(len(x)))
            try:
                ref = reference_solve_line(x, p, beta, lo, hi, eps)
            except MarketCellsError as exc:
                with pytest.raises(type(exc)):
                    areas._solve_line(x, p, beta, lo, hi, eps, focal)
                continue
            piece = areas._solve_line(x, p, beta, lo, hi, eps, focal)
            assert piece.active == ref[0]
            assert np.max(np.abs(piece.areas - ref[2])) <= tol
            assert np.max(np.abs(piece.bounds - ref[1])) <= tol
            solved += 1
            for t in (0.25, 0.5, 0.9, 0.999):
                u = t * min(piece.reach, scn.price_upper)
                moved = p.copy()
                moved[focal] += u
                active, _, inside = reference_solve_line(x, moved, beta, lo, hi, eps)
                assert active == piece.active
                assert np.max(np.abs(inside - (piece.areas + u * piece.slopes))) <= tol
        assert solved >= 10

    @pytest.mark.parametrize("scn, draws", piece_markets()[10:])  # brand feedback only
    def test_invasion_gaps_move_on_their_lines(self, scn, draws):
        # each outsider's gap at each boundary, recorded by the solve as
        # an affine margin, against the gap the reference solve's state
        # gives halfway into the piece
        order, xs = areas.line_layout(scn)
        x = np.array(xs)
        lo, hi = scn.window.lo[0], scn.window.hi[0]
        eps = areas.area_tolerance(scn)
        tol = 1e-11 * max(1.0, (hi - lo) ** 2, scn.price_upper)
        rng = np.random.default_rng(len(order) + 7)
        checked = 0
        for _ in range(draws):
            p = rng.uniform(0.0, scn.price_upper, size=len(x))
            focal = int(rng.integers(len(x)))
            try:
                piece = areas._solve_line(x, p, scn.beta, lo, hi, eps, focal)
            except MarketCellsError:
                continue
            out = [k for k in range(len(x)) if k not in piece.active]
            if piece.damped or not out:
                continue
            eps_price = 1e-9 * max(1.0, float(np.abs(p).max()), (hi - lo) ** 2)
            margin, rate = piece.margins[-1].T  # the invasion decision comes last
            u = 0.5 * min(piece.reach, scn.price_upper)
            moved = p.copy()
            moved[focal] += u
            active, bounds, inside = reference_solve_line(x, moved, scn.beta, lo, hi, eps)
            fields = (
                moved[active, None] - scn.beta * inside[:, None]
                + (bounds - x[active][:, None]) ** 2
            )
            gap = moved[out, None] + (bounds - x[out][:, None]) ** 2 - fields.min(axis=0)
            assert np.max(np.abs(gap.ravel() - (margin - eps_price + u * rate))) <= tol
            checked += 1
        assert checked >= 10

    def test_singularity_agrees_with_the_condition_number(self):
        # boundary matrices near the weights where they lose rank: the
        # generalized eigenvalues of (2 D, 2 I - T), T the off-diagonal
        # ones, moved by relative steps from 1e-16 to 1e-1
        rng = np.random.default_rng(13)
        found = {True: 0, False: 0}
        for _ in range(300):
            d = rng.uniform(0.5, 1.5, size=int(rng.integers(1, 8)))
            pencil = -areas._boundary_matrix(np.zeros(len(d)), 1.0)  # 2 I - T
            roots = np.linalg.eigvals(np.linalg.solve(pencil, 2.0 * np.diag(d))).real
            root = float(rng.choice(roots))
            beta = root * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-16.0, -1.0))
            A = areas._boundary_matrix(d, beta)
            cond = np.linalg.cond(A)
            if 1e11 <= cond <= 1e13:
                continue
            assert areas.singular_boundaries(A) == (cond > 1e12), (d, beta, cond)
            found[bool(cond > 1e12)] += 1
        assert min(found.values()) >= 20, found
        # an exactly zero eigenvalue
        assert areas.singular_boundaries(areas._boundary_matrix(np.array([0.7]), 0.7))


class TestPotentialCompetitors:
    def test_exact_tie_on_line_flagged(self):
        # middle at price 2 ties the survivors exactly at x = 1
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 2.0, 1.0])
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        assert part.survivors == {0, 2}
        assert 1 in part.potential_competitors[0]
        assert 1 in part.potential_competitors[2]
        assert part.has_potential_competitor(0)

    def test_generic_prices_unflagged(self):
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 1.1, 1.0])
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        assert part.survivors == {0, 1, 2}
        assert not part.has_potential_competitor(0)
        assert not part.has_potential_competitor(1)

    def test_line_ties_match_a_scan_of_every_boundary(self):
        # Every third company priced to tie its flanks' boundary exactly,
        # every sixth just above that, so it loses without a tie.
        n = 31
        prices = [1.0] * n
        for k in range(1, n - 1, 3):
            prices[k] = 2.0 + (1e-3 if k % 6 == 4 else 0.0)
        positions = [float(k) for k in range(n)]
        scn = line_scenario(positions, prices)
        part = solve_areas_q0(scn, PriceVector.from_scenario(scn))
        lo, hi = scn.window.lo[0], scn.window.hi[0]
        tol = areas._TIE_RTOL * max(1.0, scn.price_upper)
        expected = {cid: set() for cid in scn.ids}
        for cid in part.survivors:
            cell = part.cells[cid]
            for x in (cell.lo, cell.hi):
                if x in (lo, hi):
                    continue
                own = aggregate_price(scn, cid, (x,), part.areas[cid])
                for other in set(scn.ids) - part.survivors:
                    if abs(aggregate_price(scn, other, (x,), 0.0) - own) <= tol:
                        expected[cid].add(other)
        assert part.survivors == {k for k in range(n) if k % 3 != 1}
        assert {cid: set(s) for cid, s in part.potential_competitors.items()} == expected
        assert expected[0] == expected[2] == {1} and expected[3] == set()


def plane_market(name):
    """A plane market by name: ``random-<seed>`` from the acceptance
    suite's stream, the ``plane_lattice`` demo, or ``jittered-<side>``."""
    if name.startswith("random-"):
        return random_plane_scenario(np.random.default_rng(2000 + int(name[7:])))
    if name == "plane_lattice":
        return load_scenario(PLANE_LATTICE.read_text())
    return jittered_lattice_2d(np.random.default_rng([1101, 4]), int(name[9:]))


def bit_markets(name):
    """``(scenario, prices)`` pairs by name: the ``plane_lattice`` demo at
    its own prices or (``-equilibrium``) at its equilibrium, the
    ``jittered-<side>`` lattice drawn from seed 1101, or (``rings``) four
    rings of three free companies drawn from seed 1101."""
    if name.startswith("plane_lattice"):
        scn = load_scenario(PLANE_LATTICE.read_text())
        pv = PriceVector.from_scenario(scn)
        if name.endswith("-equilibrium"):
            pv = iterate_best_response(scn).prices
        return [(scn, pv)]
    if name == "rings":
        rng = np.random.default_rng(1101)
        scns = [ring_market(rng, 3) for _ in range(4)]
    else:
        scns = [jittered_lattice_2d(np.random.default_rng(1101), int(name[9:]))]
    return [(scn, PriceVector.from_scenario(scn)) for scn in scns]


def partition_notes(caplog, scn, prices):
    """The partition at ``prices`` and the row counts its debug line
    reports: rows re-cut with every bisector by reason (``reach``,
    ``tie``)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="marketcells.areas"):
        part = solve_partition(scn, prices, check_window=False)
    (record,) = [r for r in caplog.records if r.msg.startswith("partition")]
    counts = dict(zip(("reach", "tie"), record.args[-2:]))
    return part, counts


class TestBatchedPartition:
    @pytest.mark.parametrize(
        "name",
        [f"random-{seed}" for seed in range(8)]
        + ["plane_lattice", "plane_lattice-equilibrium", "jittered-15", "jittered-25"],
    )
    def test_matches_per_company_clip(self, name, caplog, monkeypatch):
        scn = plane_market(name.removesuffix("-equilibrium"))
        pv = PriceVector.from_scenario(scn)
        if name.endswith("-equilibrium"):
            # prices tie, so four cells meet at each lattice corner
            pv = iterate_best_response(scn).prices
        clips, clip_cell = [], areas.clip_cell
        monkeypatch.setattr(areas, "clip_cell", lambda *a: clips.append(a) or clip_cell(*a))
        part, notes = partition_notes(caplog, scn, pv)
        assert clips == []
        # the batched rows are the one-cell clips to the bit
        assert_same_partition(part, reference_partition_2d(scn, pv), 0.0)
        assert sum(notes.values()) <= 3
        if name.endswith("-equilibrium"):
            # every cell is its lattice square, one or two units a side,
            # with no short edge where the corners meet
            shortest = []
            for cid in part.survivors:
                verts = part.cells[cid].vertices
                assert len(verts) == 4, cid
                shortest.append(np.hypot(*(np.roll(verts, -1, axis=0) - verts).T).min())
            assert abs(min(shortest) - 1.0) <= 1e-12

    @pytest.mark.parametrize("name", ["random-0", "plane_lattice", "jittered-15"])
    def test_two_nearest_planes_fall_back_to_the_scalar_clip(self, name, caplog, monkeypatch):
        monkeypatch.setattr(areas, "_NEAREST", 2)
        scn = plane_market(name)
        pv = PriceVector.from_scenario(scn)
        part, notes = partition_notes(caplog, scn, pv)
        assert_same_partition(part, reference_partition_2d(scn, pv), max(1.0, scn.window.diameter))
        assert notes["reach"] >= len(scn.companies) // 2

    def test_tie_beyond_the_nearest_planes(self, caplog, monkeypatch):
        # Center 12 of a uniform 5x5 lattice with its four diagonal
        # neighbors dearer by 3.5e-8: their bisectors pass 1.2e-8 beyond
        # its corners, past the clip tolerance (1e-8) but within the tie
        # tolerance (4e-8).  Cut with its four nearest planes only, the
        # center must still see them as potential competitors.
        monkeypatch.setattr(areas, "_NEAREST", 4)
        scn = lattice_2d(n=5, boundary_price=1.0, interior_price=1.0)
        pv = PriceVector.from_scenario(scn)
        for cid in (6, 8, 16, 18):
            pv = pv.with_price(scn, cid, 1.0 + 3.5e-8)
        part, notes = partition_notes(caplog, scn, pv)
        assert_same_partition(part, reference_partition_2d(scn, pv), scn.window.diameter)
        assert notes["tie"] >= 1
        assert part.potential_competitors[12] == {6, 8, 16, 18}

    @pytest.mark.parametrize(
        "delta, potential",
        [
            (1e-10, {6, 8, 16, 18}),
            (1e-9, {6, 8, 16, 18}),
            (5e-9, {6, 8, 16, 18}),
            (1e-8, {6, 8, 16, 18}),
            (2e-8, {8, 16, 18}),
        ],
        ids=["1e-10", "1e-09", "5e-09", "1e-08", "2e-08"],
    )
    def test_cell_where_cells_nearly_meet_is_exact(self, delta, potential):
        # A diagonal neighbor cheaper by delta cuts the center's corner with
        # an edge delta / sqrt(2) long.  It is a border however short: the
        # cell keeps 5 vertices, gamma = 2 - delta / 4 is the one-cell
        # slope, and the one-cell piece ends where the edge closes.  Below
        # zero_border (about 9.9e-9 here) the border still marks company 6
        # a potential competitor, as the exact corner ties mark the others.
        scn = lattice_2d(n=5, boundary_price=1.0, interior_price=1.0)
        pv = PriceVector.from_scenario(scn).with_price(scn, 6, 1.0 - delta)
        part = solve_partition(scn, pv, check_window=False)
        assert_same_partition(part, reference_partition_2d(scn, pv), scn.window.diameter)
        assert len(part.cells[12]) == 5
        border = {e.company_id: e.border_length for e in part.neighbors[12]}
        # the cut points carry a few ulps of the lattice coordinates
        assert border[6] == pytest.approx(delta / np.sqrt(2.0), rel=0.0, abs=4e-15)
        assert part.potential_competitors[12] == potential
        piece = areas.fast_signature(scn, pv.as_array(), 12)
        gamma = part.gamma(12)
        assert gamma == pytest.approx(-piece.slope, rel=1e-15, abs=0.0)
        # within 1e-14, far below the 2.25e-10 gamma step between two
        # neighboring deltas, so gamma falls strictly as delta grows
        assert gamma == pytest.approx(2.0 - delta / 4.0, rel=0.0, abs=1e-14)
        assert piece.reach == pytest.approx(delta, rel=0.0, abs=4e-15)

    def test_roundoff_sliver_reads_as_a_corner_tie(self):
        # Company 4's bisector passes through cell 10's corner (0.75, 3.5),
        # where 3's and 11's meet; roundoff leaves a 6.3e-16 edge there.
        # The edge stays, ends the one-cell piece at once, and changes no
        # neighbor: 4 and 18 still tie at corners with border 0.
        scn = lattice_2d(n=7)
        pv = PriceVector.from_scenario(scn).with_price(scn, 9, 1.0 - 2.0**-20)
        part = solve_partition(scn, pv, check_window=False)
        assert_same_partition(part, reference_partition_2d(scn, pv), 0.0)
        verts = part.cells[10].vertices
        assert len(verts) == 5
        assert np.hypot(*(np.roll(verts, -1, axis=0) - verts).T).min() < 1e-15
        assert [
            (e.company_id, e.border_length == 0.0, e.potential_competitor)
            for e in part.neighbors[10]
        ] == [
            (3, False, False), (9, False, False), (11, False, False),
            (17, False, False), (4, True, True), (18, True, True),
        ]
        assert part.potential_competitors[10] == {4, 18}
        assert part.potential_competitors[4] == {10, 12}
        assert part.potential_competitors[18] == {10, 12, 24, 26}
        assert part.gamma(10) == pytest.approx(1.75 - 2.0**-21, rel=1e-15, abs=0.0)
        assert areas.fast_signature(scn, pv.as_array(), 10).reach < 1e-15

    @pytest.mark.parametrize(
        "name",
        ["plane_lattice", "plane_lattice-equilibrium", "jittered-7", "jittered-15",
         "jittered-25", "rings"],
    )
    def test_one_cell_area_is_the_partition_area(self, name):
        # fast_area and fast_signature clip one cell, the partition clips
        # rows in batches; both build, cut and measure it with one arithmetic
        for scn, pv in bit_markets(name):
            part = solve_partition(scn, pv, check_window=False)
            values = pv.as_array()
            for c in scn.companies:
                area = areas.fast_area(scn, values, c.id)
                assert areas.fast_signature(scn, values, c.id).area == area
                if c.id in part.survivors:
                    assert area == part.areas[c.id], c.id
                else:
                    assert area <= areas.area_tolerance(scn), c.id

    @pytest.mark.parametrize("seed", [1101, 1102])
    @pytest.mark.parametrize("side", [7, 15])
    def test_same_partition_whichever_rows_are_cut_again(self, seed, side, caplog, monkeypatch):
        # with four nearest planes most rows are cut again with every
        # bisector; the partition must not change in any bit
        scn = jittered_lattice_2d(np.random.default_rng([seed, side]), side)
        pv = PriceVector.from_scenario(scn)
        full = solve_partition(scn, pv, check_window=False)
        monkeypatch.setattr(areas, "_NEAREST", 4)
        part, notes = partition_notes(caplog, scn, pv)
        assert notes["reach"] >= len(scn.companies) // 4
        assert part.survivors == full.survivors
        assert part.areas == full.areas
        assert part.neighbors == full.neighbors
        assert part.potential_competitors == full.potential_competitors
        for cid, cell in full.cells.items():
            if cell is None:
                assert part.cells[cid] is None, cid
            else:
                assert np.array_equal(part.cells[cid].vertices, cell.vertices), cid
        for name, column in full.edges._asdict().items():
            assert np.array_equal(getattr(part.edges, name), column), name

    def test_peak_memory_of_a_625_company_partition(self):
        # The per-company clip loop peaked at 1.7 MB here; the batched
        # blocks may add at most 1 MB.
        scn = jittered_lattice_2d(np.random.default_rng([1101, 4]), 25)
        pv = PriceVector.from_scenario(scn)
        solve_partition(scn, pv)
        tracemalloc.start()
        try:
            solve_partition(scn, pv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.7e6


def _price_area_residual(scn, values, optimizers):
    """``F_i = S_i - P_i gamma_i`` over ``optimizers`` (indices), from one
    partition at ``values``."""
    part = solve_partition(scn, PriceVector(tuple(values)), check_window=False)
    ids = [scn.ids[k] for k in optimizers]
    return np.array([part.areas[c] - values[k] * part.gamma(c) for c, k in zip(ids, optimizers)])


def jacobian_markets():
    """Off-equilibrium markets for the Jacobian checks: the acceptance
    suite's plane markets and the ``plane_lattice`` demo with their free
    prices scaled by up to 10%, and one line at its own prices."""
    rng = np.random.default_rng(88)
    out = []
    for name in [f"random-{k}" for k in range(8)] + ["plane_lattice"]:
        scn = plane_market(name)
        values = PriceVector.from_scenario(scn).as_array()
        free = [k for k, c in enumerate(scn.companies) if not c.frozen]
        values[free] *= rng.uniform(0.9, 1.1, size=len(free))
        out.append(pytest.param(scn, values, id=name))
    scn = random_line_scenario(np.random.default_rng(1003), q=0)
    out.append(pytest.param(scn, PriceVector.from_scenario(scn).as_array(), id="line-1003"))
    return out


def brand_jacobian_markets():
    """Brand-feedback lines at their own prices: criterion 8's first four,
    and ``brand_triple`` below and above the middle company's wipe-out
    threshold (above it the middle company holds no market)."""
    out = [
        pytest.param(random_line_scenario(np.random.default_rng(8000 + k), q=1), id=f"criterion-8-{k}")
        for k in range(4)
    ]
    out += [pytest.param(brand_triple(b), id=f"triple-{b}") for b in (0.5, 1.1)]
    return out


class TestAreaJacobian:
    @pytest.mark.parametrize("scn", brand_jacobian_markets())
    def test_brand_line_matches_central_differences(self, scn):
        # with the survivor set fixed the areas are affine in every price,
        # so central differences of separate solves differ only by roundoff
        values = PriceVector.from_scenario(scn).as_array()

        def solve(v):
            part = solve_partition(scn, PriceVector(tuple(v)), check_window=False)
            return part, np.array([part.areas[cid] for cid in scn.ids])

        part, _ = solve(values)
        d_area, d_gamma = areas.area_jacobian(scn, part)
        h = 1e-5
        numeric = np.empty_like(d_area)
        for k in range(len(values)):
            up, down = values.copy(), values.copy()
            up[k] += h
            down[k] -= h
            (part_up, s_up), (part_down, s_down) = solve(up), solve(down)
            assert part_up.survivors == part_down.survivors == part.survivors
            numeric[:, k] = (s_up - s_down) / (2.0 * h)
        assert np.max(np.abs(d_area - numeric)) <= 1e-8 * max(1.0, np.max(np.abs(d_area)))
        assert not d_gamma.any()
        # the feedback couples survivors that share no border, which the
        # brand-free l / (2 d) would leave at zero
        order = [k for k in areas.line_layout(scn)[0] if scn.ids[k] in part.survivors]
        if len(order) >= 3:
            assert abs(d_area[order[0], order[2]]) > 1e-3

    @pytest.mark.parametrize("scn, values", jacobian_markets())
    def test_matches_central_differences(self, scn, values):
        free = [k for k, c in enumerate(scn.companies) if not c.frozen]
        part = solve_partition(scn, PriceVector(tuple(values)), check_window=False)
        d_area, d_gamma = (m[np.ix_(free, free)] for m in areas.area_jacobian(scn, part))
        gamma = np.array([part.gamma(scn.ids[k]) for k in free])
        jacobian = d_area - np.diag(gamma) - values[free][:, None] * d_gamma
        h = 1e-5
        numeric = np.empty_like(jacobian)
        for col, k in enumerate(free):
            up, down = values.copy(), values.copy()
            up[k] += h
            down[k] -= h
            numeric[:, col] = (
                _price_area_residual(scn, up, free) - _price_area_residual(scn, down, free)
            ) / (2.0 * h)
        assert np.max(np.abs(jacobian - numeric)) <= 1e-6 * max(1.0, np.max(np.abs(jacobian)))
        if scn.dimension == 2:
            # the border-length derivatives carry weight: freezing gamma
            # would miss them
            assert np.max(np.abs(values[free][:, None] * d_gamma)) > 1e-2
        else:
            assert not d_gamma.any()

    @pytest.mark.parametrize("kind", ["line", "plane", "plane_lattice-equilibrium"])
    def test_diagonal_is_gamma_to_the_bit(self, kind):
        # Newton and the reports read -dS_ii as the competition intensity;
        # without brand feedback it must be part.gamma itself
        if kind == "plane_lattice-equilibrium":
            markets = bit_markets(kind)
        else:
            scns = [random_scenario(np.random.default_rng(k), kind) for k in range(30)]
            markets = [(scn, PriceVector.from_scenario(scn)) for scn in scns]
        for scn, pv in markets:
            part = solve_partition(scn, pv)
            diagonal = -np.diag(areas.area_jacobian(scn, part)[0])
            assert diagonal.tolist() == [part.gamma(cid) or 0.0 for cid in scn.ids]

    @pytest.mark.parametrize("name", ["random-0", "plane_lattice", "jittered-15"])
    def test_edge_table_carries_the_border_lengths(self, name):
        scn = plane_market(name)
        part = solve_partition(scn, PriceVector.from_scenario(scn), check_window=False)
        window = scn.window
        table = part.edges
        assert {scn.ids[k] for k in table.cell.tolist()} == part.survivors
        for cid in part.survivors:
            rows = np.flatnonzero(table.cell == scn.index_of[cid])
            # one loop per cell, its vertices the cell's, linked in order
            assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1)), cid
            assert np.array_equal(table.succ[rows], np.roll(rows, -1)), cid
            assert np.array_equal(table.prev[rows], np.roll(rows, 1)), cid
            owners, verts = table.owner[rows], part.cells[cid].vertices
            assert np.array_equal(table.start[rows], verts), cid
            ends = np.roll(verts, -1, axis=0)
            lengths = np.hypot(*(ends - verts).T)
            by_owner: dict[int, float] = {}
            normals = table.normal[rows]
            for owner, length, a, b, normal in zip(owners.tolist(), lengths, verts, ends, normals):
                if owner < 0:
                    on_side = np.isclose(a, window.lo) & np.isclose(b, window.lo)
                    on_side |= np.isclose(a, window.hi) & np.isclose(b, window.hi)
                    assert on_side.any(), (cid, a, b)
                    # the outward unit normal of that side
                    side = np.where(normal > 0.0, window.hi, window.lo)
                    assert np.abs(normal).sum() == 1.0 and np.isclose(normal @ a, normal @ side)
                else:
                    k = scn.index_of[cid]
                    assert np.array_equal(normal, 2.0 * (scn.positions[owner] - scn.positions[k]))
                    j = scn.ids[owner]
                    by_owner[j] = by_owner.get(j, 0.0) + length
            borders = {e.company_id: e.border_length for e in part.neighbors[cid] if e.border_length > 0}
            assert by_owner.keys() == borders.keys()
            for j, length in by_owner.items():
                assert length == pytest.approx(borders[j], abs=1e-12 * window.diameter)


def _partition_at(scn, weights):
    return solve_partition(scn, PriceVector(tuple(weights)), check_window=False)


class TestMovedPartition:
    def test_chained_moves_on_a_jittered_lattice_are_the_partition(self):
        # each move starts from the last one, so a drift would show
        scn = lattice_2d(7)
        rng = np.random.default_rng(23)
        free = np.array([not c.frozen for c in scn.companies])
        weights = PriceVector.from_scenario(scn).as_array()
        weights[free] = rng.uniform(0.6, 1.4, size=free.sum())
        part = _partition_at(scn, weights)
        for _ in range(6):
            weights = weights.copy()
            weights[free] += rng.uniform(-2e-3, 2e-3, size=free.sum())
            part = areas.moved_partition(scn, part, weights)
            assert part is not None
            assert_moved_is_the_partition(scn, part, weights)

    def test_refused_where_four_cells_meet_at_a_corner(self):
        scn = load_scenario(PLANE_LATTICE.read_text())
        weights = np.array([c.price if c.frozen else 0.5 for c in scn.companies])
        part = _partition_at(scn, weights)
        assert any(part.potential_competitors.values())
        assert areas.moved_partition(scn, part, weights) is None

    def test_refused_where_a_company_enters(self):
        scn = ring_market(np.random.default_rng([7, 1]))
        entering = PriceVector.from_scenario(scn).as_array()
        weights = entering.copy()
        weights[0] = scn.price_upper
        part = _partition_at(scn, weights)
        assert part.cells[0] is None and not any(part.potential_competitors.values())
        # a drop that leaves it out moves; one that lets it in does not
        weights[0] -= 0.1
        assert_moved_is_the_partition(scn, areas.moved_partition(scn, part, weights), weights)
        assert areas.moved_partition(scn, part, entering) is None
        assert _partition_at(scn, entering).areas[0] > 1.0

    def test_refused_where_an_edge_closes(self):
        # 0 and 1 share the edge x = 0, |y| <= (P_2 - P_0) / 2, which closes
        # when 0 and 1 price above 2 and 3
        scn = plane_scenario([(-1, 0), (1, 0), (0, 1), (0, -1)], [0.0, 0.0, 0.2, 0.2])
        part = _partition_at(scn, [0.0, 0.0, 0.2, 0.2])
        assert 1 in {e.company_id for e in part.neighbors[0]}
        shorter = np.array([0.05, 0.05, 0.2, 0.2])
        assert_moved_is_the_partition(scn, areas.moved_partition(scn, part, shorter), shorter)
        closed = np.array([0.2, 0.2, 0.0, 0.0])
        assert areas.moved_partition(scn, part, closed) is None
        assert 1 not in {e.company_id for e in _partition_at(scn, closed).neighbors[0]}

    def test_refused_where_a_vertex_passes_a_window_corner(self):
        # the bisector 4x + y = P_1 + 0.25 meets the bottom side at x = (P_1 +
        # 2.25) / 4, which passes the corner (2, -2) above P_1 = 5.75
        scn = plane_scenario([(-1, 0), (1, 0.5)], [0.0, 5.5])
        part = _partition_at(scn, [0.0, 5.5])
        assert [2.0, -2.0] in part.cells[1].vertices.tolist()
        nearer = np.array([0.0, 5.6])
        assert_moved_is_the_partition(scn, areas.moved_partition(scn, part, nearer), nearer)
        past = np.array([0.0, 6.0])
        assert areas.moved_partition(scn, part, past) is None
        assert [2.0, -2.0] not in _partition_at(scn, past).cells[1].vertices.tolist()
