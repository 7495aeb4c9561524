"""Profit curves, piece edges, and best responses."""

import logging

import numpy as np
import pytest

import marketcells.areas as areas
import marketcells.equilibrium as equilibrium
import marketcells.response as response
from marketcells import (
    Box,
    Company,
    GridSpec,
    PriceVector,
    Scenario,
    ValidationError,
    best_response,
    grid_best_response,
    iterate_best_response,
    load_scenario,
    profit_curve,
    utility,
)
from marketcells.areas import areas_for_prices, fast_signature
from marketcells.response import unimodality_defect

from helpers import (
    DEMOS,
    brand_triple,
    lattice_2d,
    line_scenario,
    neighbors_at,
    piece_edges,
    random_line_scenario,
    random_plane_scenario,
    random_scenario,
    triple_q1,
)

def flank_scenario(price_upper=4.0):
    """Focal company at the origin, frozen flanks at unit distance."""
    return line_scenario(
        [-1.0, 0.0, 1.0], [1.0, 1.0, 1.0], price_upper=price_upper, margin=1.5
    )


class TestUtility:
    def test_unit_flanks(self):
        scn = flank_scenario()
        pv = PriceVector.from_scenario(scn)
        w, s = utility(scn, pv, 1, 1.0)
        assert (w, s) == (pytest.approx(1.0), pytest.approx(1.0))

    def test_zero_price_earns_nothing(self):
        scn = flank_scenario()
        w, s = utility(scn, PriceVector.from_scenario(scn), 1, 0.0)
        assert w == 0.0
        assert s == pytest.approx(2.0)  # area is still positive

    def test_above_choke_price(self):
        scn = flank_scenario()
        w, s = utility(scn, PriceVector.from_scenario(scn), 1, 3.5)
        assert w == 0.0
        assert s == 0.0

    def test_area_formula_against_hand_derivation(self):
        # S(P) = 2 - P between unit flanks at price 1
        scn = flank_scenario()
        pv = PriceVector.from_scenario(scn)
        for p in (0.3, 0.9, 1.4):
            _, s = utility(scn, pv, 1, p)
            assert s == pytest.approx(2.0 - p, abs=1e-12)


class TestBreakpoints:
    def test_lattice_corner_engagement(self):
        # below the symmetric price the cell swallows its corners and the
        # diagonal companies become real neighbors
        scn = lattice_2d(n=5, boundary_price=1.0, interior_price=1.0)
        pv = PriceVector.from_scenario(scn)
        assert len(neighbors_at(scn, pv, 12, 0.99)) == 8
        assert len(neighbors_at(scn, pv, 12, 1.01)) == 4

    def test_profit_continuous_across_breakpoints(self):
        rng = np.random.default_rng(31)
        for maker in (
            lambda: random_line_scenario(rng, q=0),
            lambda: random_line_scenario(rng, q=1),
            random_plane_scenario if False else (lambda: random_plane_scenario(rng)),
        ):
            scn = maker()
            pv = PriceVector.from_scenario(scn)
            focal = [c.id for c in scn.companies if not c.frozen]
            cid = focal[0]
            _, profits = profit_curve(scn, pv, cid, samples=2_000)
            w_scale = max(profits.max(), 1e-9)
            delta = 1e-10 * scn.price_upper
            for cut in piece_edges(scn, pv, cid):
                if cut < 2 * delta or cut > scn.price_upper - 2 * delta:
                    continue
                w_lo, _ = utility(scn, pv, cid, cut - delta)
                w_hi, _ = utility(scn, pv, cid, cut + delta)
                assert abs(w_hi - w_lo) < 1e-7 * w_scale


def ring_market_18():
    """Three free companies inside a frozen ring of eight.  The dense curve
    of company 0 once broke unimodality by 3.5e-9 relative, when profit
    curves filled spans from a quadratic instead of solving every price."""
    focal = [
        ((2.8859743656723325, 2.2293255483200527), 0.9194439023516361),
        ((2.1529846760523133, 3.5812996612879764), 0.6092492631765913),
        ((3.57457454767984, 3.765362246778571), 0.8015711793531495),
    ]
    ring = [
        ((4.668699709062386, 4.5882434426645595), 1.2807455187048722),
        ((2.7305810916795603, 5.2884893557377834), 1.2657009199053804),
        ((1.1815868490032155, 4.237893881751923), 1.0739439080390538),
        ((0.7015919186437944, 3.197979826850617), 0.9046345303370651),
        ((1.7791677150790253, 1.3832900403347568), 0.9581631851032592),
        ((3.4154954873448884, 0.8934912745646), 1.281537865507725),
        ((4.330212359483026, 1.3894365670488915), 0.9431374073857539),
        ((4.947093905886792, 3.6050416746633056), 1.3701098232356737),
    ]
    companies = tuple(
        Company(k, position, price, k >= len(focal))
        for k, (position, price) in enumerate(focal + ring)
    )
    return Scenario(
        dimension=2,
        beta=0.0,
        q=0,
        companies=companies,
        focal_box_half=8.0,
        price_upper=8.0,
        window=Box((-0.8, -0.8), (6.8, 6.8)),
    )


def plane_lattice_equilibrium():
    """The ``plane_lattice`` demo at its equilibrium, where prices tie:
    four cells meet at each lattice corner, and the curves' pieces start
    and end at once."""
    scn = load_scenario((DEMOS / "plane_lattice.json").read_text())
    return scn, iterate_best_response(scn).prices


def curve_market(name):
    """A market and its prices by name: a random helpers market by kind at
    its own prices, ``triple-<beta>``: the demo triple, whose curves cross
    threshold elimination and rows sent to the damped fallback,
    ``ring_market_18`` at its own prices, or
    ``plane_lattice-equilibrium``."""
    if name == "plane_lattice-equilibrium":
        return plane_lattice_equilibrium()
    if name == "ring_market_18":
        scn = ring_market_18()
    elif name.startswith("triple-"):
        scn = brand_triple(float(name.removeprefix("triple-")))
    else:
        scn = random_scenario(np.random.default_rng(sum(map(ord, name))), name)
    return scn, PriceVector.from_scenario(scn)


class TestProfitCurve:
    @pytest.mark.parametrize(
        "market",
        [
            "line", "line_q1", "plane", "triple-0.3", "triple-0.9", "triple-1.2",
            "plane_lattice-equilibrium",
        ],
    )
    def test_exact_at_every_sample(self, market):
        scn, pv = curve_market(market)
        for c in scn.companies:
            if c.frozen:
                continue
            grid = np.linspace(0.0, scn.price_upper, 1_000)
            batch = areas_for_prices(scn, pv.as_array(), c.id, grid)
            scalar = np.array([utility(scn, pv, c.id, float(p))[1] for p in grid])
            assert np.max(np.abs(batch - scalar)) <= 1e-12 * scalar.max()
            _, profits = profit_curve(scn, pv, c.id, samples=1_000)
            assert np.array_equal(profits, grid * batch)

    @pytest.mark.parametrize("market", ["line_q1", "ring_market_18"])
    def test_price_order_does_not_matter(self, market):
        # the walk sorts the prices and scatters the areas back: a reversed
        # grid and a shuffled one with repeated prices read the sorted
        # walk's areas to the bit
        scn, pv = curve_market(market)
        cid = next(c.id for c in scn.companies if not c.frozen)
        grid = np.linspace(0.0, scn.price_upper, 2_000)
        repeated = np.sort(np.concatenate([grid, grid[::7], grid[::7], grid[5::11]]))
        ordered = areas_for_prices(scn, pv.as_array(), cid, repeated)
        assert np.any(ordered > 0.0)
        reversed_grid = areas_for_prices(scn, pv.as_array(), cid, repeated[::-1])
        assert np.array_equal(reversed_grid, ordered[::-1])
        shuffle = np.random.default_rng(3).permutation(len(repeated))
        shuffled = areas_for_prices(scn, pv.as_array(), cid, repeated[shuffle])
        assert np.array_equal(shuffled, ordered[shuffle])

    def test_exact_where_a_border_enters_through_the_window(self):
        # A cell only loses borders as its own price rises, unless the
        # window hid one: company 2's border with company 0 lies beyond the
        # window's top until price 2.11, then cuts in at the vertex where
        # the top meets the border with company 1.
        scn = Scenario(
            dimension=2,
            beta=0.0,
            q=0,
            companies=(
                Company(0, (1.0, 1.0), 1.0, False),
                Company(1, (3.0, 1.2), 1.0, True),
                Company(2, (1.6, 1.9), 3.5, True),
            ),
            focal_box_half=6.0,
            price_upper=4.0,
            window=Box((0.0, 0.0), (4.0, 2.0)),
        )
        pv = PriceVector.from_scenario(scn)
        assert [neighbors_at(scn, pv, 0, p) for p in (2.0, 2.2)] == [{1}, {1, 2}]
        grid = np.linspace(0.0, scn.price_upper, 1_000)
        batch = areas_for_prices(scn, pv.as_array(), 0, grid)
        scalar = np.array([utility(scn, pv, 0, float(p))[1] for p in grid])
        assert np.max(np.abs(batch - scalar)) <= 1e-12 * scalar.max()

    def test_lone_company_on_a_brand_line(self):
        # a lone company's line solve makes no decision, so its piece holds
        # at every price and its area is the whole window
        scn = line_scenario([0.0], [1.0], frozen=[True], beta=0.7, q=1, margin=1.0)
        pv = PriceVector.from_scenario(scn)
        assert fast_signature(scn, pv.as_array(), 0).reach == np.inf
        grid, profits = profit_curve(scn, pv, 0, samples=100)
        assert np.array_equal(profits, 2.0 * grid)

    def test_ring_market_curve_is_unimodal(self):
        scn = ring_market_18()
        _, profits = profit_curve(scn, PriceVector.from_scenario(scn), 0, samples=10_000)
        assert profits.max() > 0.0
        assert unimodality_defect(profits) == 0.0

    def test_unimodal_on_flanks(self):
        scn = flank_scenario()
        _, profits = profit_curve(scn, PriceVector.from_scenario(scn), 1, samples=5_000)
        assert unimodality_defect(profits) == 0.0

    def test_needs_a_sample(self):
        scn = random_scenario(np.random.default_rng(5), "line")
        pv = PriceVector.from_scenario(scn)
        cid = next(c.id for c in scn.companies if not c.frozen)
        with pytest.raises(ValidationError, match="at least one sample"):
            profit_curve(scn, pv, cid, samples=0)
        with pytest.raises(ValidationError, match="at least one sample"):
            equilibrium.audit_unilateral_deviations(scn, pv, samples=0)
        grid, profits = profit_curve(scn, pv, cid, samples=1)
        assert grid.tolist() == [0.0] and profits.tolist() == [0.0]


class TestBestResponse:
    def test_unit_flanks_vertex(self):
        scn = flank_scenario()
        br = best_response(scn, PriceVector.from_scenario(scn), 1)
        assert br.price == pytest.approx(1.0, abs=1e-8)
        assert br.profit == pytest.approx(1.0, abs=1e-9)
        assert not br.wiped_out

    def test_statically_dead_company_reports_wiped_out(self):
        # brand pull beyond the threshold with cheap flanks: no entry at
        # any price under the static ownership accounting
        scn = triple_q1(1.2, prices=(0.2, 1.0, 0.2))
        br = best_response(scn, PriceVector.from_scenario(scn), 1)
        assert br.wiped_out
        assert br.price == scn.price_upper
        assert br.profit == 0.0
        _, profits = profit_curve(scn, PriceVector.from_scenario(scn), 1, samples=2_000)
        assert np.all(profits == 0.0)

    def test_frozen_company_rejected(self):
        scn = flank_scenario()
        with pytest.raises(ValidationError, match="frozen"):
            best_response(scn, PriceVector.from_scenario(scn), 0)

    def test_closed_form_matches_numeric_on_random_lines(self):
        # the vertex walk against two references that share no code with
        # it: the grid oracle's price scan on rasterized markets, and the
        # argmax of a dense scan of exact profits
        rng = np.random.default_rng(12)
        price_samples = 301
        for _ in range(4):
            scn = random_line_scenario(rng, q=0)
            pv = PriceVector.from_scenario(scn)
            h = 1e-3 * max(scn.window.edges)
            delta = scn.price_upper / (price_samples - 1)
            for c in scn.companies:
                if c.frozen:
                    continue
                br = best_response(scn, pv, c.id)
                grid, profits = profit_curve(scn, pv, c.id, samples=10_000)
                assert profits.max() - br.profit <= 1e-9 * br.profit
                assert abs(br.price - grid[int(np.argmax(profits))]) <= grid[1]
                p_grid, w_grid = grid_best_response(
                    scn, pv, c.id, price_samples, GridSpec(h, scn.window)
                )
                # the raster misplaces each of the two borders by at most
                # h, and the nearest grid price is within delta / 2 of the
                # vertex of a profit parabola whose curvature is below 4
                assert abs(w_grid - br.profit) <= 2.0 * h * p_grid + delta**2
                assert utility(scn, pv, c.id, p_grid)[0] <= br.profit

    def test_piece_enumeration_agrees_with_scan(self):
        # Each piece between breakpoints has a linear area; its vertex,
        # clipped to the piece, is that piece's best price.  The best of
        # those, the dense scan and the best response must agree.
        rng = np.random.default_rng(21)
        scn = random_line_scenario(rng, q=1)
        pv = PriceVector.from_scenario(scn)
        cid = next(c.id for c in scn.companies if not c.frozen)
        edges = [0.0, *piece_edges(scn, pv, cid), scn.price_upper]
        enumerated = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            a, b = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            s_a, s_b = utility(scn, pv, cid, a)[1], utility(scn, pv, cid, b)[1]
            if s_a <= 0.0:
                continue
            slope = (s_b - s_a) / (b - a)
            vertex = a / 2.0 - s_a / (2.0 * slope) if slope < 0.0 else hi
            for price in (lo, hi, float(np.clip(vertex, lo, hi))):
                enumerated = max(enumerated, utility(scn, pv, cid, price)[0])
        _, profits = profit_curve(scn, pv, cid, samples=10_000)
        br = best_response(scn, pv, cid)
        assert br.profit == pytest.approx(enumerated, rel=1e-8)
        assert profits.max() - br.profit <= 1e-9 * br.profit

    @pytest.mark.parametrize("kind", ["line", "line_q1", "plane"])
    def test_never_beaten_by_dense_scan(self, kind):
        from helpers import random_scenario

        rng = np.random.default_rng(100 + sum(map(ord, kind)))
        scn = random_scenario(rng, kind)
        pv = PriceVector.from_scenario(scn)
        for c in scn.companies:
            if c.frozen:
                continue
            br = best_response(scn, pv, c.id)
            _, profits = profit_curve(scn, pv, c.id, samples=10_000)
            assert profits.max() - br.profit <= 1e-6 * max(br.profit, 1e-12)

    @pytest.mark.parametrize("beta", [0.55, 0.6])
    def test_same_profit_from_every_start_across_a_jump(self, beta):
        # The middle company of brand_triple earns most just before a
        # wipe-out jump, past which its profit drops by about 2e-9 relative.
        # A solve at the jump may land on either side of it, so from every
        # start the walk must end on the near side.
        scn = brand_triple(beta)
        pv = PriceVector.from_scenario(scn)
        profits = [
            best_response(scn, pv.with_price(scn, 1, float(start)), 1).profit
            for start in np.linspace(0.05, 4.95, 50)
        ]
        assert max(profits) - min(profits) <= 1e-10 * max(profits)

    @pytest.mark.parametrize("beta", [0.7, 0.9])
    def test_walks_through_damped_pieces(self, beta):
        # From price 0.25 the middle company's solves fall to the line
        # solve's damped fallback, whose piece is its own price alone.  A
        # walk stepping to the end of such a piece crawls by
        # BRACKET_RTOL * price_upper and stops near its start.
        scn = brand_triple(beta)
        pv = PriceVector.from_scenario(scn).with_price(scn, 1, 0.25)
        br = best_response(scn, pv, 1)
        # each damped price is a piece of its own, so the scan stays short
        _, profits = profit_curve(scn, pv, 1, samples=1_000)
        assert profits.max() - br.profit <= 1e-6 * br.profit

    def test_profit_consistent_with_fresh_solve(self):
        scn = flank_scenario()
        pv = PriceVector.from_scenario(scn)
        br = best_response(scn, pv, 1)
        w, s = utility(scn, pv, 1, br.price)
        assert br.profit == pytest.approx(w, abs=1e-15)
        assert br.profit == pytest.approx(br.price * s, abs=1e-15)

    def test_cell_with_a_roundoff_sliver(self):
        # cell 10 keeps a 6.3e-16 edge where three bisectors meet at its
        # corner; its pieces end there, and the walk still finds the peak
        scn = lattice_2d(n=7)
        pv = PriceVector.from_scenario(scn).with_price(scn, 9, 1.0 - 2.0**-20)
        br = best_response(scn, pv, 10)
        grid, profits = profit_curve(scn, pv, 10, samples=10_000)
        assert abs(br.price - grid[int(np.argmax(profits))]) <= grid[1] - grid[0]
        assert profits.max() - br.profit <= 1e-9 * br.profit

    def test_ring_scenario_matches_scan_argmax(self):
        rng = np.random.default_rng(77)
        scn = random_plane_scenario(rng)
        pv = PriceVector.from_scenario(scn)
        cid = next(c.id for c in scn.companies if not c.frozen)
        br = best_response(scn, pv, cid)
        grid, profits = profit_curve(scn, pv, cid, samples=10_000)
        spacing = grid[1] - grid[0]
        assert abs(br.price - grid[int(np.argmax(profits))]) <= spacing
        assert profits.max() - br.profit <= 1e-6 * br.profit


class TestSolveCount:
    """Area solves per best response, counted through the solvers the
    response module calls."""

    @pytest.fixture
    def counter(self, monkeypatch):
        calls = {"solves": 0, "responses": 0}
        for name in ("fast_area", "fast_signature"):
            original = getattr(response, name)

            def counted(*args, _original=original):
                calls["solves"] += 1
                return _original(*args)

            monkeypatch.setattr(response, name, counted)

        def counted_response(*args):
            calls["responses"] += 1
            return best_response(*args)

        monkeypatch.setattr(equilibrium, "best_response", counted_response)
        return calls

    def test_lattice_center(self, counter):
        scn = lattice_2d(n=7)
        pv = PriceVector.from_scenario(scn)
        center = 24
        for prices in (pv, PriceVector(tuple(0.5 for _ in scn.companies))):
            counter["solves"] = 0
            br = best_response(scn, prices, center)
            assert counter["solves"] <= 12
        assert br.price == pytest.approx(0.5, abs=1e-9)

    def test_brand_feedback_line(self, counter):
        scn = random_line_scenario(np.random.default_rng(8000), q=1)
        report = iterate_best_response(scn)
        assert report.converged
        assert counter["solves"] <= 12 * counter["responses"]

    def test_kinks_take_few_solves(self, counter):
        # The walk steps to the end of a piece along which W' stays
        # positive instead of bisecting the kink there.  Bisecting took 38
        # to 43 solves on 130 of these responses.  The dense scan is
        # independent of the walk.
        worst = 0
        for kind, markets in (("line_q1", 60), ("line", 60), ("plane", 20)):
            for seed in range(markets):
                scn = random_scenario(np.random.default_rng(seed), kind)
                pv = PriceVector.from_scenario(scn)
                for c in scn.companies:
                    if c.frozen:
                        continue
                    _, profits = profit_curve(scn, pv, c.id, samples=10_000)
                    own = pv.price_of(scn, c.id)
                    for start in (own, 1.3 * own):
                        counter["solves"] = 0
                        br = best_response(scn, pv.with_price(scn, c.id, start), c.id)
                        worst = max(worst, counter["solves"])
                        assert profits.max() - br.profit <= 1e-6 * max(br.profit, 1e-12)
        assert worst <= 12


class TestCurveSolveCount:
    """A dense profit curve solves once per piece of the curve, a line
    solve on a line and a one-cell clip in the plane, counted by
    monkeypatching the area module's solvers."""

    def test_brand_line_solves_once_per_piece(self, monkeypatch, caplog):
        solves = {"n": 0}
        solve_line = areas._solve_line

        def counted(*args):
            solves["n"] += 1
            return solve_line(*args)

        monkeypatch.setattr(areas, "_solve_line", counted)
        scn = random_line_scenario(np.random.default_rng(8000), q=1)
        pv = PriceVector.from_scenario(scn)
        for c in scn.companies:
            if c.frozen:
                continue
            solves["n"] = 0
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="marketcells.areas"):
                profit_curve(scn, pv, c.id, samples=10_000)
            (record,) = caplog.records
            assert 1 <= solves["n"] == record.args[-1] <= 10

    @pytest.fixture
    def clipped(self, monkeypatch):
        """Own prices of the cells the area module builds half-planes for,
        one per clip, or of the focal company of each line solve, and the
        count of ``clip_cell`` calls."""
        clipped = {"prices": [], "clips": 0}
        bisectors, clip_cell = areas._bisectors, areas.clip_cell
        solve_sorted_line = areas._solve_sorted_line

        def planes(positions, weights, owners, nearest=None):
            clipped["prices"].extend(weights[owners].tolist())
            return bisectors(positions, weights, owners, nearest)

        def clip(*args):
            clipped["clips"] += 1
            return clip_cell(*args)

        def solve(scenario, values, k=None):
            if k is not None:
                clipped["prices"].append(float(values[k]))
            return solve_sorted_line(scenario, values, k)

        monkeypatch.setattr(areas, "_bisectors", planes)
        monkeypatch.setattr(areas, "clip_cell", clip)
        monkeypatch.setattr(areas, "_solve_sorted_line", solve)
        return clipped

    @pytest.mark.parametrize("samples", [4_001, 10_000])
    def test_plane_clips_once_per_piece(self, clipped, caplog, samples):
        # at 4,001 samples the grid holds price 1, where the center cell's
        # corners meet four cells at once
        scn = lattice_2d(n=5, boundary_price=1.0, interior_price=1.0)
        pv = PriceVector.from_scenario(scn)
        with caplog.at_level(logging.DEBUG, logger="marketcells.areas"):
            grid, profits = profit_curve(scn, pv, 12, samples=samples)
        (record,) = caplog.records
        assert 1 <= clipped["clips"] == record.args[-1] <= 4
        assert (1.0 in grid.tolist()) == (samples == 4_001)
        scalar = np.array([utility(scn, pv, 12, float(p))[0] for p in grid])
        assert np.max(np.abs(profits - scalar)) <= 1e-12 * scalar.max()

    @pytest.mark.parametrize(
        "market, least",
        [
            ("ring_market_18", 10),
            ("plane_lattice-equilibrium", 10),
            ("line_q1", 10),
            ("triple-0.3", 1),
        ],
        ids=["ring_market_18", "plane_lattice-equilibrium", "line_q1", "triple-0.3"],
    )
    def test_clips_again_after_every_piece_edge(self, clipped, market, least):
        # piece edges from a dense neighbor-set scan, not from the walk; on
        # a line the neighbors are the flanking survivors, and the walk's
        # solves take the place of clips
        scn, pv = curve_market(market)
        grid = np.linspace(0.0, scn.price_upper, 10_000)
        # the scan places an edge within 1e-10 x price_upper
        slack = 1e-9 * scn.price_upper
        edges_seen = 0
        for c in scn.companies:
            if c.frozen:
                continue
            edges = np.array(piece_edges(scn, pv, c.id))
            clipped["prices"].clear()
            areas_for_prices(scn, pv.as_array(), c.id, grid)
            starts = np.array(clipped["prices"])
            for edge in edges:
                after = grid[min(np.searchsorted(grid, edge, side="right"), len(grid) - 1)]
                assert np.any((starts > edge - slack) & (starts <= after)), edge
            edges_seen += len(edges)
            # and no piece a solve returns holds across an edge.  On the
            # plane markets the scan places an edge up to 2.9e-11 x
            # price_upper before the piece ends.
            for start in starts.tolist():
                values = pv.with_price(scn, c.id, start).as_array()
                reach = fast_signature(scn, values, c.id).reach
                inside = (edges > start + slack) & (edges < start + reach - 10.0 * slack)
                assert not np.any(inside), (start, reach, edges[inside])
        assert edges_seen >= least


class TestDerivative:
    def test_matches_parabola_slope(self):
        # W = P (2 - P) so dW/dP = S + P S' = 2 - 2P
        scn = flank_scenario()
        pv = PriceVector.from_scenario(scn)
        for p in (0.4, 1.0, 1.6):
            at = fast_signature(scn, pv.with_price(scn, 1, p).as_array(), 1)
            assert at.slope == -1.0
            assert at.area + p * at.slope == pytest.approx(2.0 - 2.0 * p, abs=1e-12)

    @pytest.mark.parametrize("kind", ["line", "line_q1", "plane"])
    def test_slope_matches_finite_difference(self, kind):
        from helpers import random_scenario

        rng = np.random.default_rng(300 + sum(map(ord, kind)))
        scn = random_scenario(rng, kind)
        pv = PriceVector.from_scenario(scn)
        h = 1e-6 * scn.price_upper
        probes = 0
        for c in scn.companies:
            if c.frozen:
                continue
            for p in rng.uniform(0.2, 1.8, size=5):
                near = neighbors_at(scn, pv, c.id, p)
                if near is None or any(
                    neighbors_at(scn, pv, c.id, q) != near for q in (p - h, p + h)
                ):
                    continue  # no cell, or the probe straddles a breakpoint
                at = fast_signature(scn, pv.with_price(scn, c.id, p).as_array(), c.id)
                fd = (utility(scn, pv, c.id, p + h)[1] - utility(scn, pv, c.id, p - h)[1]) / (2 * h)
                assert fd == pytest.approx(at.slope, rel=1e-6)
                probes += 1
        assert probes >= 5

    def test_plane_slope_where_two_edges_are_nearly_parallel(self):
        # companies 1 and 2 lie 1e-10 off one ray from company 0, and
        # company 2's price puts both borders through (0.5, 0.6): the top
        # of the cell bends by 2.5e-10 rad there.  The piece's curvature
        # is not resolved and it ends at once, but its slope is still the
        # area's derivative, and the walk still finds the best price.
        scn = Scenario(
            dimension=2,
            beta=0.0,
            q=0,
            companies=(
                Company(0, (0.5, 0.5), 1.0, False),
                Company(1, (0.5, 0.7), 1.0, True),
                Company(2, (0.5 + 1e-10, 0.9), 0.92, True),
            ),
            focal_box_half=1.0,
            price_upper=3.0,
            window=Box((0.0, 0.0), (1.0, 1.0)),
        )
        pv = PriceVector.from_scenario(scn)
        at = fast_signature(scn, pv.as_array(), 0)
        assert at.reach == 0.0
        h = 1e-4
        fd = (utility(scn, pv, 0, 1.0 + h)[1] - utility(scn, pv, 0, 1.0 - h)[1]) / (2 * h)
        assert at.slope == pytest.approx(fd, rel=1e-9)
        assert at.slope == pytest.approx(-(0.5 / 0.4 + 0.5 / 0.8), rel=1e-9)
        _, profits = profit_curve(scn, pv, 0, samples=10_000)
        assert best_response(scn, pv, 0).profit >= profits.max() * (1.0 - 1e-6)

    def test_plane_curvature_matches_second_difference(self):
        # inside a piece the cell's area is quadratic in the own price, so
        # a second central difference of per-price areas reads twice the
        # piece's u^2 coefficient up to roundoff
        probes = 0
        for seed in range(10):
            rng = np.random.default_rng(500 + seed)
            scn = random_scenario(rng, "plane")
            pv = PriceVector.from_scenario(scn)
            h = 1e-3 * scn.price_upper
            for c in scn.companies:
                if c.frozen:
                    continue
                for p in rng.uniform(0.2, 1.8, size=5):
                    near = [neighbors_at(scn, pv, c.id, q) for q in (p - h, p, p + h)]
                    if near[1] is None or near.count(near[1]) < 3:
                        continue  # no cell, or the probes straddle a piece edge
                    at = fast_signature(scn, pv.with_price(scn, c.id, p).as_array(), c.id)
                    s_lo, s_mid, s_hi = (utility(scn, pv, c.id, q)[1] for q in (p - h, p, p + h))
                    second = (s_hi - 2.0 * s_mid + s_lo) / h**2
                    assert second == pytest.approx(2.0 * at.curvature, rel=1e-6, abs=1e-9)
                    probes += 1
        assert probes >= 100
