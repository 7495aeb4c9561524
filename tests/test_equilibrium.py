"""Activation, iterated best response, and equilibrium verification."""

import json
import logging
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from marketcells import (
    NoValidScheme,
    PriceVector,
    SingularSystem,
    ValidationError,
    audit_unilateral_deviations,
    construct_activation,
    iterate_best_response,
    load_scenario,
    multi_start,
    report_to_dict,
    solve_partition,
    verify_equilibrium,
)
import marketcells.areas as areas_mod
import marketcells.equilibrium as eq_mod
import marketcells.response as response_mod

from helpers import (
    assert_moved_is_the_partition,
    brand_triple,
    lattice_1d,
    lattice_2d,
    line_scenario,
    own_threshold,
    random_line_scenario,
    random_plane_scenario,
    random_scenario,
    ring_market,
    threshold_tie_market,
    triple_q1,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


class TestActivation:
    def test_mild_brand_weight_activates_everyone(self):
        scheme = construct_activation(triple_q1(0.5))
        assert scheme.hidden == frozenset()
        assert scheme.activated == (0, 1, 2)

    def test_strong_brand_weight_hides_the_middle(self):
        scheme = construct_activation(triple_q1(1.2))
        assert scheme.hidden == {1}
        assert scheme.activated == (0, 2)

    def test_singular_boundaries_are_refused_in_time(self):
        # Unit spacing at beta = 2 once activated (0, 2, 6): the pair (0, 2)
        # has a zero boundary diagonal, and the first best response raised
        # SingularSystem.  The system of (0, 3, 6) is singular as a whole.
        scn = line_scenario(range(7), [1.0] * 7, beta=2.0, q=1, price_upper=5.0, margin=0.5)
        assert set(eq_mod._violators(scn, {0, 2, 6})) == {2}
        assert set(eq_mod._violators(scn, {0, 3, 6})) == {3}

        def expire(signum, frame):
            raise TimeoutError("no answer within 10 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(NoValidScheme, match="does not solve"):
                construct_activation(scn)
            with pytest.raises(NoValidScheme, match="does not solve"):
                iterate_best_response(scn)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def test_single_company_is_activated(self):
        scn = line_scenario([0.0], [1.0], frozen=[True], beta=0.7, q=1, margin=1.0)
        scheme = construct_activation(scn)
        assert scheme.activated == (0,)
        assert scheme.hidden == frozenset()

    def test_swap_step_promotes_wider_spacing(self):
        # five optimizers at unit spacing between far frozen ends; beta
        # allows alternate companies but not adjacent ones
        positions = [-3.0, 0.0, 1.0, 2.0, 3.0, 4.0, 7.0]
        prices = [1.0] * 7
        frozen = [True, False, False, False, False, False, True]
        scn = line_scenario(positions, prices, frozen=frozen, beta=1.2, q=1)
        scheme = construct_activation(scn)
        hidden_pos = sorted(scn.company(c).position[0] for c in scheme.hidden)
        active_pos = sorted(scn.company(c).position[0] for c in scheme.activated)
        # every activated optimizer obeys its spacing bound
        for cid in scheme.activated:
            if scn.company(cid).frozen:
                continue
            thr = own_threshold(scn, set(scheme.activated), cid)
            assert scn.beta < thr
        # activating any hidden company would violate its own bound
        for cid in scheme.hidden:
            thr = own_threshold(scn, set(scheme.activated) | {cid}, cid)
            assert scn.beta >= thr
        assert hidden_pos  # something had to give at this density

    def test_invariants_on_random_scenarios(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scn = random_line_scenario(rng, q=1)
            scn = scn.with_beta(scn.beta * 3.0)  # push some over the bound
            try:
                scheme = construct_activation(scn)
            except NoValidScheme:
                continue
            active = set(scheme.activated)
            for cid in scheme.activated:
                if not scn.company(cid).frozen:
                    assert scn.beta < own_threshold(scn, active, cid)
            for cid in scheme.hidden:
                assert scn.beta >= own_threshold(scn, active | {cid}, cid)


class TestIterate:
    def test_line_lattice_reaches_unit_prices(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn, tol=1e-10 * scn.price_upper)
        assert report.converged
        assert report.iterations < 100
        for cid in range(1, 6):
            assert report.prices.price_of(scn, cid) == pytest.approx(1.0, abs=1e-7)
            assert report.per_company[cid].area == pytest.approx(1.0, abs=1e-7)

    def test_starting_at_equilibrium_takes_no_iterations(self):
        scn = lattice_1d(n=7, interior_price=1.0)
        report = iterate_best_response(scn)
        assert report.converged
        assert report.iterations == 0

    def test_small_plane_lattice(self):
        scn = lattice_2d(n=5)
        report = iterate_best_response(scn, tol=1e-9 * scn.price_upper)
        assert report.converged
        for cid, cond in report.per_company.items():
            if cond.frozen:
                continue
            assert cond.price == pytest.approx(0.5, abs=1e-5)
            assert cond.area == pytest.approx(1.0, abs=1e-5)
            assert cond.condition_residual < 1e-6

    def test_simultaneous_schedule_on_line(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn, schedule="simultaneous")
        assert report.converged
        for cid in range(1, 6):
            assert report.prices.price_of(scn, cid) == pytest.approx(1.0, abs=1e-6)

    def test_two_cycle_detection(self, monkeypatch):
        from marketcells import BestResponse

        scn = line_scenario([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0], price_upper=4.0)

        def flip_flop(scenario, prices, cid):
            p = prices.price_of(scenario, cid)
            return BestResponse(2.0 if p < 1.5 else 1.0, 1.0, False)

        monkeypatch.setattr(eq_mod, "best_response", flip_flop)
        report = iterate_best_response(scn, max_iter=50)
        assert not report.converged
        assert report.cycle is not None
        a, b = report.cycle
        assert a.price_of(scn, 1) != b.price_of(scn, 1)

    def test_hidden_companies_priced_at_ceiling(self):
        scn = triple_q1(1.2)
        report = iterate_best_response(scn)
        assert report.activation.hidden == {1}
        assert report.prices.price_of(scn, 1) == scn.price_upper
        assert report.per_company[1].area == 0.0
        assert report.per_company[1].hidden

    def test_brand_feedback_equilibrium_stable(self):
        scn = triple_q1(0.4)
        report = iterate_best_response(scn)
        assert report.converged
        again = iterate_best_response(scn, init=report.prices)
        assert again.iterations == 0


def unit_line(beta: float):
    """Five companies at unit spacing with frozen ends, prices 1, window
    margin 0.5: the unit line of a benchmark ``brand-eq`` round."""
    return line_scenario(range(5), [1.0] * 5, beta=beta, q=1, price_upper=5.0, margin=0.5)


def newton_markets():
    """Sweeps of markets, each solved warm-started from the equilibrium of
    the one before: the markets of criteria 1, 2 and 8, the acceptance
    suite's twenty random markets, the twelve rings of a benchmark
    ``plane-eq`` round, ten more brand lines, ``brand_triple`` on both
    sides of its wipe-out threshold, and the unit-line sweep of a
    benchmark ``brand-eq`` round."""
    out = [
        pytest.param(
            (lattice_1d(n=11, endpoint_price=1.0, interior_price=0.5, price_upper=4.0),),
            id="criterion-1",
        ),
        pytest.param(
            (lattice_2d(n=7, boundary_price=0.5, interior_price=1.0, price_upper=4.0),),
            id="criterion-2",
        ),
    ]
    out += [
        pytest.param((random_line_scenario(np.random.default_rng(1000 + k), q=0),), id=f"line-{k}")
        for k in range(12)
    ]
    out += [
        pytest.param((random_plane_scenario(np.random.default_rng(2000 + k)),), id=f"plane-{k}")
        for k in range(8)
    ]
    rng = np.random.default_rng([7, 1])
    out += [pytest.param((ring_market(rng),), id=f"ring-{k}") for k in range(12)]
    out += [
        pytest.param(
            (random_line_scenario(np.random.default_rng(8000 + k), q=1),), id=f"criterion-8-{k}"
        )
        for k in range(10)
    ]
    out += [
        pytest.param(
            (random_scenario(np.random.default_rng(k), "line_q1"),), id=f"brand-line-{k}"
        )
        for k in range(10)
    ]
    out += [
        pytest.param((brand_triple(beta),), id=f"triple-{beta}")
        for beta in (0.1, 0.3, 0.5, 1.1, 1.5)
    ]
    out.append(
        pytest.param(tuple(unit_line(beta) for beta in (0.1, 0.2, 0.3, 0.4, 0.5)), id="unit-sweep")
    )
    return out


def solve_warm(markets):
    reports, warm = [], None
    for scn in markets:
        reports.append(iterate_best_response(scn, init=warm))
        warm = reports[-1].prices
    return reports


def newton_records(caplog):
    return [r.getMessage() for r in caplog.records if r.getMessage().startswith("newton:")]


def newton_record(caplog):
    (message,) = newton_records(caplog)
    return message


def certificate_sweeps(message: str) -> int:
    return int(message.rsplit(", ", 1)[1].split()[0])


NEWTON_LINE = re.compile(
    r"newton: (\d+) steps \((\d+) partitions moved, (\d+) clipped\), "
    r"max\|F\| \[[^\]]*\], (.*), (\d+) certificate sweeps"
)


def newton_runs(caplog):
    """Each ``newton:`` line as ``(steps, moved, clipped, outcome, sweeps)``."""
    out = []
    for message in newton_records(caplog):
        steps, moved, clipped, outcome, sweeps = NEWTON_LINE.fullmatch(message).groups()
        out.append((int(steps), int(moved), int(clipped), outcome, int(sweeps)))
    return out


def plane_newton_markets():
    """The twelve rings of a benchmark ``plane-eq`` round, each solved from
    its own prices, and ``random_scenario(default_rng(k), "plane")`` for k =
    0-29."""
    rings = [p for p in newton_markets() if p.id.startswith("ring-")]
    return rings + [
        pytest.param((random_scenario(np.random.default_rng(k), "plane"),), id=f"random-plane-{k}")
        for k in range(30)
    ]


def record_moves(monkeypatch):
    """Patch Newton's move to keep every moved partition with its weights."""
    moves = []

    def recorded(scn, part, weights):
        moved = areas_mod.moved_partition(scn, part, weights)
        if moved is not None:
            moves.append((scn, moved, weights))
        return moved

    monkeypatch.setattr(eq_mod, "moved_partition", recorded)
    return moves


class TestNewton:
    @pytest.mark.parametrize("markets", newton_markets())
    def test_agrees_with_best_response_alone(self, markets, monkeypatch):
        reports = solve_warm(markets)
        monkeypatch.setattr(eq_mod, "NEWTON_STEPS", 0)
        for scn, report, alone in zip(markets, reports, solve_warm(markets)):
            assert report.converged and alone.converged
            assert report.activation == alone.activation
            gap = np.max(np.abs(report.prices.as_array() - alone.prices.as_array()))
            assert gap <= eq_mod.TOL_RTOL * scn.price_upper
            assert report.iterations <= alone.iterations

    def test_plane_lattice_takes_one_certificate_sweep(self, monkeypatch, caplog):
        scn = load_scenario((SCENARIOS / "plane_lattice.json").read_text())
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return response_mod.best_response(*args, **kwargs)

        monkeypatch.setattr(eq_mod, "best_response", counted)
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            report = iterate_best_response(scn)
        assert report.converged
        assert len(calls) <= 25
        message = newton_record(caplog)
        assert "converged, 1 certificate sweeps" in message
        # the exact cells put every free price at the lattice's 0.5
        prices = report.prices.as_array()
        for c in scn.companies:
            if not c.frozen:
                assert abs(prices[scn.index_of[c.id]] - 0.5) <= 1e-14, c.id
        assert report.residual <= 1e-14

    def test_empty_cell_hands_over_to_best_response(self, monkeypatch, caplog):
        scn = random_line_scenario(np.random.default_rng(1009), q=0)
        start = solve_partition(scn, PriceVector.from_scenario(scn))
        assert start.areas[2] == 0.0
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            report = iterate_best_response(scn)
        assert report.converged
        first, again = newton_records(caplog)
        assert "handed over: company 2 holds no market" in first
        assert ", converged, " in again
        assert certificate_sweeps(first) + certificate_sweeps(again) <= 3
        monkeypatch.setattr(eq_mod, "NEWTON_STEPS", 0)
        alone = iterate_best_response(scn)
        gap = np.max(np.abs(report.prices.as_array() - alone.prices.as_array()))
        assert gap <= eq_mod.TOL_RTOL * scn.price_upper

    def test_failed_partition_hands_over(self, monkeypatch, caplog):
        scn = random_line_scenario(np.random.default_rng(8003), q=1)
        reference = iterate_best_response(scn)

        def singular(*args, **kwargs):
            raise SingularSystem("boundary system is singular")

        monkeypatch.setattr(eq_mod, "solve_partition", singular)
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            report = iterate_best_response(scn)
        assert report.converged
        messages = newton_records(caplog)
        assert len(messages) == 1 + eq_mod.NEWTON_REENTRIES
        assert all("handed over: partition failed (boundary system is singular)" in m for m in messages)
        gap = np.max(np.abs(report.prices.as_array() - reference.prices.as_array()))
        assert gap <= eq_mod.TOL_RTOL * scn.price_upper

    @pytest.mark.parametrize("seed", range(10))
    def test_identity_holds_at_criterion_8_prices(self, seed):
        # Newton lands on the root of the price-area identity, which the
        # certificate sweep then leaves where it is
        scn = random_line_scenario(np.random.default_rng(8000 + seed), q=1)
        report = iterate_best_response(scn)
        assert report.converged
        checked = 0
        for cond in report.per_company.values():
            if cond.frozen or cond.hidden or cond.area <= 0 or cond.has_potential_competitor:
                continue
            assert cond.condition_residual <= 1e-12 * cond.price
            checked += 1
        assert checked

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_unusable_jacobian_hands_over(self, fill, monkeypatch, caplog):
        # fill 0 makes J exactly zero (LinAlgError), nan makes it not
        # finite: the intensity is read off the same diagonal
        def broken(scenario, part):
            n = len(scenario.companies)
            return np.full((n, n), fill), np.zeros((n, n))

        monkeypatch.setattr(eq_mod, "area_jacobian", broken)
        scn = lattice_1d(n=7)
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            report = iterate_best_response(scn, tol=1e-10 * scn.price_upper)
        assert report.converged
        # every entry, the re-entries too, meets the same broken Jacobian
        messages = newton_records(caplog)
        assert len(messages) == 1 + eq_mod.NEWTON_REENTRIES
        assert all("handed over: Jacobian singular or not finite" in m for m in messages)
        for cid in range(1, 6):
            assert report.prices.price_of(scn, cid) == pytest.approx(1.0, abs=1e-7)

    def test_moved_partitions_match_a_fresh_clip_on_the_rings(self, monkeypatch, caplog):
        moves = record_moves(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            for param in plane_newton_markets():
                if param.id.startswith("ring-"):
                    (scn,) = param.values[0]
                    assert iterate_best_response(scn).converged
        for scn, moved, weights in moves:
            assert_moved_is_the_partition(scn, moved, weights)
        assert len(moves) >= 30
        runs = newton_runs(caplog)
        assert len(runs) == 12 and sum(run[1] for run in runs) == len(moves)
        for steps, moved, clipped, outcome, _ in runs:
            assert outcome == "converged" and moved + clipped == steps and clipped >= 1

    def test_moved_partitions_build_no_edge_table(self, monkeypatch):
        # a plane partition's edge table is built where a clip builds the
        # partition; a move carries it forward with only its vertices
        # moved, and a Jacobian reads it
        calls = {"_edge_table": 0, "_partition_2d": 0, "area_jacobian": 0, "moved": 0}

        def counted(module, name):
            function = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        def moved_partition(scn, part, weights):
            moved = areas_mod.moved_partition(scn, part, weights)
            if moved is not None:
                calls["moved"] += 1
                for name in ("cell", "owner", "prev", "succ", "normal"):
                    assert getattr(moved.edges, name) is getattr(part.edges, name), name
                assert not np.array_equal(moved.edges.start, part.edges.start)
            return moved

        counted(areas_mod, "_edge_table")
        counted(areas_mod, "_partition_2d")
        counted(eq_mod, "area_jacobian")
        monkeypatch.setattr(eq_mod, "moved_partition", moved_partition)
        for param in plane_newton_markets():
            if param.id.startswith("ring-"):
                (scn,) = param.values[0]
                assert iterate_best_response(scn).converged
        assert calls["moved"] >= 30 and calls["area_jacobian"] > calls["moved"]
        assert calls["_edge_table"] == calls["_partition_2d"]

    @pytest.mark.parametrize("k", range(30))
    def test_moved_partitions_match_a_fresh_clip_on_random_planes(self, k, monkeypatch):
        moves = record_moves(monkeypatch)
        scn = random_scenario(np.random.default_rng(k), "plane")
        iterate_best_response(scn)
        for scn, moved, weights in moves:
            assert_moved_is_the_partition(scn, moved, weights)

    def test_moved_partitions_match_a_fresh_clip_on_a_jittered_lattice(self, monkeypatch):
        # Newton's steps from these prices change the cells' type, so it
        # may move nothing; what it moves must still be the partition
        moves = record_moves(monkeypatch)
        scn = lattice_2d(7)
        rng = np.random.default_rng(5)
        init = [c.price if c.frozen else float(rng.uniform(0.6, 1.4)) for c in scn.companies]
        assert iterate_best_response(scn, init=PriceVector(tuple(init))).converged
        for scn, moved, weights in moves:
            assert_moved_is_the_partition(scn, moved, weights)

    @pytest.mark.parametrize("markets", plane_newton_markets())
    def test_refusing_every_move_changes_nothing(self, markets, monkeypatch, caplog):
        (scn,) = markets
        with caplog.at_level(logging.DEBUG, logger="marketcells.equilibrium"):
            report = iterate_best_response(scn)
            moving = newton_runs(caplog)
            caplog.clear()
            monkeypatch.setattr(eq_mod, "moved_partition", lambda *args: None)
            clipping = iterate_best_response(scn)
            refused = newton_runs(caplog)
        assert report.iterations == clipping.iterations
        assert report.converged == clipping.converged
        # the same steps, hand-overs and sweeps, every partition clipped
        assert [(r[0], r[3], r[4]) for r in moving] == [(r[0], r[3], r[4]) for r in refused]
        assert all(r[1] == 0 for r in refused)
        assert [r[1] + r[2] for r in moving] == [r[2] for r in refused]
        gap = np.max(np.abs(report.prices.as_array() - clipping.prices.as_array()))
        assert gap <= 1e-13 * scn.price_upper


class TestVerify:
    def test_lattice_equilibrium_verifies(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn, tol=1e-10 * scn.price_upper)
        check = verify_equilibrium(scn, report.prices)
        assert check.converged
        for cid in range(1, 6):
            cond = check.per_company[cid]
            assert cond.gamma == pytest.approx(1.0)
            assert cond.condition_residual < 1e-8

    def test_perturbed_price_flagged(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn, tol=1e-10 * scn.price_upper)
        poked = report.prices.with_price(scn, 3, report.prices.price_of(scn, 3) + 0.1)
        check = verify_equilibrium(scn, poked)
        assert not check.converged
        assert check.per_company[3].condition_residual > 0.01

    def test_frozen_companies_carry_no_condition(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn)
        assert report.per_company[0].condition_residual is None
        assert report.per_company[0].frozen

    def test_sensitivity_approximation_reported(self):
        # with no brand pull the closed approximation collapses to the
        # inverse competition intensity, matching both one-sided values
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn)
        cond = report.per_company[3]
        assert cond.c_approx == pytest.approx(1.0 / cond.gamma)
        assert cond.c_lower == pytest.approx(cond.c_approx)
        scn_q1 = triple_q1(0.3)
        rep_q1 = iterate_best_response(scn_q1)
        mid = rep_q1.per_company[1]
        assert mid.c_approx is not None and mid.c_approx > 0
        assert mid.c_lower is not None and mid.c_lower > 0

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_invalid_tolerance_rejected(self, tol):
        scn = triple_q1(0.5)
        with pytest.raises(ValidationError, match="tol"):
            verify_equilibrium(scn, PriceVector.from_scenario(scn), tol=tol)

    def test_hidden_cannot_enter_when_flanks_are_cheap(self):
        scn = triple_q1(1.2, prices=(0.2, 1.0, 0.2))
        report = iterate_best_response(scn)
        assert report.activation.hidden == {1}
        audit = audit_unilateral_deviations(scn, report.prices, samples=2_000)
        assert audit[1].improvement == 0.0
        assert audit[1].current_profit == 0.0
        check = verify_equilibrium(scn, report.prices)
        assert check.converged

    def test_q1_equilibrium_price_area_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(4):
            scn = random_line_scenario(rng, q=1)
            report = iterate_best_response(scn)
            assert report.converged
            for cid, cond in report.per_company.items():
                if cond.frozen or cond.hidden or cond.area <= 0:
                    continue
                if cond.has_potential_competitor:
                    continue
                assert cond.condition_residual <= 1e-6 * cond.price


class TestSensitivityBand:
    def test_one_sided_band_at_a_kink(self):
        # company B (position 1, price 2.2) holds no market once the
        # focal company C (position 2) prices below 1.4; at exactly 1.4
        # B ties on C's boundary, so C's area slope is -1 on the way up
        # (B alive, flanks at distance 1) and -0.75 on the way down
        # (flank A at distance 2), bracketing the price between
        # c_lower * S = 1.2 and c_upper * S = 1.6.  The report takes the
        # band on the brand-feedback path with the brand weight at zero.
        scn = line_scenario(
            [0.0, 1.0, 2.0, 3.0],
            [1.0, 2.2, 1.4, 1.0],
            frozen=[True, True, False, True],
            q=1,
            price_upper=6.0,
            margin=1.0,
        )
        pv = PriceVector.from_scenario(scn)
        part = solve_partition(scn, pv)
        assert part.areas[1] == pytest.approx(0.0)
        assert 1 in part.potential_competitors[2]
        assert part.areas[2] == pytest.approx(1.2)
        # c_upper is the Jacobian's, c_lower the solve's just above the price
        k = scn.index_of[2]
        assert -1.0 / areas_mod.area_jacobian(scn, part)[0][k, k] == pytest.approx(
            4.0 / 3.0, rel=1e-12, abs=0.0
        )
        cond = verify_equilibrium(scn, pv).per_company[2]
        assert cond.c_lower == pytest.approx(1.0, rel=1e-12, abs=0.0)
        assert cond.c_upper == pytest.approx(4.0 / 3.0, rel=1e-12, abs=0.0)
        assert cond.c_lower * part.areas[2] <= 1.4 <= cond.c_upper * part.areas[2]
        assert cond.condition_residual == 0.0

    @pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.5])
    def test_exact_band_on_symmetric_triple(self, beta):
        # the middle company's sensitivity has the closed form 1 - 1.5 beta
        report = iterate_best_response(triple_q1(beta))
        cond = report.per_company[1]
        assert not cond.has_potential_competitor
        assert cond.c_lower == cond.c_upper
        assert cond.c_upper == pytest.approx(1.0 - 1.5 * beta, rel=1e-14, abs=0.0)
        assert cond.condition_residual <= 1e-14 * cond.price

    def test_one_area_solve_per_optimizer(self, monkeypatch):
        # c_upper comes from the report partition's Jacobian; only a tied
        # optimizer (a potential competitor) costs a solve, just above its
        # price.  The criterion-8 market has no tie, the threshold one two.
        scn = random_line_scenario(np.random.default_rng(8000), q=1)
        report = iterate_best_response(scn)
        tie = threshold_tie_market(0.35)
        markets = [
            (scn, report.prices, report.activation, 0),
            (tie, PriceVector.from_scenario(tie), None, 2),
        ]
        calls = []
        for module in (areas_mod, response_mod, eq_mod):
            for name in ("fast_area", "fast_signature"):
                solve = getattr(module, name, None)
                if solve is None:
                    continue

                def counted(*args, _solve=solve, **kwargs):
                    calls.append(args)
                    return _solve(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        for scn, prices, activation, ties in markets:
            part = solve_partition(scn, prices)
            calls.clear()
            conditions = eq_mod._company_conditions(scn, prices, part, activation)
            optimizers = [
                c for c in conditions.values() if not (c.frozen or c.hidden) and c.area > 0
            ]
            tied = sum(c.has_potential_competitor for c in optimizers)
            assert len(optimizers) >= 2 and tied == ties
            assert len(calls) == ties

    @pytest.mark.parametrize(
        "scn",
        [
            pytest.param(
                random_line_scenario(np.random.default_rng(8000 + k), q=1), id=f"criterion-8-{k}"
            )
            for k in range(10)
        ]
        + [pytest.param(brand_triple(b), id=f"triple-{b}") for b in (0.3, 0.5)],
    )
    def test_upper_sensitivity_is_the_one_company_solve(self, scn):
        # the Jacobian of the whole report partition against the
        # independent solve of one company's area piece at the price
        report = iterate_best_response(scn)
        values = report.prices.as_array()
        eps = areas_mod.area_tolerance(scn)
        checked = 0
        for cid, cond in report.per_company.items():
            if cond.frozen or cond.hidden or cond.area <= eps:
                continue
            slope = areas_mod.fast_signature(scn, values, cid).slope
            assert cond.c_upper == (-1.0 / slope if slope < 0.0 else None)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize(
        "beta, c_lower", [(0.35, 0.4565831435079728), (0.4, 0.37419354838709684)]
    )
    def test_threshold_tie_keeps_the_wipeout(self, beta, c_lower):
        # company 2, evicted by the brand threshold, ties at the boundary
        # of companies 1 and 3.  One tick up from company 3's price takes
        # the piece where company 2 trades; one tick up from company 1's
        # wipes company 1 out, so it has no lower sensitivity.
        scn = threshold_tie_market(beta)
        report = verify_equilibrium(scn, PriceVector.from_scenario(scn))
        one, three = report.per_company[1], report.per_company[3]
        assert one.has_potential_competitor and three.has_potential_competitor
        assert one.c_lower is None
        assert three.c_lower == pytest.approx(c_lower, rel=1e-12, abs=0.0)
        assert three.c_lower < three.c_upper

    def test_verify_partitions_once(self, monkeypatch):
        scn = load_scenario((SCENARIOS / "brand_triple.json").read_text())
        report = iterate_best_response(scn)
        calls = []
        solve = areas_mod._partition_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(areas_mod, "_partition_1d", counted)
        check = verify_equilibrium(scn, report.prices)
        assert len(calls) == 1
        assert check.per_company == report.per_company


class TestAudit:
    def test_lattice_audit_clean(self):
        scn = lattice_1d(n=7)
        report = iterate_best_response(scn, tol=1e-10 * scn.price_upper)
        audit = audit_unilateral_deviations(scn, report.prices, samples=4_000)
        for cid, result in audit.items():
            assert result.improvement <= 1e-6 * max(result.current_profit, 1e-12)


class TestMultiStartAndSerialization:
    def test_multi_start_deterministic(self):
        scn = lattice_1d(n=5)
        a = multi_start(scn, starts=3, seed=11)
        b = multi_start(scn, starts=3, seed=11)
        assert [r.prices for r in a] == [r.prices for r in b]
        for r in a:
            assert r.converged

    def test_verify_at_numpy_prices_serializes(self):
        # prices from numpy arithmetic once gave a numpy.bool_ "converged"
        # that json refused
        scn = random_line_scenario(np.random.default_rng(8000), q=1)
        report = iterate_best_response(scn)
        values = tuple(
            np.float64(p) - 1e-9 if not c.frozen and p < scn.price_upper else p
            for c, p in zip(scn.companies, report.prices.values)
        )
        check = verify_equilibrium(scn, PriceVector(values))
        assert type(check.converged) is bool
        assert all(type(v) is float for v in check.prices.values)
        doc = json.loads(json.dumps(report_to_dict(scn, check)))
        assert doc["prices"] == check.prices.to_doc(scn)

    def test_report_round_trips_through_json(self):
        scn = triple_q1(0.4)
        report = iterate_best_response(scn)
        doc = json.loads(json.dumps(report_to_dict(scn, report)))
        prices = PriceVector.from_mapping(
            scn, {int(k): v for k, v in doc["prices"].items()}
        )
        assert prices == report.prices
        assert doc["activation"]["hidden"] == []
        assert doc["wipeout"]["thresholds"]["1"] == pytest.approx(1.0)
