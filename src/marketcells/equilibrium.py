"""Equilibrium search and verification.

Newton's method on the stationarity condition ``S_i + P_i dS_i/dP_i = 0``
(the price-area identity: a company's price is its area over its
competition intensity) first brings prices to its root, and iterated best
response then certifies it, or takes over and hands back to Newton.  The
same Newton method serves both brand exponents.  Under linear
brand feedback the market may not admit a state where everyone prices
freely: companies packed tighter than the wipe-out threshold are then
*hidden* (parked at the price ceiling with no market) by an activation
construction, and the remaining companies equilibrate among themselves.
Verification checks the price-area identities a true equilibrium must
satisfy: price times competition intensity equals area when the brand
bonus cancels, and the one-sided price-sensitivity band otherwise.
Newton and the reports read one competition intensity, ``-dS_i/dP_i`` off
the diagonal of the exact area Jacobian (:func:`area_jacobian`).  In the
plane a Newton step moves the last partition's vertices with the prices
where certificates show the moved cells are the partition
(:func:`moved_partition`), and clips afresh only where one fails; the
report's partition, verification and the certificate sweep always clip.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .areas import (
    MarketPartition,
    WipeoutDiagnostics,
    _boundary_matrix,
    _debug_logger,
    _solve_sorted_line,
    area_jacobian,
    area_tolerance,
    fast_signature,
    line_layout,
    line_thresholds,
    moved_partition,
    singular_boundaries,
    solve_areas_q1_1d,
    solve_partition,
)
from .errors import MarketCellsError, NoValidScheme, SingularSystem, ValidationError
from .model import PriceVector, Scenario
from .response import best_response, profit_curve, utility

__all__ = [
    "ActivationScheme",
    "CompanyConditions",
    "DeviationAudit",
    "EquilibriumReport",
    "audit_unilateral_deviations",
    "construct_activation",
    "iterate_best_response",
    "multi_start",
    "report_to_dict",
    "verify_equilibrium",
]

TOL_RTOL = 1e-8
MAX_SWEEPS = 10_000
ONE_SIDED_STEP_RTOL = 1e-6
# Newton steps before the best-response sweeps take over from the best
# iterate; a converging solve takes 1-2 on a line and about 5 in the plane.
NEWTON_STEPS = 20
# Newton runs after the first, each entered after a sweep that moved a
# price when the run before it handed over.
NEWTON_REENTRIES = 3


@dataclass(frozen=True)
class ActivationScheme:
    """Who trades and who is parked at the price ceiling."""

    activated: tuple[int, ...]
    hidden: frozenset[int]


@dataclass
class CompanyConditions:
    """Per-company equilibrium diagnostics.

    ``condition_residual`` measures the price-area identity: with no
    brand feedback it is ``|P * gamma - S|``; with feedback it is the
    distance to the admissible band ``[c_lower * S, c_upper * S]`` (zero
    inside), or ``|P - c * S|`` when no potential competitor kinks the
    area at ``P`` and ``c = c_lower = c_upper``.  Each ``c = -1 / (dS/dP)``
    is exact, ``None`` where the area does not fall.  ``c_upper`` is the
    piece below the price: the exact area Jacobian's diagonal on the
    report's partition, which drops a tied zero-area company.  ``c_lower``
    is the piece above; only at a tie does it differ, and then it comes
    from one area solve just above the price, as one tick up may wipe the
    company out, which no Jacobian of the survivors shows.
    ``c_approx`` is the closed-form small-brand-weight approximation of
    that sensitivity, reported for comparison, never asserted.
    """

    price: float
    frozen: bool
    hidden: bool
    area: float
    gamma: float | None
    condition_residual: float | None
    c_lower: float | None
    c_upper: float | None
    c_approx: float | None
    has_potential_competitor: bool


@dataclass
class EquilibriumReport:
    prices: PriceVector
    converged: bool
    iterations: int
    residual: float
    schedule: str
    initial: PriceVector
    activation: ActivationScheme | None
    per_company: dict[int, CompanyConditions]
    cycle: tuple[PriceVector, PriceVector] | None = None
    wipeout: WipeoutDiagnostics | None = None


@dataclass(frozen=True)
class DeviationAudit:
    """Best unilateral deviation found by a dense price scan."""

    improvement: float
    best_price: float
    current_profit: float


# ---------------------------------------------------------------------------
# Activation construction
# ---------------------------------------------------------------------------


def _sorted_by_position(scenario: Scenario, ids) -> list[int]:
    keep, all_ids = set(ids), scenario.ids
    return [all_ids[k] for k in line_layout(scenario)[0] if all_ids[k] in keep]


def _violators(scenario: Scenario, active: set[int]) -> dict[int, float]:
    """Non-frozen active companies packed tighter than their wipe-out
    threshold against their nearest active flanks, with that threshold.

    A company also violates, whatever its threshold, where the line solve
    could not place its boundaries: when the boundary system of the
    active set is singular, or the boundary with an adjacent active
    company (frozen ones included) is singular on its own, a zero
    diagonal ``2 (d - beta)``.
    """
    ordered = _sorted_by_position(scenario, active)
    x = np.array([scenario.company(cid).position[0] for cid in ordered])
    singular = np.zeros(len(ordered), dtype=bool)
    if len(ordered) > 1:
        A = _boundary_matrix(np.diff(x), scenario.beta)
        pair = np.diag(A) == 0.0
        singular[:-1] |= pair
        singular[1:] |= pair
        singular |= singular_boundaries(A)
    return {
        cid: thr
        for cid, thr, stuck in zip(ordered, line_thresholds(x), singular)
        if (scenario.beta >= thr or stuck) and not scenario.company(cid).frozen
    }


def construct_activation(scenario: Scenario) -> ActivationScheme:
    """Choose a maximal set of companies that can coexist without
    wipe-out, hiding the rest.

    Frozen companies are part of the landscape unconditionally: they
    cannot be re-priced to the ceiling, so they are never hidden and
    carry no own-condition.  Activation proceeds lowest id first; then,
    while some hidden company could itself stand the market, it replaces
    an activated company that could not, until every hidden company
    fails its own condition.  Swap-limited; exceeding the budget raises
    :class:`NoValidScheme`, and so does a scheme whose market, hidden
    companies at the ceiling, has a singular boundary system.
    """
    if scenario.q != 1 or scenario.dimension != 1:
        raise ValidationError("activation construction applies to 1D brand-feedback markets")
    active: set[int] = {c.id for c in scenario.companies if c.frozen}
    candidates = [c.id for c in sorted(scenario.companies, key=lambda c: c.id) if not c.frozen]

    for cid in candidates:
        trial = active | {cid}
        if not _violators(scenario, trial):
            active = trial

    hidden = set(candidates) - active
    budget = max(4, len(scenario.companies) ** 2)
    for _ in range(budget):
        # keep the spacing condition airtight among activated companies
        bad = _violators(scenario, active)
        if bad:
            evict = min(bad, key=lambda v: (bad[v], v))
            active.discard(evict)
            hidden.add(evict)
            continue
        entrant = next(
            (cid for cid in sorted(hidden) if cid not in _violators(scenario, active | {cid})),
            None,
        )
        if entrant is None:
            break
        # the entrant satisfies its own spacing bound; any crowding it
        # causes is resolved by the eviction pass above
        active = active | {entrant}
        hidden.discard(entrant)
    else:
        raise NoValidScheme("activation swaps exceeded their budget")

    values = np.array(
        [scenario.price_upper if c.id in hidden else c.price for c in scenario.companies]
    )
    try:
        _solve_sorted_line(scenario, values)
    except SingularSystem as exc:
        raise NoValidScheme(f"the market of the activation scheme does not solve: {exc}") from exc
    return ActivationScheme(
        activated=tuple(_sorted_by_position(scenario, active)),
        hidden=frozenset(hidden),
    )


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


def _close(a: tuple[float, ...], b: tuple[float, ...], tol: float) -> bool:
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


def _tolerance(scenario: Scenario, tol: float | None) -> float:
    """The sweep tolerance, ``TOL_RTOL * price_upper`` unless given."""
    tol = TOL_RTOL * scenario.price_upper if tol is None else tol
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValidationError(f"tol must be finite and non-negative, got {tol}")
    return tol


def _sweep(
    scenario: Scenario, prices: PriceVector, optimizers: list[int], simultaneous: bool
) -> tuple[PriceVector, float]:
    """One best response per optimizer, in order: each against the prices
    committed so far, or all against ``prices`` when ``simultaneous``.
    Returns the new prices and the largest single move."""
    moved = prices
    residual = 0.0
    for cid in optimizers:
        br = best_response(scenario, prices if simultaneous else moved, cid)
        residual = max(residual, abs(br.price - prices.price_of(scenario, cid)))
        moved = moved.with_price(scenario, cid, br.price)
    return moved, residual


class _NewtonRun(NamedTuple):
    """Where the Newton phase left the prices, and how it got there."""

    prices: PriceVector
    moves: int
    residuals: list[float]
    handover: str | None
    moved: int
    clipped: int


def _with_prices(prices: PriceVector, index: list[int], price: np.ndarray) -> PriceVector:
    """``prices`` with the entries at ``index`` set to ``price``.  The other
    entries keep their float objects, so reports that a caller keeps share
    the prices Newton does not move (frozen and hidden companies) with
    their input instead of holding copies."""
    values = list(prices.values)
    for k, v in zip(index, price.tolist()):
        values[k] = v
    return PriceVector(tuple(values))


def _newton(
    scenario: Scenario, prices: PriceVector, optimizers: list[int], tol: float
) -> _NewtonRun:
    """Newton's method on the stationarity condition ``F_i(P) = S_i(P) +
    P_i dS_i/dP_i`` over the optimizers' prices, for both brand exponents.

    Each step takes a partition at the prices, the exact Jacobian from it
    (:func:`area_jacobian`), and solves ``J dP = -F``.  In the plane the
    partition of the step before is moved to the new prices where its
    certificates pass (:func:`moved_partition`: the same cells, so the
    same partition a clip gives, to rounding); the first step, every step
    on a line and every refused move solve a full partition.  Both
    exponents read the same intensity ``-dS_i/dP_i``, the diagonal of the
    exact ``dS``: ``gamma_i`` to the bit without brand feedback (``q =
    0``), so ``F_i = S_i - P_i gamma_i``.  With it (``q = 1``, on a line)
    the survivor set fixed makes the areas affine in the prices, so one
    step lands on the root of that piece.  Corner contacts, survivor
    changes and potential competitors make ``F`` only piecewise smooth, so
    this is semismooth Newton: neither a rise of ``max|F|`` nor a change of
    neighbor or survivor set stops it.  It stops at the point a step
    reaches when no price moved by more than ``tol``.  It hands over its
    best iterate (the smallest ``max|F|``), with the reason, when an
    optimizer holds no market, a price leaves ``[0, price_upper]``, the
    Jacobian is singular or not finite, a partition fails, or
    ``NEWTON_STEPS`` steps have not converged.  ``moves`` counts the steps
    that moved a price by more than ``tol``; ``residuals`` holds ``max|F|``
    at each partition; ``moved`` and ``clipped`` count the partitions moved
    and the full partitions solved.
    """
    index = [scenario.index_of[cid] for cid in optimizers]
    price = prices.as_array()[index]
    best, best_residual = prices, math.inf
    residuals: list[float] = []
    moves = moved = clipped = 0
    part = None

    def run(at: PriceVector, handover: str | None) -> _NewtonRun:
        return _NewtonRun(at, moves, residuals, handover, moved, clipped)

    for _ in range(NEWTON_STEPS):
        current = _with_prices(prices, index, price)
        if part is not None:
            # None on a line, and wherever the move is refused
            part = moved_partition(scenario, part, current.as_array())
            moved += part is not None
        if part is None:
            clipped += 1
            try:
                part = solve_partition(scenario, current, check_window=False)
            except MarketCellsError as exc:
                return run(best, f"partition failed ({exc})")
        empty = next((cid for cid in optimizers if part.cells[cid] is None), None)
        if empty is not None:
            return run(best, f"company {empty} holds no market")
        d_area, d_gamma = (m[np.ix_(index, index)] for m in area_jacobian(scenario, part))
        area = np.array([part.areas[cid] for cid in optimizers])
        intensity = -np.diag(d_area)
        residual = area - price * intensity
        residuals.append(float(np.max(np.abs(residual))))
        if residuals[-1] < best_residual:
            best, best_residual = current, residuals[-1]
        jacobian = d_area - np.diag(intensity) - price[:, None] * d_gamma
        try:
            step = np.linalg.solve(jacobian, -residual)
        except np.linalg.LinAlgError:
            step = np.full(len(index), np.nan)
        if not np.all(np.isfinite(step)):
            return run(best, "Jacobian singular or not finite")
        price = price + step
        if np.any(price < 0.0) or np.any(price > scenario.price_upper):
            return run(best, "a price left [0, price_upper]")
        if float(np.max(np.abs(step))) <= tol:
            return run(_with_prices(prices, index, price), None)
        moves += 1
    return run(best, f"no convergence in {NEWTON_STEPS} steps")


def _partition(
    scenario: Scenario, prices: PriceVector
) -> tuple[MarketPartition, WipeoutDiagnostics | None]:
    """The partition a report reads, with wipe-out diagnostics under
    brand feedback."""
    if scenario.q == 1:
        return solve_areas_q1_1d(scenario, prices)
    return solve_partition(scenario, prices), None


def iterate_best_response(
    scenario: Scenario,
    init: PriceVector | None = None,
    schedule: str = "roundrobin",
    tol: float | None = None,
    max_iter: int = MAX_SWEEPS,
) -> EquilibriumReport:
    """Replace each optimizer's price with its best response until the
    largest single-sweep move drops below ``tol``.

    The sweeps start where Newton's method on the price-area identity
    stops (:func:`_newton`, for both brand exponents; under brand feedback
    over the companies the activation left active, the hidden ones staying
    at the ceiling), so they normally certify its root with one sweep that
    moves nothing.  When Newton hands over, the sweeps start from its best
    iterate, and after each sweep that moved a price Newton runs again
    from the swept prices, up to ``NEWTON_REENTRIES`` times, until a run
    converges.  ``roundrobin``
    commits each best response immediately (in company-id order);
    ``simultaneous`` computes all of them against a snapshot and commits
    together, which can orbit: a two-cycle is detected and reported as
    non-convergence with the cycle attached.  ``iterations`` counts the
    Newton steps (of every run) and sweeps that moved a price by more than
    ``tol``, so starting at an equilibrium reports zero.
    """
    if schedule not in ("roundrobin", "simultaneous"):
        raise ValueError(f"unknown schedule {schedule!r}")
    tol = _tolerance(scenario, tol)
    if max_iter < 1:
        raise ValidationError(f"max_iter must be at least 1, got {max_iter}")
    prices = PriceVector.from_scenario(scenario) if init is None else init
    prices.check_against(scenario)
    initial = prices

    activation = None
    optimizers = sorted(c.id for c in scenario.companies if not c.frozen)
    if scenario.q == 1:
        activation = construct_activation(scenario)
        for hid in sorted(activation.hidden):
            prices = prices.with_price(scenario, hid, scenario.price_upper)
        optimizers = [cid for cid in optimizers if cid not in activation.hidden]

    # each Newton run and the sweep count at its entry
    runs: list[tuple[_NewtonRun, int]] = []
    if optimizers:
        runs.append((_newton(scenario, prices, optimizers, tol), 0))
        prices = runs[-1][0].prices

    history = [prices.values]
    converged = False
    moving = 0
    cycle = None
    for sweeps in range(1, max_iter + 1):
        prices, residual = _sweep(scenario, prices, optimizers, schedule == "simultaneous")
        history.append(prices.values)
        if residual <= tol:
            converged = True
            break
        moving += 1
        if (
            len(history) >= 3
            and _close(history[-1], history[-3], tol)
            and not _close(history[-1], history[-2], tol)
        ):
            cycle = (PriceVector(history[-2]), PriceVector(history[-1]))
            break
        if runs and runs[-1][0].handover is not None and len(runs) <= NEWTON_REENTRIES:
            runs.append((_newton(scenario, prices, optimizers, tol), sweeps))
            prices = runs[-1][0].prices
            history = [prices.values]
    iterations = moving + sum(run.moves for run, _ in runs)

    log = _debug_logger(__name__)
    if log is not None:
        ends = [entered for _, entered in runs[1:]] + [sweeps]
        for (run, entered), end in zip(runs, ends):
            log.debug(
                "newton: %d steps (%d partitions moved, %d clipped), max|F| %s, %s, "
                "%d certificate sweeps",
                run.moves + (run.handover is None),
                run.moved,
                run.clipped,
                "[" + ", ".join(f"{r:.2e}" for r in run.residuals) + "]",
                f"handed over: {run.handover}" if run.handover else "converged",
                end - entered,
            )

    part, wipeout = _partition(scenario, prices)
    return EquilibriumReport(
        prices=prices,
        converged=converged,
        iterations=iterations,
        residual=residual,
        schedule=schedule,
        initial=initial,
        activation=activation,
        per_company=_company_conditions(scenario, prices, part, activation),
        cycle=cycle,
        wipeout=wipeout,
    )


def verify_equilibrium(
    scenario: Scenario, prices: PriceVector, tol: float | None = None
) -> EquilibriumReport:
    """Check a candidate price vector without moving it.

    Runs one non-committing best-response sweep for the residual and
    fills the per-company identity diagnostics.  A company parked at the
    ceiling with no market naturally contributes zero residual: its best
    response is the ceiling itself.
    """
    tol = _tolerance(scenario, tol)
    prices.check_against(scenario)
    optimizers = [c.id for c in scenario.companies if not c.frozen]
    _, residual = _sweep(scenario, prices, optimizers, simultaneous=True)
    part, wipeout = _partition(scenario, prices)
    activation = None
    if scenario.q == 1:
        eps = area_tolerance(scenario)
        hidden = frozenset(
            cid
            for cid in optimizers
            if part.areas[cid] <= eps and prices.price_of(scenario, cid) == scenario.price_upper
        )
        activation = ActivationScheme(
            tuple(_sorted_by_position(scenario, set(scenario.ids) - hidden)), hidden
        )
    return EquilibriumReport(
        prices=prices,
        converged=residual <= tol,
        iterations=0,
        residual=residual,
        schedule="verify",
        initial=prices,
        activation=activation,
        per_company=_company_conditions(scenario, prices, part, activation),
        wipeout=wipeout,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _sensitivity(slope: float) -> float | None:
    """``-1 / slope`` as a float, ``None`` where the area does not fall."""
    return -1.0 / float(slope) if slope < 0.0 else None


def _brand_sensitivity_approx(
    scenario: Scenario, part: MarketPartition, company_id: int
) -> float | None:
    """Small-brand-weight closed form for -dP/dS at an interior optimum."""
    edges = part.neighbors.get(company_id, ())
    if not edges:
        return None
    beta = scenario.beta if scenario.q == 1 else 0.0
    g = [e.border_length / (2.0 * e.distance) for e in edges]
    denom = sum(gj * (beta * gj + 1.0) for gj in g)
    if denom <= 0.0:
        return None
    return (1.0 - beta * sum(g)) / denom


def _company_conditions(
    scenario: Scenario,
    prices: PriceVector,
    part: MarketPartition,
    activation: ActivationScheme | None,
) -> dict[int, CompanyConditions]:
    eps = area_tolerance(scenario)
    hidden = activation.hidden if activation is not None else frozenset()
    d_area = area_jacobian(scenario, part)[0] if scenario.q == 1 else None
    out: dict[int, CompanyConditions] = {}
    for c in scenario.companies:
        price = prices.price_of(scenario, c.id)
        area = part.areas[c.id]
        gamma = part.gamma(c.id)
        has_pc = part.has_potential_competitor(c.id)
        is_hidden = c.id in hidden
        residual = c_lower = c_upper = c_approx = None
        if not c.frozen and not is_hidden and area > eps:
            c_approx = _brand_sensitivity_approx(scenario, part, c.id)
            if scenario.q == 0:
                if gamma is not None and gamma > 0.0:
                    residual = abs(price * gamma - area)
                    c_lower = c_upper = 1.0 / gamma
            else:
                k = scenario.index_of[c.id]
                c_lower = c_upper = _sensitivity(d_area[k, k])
                if has_pc:
                    values = prices.as_array()
                    values[k] += ONE_SIDED_STEP_RTOL * scenario.price_upper
                    c_lower = None
                    if values[k] <= scenario.price_upper:
                        c_lower = _sensitivity(fast_signature(scenario, values, c.id).slope)
                    lo = c_lower * area if c_lower is not None else -math.inf
                    hi = c_upper * area if c_upper is not None else math.inf
                    residual = max(0.0, lo - price, price - hi)
                elif c_upper is not None:
                    residual = abs(price - c_upper * area)
        out[c.id] = CompanyConditions(
            price=price,
            frozen=c.frozen,
            hidden=is_hidden,
            area=area,
            gamma=gamma,
            condition_residual=residual,
            c_lower=c_lower,
            c_upper=c_upper,
            c_approx=c_approx,
            has_potential_competitor=has_pc,
        )
    return out


# ---------------------------------------------------------------------------
# Audits and multi-start
# ---------------------------------------------------------------------------


def audit_unilateral_deviations(
    scenario: Scenario,
    prices: PriceVector,
    samples: int = 10_000,
    company_ids: list[int] | None = None,
) -> dict[int, DeviationAudit]:
    """Dense scan of every optimizer's unilateral deviations.

    Independent of the optimizer: profits come straight from area
    solves on an even price grid.  At a true equilibrium no company
    improves by more than solver noise.
    """
    if company_ids is None:
        company_ids = [c.id for c in scenario.companies if not c.frozen]
    out: dict[int, DeviationAudit] = {}
    for cid in company_ids:
        w_now, _ = utility(scenario, prices, cid, prices.price_of(scenario, cid))
        grid, profits = profit_curve(scenario, prices, cid, samples)
        k = int(np.argmax(profits))
        out[cid] = DeviationAudit(
            improvement=max(0.0, float(profits[k]) - w_now),
            best_price=float(grid[k]),
            current_profit=w_now,
        )
    return out


def multi_start(
    scenario: Scenario,
    starts: int,
    seed: int = 0,
    schedule: str = "roundrobin",
    tol: float | None = None,
    max_iter: int = MAX_SWEEPS,
) -> list[EquilibriumReport]:
    """Equilibrium searches from randomized initial prices."""
    if starts < 1:
        raise ValidationError(f"multi-start needs at least one start, got {starts}")
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(starts):
        values = [
            c.price if c.frozen else float(rng.uniform(0.0, scenario.price_upper))
            for c in scenario.companies
        ]
        init = PriceVector(tuple(values))
        reports.append(
            iterate_best_response(scenario, init, schedule=schedule, tol=tol, max_iter=max_iter)
        )
    return reports


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def report_to_dict(scenario: Scenario, report: EquilibriumReport) -> dict:
    """JSON-ready view of a report; company ids become string keys."""
    doc: dict = {
        "prices": report.prices.to_doc(scenario),
        "converged": report.converged,
        "iterations": report.iterations,
        "residual": report.residual,
        "schedule": report.schedule,
        "initial": report.initial.to_doc(scenario),
        "activation": None,
        "per_company": {
            str(cid): dataclasses.asdict(c) for cid, c in sorted(report.per_company.items())
        },
        "cycle": None,
    }
    if report.activation is not None:
        doc["activation"] = {
            "activated": list(report.activation.activated),
            "hidden": sorted(report.activation.hidden),
        }
    if report.cycle is not None:
        doc["cycle"] = [pv.to_doc(scenario) for pv in report.cycle]
    if report.wipeout is not None:
        doc["wipeout"] = report.wipeout.to_dict()
    return doc
