"""Equilibrium search and verification.

Iterated best response drives prices to a fixed point.  Under linear
brand feedback the market may not admit a state where everyone prices
freely: companies packed tighter than the wipe-out threshold are then
*hidden* (parked at the price ceiling with no market) by an activation
construction, and the remaining companies equilibrate among themselves.
Verification checks the price-area identities a true equilibrium must
satisfy: price times competition intensity equals area when the brand
bonus cancels, and the one-sided price-sensitivity band otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .areas import (
    MarketPartition,
    WipeoutDiagnostics,
    area_tolerance,
    line_layout,
    solve_areas_q1_1d,
    solve_partition,
    wipeout_threshold,
)
from .errors import NoValidScheme, ValidationError
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
    inside), or ``|P - c * S|`` with the two-sided sensitivity when no
    potential competitor blurs the derivative.  ``c_approx`` is the
    closed-form small-brand-weight approximation of that sensitivity,
    reported for comparison, never asserted.
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
    keep = set(ids)
    return [scenario.ids[k] for k in line_layout(scenario)[0] if scenario.ids[k] in keep]


def _own_threshold(scenario: Scenario, active: set[int], cid: int) -> float:
    """Wipe-out threshold of ``cid`` against its nearest active flanks."""
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


def _violators(scenario: Scenario, active: set[int]) -> list[int]:
    """Non-frozen active companies packed tighter than their threshold."""
    out = []
    for cid in active:
        if scenario.company(cid).frozen:
            continue
        if scenario.beta >= _own_threshold(scenario, active, cid):
            out.append(cid)
    return out


def construct_activation(scenario: Scenario) -> ActivationScheme:
    """Choose a maximal set of companies that can coexist without
    wipe-out, hiding the rest.

    Frozen companies are part of the landscape unconditionally: they
    cannot be re-priced to the ceiling, so they are never hidden and
    carry no own-condition.  Activation proceeds lowest id first; then,
    while some hidden company could itself stand the market, it replaces
    an activated company that could not, until every hidden company
    fails its own condition.  Swap-limited; exceeding the budget raises
    :class:`NoValidScheme`.
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
            evict = min(
                bad, key=lambda v: (_own_threshold(scenario, active, v), v)
            )
            active.discard(evict)
            hidden.add(evict)
            continue
        entrant = None
        for cid in sorted(hidden):
            if scenario.beta < _own_threshold(scenario, active | {cid}, cid):
                entrant = cid
                break
        if entrant is None:
            break
        # the entrant satisfies its own spacing bound; any crowding it
        # causes is resolved by the eviction pass above
        active = active | {entrant}
        hidden.discard(entrant)
    else:
        raise NoValidScheme("activation swaps exceeded their budget")

    return ActivationScheme(
        activated=tuple(_sorted_by_position(scenario, active)),
        hidden=frozenset(hidden),
    )


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------


def _close(a: tuple[float, ...], b: tuple[float, ...], tol: float) -> bool:
    return max(abs(x - y) for x, y in zip(a, b)) <= tol


def iterate_best_response(
    scenario: Scenario,
    init: PriceVector | None = None,
    schedule: str = "roundrobin",
    tol: float | None = None,
    max_iter: int = MAX_SWEEPS,
) -> EquilibriumReport:
    """Replace each optimizer's price with its best response until the
    largest single-sweep move drops below ``tol``.

    ``roundrobin`` commits each best response immediately (in company-id
    order); ``simultaneous`` computes all of them against a snapshot and
    commits together, which can orbit: a two-cycle is detected and
    reported as non-convergence with the cycle attached.  ``iterations``
    counts sweeps that still moved prices, so starting at an equilibrium
    reports zero.
    """
    if schedule not in ("roundrobin", "simultaneous"):
        raise ValueError(f"unknown schedule {schedule!r}")
    tol = TOL_RTOL * scenario.price_upper if tol is None else tol
    prices = PriceVector.from_scenario(scenario) if init is None else init
    prices.check_against(scenario)
    initial = prices

    activation = None
    optimizers = [c.id for c in scenario.companies if not c.frozen]
    if scenario.q == 1:
        activation = construct_activation(scenario)
        for hid in sorted(activation.hidden):
            prices = prices.with_price(scenario, hid, scenario.price_upper)
        optimizers = [cid for cid in optimizers if cid not in activation.hidden]
    optimizers.sort()

    history = [prices.values]
    converged = False
    iterations = 0
    residual = 0.0
    cycle = None
    for _ in range(max_iter):
        if schedule == "roundrobin":
            residual = 0.0
            for cid in optimizers:
                br = best_response(scenario, prices, cid)
                residual = max(residual, abs(br.price - prices.price_of(scenario, cid)))
                prices = prices.with_price(scenario, cid, br.price)
        else:
            snapshot = prices
            residual = 0.0
            for cid in optimizers:
                br = best_response(scenario, snapshot, cid)
                residual = max(residual, abs(br.price - snapshot.price_of(scenario, cid)))
                prices = prices.with_price(scenario, cid, br.price)
        history.append(prices.values)
        if residual <= tol:
            converged = True
            break
        iterations += 1
        if (
            len(history) >= 3
            and _close(history[-1], history[-3], tol)
            and not _close(history[-1], history[-2], tol)
        ):
            cycle = (PriceVector(history[-2]), PriceVector(history[-1]))
            break

    return _build_report(
        scenario,
        prices,
        converged=converged,
        iterations=iterations,
        residual=residual,
        schedule=schedule,
        initial=initial,
        activation=activation,
        cycle=cycle,
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
    tol = TOL_RTOL * scenario.price_upper if tol is None else tol
    prices.check_against(scenario)
    residual = 0.0
    for c in scenario.companies:
        if c.frozen:
            continue
        br = best_response(scenario, prices, c.id)
        residual = max(residual, abs(br.price - prices.price_of(scenario, c.id)))
    activation = None
    if scenario.q == 1:
        part = solve_partition(scenario, prices)
        eps = area_tolerance(scenario)
        hidden = frozenset(
            c.id
            for c in scenario.companies
            if not c.frozen
            and part.areas[c.id] <= eps
            and prices.price_of(scenario, c.id) == scenario.price_upper
        )
        activated = tuple(
            _sorted_by_position(
                scenario, [c.id for c in scenario.companies if c.id not in hidden]
            )
        )
        activation = ActivationScheme(activated, hidden)
    return _build_report(
        scenario,
        prices,
        converged=residual <= tol,
        iterations=0,
        residual=residual,
        schedule="verify",
        initial=prices,
        activation=activation,
        cycle=None,
    )


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def _one_sided_sensitivities(
    scenario: Scenario, prices: PriceVector, company_id: int
) -> tuple[float | None, float | None]:
    """``(c_lower, c_upper)`` from forward/backward area differences.

    ``c_lower`` uses the upward side (areas shrink faster when raising
    the price past a kink), ``c_upper`` the downward side.
    """
    p0 = prices.price_of(scenario, company_id)
    h = ONE_SIDED_STEP_RTOL * scenario.price_upper
    _, s0 = utility(scenario, prices, company_id, p0)
    c_lower = c_upper = None
    if p0 + h <= scenario.price_upper:
        _, s_up = utility(scenario, prices, company_id, p0 + h)
        slope = (s_up - s0) / h
        if slope < 0.0:
            c_lower = -1.0 / slope
    if p0 - h >= 0.0:
        _, s_dn = utility(scenario, prices, company_id, p0 - h)
        slope = (s0 - s_dn) / h
        if slope < 0.0:
            c_upper = -1.0 / slope
    return c_lower, c_upper


def _central_sensitivity(
    scenario: Scenario, prices: PriceVector, company_id: int
) -> float | None:
    """Two-sided -dP/dS; exact within a smooth piece since the area is
    polynomial there."""
    p0 = prices.price_of(scenario, company_id)
    h = ONE_SIDED_STEP_RTOL * scenario.price_upper
    lo, hi = max(0.0, p0 - h), min(scenario.price_upper, p0 + h)
    if hi <= lo:
        return None
    _, s_lo = utility(scenario, prices, company_id, lo)
    _, s_hi = utility(scenario, prices, company_id, hi)
    slope = (s_hi - s_lo) / (hi - lo)
    return -1.0 / slope if slope < 0.0 else None


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
    hidden: frozenset[int],
) -> dict[int, CompanyConditions]:
    eps = area_tolerance(scenario)
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
                c_lower, c_upper = _one_sided_sensitivities(scenario, prices, c.id)
                if has_pc:
                    lo = c_lower * area if c_lower is not None else -math.inf
                    hi = c_upper * area if c_upper is not None else math.inf
                    residual = max(0.0, lo - price, price - hi)
                else:
                    c_num = _central_sensitivity(scenario, prices, c.id)
                    if c_num is not None:
                        residual = abs(price - c_num * area)
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


def _build_report(
    scenario: Scenario,
    prices: PriceVector,
    converged: bool,
    iterations: int,
    residual: float,
    schedule: str,
    initial: PriceVector,
    activation: ActivationScheme | None,
    cycle,
) -> EquilibriumReport:
    wipeout = None
    if scenario.q == 1:
        part, wipeout = solve_areas_q1_1d(scenario, prices)
    else:
        part = solve_partition(scenario, prices)
    hidden = activation.hidden if activation is not None else frozenset()
    per_company = _company_conditions(scenario, prices, part, hidden)
    return EquilibriumReport(
        prices=prices,
        converged=converged,
        iterations=iterations,
        residual=residual,
        schedule=schedule,
        initial=initial,
        activation=activation,
        per_company=per_company,
        cycle=cycle,
        wipeout=wipeout,
    )


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
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(max(1, starts)):
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
            str(cid): {
                "price": c.price,
                "frozen": c.frozen,
                "hidden": c.hidden,
                "area": c.area,
                "gamma": c.gamma,
                "condition_residual": c.condition_residual,
                "c_lower": c.c_lower,
                "c_upper": c.c_upper,
                "c_approx": c.c_approx,
                "has_potential_competitor": c.has_potential_competitor,
            }
            for cid, c in sorted(report.per_company.items())
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
