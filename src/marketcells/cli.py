"""Command-line interface.

One subcommand per workflow: validate a scenario, solve its cells, best
responses, equilibria, brand-weight sweeps, grid-oracle audits, and SVG
rendering.  Reports are JSON on stdout (or ``--out``).  Exit codes: 0 on
success, 1 for scenario validation problems, 2 for solver failures, 64
for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .areas import solve_partition
from .equilibrium import (
    _partition,
    iterate_best_response,
    multi_start,
    report_to_dict,
    verify_equilibrium,
)
from .errors import MarketCellsError, SchemaError, ValidationError
from .model import PriceVector, Scenario, load_scenario
from .oracle import GridSpec, grid_best_response, grid_partition
from .response import best_response
from .svg import render_partition_svg

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="marketcells", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("scenario", help="path to a scenario JSON document")
        p.add_argument("--out", help="write the result here instead of stdout")
        return p

    add("validate", "check a scenario document and exit")

    p = add("cells", "solve the market partition at the scenario prices")
    p.add_argument("--prices", help="JSON file mapping company id to price")

    p = add("best-response", "profit-maximizing price for one company")
    p.add_argument("--company", type=int, required=True)
    p.add_argument("--prices", help="JSON file mapping company id to price")

    p = add("equilibrium", "iterated best response to a fixed point")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--schedule", choices=["roundrobin", "simultaneous"],
                   default="roundrobin")
    p.add_argument("--multi-start", type=int, default=0, metavar="N",
                   help="additionally run N randomized starts")
    p.add_argument("--seed", type=int, default=0)

    p = add("sweep-beta", "re-solve the equilibrium over a brand-weight range")
    p.add_argument("--from", dest="beta_from", type=float, required=True)
    p.add_argument("--to", dest="beta_to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--schedule", choices=["roundrobin", "simultaneous"],
                   default="roundrobin")

    p = add("oracle-check", "compare analytic areas against the grid oracle")
    p.add_argument("--grid-res", type=float, default=None,
                   help="grid cell edge (default: window edge / 1000)")
    p.add_argument("--price-samples", type=int, default=0,
                   help="also grid-scan this many prices for one company")
    p.add_argument("--company", type=int, default=None)

    p = add("verify", "verify a previously reported price vector")
    p.add_argument("--report", required=True, help="report JSON to re-check")
    p.add_argument("--tol", type=float, default=None)

    p = add("render", "render the 2D partition as SVG")
    p.add_argument("--prices", help="JSON file mapping company id to price")

    return parser


def _read_scenario(path: str) -> Scenario:
    return load_scenario(Path(path).read_text())


def _prices_from(scenario: Scenario, path: str | None) -> PriceVector:
    if path is None:
        return PriceVector.from_scenario(scenario)
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict) and "prices" in doc:
        doc = doc["prices"]
    return _price_vector(scenario, doc, path)


def _price_vector(scenario: Scenario, doc, where: str) -> PriceVector:
    """Price vector from a JSON object mapping company id to price."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: prices must be a JSON object of id to price")
    try:
        mapping = {int(k): float(v) for k, v in doc.items()}
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{where}: prices must map integer ids to numbers") from exc
    return PriceVector.from_mapping(scenario, mapping)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump(doc, out: str | None) -> None:
    _emit(json.dumps(doc, indent=2), out)


def _partition_doc(scenario: Scenario, prices: PriceVector) -> dict:
    part, wipeout = _partition(scenario, prices)
    doc = {
        "dimension": scenario.dimension,
        "areas": {str(cid): a for cid, a in sorted(part.areas.items())},
        "survivors": sorted(part.survivors),
        "neighbors": {
            str(cid): [
                {
                    "id": e.company_id,
                    "border_length": e.border_length,
                    "distance": e.distance,
                    "potential_competitor": e.potential_competitor,
                }
                for e in edges
            ]
            for cid, edges in sorted(part.neighbors.items())
        },
        "potential_competitors": {
            str(cid): sorted(s)
            for cid, s in sorted(part.potential_competitors.items())
            if s
        },
        "cells": {
            str(cid): _cell_doc(cell) for cid, cell in sorted(part.cells.items())
        },
    }
    if wipeout is not None:
        doc["wipeout"] = wipeout.to_dict()
    return doc


def _cell_doc(cell):
    if cell is None:
        return None
    if hasattr(cell, "vertices"):
        return [[float(x), float(y)] for x, y in cell.vertices]
    return [cell.lo, cell.hi]


def _cmd_validate(args) -> int:
    scenario = _read_scenario(args.scenario)
    _dump(
        {
            "valid": True,
            "dimension": scenario.dimension,
            "q": scenario.q,
            "beta": scenario.beta,
            "companies": len(scenario.companies),
            "optimizers": sum(1 for c in scenario.companies if not c.frozen),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_cells(args) -> int:
    scenario = _read_scenario(args.scenario)
    prices = _prices_from(scenario, args.prices)
    prices.check_against(scenario)
    _dump(_partition_doc(scenario, prices), args.out)
    return EXIT_OK


def _cmd_best_response(args) -> int:
    scenario = _read_scenario(args.scenario)
    prices = _prices_from(scenario, args.prices)
    prices.check_against(scenario)
    br = best_response(scenario, prices, args.company)
    _dump(dataclasses.asdict(br) | {"company": args.company}, args.out)
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    scenario = _read_scenario(args.scenario)
    report = iterate_best_response(
        scenario,
        schedule=args.schedule,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    doc = report_to_dict(scenario, report)
    if args.multi_start:
        extra = multi_start(
            scenario,
            args.multi_start,
            seed=args.seed,
            schedule=args.schedule,
            tol=args.tol,
            max_iter=args.max_iter,
        )
        doc["multi_start"] = [
            {
                "initial": r.initial.to_doc(scenario),
                "converged": r.converged,
                "iterations": r.iterations,
                "prices": r.prices.to_doc(scenario),
            }
            for r in extra
        ]
    _dump(doc, args.out)
    return EXIT_OK


def _cmd_sweep_beta(args) -> int:
    scenario = _read_scenario(args.scenario)
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    points = []
    warm = None
    span = args.beta_to - args.beta_from
    for k in range(args.steps):
        beta = args.beta_from + span * k / (args.steps - 1)
        scn = scenario.with_beta(beta)
        entry: dict = {"beta": beta}
        try:
            part = solve_partition(scn, PriceVector.from_scenario(scn))
            entry["survivors_at_scenario_prices"] = sorted(part.survivors)
        except MarketCellsError as exc:
            entry["survivors_at_scenario_prices"] = None
            entry["solve_error"] = f"{type(exc).__name__}: {exc}"
        try:
            report = iterate_best_response(
                scn,
                init=warm,
                schedule=args.schedule,
                tol=args.tol,
                max_iter=args.max_iter,
            )
            entry.update(
                converged=report.converged,
                iterations=report.iterations,
                prices=report.prices.to_doc(scn),
                survivors=sorted(cid for cid, c in report.per_company.items() if c.area > 0),
            )
            if scn.q == 1 and report.activation is not None:
                entry["hidden"] = sorted(report.activation.hidden)
            warm = _rebase(scn, report.prices)
        except ValidationError:
            raise  # a bad --tol or --max-iter fails every point alike
        except MarketCellsError as exc:
            entry["equilibrium_error"] = f"{type(exc).__name__}: {exc}"
            warm = None
        points.append(entry)
    _dump({"sweep": points}, args.out)
    return EXIT_OK


def _rebase(scenario: Scenario, prices: PriceVector) -> PriceVector:
    """Clamp warm-start prices into the scenario's admissible set."""
    values = [
        c.price if c.frozen else min(max(p, 0.0), scenario.price_upper)
        for c, p in zip(scenario.companies, prices.values)
    ]
    return PriceVector(tuple(values))


def _cmd_oracle_check(args) -> int:
    scenario = _read_scenario(args.scenario)
    prices = PriceVector.from_scenario(scenario)
    res = args.grid_res
    if res is None:
        res = max(scenario.window.edges) * 1e-3
    grid = GridSpec(res, scenario.window)
    part = solve_partition(scenario, prices)
    _, grid_areas = grid_partition(scenario, prices, grid)
    per_company = {}
    worst = 0.0
    for cid in sorted(part.areas):
        analytic = part.areas[cid]
        sampled = grid_areas[cid]
        err = abs(analytic - sampled)
        worst = max(worst, err)
        per_company[str(cid)] = {
            "analytic": analytic,
            "grid": sampled,
            "abs_error": err,
        }
    doc = {
        "grid_resolution": res,
        "max_abs_error": worst,
        "per_company": per_company,
    }
    if args.price_samples:
        if args.company is None:
            raise _UsageError("--price-samples requires --company")
        price, profit = grid_best_response(
            scenario, prices, args.company, args.price_samples, grid
        )
        doc["grid_best_response"] = {
            "company": args.company,
            "price": price,
            "profit": profit,
        }
    _dump(doc, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    scenario = _read_scenario(args.scenario)
    report_doc = json.loads(Path(args.report).read_text())
    if not isinstance(report_doc, dict) or "prices" not in report_doc:
        raise SchemaError(f"{args.report}: a report is a JSON object with \"prices\"")
    prices = _price_vector(scenario, report_doc["prices"], args.report)
    report = verify_equilibrium(scenario, prices, tol=args.tol)
    _dump(report_to_dict(scenario, report), args.out)
    return EXIT_OK


def _cmd_render(args) -> int:
    scenario = _read_scenario(args.scenario)
    prices = _prices_from(scenario, args.prices)
    prices.check_against(scenario)
    part = solve_partition(scenario, prices)
    _emit(render_partition_svg(scenario, prices, part), args.out)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "cells": _cmd_cells,
    "best-response": _cmd_best_response,
    "equilibrium": _cmd_equilibrium,
    "sweep-beta": _cmd_sweep_beta,
    "oracle-check": _cmd_oracle_check,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (SchemaError, ValidationError, FileNotFoundError, ValueError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_VALIDATION
    except MarketCellsError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
