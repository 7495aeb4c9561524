"""The four benchmark workloads.

A workload builds its seeded inputs (``build``), runs one untimed
operation on an input outside the timed set (``warmup``), lists the
operations of one round (``operations``) and checks one round's outputs
(``check``).  A case named in ``known_faults`` shows a fault of the
program on inputs that do not depend on the seed; when its check finds
that fault, the check lists the case in ``faulted`` and the run counts
the operation as failed.  Operations reach the library through module attributes
looked up at call time, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

import marketcells.cli as cli
import marketcells.equilibrium as eq
import marketcells.response as resp
from marketcells import (
    GridSpec,
    PriceVector,
    emit_scenario,
    grid_partition,
    load_scenario,
    solve_partition,
)

import checks
from markets import jittered_lattice, random_line, ring_market, unit_line

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "demos" / "scenarios"


class Workload:
    name = ""
    index = 0  # keeps the seeded streams of different workloads apart
    known_faults: dict[str, str] = {}

    def __init__(self, seed: int, out_dir: Path):
        self.out_dir = out_dir
        self.faulted: list[str] = []
        seed %= 2**64  # seed sequences take non-negative entries only
        self.rng = np.random.default_rng([seed, self.index])
        # inputs for the warm-up and for check sampling, never timed
        self.side_rng = np.random.default_rng([seed, self.index, 1])

    def build(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def operations(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError


def _solve_and_verify(scenario):
    report = eq.iterate_best_response(scenario)
    return report, eq.verify_equilibrium(scenario, report.prices)


def _sweep(scenario, betas):
    """Equilibria over brand weights, each warm-started from the last."""
    reports, warm = [], None
    for beta in betas:
        report = eq.iterate_best_response(scenario.with_beta(beta), init=warm)
        reports.append(report)
        warm = report.prices
    return reports


def _error(label: str, exc: Exception) -> str:
    return f"{label}: {type(exc).__name__}: {exc}"


class PlaneEq(Workload):
    """2D ``q = 0`` equilibria: the demo 7x7 lattice plus seeded rings."""

    name = "plane-eq"
    index = 1
    rings = 12
    focal = 2
    audited = 4

    def build(self) -> None:
        lattice = load_scenario((SCENARIOS / "plane_lattice.json").read_text())
        rings = [(f"ring-{k}", ring_market(self.rng, self.focal)) for k in range(self.rings)]
        # the long lattice solve sits mid-round, so the ring solves, among
        # which the median operation falls, spread over the whole round
        half = self.rings // 2
        self.markets = rings[:half] + [("plane_lattice", lattice)] + rings[half:]
        # optimizers whose equilibrium price gets a dense deviation audit
        pairs = [
            (m, c.id)
            for m, (_, scn) in enumerate(self.markets)
            for c in scn.companies
            if not c.frozen
        ]
        picks = self.side_rng.choice(len(pairs), size=self.audited, replace=False)
        self.audit_sample = [pairs[int(k)] for k in sorted(picks)]

    def warmup(self) -> None:
        _solve_and_verify(ring_market(self.side_rng, n_focal=self.focal))

    def operations(self):
        return [(label, partial(_solve_and_verify, scn)) for label, scn in self.markets]

    def check(self, outputs):
        failures = []
        for (label, scn), out in zip(self.markets, outputs):
            if isinstance(out, Exception):
                failures.append(_error(label, out))
                continue
            report, verified = out
            failures += checks.converged(label, report)
            failures += checks.converged(f"{label} (verify)", verified)
            if verified.prices != report.prices:
                failures.append(f"{label}: verify ran at other prices than the solve")
            if label == "plane_lattice":
                failures += checks.lattice_prices(label, scn, report.prices)
            areas = {cid: c.area for cid, c in verified.per_company.items()}
            failures += checks.oracle_areas(label, scn, report.prices, areas)
        for m, cid in self.audit_sample:
            label, scn = self.markets[m]
            if isinstance(outputs[m], Exception):
                continue
            prices = outputs[m][0].prices
            audit = eq.audit_unilateral_deviations(
                scn, prices, samples=checks.SCAN_SAMPLES, company_ids=[cid]
            )
            failures += checks.no_profitable_deviation(label, audit)
        return failures


class BrandEq(Workload):
    """1D ``q = 1`` equilibria: seeded brand lines and two beta sweeps."""

    name = "brand-eq"
    index = 2
    lines = 10
    line_size = 6
    unit_size = 5
    unit_betas = (0.1, 0.2, 0.3, 0.4, 0.5)
    # the wipe-out threshold of brand_triple's middle company is 1
    triple_betas = (0.1, 0.3, 0.5, 1.1, 1.3, 1.5)

    def build(self) -> None:
        self.markets = [
            (f"line-{k}", random_line(self.rng, self.line_size, q=1))
            for k in range(self.lines)
        ]
        self.unit = unit_line(self.unit_size, self.unit_betas[0])
        self.triple = load_scenario((SCENARIOS / "brand_triple.json").read_text())

    def warmup(self) -> None:
        eq.iterate_best_response(unit_line(4, 0.25))

    def operations(self):
        ops = [(label, partial(eq.iterate_best_response, scn)) for label, scn in self.markets]
        ops.append(("unit-sweep", partial(_sweep, self.unit, self.unit_betas)))
        ops.append(("triple-sweep", partial(_sweep, self.triple, self.triple_betas)))
        return ops

    def cases(self, outputs):
        """(label, scenario, report or exception) for every solved market."""
        out = [(label, scn, rep) for (label, scn), rep in zip(self.markets, outputs)]
        sweeps = (
            ("unit-sweep", self.unit, self.unit_betas),
            ("triple-sweep", self.triple, self.triple_betas),
        )
        for (label, base, betas), reports in zip(sweeps, outputs[len(self.markets):]):
            if isinstance(reports, Exception):
                out.append((label, base, reports))
                continue
            for beta, rep in zip(betas, reports):
                out.append((f"{label} beta={beta}", base.with_beta(beta), rep))
        return out

    def check(self, outputs):
        failures = []
        for label, scn, report in self.cases(outputs):
            if isinstance(report, Exception):
                failures.append(_error(label, report))
                continue
            failures += checks.converged(label, report)
            failures += checks.activation(label, scn, report.activation)
            areas = {cid: c.area for cid, c in report.per_company.items()}
            failures += checks.area_sum(label, scn, areas.values())
            failures += checks.oracle_areas(label, scn, report.prices, areas)
            if label.startswith("triple-sweep"):
                middle = report.per_company[1]
                alive = middle.area > 0.0 and not middle.hidden
                if alive != (scn.beta < 1.0):
                    failures.append(f"{label}: middle company alive={alive}")
        return failures


class Audit(Workload):
    """Dense unilateral-deviation audits at the markets' own prices."""

    name = "audit"
    index = 3
    # Plane markets come from this fixed stream, not from the seed:
    # profit_curve's quadratic fill breaks unimodality on about 2% of
    # ring-market curves, so a seeded draw would fail on some seeds only.
    plane_stream = 2016
    plane_markets = (17, 18)
    known_faults = {
        "plane-18/0": "profit_curve's quadratic fill breaks unimodality by 3.5e-9",
    }

    def build(self) -> None:
        rng = self.rng
        lines = [("line-q0", random_line(rng, 6, q=0))] + [
            (f"line-q1-{k}", random_line(rng, 6, q=1)) for k in range(2)
        ]
        planes = [
            (f"plane-{k}", ring_market(np.random.default_rng([self.plane_stream, k]), 3))
            for k in self.plane_markets
        ]
        self.markets = lines + planes
        self.cases = [
            (f"{label}/{c.id}", scn, c.id)
            for label, scn in self.markets
            for c in scn.companies
            if not c.frozen
        ]

    def warmup(self) -> None:
        scn = random_line(self.side_rng, 4, q=0)
        eq.audit_unilateral_deviations(
            scn, PriceVector.from_scenario(scn), samples=checks.SCAN_SAMPLES
        )

    def operations(self):
        return [
            (
                label,
                partial(
                    eq.audit_unilateral_deviations,
                    scn,
                    PriceVector.from_scenario(scn),
                    samples=checks.SCAN_SAMPLES,
                    company_ids=[cid],
                ),
            )
            for label, scn, cid in self.cases
        ]

    def profit_curve(self, scn, cid):
        return resp.profit_curve(
            scn, PriceVector.from_scenario(scn), cid, samples=checks.SCAN_SAMPLES
        )

    def check(self, outputs):
        failures = []
        for (label, scn, cid), out in zip(self.cases, outputs):
            if isinstance(out, Exception):
                failures.append(_error(label, out))
                continue
            prices = PriceVector.from_scenario(scn)
            grid, profits = self.profit_curve(scn, cid)
            best = resp.best_response(scn, prices, cid)
            # one interior sample where the company holds market
            held = np.flatnonzero(profits > 0.05 * max(float(profits.max()), 1e-12))
            k = int(held[self.side_rng.integers(len(held))]) if len(held) else 0
            price = float(grid[k]) if len(grid) > k else 0.0
            trial = prices.with_price(scn, cid, price)
            h = checks.grid_step(scn)
            _, grid_areas = grid_partition(scn, trial, GridSpec(h, scn.window))
            areas = solve_partition(scn, trial, check_window=False).areas
            allowed = checks.oracle_bounds(scn, trial, areas).get(cid, 0.0)
            shape = checks.unimodal(label, profits)
            if shape and label in self.known_faults:
                self.faulted.append(label)
            else:
                failures += shape
            failures += checks.profit_curve(
                label,
                scn,
                grid,
                profits,
                best.profit,
                out[cid],
                k,
                price * grid_areas[cid],
                price * allowed,
            )
        return failures


class CellsLarge(Workload):
    """In-process CLI ``cells`` and ``render`` on large partitions."""

    name = "cells-large"
    index = 4
    sides = (7, 15, 25)
    line_size = 1000

    def build(self) -> None:
        scenarios = [(f"lattice-{s}", jittered_lattice(self.rng, s)) for s in self.sides]
        scenarios.append((f"line-{self.line_size}", random_line(self.rng, self.line_size, q=0)))
        self.cases = [self._write(label, scn) for label, scn in scenarios]

    def _write(self, label, scn):
        stem = self.out_dir / f"{self.name}-{label}"
        path = stem.with_suffix(".json")
        path.write_text(emit_scenario(scn))
        return label, scn, str(path), str(stem) + ".cells.json", str(stem) + ".svg"

    def warmup(self) -> None:
        _, _, path, cells_out, svg_out = self._write(
            "warmup", jittered_lattice(self.side_rng, 4)
        )
        self._cli("cells", path, cells_out)
        self._cli("render", path, svg_out)

    @staticmethod
    def _cli(command, path, out):
        code = cli.main([command, path, "--out", out])
        if code != 0:
            raise RuntimeError(f"marketcells {command} exited {code}")
        return Path(out).read_text()

    def operations(self):
        ops = []
        for label, scn, path, cells_out, svg_out in self.cases:
            ops.append((f"cells {label}", partial(self._cli, "cells", path, cells_out)))
            if scn.dimension == 2:
                ops.append((f"render {label}", partial(self._cli, "render", path, svg_out)))
        return ops

    def check(self, outputs):
        """Checks the documents the operations read back, not the files,
        which later rounds overwrite."""
        failures = []
        texts = {}
        for (label, _), out in zip(self.operations(), outputs):
            if isinstance(out, Exception):
                failures.append(_error(label, out))
            texts[label] = out
        if failures:
            return failures
        for label, scn, *_ in self.cases:
            try:
                doc = json.loads(texts[f"cells {label}"])
            except json.JSONDecodeError as exc:
                failures.append(f"{label}: cells output does not parse: {exc}")
                continue
            failures += checks.cells_document(label, scn, doc)
            if scn.dimension == 2:
                failures += checks.svg_document(label, scn, texts[f"render {label}"])
        return failures


WORKLOADS = {w.name: w for w in (PlaneEq, BrandEq, Audit, CellsLarge)}
