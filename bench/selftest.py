#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

Runs each workload's check on a small correct answer, which must pass,
and on a deliberately wrong copy, which must fail: equilibrium prices
moved by 1e-3 (plane-eq), an area scaled by 1 + 1e-3 (brand-eq and
cells-large), a profit curve with one sample dropped (audit).  Exits 0
only if every check accepts the right answer and rejects the wrong one.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

from worker import import_program


def plane_eq(out_dir):
    from workloads import SCENARIOS, PlaneEq
    from marketcells import PriceVector, load_scenario, verify_equilibrium

    lattice = load_scenario((SCENARIOS / "plane_lattice.json").read_text())
    wl = PlaneEq(0, out_dir)
    wl.markets = [("plane_lattice", lattice)]
    wl.audit_sample = [(0, 24)]  # the center company
    # the closed-form equilibrium: every price 1/2
    prices = PriceVector(tuple(0.5 for _ in lattice.companies))
    report = verify_equilibrium(lattice, prices)
    moved = dataclasses.replace(report, prices=prices.with_price(lattice, 24, 0.5 + 1e-3))
    return wl.check([(report, report)]), wl.check([(moved, moved)])


def brand_eq(out_dir):
    from workloads import SCENARIOS, BrandEq
    from marketcells import iterate_best_response, load_scenario

    triple = load_scenario((SCENARIOS / "brand_triple.json").read_text()).with_beta(0.3)
    wl = BrandEq(0, out_dir)
    wl.build()
    wl.markets = [("brand_triple", triple)]
    report = iterate_best_response(triple)
    middle = report.per_company[1]
    per_company = dict(report.per_company)
    per_company[1] = dataclasses.replace(middle, area=middle.area * (1.0 + 1e-3))
    scaled = dataclasses.replace(report, per_company=per_company)
    return wl.check([report]), wl.check([scaled])


def audit(out_dir):
    import numpy as np

    from markets import random_line
    from workloads import Audit

    scn = random_line(np.random.default_rng(0), 5, q=0)
    wl = Audit(0, out_dir)
    wl.markets = [("line", scn)]
    wl.cases = [(f"line/{c.id}", scn, c.id) for c in scn.companies if not c.frozen][:1]
    outputs = [op() for _, op in wl.operations()]
    good = wl.check(outputs)
    full_curve = wl.profit_curve
    wl.profit_curve = lambda s, cid: tuple(np.delete(a, 5000) for a in full_curve(s, cid))
    return good, wl.check(outputs)


def cells_large(out_dir):
    import numpy as np

    from markets import jittered_lattice
    from workloads import CellsLarge

    wl = CellsLarge(0, out_dir)
    wl.cases = [wl._write("selftest", jittered_lattice(np.random.default_rng(0), 4))]
    outputs = [op() for _, op in wl.operations()]
    good = wl.check(outputs)
    doc = json.loads(outputs[0])  # the cells document
    key = next(iter(doc["areas"]))
    doc["areas"][key] *= 1.0 + 1e-3
    return good, wl.check([json.dumps(doc)] + outputs[1:])


CASES = {
    "plane-eq": ("prices moved by 1e-3", plane_eq),
    "brand-eq": ("an area scaled by 1 + 1e-3", brand_eq),
    "audit": ("a profit curve with one sample dropped", audit),
    "cells-large": ("an area scaled by 1 + 1e-3", cells_large),
}


def main() -> int:
    import_program()
    ok = True
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name, (wrong, case) in CASES.items():
            good, bad = case(Path(tmp))
            passed = not good and bool(bad)
            ok &= passed
            print(f"{name}: accepts the right answer: {not good}; rejects {wrong}: {bool(bad)}")
            for line in good:
                print(f"  unexpected failure: {line}")
            if bad:
                print(f"  first rejection: {bad[0]}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
