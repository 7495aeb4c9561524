"""Two-feature market: cells, equilibrium, and an SVG picture.

A 7 x 7 unit lattice with the boundary ring frozen at price 0.5.  The 25
interior companies equilibrate to price 0.5 = spacing^2 / 2: each keeps
the unit cell around its position, and four unit borders at unit
distance give competition intensity 2, so price = area / intensity.

Writes demos/output/plane_equilibrium.svg.
"""

from pathlib import Path

from marketcells import (
    iterate_best_response,
    load_scenario,
    render_partition_svg,
    solve_partition,
)

here = Path(__file__).parent
scenario = load_scenario((here / "scenarios" / "plane_lattice.json").read_text())

report = iterate_best_response(scenario, tol=1e-9 * scenario.price_upper)
print(f"converged: {report.converged}, iterations: {report.iterations}")

interior = [c for c in report.per_company.values() if not c.frozen]
print(f"interior price span: "
      f"[{min(c.price for c in interior):.8f}, {max(c.price for c in interior):.8f}]")
print(f"interior area span:  "
      f"[{min(c.area for c in interior):.8f}, {max(c.area for c in interior):.8f}]")
worst = max(c.condition_residual for c in interior)
print(f"worst price-area identity residual: {worst:.2e}")

part = solve_partition(scenario, report.prices)
middle = scenario.companies[24]  # position (3, 3)
edges = [e for e in part.neighbors[middle.id] if e.border_length > 0]
print(f"\ncompany {middle.id} at {middle.position}: "
      f"{len(edges)} bordering neighbors, "
      f"{len(part.potential_competitors[middle.id])} corner contacts")

out = here / "output" / "plane_equilibrium.svg"
out.parent.mkdir(exist_ok=True)
out.write_text(render_partition_svg(scenario, report.prices, part))
print(f"\nwrote {out}")
