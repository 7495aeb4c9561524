"""Price equilibrium on a one-feature market.

Eleven companies sit on the integer lattice.  The two endpoints stand in
for the rest of the unbounded market: their prices are frozen at 1.  The
nine interior companies repeatedly play best responses until nobody can
improve, and the equilibrium exhibits the price-area identity

    price * competition intensity = market area,

with competition intensity (1/d_left + 1/d_right) / 2 on a line.
"""

from pathlib import Path

from marketcells import iterate_best_response, load_scenario

scenario = load_scenario(
    (Path(__file__).parent / "scenarios" / "line_lattice.json").read_text()
)

report = iterate_best_response(scenario, tol=1e-10 * scenario.price_upper)

print(f"converged: {report.converged}, iterations: {report.iterations} "
      f"(residual {report.residual:.2e})")
print()
print(f"{'company':>8} {'frozen':>7} {'price':>10} {'area':>10} "
      f"{'gamma':>7} {'P*gamma - S':>12}")
for cid, cond in sorted(report.per_company.items()):
    residual = "-" if cond.condition_residual is None else f"{cond.condition_residual:.2e}"
    print(f"{cid:>8} {str(cond.frozen):>7} {cond.price:>10.6f} "
          f"{cond.area:>10.6f} {cond.gamma:>7.3f} {residual:>12}")

# Interior companies all land on price 1: with unit spacing the identity
# forces price = area, and the lattice symmetry forces area = spacing.
interior = [cond for cond in report.per_company.values() if not cond.frozen]
worst = max(abs(c.price - 1.0) for c in interior)
print(f"\nlargest interior deviation from the lattice fixed point: {worst:.2e}")
