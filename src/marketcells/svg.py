"""SVG rendering of 2D market partitions.

Plain-text SVG, no drawing dependency: one polygon per surviving cell,
a dot per company, and a cross for companies holding no market.  The
window maps onto a 1000-unit viewBox with the y axis flipped to screen
convention.
"""

from __future__ import annotations

from .areas import MarketPartition
from .model import PriceVector, Scenario

__all__ = ["render_partition_svg"]

VIEW = 1000.0

_PALETTE = [
    "#8dd3c7", "#ffffb3", "#bebada", "#fb8072", "#80b1d3", "#fdb462",
    "#b3de69", "#fccde5", "#d9d9d9", "#bc80bd", "#ccebc5", "#ffed6f",
]


def _projector(scenario: Scenario):
    (x0, y0), (x1, y1) = scenario.window.lo, scenario.window.hi
    sx = VIEW / (x1 - x0)
    sy = VIEW / (y1 - y0)

    def project(p) -> tuple[float, float]:
        return (p[0] - x0) * sx, VIEW - (p[1] - y0) * sy

    return project


def render_partition_svg(
    scenario: Scenario,
    prices: PriceVector,
    part: MarketPartition,
) -> str:
    """Serialize one partition as an SVG document string."""
    if scenario.dimension != 2:
        raise ValueError("SVG rendering is defined for 2D scenarios")
    project = _projector(scenario)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {VIEW:g} {VIEW:g}">',
        f'<rect x="0" y="0" width="{VIEW:g}" height="{VIEW:g}" '
        'fill="white" stroke="#444444" stroke-width="2"/>',
    ]
    for slot, c in enumerate(scenario.companies):
        cell = part.cells.get(c.id)
        if cell is None or not hasattr(cell, "vertices"):
            continue
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (project(v) for v in cell.vertices)
        )
        fill = _PALETTE[slot % len(_PALETTE)]
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" fill-opacity="0.65" '
            'stroke="#333333" stroke-width="1.5"/>'
        )
    for c in scenario.companies:
        x, y = project(c.position)
        price = prices.price_of(scenario, c.id)
        # an integer id and a number: nothing in it needs escaping
        label = f"company {c.id}: price {price:.4g}"
        if c.id in part.survivors:
            shape = (
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="6" '
                f'fill="{"#222222" if not c.frozen else "#888888"}">'
                f"<title>{label}</title></circle>"
            )
        else:
            # Wiped-out companies render as crosses.
            shape = (
                f'<g stroke="#aa0000" stroke-width="3"><title>{label} (no market)</title>'
                f'<line x1="{x - 7:.2f}" y1="{y - 7:.2f}" x2="{x + 7:.2f}" y2="{y + 7:.2f}"/>'
                f'<line x1="{x - 7:.2f}" y1="{y + 7:.2f}" x2="{x + 7:.2f}" y2="{y - 7:.2f}"/></g>'
            )
        lines.append(shape)
    lines.append("</svg>")
    return "\n".join(lines)
