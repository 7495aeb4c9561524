"""Equilibrium engine for spatial price competition with brand effect.

Markets live in a one- or two-dimensional feature space.  Companies sit
at fixed points and set prices; every customer buys from whichever
company offers the lowest aggregate price (mill price plus squared
feature distance minus a brand bonus tied to market area).  The package
computes the resulting market cells, best responses, and pure-strategy
price equilibria, and verifies the equilibrium identities and wipe-out
thresholds that govern them.
"""

from .areas import (
    MarketPartition,
    NeighborEdge,
    WipeoutDiagnostics,
    compute_wipeout_diagnostics,
    solve_areas_q0,
    solve_areas_q1_1d,
    solve_partition,
    wipeout_threshold,
)
from .equilibrium import (
    ActivationScheme,
    CompanyConditions,
    DeviationAudit,
    EquilibriumReport,
    audit_unilateral_deviations,
    construct_activation,
    iterate_best_response,
    multi_start,
    report_to_dict,
    verify_equilibrium,
)
from .errors import (
    BoundaryCompany,
    MarketCellsError,
    NoStableSurvivorSet,
    NoValidScheme,
    OracleNoConvergence,
    SchemaError,
    SingularSystem,
    ValidationError,
    WindowTooSmall,
)
from .geometry import ConvexPolygon, Interval
from .model import (
    Box,
    Company,
    PriceVector,
    Scenario,
    emit_scenario,
    load_scenario,
)
from .oracle import GridSpec, OwnershipMap, grid_best_response, grid_partition
from .response import (
    BestResponse,
    best_response,
    profit_curve,
    utility,
)
from .svg import render_partition_svg

__version__ = "0.1.0"

__all__ = [
    "ActivationScheme",
    "BestResponse",
    "BoundaryCompany",
    "Box",
    "Company",
    "CompanyConditions",
    "ConvexPolygon",
    "DeviationAudit",
    "EquilibriumReport",
    "GridSpec",
    "Interval",
    "MarketCellsError",
    "MarketPartition",
    "NeighborEdge",
    "NoStableSurvivorSet",
    "NoValidScheme",
    "OracleNoConvergence",
    "OwnershipMap",
    "PriceVector",
    "Scenario",
    "SchemaError",
    "SingularSystem",
    "ValidationError",
    "WindowTooSmall",
    "WipeoutDiagnostics",
    "audit_unilateral_deviations",
    "best_response",
    "compute_wipeout_diagnostics",
    "construct_activation",
    "emit_scenario",
    "grid_best_response",
    "grid_partition",
    "iterate_best_response",
    "load_scenario",
    "multi_start",
    "profit_curve",
    "report_to_dict",
    "render_partition_svg",
    "solve_areas_q0",
    "solve_areas_q1_1d",
    "solve_partition",
    "utility",
    "verify_equilibrium",
    "wipeout_threshold",
]
