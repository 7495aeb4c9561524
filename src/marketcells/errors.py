"""Exception types shared across the package."""


class MarketCellsError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(MarketCellsError):
    """A scenario document is structurally malformed."""


class ValidationError(MarketCellsError):
    """A scenario violates a model invariant.  The message names it."""


class WindowTooSmall(MarketCellsError):
    """A non-frozen company's market cell reaches the evaluation window
    edge, so the bounded window no longer stands in for the unbounded
    market.  Add or move frozen boundary companies, or enlarge the window."""


class SingularSystem(MarketCellsError):
    """The boundary system of the brand-feedback solve is singular,
    typically because the brand weight sits exactly at a degeneracy of
    the survivor configuration."""


class NoStableSurvivorSet(MarketCellsError):
    """Survivor elimination did not reach a stable set within its bound."""


class BoundaryCompany(MarketCellsError):
    """Wipe-out diagnostics need surviving neighbors on both sides."""


class OracleNoConvergence(MarketCellsError):
    """The grid oracle's damped area fixed point hit its iteration cap."""


class NoValidScheme(MarketCellsError):
    """The activation construction exceeded its swap budget without
    reaching a scheme in which every hidden company stays wiped out."""
