"""Domain types and scenario ingestion.

A scenario describes a market frozen in feature space: company positions
are fixed, prices are the strategic variables, and customers at every
point of the evaluation window buy from whichever company offers the
lowest aggregate price

    mill price + squared feature distance - brand bonus,

where the brand bonus is ``beta * area**q``.  ``q = 0`` makes the bonus a
constant that cancels out of every comparison; ``q = 1`` ties it to the
company's current market area, which feeds back into the geometry.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import SchemaError, ValidationError

__all__ = [
    "Box",
    "Company",
    "PriceVector",
    "Scenario",
    "emit_scenario",
    "load_scenario",
]

# Minimum squared separation (relative to window diameter) below which two
# company positions count as coincident.
_SEPARATION_RTOL = 1e-12


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its min and max corners."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise ValidationError("window corners have mismatched dimensions")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise ValidationError("window min corner must be strictly below max corner")

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def edges(self) -> tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def measure(self) -> float:
        return math.prod(self.edges)

    @property
    def diameter(self) -> float:
        return math.hypot(*self.edges)

    def contains(self, point: Iterable[float], margin: float = 0.0) -> bool:
        return all(
            l + margin <= x <= h - margin
            for x, l, h in zip(point, self.lo, self.hi, strict=True)
        )

    def corners(self) -> np.ndarray:
        """Counterclockwise corner array; 2D boxes only."""
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)


@dataclass(frozen=True)
class Company:
    """One seller: a fixed point in feature space plus a price.

    Frozen companies keep their scenario price forever; they stand in for
    the rest of the unbounded market and never optimize.  Their market
    areas are still computed, so under ``q = 1`` they exert a brand pull
    like anyone else.
    """

    id: int
    position: tuple[float, ...]
    price: float
    frozen: bool = False


@dataclass(frozen=True)
class Scenario:
    """Full market description; the single source of truth for a solve."""

    dimension: int
    beta: float
    q: int
    companies: tuple[Company, ...]
    focal_box_half: float
    price_upper: float
    window: Box

    def __post_init__(self) -> None:
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        if self.dimension not in (1, 2):
            raise ValidationError("dimension must be 1 or 2")
        if self.q not in (0, 1):
            raise ValidationError("q must be 0 or 1")
        if self.q == 1 and self.dimension != 1:
            raise ValidationError("q=1 requires dimension 1")
        if not self.beta >= 0.0:
            raise ValidationError("beta must be non-negative")
        if not self.price_upper > 0.0:
            raise ValidationError("price_upper must be positive")
        if not self.focal_box_half > 0.0:
            raise ValidationError("focal_box_half must be positive")
        if self.window.dimension != self.dimension:
            raise ValidationError("window dimension does not match scenario dimension")
        if not self.companies:
            raise ValidationError("scenario needs at least one company")

        ids = [c.id for c in self.companies]
        if len(set(ids)) != len(ids):
            raise ValidationError("company ids must be unique")

        for c in self.companies:
            if len(c.position) != self.dimension:
                raise ValidationError(f"company {c.id} position has wrong dimension")
            if not 0.0 <= c.price <= self.price_upper:
                raise ValidationError(f"company {c.id} price outside [0, price_upper]")
            if not self.window.contains(c.position, margin=0.0) or any(
                x in (l, h)
                for x, l, h in zip(c.position, self.window.lo, self.window.hi)
            ):
                raise ValidationError(f"company {c.id} not strictly inside window")

        coincident = _coincident_pairs(
            np.array([c.position for c in self.companies]),
            _SEPARATION_RTOL * max(self.window.diameter, 1.0),
        )
        if len(coincident):
            a, b = min(map(tuple, coincident.tolist()))
            raise ValidationError(f"companies {ids[a]} and {ids[b]} share a position")

        if not any(self.in_focal_box(c.position) for c in self.companies):
            raise ValidationError("no company inside the focal box")
        for c in self.companies:
            if not c.frozen and not self.in_focal_box(c.position):
                raise ValidationError(
                    f"company {c.id} lies outside the focal box and must be frozen"
                )

        if self.dimension == 1:
            by_pos = sorted(self.companies, key=lambda c: c.position[0])
            for edge in (by_pos[0], by_pos[-1]):
                if not edge.frozen:
                    raise ValidationError(
                        f"outermost company {edge.id} must be frozen so its cell "
                        "may absorb the window edge"
                    )

    # -- helpers ----------------------------------------------------------

    def in_focal_box(self, position: Iterable[float]) -> bool:
        return max(abs(x) for x in position) <= self.focal_box_half

    @cached_property
    def index_of(self) -> dict[int, int]:
        return {c.id: k for k, c in enumerate(self.companies)}

    @cached_property
    def positions(self) -> np.ndarray:
        arr = np.array([c.position for c in self.companies], dtype=float)
        arr.flags.writeable = False
        return arr

    @cached_property
    def ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.companies)

    def company(self, company_id: int) -> Company:
        try:
            return self.companies[self.index_of[company_id]]
        except KeyError:
            raise ValidationError(f"no company with id {company_id}") from None

    def with_beta(self, beta: float) -> "Scenario":
        return replace(self, beta=beta)


def _coincident_pairs(pos: np.ndarray, min_sep: float) -> np.ndarray:
    """Index pairs ``(a, b)``, ``a < b``, of positions at most ``min_sep``
    apart.

    Sorted by the first coordinate, each position is compared only with
    the later ones whose first coordinate lies within ``min_sep``.
    """
    order = np.argsort(pos[:, 0], kind="stable")
    first = pos[order, 0]
    ends = np.searchsorted(first, first + min_sep, side="right")
    counts = ends - np.arange(len(pos)) - 1
    i = np.repeat(np.arange(len(pos)), counts)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    close = np.linalg.norm(pos[order[i]] - pos[order[j]], axis=1) <= min_sep
    pairs = np.stack([order[i[close]], order[j[close]]], axis=1)
    return np.sort(pairs, axis=1)


@dataclass(frozen=True)
class PriceVector:
    """Prices for every company, aligned with ``scenario.companies``."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        # plain floats, so reports never carry numpy scalars; float(x) is x
        # for a float, so vectors built from one another share entries
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "PriceVector":
        return cls(tuple(c.price for c in scenario.companies))

    @classmethod
    def from_mapping(
        cls, scenario: Scenario, prices: Mapping[int, float]
    ) -> "PriceVector":
        missing = set(scenario.ids) - set(prices)
        if missing:
            raise ValidationError(f"prices missing for companies {sorted(missing)}")
        return cls(tuple(prices[c.id] for c in scenario.companies))

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    def price_of(self, scenario: Scenario, company_id: int) -> float:
        return self.values[scenario.index_of[company_id]]

    def with_price(
        self, scenario: Scenario, company_id: int, price: float
    ) -> "PriceVector":
        k = scenario.index_of[company_id]
        vals = list(self.values)
        vals[k] = price
        return PriceVector(tuple(vals))

    def to_mapping(self, scenario: Scenario) -> dict[int, float]:
        return {c.id: v for c, v in zip(scenario.companies, self.values)}

    def to_doc(self, scenario: Scenario) -> dict[str, float]:
        """JSON-ready view: company ids become string keys."""
        return {str(cid): v for cid, v in self.to_mapping(scenario).items()}

    def check_against(self, scenario: Scenario) -> None:
        """Raise unless frozen entries match the scenario and all prices
        lie within [0, price_upper]."""
        if len(self.values) != len(scenario.companies):
            raise ValidationError("price vector length does not match scenario")
        for c, v in zip(scenario.companies, self.values):
            if c.frozen and v != c.price:
                raise ValidationError(f"frozen company {c.id} price was changed")
            if not 0.0 <= v <= scenario.price_upper:
                raise ValidationError(f"company {c.id} price outside [0, price_upper]")


# -- scenario documents ----------------------------------------------------

_SCENARIO_FIELDS = {
    "dimension",
    "beta",
    "q",
    "price_upper",
    "focal_box_half",
    "window",
    "companies",
}
_WINDOW_FIELDS = {"min", "max"}
_COMPANY_FIELDS = {"id", "position", "price", "frozen"}


def _require_fields(obj: Mapping[str, Any], fields: set[str], where: str) -> None:
    if not isinstance(obj, Mapping):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(obj) - fields
    if unknown:
        raise SchemaError(f"unknown fields in {where}: {sorted(unknown)}")
    missing = fields - set(obj)
    if missing:
        raise SchemaError(f"missing fields in {where}: {sorted(missing)}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{where} must be a number")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or past any float
        raise SchemaError(f"{where} must be a finite number")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{where} must be an integer")
    return value


def _point(value: Any, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where} must be a non-empty array of numbers")
    return tuple(_number(v, where) for v in value)


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document (JSON text).

    Raises :class:`SchemaError` for malformed documents and
    :class:`ValidationError` when a model invariant fails.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario document is not valid JSON: {exc}") from exc

    _require_fields(doc, _SCENARIO_FIELDS, "scenario")
    _require_fields(doc["window"], _WINDOW_FIELDS, "window")
    window = Box(
        lo=_point(doc["window"]["min"], "window.min"),
        hi=_point(doc["window"]["max"], "window.max"),
    )
    if not isinstance(doc["companies"], list) or not doc["companies"]:
        raise SchemaError("companies must be a non-empty array")
    companies = []
    for k, entry in enumerate(doc["companies"]):
        _require_fields(entry, _COMPANY_FIELDS, f"companies[{k}]")
        if not isinstance(entry["frozen"], bool):
            raise SchemaError(f"companies[{k}].frozen must be a boolean")
        companies.append(
            Company(
                id=_integer(entry["id"], f"companies[{k}].id"),
                position=_point(entry["position"], f"companies[{k}].position"),
                price=_number(entry["price"], f"companies[{k}].price"),
                frozen=entry["frozen"],
            )
        )

    return Scenario(
        dimension=_integer(doc["dimension"], "dimension"),
        beta=_number(doc["beta"], "beta"),
        q=_integer(doc["q"], "q"),
        companies=tuple(companies),
        focal_box_half=_number(doc["focal_box_half"], "focal_box_half"),
        price_upper=_number(doc["price_upper"], "price_upper"),
        window=window,
    )


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario so that ``load_scenario`` reproduces it."""
    doc = {
        "dimension": scenario.dimension,
        "beta": scenario.beta,
        "q": scenario.q,
        "price_upper": scenario.price_upper,
        "focal_box_half": scenario.focal_box_half,
        "window": {"min": list(scenario.window.lo), "max": list(scenario.window.hi)},
        "companies": [
            {
                "id": c.id,
                "position": list(c.position),
                "price": c.price,
                "frozen": c.frozen,
            }
            for c in scenario.companies
        ],
    }
    return json.dumps(doc, indent=2)
