"""Scenario types, document ingestion, and the reference aggregate price."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marketcells import (
    PriceVector,
    SchemaError,
    ValidationError,
    emit_scenario,
    load_scenario,
)

from helpers import (
    aggregate_price,
    lattice_2d,
    line_scenario,
    random_line_scenario,
    triple_q1,
)


def minimal_doc():
    return {
        "dimension": 1,
        "beta": 0.0,
        "q": 0,
        "price_upper": 4.0,
        "focal_box_half": 3.0,
        "window": {"min": [-1.0], "max": [3.0]},
        "companies": [
            {"id": 0, "position": [0.0], "price": 1.0, "frozen": True},
            {"id": 1, "position": [2.0], "price": 1.0, "frozen": True},
        ],
    }


class TestLoadScenario:
    def test_minimal_two_company_line(self):
        scn = load_scenario(json.dumps(minimal_doc()))
        assert scn.dimension == 1
        assert len(scn.companies) == 2

    def test_duplicate_positions_rejected(self):
        doc = minimal_doc()
        doc["companies"][1]["position"] = [0.0]
        with pytest.raises(ValidationError, match="share a position"):
            load_scenario(json.dumps(doc))

    def test_duplicate_positions_far_apart_in_a_long_line(self):
        positions = [float(k) for k in range(1_000)]
        positions[900] = positions[3]
        with pytest.raises(ValidationError, match="companies 3 and 900 share a position"):
            line_scenario(positions, [1.0] * 1_000)
        positions[900] = 3.0 + 1e-13  # within the separation tolerance
        with pytest.raises(ValidationError, match="companies 3 and 900 share a position"):
            line_scenario(positions, [1.0] * 1_000)

    def test_q1_needs_one_dimension(self):
        doc = minimal_doc()
        doc["q"] = 1
        doc["dimension"] = 2
        doc["window"] = {"min": [-1.0, -1.0], "max": [3.0, 3.0]}
        for c in doc["companies"]:
            c["position"] = c["position"] + [0.0]
        with pytest.raises(ValidationError, match="q=1"):
            load_scenario(json.dumps(doc))

    def test_unknown_field_rejected(self):
        doc = minimal_doc()
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="unknown fields"):
            load_scenario(json.dumps(doc))

    def test_missing_field_rejected(self):
        doc = minimal_doc()
        del doc["beta"]
        with pytest.raises(SchemaError, match="missing fields"):
            load_scenario(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_scenario("{nope")

    def test_company_outside_window(self):
        doc = minimal_doc()
        doc["companies"][1]["position"] = [5.0]
        with pytest.raises(ValidationError, match="inside window"):
            load_scenario(json.dumps(doc))

    def test_non_frozen_outside_focal_box(self):
        doc = minimal_doc()
        doc["focal_box_half"] = 1.0
        doc["companies"][1]["frozen"] = False
        with pytest.raises(ValidationError, match="focal box"):
            load_scenario(json.dumps(doc))

    def test_outermost_must_be_frozen_on_line(self):
        doc = minimal_doc()
        doc["companies"][0]["frozen"] = False
        with pytest.raises(ValidationError, match="outermost"):
            load_scenario(json.dumps(doc))

    def test_price_outside_bounds(self):
        doc = minimal_doc()
        doc["companies"][0]["price"] = 9.0
        with pytest.raises(ValidationError, match="price_upper"):
            load_scenario(json.dumps(doc))


class TestScenarioViews:
    def test_ids_built_once(self):
        # line partitions read ``ids`` once per company
        scn = lattice_2d(n=4)
        assert scn.ids is scn.ids
        assert scn.ids == tuple(c.id for c in scn.companies)


class TestRoundTrip:
    def test_emit_then_load_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            scn = random_line_scenario(rng, q=0)
            assert load_scenario(emit_scenario(scn)) == scn

    def test_roundtrip_2d(self):
        scn = lattice_2d(n=4)
        assert load_scenario(emit_scenario(scn)) == scn

    def test_roundtrip_q1(self):
        scn = triple_q1(0.5)
        assert load_scenario(emit_scenario(scn)) == scn


class TestAggregatePrice:
    def test_zero_distance(self):
        scn = line_scenario([0.0, 2.0], [1.0, 1.0], beta=0.0)
        assert aggregate_price(scn, 0, (0.0,), 0.0) == 1.0

    def test_constant_brand_discount_when_q0(self):
        scn = line_scenario([0.0, 2.0], [1.0, 1.0], beta=0.5, q=0)
        # distance 2 from company 0: 1 + 4 - 0.5
        assert aggregate_price(scn, 0, (2.0,), 123.0) == pytest.approx(4.5)
        # the zero-area convention still subtracts beta
        assert aggregate_price(scn, 0, (2.0,), 0.0) == pytest.approx(4.5)

    def test_linear_brand_discount_when_q1(self):
        scn = triple_q1(0.5)
        # price 1, distance 1, area 2: 1 + 1 - 0.5 * 2
        assert aggregate_price(scn, 1, (2.0,), 2.0) == pytest.approx(1.0)

    @given(
        d1=st.floats(0.0, 10.0),
        d2=st.floats(0.0, 10.0),
        bump=st.floats(1e-6, 2.0),
    )
    def test_monotone_in_distance_and_price(self, d1, d2, bump):
        scn = line_scenario([0.0, 2.0], [1.0, 1.0], beta=0.3, q=0)
        lo, hi = sorted([d1, d2])
        p_lo = aggregate_price(scn, 0, (lo,), 1.0)
        p_hi = aggregate_price(scn, 0, (hi,), 1.0)
        assert p_hi >= p_lo
        assert aggregate_price(scn, 0, (d1,), 1.0, price=1.0 + bump) > aggregate_price(
            scn, 0, (d1,), 1.0, price=1.0
        )

    @given(a1=st.floats(0.0, 5.0), a2=st.floats(0.0, 5.0))
    def test_decreasing_in_area_when_q1(self, a1, a2):
        scn = triple_q1(0.5)
        lo, hi = sorted([a1, a2])
        if hi - lo < 1e-12:
            return
        assert aggregate_price(scn, 1, (1.5,), hi) < aggregate_price(
            scn, 1, (1.5,), lo
        )


class TestPriceVector:
    def test_frozen_entries_pinned(self):
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        pv = PriceVector.from_scenario(scn)
        pv.check_against(scn)
        with pytest.raises(ValidationError, match="frozen"):
            pv.with_price(scn, 0, 2.0).check_against(scn)

    def test_mapping_roundtrip(self):
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        pv = PriceVector.from_scenario(scn)
        assert PriceVector.from_mapping(scn, pv.to_mapping(scn)) == pv

    def test_missing_company_rejected(self):
        scn = line_scenario([0.0, 1.0, 2.0], [1.0, 0.5, 1.0])
        with pytest.raises(ValidationError, match="missing"):
            PriceVector.from_mapping(scn, {0: 1.0, 1: 0.5})
