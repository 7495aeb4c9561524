"""Command-line surface: subcommands, exit codes, report round-trips."""

import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from marketcells import areas, emit_scenario
from marketcells.cli import main

from helpers import lattice_1d, lattice_2d, line_scenario, triple_q1

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    def write(scn, name="scenario.json"):
        path = tmp_path / name
        path.write_text(emit_scenario(scn))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_scenario(self, scenario_file, capsys):
        path = scenario_file(lattice_1d(n=5))
        code, out, _ = run(capsys, "validate", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] is True
        assert doc["companies"] == 5

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        doc = json.loads(emit_scenario(lattice_1d(n=5)))
        doc["companies"][1]["position"] = doc["companies"][0]["position"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "position" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, _ = run(capsys, "validate", "/nonexistent/file.json")
        assert code == 1

    def test_usage_error_exits_64(self, capsys):
        code, _, _ = run(capsys, "no-such-command")
        assert code == 64


class TestCells:
    def test_brand_feedback_cells_with_diagnostics(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.5))
        code, out, _ = run(capsys, "cells", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["survivors"] == [0, 1, 2]
        assert doc["areas"]["1"] == pytest.approx(1.0)
        assert doc["wipeout"]["thresholds"]["1"] == pytest.approx(1.0)

    def test_solver_error_exits_two(self, scenario_file, capsys):
        scn = line_scenario(
            [-1.0, 0.0, 1.0], [5.5, 0.1, 5.5], frozen=[True, False, True]
        )
        code, _, err = run(capsys, "cells", scenario_file(scn))
        assert code == 2
        assert "WindowTooSmall" in err

    def test_explicit_price_file(self, scenario_file, capsys, tmp_path):
        path = scenario_file(triple_q1(0.5))
        prices = tmp_path / "prices.json"
        prices.write_text(json.dumps({"0": 1.0, "1": 0.625, "2": 1.0}))
        code, out, _ = run(capsys, "cells", path, "--prices", str(prices))
        assert code == 0
        doc = json.loads(out)
        assert doc["areas"]["1"] == pytest.approx(2.5)

    def test_brand_partition_solved_once(self, capsys, monkeypatch):
        # cells and their wipe-out section come from one line solve
        calls = []
        solve = areas._partition_1d

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(areas, "_partition_1d", counted)
        code, out, _ = run(capsys, "cells", str(SCENARIOS / "brand_triple.json"))
        assert code == 0
        assert "wipeout" in json.loads(out)
        assert len(calls) == 1

    def test_output_independent_of_numpy_simd_dispatch(self):
        # Tied clip distances must not be ordered by whichever sort kernel
        # numpy dispatches on this CPU: cells on the lattice demo, whose
        # cells tie on every ring of neighbors, are the same bytes with
        # the AVX2 and AVX-512 kernels switched off.
        src = Path(areas.__file__).resolve().parent.parent
        probe = "import sys; from marketcells.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = [sys.executable, "-c", probe, "cells", str(SCENARIOS / "plane_lattice.json")]
        env = {k: v for k, v in os.environ.items() if not k.startswith("NPY_")}
        env["PYTHONPATH"] = str(src)
        default = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        env["NPY_DISABLE_CPU_FEATURES"] = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
        baseline = subprocess.run(argv, env=env, capture_output=True, check=True).stdout
        assert default == baseline

    def test_missing_required_flag_exits_64(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.5))
        code, _, _ = run(capsys, "best-response", path)
        assert code == 64


class TestBestResponseCommand:
    def test_flanked_company(self, scenario_file, capsys):
        scn = line_scenario(
            [-1.0, 0.0, 1.0], [1.0, 1.0, 1.0], price_upper=4.0, margin=1.5
        )
        code, out, _ = run(capsys, "best-response", scenario_file(scn), "--company", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["price"] == pytest.approx(1.0, abs=1e-8)
        assert not doc["wiped_out"]


class TestNamedErrors:
    """Malformed inputs exit 1 with a named error, never a traceback."""

    @pytest.mark.parametrize("report", [{}, [1, 2]], ids=["empty_object", "array"])
    def test_malformed_report(self, scenario_file, capsys, tmp_path, report):
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(report))
        code, _, err = run(
            capsys, "verify", scenario_file(triple_q1(0.5)), "--report", str(report_path)
        )
        assert code == 1
        assert err.startswith("SchemaError")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["best-response"], ["oracle-check", "--price-samples", "3"]],
        ids=["best_response", "oracle_check"],
    )
    def test_unknown_company(self, scenario_file, capsys, argv):
        command, *flags = argv
        code, _, err = run(
            capsys, command, scenario_file(triple_q1(0.5)), *flags, "--company", "99"
        )
        assert code == 1
        assert err.startswith("ValidationError") and "99" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["equilibrium", "--tol", "-1"],
            ["equilibrium", "--tol", "nan"],
            ["equilibrium", "--max-iter", "0"],
            ["equilibrium", "--max-iter", "-5"],
            ["equilibrium", "--multi-start", "-1"],
            ["sweep-beta", "--from", "0", "--to", "1", "--steps", "2", "--tol", "-1"],
        ],
        ids=[
            "negative_tol",
            "nan_tol",
            "zero_max_iter",
            "negative_max_iter",
            "negative_starts",
            "sweep_negative_tol",
        ],
    )
    def test_invalid_iteration_settings(self, capsys, argv):
        command, *flags = argv
        start = time.perf_counter()
        code, _, err = run(capsys, command, str(SCENARIOS / "brand_triple.json"), *flags)
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert err.startswith("ValidationError")
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "field, value, argv",
        [
            ("price_upper", "Infinity", ["best-response", "--company", "1"]),
            ("beta", "Infinity", ["validate"]),
            ("beta", "NaN", ["validate"]),
            ("beta", "1" + "0" * 400, ["validate"]),
            ("window.max", "[Infinity]", ["validate"]),
        ],
        ids=["infinite_price_upper", "infinite_beta", "nan_beta", "beta_past_any_float",
             "infinite_window"],
    )
    def test_non_finite_scenario_number(self, tmp_path, capsys, field, value, argv):
        # json parses NaN, Infinity and integers no float holds; a scenario
        # refuses them by name
        text = (SCENARIOS / "line_lattice.json").read_text()
        if field == "window.max":
            text = text.replace('"max": [\n      12.0\n    ]', f'"max": {value}')
        else:
            doc = json.loads(text)
            doc[field] = 0.0
            text = json.dumps(doc).replace(f'"{field}": 0.0', f'"{field}": {value}')
        assert value in text
        path = tmp_path / "scenario.json"
        path.write_text(text)
        command, *flags = argv
        code, out, err = run(capsys, command, str(path), *flags)
        assert code == 1
        assert err.startswith("SchemaError") and f"{field} must be a finite number" in err
        assert out == "" and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, scenario, company, price",
        [
            ("best-response", "line_lattice", 2, math.nan),
            ("best-response", "line_lattice", 2, 1e6),
            ("best-response", "line_lattice", 0, 0.2),
            ("render", "plane_lattice", 8, 1e9),
            ("render", "plane_lattice", 8, math.nan),
            ("render", "plane_lattice", 8, -5.0),
        ],
        ids=["best_response_nan", "best_response_above_upper", "best_response_frozen_moved",
             "render_above_upper", "render_nan", "render_negative"],
    )
    def test_prices_checked_against_the_scenario(
        self, tmp_path, capsys, command, scenario, company, price
    ):
        path = SCENARIOS / f"{scenario}.json"
        prices = {str(c["id"]): c["price"] for c in json.loads(path.read_text())["companies"]}
        prices[str(company)] = price
        prices_path = tmp_path / "prices.json"
        prices_path.write_text(json.dumps(prices))
        flags = ["--company", "1"] if command == "best-response" else []
        code, out, err = run(capsys, command, str(path), "--prices", str(prices_path), *flags)
        assert code == 1
        assert err.startswith("ValidationError") and f"company {company} " in err
        assert out == "" and "Traceback" not in err

    def test_price_past_any_float(self, tmp_path, capsys):
        prices_path = tmp_path / "prices.json"
        prices_path.write_text('{"0": 1' + "0" * 400 + "}")
        code, _, err = run(
            capsys, "cells", str(SCENARIOS / "line_lattice.json"), "--prices", str(prices_path)
        )
        assert code == 1
        assert err.startswith("SchemaError") and "Traceback" not in err


class TestEquilibriumCommand:
    def test_line_lattice(self, scenario_file, capsys, tmp_path):
        path = scenario_file(lattice_1d(n=7))
        out_path = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "equilibrium", path, "--tol", "1e-9", "--out", str(out_path)
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["converged"] is True
        for cid in range(1, 6):
            assert doc["prices"][str(cid)] == pytest.approx(1.0, abs=1e-6)

    def test_multi_start_section(self, scenario_file, capsys):
        path = scenario_file(lattice_1d(n=5))
        code, out, _ = run(
            capsys, "equilibrium", path, "--multi-start", "2", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["multi_start"]) == 2
        for entry in doc["multi_start"]:
            assert entry["converged"] is True

    def test_report_verify_round_trip(self, scenario_file, capsys, tmp_path):
        path = scenario_file(lattice_1d(n=7))
        report_path = tmp_path / "report.json"
        run(capsys, "equilibrium", path, "--tol", "1e-9", "--out", str(report_path))
        v1 = tmp_path / "verify1.json"
        v2 = tmp_path / "verify2.json"
        code1, _, _ = run(
            capsys, "verify", path, "--report", str(report_path), "--out", str(v1)
        )
        doc1 = json.loads(v1.read_text())
        code2, _, _ = run(capsys, "verify", path, "--report", str(v1), "--out", str(v2))
        doc2 = json.loads(v2.read_text())
        assert code1 == code2 == 0
        assert doc1["converged"] is True
        assert abs(doc1["residual"] - doc2["residual"]) <= 1e-12
        for cid, cond in doc1["per_company"].items():
            other = doc2["per_company"][cid]
            if cond["condition_residual"] is None:
                assert other["condition_residual"] is None
            else:
                assert abs(cond["condition_residual"] - other["condition_residual"]) <= 1e-12


class TestSweepBeta:
    def test_triple_transition(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.0))
        code, out, _ = run(
            capsys, "sweep-beta", path, "--from", "0", "--to", "1.5", "--steps", "7"
        )
        assert code == 0
        doc = json.loads(out)
        counts = {
            round(pt["beta"], 3): len(pt["survivors_at_scenario_prices"])
            for pt in doc["sweep"]
        }
        assert counts[0.0] == 3
        assert counts[0.75] == 3
        assert counts[1.0] == 2
        assert counts[1.5] == 2

    def test_bad_steps_usage_error(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.0))
        code, _, _ = run(
            capsys, "sweep-beta", path, "--from", "0", "--to", "1", "--steps", "1"
        )
        assert code == 64


class TestOracleCheck:
    def test_small_lattice(self, scenario_file, capsys):
        path = scenario_file(lattice_2d(n=4, boundary_price=1.0, interior_price=1.0))
        code, out, _ = run(capsys, "oracle-check", path, "--grid-res", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_error"] < 0.05

    def test_grid_price_scan(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.5))
        code, out, _ = run(
            capsys,
            "oracle-check",
            path,
            "--grid-res",
            "0.002",
            "--price-samples",
            "200",
            "--company",
            "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grid_best_response"]["price"] == pytest.approx(0.625, abs=0.02)

    def test_grid_over_the_cell_budget_exits_one(self, capsys):
        # 1e-12 on the demo line asks for 1.4e13 cells: refused by name
        # before any array is allocated
        path = str(SCENARIOS / "line_lattice.json")
        code, out, err = run(capsys, "oracle-check", path, "--grid-res", "1e-12")
        assert code == 1
        assert out == ""
        assert err.startswith("ValueError: ") and "cells" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("res", ["0", "-1", "nan"])
    def test_grid_resolution_must_be_positive(self, capsys, res):
        # 0 once fell back to the default resolution
        path = str(SCENARIOS / "line_lattice.json")
        code, out, err = run(capsys, "oracle-check", path, f"--grid-res={res}")
        assert code == 1
        assert out == ""
        assert err.strip() == "ValueError: grid resolution must be positive"

    def test_price_samples_needs_company(self, scenario_file, capsys):
        path = scenario_file(triple_q1(0.5))
        code, _, _ = run(
            capsys, "oracle-check", path, "--price-samples", "10"
        )
        assert code == 64


class TestRender:
    def test_svg_document(self, scenario_file, capsys, tmp_path):
        path = scenario_file(lattice_2d(n=4))
        out_path = tmp_path / "cells.svg"
        code, _, _ = run(capsys, "render", path, "--out", str(out_path))
        assert code == 0
        root = ET.fromstring(out_path.read_text())
        assert root.tag.endswith("svg")
        polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        assert len(polygons) == 16
        assert len(circles) == 16

    def test_wiped_out_marker(self, scenario_file, capsys, tmp_path):
        scn = lattice_2d(n=4)
        # overprice one interior company so it vanishes
        doc = json.loads(emit_scenario(scn))
        for c in doc["companies"]:
            if c["position"] == [1.0, 1.0]:
                c["price"] = 3.9
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "cells.svg"
        code, _, _ = run(capsys, "render", str(path), "--out", str(out_path))
        assert code == 0
        text = out_path.read_text()
        root = ET.fromstring(text)
        polygons = [e for e in root.iter() if e.tag.endswith("polygon")]
        lines = [e for e in root.iter() if e.tag.endswith("line")]
        assert len(polygons) == 15
        assert len(lines) == 2  # one cross

    def test_line_market_rejected(self, scenario_file, capsys):
        path = scenario_file(lattice_1d(n=5))
        code, _, _ = run(capsys, "render", path)
        assert code == 1
