import json
import math
from pathlib import Path

import pytest

from lyaplab.cli import (EXIT_BUDGET, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                         SchemaError, build_parser, canonical_json,
                         load_scenario, main, run_scenario)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def lyap_scenario(**extra):
    sc = {
        "schema": "lyaplab/scenario/v1",
        "operation": "lyapunov",
        "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
        "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        "params": {"method": "periodic_exact"},
        "seed": 0,
    }
    sc.update(extra)
    return sc


class TestScenarioValidation:
    def test_unknown_top_level_field(self, tmp_path):
        path = write(tmp_path, "s.json", lyap_scenario(bogus=1))
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_unknown_param(self, tmp_path):
        sc = lyap_scenario()
        sc["params"]["mystery"] = True
        path = write(tmp_path, "s.json", sc)
        with pytest.raises(SchemaError):
            run_scenario(path)

    def test_wrong_schema_tag(self, tmp_path):
        sc = lyap_scenario(schema="lyaplab/scenario/v999")
        path = write(tmp_path, "s.json", sc)
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_unknown_operation(self, tmp_path):
        sc = lyap_scenario(operation="teleport")
        path = write(tmp_path, "s.json", sc)
        with pytest.raises(SchemaError):
            load_scenario(path)

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["lyapunov", "--scenario", str(tmp_path / "nope.json")])
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize("sc", [
        {"operation": "bands", "params": {}},
        {"operation": "search",
         "base": {"family": "circle_rotation", "alpha": 0.6180339887498949},
         "params": {"energy": 0.0, "delta": 0.5}},
        {"operation": "lyapunov", "base": {"family": "circle_rotation"},
         "cocycle": {"kind": "rotation", "theta": 0.1}},
    ], ids=["bands_without_values", "search_without_v1", "rotation_without_alpha"])
    def test_missing_key_exits_2(self, tmp_path, capsys, sc):
        path = write(tmp_path, "s.json", {"schema": "lyaplab/scenario/v1", **sc})
        assert main([sc["operation"], "--scenario", path]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    def test_string_samples_read_as_int(self, tmp_path, capsys):
        # a shift base: rotations run one Birkhoff orbit and ignore samples
        sc = lyap_scenario(base={"family": "bernoulli_shift", "symbols": 2,
                                 "probabilities": [0.5, 0.5]},
                           cocycle={"kind": "rotation", "theta": 0.1},
                           params={"method": "birkhoff"}, n=64, samples="4")
        path = write(tmp_path, "s.json", sc)
        assert main(["lyapunov", "--scenario", path]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["samples"] == 4

    def test_family_mismatch_exits_2(self, tmp_path, capsys):
        sc = lyap_scenario(base={"family": "circle_rotation", "alpha": 0.6180339887498949},
                           potential={"family": "periodic_table", "tables": [[0.0]]},
                           params={"energy": 3.0})
        del sc["cocycle"]
        path = write(tmp_path, "s.json", sc)
        assert main(["lyapunov", "--scenario", path]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err

    @pytest.mark.parametrize("base, method", [
        ({"family": "circle_rotation", "alpha": 0.6180339887498949}, "periodic_exact"),
        ({"family": "circle_rotation", "alpha": 0.6180339887498949}, "bogus"),
        ({"family": "periodic_orbits", "orbits": [[1, 1.0]]}, "birkhoff"),
        ({"family": "periodic_orbits", "orbits": [[1, 1.0]]}, "bogus"),
    ], ids=["exact_on_rotation", "bogus_on_rotation", "birkhoff_on_periodic",
            "bogus_on_periodic"])
    def test_method_must_name_the_base_estimator(self, tmp_path, capsys, base, method):
        sc = lyap_scenario(base=base, cocycle={"kind": "rotation", "theta": 0.1},
                           params={"method": method}, n=64)
        path = write(tmp_path, "s.json", sc)
        assert main(["lyapunov", "--scenario", path]) == EXIT_SCHEMA
        assert "schema error" in capsys.readouterr().err


class TestRunRecords:
    def test_lyapunov_value(self, tmp_path):
        path = write(tmp_path, "s.json", lyap_scenario())
        record, code = run_scenario(path)
        assert code == EXIT_OK
        assert abs(record["results"]["value"] - math.log(2.0)) < 1e-14
        assert record["schema"] == "lyaplab/record/v1"
        assert len(record["scenario_sha256"]) == 64

    def test_byte_identical_results_across_runs(self, tmp_path):
        path = write(tmp_path, "s.json", lyap_scenario())
        a, _ = run_scenario(path)
        b, _ = run_scenario(path)
        assert canonical_json(a["results"]) == canonical_json(b["results"])

    def test_bands_csv_and_svg(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "bands",
              "params": {"values": [0.0, 3.0]}}
        path = write(tmp_path, "s.json", sc)
        out = tmp_path / "out"
        record, code = run_scenario(path, {"out": str(out)})
        assert code == EXIT_OK
        assert record["results"]["count"] == 2
        assert record["results"]["bands"] == [[-1.0, 0.0], [3.0, 4.0]]
        csv = (out / "bands.csv").read_text().strip().splitlines()
        assert csv[0] == "band,left,right,length"
        assert len(csv) == 3
        assert (out / "bands.svg").read_text().startswith("<svg")
        assert (out / "record.json").exists()

    def test_free_laplacian_single_row(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "bands",
              "params": {"values": [0.0]}}
        record, _ = run_scenario(write(tmp_path, "s.json", sc))
        assert record["results"]["bands"] == [[-2.0, 2.0]]

    def test_ids_record(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "ids",
              "params": {"values": [0.0], "grid_points": 64, "energies": [3.0]}}
        out = tmp_path / "out"
        record, _ = run_scenario(write(tmp_path, "s.json", sc), {"out": str(out)})
        th = record["results"]["thouless"]["3.0"]
        assert abs(th - math.log((3 + math.sqrt(5)) / 2)) < 1e-6
        assert (out / "ids.csv").exists() and (out / "ids.svg").exists()

    def test_certify_record_and_artifact(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "certify",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "cocycle": {"kind": "schrodinger_entry",
                          "entry": {"family": "periodic_table", "tables": [[[0.0, 1.0]]]}},
              "params": {"n_max": 4}}
        out = tmp_path / "out"
        record, code = run_scenario(write(tmp_path, "s.json", sc), {"out": str(out)})
        assert code == EXIT_OK
        assert record["results"]["certified"] is True
        assert record["results"]["steps"] == 2
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["sampled_only"] is True

    def test_certify_failure_is_a_result(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "certify",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "cocycle": {"kind": "schrodinger",
                          "potential": {"family": "periodic_table", "tables": [[0.0]]},
                          "energy": 0.0},
              "params": {"n_max": 6}}
        record, code = run_scenario(write(tmp_path, "s.json", sc))
        assert code == EXIT_OK
        assert record["results"]["certified"] is False

    def test_phi_boundary_identity_scenario(self, tmp_path):
        common = {"schema": "lyaplab/scenario/v1", "operation": "phi",
                  "base": {"family": "periodic_orbits", "orbits": [[2, 1.0]]}}
        params = {"v": {"family": "periodic_table", "tables": [[-3.2, -2.6]]},
                  "w": {"family": "periodic_table", "tables": [[0.25, -0.2]]},
                  "epsilon": 0.2}
        rec_a, _ = run_scenario(write(tmp_path, "a.json",
                                      {**common, "params": {**params, "form": "schrodinger"}}))
        rec_b, _ = run_scenario(write(tmp_path, "b.json",
                                      {**common, "params": {**params, "form": "boundary"}}))
        diff = abs(rec_a["results"]["value"] - rec_b["results"]["value"])
        assert diff <= 2 * (rec_a["results"]["quad_error"] + rec_b["results"]["quad_error"])

    def test_phi_out_of_domain_exit_3(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "phi",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "params": {"form": "boundary",
                         "v": {"family": "periodic_table", "tables": [[0.0]]},
                         "w": {"family": "periodic_table", "tables": [[0.9]]},
                         "epsilon": 0.2}}
        code = main(["phi", "--scenario", write(tmp_path, "s.json", sc)])
        assert code == EXIT_NUMERICAL

    def test_ab_check_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "ab-check",
              "base": {"family": "periodic_orbits", "orbits": [[1, 1.0]]},
              "cocycle": {"kind": "constant", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
              "params": {"theta_nodes": 4096}}
        record, _ = run_scenario(write(tmp_path, "s.json", sc))
        assert abs(record["results"]["rhs"] - math.log(1.25)) < 1e-12
        assert abs(record["results"]["difference"]) < 2e-3

    def test_quantita_scenario_with_heatmap(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "quantita-scan",
              "base": {"family": "periodic_orbits", "orbits": [[2, 1.0]]},
              "params": {"v": {"family": "periodic_table", "tables": [[-2.1, -2.0]]},
                         "w": {"family": "periodic_table", "tables": [[-0.3, -0.25]]},
                         "epsilon": 0.3, "t_nodes": 8, "e_nodes": 16}}
        out = tmp_path / "out"
        record, code = run_scenario(write(tmp_path, "s.json", sc), {"out": str(out)})
        assert code == EXIT_OK
        assert record["results"]["fraction"] >= 0.9
        assert (out / "quantita.svg").exists()
        csv = (out / "quantita.csv").read_text().splitlines()
        assert csv[0] == "t,E,L" and len(csv) == 8 * 16 + 1

    def test_search_quick_exit_scenario(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "search",
              "base": {"family": "circle_rotation", "alpha": (math.sqrt(5) - 1) / 2},
              "params": {"kind": "schrodinger",
                         "v1": {"family": "trig_polynomial", "const": 0.0,
                                "cos": [], "sin": []},
                         "energy": 5.0, "delta": 0.5},
              "seed": 1}
        record, code = run_scenario(write(tmp_path, "s.json", sc))
        assert code == EXIT_OK
        assert record["results"]["found"] is True

    def test_search_budget_exit_4(self, tmp_path):
        sc = {"schema": "lyaplab/scenario/v1", "operation": "search",
              "base": {"family": "circle_rotation", "alpha": (math.sqrt(5) - 1) / 2},
              "params": {"kind": "schrodinger",
                         "v1": {"family": "trig_polynomial", "const": 0.0,
                                "cos": [], "sin": []},
                         "energy": 0.0, "delta": 0.5, "budget": 0},
              "seed": 1, "n": 1024}
        record, code = run_scenario(write(tmp_path, "s.json", sc))
        assert code == EXIT_BUDGET

    def test_search_found_nothing_exits_4(self, tmp_path, capsys):
        # exit 4 means any not-found search, not only an exhausted budget
        sc = {"schema": "lyaplab/scenario/v1", "operation": "search",
              "base": {"family": "circle_rotation", "alpha": (math.sqrt(5) - 1) / 2},
              "params": {"kind": "schrodinger",
                         "v1": {"family": "trig_polynomial", "const": 0.0,
                                "cos": [], "sin": []},
                         "energy": 0.0, "delta": 0}}
        assert main(["search", "--scenario", write(tmp_path, "s.json", sc)]) == EXIT_BUDGET
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["reason"] == "empty search region (delta <= 0)"


SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")
                                        if p.stem != "search_golden"))
def test_committed_scenario_runs_deterministically(name, capsys):
    """Each committed scenario (but the slow density search) exits 0 through
    main, and two runs print byte-identical results."""
    path = SCENARIOS / f"{name}.json"
    operation = json.loads(path.read_text())["operation"]
    results = []
    for _ in range(2):
        assert main([operation, "--scenario", str(path)]) == EXIT_OK
        results.append(canonical_json(json.loads(capsys.readouterr().out)["results"]))
    assert results[0] == results[1]


class TestParserSchemaParity:
    def test_flags_match_scenario_keys(self):
        # every documented flag is a scenario field and vice versa
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, type(parser._subparsers._group_actions[0])))
        lyap = sub.choices["lyapunov"]
        flags = {a.dest for a in lyap._actions
                 if a.option_strings and a.dest != "help"}
        assert flags == {"scenario", "seed", "samples", "n", "tol", "out"}
        from lyaplab.cli import _COMMON_KEYS
        scenario_overridables = _COMMON_KEYS - {"schema", "operation", "params"}
        assert flags - {"scenario"} == scenario_overridables

    def test_reproduce_subcommand_exists(self):
        parser = build_parser()
        args = parser.parse_args(["reproduce", "--only", "1"])
        assert args.command == "reproduce" and args.only == "1"


def test_reproduce_single_criterion(capsys):
    code = main(["reproduce", "--only", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "criterion  1" in out and "PASS" in out
