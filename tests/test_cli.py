import json
import math
import pathlib
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyndeg.cli import (
    dumps_canonical,
    main,
    parse_config,
    run,
)
from dyndeg.errors import SchemaError

from support import canonical_json


def p2_config(**overrides):
    cfg = {
        "model": {"kind": "projective", "n": 2},
        "map": {"kind": "power", "d": 2},
        "analyses": ["chain"],
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_valid(self):
        config = parse_config(json.dumps(p2_config()))
        assert config.model["n"] == 2
        assert config.m_max == 16 and config.tol == 1e-9

    def test_missing_model_reports_pointer(self):
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps({"map": {"kind": "power", "d": 2},
                                     "analyses": ["chain"]}))
        assert ("/model", "missing") in exc.value.violations

    def test_multiprojective_running_example(self):
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["delta-table"],
            "M": 16,
        }
        config = parse_config(json.dumps(cfg))
        assert config.m_max == 16

    def test_every_violation_is_collected(self):
        bad = {
            "model": {"kind": "projective", "n": 0, "junk": 1},
            "map": {"kind": "power", "d": -1},
            "analyses": ["nope"],
            "M": 0,
            "tol": -1,
        }
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(bad))
        paths = {p for p, _ in exc.value.violations}
        assert {"/model/n", "/model/junk", "/map/d", "/analyses/0",
                "/M", "/tol"} <= paths

    def test_unknown_model_kind(self):
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(p2_config(model={"kind": "weighted"})))
        assert any(p == "/model/kind" for p, _ in exc.value.violations)

    def test_map_model_compatibility(self):
        cfg = p2_config(map={"kind": "product", "d": [2], "perm": [0]})
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(cfg))
        assert any(p == "/map/kind" for p, _ in exc.value.violations)

    def test_bad_matrix_entries_are_located(self):
        cfg = {
            "model": {"kind": "surface_lattice",
                      "gram": [[0, 1], [1, 0.5]], "ample": [1, 1]},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
        }
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(cfg))
        assert any("/model/gram/1/1" == p for p, _ in exc.value.violations)

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            parse_config("{not json")

    def test_round_trip(self):
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["delta-table", "chain"],
            "M": 8,
            "tol": 1e-10,
        }
        config = parse_config(json.dumps(cfg))
        assert parse_config(dumps_canonical(config.to_dict())) == config


# the two configs that crashed the schema pass with a traceback
BAD_PRODUCT = {
    "model": {"kind": "custom", "top_degree": 2, "dims": [1, 0, 1],
              "products": [{"a": "x", "b": [2, 0], "value": {"0": 1}}],
              "integrate": [1], "h": [1], "ambient_dim": 1},
    "map": {"kind": "identity"},
    "analyses": ["delta-table"],
}
BAD_BLOCK = {
    "model": {"kind": "projective", "n": 1},
    "map": {"kind": "matrices", "blocks": [[[1]], [], [["x"]]]},
    "analyses": ["delta-table"],
}


class TestCoercionErrors:
    def _paths(self, cfg):
        with pytest.raises(SchemaError) as exc:
            parse_config(json.dumps(cfg))
        return {p for p, _ in exc.value.violations}

    def test_product_pairs_and_values_are_located(self):
        assert self._paths(BAD_PRODUCT) == {"/model/products/0/a"}
        cfg = json.loads(json.dumps(BAD_PRODUCT))
        cfg["model"]["products"] = [
            {"a": [2, 0], "b": [2, "0"], "value": {"0": 1}},
            {"a": [2, 0], "b": [2, 0], "value": {"x": 1}},
            {"a": [2, 0], "b": [2, 0], "value": [[0, "1/0"]]},
            {"a": [2, 0, 1], "b": [True, 0], "value": 3},
        ]
        assert self._paths(cfg) == {
            "/model/products/0/b", "/model/products/1/value",
            "/model/products/2/value", "/model/products/3/a",
            "/model/products/3/b", "/model/products/3/value",
        }

    def test_block_entries_are_located(self):
        assert self._paths(BAD_BLOCK) == {"/map/blocks/2/0/0"}
        cfg = p2_config(map={"kind": "matrices",
                             "blocks": [[[1]], [], 7, [], [[{"num": "1"}]]]})
        assert self._paths(cfg) == {"/map/blocks/2", "/map/blocks/4/0/0"}

    @pytest.mark.parametrize("field,value,path", [
        ("unit", ["x"], "/model/unit/0"),
        ("top_degree", "x", "/model/top_degree"),
        ("ambient_dim", "x", "/model/ambient_dim"),
        ("effective", [5], "/model/effective/0"),
        ("effective", [{"degree": 2, "coords": ["x"]}],
         "/model/effective/0/coords/0"),
    ])
    def test_other_custom_fields_are_located(self, field, value, path):
        cfg = json.loads(json.dumps(BAD_PRODUCT))
        cfg["model"]["products"] = []
        cfg["model"][field] = value
        assert self._paths(cfg) == {path}

    def test_empty_blocks_of_zero_dimensional_degrees_stay_valid(self):
        cfg = p2_config(map={"kind": "matrices",
                             "blocks": [[[1]], [], [["2"]], [], [[4]]]},
                        analyses=["delta-table"])
        report = run(parse_config(json.dumps(cfg)))
        assert report.results["delta-table"]["rows"][1][0] == 2

    @pytest.mark.parametrize("cfg", [BAD_PRODUCT, BAD_BLOCK],
                             ids=["product", "block"])
    @pytest.mark.parametrize("command", ["report", "delta", "validate"])
    def test_exit_two_with_json_on_stderr(self, tmp_path, capsys, cfg, command):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["violations"]


class TestRun:
    def test_p2_full_report_values(self):
        config = parse_config(json.dumps(p2_config(
            analyses=["chain", "delta-table", "gromov", "graph-class", "bounds"]
        )))
        report = run(config)
        chain = report.results["chain"]
        assert chain["lambda_gr"] == pytest.approx(4.0, abs=1e-9)
        assert chain["equality_holds"] and chain["equality_asserted"]
        assert report.results["bounds"]["violations"] == 0
        assert report.results["gromov"]["certificates_verified"]

    def test_identity_on_abelian_rank_one(self):
        cfg = {
            "model": {"kind": "abelian", "g": 1},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
        }
        report = run(parse_config(json.dumps(cfg)))
        chain = report.results["chain"]
        assert chain["lambda_gr"] == pytest.approx(1.0, abs=1e-12)
        assert chain["max_mu"] == pytest.approx(1.0, abs=1e-12)

    def test_ample_override(self):
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["chain"],
            "ample": {"coords": [1, 1]},
        }
        report = run(parse_config(json.dumps(cfg)))
        assert report.results["chain"]["lambda_gr"] == pytest.approx(6.0, abs=1e-9)

    def test_ample_override_sets_the_degree(self):
        # h = h_1 + 2 h_2 on P^1 x P^1: h^2 = 4 h_1 h_2, so deg(X) = 4, not
        # the 2 of the default h = h_1 + h_2
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["delta-table"],
            "ample": {"coords": [1, 2]},
            "M": 4,
        }
        results = run(parse_config(json.dumps(cfg))).results
        assert results["model_summary"]["deg_x"] == 4
        assert results["delta-table"]["deg_x"] == 4
        assert results["delta-table"]["rows"][0] == [4] * 4

    def test_custom_model_through_the_cli_schema(self):
        cfg = {
            "model": {
                "kind": "custom",
                "top_degree": 4,
                "dims": [1, 0, 1, 0, 1],
                "sign_rule": "commutative",
                "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
                "integrate": [1],
                "h": [1],
                "ambient_dim": 2,
                "effective": [
                    {"label": "unit", "degree": 0, "coords": [1]},
                    {"label": "line", "degree": 2, "coords": [1]},
                    {"label": "point", "degree": 4, "coords": [1]},
                ],
            },
            "map": {"kind": "matrices",
                    "blocks": [[[1]], [], [[2]], [], [[4]]]},
            "analyses": ["chain", "bounds"],
        }
        report = run(parse_config(json.dumps(cfg)))
        chain = report.results["chain"]
        assert chain["lambda_gr"] == pytest.approx(4.0, abs=1e-9)
        assert not chain["equality_asserted"]  # custom models are unverified
        bounds = report.results["bounds"]
        assert bounds["violations"] == 0 and len(bounds["checks"]) == 3


    def test_a_hand_supplied_map_does_not_assert_equality(self):
        # an asserted builder model with an unverified matrix map: a
        # non-surjective f* whose radii disagree must not claim equality
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "matrices",
                    "blocks": [[[1]], [], [[2, 3], [0, 0]], [], [[0]]]},
            "analyses": ["chain"],
        }
        results = run(parse_config(json.dumps(cfg))).results
        assert results["model_summary"]["realizability"] == "asserted"
        assert results["model_summary"]["map_realizability"] == "unverified"
        assert results["chain"]["realizability"] == "unverified"
        assert not results["chain"]["equality_asserted"]

    def test_a_custom_model_with_the_identity_map_stays_unasserted(self):
        cfg = {
            "model": {"kind": "custom", "top_degree": 4, "dims": [1, 0, 1, 0, 1],
                      "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
                      "integrate": [1], "h": [1], "ambient_dim": 2},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
        }
        results = run(parse_config(json.dumps(cfg))).results
        assert results["model_summary"]["map_realizability"] == "asserted"
        assert not results["chain"]["equality_asserted"]

    def test_an_abelian_matrix_that_is_not_a_kronecker_square_is_unverified(self):
        # I_2 (x) A with A = [[2, 1], [1, 1]]: (tr)^2 = 9 > 4 deg = 4 on each
        # factor, so no elliptic curve has it; the equality indeed fails
        cfg = {
            "model": {"kind": "abelian", "g": 2},
            "map": {"kind": "exterior", "matrix": [
                [2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]},
            "analyses": ["chain"],
        }
        results = run(parse_config(json.dumps(cfg))).results
        assert results["model_summary"]["realizability"] == "asserted"
        assert results["model_summary"]["map_realizability"] == "unverified"
        assert not results["chain"]["equality_asserted"]
        assert not results["chain"]["equality_holds"]

    def test_one_order_of_a_custom_product_in_one_degree(self):
        # only h1 h2 is given; h2 h1 comes from the sign rule
        cfg = {
            "model": {"kind": "custom", "top_degree": 4, "dims": [1, 0, 2, 0, 1],
                      "products": [{"a": [2, 0], "b": [2, 1], "value": [[0, 1]]}],
                      "integrate": [1], "h": [1, 1], "ambient_dim": 3},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
        }
        results = run(parse_config(json.dumps(cfg))).results
        assert results["model_summary"]["deg_x"] == 2


class TestMainCommand:
    def _write(self, tmp_path, cfg, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_report_deterministic_bytes(self, tmp_path):
        path = self._write(tmp_path, p2_config())
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["report", "--config", path, "--out", out1]) == 0
        assert main(["report", "--config", path, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_delta_subcommand_running_example(self, tmp_path, capsys):
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["chain"],
            "M": 4,
        }
        path = self._write(tmp_path, cfg)
        assert main(["delta", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        rows = payload["results"]["delta-table"]["rows"]
        assert [int(v["num"]) for v in rows[1]] == [5, 12, 30, 72]
        assert set(payload["results"]) == {"model_summary", "delta-table"}

    def test_validate_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, p2_config())
        assert main(["validate", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_schema_error_exits_two_with_stderr_json(self, tmp_path, capsys):
        path = self._write(tmp_path, {"map": {}, "analyses": ["chain"]})
        assert main(["report", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SchemaError"
        assert any(v["path"] == "/model" for v in err["violations"])

    def test_invalid_map_exits_two_naming_the_pair(self, tmp_path, capsys):
        cfg = {
            "model": {
                "kind": "custom",
                "top_degree": 4,
                "dims": [1, 0, 1, 0, 1],
                "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
                "integrate": [1],
                "h": [1],
                "ambient_dim": 2,
            },
            "map": {"kind": "matrices",
                    "blocks": [[[1]], [], [[2]], [], [[5]]]},
            "analyses": ["chain"],
        }
        path = self._write(tmp_path, cfg)
        assert main(["report", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MultiplicativityViolation"
        assert err["pair"] == [[2, 0], [2, 0]]

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["report", "--config", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    def test_max_power_and_tol_overrides(self, tmp_path, capsys):
        cfg = p2_config(analyses=["delta-table"])
        path = self._write(tmp_path, cfg)
        assert main(["report", "--config", path, "--max-power", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["M"] == 3
        assert len(payload["results"]["delta-table"]["rows"][0]) == 3

    @pytest.mark.parametrize("flags, pointer", [
        (["--tol", "-1"], "/tol"),
        (["--tol", "nan"], "/tol"),
        (["--tol", "inf"], "/tol"),
        (["--max-power", "0"], "/M"),
        (["--max-power", "x"], "/M"),
        (["--max-power", "2.5"], "/M"),
        (["--tol", "abc"], "/tol"),
    ])
    def test_overrides_meet_the_schema(self, tmp_path, capsys, flags, pointer):
        path = self._write(tmp_path, p2_config())
        assert main(["report", "--config", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert [v["path"] for v in err["violations"]] == [pointer]

    @pytest.mark.parametrize("argv", [
        [],
        ["reprot", "--config", "{path}"],
        ["--config", "{path}", "report"],
        ["report"],
        ["report", "--out", "x.json"],
        ["report", "--config"],
        ["report", "--config", "--timing"],
        ["report", "--config", "{path}", "--tol"],
        ["report", "--config", "{path}", "--conf", "{path}"],
        ["report", "--config", "{path}", "--verbose"],
        ["report", "--config", "{path}", "extra"],
        ["report", "--config", "{path}", "--timing=yes"],
        ["report", "--config", "{path}\0"],
        ["report", "--config", "{path}", "--out=out\0.json"],
    ], ids=[
        "no-command", "unknown-command", "flag-before-command", "no-config",
        "only-out", "config-at-end", "config-before-flag", "tol-at-end",
        "abbreviated-flag", "unknown-flag", "positional", "timing-with-value",
        "nul-in-config", "nul-in-out",
    ])
    def test_usage_errors_exit_two_with_json(self, tmp_path, capsys, argv):
        path = self._write(tmp_path, p2_config())
        argv = [token.replace("{path}", path) for token in argv]
        assert main(argv) == 2  # returned, not raised as SystemExit
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line)["error"] == "UsageError"

    def test_equals_form_and_the_last_occurrence_win(self, tmp_path, capsys):
        path = self._write(tmp_path, p2_config(analyses=["delta-table"]))
        missing = str(tmp_path / "missing.json")
        argv = ["report", f"--config={missing}", "--max-power=5",
                "--config", path, "--max-power", "3"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["config"]["M"] == 3

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["report", "--help"], ["delta", "--config", "x", "-h"],
    ])
    def test_help_prints_the_usage_and_exits_zero(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: dyndeg") and captured.err == ""

    def test_no_arguments_exit_two_with_json_from_the_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dyndeg"], capture_output=True, text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "UsageError"

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from([
        "validate", "report", "delta", "--config", "{path}", "--config={path}",
        "--out", "{out}", "--out=", "--max-power", "3", "x", "--tol", "1e-6",
        "abc", "--timing", "--timing=1", "--conf", "-h", "--", "-", "", "\0",
    ]), max_size=7))
    def test_fuzzed_argv_keeps_the_exit_code_contract(self, tmp_path, capsys,
                                                        argv):
        path = self._write(tmp_path, p2_config())
        out = str(tmp_path / "out.json")
        argv = [t.replace("{path}", path).replace("{out}", out) for t in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code in (0, 2)
        if code == 2:
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert isinstance(json.loads(line), dict)

    def _io_failure(self, capsys, argv):
        """Exit 2, nothing on stdout, one JSON line on stderr; that line."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        return json.loads(line)

    @pytest.mark.parametrize("command", ["report", "validate", "delta"])
    @pytest.mark.parametrize("out", ["missing/report.json", "."])
    def test_unwritable_out_exits_two(self, tmp_path, capsys, command, out):
        path = self._write(tmp_path, p2_config())
        argv = [command, "--config", path, "--out", str(tmp_path / out)]
        assert self._io_failure(capsys, argv)["error"] == "IOError"

    def test_config_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(p2_config(), ensure_ascii=False)
                         .replace("power", "pow\u00e9r").encode("latin-1"))
        err = self._io_failure(capsys, ["report", "--config", str(path)])
        assert err["error"] == "SchemaError"
        assert [v["path"] for v in err["violations"]] == [""]

    def test_too_deep_a_nesting_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        err = self._io_failure(capsys, ["report", "--config", str(path)])
        assert err["error"] == "SchemaError"
        assert [v["path"] for v in err["violations"]] == [""]

    def test_console_entry_point(self, tmp_path):
        path = self._write(tmp_path, p2_config())
        proc = subprocess.run(
            [sys.executable, "-m", "dyndeg", "report", "--config", path],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["results"]["chain"]["equality_holds"] is True


class TestExitCodes:
    def test_analysis_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # model and map build fine; force the analysis itself to fail
        from dyndeg import analyses
        from dyndeg.errors import SpectralNonconvergence

        def boom(model, pull, config, closure):
            raise SpectralNonconvergence(1.0, 0.5)

        monkeypatch.setitem(analyses.RUNNERS, "chain", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SpectralNonconvergence"


    def test_stage_decides_the_exit_code_without_a_rebuild(
        self, tmp_path, capsys, monkeypatch
    ):
        from dyndeg import analyses
        from dyndeg import cli as cli_module
        from dyndeg.errors import SpectralNonconvergence

        builds = []
        original = cli_module.build_model_and_map

        def counting_build(config):
            builds.append(config)
            return original(config)

        def boom(model, pull, config, closure):
            raise SpectralNonconvergence(1.0, 0.5)

        monkeypatch.setattr(cli_module, "build_model_and_map", counting_build)
        monkeypatch.setitem(analyses.RUNNERS, "chain", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path)]) == 3
        assert len(builds) == 1
        # a map that fails validation at build time is still exit 2
        builds.clear()
        path.write_text(json.dumps(p2_config(
            map={"kind": "matrices", "blocks": [[[1]], [], [[2]], [], [[5]]]}
        )))
        assert main(["report", "--config", str(path)]) == 2
        assert len(builds) == 1
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "MultiplicativityViolation"

    def test_a_linear_root_past_the_float_range_exits_three(
        self, tmp_path, capsys
    ):
        # x - 2^1100: the square-free part is linear, its root not a float
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "model": {"kind": "projective", "n": 1},
            "map": {"kind": "matrices", "blocks": [[[1]], [], [[str(2**1100)]]]},
            "analyses": ["chain"],
        }))
        assert main(["report", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "SpectralNonconvergence"


class TestOneDeltaTable:
    def test_report_builds_one_table_and_no_map_powers(self, monkeypatch):
        # the library computes no map powers: the three analyses share
        # one table
        from dyndeg import degrees

        calls = []
        original = degrees.delta_table

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(degrees, "delta_table", counted)
        config = parse_config(json.dumps(p2_config(
            analyses=["delta-table", "graph-class", "bounds"], M=6
        )))
        results = run(config).results
        assert len(calls) == 1
        rows = results["delta-table"]["rows"]
        for entry in results["graph-class"]["per_m"]:
            column = [row[entry["m"] - 1] for row in rows]
            assert entry["coefficients"] == column[::-1]
            assert entry["segre_matches"] is True

    def test_no_table_without_a_table_analysis(self, monkeypatch):
        from dyndeg import degrees

        def forbidden(*args):
            raise AssertionError("delta_table built for a chain-only report")

        monkeypatch.setattr(degrees, "delta_table", forbidden)
        run(parse_config(json.dumps(p2_config())))


class TestOneClosure:
    def test_gromov_and_chain_share_one_closure(self, monkeypatch):
        from dyndeg import gromov

        calls = []
        original = gromov.gromov_closure

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gromov, "gromov_closure", counted)
        results = run(parse_config(json.dumps(p2_config(
            analyses=["gromov", "chain", "delta-table"]
        )))).results
        assert len(calls) == 1
        assert results["gromov"]["lambda_gr"] == results["chain"]["lambda_gr"]
        assert results["gromov"]["certificates_verified"] is True

    def test_berkowitz_runs_once_per_block(self, monkeypatch):
        # one characteristic polynomial per closure block (shared by gromov
        # and chain) plus one per nonzero graded block (chain's mu)
        from dyndeg import gromov, spectral

        closures, polys = [], []
        build, berkowitz = gromov.gromov_closure, spectral.char_poly

        def counted_closure(*args, **kwargs):
            closures.append(build(*args, **kwargs))
            return closures[-1]

        def counted_poly(matrix):
            polys.append(matrix)
            return berkowitz(matrix)

        monkeypatch.setattr(gromov, "gromov_closure", counted_closure)
        monkeypatch.setattr(spectral, "char_poly", counted_poly)
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1, 1]},
            "map": {"kind": "product", "d": [2, 3, 1], "perm": [1, 2, 0]},
            "analyses": ["gromov", "chain"],
        }
        results = run(parse_config(json.dumps(cfg))).results
        (closure,) = closures
        dims = closure.algebra.dims
        assert len(polys) == (
            len(closure.degree_blocks()) + sum(1 for d in dims if d)
        )
        assert results["gromov"]["lambda_gr"] == results["chain"]["lambda_gr"]

    def test_no_closure_without_gromov_or_chain(self, monkeypatch):
        from dyndeg import gromov

        def forbidden(*args):
            raise AssertionError("closure built for a report without gromov/chain")

        monkeypatch.setattr(gromov, "gromov_closure", forbidden)
        run(parse_config(json.dumps(p2_config(analyses=["delta-table"]))))


# sha256 of `dyndeg report --config configs/<name>` stdout; any change to a
# report's bytes for the shipped configs shows here
SHIPPED_REPORT_SHA256 = {
    "elliptic_square_fibonacci.json":
        "a7a375ac32d4fd94c3642da4010b71effb2b03ab837514092f7005c11c644262",
    "p1xp1_swap.json":
        "9477c05e9972bd304dd58b35b15b7f30b4c14672ea4bbb96a351bd46873006c1",
    "p2_power2.json":
        "9e9fc121c3d59f64ff000dae1d0c17335dd642ff2cef5c68d4ea13675752d050",
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(SHIPPED_REPORT_SHA256))
    def test_report_bytes_are_pinned(self, name, capsys):
        import hashlib
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "configs" / name
        assert main(["report", "--config", str(path)]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == SHIPPED_REPORT_SHA256[name]


# the top of the scale ladder: abelian g = 4, gromov + chain, with the map
# A (x) I_2; sha256 of the report's stdout
ABELIAN_G4_A = [[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 3, 1], [1, 0, 0, 2]]
ABELIAN_G4_SHA256 = (
    "9543a1e225c32d0c6c95313643e6434950a9b949ee72c876a308baeb1bb122d9"
)


class TestScaleLadder:
    def test_abelian_g4_report_bytes_are_pinned(self, tmp_path, capsys):
        import hashlib

        a = ABELIAN_G4_A
        cfg = {
            "model": {"kind": "abelian", "g": 4},
            "map": {"kind": "exterior", "matrix": [
                [a[i // 2][j // 2] if i % 2 == j % 2 else 0 for j in range(8)]
                for i in range(8)
            ]},
            "analyses": ["gromov", "chain"],
        }
        path = tmp_path / "abelian_g4.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--config", str(path)]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == ABELIAN_G4_SHA256


class TestComputeWorkloadBytes:
    """The seed-0 ``exact-core`` benchmark reports, run in-process, against
    the sha256 values the benchmark checks (``perfbench/golden.json``)."""

    @staticmethod
    def _workloads(monkeypatch, name="exact-core"):
        import importlib.util
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "perfbench" / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve the module's annotations through sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        golden = json.loads(
            (root / "perfbench" / "golden.json").read_text("utf-8")
        )
        return module.generate(name, 0, root), golden[name]

    def test_exact_core_reports_match_the_golden_hashes(
        self, tmp_path, capsys, monkeypatch
    ):
        import hashlib

        workload, golden = self._workloads(monkeypatch)
        paths = workload.write(tmp_path)
        assert len(workload.invocations) == 6
        for command, name in workload.invocations:
            assert main([command, "--config", str(paths[name])]) == 0
            out = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(out).hexdigest() == golden[
                f"{command} {name}"
            ], name


class TestLazyImports:
    def test_importing_the_cli_loads_neither_numpy_nor_mpmath(self):
        code = (
            "import sys, dyndeg.cli; "
            "print(sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "dyndeg"
        for path in src.glob("*.py"):
            text = path.read_text(encoding="utf-8")
            assert not re.search(
                r"^\s*(import|from)\s+(numpy|mpmath)\b", text, re.M
            ), path

    @pytest.mark.parametrize(
        "name", ["p1xp1_swap.json", "elliptic_square_fibonacci.json"]
    )
    def test_a_shipped_report_loads_neither_numpy_nor_mpmath(self, name):
        # both configs certify a root of a non-linear square-free polynomial
        config = pathlib.Path(__file__).resolve().parents[1] / "configs" / name
        code = (
            "import sys; from dyndeg.cli import main; "
            f"code = main(['report', '--config', {str(config)!r}]); "
            "print(code, sorted(m for m in ('numpy', 'mpmath') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "0 []"

    # standard-library modules that no command needs: ``dataclasses`` and
    # the ``inspect`` it pulls in, ``argparse`` and the ``gettext`` and
    # ``locale`` it pulls in
    _UNNEEDED = ("dataclasses", "inspect", "argparse", "gettext", "locale")

    @classmethod
    def _loaded(cls, code):
        """The ``dyndeg`` modules a fresh interpreter holds after ``code``,
        and which of the ``_UNNEEDED`` modules it loaded."""
        code += (
            "; import json, sys; print(json.dumps([[m for m in sys.modules"
            " if m.split('.')[0] == 'dyndeg'],"
            f" [m for m in {cls._UNNEEDED!r} if m in sys.modules]]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        modules, stdlib = json.loads(proc.stdout.splitlines()[-1])
        return set(modules), stdlib

    def _after_main(self, argv):
        return self._loaded(
            f"from dyndeg.cli import main; assert main({argv!r}) in (0, 2)"
        )

    def test_importing_the_package_loads_no_submodule(self):
        assert self._loaded("import dyndeg") == ({"dyndeg"}, [])

    def test_a_rejected_config_loads_no_model_layer(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"kind": "projective", "n": 0}}))
        assert self._after_main(["report", "--config", str(path)]) == (
            {"dyndeg", "dyndeg.cli", "dyndeg.errors"}, []
        )

    def test_an_abelian_validate_loads_only_the_abelian_builders(self, tmp_path):
        path = tmp_path / "abelian.json"
        path.write_text(json.dumps({
            "model": {"kind": "abelian", "g": 2},
            "map": {"kind": "exterior", "matrix": [
                [2, 0, 1, 0], [0, 2, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]},
            "analyses": ["chain"],
        }))
        modules, _ = self._after_main(
            ["validate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert {"dyndeg.models", "dyndeg.abelian"} <= modules
        assert not modules & {
            "dyndeg.projective", "dyndeg.lattice", "dyndeg.analyses",
            "dyndeg.degrees", "dyndeg.estimators",
        }

    @pytest.mark.parametrize("command", ["delta", "report"])
    def test_no_report_loads_the_estimators(self, tmp_path, command):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_config(analyses=[
            "delta-table", "gromov", "chain", "graph-class", "bounds",
        ])))
        modules, _ = self._after_main(
            [command, "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert {"dyndeg.projective", "dyndeg.analyses",
                "dyndeg.degrees"} <= modules
        assert not modules & {"dyndeg.estimators", "dyndeg.abelian",
                              "dyndeg.lattice"}

    def test_the_builders_still_resolve_through_models(self):
        script = textwrap.dedent("""
            import importlib, dyndeg
            from dyndeg import models
            from dyndeg.models import pn_power_map
            from dyndeg.projective import pn_power_map as own
            assert pn_power_map is own
            models.exterior_algebra.cache_clear()
            assert models.exterior_algebra(1).dims == (1, 2, 1)
            for module, names in dyndeg._EXPORTS.items():
                for name in names:
                    assert getattr(dyndeg, name) is getattr(
                        importlib.import_module("dyndeg." + module), name)
            for module in models._BUILDER_MODULES:
                for name in dyndeg._EXPORTS[module]:
                    assert getattr(models, name) is getattr(dyndeg, name), name
            try:
                models.no_such_builder
            except AttributeError:
                pass
            else:
                raise AssertionError("an unknown name resolved")
        """)
        subprocess.run([sys.executable, "-c", script], check=True)

    @pytest.mark.parametrize("command, absent", [
        ("validate", {"dyndeg.degrees", "dyndeg.gromov", "dyndeg.spectral",
                      "dyndeg.estimators"}),
        ("delta", {"dyndeg.gromov", "dyndeg.spectral"}),
    ])
    def test_a_command_loads_only_its_layers(self, tmp_path, command, absent):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_config()))
        modules, _ = self._after_main(
            [command, "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert "dyndeg.models" in modules and not modules & absent

    def test_a_closure_report_does_not_load_the_degrees_layer(self, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_config(analyses=["chain", "gromov"])))
        modules, _ = self._after_main(
            ["report", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert {"dyndeg.models", "dyndeg.gromov"} <= modules
        assert "dyndeg.degrees" not in modules

    def test_a_chain_report_does_not_load_the_estimators(self, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_config(analyses=["chain"])))
        modules, _ = self._after_main(
            ["report", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert "dyndeg.spectral" in modules
        assert "dyndeg.estimators" not in modules

    @pytest.mark.parametrize("argv", [
        ["--help"], ["report"], ["report", "--config", "x", "--conf", "y"],
    ])
    def test_help_and_usage_errors_load_no_unneeded_module(self, argv):
        modules, stdlib = self._after_main(argv)
        assert modules == {"dyndeg", "dyndeg.cli", "dyndeg.errors"}
        assert stdlib == []

    @pytest.mark.parametrize("command", ["report", "delta", "validate"])
    @pytest.mark.parametrize("name", sorted(SHIPPED_REPORT_SHA256))
    def test_no_command_loads_dataclasses_or_inspect(
        self, tmp_path, name, command
    ):
        config = pathlib.Path(__file__).resolve().parents[1] / "configs" / name
        modules, stdlib = self._after_main(
            [command, "--config", str(config), "--out", str(tmp_path / "out")]
        )
        assert "dyndeg.models" in modules and stdlib == []

    def test_star_import_binds_every_exported_name(self):
        # each name is the object its module defines (a constant has no
        # __module__ to compare)
        script = textwrap.dedent("""
            import importlib, dyndeg
            ns = {}
            exec("from dyndeg import *", ns)
            assert sorted(dyndeg.__all__) == sorted(n for n in ns if n[0] != "_")
            for module, names in dyndeg._EXPORTS.items():
                owner = importlib.import_module("dyndeg." + module)
                for name in names:
                    assert ns[name] is getattr(owner, name), name
                    where = getattr(ns[name], "__module__", owner.__name__)
                    assert where == owner.__name__, (name, where)
        """)
        subprocess.run([sys.executable, "-c", script], check=True)


# report values: rationals (huge ones too), ints, bools, None, floats at
# the edges of the 12-digit rounding, and strings json must escape
SCALARS = st.one_of(
    st.fractions(),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**30)),
    st.integers(), st.integers(-10**60, 10**60), st.booleans(), st.none(),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 1e-7, 0.1 + 0.2, math.inf, -math.inf,
                     math.nan]),
    st.text(),
    st.sampled_from(['say "hi"', "back\\slash", "tab\tnul\x00\x1f\x7f",
                     "\u00e9\u2202 \U0001f600", "\u2028\ud800"]),
)
# keys that str() maps onto one another ("1" and 1, "True" and True)
KEYS = st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
                st.none(), st.sampled_from(["1", "-1", "True", "None", ""]))
TREES = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(KEYS, children, max_size=4),
), max_leaves=30)


class TestCanonicalEncoding:
    def test_fractions_become_num_den_strings(self):
        from fractions import Fraction

        text = dumps_canonical({"x": Fraction(-5, 3)})
        assert json.loads(text)["x"] == {"num": "-5", "den": "3"}

    def test_report_serialization_round_trips(self):
        config = parse_config(json.dumps(p2_config(
            analyses=["chain", "delta-table"]
        )))
        report = run(config)
        text = report.to_json()
        assert dumps_canonical(json.loads(text)) == text

    def test_floats_are_normalized_to_twelve_digits(self):
        text = dumps_canonical({"x": 2.6180339887498949025})
        assert json.loads(text)["x"] == 2.61803398875

    @given(obj=TREES)
    @settings(max_examples=300, deadline=None)
    def test_the_one_pass_writer_matches_json(self, obj):
        assert dumps_canonical(obj) == canonical_json(obj)

    def test_what_json_cannot_encode_raises_type_error(self):
        for obj in ({1, 2}, {"x": [b"bytes"]}, object()):
            with pytest.raises(TypeError):
                canonical_json(obj)
            with pytest.raises(TypeError):
                dumps_canonical(obj)

    @pytest.mark.parametrize(
        "workload", ["cli-small", "exact-core", "iterate-tables"]
    )
    def test_every_seed_zero_output_matches_json(
        self, workload, tmp_path, capsys, monkeypatch
    ):
        from dyndeg import cli

        written = []

        def checked(obj):
            text = dumps_canonical(obj)
            assert text == canonical_json(obj)
            written.append(text)
            return text

        load = TestComputeWorkloadBytes._workloads
        wl, _ = load(monkeypatch, workload)
        paths = wl.write(tmp_path)
        monkeypatch.setattr(cli, "dumps_canonical", checked)
        successes = 0
        for command, name in wl.invocations:
            successes += main([command, "--config", str(paths[name])]) == 0
        capsys.readouterr()
        assert successes and len(written) == successes

    def test_timing_only_with_flag(self, tmp_path):
        cfg = p2_config()
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out1 = tmp_path / "plain.json"
        out2 = tmp_path / "timed.json"
        assert main(["report", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["report", "--config", str(path), "--out", str(out2),
                     "--timing"]) == 0
        assert "timing" not in json.loads(out1.read_text())
        assert "timing" in json.loads(out2.read_text())
