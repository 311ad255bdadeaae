import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyndeg import cli, errors
from dyndeg.cli import dumps_canonical, main, parse_config
from dyndeg.errors import (AssociativityViolation, BadMatrixShape, DynDegError,
                           FloatOverflow, MultiplicativityViolation, SchemaError,
                           ShapeMismatch, SignRuleViolation,
                           SpectralNonconvergence, UnitViolation)

from support import (canonical_json, fraction_block, fraction_blocks,
                     perfbench_workload, run_config, times_i2)


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
        assert config["model"]["n"] == 2
        assert config["M"] == 16 and config["tol"] == 1e-9

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
        assert config["M"] == 16

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
        assert parse_config(dumps_canonical(config)) == config

    def test_the_config_is_the_object_the_report_prints(self, tmp_path, capsys):
        text = json.dumps(p2_config(ample={"coords": [2]}, M=4, tol=1e-8))
        path = tmp_path / "p2.json"
        path.write_text(text, encoding="utf-8")
        assert main(["report", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == parse_config(text)


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
        results = run_config(cfg)
        assert results["delta-table"]["rows"][1][0] == 2

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
        results = run_config(p2_config(
            analyses=["chain", "delta-table", "gromov", "graph-class", "bounds"]
        ))
        chain = results["chain"]
        assert chain["lambda_gr"] == pytest.approx(4.0, abs=1e-9)
        assert chain["equality_holds"] and chain["equality_asserted"]
        assert results["bounds"]["violations"] == 0
        assert results["gromov"]["certificates_verified"]

    def test_identity_on_abelian_rank_one(self):
        cfg = {
            "model": {"kind": "abelian", "g": 1},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
        }
        chain = run_config(cfg)["chain"]
        assert chain["lambda_gr"] == pytest.approx(1.0, abs=1e-12)
        assert chain["max_mu"] == pytest.approx(1.0, abs=1e-12)

    def test_ample_override(self):
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1]},
            "map": {"kind": "product", "d": [2, 3], "perm": [1, 0]},
            "analyses": ["chain"],
            "ample": {"coords": [1, 1]},
        }
        results = run_config(cfg)
        assert results["chain"]["lambda_gr"] == pytest.approx(6.0, abs=1e-9)

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
        results = run_config(cfg)
        assert results["model_summary"]["deg_x"] == 4
        assert results["delta-table"]["deg_x"] == 4
        assert results["delta-table"]["rows"][0] == [4] * 4

    @pytest.mark.parametrize("name, coords, label", [
        ("p2_power2.json", [-1], "h^1"),
        ("p1xp1_swap.json", [-1, -1], "x1"),
    ])
    @pytest.mark.parametrize("command", ["report", "validate"])
    def test_an_override_negative_on_an_effective_class_exits_two(
        self, tmp_path, capsys, name, coords, label, command
    ):
        # -h has deg(X) = integrate((-h)^2) > 0, so only the effective
        # classes show that it is not ample
        code, out, err = _run_with_ample(tmp_path, capsys, name, coords, command)
        assert (code, out) == (2, "")
        message = f"not ample: h^1 on the effective class {label!r} is -1, not positive"
        assert json.loads(err) == {"error": "SchemaError", "violations": [
            {"path": "/ample/coords", "message": message}]}

    @pytest.mark.parametrize("name, coords, sha256", [
        ("p1xp1_swap.json", [1, 1],
         "6f4936a54162488d4aaeeab9a3449db8aa61216e3a280bc5c1215de6e04a6bd3"),
        ("p1xp1_swap.json", [1, 2],
         "695a7e10e5c9e7d47ed86e07cb3f8cbaffa49735646e7a98e27662cf1f07bb69"),
        # segre_expected is deg(X) (1 + d^m)^n = 4 (1 + 2^m)^2, so every
        # segre_matches is true (was (1 + 2^m)^2 and false)
        ("p2_power2.json", [2],
         "5024fe685d804b4fe4499c1eda3e7cdcc420a5ddc20fda73b3c8798c38ccba6d"),
    ])
    def test_ample_overrides_keep_their_report_bytes(
        self, tmp_path, capsys, name, coords, sha256
    ):
        code, out, err = _run_with_ample(tmp_path, capsys, name, coords, "report")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256

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
        results = run_config(cfg)
        chain = results["chain"]
        assert chain["lambda_gr"] == pytest.approx(4.0, abs=1e-9)
        assert not chain["equality_asserted"]  # custom models are unverified
        bounds = results["bounds"]
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
        results = run_config(cfg)
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
        results = run_config(cfg)
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
        results = run_config(cfg)
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
        results = run_config(cfg)
        assert results["model_summary"]["deg_x"] == 2


def _run_with_ample(tmp_path, capsys, name, coords, command):
    """``(exit code, stdout, stderr)`` of ``command`` on the shipped config
    ``name`` with the ample override ``coords``."""
    root = pathlib.Path(__file__).resolve().parents[1]
    cfg = json.loads((root / "configs" / name).read_text(encoding="utf-8"))
    path = tmp_path / "ample.json"
    path.write_text(json.dumps({**cfg, "ample": {"coords": coords}}))
    code = main([command, "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_an_exact_result_past_the_digit_limit_prints_in_full(
        self, tmp_path, capsys
    ):
        # delta_1(f^100) = d^100 = 10^5000 for z -> z^d, d = 10^50, on P^1:
        # the writer lifts int's digit limit and then restores it
        cfg = {"model": {"kind": "projective", "n": 1},
               "map": {"kind": "power", "d": 10**50},
               "analyses": ["delta-table"], "M": 100}
        limit = sys.get_int_max_str_digits()
        assert main(["delta", "--config", self._write(tmp_path, cfg)]) == 0
        assert sys.get_int_max_str_digits() == limit
        rows = json.loads(capsys.readouterr().out)["results"]["delta-table"]["rows"]
        assert rows[-1][-1] == {"num": "1" + "0" * 5000, "den": "1"}

    def test_validate_subcommand(self, tmp_path, capsys):
        path = self._write(tmp_path, p2_config())
        assert main(["validate", "--config", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_bounds_pair_only_the_cycles(self, tmp_path, capsys):
        # an effective class of odd degree is no cycle: bounds skip it
        # rather than pair it with itself (1 + 1 = top_degree)
        cfg = {
            "schema_version": "1",
            "model": {
                "kind": "custom", "top_degree": 2, "dims": [1, 2, 1],
                "sign_rule": "super_commutative",
                "products": [{"a": [1, 0], "b": [1, 1], "value": {"0": 1}}],
                "integrate": [1], "h": [1], "ambient_dim": 2,
                "effective": [{"label": "a", "degree": 1, "coords": [1, 0]},
                              {"label": "pt", "degree": 2, "coords": [1]}],
            },
            "map": {"kind": "identity"},
            "analyses": ["bounds"],
        }
        assert main(["report", "--config", self._write(tmp_path, cfg)]) == 0
        captured = capsys.readouterr()
        bounds = json.loads(captured.out)["results"]["bounds"]
        assert captured.err == ""
        assert (bounds["checks"], bounds["violations"]) == ([], 0)

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
        ["report", "--config", "{path}", "--timing"],
        ["report", "--config", "{path}", "--timing=1"],
        ["report", "--config", "{path}\0"],
        ["report", "--config", "{path}", "--out=out\0.json"],
    ], ids=[
        "no-command", "unknown-command", "flag-before-command", "no-config",
        "only-out", "config-at-end", "config-before-flag", "tol-at-end",
        "abbreviated-flag", "unknown-flag", "positional", "timing",
        "timing-with-value", "nul-in-config", "nul-in-out",
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


ROOT = pathlib.Path(__file__).resolve().parents[1]


class _Exit(Exception):
    """What a stand-in ``os._exit`` raises, with the code it was given."""


class TestProcessEntry:
    """``python -m dyndeg`` and the ``dyndeg`` script end through
    ``cli.entry``: ``main``, a flush of stdout and stderr, then ``os._exit``.
    Each child runs with ``PYTHONUNBUFFERED`` removed, as it would mask a
    missing flush, and again with it set."""

    @staticmethod
    def _child(argv, unbuffered, **kwargs):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        kwargs.setdefault("stdout", subprocess.PIPE)
        return subprocess.run([sys.executable, "-m", "dyndeg", *argv], env=env,
                              stderr=subprocess.PIPE, **kwargs)

    @staticmethod
    def _argvs(tmp_path):
        rejected = tmp_path / "rejected.json"
        rejected.write_text(json.dumps(p2_config(M=0)))
        configs = sorted((ROOT / "configs").glob("*.json")) + [rejected]
        return [[command, "--config", str(path)] for path in configs
                for command in ("report", "validate", "delta")] + [["--help"]]

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_a_child_gives_the_bytes_and_code_of_main(self, tmp_path, capsys,
                                                      unbuffered):
        codes = set()
        for argv in self._argvs(tmp_path):
            code = main(argv)
            captured = capsys.readouterr()
            proc = self._child(argv, unbuffered)
            assert proc.returncode == code, argv
            assert proc.stdout == captured.out.encode(), argv
            assert proc.stderr == captured.err.encode(), argv
            codes.add(code)
        assert codes == {0, 2}

    def test_the_cli_module_runs_as_the_package_does(self):
        # ``python -m dyndeg.cli`` ends through ``cli.entry`` too
        package = self._child(["--help"], False)
        module = subprocess.run(
            [sys.executable, "-m", "dyndeg.cli", "--help"],
            capture_output=True)
        assert package.returncode == module.returncode == 0
        assert (package.stdout, package.stderr) == (module.stdout, module.stderr)
        assert b"usage" in module.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_an_out_file_is_complete(self, tmp_path, capsys, unbuffered):
        path = str(ROOT / "configs" / "p2_power2.json")
        assert main(["report", "--config", path]) == 0
        expected = capsys.readouterr().out.encode()
        out = tmp_path / "report.json"
        proc = self._child(["report", "--config", path, "--out", str(out)],
                           unbuffered)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert out.read_bytes() == expected

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("argv", [["report"], ["validate"], ["--help"]])
    def test_a_closed_stdout_exits_two_with_one_json_line(self, unbuffered,
                                                          argv):
        if argv != ["--help"]:
            argv = argv + ["--config", str(ROOT / "configs" / "p2_power2.json")]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._child(argv, unbuffered, stdout=write)
        finally:
            os.close(write)
        assert proc.returncode == 2
        (line,) = proc.stderr.decode().splitlines()
        assert json.loads(line)["error"] == "IOError"

    @pytest.mark.parametrize("write_through", [False, True])
    def test_main_maps_a_closed_stdout_to_exit_two(self, capsys, monkeypatch,
                                                   write_through):
        read, write = os.pipe()
        os.close(read)
        stdout = io.TextIOWrapper(io.FileIO(write, "w"),
                                  write_through=write_through)
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            code = main(["validate", "--config",
                         str(ROOT / "configs" / "p2_power2.json")])
        finally:
            monkeypatch.undo()
            try:  # the unwritten report is still buffered
                stdout.close()
            except OSError:
                pass
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "IOError"

    def test_entry_flushes_then_exits_with_the_code_of_main(self, monkeypatch):
        from dyndeg import cli

        flushed = []

        class Stream(io.StringIO):
            def flush(self):
                flushed.append(self)

        def fake_exit(code):
            raise _Exit(code, list(flushed))

        out, err = Stream(), Stream()
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(sys, "stderr", err)
        monkeypatch.setattr(cli, "main", lambda: 3)
        monkeypatch.setattr(os, "_exit", fake_exit)
        with pytest.raises(_Exit) as exc:
            cli.entry()
        assert exc.value.args == (3, [out, err])

    def test_an_exception_from_main_escapes_the_entry(self, monkeypatch):
        from dyndeg import cli

        def broken():
            raise RuntimeError("escaped")

        monkeypatch.setattr(cli, "main", broken)
        monkeypatch.setattr(os, "_exit", lambda code: pytest.fail("os._exit"))
        with pytest.raises(RuntimeError, match="escaped"):
            cli.entry()

    def test_the_console_script_is_the_function_the_module_runs(
        self, monkeypatch
    ):
        import importlib
        import runpy

        tomllib = pytest.importorskip("tomllib")
        from dyndeg import cli

        with open(ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["dyndeg"]
        module, _, name = target.partition(":")
        assert getattr(importlib.import_module(module), name) is cli.entry
        calls = []
        monkeypatch.setattr(cli, "entry", lambda: calls.append("entry"))
        runpy.run_module("dyndeg", run_name="__main__")
        assert calls == ["entry"]


class TestErrorPayloads:
    # what each error writes to stderr, and the data it keeps
    @pytest.mark.parametrize("exc, kept, expected", [
        (AssociativityViolation(((2, 0), (2, 0), (0, 0))),
         {"triple": ((2, 0), (2, 0), (0, 0))},
         {"triple": [[2, 0], [2, 0], [0, 0]], "message":
          "associativity fails on basis triple ((2, 0), (2, 0), (0, 0))"}),
        (SignRuleViolation(((2, 0), (2, 1))), {"pair": ((2, 0), (2, 1))},
         {"pair": [[2, 0], [2, 1]],
          "message": "sign rule fails on basis pair ((2, 0), (2, 1))"}),
        (UnitViolation((2, 0)), {"basis": (2, 0)},
         {"basis": [2, 0], "message": "unit law fails on basis vector (2, 0)"}),
        (UnitViolation(message="unit has zero coordinates"), {"basis": None},
         {"message": "unit has zero coordinates"}),
        (MultiplicativityViolation(((2, 0), (4, 0))), {"pair": ((2, 0), (4, 0))},
         {"pair": [[2, 0], [4, 0]], "message":
          "pullback is not multiplicative on basis pair ((2, 0), (4, 0))"}),
        (SpectralNonconvergence(1.5, Fraction(1, 4)),
         {"estimate": 1.5, "error_bound": Fraction(1, 4)},
         {"message": "spectral radius bracket stalled at 1.5 \u00b1 1/4"}),
        (FloatOverflow([(3, "norm")]), {"entries": [(3, "norm")]},
         {"message": "non-finite float entries at positions [(3, 'norm')]"}),
        (ShapeMismatch("ragged matrix rows"), {},
         {"message": "ragged matrix rows"}),
        (SchemaError([("/M", "missing"), ("/tol", "bad")]),
         {"violations": [("/M", "missing"), ("/tol", "bad")]},
         {"violations": [{"path": "/M", "message": "missing"},
                         {"path": "/tol", "message": "bad"}]}),
    ])
    def test_payload_and_fields(self, exc, kept, expected):
        assert json.loads(json.dumps(exc.payload(), sort_keys=True)) == {
            "error": type(exc).__name__, **expected}
        for name, value in kept.items():
            assert getattr(exc, name) == value
        if "message" in expected:
            assert str(exc) == expected["message"]
        else:
            assert str(exc) == "/M: missing; /tol: bad"

    def test_every_error_is_named_by_its_class_alone(self):
        # no class restates its name: the payload's "error" is the class's
        classes = [cls for cls in vars(errors).values()
                   if isinstance(cls, type) and issubclass(cls, DynDegError)]
        assert {DynDegError, SchemaError, BadMatrixShape} <= set(classes)
        for cls in classes:
            assert "kind" not in vars(cls), cls
            if issubclass(cls, SchemaError):
                exc = cls([("", "placeholder")])
            else:
                exc = cls(*["placeholder"] * max(1, len(cls.fields)))
            assert exc.payload()["error"] == cls.__name__


class TestExitCodes:
    def test_analysis_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # model and map build fine; force the analysis itself to fail
        from dyndeg import gromov
        from dyndeg.errors import SpectralNonconvergence

        def boom(model, pull, config, closure):
            raise SpectralNonconvergence(1.0, 0.5)

        monkeypatch.setattr(gromov, "chain_section", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SpectralNonconvergence"


    def test_the_failing_step_decides_the_exit_code_with_one_build(
        self, tmp_path, capsys, monkeypatch
    ):
        from dyndeg import cli as cli_module
        from dyndeg import gromov
        from dyndeg.errors import SpectralNonconvergence

        builds = []
        original = cli_module.build_model_and_map

        def counting_build(config):
            builds.append(config)
            return original(config)

        def boom(model, pull, config, closure):
            raise SpectralNonconvergence(1.0, 0.5)

        monkeypatch.setattr(cli_module, "build_model_and_map", counting_build)
        monkeypatch.setattr(gromov, "chain_section", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path)]) == 3
        assert len(builds) == 1
        # a map that fails validation at build time is exit 2, every command
        path.write_text(json.dumps(p2_config(
            map={"kind": "matrices", "blocks": [[[1]], [], [[2]], [], [[5]]]}
        )))
        capsys.readouterr()
        for command in ("report", "delta", "validate"):
            builds.clear()
            assert main([command, "--config", str(path)]) == 2, command
            assert len(builds) == 1, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            err = json.loads(captured.err)
            assert err["error"] == "MultiplicativityViolation", command

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

    def test_a_linear_root_short_of_tol_exits_three(self, tmp_path, capsys):
        # x - 1/3: the float 1/3 is 2^-52 relative off, past a tol of 1e-17
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "model": {"kind": "projective", "n": 1},
            "map": {"kind": "matrices", "blocks": [[[1]], [], [["1/3"]]]},
            "analyses": ["chain"],
            "tol": 1e-17,
        }))
        assert main(["report", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "SpectralNonconvergence"

    def test_an_exact_abelian_chain_meets_a_tol_below_the_floor(
        self, tmp_path, capsys
    ):
        # the identity on E: every mu_k is a product of the modulus 1 of the
        # one root of x - 1, read exactly, not certified with a 1e-15 floor
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "model": {"kind": "abelian", "g": 1},
            "map": {"kind": "identity"},
            "analyses": ["chain"],
            "tol": 1e-16,
        }))
        assert main(["report", "--config", str(path)]) == 0
        chain = json.loads(capsys.readouterr().out)["results"]["chain"]
        assert chain["mu_by_degree"] == [1.0, 1.0, 1.0]
        assert chain["lambda_gr"] == chain["max_mu"] == 1.0

    def test_a_radius_past_the_float_range_exits_three_at_once(
        self, tmp_path, capsys
    ):
        # roots near 1e200 are floats, their products are not: six
        # precision rounds ran before a bracket "stalled at inf"
        import time

        big = "1e200"
        path = tmp_path / "c.json"
        path.write_text(json.dumps({
            "model": {"kind": "abelian", "g": 2},
            "map": {"kind": "exterior", "matrix": [
                [big, 1, 0, 0], [1, big, 0, 0],
                [0, 0, "3e200", 1],
                [0, 0, 1, "2e200"]]},
            "analyses": ["chain"],
        }))
        start = time.perf_counter()
        assert main(["report", "--config", str(path)]) == 3
        assert time.perf_counter() - start < 0.2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "SpectralNonconvergence",
            "message": "spectral radius past the float range",
        }

    @pytest.mark.parametrize("model, map_spec", [
        ({"kind": "projective", "n": 1}, {"kind": "power", "d": 10**400}),
        ({"kind": "multiprojective", "n": [1, 1]},
         {"kind": "product", "d": [10**400, 1], "perm": [0, 1]}),
        ({"kind": "abelian", "g": 1},
         {"kind": "exterior", "matrix": [[10**400, 0], [0, 1]]}),
    ])
    def test_a_growth_rate_past_the_float_range_exits_three(
        self, tmp_path, capsys, model, map_spec
    ):
        # |delta_j(f^m)|^(1/m) overflowed math.exp with a traceback
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"model": model, "map": map_spec,
                                    "analyses": ["delta-table"], "M": 2}))
        for command in ("report", "delta"):
            assert main([command, "--config", str(path)]) == 3, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            (line,) = captured.err.splitlines()
            assert json.loads(line) == {
                "error": "FloatOverflow",
                "message": "non-finite float entries at positions "
                           "[(1, 'root')]",
            }, command


class TestReportSections:
    def test_each_section_has_exactly_its_keys(self):
        # a field added to a record must fail here, not grow the report;
        # ChainReport.mu_error and IntersectionBoundCheck.constant stay out
        results = run_config(p2_config(analyses=list(cli.ANALYSES)))
        assert set(results) == {"model_summary", *cli.ANALYSES}
        assert set(results["delta-table"]) == {
            "m_max", "deg_x", "rows", "growth_rates", "max_rate", "window"}
        assert set(results["gromov"]) == {
            "dimension", "dims_by_degree", "certificates",
            "certificates_verified", "sweeps", "lambda_gr", "lambda_gr_error"}
        assert set(results["chain"]) == {
            "lambda_gr", "lambda_gr_error", "lambda_by_codim", "mu_by_degree",
            "max_lambda", "max_mu", "chain_holds", "equality_holds",
            "equality_asserted", "realizability", "scope_note", "tol",
            "gromov_dims", "chi_note"}
        (per_m, *_) = results["graph-class"]["per_m"]
        assert set(results["graph-class"]) == {"per_m"}
        assert set(per_m) == {"m", "coefficients", "labels", "segre_degree",
                              "segre_expected", "segre_matches"}
        bounds = results["bounds"]
        assert set(bounds) == {"constant", "checks", "violations",
                               "moving_ledger", "ledger_within_constant"}
        assert bounds["checks"] and all(
            set(check) == {"v", "w", "pairing", "deg_v", "deg_w", "ok"}
            for check in bounds["checks"])
        assert set(bounds["moving_ledger"]) == {
            "k", "v_degrees", "e_degrees", "bound"}

    def test_a_matrices_map_on_p2_is_segre_cross_checked(self):
        # H^2 of P^2 is Q h, so the hand-written x -> 3x is checked against
        # (1 + 3^m)^2 as a power map is
        results = run_config(p2_config(
            map={"kind": "matrices", "blocks": [[[1]], [], [[3]], [], [[9]]]},
            analyses=["graph-class"], M=4))
        per_m = results["graph-class"]["per_m"]
        assert [entry["m"] for entry in per_m] == [1, 2, 3, 4]
        for entry in per_m:
            assert entry["segre_expected"] == (1 + 3 ** entry["m"]) ** 2
            assert entry["segre_matches"] is True

    def test_every_analysis_has_a_section_writer(self):
        assert tuple(cli._SECTIONS) == cli.ANALYSES
        for analysis in cli.ANALYSES:
            module, shared = cli._SECTIONS[analysis]
            writer = cli._section_writer(analysis)
            assert callable(writer), analysis
            assert writer.__module__ == f"dyndeg.{module}", analysis
            assert shared in ("table", "closure", None), analysis


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
        results = run_config(p2_config(
            analyses=["delta-table", "graph-class", "bounds"], M=6
        ))
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
        run_config(p2_config())


class TestOneClosure:
    def test_gromov_and_chain_share_one_closure(self, monkeypatch):
        from dyndeg import gromov

        calls = []
        original = gromov.gromov_closure

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gromov, "gromov_closure", counted)
        results = run_config(p2_config(
            analyses=["gromov", "chain", "delta-table"]
        ))
        assert len(calls) == 1
        assert results["gromov"]["lambda_gr"] == results["chain"]["lambda_gr"]
        assert results["gromov"]["certificates_verified"] is True

    def test_berkowitz_runs_once_per_block(self, monkeypatch):
        # one characteristic polynomial per closure block (shared by gromov
        # and chain) plus one per nonzero graded block (chain's mu)
        from dyndeg import gromov, spectral

        closures, polys = [], []
        build, berkowitz = gromov.gromov_closure, spectral._berkowitz

        def counted_closure(*args, **kwargs):
            closures.append(build(*args, **kwargs))
            return closures[-1]

        def counted_poly(a):
            polys.append(a)
            return berkowitz(a)

        monkeypatch.setattr(gromov, "gromov_closure", counted_closure)
        monkeypatch.setattr(spectral, "_berkowitz", counted_poly)
        cfg = {
            "model": {"kind": "multiprojective", "n": [1, 1, 1]},
            "map": {"kind": "product", "d": [2, 3, 1], "perm": [1, 2, 0]},
            "analyses": ["gromov", "chain"],
        }
        results = run_config(cfg)
        (closure,) = closures
        dims = closure.algebra.dims
        assert len(polys) == (
            len(closure.blocks) + sum(1 for d in dims if d)
        )
        assert results["gromov"]["lambda_gr"] == results["chain"]["lambda_gr"]

    def test_no_closure_without_gromov_or_chain(self, monkeypatch):
        from dyndeg import gromov

        def forbidden(*args):
            raise AssertionError("closure built for a report without gromov/chain")

        monkeypatch.setattr(gromov, "gromov_closure", forbidden)
        run_config(p2_config(analyses=["delta-table"]))


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


ABELIAN_G5_A = [[2, 1, 0, 0, 0], [1, 1, 1, 0, 0], [0, 1, 3, 1, 0],
                [1, 0, 0, 2, 1], [0, 0, 1, 0, 1]]
ABELIAN_G5_SHA256 = (
    "70916c06a67184a154eb819317e9fda39167a146a9f433d34b8011caf19ae79e"
)


class TestScaleLadder:
    @staticmethod
    def _report_sha256(a, tmp_path, capsys):
        """sha256 of the ``gromov`` + ``chain`` report on the abelian
        variety of dimension g = len(a), with the map A (x) I_2."""
        cfg = {
            "model": {"kind": "abelian", "g": len(a)},
            "map": {"kind": "exterior", "matrix": times_i2(a)},
            "analyses": ["gromov", "chain"],
        }
        path = tmp_path / f"abelian_g{len(a)}.json"
        path.write_text(json.dumps(cfg))
        assert main(["report", "--config", str(path)]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()

    def test_abelian_g4_report_bytes_are_pinned(self, tmp_path, capsys):
        assert self._report_sha256(ABELIAN_G4_A, tmp_path, capsys) == (
            ABELIAN_G4_SHA256)

    @pytest.mark.slow
    def test_abelian_g5_report_bytes_are_pinned(self, tmp_path, capsys):
        # about 4 s on a 2-core VM; run with ``pytest -m slow``
        assert self._report_sha256(ABELIAN_G5_A, tmp_path, capsys) == (
            ABELIAN_G5_SHA256)

    @pytest.mark.slow
    def test_abelian_g5_algebra_and_map_revalidate(self):
        # the full checks that the tensor builders skip, at g = 5
        from dyndeg.core import _validate
        from dyndeg.endo import validate_pullback
        from dyndeg.abelian import abelian_variety
        from dyndeg.models import exterior_algebra

        _validate(exterior_algebra(5))
        _, pull = abelian_variety(5, times_i2(ABELIAN_G5_A))
        assert fraction_blocks(validate_pullback(pull.algebra, [
            list(map(list, b)) for b in fraction_blocks(pull)])) == fraction_blocks(pull)

    @staticmethod
    def _generic(g):
        """A seeded random 2g x 2g integer matrix, entries in [-3, 3], that
        is not of the form A (x) I_2, and the best of three times of the
        mu route on it."""
        import random
        import time

        from dyndeg.spectral import exterior_radii

        rng = random.Random(f"scale-ladder:generic:{g}")
        n = 2 * g
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert any(m[i][j] for i in range(n) for j in range(n)
                   if i % 2 != j % 2)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            radii = exterior_radii(1, m)
            times.append(time.perf_counter() - start)
        return m, radii, min(times)

    def test_a_generic_g4_map_gets_every_mu_at_once(self):
        from dyndeg.abelian import exterior_pullback
        from dyndeg.models import exterior_algebra
        from dyndeg.spectral import spectral_radius

        m, radii, seconds = self._generic(4)
        assert seconds < 0.1
        # against the certifier on the blocks of the validated map
        f = exterior_pullback(exterior_algebra(4), m)
        for k in (1, 2, 7, 8):
            rho, err = radii[k]
            want, werr = spectral_radius(fraction_block(f, k))
            assert abs(rho - want) <= err + werr, k
            assert format(rho, ".12g") == format(want, ".12g"), k

    def test_a_generic_g5_map_gets_every_mu_at_once(self):
        # the exterior-power polynomials of such a map took over 20 minutes
        from dyndeg.spectral import spectral_radius

        m, radii, seconds = self._generic(5)
        assert seconds < 0.1
        assert len(radii) == 11 and radii[0] == (1.0, 0.0)
        rho, err = radii[1]
        want, werr = spectral_radius(m)
        assert abs(rho - want) <= err + werr
        assert all(err <= 1e-9 * max(1.0, rho) for rho, err in radii)


class TestComputeWorkloadBytes:
    """Every seed-0 benchmark invocation, run in-process: each pinned one
    against the sha256 the benchmark checks (``perfbench/golden.json``),
    each malformed one against the exit-2 contract."""

    @pytest.mark.parametrize("name, pinned, malformed", [
        ("cli-small", 24, 12), ("exact-core", 6, 0), ("iterate-tables", 4, 0)])
    def test_every_invocation_matches_the_benchmark(
        self, tmp_path, capsys, monkeypatch, name, pinned, malformed
    ):
        workload, golden = perfbench_workload(monkeypatch, name)
        paths = workload.write(tmp_path)
        bad = [(c, n) for c, n in workload.invocations if n in workload.malformed]
        assert (len(workload.invocations) - len(bad), len(bad)) == (
            pinned, malformed)
        assert len(golden) == pinned
        for command, config in workload.invocations:
            code = main([command, "--config", str(paths[config])])
            out, err = capsys.readouterr()
            key = f"{command} {config}"
            if (command, config) in bad:
                assert (code, out) == (2, ""), key
                assert len(err.splitlines()) == 1, key
                assert isinstance(json.loads(err), dict), key
            else:
                assert code == 0, key
                assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
                    golden[key]), key


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
            "dyndeg.projective", "dyndeg.lattice", "dyndeg.degrees",
            "dyndeg.gromov", "dyndeg.estimators",
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
        assert {"dyndeg.projective", "dyndeg.degrees"} <= modules
        assert not modules & {"dyndeg.estimators", "dyndeg.abelian",
                              "dyndeg.lattice"}

    def test_models_defines_exterior_algebra_and_forwards_no_builder(self):
        # perfbench's tracer clears ``models.exterior_algebra``'s cache
        script = textwrap.dedent("""
            from dyndeg import models
            assert models.exterior_algebra.__module__ == "dyndeg.models"
            models.exterior_algebra.cache_clear()
            assert models.exterior_algebra(1).dims == (1, 2, 1)
            try:
                from dyndeg.models import pn_power_map
            except ImportError:
                pass
            else:
                raise AssertionError("a builder resolved through models")
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

    def test_a_rejected_config_loads_neither_fractions_nor_decimal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": {"kind": "projective", "n": 0}}))
        code = (
            "import sys; from dyndeg.cli import main; "
            f"assert main(['report', '--config', {str(path)!r}]) == 2; "
            "print(sorted(m for m in ('fractions', 'decimal', 'numbers') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_no_class_is_built_through_typing_namedtuple(self):
        # each field annotation of one would be compiled into a ForwardRef
        # when the module loads
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "dyndeg"
        for path in src.glob("*.py"):
            assert "NamedTuple" not in path.read_text(encoding="utf-8"), path

    def test_a_p2_validate_loads_no_other_kind(self, tmp_path):
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(p2_config()))
        modules, _ = self._after_main(
            ["validate", "--config", str(path), "--out", str(tmp_path / "out")]
        )
        assert "dyndeg.projective" in modules
        assert not modules & {"dyndeg.custom", "dyndeg.abelian", "dyndeg.lattice"}

    def test_the_package_root_binds_only_its_constants(self):
        # besides its submodules, the root holds the version and the sign
        # rules that ``cli`` reads; each other name has one import path
        script = textwrap.dedent("""
            import sys, types, dyndeg

            def public():
                return {name for name, value in vars(dyndeg).items()
                        if not name.startswith("_")
                        and not isinstance(value, types.ModuleType)}

            loaded = [m for m in sys.modules if m.split(".")[0] == "dyndeg"]
            assert loaded == ["dyndeg"], loaded
            assert public() == {"COMMUTATIVE", "SUPER_COMMUTATIVE"}
            assert dyndeg.__version__
            try:
                from dyndeg import projective_space
            except ImportError:
                pass
            else:
                raise AssertionError("a builder resolved through the root")
            from dyndeg import cli, COMMUTATIVE
            assert cli.COMMUTATIVE is COMMUTATIVE == "commutative"
            assert public() == {"COMMUTATIVE", "SUPER_COMMUTATIVE"}
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

    def test_report_serialization_round_trips(self, tmp_path):
        path, out = tmp_path / "c.json", tmp_path / "report.json"
        path.write_text(json.dumps(p2_config(analyses=["chain", "delta-table"])))
        assert main(["report", "--config", str(path), "--out", str(out)]) == 0
        text = out.read_text()
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

        wl, _ = perfbench_workload(monkeypatch, workload)
        paths = wl.write(tmp_path)
        monkeypatch.setattr(cli, "dumps_canonical", checked)
        successes = 0
        for command, name in wl.invocations:
            successes += main([command, "--config", str(paths[name])]) == 0
        capsys.readouterr()
        assert successes and len(written) == successes

    def test_timing_only_with_flag(self, tmp_path):
        path, out = tmp_path / "c.json", tmp_path / "report.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path), "--out", str(out)]) == 0
        assert "timing" not in json.loads(out.read_text())
