import json
import subprocess
import sys

import pytest

from dyndeg.cli import (
    dumps_canonical,
    main,
    parse_config,
    run,
    serialize_config,
)
from dyndeg.errors import SchemaError


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
        assert parse_config(serialize_config(config)) == config


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
        from dyndeg import cli as cli_module
        from dyndeg.errors import SpectralNonconvergence

        def boom(model, pull, config, closure):
            raise SpectralNonconvergence(1.0, 0.5)

        monkeypatch.setitem(cli_module._ANALYSIS_RUNNERS, "chain", boom)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(p2_config()))
        assert main(["report", "--config", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "SpectralNonconvergence"


    def test_stage_decides_the_exit_code_without_a_rebuild(
        self, tmp_path, capsys, monkeypatch
    ):
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
        monkeypatch.setitem(cli_module._ANALYSIS_RUNNERS, "chain", boom)
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


class TestOneDeltaTable:
    def test_report_builds_one_table_and_no_map_powers(self, monkeypatch):
        from dyndeg import cli as cli_module, degrees, endo

        calls = {"delta_table": 0, "power_map": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        table_fn = counted("delta_table", degrees.delta_table)
        power_fn = counted("power_map", endo.power_map)
        for module in (cli_module, degrees):
            monkeypatch.setattr(module, "delta_table", table_fn)
        for module in (endo, degrees):
            monkeypatch.setattr(module, "power_map", power_fn)
        config = parse_config(json.dumps(p2_config(
            analyses=["delta-table", "graph-class", "bounds"], M=6
        )))
        results = run(config).results
        assert calls == {"delta_table": 1, "power_map": 0}
        rows = results["delta-table"]["rows"]
        for entry in results["graph-class"]["per_m"]:
            column = [row[entry["m"] - 1] for row in rows]
            assert entry["coefficients"] == column[::-1]
            assert entry["segre_matches"] is True

    def test_no_table_without_a_table_analysis(self, monkeypatch):
        from dyndeg import cli as cli_module

        def forbidden(*args):
            raise AssertionError("delta_table built for a chain-only report")

        monkeypatch.setattr(cli_module, "delta_table", forbidden)
        run(parse_config(json.dumps(p2_config())))


class TestOneClosure:
    def test_gromov_and_chain_share_one_closure(self, monkeypatch):
        from dyndeg import cli as cli_module, gromov

        calls = []
        original = gromov.gromov_closure

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for module in (cli_module, gromov):
            monkeypatch.setattr(module, "gromov_closure", counted)
        results = run(parse_config(json.dumps(p2_config(
            analyses=["gromov", "chain", "delta-table"]
        )))).results
        assert len(calls) == 1
        assert results["gromov"]["lambda_gr"] == results["chain"]["lambda_gr"]
        assert results["gromov"]["certificates_verified"] is True

    def test_berkowitz_runs_once_per_block(self, monkeypatch):
        # one characteristic polynomial per closure block (shared by gromov
        # and chain) plus one per nonzero graded block (chain's mu)
        from dyndeg import cli as cli_module, gromov, spectral

        closures, polys = [], []
        build, berkowitz = gromov.gromov_closure, spectral.char_poly

        def counted_closure(*args, **kwargs):
            closures.append(build(*args, **kwargs))
            return closures[-1]

        def counted_poly(matrix):
            polys.append(matrix)
            return berkowitz(matrix)

        monkeypatch.setattr(cli_module, "gromov_closure", counted_closure)
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
        from dyndeg import cli as cli_module

        def forbidden(*args):
            raise AssertionError("closure built for a report without gromov/chain")

        monkeypatch.setattr(cli_module, "gromov_closure", forbidden)
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


class TestComputeWorkloadBytes:
    """The seed-0 ``exact-core`` benchmark reports, run in-process, against
    the sha256 values the benchmark checks (``perfbench/golden.json``)."""

    @staticmethod
    def _workloads(monkeypatch):
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
        return module.generate("exact-core", 0, root), golden["exact-core"]

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
