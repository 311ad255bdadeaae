"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_generation_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 7, ROOT)
        b = workloads.generate(name, 7, ROOT)
        assert a.invocations == b.invocations
        assert [a.config_text(c) for c in a.configs] == [
            b.config_text(c) for c in b.configs
        ]
        other = workloads.generate(name, 8, ROOT)
        assert [a.config_text(c) for c in a.configs] != [
            other.config_text(c) for c in other.configs
        ]


def _replay_counts(wl, paths):
    t = tracer.Tracer()
    checker = run.Checker(wl)
    for index, (command, config) in enumerate(wl.invocations):
        _, *outcome = run.replay_one(command, paths[config], t, index)
        checker(command, config, *outcome)
    return tracer.layer_totals(t.spans)[2], checker


def test_work_counts_repeat_exactly(tmp_path):
    wl = workloads.generate("cli-small", run.DEFAULT_SEED, ROOT)
    paths = wl.write(tmp_path)
    first, checker = _replay_counts(wl, paths)
    second, _ = _replay_counts(wl, paths)
    assert first == second
    assert first["core.dim"] > 0 and first["gromov.closure_dim"] > 0
    assert checker.summary()["correct"]
    assert {c for _, c, _ in checker.failures} <= workloads.KNOWN_DEFECTS


def test_tracer_restores_the_library():
    original = tracer.cli.run
    with tracer.Tracer():
        assert tracer.cli.run is not original
    assert tracer.cli.run is original


def test_graded_counts_match_the_checks():
    # P^1 x P^1: degrees 2 (dim 2) and 4 (dim 1); pairs 2*2, triples none
    assert tracer._graded_counts((1, 0, 2, 0, 1), 4) == (4, 0)
    # P^2: h, h^2 in degrees 2, 4; pairs (2,2); triples (2,2,2)
    assert tracer._graded_counts((1, 0, 1, 0, 1), 4) == (1, 0)
    assert tracer._graded_counts((1, 0, 1, 0, 1, 0, 1), 6) == (3, 1)


def test_checks_catch_a_broken_cross_check():
    results = {
        "delta-table": {"rows": [[1, 2], [1, 4]]},
        "graph-class": {"per_m": [
            {"m": 1, "coefficients": [1, 1], "segre_matches": None},
            {"m": 2, "coefficients": [2, 4], "segre_matches": None},
        ]},
    }
    assert checks.invariant_failure(results, ["delta-table", "graph-class"])
    results["graph-class"]["per_m"][1]["coefficients"] = [4, 2]
    assert checks.invariant_failure(results, ["delta-table", "graph-class"]) is None


def test_malformed_configs_must_exit_2_with_json():
    assert checks.check("report", True, 2, b"", b'{"error": "x"}\n') is None
    assert checks.check("report", True, 1, b"", b"Traceback") is not None
    assert checks.check("report", True, 2, b"", b"not json") is not None


def test_tail_has_ten_samples_beyond_or_is_the_pass_maximum():
    assert run.tail([[1.0, 5.0], [2.0, 3.0]]) == (4.0, 100.0, 0)
    value, percentile, beyond = run.tail([[float(i) for i in range(40)]])
    assert (value, percentile, beyond) == (29.0, 75.0, 10)


def test_golden_hashes_cover_every_default_seed_report():
    golden = json.loads(run.GOLDEN.read_text("utf-8"))
    for name in workloads.WORKLOADS:
        wl = workloads.generate(name, run.DEFAULT_SEED, ROOT)
        expected = {f"{c} {cfg}" for c, cfg in wl.invocations
                    if cfg not in wl.malformed}
        assert set(golden[name]) == expected
