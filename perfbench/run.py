#!/usr/bin/env python3
"""Benchmark for the ``dyndeg`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is run from ``src/`` of the
checkout that holds this file.  Workloads are described in
``perfbench/workloads.py`` and ``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics, with every time in reference
seconds (see ``REFERENCE_S``).  The load model is a closed
loop with one client: one ``python3 -m dyndeg <command> --config <file>``
child at a time, each started only after the previous one has exited.  A
pass runs every invocation of the workload once; a run measures whole
passes, as many as fit in ``--seconds`` at the seed commit (at least one),
so the work measured is the same on every commit.  Before the timed passes,
set-up generates the configs and runs each distinct config once as a
warm-up; that time is ``setup_s`` and is never part of ``wall_s``.

``--trace 1`` gives the per-layer metrics from a separate in-process replay
of the same invocations with spans (``perfbench/tracer.py``), together with
its coverage of the untraced CLI wall time and the tracing overhead.

Every output is checked (``perfbench/checks.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 3
STARTUP_SAMPLES = 3
# a traced pass runs each invocation three times (a fresh CLI process and
# two in-process replays), so a traced run makes a third as many passes
TRACED_PASS_COST = 3
CHILD_TIMEOUT_S = 120

# Seconds one pass takes at the seed commit on a 2-core Intel Xeon VM; a run
# measures round(--seconds / this) passes, so both commits do the same work.
NOMINAL_PASS_S = {
    "cli-small": 9.5,
    "exact-core": 7.0,
    "iterate-tables": 8.7,
}

# Every time metric is in reference seconds: a time t measured for a child is
# reported as t * REFERENCE_S / c, with c the time of one calibrate() round
# taken right after it and REFERENCE_S a constant of the order of c on that
# VM.  The VM's speed drifts by 20-40 % over tens of seconds, and this takes
# the drift out of the figures but not the program's own cost (README.md).
REFERENCE_S = 0.07
# calibration after each child takes about this share of a nominal pass
CALIBRATION_SHARE = 0.1
_SQUARE = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i + j) % 3)
            for j in range(12)] for i in range(12)]


@dataclass
class Outcome:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], scratch: Path) -> Outcome:
    """Run one child to completion; time it from spawn to exit."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   proc.returncode, out_path.read_bytes(), err_path.read_bytes())


def calibrate(rounds: int) -> float:
    """Seconds per round of a fixed loop of Fraction work, run in this
    process: how fast the machine runs the program's kind of work right now.
    A round is scalar sums and four products of 12 x 12 Fraction matrices."""
    start = time.perf_counter()
    for _ in range(rounds):
        total, seen = Fraction(0), {}
        for i in range(1, 6000):
            total += Fraction(i % 97, i)
            seen[i % 512] = total.numerator % 1000
        m = _SQUARE
        for _ in range(4):
            m = [[sum(m[i][k] * _SQUARE[k][j] for k in range(12))
                  for j in range(12)] for i in range(12)]
    return (time.perf_counter() - start) / rounds


def calibration_rounds(wl: workloads.Workload) -> int:
    """Rounds per child, fixed per workload so both commits calibrate alike."""
    per_child = NOMINAL_PASS_S[wl.name] / len(wl.invocations)
    return max(1, round(CALIBRATION_SHARE * per_child / REFERENCE_S))


def spawn_scaled(argv: list[str], scratch: Path,
                 rounds: int) -> tuple[Outcome, float]:
    """Run one child, then calibrate; returns the outcome and the factor
    ``REFERENCE_S / calibration`` that turns its times into reference
    seconds."""
    outcome = spawn(argv, scratch)
    return outcome, REFERENCE_S / calibrate(rounds)


def cli_argv(command: str, config: Path) -> list[str]:
    return [sys.executable, "-m", "dyndeg", command, "--config", str(config)]


def tail(passes: list[list[float]]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)`` over per-invocation times.

    The highest percentile at or above the median that has at least ten
    samples beyond it.  With fewer than twenty samples no such percentile
    exists; the tail is then the median over passes of each pass's slowest
    invocation (percentile 100, none beyond).
    """
    ordered = sorted(t for walls in passes for t in walls)
    n = len(ordered)
    if n < 20:
        return statistics.median(max(walls) for walls in passes), 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def golden_hashes(workload: str, seed: int) -> dict:
    """sha256 of each report at the seed commit, for the default seed."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(GOLDEN.read_text("utf-8"))[workload]


class Checker:
    """Checks invocations and tallies the attempted and the failed."""

    def __init__(self, wl: workloads.Workload):
        self.wl = wl
        self.golden = golden_hashes(wl.name, wl.seed)
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []

    def __call__(self, command, config, code, stdout, stderr) -> None:
        self.attempted += 1
        reason = checks.check(
            command, config in self.wl.malformed, code, stdout, stderr,
            self.golden.get(f"{command} {config}"),
        )
        if reason is not None:
            self.failures.append((command, config, reason))

    def summary(self) -> dict:
        """``correct`` is false when an invocation outside the known defects
        failed; ``failed`` counts every failure."""
        unexpected = [f for f in self.failures
                      if f[1] not in workloads.KNOWN_DEFECTS]
        return {"correct": not unexpected, "attempted": self.attempted,
                "failed": len(self.failures)}


def set_up(name: str, seed: int, work: Path):
    """Generate and write the configs; the median of several repeats."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl = workloads.generate(name, seed, ROOT)
        paths = wl.write(work / "configs")
        times.append(time.perf_counter() - start)
    return wl, paths, statistics.median(times)


def timed_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    wl, paths, generate_s = set_up(name, seed, work)
    rounds = calibration_rounds(wl)
    warm_s = warm_ref_s = 0.0
    factors = []
    for config, path in paths.items():
        command = next(c for c, cfg in wl.invocations if cfg == config)
        o, factor = spawn_scaled(cli_argv(command, path), work, rounds)
        warm_s += o.wall
        warm_ref_s += o.wall * factor
        factors.append(factor)
    generate_ref_s = generate_s * statistics.median(factors)

    checker = Checker(wl)
    passes, pass_cpus, rss = [], [], 0.0
    scaled, scaled_cpus = [], []
    for _ in range(passes_for(name, seconds)):
        walls, cpu, walls_ref, cpu_ref = [], [], [], []
        for command, config in wl.invocations:
            o, factor = spawn_scaled(cli_argv(command, paths[config]), work,
                                     rounds)
            checker(command, config, o.code, o.stdout, o.stderr)
            walls.append(o.wall)
            cpu.append(o.cpu)
            walls_ref.append(o.wall * factor)
            cpu_ref.append(o.cpu * factor)
            factors.append(factor)
            rss = max(rss, o.rss_mb)
        passes.append(walls)
        pass_cpus.append(sum(cpu))
        scaled.append(walls_ref)
        scaled_cpus.append(sum(cpu_ref))

    pass_walls = [sum(walls) for walls in passes]
    tail_s, tail_pct, beyond = tail(scaled)
    values = {
        "wall_s": statistics.median(sum(walls) for walls in scaled),
        "cpu_s": statistics.median(scaled_cpus),
        "report_p50_s": statistics.median(t for walls in scaled for t in walls),
        "report_tail_s": tail_s,
        "setup_s": generate_ref_s + warm_ref_s,
        "peak_rss_mb": rss,
    }
    summary = checker.summary()
    detail = {
        "passes": len(pass_walls),
        "measured": {
            "wall_s": statistics.median(pass_walls),
            "cpu_s": statistics.median(pass_cpus),
            "report_p50_s": statistics.median(
                t for walls in passes for t in walls),
            "report_tail_s": tail(passes)[0],
            "setup_s": generate_s + warm_s,
        },
        "speed_factor_median": statistics.median(factors),
        "speed_factor_range": [min(factors), max(factors)],
        "pass_walls_s": pass_walls,
        "invocation_walls_s": {
            " ".join(invocation): [walls[i] for walls in passes]
            for i, invocation in enumerate(wl.invocations)
        },
        "invocations_per_pass": len(wl.invocations),
        "report_tail_percentile": tail_pct,
        "report_tail_samples": len(passes) * len(wl.invocations),
        "report_tail_beyond": beyond,
        "setup_generate_s": generate_s,
        "setup_warmup_s": warm_s,
        "failed_frac": summary["failed"] / summary["attempted"],
        "failures": checker.failures,
    }
    return {**summary, "values": values, "detail": detail}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import dyndeg.cli; "
    "print(time.perf_counter() - t)"
)

# the layer sums whose share the dominant-layer predictions name
PREDICTED_SUMS = {
    "core.build_algebra + endo.validate_pullback":
        ("core.build_algebra", "endo.validate_pullback"),
    "degrees.graph_class + degrees.segre":
        ("degrees.graph_class", "degrees.segre"),
}


def self_time_shares(own: dict) -> dict:
    """Self seconds per span name, with each predicted sum as one entry and
    ``spectral.spectral_radius`` named for what its self time is."""
    shares = dict(own)
    for label, parts in PREDICTED_SUMS.items():
        shares[label] = sum(shares.pop(part, 0.0) for part in parts)
    shares["spectral.root_certify"] = shares.pop("spectral.spectral_radius", 0.0)
    return shares


def startup_probes(work: Path) -> tuple[list[float], list[float]]:
    """Wall times of a bare interpreter, and of ``import dyndeg.cli``
    measured inside a fresh interpreter."""
    bare, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        bare.append(spawn([sys.executable, "-c", "pass"], work).wall)
        o = spawn([sys.executable, "-c", IMPORT_PROBE], work)
        if o.code != 0:
            raise RuntimeError(o.stderr.decode("utf-8", "replace"))
        imports.append(float(o.stdout))
    return bare, imports


def replay_one(command: str, path: Path, tracer=None, index: int = 0):
    """Replay one invocation in this process, inside a ``cli.main`` span when
    ``tracer`` is given; returns ``(seconds, code, stdout, stderr)``."""
    import tracer as tracing

    if tracer is None:
        start = time.perf_counter()
        code, out, err = tracing.replay(command, str(path))
        return time.perf_counter() - start, code, out, err
    tracer.invocation = index
    with tracer, tracer.span("cli.main") as span:
        code, out, err = tracing.replay(command, str(path))
    return span.seconds, code, out, err


def traced_run(name: str, seed: int, seconds: float, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import tracer as tracing

    wl, paths, _ = set_up(name, seed, work)
    checker = Checker(wl)
    bare, imports = [], []
    cli_walls = [[] for _ in wl.invocations]
    untraced, traced, tracers = [], [], []
    # each invocation runs as a fresh process, then is replayed untraced and
    # traced right after it, so that coverage and overhead compare times
    # taken close together on a machine whose speed drifts; the replay that
    # goes first alternates between invocations and passes, because it finds
    # colder caches
    for number in range(passes_for(name, seconds / TRACED_PASS_COST)):
        probes = startup_probes(work)
        bare += probes[0]
        imports += probes[1]
        tracer = tracing.Tracer()
        tracers.append(tracer)
        plain = timed = 0.0
        for index, (command, config) in enumerate(wl.invocations):
            o = spawn(cli_argv(command, paths[config]), work)
            checker(command, config, o.code, o.stdout, o.stderr)
            cli_walls[index].append(o.wall)
            for traced_now in ((False, True), (True, False))[(number + index) % 2]:
                took, *outcome = replay_one(
                    command, paths[config], tracer if traced_now else None,
                    index)
                checker(command, config, *outcome)
                if traced_now:
                    timed += took
                else:
                    plain += took
        untraced.append(plain)
        traced.append(timed)
    interpreter_s = statistics.median(bare)
    import_s = statistics.median(imports)
    startup_s = interpreter_s + import_s
    cli_walls = [statistics.median(walls) for walls in cli_walls]

    layers = []
    for tracer in tracers:
        inclusive, own, counts = tracing.layer_totals(tracer.spans)
        own["startup"] = startup_s * len(wl.invocations)
        layers.append((inclusive, own, counts))
    if any(c != layers[0][2] for _, _, c in layers):
        checker.failures.append(("trace", "-", "counts differ between replays"))

    def median_of(index, key):
        return statistics.median(layer[index].get(key, 0.0) for layer in layers)

    mains = [[s.seconds for s in t.spans if s.name == "cli.main"]
             for t in tracers]
    coverage = [
        (startup_s + statistics.median(m[i] for m in mains)) / cli_walls[i]
        for i in range(len(cli_walls))
    ]
    values = {
        "cli.import_s": import_s,
        "cli.startup_share": startup_s / statistics.median(cli_walls),
        "trace.coverage": statistics.median(coverage),
        "trace.overhead":
            statistics.median(t / u for t, u in zip(traced, untraced)) - 1,
    }
    for span in tracing.SPANS:
        values[f"{span}_s"] = median_of(0, span)
    values["spectral.root_certify_s"] = median_of(1, "spectral.spectral_radius")
    values["degrees.bounds_s"] = sum(
        values[f"degrees.{part}_s"]
        for part in ("bound_constant", "check_intersection_bound",
                     "moving_ledger")
    )
    graph_s = values["degrees.graph_class_s"] + values["degrees.segre_s"]
    values["degrees.recompute_ratio"] = (
        graph_s / values["degrees.delta_table_s"]
        if values["degrees.delta_table_s"] else None
    )
    values.update(layers[0][2])

    own = {key: median_of(1, key)
           for key in set().union(*(layer[1] for layer in layers))}
    shares = self_time_shares(own)
    modules = Counter()
    for key, seconds in own.items():
        modules[key.split(".")[0]] += seconds
    by_invocation = {}
    for index, invocation in enumerate(wl.invocations):
        spans = [s for s in tracers[-1].spans if s.invocation == index]
        seconds_by_name = Counter()
        for span in spans:
            seconds_by_name[span.name] += span.seconds
        by_invocation[" ".join(invocation)] = {
            "cli_wall_s": cli_walls[index], **seconds_by_name}
    summary = checker.summary()
    detail = {
        "interpreter_s": interpreter_s,
        "by_invocation_s": by_invocation,
        "replay_passes": len(traced),
        "replay_untraced_s": untraced,
        "replay_traced_s": traced,
        "coverage_min": min(coverage),
        "coverage_max": max(coverage),
        "self_time_s": shares,
        "self_time_by_module_s": dict(modules),
        "predictions": predictions(name, values, shares),
        "failures": checker.failures,
        "failed_frac": summary["failed"] / summary["attempted"],
    }
    spans_out = [
        {"name": s.name, "invocation": " ".join(wl.invocations[s.invocation]),
         "parent": s.parent, "start_ns": s.start_ns, "end_ns": s.end_ns,
         **({"counts": s.counts} if s.counts else {})}
        for s in tracers[-1].spans
    ]
    return {**summary, "values": values, "detail": detail, "spans": spans_out}


def predictions(name: str, values: dict, shares: dict) -> dict:
    """The dominant layers predicted for each workload, checked."""
    largest = max(shares, key=shares.get)
    if name == "cli-small":
        claims = {"cli.startup_share >= 0.5": values["cli.startup_share"] >= 0.5}
    else:
        expected = list(PREDICTED_SUMS)[name == "iterate-tables"]
        claims = {f"{expected} is the largest self-time share":
                  largest == expected}
    if name == "exact-core":
        claims["spectral.root_certify_s > spectral.char_poly_s"] = (
            values["spectral.root_certify_s"] > values["spectral.char_poly_s"])
    return {"claims": claims, "largest_share": largest}


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    src_lines = sum(
        len(p.read_text("utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "src_lines": src_lines}


def show(result: dict, args, env: dict, units: dict) -> None:
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    detail = result["detail"]
    for key, value in result["values"].items():
        unit = units.get(key, "s" if key.endswith("_s") else "ratio")
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<36} {shown:>12} {unit}")
    if not args.trace:
        low, high = detail["speed_factor_range"]
        print(f"  times above are in reference seconds; speed factor median "
              f"{detail['speed_factor_median']:.4g} (range {low:.4g}..{high:.4g})"
              "; as measured:")
        for key, value in detail["measured"].items():
            print(f"    {key:<34} {value:>12.6g} s")
        print(f"  {'failed_frac':<36} {detail['failed_frac']:>12.6g} "
              f"({result['failed']} of {result['attempted']})")
        print(f"  report_tail_s is p{detail['report_tail_percentile']:.1f} of "
              f"{detail['report_tail_samples']} samples "
              f"({detail['report_tail_beyond']} beyond); "
              f"{detail['passes']} pass(es) of "
              f"{detail['invocations_per_pass']} invocations")
    else:
        print(f"  coverage range {detail['coverage_min']:.3f}.."
              f"{detail['coverage_max']:.3f}; failed_frac "
              f"{detail['failed_frac']:.6g}")
        for kind in ("self_time_s", "self_time_by_module_s"):
            ranked = sorted(detail[kind].items(), key=lambda kv: -kv[1])
            print(f"  {kind}: " + ", ".join(
                f"{key} {seconds:.4f}" for key, seconds in ranked if seconds))
        p = detail["predictions"]
        for claim, holds in p["claims"].items():
            print(f"  prediction: {claim}: {'holds' if holds else 'FAILS'} "
                  f"(largest share: {p['largest_share']})")
    for failure, times in Counter(map(tuple, detail["failures"])).items():
        command, config, reason = failure
        known = " (known defect)" if config in workloads.KNOWN_DEFECTS else ""
        print(f"  failed x{times}: {command} {config}: {reason}{known}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dyndeg" / "cli.py").is_file():
        print(f"perfbench: no dyndeg sources under {SRC}", file=sys.stderr)
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    env = environment()
    run = traced_run if args.trace else timed_run
    result = run(args.workload, args.seed, args.seconds, work)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]}
        for m in reported
    }
    record = {k: v for k, v in result.items() if k != "spans"}
    (work / "result.json").write_text(
        json.dumps({"env": env, **record}, indent=1, default=str) + "\n")
    if "spans" in result:
        with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    show(result, args, env, units)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
