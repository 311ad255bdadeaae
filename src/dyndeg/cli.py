"""Config-driven batch front end.

Reads a JSON run configuration (model + map + analyses), executes the
requested analyses, and emits a canonical machine-readable JSON report:
sorted keys, rationals as {"num": "...", "den": "..."} string pairs, floats
normalized to 12 significant digits.  Two runs of the same config produce
byte-identical reports; timing is therefore kept out of the report unless
explicitly requested with --timing.

Exit codes: 0 success, 2 config/model validation failure, 3 analysis error.
Validation failures are written to stderr as structured JSON with a JSON
pointer path per violation.  Partial results are never emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from . import __version__
from .degrees import (
    EmbeddedModel,
    bound_constant,
    check_intersection_bound,
    delta_table,
    graph_class,
    growth_rates,
    moving_ledger,
    segre_graph_degree,
)
from .endo import PullbackMap, identity_map, validate_pullback
from .errors import BadMatrixShape, DynDegError, SchemaError, UnknownModelKind
from .gromov import gromov_closure, lambda_gr, spectral_chain
from .linalg import identity
from .models import (
    abelian_variety,
    custom_model,
    embedded_model,
    multiprojective,
    pn_power_map,
    product_map,
    projective_space,
    surface_lattice,
)

SCHEMA_VERSION = "1"
ANALYSIS_STAGE = "analysis"
ANALYSES = ("delta-table", "gromov", "chain", "graph-class", "bounds")


@dataclass(frozen=True)
class RunConfig:
    model: dict
    map: dict
    analyses: tuple[str, ...]
    ample: dict | None = None
    m_max: int = 16
    tol: float = 1e-9
    out: str | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self, include_out: bool = True) -> dict:
        out = {
            "schema_version": self.schema_version,
            "model": self.model,
            "map": self.map,
            "analyses": list(self.analyses),
            "M": self.m_max,
            "tol": self.tol,
        }
        if self.ample is not None:
            out["ample"] = self.ample
        if include_out and self.out is not None:
            out["out"] = self.out
        return out


@dataclass(frozen=True)
class Report:
    config: RunConfig
    results: dict
    elapsed: float

    def to_dict(self, include_timing: bool = False) -> dict:
        # the output path is delivery metadata, not an analysis input, so it
        # stays out of the echo: report bytes depend only on what was computed
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.to_dict(include_out=False),
            "results": self.results,
        }
        if include_timing:
            out["timing"] = {"elapsed_s": self.elapsed}
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return dumps_canonical(self.to_dict(include_timing=include_timing))


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def _canonical_float(x: float) -> float:
    return float(format(x, ".12g"))


def encode_value(value):
    """Recursively convert report values to canonical JSON-ready objects."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return _canonical_float(value)
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    raise TypeError(f"cannot encode {value!r}")


def dumps_canonical(obj) -> str:
    return json.dumps(encode_value(obj), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class _Collector:
    """Collects (path, message) violations, categorized to pick the error class."""

    def __init__(self):
        self.violations: list[tuple[str, str]] = []
        self.categories: set[str] = set()

    def add(self, path: str, message: str, category: str = "schema"):
        self.violations.append((path, message))
        self.categories.add(category)

    def raise_if_any(self):
        if not self.violations:
            return
        if self.categories == {"kind"}:
            raise UnknownModelKind(self.violations)
        if self.categories == {"matrix"}:
            raise BadMatrixShape(self.violations)
        raise SchemaError(self.violations)


def _is_rational(x) -> bool:
    if isinstance(x, bool):
        return False
    if isinstance(x, int):
        return True
    if isinstance(x, str):
        try:
            Fraction(x)
            return True
        except (ValueError, ZeroDivisionError):
            return False
    if isinstance(x, dict) and set(x) == {"num", "den"}:
        try:
            Fraction(int(x["num"]), int(x["den"]))
            return True
        except (ValueError, ZeroDivisionError, TypeError):
            return False
    return False


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index_key(x) -> bool:
    """An integer, or a string holding one (JSON object keys are strings)."""
    if isinstance(x, str):
        try:
            int(x)
        except ValueError:
            return False
        return True
    return _is_index(x)


def _is_product_value(value) -> bool:
    """A map basis index -> rational: an object, or a list of [index, coeff]."""
    if isinstance(value, dict):
        items = list(value.items())
    elif isinstance(value, list) and all(
        isinstance(item, list) and len(item) == 2 for item in value
    ):
        items = value
    else:
        return False
    return all(_is_index_key(k) and _is_rational(x) for k, x in items)


def _check_product(c: _Collector, path: str, entry) -> None:
    if not isinstance(entry, dict) or not ({"a", "b", "value"} <= set(entry)):
        c.add(path, "expected {a: [deg, idx], b: [deg, idx], value: ...}")
        return
    for side in ("a", "b"):
        pair = entry[side]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_index(x) for x in pair)):
            c.add(f"{path}/{side}", "expected a [degree, index] pair of integers")
    if not _is_product_value(entry["value"]):
        c.add(f"{path}/value", "expected a map of basis index -> rational")


def _check_matrix(c: _Collector, path: str, value) -> None:
    if not isinstance(value, list) or not value:
        c.add(path, "expected a nonempty matrix (list of rows)", "matrix")
        return
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            c.add(f"{path}/{i}", "expected a nonempty row", "matrix")
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            c.add(f"{path}/{i}", f"ragged row: expected {width} entries", "matrix")
        for j, x in enumerate(row):
            if not _is_rational(x):
                c.add(f"{path}/{i}/{j}", "expected an exact rational scalar",
                      "matrix")


def _check_vector(c: _Collector, path: str, value) -> None:
    if not isinstance(value, list):
        c.add(path, "expected a list of rational scalars")
        return
    for i, x in enumerate(value):
        if not _is_rational(x):
            c.add(f"{path}/{i}", "expected an exact rational scalar")


def _at_least(low: int):
    def check(c: _Collector, path: str, value) -> None:
        if not (_is_index(value) and value >= low):
            c.add(path, f"expected an integer >= {low}")
    return check


def _integers(low: int | None = None, nonempty: bool = False):
    """A list of integers, each >= ``low`` when it is given."""
    what = ("a nonempty list" if nonempty else "a list") + " of integers"
    what += "" if low is None else f" >= {low}"

    def check(c: _Collector, path: str, value) -> None:
        if not (isinstance(value, list) and (value or not nonempty) and all(
            _is_index(x) and (low is None or x >= low) for x in value
        )):
            c.add(path, f"expected {what}")
    return check


def _entries(check_entry, what: str):
    """A list whose every entry passes ``check_entry``."""
    def check(c: _Collector, path: str, value) -> None:
        if not isinstance(value, list):
            c.add(path, f"expected a list of {what}")
            return
        for i, entry in enumerate(value):
            check_entry(c, f"{path}/{i}", entry)
    return check


def _check_omega_entry(c: _Collector, path: str, entry) -> None:
    if not (isinstance(entry, list) and len(entry) == 3 and _is_index(entry[0])
            and _is_index(entry[1]) and _is_rational(entry[2])):
        c.add(path, "expected [i, j, coeff]")


def _check_effective(c: _Collector, path: str, entry) -> None:
    if not (isinstance(entry, dict) and "coords" in entry
            and _is_index(entry.get("degree"))):
        c.add(path, "expected {label, degree: int, coords: [...]}")
    else:
        _check_vector(c, f"{path}/coords", entry["coords"])


def _check_block(c: _Collector, path: str, block) -> None:
    if block != []:  # [] is the block of a zero-dimensional degree
        _check_matrix(c, path, block)


def _check_fields(c: _Collector, path: str, spec: dict, fields: dict) -> None:
    """Check ``spec`` against ``fields``: name -> (required, check or None);
    a field without a check is coerced or validated by the builder."""
    for key, (required, check) in fields.items():
        if key not in spec:
            if required:
                c.add(f"{path}/{key}", "missing")
        elif check is not None:
            check(c, f"{path}/{key}", spec[key])
    for key in spec:
        if key != "kind" and key not in fields:
            c.add(f"{path}/{key}", "unknown field")


def _kind_of(c: _Collector, raw: dict, part: str, kinds, category="schema"):
    """The kind of ``raw[part]``, or None once the reason is recorded."""
    spec = raw.get(part)
    if part not in raw:
        c.add(f"/{part}", "missing")
    elif not isinstance(spec, dict):
        c.add(f"/{part}", "expected an object")
    elif spec.get("kind") not in kinds:  # a tuple: the kind may be unhashable
        c.add(f"/{part}/kind",
              f"unknown {part} kind {spec.get('kind')!r}; one of {kinds}",
              category)
    else:
        return spec["kind"]
    return None


# ---------------------------------------------------------------------------
# model and map kinds
# ---------------------------------------------------------------------------

# A builder takes the model spec and the map spec and returns the model with
# the pullback of the kind's own map; it reads only its own map fields, so a
# map spec without them ("identity", "matrices") gives the identity map.

def _build_projective(spec, map_spec):
    model = projective_space(spec["n"])
    return model, pn_power_map(model, map_spec.get("d", 1))


def _build_multiprojective(spec, map_spec):
    k = len(spec["n"])
    model = multiprojective(spec["n"])
    return model, product_map(
        model, map_spec.get("d", [1] * k), map_spec.get("perm", list(range(k)))
    )


def _build_abelian(spec, map_spec):
    g = spec["g"]
    omega = None
    if "omega" in spec:
        omega = {(i, j): coeff for i, j, coeff in spec["omega"]}
    return abelian_variety(g, map_spec.get("matrix", identity(2 * g)), omega)


def _build_surface_lattice(spec, map_spec):
    gram = spec["gram"]
    return surface_lattice(
        gram, map_spec.get("matrix", identity(len(gram))), spec["ample"],
        ambient_dim=spec.get("ambient_dim"),
    )


def _build_custom(spec, map_spec):
    model, _ = custom_model({k: v for k, v in spec.items() if k != "kind"})
    return model, identity_map(model.algebra)


class _ModelKind(NamedTuple):
    fields: dict  # name -> (required, check), as read by _check_fields
    maps: tuple[str, ...]  # map kinds it takes besides _EVERY_MODEL_MAPS
    build: Callable[[dict, dict], tuple[EmbeddedModel, PullbackMap]]


_MODELS = {
    "projective": _ModelKind(
        {"n": (True, _at_least(1))}, ("power",), _build_projective
    ),
    "multiprojective": _ModelKind(
        {"n": (True, _integers(1, nonempty=True))}, ("product",),
        _build_multiprojective,
    ),
    "abelian": _ModelKind(
        {"g": (True, _at_least(1)),
         "omega": (False, _entries(_check_omega_entry, "[i, j, coeff] triples"))},
        ("exterior",), _build_abelian,
    ),
    "surface_lattice": _ModelKind(
        {"gram": (True, _check_matrix), "ample": (True, _check_vector),
         "ambient_dim": (False, _at_least(1))},
        ("isometry",), _build_surface_lattice,
    ),
    "custom": _ModelKind(
        {"top_degree": (True, _at_least(0)),
         "dims": (True, _integers(0)),
         "sign_rule": (False, None),
         "products": (True, _entries(_check_product, "product entries")),
         "integrate": (True, _check_vector),
         "unit": (False, _check_vector),
         "h": (True, _check_vector),
         "ambient_dim": (True, _at_least(1)),
         "effective": (False, _entries(_check_effective, "effective classes")),
         "realizability": (False, None)},
        (), _build_custom,
    ),
}
# map kind -> fields
_MAPS = {
    "power": {"d": (True, _at_least(0))},
    "product": {"d": (True, _integers(0)), "perm": (True, _integers())},
    "exterior": {"matrix": (True, _check_matrix)},
    "isometry": {"matrix": (True, _check_matrix)},
    "matrices": {"blocks": (True, _entries(_check_block, "per-degree matrices"))},
    "identity": {},
}
_EVERY_MODEL_MAPS = ("matrices", "identity")
MODEL_KINDS = tuple(_MODELS)
MAP_KINDS = tuple(_MAPS)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Every violation is collected and reported with a JSON pointer path.
    """
    c = _Collector()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError([("", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise SchemaError([("", "top-level value must be an object")])

    known = {"schema_version", "model", "map", "ample", "analyses", "M", "tol", "out"}
    for key in raw:
        if key not in known:
            c.add(f"/{key}", "unknown field")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        c.add("/schema_version", f"unsupported schema version {version!r}")

    model_kind = _kind_of(c, raw, "model", MODEL_KINDS, "kind")
    if model_kind is not None:
        _check_fields(c, "/model", raw["model"], _MODELS[model_kind].fields)
    map_kind = _kind_of(c, raw, "map", MAP_KINDS)
    if map_kind is not None:
        if model_kind is not None and map_kind not in (
            _MODELS[model_kind].maps + _EVERY_MODEL_MAPS
        ):
            c.add(
                "/map/kind",
                f"map kind {map_kind!r} does not apply to model kind {model_kind!r}",
            )
        _check_fields(c, "/map", raw["map"], _MAPS[map_kind])

    analyses = raw.get("analyses")
    if analyses is None:
        c.add("/analyses", "missing")
    elif not isinstance(analyses, list) or not analyses:
        c.add("/analyses", "expected a nonempty list")
    else:
        for i, a in enumerate(analyses):
            if a not in ANALYSES:
                c.add(f"/analyses/{i}", f"unknown analysis {a!r}; one of {ANALYSES}")

    m_max = raw.get("M", 16)
    _at_least(1)(c, "/M", m_max)

    tol = raw.get("tol", 1e-9)
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or tol <= 0:
        c.add("/tol", "expected a positive number")

    ample = raw.get("ample")
    if ample is not None:
        if not isinstance(ample, dict) or "coords" not in ample:
            c.add("/ample", 'expected {"coords": [...]}')
        else:
            _check_vector(c, "/ample/coords", ample["coords"])

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        c.add("/out", "expected a string path")

    c.raise_if_any()
    return RunConfig(
        model=raw["model"],
        map=raw["map"],
        analyses=tuple(analyses),
        ample=ample,
        m_max=m_max,
        tol=float(tol),
        out=out,
        schema_version=version,
    )


def serialize_config(config: RunConfig) -> str:
    return dumps_canonical(config.to_dict())


# ---------------------------------------------------------------------------
# model/map assembly
# ---------------------------------------------------------------------------

def build_model_and_map(config: RunConfig) -> tuple[EmbeddedModel, PullbackMap]:
    kind, map_spec = config.model["kind"], config.map
    model, pull = _MODELS[kind].build(config.model, map_spec)
    if map_spec["kind"] == "matrices":
        # a custom model states its own realizability, and its map shares it
        stated = {"realizability": model.realizability, "provenance": "custom"}
        pull = validate_pullback(
            model.algebra, map_spec["blocks"], **(stated if kind == "custom" else {})
        )

    if config.ample is not None:
        h = model.algebra.homogeneous(2, config.ample["coords"])
        model = embedded_model(
            model.algebra,
            h,
            ambient_dim=model.ambient_dim,
            realizability=model.realizability,
            provenance=model.provenance,
            effective=model.effective,
            scope_note=model.scope_note,
        )
    return model, pull


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def _run_delta_table(model, pull, config, table):
    rates = growth_rates(table)
    return {
        "m_max": table.m_max,
        "deg_x": table.deg_x,
        "rows": [list(row) for row in table.rows],
        "growth_rates": list(rates.rates),
        "max_rate": rates.max_rate,
        "window": rates.window,
    }


def _run_gromov(model, pull, config, closure):
    rho, err = lambda_gr(closure, config.tol)
    return {
        "dimension": closure.dimension,
        "dims_by_degree": list(closure.dims_by_degree),
        "certificates": len(closure.certificates),
        "certificates_verified": closure.verify_certificates(),
        "sweeps": closure.sweeps,
        "lambda_gr": rho,
        "lambda_gr_error": err,
    }


def _run_chain(model, pull, config, closure):
    report = spectral_chain(
        model.algebra,
        pull,
        model.h,
        tol=config.tol,
        realizability=model.realizability,
        scope_note=model.scope_note,
        closure=closure,
    )
    return {
        "lambda_gr": report.lambda_gr,
        "lambda_gr_error": report.lambda_gr_error,
        "lambda_by_codim": list(report.lambda_by_codim),
        "mu_by_degree": list(report.mu_by_degree),
        "max_lambda": report.max_lambda,
        "max_mu": report.max_mu,
        "chain_holds": report.chain_holds,
        "equality_holds": report.equality_holds,
        "equality_asserted": report.equality_asserted,
        "realizability": report.realizability,
        "scope_note": report.scope_note,
        "tol": report.tol,
        "gromov_dims": list(report.gromov_dims),
        "chi_note": "homological and numerical radii coincide in explicit models",
    }


def _run_graph_class(model, pull, config, table):
    per_m = []
    for m in range(1, config.m_max + 1):
        comps = graph_class(model, pull, m, table)
        segre = segre_graph_degree(model, pull, m, table)
        per_m.append({
            "m": m,
            "coefficients": [comp.coefficient for comp in comps],
            "labels": [comp.label for comp in comps],
            "segre_degree": segre.value,
            "segre_expected": segre.expected,
            "segre_matches": segre.matches,
        })
    return {"per_m": per_m}


def _run_bounds(model, pull, config):
    alg = model.algebra
    constant = bound_constant(model.r, model.deg_x)
    checks = []
    violations = 0
    for ec_v in model.effective:
        for ec_w in model.effective:
            dv, dw = ec_v.element.degrees(), ec_w.element.degrees()
            if len(dv) != 1 or len(dw) != 1 or dv[0] + dw[0] != alg.top_degree:
                continue
            res = check_intersection_bound(model, ec_v.element, ec_w.element)
            checks.append({
                "v": ec_v.label,
                "w": ec_w.label,
                "pairing": res.pairing,
                "deg_v": res.deg_v,
                "deg_w": res.deg_w,
                "ok": res.ok,
            })
            violations += 0 if res.ok else 1
    ledger = moving_ledger(model.r, model.deg_x, 1, 1, model.r + 1)
    return {
        "constant": constant,
        "checks": checks,
        "violations": violations,
        "moving_ledger": {
            "k": ledger.k,
            "v_degrees": list(ledger.v_degrees),
            "e_degrees": list(ledger.e_degrees),
            "bound": ledger.bound,
        },
        "ledger_within_constant": ledger.bound <= constant,
    }


_ANALYSIS_RUNNERS = {
    "delta-table": _run_delta_table,
    "gromov": _run_gromov,
    "chain": _run_chain,
    "graph-class": _run_graph_class,
    "bounds": _run_bounds,
}
# analyses whose runners also take the run's one DeltaTable, or its one
# Gromov closure
_TABLE_ANALYSES = frozenset({"delta-table", "graph-class"})
_CLOSURE_ANALYSES = frozenset({"gromov", "chain"})


def run(config: RunConfig) -> Report:
    """Execute every requested analysis; deterministic for identical configs.

    A :class:`DynDegError` raised once the model and map are built carries
    ``stage = ANALYSIS_STAGE``; one raised while building them carries none.
    """
    started = time.monotonic()
    model, pull = build_model_and_map(config)
    results = {
        "model_summary": {
            "provenance": model.provenance,
            "ambient_dim": model.ambient_dim,
            "deg_x": model.deg_x,
            "r": model.r,
            "dims": list(model.algebra.dims),
            "realizability": model.realizability,
            "map_realizability": pull.realizability,
        }
    }
    try:
        table = closure = None
        if not _TABLE_ANALYSES.isdisjoint(config.analyses):
            table = delta_table(model, pull, config.m_max)
        if not _CLOSURE_ANALYSES.isdisjoint(config.analyses):
            closure = gromov_closure(model.algebra, pull, model.h)
        for analysis in dict.fromkeys(config.analyses):
            if analysis in _TABLE_ANALYSES:
                shared = (table,)
            elif analysis in _CLOSURE_ANALYSES:
                shared = (closure,)
            else:
                shared = ()
            results[analysis] = _ANALYSIS_RUNNERS[analysis](
                model, pull, config, *shared
            )
    except DynDegError as exc:
        exc.stage = ANALYSIS_STAGE
        raise
    return Report(config=config, results=results, elapsed=time.monotonic() - started)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    overrides = {"m_max": args.max_power, "tol": args.tol, "out": args.out}
    return replace(
        parse_config(text),
        **{k: v for k, v in overrides.items() if v is not None},
    )


def _emit(report_json: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_json)
    else:
        sys.stdout.write(report_json)


def _fail(exc: DynDegError, code: int) -> int:
    sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dyndeg",
        description="dynamical degrees and spectral chains on exact graded models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("report", "run the configured analyses and emit the full report"),
        ("validate", "parse the config and validate model + map only"),
        ("delta", "emit the dynamical-degree table only"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--max-power", type=int, default=None, dest="max_power",
                       help="override M, the largest iterate")
        p.add_argument("--tol", type=float, default=None,
                       help="override the numeric tolerance")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report"
                            " (makes output nondeterministic)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
    except OSError as exc:
        sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
        return 2
    except SchemaError as exc:
        return _fail(exc, 2)

    if args.command == "validate":
        try:
            model, pull = build_model_and_map(config)
        except DynDegError as exc:
            return _fail(exc, 2)
        summary = dumps_canonical({
            "ok": True,
            "model": {
                "provenance": model.provenance,
                "dims": list(model.algebra.dims),
                "deg_x": model.deg_x,
                "ambient_dim": model.ambient_dim,
                "realizability": model.realizability,
            },
            "map": {"realizability": pull.realizability},
        })
        _emit(summary, config.out)
        return 0

    if args.command == "delta":
        config = replace(config, analyses=("delta-table",))

    try:
        report = run(config)
    except DynDegError as exc:
        # model/map construction failures are validation errors (exit 2);
        # anything raised past that point is an analysis error (exit 3)
        return _fail(exc, 3 if getattr(exc, "stage", None) == ANALYSIS_STAGE else 2)

    _emit(report.to_json(include_timing=args.timing), config.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
