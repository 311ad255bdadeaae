"""Config-driven batch front end.

Reads a JSON run configuration (model + map + analyses), executes the
requested analyses, and emits a canonical machine-readable JSON report:
sorted keys, rationals as {"num": "...", "den": "..."} string pairs, floats
normalized to 12 significant digits.  Two runs of the same config produce
byte-identical reports; timing is therefore kept out of the report unless
explicitly requested with --timing.

The command line is ``COMMAND`` followed by ``--flag value`` or
``--flag=value`` pairs (see ``USAGE``), read by a small hand-written parser:
the last occurrence of a flag wins, and flags are never abbreviated.

Exit codes: 0 success, 2 usage error or config/model validation failure,
3 analysis error.  Usage and validation failures are written to stderr as
structured JSON, validation failures with a JSON pointer path per violation.
Partial results are never emitted.

Only the stdlib and ``errors`` load with this module, so a config the schema
rejects costs little more than interpreter start-up.  A config that parses
loads ``models``, ``core``, ``endo``, ``linalg`` and its kind's builders
(``projective``, ``abelian`` or ``lattice``); ``report`` and ``delta`` add
``analyses``, ``degrees`` only for a delta table, graph class or bounds, and
``gromov`` with ``spectral`` only for ``gromov`` and ``chain``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from . import COMMUTATIVE, SUPER_COMMUTATIVE, __version__
from .errors import (BadMatrixShape, DynDegError, SchemaError, UnknownModelKind,
                     UsageError)

if TYPE_CHECKING:
    from .endo import PullbackMap
    from .models import EmbeddedModel

SCHEMA_VERSION = "1"
ANALYSIS_STAGE = "analysis"
ANALYSES = ("delta-table", "gromov", "chain", "graph-class", "bounds")


class RunConfig(NamedTuple):
    model: dict
    map: dict
    analyses: tuple[str, ...]
    ample: dict | None = None
    m_max: int = 16
    tol: float = 1e-9
    out: str | None = None
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        # the output path is delivery metadata, not an analysis input, so it
        # stays out: report bytes depend only on what was computed
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
        return out


class Report(NamedTuple):
    config: RunConfig
    results: dict
    elapsed: float

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.to_dict(),
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

def dumps_canonical(obj) -> str:
    """``obj`` as canonical JSON, written in one pass: the bytes of
    ``json.dumps(..., sort_keys=True, indent=2)`` plus a newline, with each
    ``Fraction`` as ``{"den": ..., "num": ...}`` strings, each float at 12
    significant digits and each key through ``str``."""
    out: list[str] = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _write(value, nl: str, emit) -> None:
    """Emit ``value``, its inner lines indented two spaces past ``nl``."""
    inner = nl + "  "
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        emit("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):  # NaN and the infinities as json spells them
        emit(json.dumps(float(format(value, ".12g"))))
    elif isinstance(value, (list, tuple)):
        sep = "[" + inner
        for item in value:
            emit(sep)
            _write(item, inner, emit)
            sep = "," + inner
        emit("[]" if not value else nl + "]")
    elif isinstance(value, Fraction):  # an ABC, slow to test: after the rest
        emit(f'{{{inner}"den": "{value.denominator}",'
             f'{inner}"num": "{value.numerator}"{nl}}}')
    elif isinstance(value, Mapping):
        items, sep = {str(k): v for k, v in value.items()}, "{" + inner
        for key in sorted(items):
            emit(sep + encode_basestring_ascii(key) + ": ")
            _write(items[key], inner, emit)
            sep = "," + inner
        emit("{}" if not items else nl + "}")
    else:
        raise TypeError(f"cannot encode {value!r}")


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


def _one_of(*values: str):
    """One of the strings ``values``."""
    def check(c: _Collector, path: str, value) -> None:
        if value not in values:
            c.add(path, f"expected one of {values}")
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
        if not isinstance(entry.get("label", ""), str):
            c.add(f"{path}/label", "expected a string")
        _check_vector(c, f"{path}/coords", entry["coords"])


def _check_block(c: _Collector, path: str, block) -> None:
    if block != []:  # [] is the block of a zero-dimensional degree
        _check_matrix(c, path, block)


def _check_fields(c: _Collector, path: str, spec: dict, fields: dict) -> None:
    """Check ``spec`` against ``fields``: name -> (required, check)."""
    for key, (required, check) in fields.items():
        if key not in spec:
            if required:
                c.add(f"{path}/{key}", "missing")
        else:
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
    from .projective import pn_power_map, projective_space

    model = projective_space(spec["n"])
    return model, pn_power_map(model, map_spec.get("d", 1))


def _build_multiprojective(spec, map_spec):
    from .projective import multiprojective, product_map

    k = len(spec["n"])
    model = multiprojective(spec["n"])
    return model, product_map(
        model, map_spec.get("d", [1] * k), map_spec.get("perm", list(range(k)))
    )


def _build_abelian(spec, map_spec):
    from .abelian import abelian_variety
    from .linalg import identity

    g = spec["g"]
    omega = None
    if "omega" in spec:
        omega = {(i, j): coeff for i, j, coeff in spec["omega"]}
    return abelian_variety(g, map_spec.get("matrix", identity(2 * g)), omega)


def _build_surface_lattice(spec, map_spec):
    from .lattice import surface_lattice
    from .linalg import identity

    gram = spec["gram"]
    return surface_lattice(
        gram, map_spec.get("matrix", identity(len(gram))), spec["ample"],
        ambient_dim=spec.get("ambient_dim"),
    )


def _build_custom(spec, map_spec):
    from .endo import identity_map
    from .models import custom_model

    model = custom_model({k: v for k, v in spec.items() if k != "kind"})
    return model, identity_map(model.algebra)


# A cross-field check runs once both kinds and all their fields have passed,
# so that what a builder would reject carries a JSON pointer.

def _check_square(c: _Collector, path: str, spec, key: str, n: int) -> None:
    if key in spec and (len(spec[key]) != n or len(spec[key][0]) != n):
        c.add(f"{path}/{key}", f"expected a {n}x{n} matrix")


def _check_multiprojective(c: _Collector, spec, map_spec) -> None:
    ns, perm = spec["n"], map_spec.get("perm", range(len(spec["n"])))
    if len(map_spec.get("d", ns)) != len(ns):
        c.add("/map/d", f"expected {len(ns)} degrees, one per factor")
    if sorted(perm) != list(range(len(ns))) or any(
            ns[p] != n for p, n in zip(perm, ns)):
        c.add("/map/perm", "expected a permutation of equal-dimension factors")


def _check_abelian(c: _Collector, spec, map_spec) -> None:
    n, first = 2 * spec["g"], {}
    for k, (i, j, _) in enumerate(spec.get("omega", ())):
        if not 0 <= i < j < n:
            c.add(f"/model/omega/{k}", f"expected indices 0 <= i < j < {n}")
        elif first.setdefault((i, j), k) != k:
            c.add(f"/model/omega/{k}", f"repeats /model/omega/{first[(i, j)]}")
    _check_square(c, "/map", map_spec, "matrix", n)


def _check_surface_lattice(c: _Collector, spec, map_spec) -> None:
    n = len(spec["gram"])
    _check_square(c, "/model", spec, "gram", n)
    if len(spec["ample"]) != n:
        c.add("/model/ample", f"expected {n} coordinates")
    _check_square(c, "/map", map_spec, "matrix", n)


def _check_length(c: _Collector, path: str, vector, degree: int, dims,
                  degree_path: str | None = None) -> bool:
    """``vector`` must have ``dims[degree]`` coordinates; a degree outside
    the grading is reported at ``degree_path`` (default ``path``)."""
    if not 0 <= degree < len(dims):
        c.add(degree_path or path, f"degree {degree} outside 0..{len(dims) - 1}")
    elif len(vector) != dims[degree]:
        c.add(path, f"expected dims[{degree}] = {dims[degree]} coordinates")
    else:
        return True
    return False


def _check_divisor(c: _Collector, path: str, vector, dims) -> None:
    """A nonzero class of degree 2."""
    from .linalg import as_fraction

    if _check_length(c, path, vector, 2, dims) and not any(map(as_fraction, vector)):
        c.add(path, "expected a nonzero class")


def _check_products(c: _Collector, products, dims) -> None:
    """Each entry multiplies two basis elements whose degrees sum to at most
    the top degree, into coordinates below ``dims[i + j]``, and no two
    entries multiply the same ordered pair."""
    top, first = len(dims) - 1, {}
    for k, entry in enumerate(products):
        path = f"/model/products/{k}"
        outside = [side for side in ("a", "b") if not (
            0 <= entry[side][0] <= top and 0 <= entry[side][1] < dims[entry[side][0]]
        )]
        for side in outside:
            c.add(f"{path}/{side}", "expected [degree, index] of a basis element")
        if outside:
            continue
        degree = entry["a"][0] + entry["b"][0]
        pair, value = (*entry["a"], *entry["b"]), entry["value"]
        keys = value if isinstance(value, dict) else [key for key, _ in value]
        if degree > top:
            c.add(path, f"degrees sum to {degree}, past top_degree {top}")
        elif not all(0 <= int(key) < dims[degree] for key in keys):
            c.add(f"{path}/value",
                  f"expected coordinates below dims[{degree}] = {dims[degree]}")
        elif first.setdefault(pair, k) != k:
            c.add(path, f"repeats /model/products/{first[pair]}")


def _check_custom(c: _Collector, spec, map_spec) -> None:
    from .linalg import as_fraction

    dims = spec["dims"]
    if len(dims) != spec["top_degree"] + 1:
        c.add("/model/dims", "expected top_degree + 1 dimensions")
        return
    if dims[0] != 1:
        c.add("/model/dims/0", "expected 1: degree 0 is spanned by the unit")
    _check_divisor(c, "/model/h", spec["h"], dims)
    for key, degree, zero_path, what in (
        ("unit", 0, "/model/unit/0", "unit coordinate"),
        ("integrate", len(dims) - 1, "/model/integrate", "functional"),
    ):
        if key in spec and _check_length(
            c, f"/model/{key}", spec[key], degree, dims
        ) and not any(map(as_fraction, spec[key])):
            c.add(zero_path, f"expected a nonzero {what}")
    _check_products(c, spec["products"], dims)
    for k, e in enumerate(spec.get("effective", ())):
        _check_length(c, f"/model/effective/{k}/coords", e["coords"],
                      e["degree"], dims, f"/model/effective/{k}/degree")


class _ModelKind(NamedTuple):
    fields: dict  # name -> (required, check), as read by _check_fields
    maps: tuple[str, ...]  # map kinds it takes besides _EVERY_MODEL_MAPS
    build: Callable[[dict, dict], tuple[EmbeddedModel, PullbackMap]]
    check: Callable[[_Collector, dict, dict], None] = lambda *_: None


_MODELS = {
    "projective": _ModelKind(
        {"n": (True, _at_least(1))}, ("power",), _build_projective
    ),
    "multiprojective": _ModelKind(
        {"n": (True, _integers(1, nonempty=True))}, ("product",),
        _build_multiprojective, _check_multiprojective,
    ),
    "abelian": _ModelKind(
        {"g": (True, _at_least(1)),
         "omega": (False, _entries(_check_omega_entry, "[i, j, coeff] triples"))},
        ("exterior",), _build_abelian, _check_abelian,
    ),
    "surface_lattice": _ModelKind(
        {"gram": (True, _check_matrix), "ample": (True, _check_vector),
         "ambient_dim": (False, _at_least(1))},
        ("isometry",), _build_surface_lattice, _check_surface_lattice,
    ),
    "custom": _ModelKind(
        {"top_degree": (True, _at_least(0)),
         "dims": (True, _integers(0)),
         "sign_rule": (False, _one_of(COMMUTATIVE, SUPER_COMMUTATIVE)),
         "products": (True, _entries(_check_product, "product entries")),
         "integrate": (True, _check_vector),
         "unit": (False, _check_vector),
         "h": (True, _check_vector),
         "ambient_dim": (True, _at_least(1)),
         "effective": (False, _entries(_check_effective, "effective classes")),
         "realizability": (
             False, _one_of("unverified", "asserted", "asserted-for-lattice")
         )},
        (), _build_custom, _check_custom,
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


def _is_tolerance(x) -> bool:
    """A finite positive number (JSON's ``NaN`` and ``Infinity`` are not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return 0 < float(x) < math.inf
    except OverflowError:  # an int past the float range
        return False


def parse_config(text: str, overrides: Mapping | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    ``overrides`` (top-level field -> value, as the command-line flags give
    them) replace the config's own fields before any check, so an override
    is held to the same schema.  Every violation is collected and reported
    with a JSON pointer path.
    """
    c = _Collector()
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting
        raise SchemaError([("", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise SchemaError([("", "top-level value must be an object")])
    raw.update(overrides or {})

    known = {"schema_version", "model", "map", "ample", "analyses", "M", "tol", "out"}
    for key in raw:
        if key not in known:
            c.add(f"/{key}", "unknown field")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        c.add("/schema_version", f"unsupported schema version {version!r}")

    before = len(c.violations)
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
    if len(c.violations) == before:  # both kinds known, their fields valid
        _MODELS[model_kind].check(c, raw["model"], raw["map"])

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
    if not _is_tolerance(tol):
        c.add("/tol", "expected a finite positive number")

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


# ---------------------------------------------------------------------------
# model/map assembly
# ---------------------------------------------------------------------------

def build_model_and_map(config: RunConfig) -> tuple[EmbeddedModel, PullbackMap]:
    kind, map_spec = config.model["kind"], config.map
    model, pull = _MODELS[kind].build(config.model, map_spec)
    c, dims = _Collector(), model.algebra.dims  # known only once built
    if config.ample is not None:
        _check_divisor(c, "/ample/coords", config.ample["coords"], dims)
    if map_spec["kind"] == "matrices":
        if len(map_spec["blocks"]) != len(dims):
            c.add("/map/blocks", f"expected {len(dims)} per-degree matrices")
        for i, (block, d) in enumerate(zip(map_spec["blocks"], dims)):
            if len(block) != d or (d and len(block[0]) != d):
                c.add(f"/map/blocks/{i}", f"expected a {d}x{d} matrix")
    c.raise_if_any()
    if map_spec["kind"] == "matrices":
        from .endo import validate_pullback

        # a custom model states its own realizability, and its map shares it
        stated = {"realizability": model.realizability, "provenance": "custom"}
        pull = validate_pullback(
            model.algebra, map_spec["blocks"], **(stated if kind == "custom" else {})
        )

    if config.ample is not None:
        from .models import EmbeddedModel

        h = model.algebra.homogeneous(2, config.ample["coords"])
        model = EmbeddedModel(
            model.algebra, h, model.ambient_dim, model.realizability,
            model.provenance, model.effective, model.scope_note,
        ).validate()
    return model, pull


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

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
    from . import analyses

    try:
        table = closure = None
        if not analyses.TABLE_ANALYSES.isdisjoint(config.analyses):
            from .degrees import delta_table

            table = delta_table(model, pull, config.m_max)
        if not analyses.CLOSURE_ANALYSES.isdisjoint(config.analyses):
            from .gromov import gromov_closure

            closure = gromov_closure(model.algebra, pull, model.h)
        for analysis in dict.fromkeys(config.analyses):
            if analysis in analyses.TABLE_ANALYSES:
                shared = (table,)
            elif analysis in analyses.CLOSURE_ANALYSES:
                shared = (closure,)
            else:
                shared = ()
            results[analysis] = analyses.RUNNERS[analysis](
                model, pull, config, *shared
            )
    except DynDegError as exc:
        exc.stage = ANALYSIS_STAGE
        raise
    return Report(config=config, results=results, elapsed=time.monotonic() - started)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

USAGE = """\
usage: dyndeg {report,validate,delta} --config PATH [--out PATH]
              [--max-power M] [--tol TOL] [--timing]

dynamical degrees and spectral chains on exact graded models

commands:
  report         run the configured analyses and emit the full report
  validate       parse the config and validate model + map only
  delta          emit the dynamical-degree table only

flags, as --flag VALUE or --flag=VALUE (the last occurrence wins):
  --config PATH  path to the JSON config (required)
  --out PATH     output path (default stdout)
  --max-power M  override M, the largest iterate
  --tol TOL      override the numeric tolerance
  --timing       include wall-clock timing in the report
                 (makes output nondeterministic)
  -h, --help     show this text and exit
"""
_COMMANDS = ("report", "validate", "delta")
_HELP = ("-h", "--help")
# flag -> (the config field it sets, how its value is read)
_VALUE_FLAGS = {
    "--config": ("config", str),
    "--out": ("out", str),
    "--max-power": ("M", int),
    "--tol": ("tol", float),
}


def _read_value(text: str, kind):
    """``kind(text)``, or the string itself, for the schema to reject."""
    try:
        return kind(text)
    except ValueError:
        return text


def _parse_argv(argv: Sequence[str]) -> tuple[str, str, dict, bool] | None:
    """``(command, config path, overrides, timing)``, or None for help.

    ``overrides`` maps the config fields ``out``, ``M`` and ``tol`` to the
    last value given for their flags; a number that does not parse stays a
    string, so the schema rejects it with a pointer.
    """
    if not argv:
        raise UsageError(f"missing command; one of {', '.join(_COMMANDS)}")
    command, rest = argv[0], list(argv[1:])
    if command in _HELP:
        return None
    if command not in _COMMANDS:
        raise UsageError(
            f"unknown command {command!r}; one of {', '.join(_COMMANDS)}"
        )
    values, timing = {}, False
    while rest:
        token = rest.pop(0)
        if token in _HELP:
            return None
        flag, eq, value = token.partition("=")
        if flag == "--timing":
            if eq:
                raise UsageError("--timing takes no value")
            timing = True
            continue
        if flag not in _VALUE_FLAGS:
            raise UsageError(f"unknown argument {token!r}")
        if not eq:
            if not rest or rest[0].startswith("--"):
                raise UsageError(f"{flag} needs a value")
            value = rest.pop(0)
        if "\0" in value:  # no file name holds one; open() would raise
            raise UsageError(f"{flag} value contains a NUL byte")
        field, kind = _VALUE_FLAGS[flag]
        values[field] = _read_value(value, kind)
    if "config" not in values:
        raise UsageError("--config is required")
    path = values.pop("config")
    return command, path, values, timing


def _load_config(path: str, overrides: dict) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError([("", f"config is not UTF-8: {exc}")]) from exc
    return parse_config(text, overrides)


def _io_error(exc: OSError) -> int:
    sys.stderr.write(json.dumps({"error": "IOError", "message": str(exc)}) + "\n")
    return 2


def _emit(report_json: str, out_path: str | None) -> int:
    if not out_path:
        sys.stdout.write(report_json)
        return 0
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report_json)
    except OSError as exc:  # a missing directory, or a directory
        return _io_error(exc)
    return 0


def _fail(exc: DynDegError, code: int) -> int:
    sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
    return code


def main(argv: Sequence[str] | None = None) -> int:
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        return _fail(exc, 2)
    if parsed is None:
        sys.stdout.write(USAGE)
        return 0
    command, path, overrides, timing = parsed

    try:
        config = _load_config(path, overrides)
    except OSError as exc:
        return _io_error(exc)
    except SchemaError as exc:
        return _fail(exc, 2)

    if command == "validate":
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
        return _emit(summary, config.out)

    if command == "delta":
        config = config._replace(analyses=("delta-table",))

    try:
        report = run(config)
    except DynDegError as exc:
        # model/map construction failures are validation errors (exit 2);
        # anything raised past that point is an analysis error (exit 3)
        return _fail(exc, 3 if getattr(exc, "stage", None) == ANALYSIS_STAGE else 2)

    return _emit(report.to_json(include_timing=timing), config.out)


if __name__ == "__main__":
    sys.exit(main())
