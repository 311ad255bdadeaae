"""Config-driven batch front end.

Reads a JSON run configuration (model + map + analyses), executes the
requested analyses, and emits a canonical machine-readable JSON report:
sorted keys, rationals as {"num": "...", "den": "..."} string pairs, floats
normalized to 12 significant digits.  Two runs of the same config produce
byte-identical reports: a report holds no wall-clock value.

The command line is ``COMMAND`` followed by ``--flag value`` or
``--flag=value`` pairs (see ``USAGE``), read by a small hand-written parser:
the last occurrence of a flag wins, and flags are never abbreviated.

Exit codes: 0 success, 2 usage error or config/model validation failure,
3 analysis error.  Usage and validation failures are written to stderr as
structured JSON, validation failures with a JSON pointer path per violation.
Partial results are never emitted.  A stdout that cannot be written (its
reader gone) is an I/O failure like an unwritable ``--out``: exit 2.

Only the stdlib and ``errors`` load with this module (``linalg`` only to
read a rational written out), so a config the schema rejects costs little
more than interpreter start-up.  Each model kind's builder, adapter
(``build_<kind>``) and cross-field check (``check_<kind>``) live in the
module ``_MODELS`` names: ``projective``, ``abelian``, ``lattice`` or
``custom``, imported once the model's and the map's fields have passed, with
``models``, ``core``, ``endo`` and ``linalg``.  ``report`` and ``delta`` add
the modules that write their sections: ``degrees`` only for a delta table,
graph class or bounds, and ``gromov`` with ``spectral`` only for ``gromov``
and ``chain``.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from collections.abc import Mapping
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NoReturn, Sequence

from . import COMMUTATIVE, SUPER_COMMUTATIVE, __version__
from .errors import (AmpleNotPositive, BadMatrixShape, DynDegError, SchemaError,
                     ShapeMismatch, UnknownModelKind, UsageError)

if TYPE_CHECKING:
    from .endo import PullbackMap
    from .models import EmbeddedModel

SCHEMA_VERSION = "1"
# analysis -> (the module that writes its report section, as
# ``<analysis>_section(model, pull, config, *shared)``, and what ``shared``
# holds: the run's one DeltaTable, its one Gromov closure, or nothing)
_SECTIONS = {"delta-table": ("degrees", "table"), "gromov": ("gromov", "closure"),
             "chain": ("gromov", "closure"), "graph-class": ("degrees", "table"),
             "bounds": ("degrees", None)}
ANALYSES = tuple(_SECTIONS)


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def dumps_canonical(obj) -> str:
    """``obj`` as canonical JSON, written in one pass: the bytes of
    ``json.dumps(..., sort_keys=True, indent=2)`` plus a newline, with each
    ``Fraction`` as ``{"den": ..., "num": ...}`` strings, each float at 12
    significant digits and each key through ``str``.  Integers print in
    full: int's digit limit on ``str`` is lifted while the writer runs."""
    from fractions import Fraction  # loaded already by any model

    out: list[str] = []
    emit = out.append

    def write(value, nl: str) -> None:
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
                write(item, inner)
                sep = "," + inner
            emit("[]" if not value else nl + "]")
        elif isinstance(value, Fraction):  # an ABC, slow to test: after the rest
            emit(f'{{{inner}"den": "{value.denominator}",'
                 f'{inner}"num": "{value.numerator}"{nl}}}')
        elif isinstance(value, Mapping):
            items, sep = {str(k): v for k, v in value.items()}, "{" + inner
            for key in sorted(items):
                emit(sep + encode_basestring_ascii(key) + ": ")
                write(items[key], inner)
                sep = "," + inner
            emit("{}" if not items else nl + "}")
        else:
            raise TypeError(f"cannot encode {value!r}")

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        write(obj, "\n")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    emit("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class _Collector:
    """Collects (path, message) violations, each naming its error class."""

    def __init__(self):
        self.violations: list[tuple[str, str]] = []
        self.errors: set[type[SchemaError]] = set()

    def add(self, path: str, message: str, error=SchemaError):
        self.violations.append((path, message))
        self.errors.add(error)

    def raise_if_any(self):
        """Raise the class every violation names, or SchemaError if they differ."""
        if self.violations:
            error = self.errors.pop() if len(self.errors) == 1 else SchemaError
            raise error(self.violations)


def _is_rational(x) -> bool:
    """A scalar that ``linalg.as_fraction``, the builders' reader, takes."""
    if not isinstance(x, (str, dict)):
        return _is_index(x)  # an int that is not a bool, or no scalar
    from .linalg import as_fraction  # only a rational written out needs it

    try:
        as_fraction(x)
    except ShapeMismatch:
        return False
    return True


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


def _check_known(c: _Collector, path: str, spec: dict, known) -> None:
    """Report each key of ``spec`` that ``known`` does not hold."""
    for key in spec:
        if key not in known:
            c.add(f"{path}/{key}", "unknown field")


def _check_product(c: _Collector, path: str, entry) -> None:
    if not isinstance(entry, dict) or not ({"a", "b", "value"} <= set(entry)):
        c.add(path, "expected {a: [deg, idx], b: [deg, idx], value: ...}")
        return
    _check_known(c, path, entry, ("a", "b", "value"))
    for side in ("a", "b"):
        pair = entry[side]
        if not (isinstance(pair, list) and len(pair) == 2
                and all(_is_index(x) for x in pair)):
            c.add(f"{path}/{side}", "expected a [degree, index] pair of integers")
    if not _is_product_value(entry["value"]):
        c.add(f"{path}/value", "expected a map of basis index -> rational")


def _check_matrix(c: _Collector, path: str, value) -> None:
    if not isinstance(value, list) or not value:
        c.add(path, "expected a nonempty matrix (list of rows)", BadMatrixShape)
        return
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            c.add(f"{path}/{i}", "expected a nonempty row", BadMatrixShape)
            continue
        if width is None:
            width = len(row)
        elif len(row) != width:
            c.add(f"{path}/{i}", f"ragged row: expected {width} entries",
                  BadMatrixShape)
        for j, x in enumerate(row):
            if not _is_rational(x):
                c.add(f"{path}/{i}/{j}", "expected an exact rational scalar",
                      BadMatrixShape)


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
        _check_known(c, path, entry, ("label", "degree", "coords"))
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
    _check_known(c, path, spec, ("kind", *fields))


def _kind_of(c: _Collector, raw: dict, part: str, kinds, error=SchemaError):
    """The kind of ``raw[part]``, or None once the reason is recorded."""
    spec = raw.get(part)
    if part not in raw:
        c.add(f"/{part}", "missing")
    elif not isinstance(spec, dict):
        c.add(f"/{part}", "expected an object")
    elif spec.get("kind") not in kinds:  # a tuple: the kind may be unhashable
        c.add(f"/{part}/kind",
              f"unknown {part} kind {spec.get('kind')!r}; one of {kinds}", error)
    else:
        return spec["kind"]
    return None


# ---------------------------------------------------------------------------
# model and map kinds
# ---------------------------------------------------------------------------

# model kind -> (its fields: name -> (required, check), as read by
# _check_fields; the map kinds it takes besides "matrices" and "identity",
# which every kind takes; the module that builds it; whether it has a
# cross-field check).  That module defines ``build_<kind>(spec, map_spec)``:
# the model and the pullback of the kind's own map, read from its own map
# fields only, so those two give the identity.  A checked kind's
# ``check_<kind>(c, spec, map_spec)`` runs once both kinds and all their
# fields have passed, so that what the builder would reject has a pointer.
_MODELS = {
    "projective": (
        {"n": (True, _at_least(1))}, ("power",), "projective", False,
    ),
    "multiprojective": (
        {"n": (True, _integers(1, nonempty=True))}, ("product",),
        "projective", True,
    ),
    "abelian": (
        {"g": (True, _at_least(1)),
         "omega": (False, _entries(_check_omega_entry, "[i, j, coeff] triples"))},
        ("exterior",), "abelian", True,
    ),
    "surface_lattice": (
        {"gram": (True, _check_matrix), "ample": (True, _check_vector),
         "ambient_dim": (False, _at_least(1))},
        ("isometry",), "lattice", True,
    ),
    "custom": (
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
        (), "custom", True,
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


def _kind_module(kind: str):
    """The module that builds model kind ``kind``, imported on first use."""
    return importlib.import_module(f".{_MODELS[kind][2]}", __package__)


def _is_tolerance(x) -> bool:
    """A finite positive number (JSON's ``NaN`` and ``Infinity`` are not)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return 0 < float(x) < math.inf
    except OverflowError:  # an int past the float range
        return False


def parse_config(text: str, overrides: Mapping | None = None) -> dict:
    """Parse and validate a JSON run configuration into the ``config`` object
    a report prints, plus ``out`` when it is given.

    ``overrides`` (top-level field -> value, as the command-line flags give
    them) replace the config's own fields before any check, so an override
    is held to the same schema.  Every violation is collected and reported
    with a JSON pointer path.
    """
    c = _Collector()
    try:
        raw = json.loads(text)
    # a JSONDecodeError and an int literal past the digit limit are ValueErrors
    except (ValueError, RecursionError) as exc:  # too deep a nesting
        raise SchemaError([("", f"invalid JSON: {exc}")]) from exc
    if not isinstance(raw, dict):
        raise SchemaError([("", "top-level value must be an object")])
    raw.update(overrides or {})

    _check_known(c, "", raw, ("schema_version", "model", "map", "ample",
                              "analyses", "M", "tol", "out"))

    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        c.add("/schema_version", f"unsupported schema version {version!r}")

    before = len(c.violations)
    model_kind = _kind_of(c, raw, "model", tuple(_MODELS), UnknownModelKind)
    if model_kind is not None:
        fields, maps, _, checked = _MODELS[model_kind]
        _check_fields(c, "/model", raw["model"], fields)
    map_kind = _kind_of(c, raw, "map", tuple(_MAPS))
    if map_kind is not None:
        if model_kind is not None and map_kind not in maps + ("matrices", "identity"):
            c.add(
                "/map/kind",
                f"map kind {map_kind!r} does not apply to model kind {model_kind!r}",
            )
        _check_fields(c, "/map", raw["map"], _MAPS[map_kind])
    if len(c.violations) == before and checked:  # kinds known, fields valid
        check = getattr(_kind_module(model_kind), f"check_{model_kind}")
        check(c, raw["model"], raw["map"])

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
            _check_known(c, "/ample", ample, ("coords",))
            _check_vector(c, "/ample/coords", ample["coords"])

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        c.add("/out", "expected a string path")
    elif out is not None and "\0" in out:  # open() would raise
        c.add("/out", "path contains a NUL byte")

    c.raise_if_any()
    given = {key: raw[key] for key in ("ample", "out") if raw.get(key) is not None}
    return {"schema_version": SCHEMA_VERSION, "model": raw["model"],
            "map": raw["map"], "analyses": analyses, "M": m_max,
            "tol": float(tol), **given}


# ---------------------------------------------------------------------------
# model/map assembly
# ---------------------------------------------------------------------------

def build_model_and_map(config: dict) -> tuple[EmbeddedModel, PullbackMap]:
    spec, map_spec, ample = config["model"], config["map"], config.get("ample")
    kind = spec["kind"]
    model, pull = getattr(_kind_module(kind), f"build_{kind}")(spec, map_spec)
    from .models import EmbeddedModel, check_divisor  # loaded by the builder

    c, dims = _Collector(), model.algebra.dims  # known only once built
    if ample is not None:
        check_divisor(c, "/ample/coords", ample["coords"], dims)
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
        stated = model.realizability if kind == "custom" else "unverified"
        pull = validate_pullback(model.algebra, map_spec["blocks"], stated)

    if ample is not None:
        h = model.algebra.homogeneous(2, ample["coords"])
        try:
            model = EmbeddedModel(
                model.algebra, h, model.ambient_dim, model.realizability,
                model.provenance, model.effective, model.scope_note,
            ).validate()
        except (ShapeMismatch, AmpleNotPositive) as exc:
            # h^r = 0, deg(X) <= 0, or negative on an effective class
            raise SchemaError([("/ample/coords", str(exc))]) from exc
    return model, pull


# ---------------------------------------------------------------------------
# analyses
# ---------------------------------------------------------------------------

def _model_summary(model: EmbeddedModel) -> dict:
    """The model fields that ``validate`` and every report print."""
    return {
        "provenance": model.provenance,
        "ambient_dim": model.ambient_dim,
        "deg_x": model.deg_x,
        "dims": list(model.algebra.dims),
        "realizability": model.realizability,
    }


def _section_writer(analysis: str):
    module = importlib.import_module(f".{_SECTIONS[analysis][0]}", __package__)
    return getattr(module, analysis.replace("-", "_") + "_section")


def run(config: dict, model: EmbeddedModel, pull: PullbackMap) -> dict:
    """The results of every requested analysis of ``pull`` on ``model``, by
    analysis; deterministic for identical configs."""
    results = {"model_summary": {
        **_model_summary(model), "r": model.r,
        "map_realizability": pull.realizability,
    }}
    requested = config["analyses"]
    shared, takes = {None: ()}, {_SECTIONS[a][1] for a in requested}
    if "table" in takes:
        from .degrees import delta_table

        shared["table"] = (delta_table(model, pull, config["M"]),)
    if "closure" in takes:
        from .gromov import gromov_closure

        shared["closure"] = (gromov_closure(pull, model.h),)
    for analysis in dict.fromkeys(requested):
        write = _section_writer(analysis)
        results[analysis] = write(model, pull, config, *shared[_SECTIONS[analysis][1]])
    return results


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

USAGE = """\
usage: dyndeg {report,validate,delta} --config PATH [--out PATH]
              [--max-power M] [--tol TOL]

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


def _parse_argv(argv: Sequence[str]) -> tuple[str, str, dict] | None:
    """``(command, config path, overrides)``, or None for help.

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
    values = {}
    while rest:
        token = rest.pop(0)
        if token in _HELP:
            return None
        flag, eq, value = token.partition("=")
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
    return command, path, values


def _load_config(path: str, overrides: dict) -> dict:
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
    """Write ``report_json`` to ``out_path``, or to stdout and flush it."""
    try:
        if not out_path:
            sys.stdout.write(report_json)
            sys.stdout.flush()
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(report_json)
    except OSError as exc:  # a missing directory, a directory, a closed pipe
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
        return _emit(USAGE, None)
    command, path, overrides = parsed

    try:
        config = _load_config(path, overrides)
    except OSError as exc:
        return _io_error(exc)
    except SchemaError as exc:
        return _fail(exc, 2)
    # the output path is delivery metadata, not an analysis input, so it
    # stays out: report bytes depend only on what was computed
    out = config.pop("out", None)
    try:
        model, pull = build_model_and_map(config)
    except DynDegError as exc:  # bad input: the model or the map is invalid
        return _fail(exc, 2)

    if command == "validate":
        summary = dumps_canonical({
            "ok": True,
            "model": _model_summary(model),
            "map": {"realizability": pull.realizability},
        })
        return _emit(summary, out)

    if command == "delta":
        config = {**config, "analyses": ["delta-table"]}
    try:
        results = run(config, model, pull)
    except DynDegError as exc:  # valid input that an analysis cannot handle
        return _fail(exc, 3)
    return _emit(dumps_canonical({
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": config,
        "results": results,
    }), out)


def entry() -> NoReturn:
    """Run ``main`` as the whole process: the ``dyndeg`` console script and
    ``python -m dyndeg``.

    Once stdout and stderr are flushed, ``os._exit`` ends the process with
    ``main``'s code and skips interpreter finalization: module teardown and
    the last full garbage collection, about 10 ms that a one-shot command
    does not need.  Skipped with them are ``atexit`` handlers, ``logging``
    shutdown and the closing of any other open file.  Nothing in this
    package registers or holds one: ``_emit`` closes an ``--out`` file
    before ``main`` returns.  ``main`` has flushed what it wrote to stdout,
    or reported the failure as an ``IOError`` (exit 2), so a failed flush
    here repeats one already on stderr.  An exception that escapes ``main``
    propagates, and the interpreter ends as usual, with its traceback.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    entry()
