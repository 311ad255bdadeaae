"""The CLI's schema contract, pinned entry by entry and fuzzed.

``CORPUS`` holds malformed configs: the benchmark's malformed configs, the
two configs that once crashed the schema pass, and, for every field of every
model and map kind, one config with the field missing and one with a value of
the wrong type.  ``EXPECTED`` pins what ``dyndeg validate`` reports for each:
the error class and the set of JSON pointers (``"ok"`` for exit 0).
"""

import contextlib
import copy
import io
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dyndeg.cli import main

CUSTOM = {
    "kind": "custom",
    "top_degree": 4,
    "dims": [1, 0, 1, 0, 1],
    "sign_rule": "commutative",
    "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
    "integrate": [1],
    "unit": [1],
    "h": [1],
    "ambient_dim": 2,
    "effective": [{"label": "line", "degree": 2, "coords": [1]}],
    "realizability": "unverified",
}

# one valid (model, map) pair per model kind, every optional field present
VALID = {
    "projective": ({"kind": "projective", "n": 2}, {"kind": "power", "d": 2}),
    "multiprojective": (
        {"kind": "multiprojective", "n": [1, 1]},
        {"kind": "product", "d": [2, 3], "perm": [1, 0]},
    ),
    "abelian": (
        {"kind": "abelian", "g": 1, "omega": [[0, 1, 1]]},
        {"kind": "exterior", "matrix": [[2, 0], [0, 2]]},
    ),
    "surface_lattice": (
        {"kind": "surface_lattice", "gram": [[1, 0], [0, -2]],
         "ample": [1, 0], "ambient_dim": 3},
        {"kind": "isometry", "matrix": [[3, 4], [2, 3]]},
    ),
    "custom": (CUSTOM, {"kind": "matrices",
                        "blocks": [[[1]], [], [[2]], [], [[4]]]}),
}


def config(model, map_spec, **top):
    return {"model": model, "map": map_spec, "analyses": ["chain"], **top}


def _field_mutations():
    """Each field of each kind, missing and with a wrong-typed value."""
    out = {}
    for kind, (model, map_spec) in VALID.items():
        for part, spec in (("model", model), ("map", map_spec)):
            for key, value in spec.items():
                wrong = 5 if isinstance(value, str) and key != "kind" else "x"
                for label, mutate in (("missing", None), ("wrong", wrong)):
                    mutated = copy.deepcopy(spec)
                    if mutate is None:
                        del mutated[key]
                    else:
                        mutated[key] = mutate
                    pair = {"model": model, "map": map_spec, part: mutated}
                    out[f"{kind}/{part}/{key}/{label}"] = config(
                        pair["model"], pair["map"])
    return out


_P2 = config({"kind": "projective", "n": 2}, {"kind": "power", "d": 2})
_DELTA = {"schema_version": "1", "model": {"kind": "projective", "n": 2},
          "map": {"kind": "power", "d": 2}, "analyses": ["delta-table"],
          "M": 16}

CORPUS = {
    **_field_mutations(),
    # the malformed configs of the benchmark's cli-small workload
    "bench/crash-custom-product": {
        "schema_version": "1",
        "model": {"kind": "custom", "top_degree": 2, "dims": [1, 0, 1],
                  "products": [{"a": "x", "b": [2, 0], "value": {"0": 1}}],
                  "integrate": [1], "h": [1], "ambient_dim": 1},
        "map": {"kind": "identity"},
        "analyses": ["delta-table"],
    },
    "bench/crash-map-blocks": {
        **_DELTA, "model": {"kind": "projective", "n": 1},
        "map": {"kind": "matrices", "blocks": [[[1]], [], [["x"]]]},
    },
    "bench/bad-model-kind": {**_DELTA,
                             "model": {"kind": "grassmannian", "n": 2}},
    "bench/bad-M": {**_DELTA, "M": 0},
    "bench/bad-analysis": {**_DELTA, "analyses": ["delta-table", "entropy"]},
    "bench/bad-tol": {**_DELTA, "tol": -1},
    "bench/ragged-matrix": {
        **_DELTA, "model": {"kind": "abelian", "g": 1},
        "map": {"kind": "exterior", "matrix": [[1, 0], [0]]},
    },
    "bench/missing-map": {k: v for k, v in _DELTA.items() if k != "map"},
    # test_cli's BAD_PRODUCT and BAD_BLOCK
    "bad-product": {
        "model": {"kind": "custom", "top_degree": 2, "dims": [1, 0, 1],
                  "products": [{"a": "x", "b": [2, 0], "value": {"0": 1}}],
                  "integrate": [1], "h": [1], "ambient_dim": 1},
        "map": {"kind": "identity"},
        "analyses": ["delta-table"],
    },
    "bad-block": {
        "model": {"kind": "projective", "n": 1},
        "map": {"kind": "matrices", "blocks": [[[1]], [], [["x"]]]},
        "analyses": ["delta-table"],
    },
    # entries of list fields, the map kinds without a native model, and the
    # top-level fields
    "abelian/model/omega/entry": config(
        {"kind": "abelian", "g": 1, "omega": [["x"]]}, {"kind": "identity"}),
    "custom/model/products/entry": config(
        {**CUSTOM, "products": [5]}, {"kind": "identity"}),
    "custom/model/effective/entry": config(
        {**CUSTOM, "effective": [5]}, {"kind": "identity"}),
    "custom/model/dims/entry": config(
        {**CUSTOM, "dims": [1, 0, "x", 0, 1]}, {"kind": "identity"}),
    # a zero unit and a zero integration functional
    "custom/model/unit/zero": config(
        {**CUSTOM, "unit": [0]}, {"kind": "identity"}),
    "custom/model/integrate/zero": config(
        {**CUSTOM, "integrate": ["0/3"]}, {"kind": "identity"}),
    "projective/map/blocks/missing": config(
        {"kind": "projective", "n": 1}, {"kind": "matrices"}),
    "projective/map/blocks/wrong": config(
        {"kind": "projective", "n": 1}, {"kind": "matrices", "blocks": "x"}),
    "projective/map/blocks/entry": config(
        {"kind": "projective", "n": 1}, {"kind": "matrices", "blocks": [7]}),
    "projective/map/identity/extra": config(
        {"kind": "projective", "n": 1}, {"kind": "identity", "d": 2}),
    "projective/map/exterior": config(
        {"kind": "projective", "n": 1}, {"kind": "exterior", "matrix": [[1]]}),
    "custom/map/power": config(CUSTOM, {"kind": "power", "d": 2}),
    "map/kind/unknown": config({"kind": "projective", "n": 1},
                               {"kind": "shift"}),
    "model/not-object": config("x", {"kind": "identity"}),
    "map/not-object": config({"kind": "projective", "n": 1}, "x"),
    "top/missing-model": {"map": {"kind": "identity"}, "analyses": ["chain"]},
    "top/analyses/missing": {k: v for k, v in _P2.items() if k != "analyses"},
    "top/analyses/wrong": {**_P2, "analyses": "x"},
    "top/M/wrong": {**_P2, "M": "x"},
    "top/tol/wrong": {**_P2, "tol": "x"},
    "top/tol/nan": {**_P2, "tol": float("nan")},
    "top/tol/infinity": {**_P2, "tol": float("inf")},
    "top/tol/past-float": {**_P2, "tol": 10 ** 400},
    "top/ample/wrong": {**_P2, "ample": "x"},
    "top/ample/coords": {**_P2, "ample": {"coords": ["x"]}},
    "top/out/wrong": {**_P2, "out": 5},
    "top/unknown": {**_P2, "junk": 1},
    "top/schema_version": {**_P2, "schema_version": "2"},
}


def validate(cfg, tmp_path):
    """Exit code, stdout and stderr of ``dyndeg validate`` on ``cfg``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def outcome(cfg, tmp_path):
    """``("ok", [])``, or the error class and sorted JSON pointers."""
    code, _, err = validate(cfg, tmp_path)
    if code == 0:
        return ("ok", [])
    payload = json.loads(err)
    paths = sorted({v["path"] for v in payload.get("violations", ())})
    return (payload["error"], paths)


# recorded with the per-kind schema code that preceded the kind tables
EXPECTED = {
    'projective/model/kind/missing': ('UnknownModelKind', ['/model/kind']),
    'projective/model/kind/wrong': ('UnknownModelKind', ['/model/kind']),
    'projective/model/n/missing': ('SchemaError', ['/model/n']),
    'projective/model/n/wrong': ('SchemaError', ['/model/n']),
    'projective/map/kind/missing': ('SchemaError', ['/map/kind']),
    'projective/map/kind/wrong': ('SchemaError', ['/map/kind']),
    'projective/map/d/missing': ('SchemaError', ['/map/d']),
    'projective/map/d/wrong': ('SchemaError', ['/map/d']),
    'multiprojective/model/kind/missing': ('UnknownModelKind', ['/model/kind']),
    'multiprojective/model/kind/wrong': ('UnknownModelKind', ['/model/kind']),
    'multiprojective/model/n/missing': ('SchemaError', ['/model/n']),
    'multiprojective/model/n/wrong': ('SchemaError', ['/model/n']),
    'multiprojective/map/kind/missing': ('SchemaError', ['/map/kind']),
    'multiprojective/map/kind/wrong': ('SchemaError', ['/map/kind']),
    'multiprojective/map/d/missing': ('SchemaError', ['/map/d']),
    'multiprojective/map/d/wrong': ('SchemaError', ['/map/d']),
    'multiprojective/map/perm/missing': ('SchemaError', ['/map/perm']),
    'multiprojective/map/perm/wrong': ('SchemaError', ['/map/perm']),
    'abelian/model/kind/missing': ('UnknownModelKind', ['/model/kind']),
    'abelian/model/kind/wrong': ('UnknownModelKind', ['/model/kind']),
    'abelian/model/g/missing': ('SchemaError', ['/model/g']),
    'abelian/model/g/wrong': ('SchemaError', ['/model/g']),
    'abelian/model/omega/missing': ('ok', []),
    'abelian/model/omega/wrong': ('SchemaError', ['/model/omega']),
    'abelian/map/kind/missing': ('SchemaError', ['/map/kind']),
    'abelian/map/kind/wrong': ('SchemaError', ['/map/kind']),
    'abelian/map/matrix/missing': ('SchemaError', ['/map/matrix']),
    'abelian/map/matrix/wrong': ('BadMatrixShape', ['/map/matrix']),
    'surface_lattice/model/kind/missing': ('UnknownModelKind', ['/model/kind']),
    'surface_lattice/model/kind/wrong': ('UnknownModelKind', ['/model/kind']),
    'surface_lattice/model/gram/missing': ('SchemaError', ['/model/gram']),
    'surface_lattice/model/gram/wrong': ('BadMatrixShape', ['/model/gram']),
    'surface_lattice/model/ample/missing': ('SchemaError', ['/model/ample']),
    'surface_lattice/model/ample/wrong': ('SchemaError', ['/model/ample']),
    'surface_lattice/model/ambient_dim/missing': ('ok', []),
    'surface_lattice/model/ambient_dim/wrong': ('SchemaError', ['/model/ambient_dim']),
    'surface_lattice/map/kind/missing': ('SchemaError', ['/map/kind']),
    'surface_lattice/map/kind/wrong': ('SchemaError', ['/map/kind']),
    'surface_lattice/map/matrix/missing': ('SchemaError', ['/map/matrix']),
    'surface_lattice/map/matrix/wrong': ('BadMatrixShape', ['/map/matrix']),
    'custom/model/kind/missing': ('UnknownModelKind', ['/model/kind']),
    'custom/model/kind/wrong': ('UnknownModelKind', ['/model/kind']),
    'custom/model/top_degree/missing': ('SchemaError', ['/model/top_degree']),
    'custom/model/top_degree/wrong': ('SchemaError', ['/model/top_degree']),
    'custom/model/dims/missing': ('SchemaError', ['/model/dims']),
    'custom/model/dims/wrong': ('SchemaError', ['/model/dims']),
    'custom/model/sign_rule/missing': ('ok', []),
    'custom/model/sign_rule/wrong': ('SchemaError', ['/model/sign_rule']),
    'custom/model/products/missing': ('SchemaError', ['/model/products']),
    'custom/model/products/wrong': ('SchemaError', ['/model/products']),
    'custom/model/integrate/missing': ('SchemaError', ['/model/integrate']),
    'custom/model/integrate/wrong': ('SchemaError', ['/model/integrate']),
    'custom/model/unit/missing': ('ok', []),
    'custom/model/unit/wrong': ('SchemaError', ['/model/unit']),
    'custom/model/h/missing': ('SchemaError', ['/model/h']),
    'custom/model/h/wrong': ('SchemaError', ['/model/h']),
    'custom/model/ambient_dim/missing': ('SchemaError', ['/model/ambient_dim']),
    'custom/model/ambient_dim/wrong': ('SchemaError', ['/model/ambient_dim']),
    'custom/model/effective/missing': ('ok', []),
    'custom/model/effective/wrong': ('SchemaError', ['/model/effective']),
    'custom/model/realizability/missing': ('ok', []),
    'custom/model/realizability/wrong': ('SchemaError', ['/model/realizability']),
    'custom/map/kind/missing': ('SchemaError', ['/map/kind']),
    'custom/map/kind/wrong': ('SchemaError', ['/map/kind']),
    'custom/map/blocks/missing': ('SchemaError', ['/map/blocks']),
    'custom/map/blocks/wrong': ('SchemaError', ['/map/blocks']),
    'bench/crash-custom-product': ('SchemaError', ['/model/products/0/a']),
    'bench/crash-map-blocks': ('BadMatrixShape', ['/map/blocks/2/0/0']),
    'bench/bad-model-kind': ('UnknownModelKind', ['/model/kind']),
    'bench/bad-M': ('SchemaError', ['/M']),
    'bench/bad-analysis': ('SchemaError', ['/analyses/1']),
    'bench/bad-tol': ('SchemaError', ['/tol']),
    'bench/ragged-matrix': ('BadMatrixShape', ['/map/matrix/1']),
    'bench/missing-map': ('SchemaError', ['/map']),
    'bad-product': ('SchemaError', ['/model/products/0/a']),
    'bad-block': ('BadMatrixShape', ['/map/blocks/2/0/0']),
    'abelian/model/omega/entry': ('SchemaError', ['/model/omega/0']),
    'custom/model/products/entry': ('SchemaError', ['/model/products/0']),
    'custom/model/effective/entry': ('SchemaError', ['/model/effective/0']),
    'custom/model/dims/entry': ('SchemaError', ['/model/dims']),
    # once a bare UnitViolation and a bare ShapeMismatch, with no pointer
    'custom/model/unit/zero': ('SchemaError', ['/model/unit/0']),
    'custom/model/integrate/zero': ('SchemaError', ['/model/integrate']),
    'projective/map/blocks/missing': ('SchemaError', ['/map/blocks']),
    'projective/map/blocks/wrong': ('SchemaError', ['/map/blocks']),
    'projective/map/blocks/entry': ('BadMatrixShape', ['/map/blocks/0']),
    'projective/map/identity/extra': ('SchemaError', ['/map/d']),
    'projective/map/exterior': ('SchemaError', ['/map/kind']),
    'custom/map/power': ('SchemaError', ['/map/kind']),
    'map/kind/unknown': ('SchemaError', ['/map/kind']),
    'model/not-object': ('SchemaError', ['/model']),
    'map/not-object': ('SchemaError', ['/map']),
    'top/missing-model': ('SchemaError', ['/model']),
    'top/analyses/missing': ('SchemaError', ['/analyses']),
    'top/analyses/wrong': ('SchemaError', ['/analyses']),
    'top/M/wrong': ('SchemaError', ['/M']),
    'top/tol/wrong': ('SchemaError', ['/tol']),
    'top/tol/nan': ('SchemaError', ['/tol']),
    'top/tol/infinity': ('SchemaError', ['/tol']),
    'top/tol/past-float': ('SchemaError', ['/tol']),
    'top/ample/wrong': ('SchemaError', ['/ample']),
    'top/ample/coords': ('SchemaError', ['/ample/coords/0']),
    'top/out/wrong': ('SchemaError', ['/out']),
    'top/unknown': ('SchemaError', ['/junk']),
    'top/schema_version': ('SchemaError', ['/schema_version']),
}


def test_corpus_outcomes_are_unchanged(tmp_path):
    got = {name: outcome(cfg, tmp_path) for name, cfg in CORPUS.items()}
    assert got == EXPECTED


def _custom(**fields):
    return config({**CUSTOM, **fields}, {"kind": "identity"})


NOT_OMEGA_H = "omega is not ample: it is not omega_H for a positive definite H"

# A (x) I_2 on E x E, A = [[2, 1], [1, 1]]: asserted
_E_SQUARED_MAP = {"kind": "exterior", "matrix": [[2, 0, 1, 0], [0, 2, 0, 1],
                                                 [1, 0, 1, 0], [0, 1, 0, 1]]}


# configs that were once accepted (booleans as integers, a negative degree)
# or crashed with a traceback (a degree above the top, an unhashable kind)
REJECTED = {
    "lattice-ambient-dim-bool": (
        config({**VALID["surface_lattice"][0], "ambient_dim": True},
               {"kind": "identity"}),
        ("SchemaError", ["/model/ambient_dim"]),
    ),
    "custom-dims-bool": (
        _custom(dims=[True, 0, 1, 0, 1]), ("SchemaError", ["/model/dims"]),
    ),
    "effective-degree-above-top": (
        _custom(effective=[{"degree": 7, "coords": [1]}]),
        ("SchemaError", ["/model/effective/0/degree"]),
    ),
    "effective-degree-negative": (
        _custom(effective=[{"degree": -1, "coords": [1]}]),
        ("SchemaError", ["/model/effective/0/degree"]),
    ),
    "h-above-top-degree": (
        _custom(top_degree=1, dims=[1, 1], products=[], effective=[]),
        ("SchemaError", ["/model/h"]),
    ),
    "model-kind-list": (
        config({"kind": [], "n": 2}, {"kind": "power", "d": 2}),
        ("UnknownModelKind", ["/model/kind"]),
    ),
    # accepted and passed through str(), or rejected by a builder with no
    # JSON pointer
    "effective-label-int": (
        _custom(effective=[{"label": 5, "degree": 2, "coords": [1]}]),
        ("SchemaError", ["/model/effective/0/label"]),
    ),
    "custom-dims-length": (
        _custom(dims=[1, 0, 1]), ("SchemaError", ["/model/dims"]),
    ),
    "abelian-omega-index": (
        config({"kind": "abelian", "g": 1, "omega": [[0, 1, 1], [0, 2, 1]]},
               {"kind": "identity"}),
        ("SchemaError", ["/model/omega/1"]),
    ),
    # repeated entries, which a dict keyed by the pair once merged silently
    "abelian-omega-repeat": (
        config({"kind": "abelian", "g": 2,
                "omega": [[0, 1, 1], [0, 1, 1], [2, 3, 1]]},
               {"kind": "identity"}),
        ("SchemaError", ["/model/omega/1"]),
    ),
    # a degenerate (omega^g = 0) and a negative (deg(X) < 0) polarization,
    # once rejected by the abelian build with no JSON pointer
    "abelian-omega-degenerate": (
        config({"kind": "abelian", "g": 1, "omega": [[0, 1, 0]]},
               {"kind": "identity"}),
        ("SchemaError", ["/model/omega"]),
    ),
    "abelian-omega-negative": (
        config({"kind": "abelian", "g": 1, "omega": [[0, 1, -1]]},
               {"kind": "identity"}),
        ("SchemaError", ["/model/omega"]),
    ),
    # deg(X) > 0, yet no ample class: omega in wedge^2 V (x) Sym^2 W, once
    # asserted with an equality verdict that failed, and omega_H for the
    # indefinite H = diag(1, -1, -1)
    "abelian-omega-no-divisor-class": (
        config({"kind": "abelian", "g": 2, "omega": [[0, 2, 1], [1, 3, -1]]},
               _E_SQUARED_MAP),
        ("SchemaError", ["/model/omega"]),
    ),
    "abelian-omega-indefinite": (
        config({"kind": "abelian", "g": 3,
                "omega": [[0, 1, 1], [2, 3, -1], [4, 5, -1]]},
               {"kind": "identity"}),
        ("SchemaError", ["/model/omega"]),
    ),
    # the same rule on the ample override, which once skipped it: omega_I
    # plus e_0^e_2 - e_1^e_3 (no divisor class), and omega_I plus
    # e_0^e_3 + e_1^e_2 (a wedge^2 V (x) Sym^2 W part), with A (x) I_2
    "abelian-ample-no-divisor-class": (
        config({"kind": "abelian", "g": 2}, _E_SQUARED_MAP,
               ample={"coords": [1, 1, 0, 0, -1, 1]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    "abelian-ample-mixed-part": (
        config({"kind": "abelian", "g": 2}, _E_SQUARED_MAP,
               ample={"coords": [1, 0, 1, 1, 0, 1]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    # an ample override with deg(X) < 0 and one with h^r = 0, once rejected
    # by the model check with no JSON pointer
    "ample-degree-negative": (
        config({"kind": "projective", "n": 1}, {"kind": "power", "d": 2},
               ample={"coords": [-1]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    "ample-top-power-zero": (
        config({"kind": "multiprojective", "n": [1, 1]},
               {"kind": "product", "d": [2, 3], "perm": [0, 1]},
               ample={"coords": [1, 0]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    "product-repeat": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]},
                          {"a": [2, 0], "b": [2, 0], "value": {"0": 3}}]),
        ("SchemaError", ["/model/products/1"]),
    ),
    "abelian-matrix-size": (
        config({"kind": "abelian", "g": 1},
               {"kind": "exterior", "matrix": [[1, 0, 0]] * 3}),
        ("SchemaError", ["/map/matrix"]),
    ),
    "product-perm-dims": (
        config({"kind": "multiprojective", "n": [1, 2]},
               {"kind": "product", "d": [1, 1], "perm": [1, 0]}),
        ("SchemaError", ["/map/perm"]),
    ),
    "product-perm-not-a-permutation": (
        config({"kind": "multiprojective", "n": [1, 1]},
               {"kind": "product", "d": [1, 1], "perm": [0, 0]}),
        ("SchemaError", ["/map/perm"]),
    ),
    "product-d-length": (
        config({"kind": "multiprojective", "n": [1, 1]},
               {"kind": "product", "d": [1], "perm": [0, 1]}),
        ("SchemaError", ["/map/d"]),
    ),
    "lattice-gram-not-square": (
        config({"kind": "surface_lattice", "gram": [[1, 0, 0], [0, -2, 0]],
                "ample": [1, 0]}, {"kind": "identity"}),
        ("SchemaError", ["/model/gram"]),
    ),
    "lattice-ample-length": (
        config({"kind": "surface_lattice", "gram": [[1, 0], [0, -2]],
                "ample": [1, 0, 0]}, {"kind": "identity"}),
        ("SchemaError", ["/model/ample"]),
    ),
    "lattice-matrix-size": (
        config({**VALID["surface_lattice"][0]},
               {"kind": "isometry", "matrix": [[1]]}),
        ("SchemaError", ["/map/matrix"]),
    ),
    # coordinate vectors and matrices that do not fit the graded dimensions,
    # once rejected by a builder with no JSON pointer
    "custom-dims-0": (
        _custom(dims=[2, 0, 1, 0, 1], unit=[1, 1]),
        ("SchemaError", ["/model/dims/0"]),
    ),
    "custom-h-length": (
        _custom(h=[1, 2]), ("SchemaError", ["/model/h"]),
    ),
    "custom-unit-length": (
        _custom(unit=[1, 1]), ("SchemaError", ["/model/unit"]),
    ),
    "custom-integrate-length": (
        _custom(integrate=[1, 2]), ("SchemaError", ["/model/integrate"]),
    ),
    "effective-coords-length": (
        _custom(effective=[{"degree": 2, "coords": [1, 0]}]),
        ("SchemaError", ["/model/effective/0/coords"]),
    ),
    "ample-coords-length": (
        config(*VALID["projective"], ample={"coords": [1, 0]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    "matrices-block-count": (
        config({"kind": "projective", "n": 1},
               {"kind": "matrices", "blocks": [[[1]]]}),
        ("SchemaError", ["/map/blocks"]),
    ),
    "matrices-block-size": (
        config({"kind": "projective", "n": 1},
               {"kind": "matrices", "blocks": [[[1]], [[1]], [[2, 0], [0, 2]]]}),
        ("SchemaError", ["/map/blocks/1", "/map/blocks/2"]),
    ),
    # products outside the grading and zero divisor classes, once rejected
    # by the algebra or model build with no JSON pointer
    "product-degree-above-top": (
        _custom(products=[{"a": [5, 0], "b": [2, 0], "value": [[0, 1]]}]),
        ("SchemaError", ["/model/products/0/a"]),
    ),
    "product-index-past-dims": (
        _custom(products=[{"a": [2, 0], "b": [2, 1], "value": [[0, 1]]}]),
        ("SchemaError", ["/model/products/0/b"]),
    ),
    "product-value-past-dims": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": {"1": 1}}]),
        ("SchemaError", ["/model/products/0/value"]),
    ),
    "product-degrees-past-top": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]},
                          {"a": [4, 0], "b": [2, 0], "value": [[0, 1]]}]),
        ("SchemaError", ["/model/products/1"]),
    ),
    "custom-h-zero": (
        _custom(h=["0"]), ("SchemaError", ["/model/h"]),
    ),
    "ample-coords-zero": (
        config(*VALID["projective"], ample={"coords": [{"num": "0", "den": "3"}]}),
        ("SchemaError", ["/ample/coords"]),
    ),
    # a zero unit and a zero functional, once rejected by the algebra build
    # or the model check with no JSON pointer
    "custom-unit-zero": (
        _custom(unit=["0"]), ("SchemaError", ["/model/unit/0"]),
    ),
    "custom-integrate-zero": (
        _custom(integrate=[{"num": "0", "den": "2"}]),
        ("SchemaError", ["/model/integrate"]),
    ),
    # a coordinate named twice in one product, whose later value once
    # overwrote the earlier
    "product-value-repeat-list": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": [[0, 1], [0, 2]]}]),
        ("SchemaError", ["/model/products/0/value"]),
    ),
    "product-value-repeat-object": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": {"0": 1, "00": 2}}]),
        ("SchemaError", ["/model/products/0/value"]),
    ),
    "product-value-repeat-mixed": (
        _custom(products=[{"a": [2, 0], "b": [2, 0],
                           "value": [["0", 1], [0, 5]]}]),
        ("SchemaError", ["/model/products/0/value"]),
    ),
    # a lattice or custom model that its builder rejected with no JSON
    # pointer: a gram matrix that is not symmetric, a map that is not an
    # isometry, an ample class that is not positive, and an h with h^r = 0,
    # deg(X) < 0 or negative on an effective class
    "lattice-gram-not-symmetric": (
        config({"kind": "surface_lattice", "gram": [[1, 1], [0, -2]],
                "ample": [1, 0]}, {"kind": "identity"}),
        ("SchemaError", ["/model/gram"]),
    ),
    "lattice-not-an-isometry": (
        config({"kind": "surface_lattice", "gram": [[1, 0], [0, -2]],
                "ample": [1, 0]}, {"kind": "isometry", "matrix": [[2, 0], [0, 1]]}),
        ("SchemaError", ["/map/matrix"]),
    ),
    "lattice-ample-not-positive": (
        config({"kind": "surface_lattice", "gram": [[1, 0], [0, -2]],
                "ample": [0, 1]}, {"kind": "identity"}),
        ("SchemaError", ["/model/ample"]),
    ),
    "custom-h-top-power-zero": (
        _custom(products=[], effective=[]), ("SchemaError", ["/model/h"]),
    ),
    "custom-degree-negative": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": [[0, -1]]}],
                effective=[]),
        ("SchemaError", ["/model/h"]),
    ),
    "custom-h-negative-on-effective": (
        _custom(effective=[{"label": "line", "degree": 2, "coords": [-1]}]),
        ("SchemaError", ["/model/h"]),
    ),
    # {num, den} scalars with a float, infinite or boolean part: 1.9 was
    # once read as 1, true as 1, and 1e400 crashed with an OverflowError
    "lattice-ample-num-float": (
        config({**VALID["surface_lattice"][0],
                "ample": [{"num": 1.9, "den": 1}, 0]},
               VALID["surface_lattice"][1]),
        ("SchemaError", ["/model/ample/0"]),
    ),
    "matrices-num-infinite": (
        config({"kind": "projective", "n": 1},
               {"kind": "matrices",
                "blocks": [[[1]], [], [[{"num": 1e400, "den": 1}]]]}),
        ("BadMatrixShape", ["/map/blocks/2/0/0"]),
    ),
    "ample-den-bool": (
        config(*VALID["projective"], ample={"coords": [{"num": 1, "den": True}]}),
        ("SchemaError", ["/ample/coords/0"]),
    ),
    # Fraction expanded the exponent exactly, for seconds
    "ample-exponent-huge": (
        config(*VALID["projective"], ample={"coords": ["1e10000000"]}),
        ("SchemaError", ["/ample/coords/0"]),
    ),
    # unknown fields inside nested objects, once silently accepted (a
    # misspelt effective label fell back to the first class)
    "ample-unknown-field": (
        config(*VALID["projective"], ample={"coords": [1], "colour": "red"}),
        ("SchemaError", ["/ample/colour"]),
    ),
    "product-unknown-field": (
        _custom(products=[{"a": [2, 0], "b": [2, 0], "value": [[0, 1]],
                           "note": "x"}]),
        ("SchemaError", ["/model/products/0/note"]),
    ),
    "effective-unknown-field": (
        _custom(effective=[{"lable": "line", "degree": 2, "coords": [1]}]),
        ("SchemaError", ["/model/effective/0/lable"]),
    ),
    # open() raised "embedded null byte" when the report was written
    "out-nul-byte": (
        config(*VALID["projective"], out="a\u0000b"),
        ("SchemaError", ["/out"]),
    ),
}


def test_rejected_configs_exit_two_under_validate_and_report(tmp_path):
    for name, (cfg, expected) in REJECTED.items():
        assert outcome(cfg, tmp_path) == expected, name
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["report", "--config", str(path)]) == 2, name
        assert out.getvalue() == ""
        assert json.loads(err.getvalue())["error"] == expected[0], name


def test_a_bad_polarization_keeps_its_message_at_the_omega_pointer(tmp_path):
    for name, message in (
        ("abelian-omega-degenerate",
         "omega^g = 0: not a valid polarization class"),
        ("abelian-omega-negative", "deg(X) = -1 must be positive"),
        ("abelian-omega-no-divisor-class", NOT_OMEGA_H),
    ):
        code, out, err = validate(REJECTED[name][0], tmp_path)
        assert (code, out) == (2, ""), name
        assert json.loads(err) == {"error": "SchemaError", "violations": [
            {"path": "/model/omega", "message": message}]}, name


def test_a_bad_ample_override_keeps_its_message_at_the_coords_pointer(
    tmp_path,
):
    for name, message in (
        ("ample-degree-negative", "deg(X) = -1 must be positive"),
        ("ample-top-power-zero", "h^r vanishes: h is not a valid ample class"),
        ("abelian-ample-no-divisor-class", NOT_OMEGA_H),
        ("abelian-ample-mixed-part", NOT_OMEGA_H),
    ):
        code, out, err = validate(REJECTED[name][0], tmp_path)
        assert (code, out) == (2, ""), name
        assert json.loads(err) == {"error": "SchemaError", "violations": [
            {"path": "/ample/coords", "message": message}]}, name


def test_a_bad_lattice_or_custom_model_keeps_its_message_at_its_pointer(
    tmp_path,
):
    for name, path, message in (
        ("lattice-gram-not-symmetric", "/model/gram",
         "gram matrix must be symmetric"),
        ("lattice-not-an-isometry", "/map/matrix",
         "isometry does not preserve the gram matrix"),
        ("lattice-ample-not-positive", "/model/ample",
         "ample self-intersection -2 is not positive"),
        ("custom-h-top-power-zero", "/model/h",
         "h^r vanishes: h is not a valid ample class"),
        ("product-value-repeat-object", "/model/products/0/value",
         "repeats coordinate 0"),
    ):
        code, out, err = validate(REJECTED[name][0], tmp_path)
        assert (code, out) == (2, ""), name
        assert json.loads(err) == {"error": "SchemaError", "violations": [
            {"path": path, "message": message}]}, name


def test_a_malformed_num_den_scalar_is_named_at_its_pointer(tmp_path):
    for name, path in (
        ("lattice-ample-num-float", "/model/ample/0"),
        ("matrices-num-infinite", "/map/blocks/2/0/0"),
        ("ample-den-bool", "/ample/coords/0"),
    ):
        code, out, err = validate(REJECTED[name][0], tmp_path)
        assert (code, out) == (2, ""), name
        assert json.loads(err)["violations"] == [
            {"path": path, "message": "expected an exact rational scalar"}], name


def test_a_nul_byte_in_out_is_named_at_its_pointer(tmp_path):
    code, out, err = validate(REJECTED["out-nul-byte"][0], tmp_path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "SchemaError", "violations": [
        {"path": "/out", "message": "path contains a NUL byte"}]}


def test_a_huge_decimal_exponent_exits_two_at_once(tmp_path):
    started = time.perf_counter()
    code, out, err = validate(REJECTED["ample-exponent-huge"][0], tmp_path)
    assert time.perf_counter() - started < 0.2
    assert (code, out) == (2, "")
    assert json.loads(err)["violations"] == [
        {"path": "/ample/coords/0", "message": "expected an exact rational scalar"}]


def test_an_integer_literal_past_the_digit_limit_is_a_schema_error(tmp_path):
    # json.dumps cannot write an int of 5,000 digits, so the text holds it
    path = tmp_path / "config.json"
    path.write_text('{"model": {"kind": "projective", "n": 1}, "map": '
                    '{"kind": "power", "d": ' + "7" * 5000 + '}, '
                    '"analyses": ["delta-table"]}', encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["report", "--config", str(path)]) == 2
    assert out.getvalue() == ""
    payload = json.loads(err.getvalue())
    assert payload["error"] == "SchemaError"
    assert [v["path"] for v in payload["violations"]] == [""]


# replacement values: small enough that no mutant grows past abelian g = 2
POOL = (-1, 0, 1, 2, True, "x", "1/2", [], {}, [[1]],
        {"num": 1.5, "den": 1}, {"num": float("inf"), "den": 1})
DELETE = object()
SEEDS = [config(model, map_spec) for model, map_spec in VALID.values()] + [
    config(model, {"kind": "identity"}) for model, _ in VALID.values()
] + [
    config({"kind": "projective", "n": 1},
           {"kind": "matrices", "blocks": [[[1]], [], [[2]]]},
           M=4, tol=1e-9, ample={"coords": [1]}),
]


def _paths(value, path=()):
    """Every location inside a JSON value, outermost first."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _paths(item, path + (key,))


@st.composite
def mutants(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        *head, last = draw(st.sampled_from([p for p in _paths(cfg) if p]))
        parent = cfg
        for key in head:
            parent = parent[key]
        new = draw(st.sampled_from(POOL + (DELETE,)))
        if new is DELETE:
            del parent[last]
        else:
            parent[last] = copy.deepcopy(new)
    return cfg


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutants())
def test_mutated_configs_keep_the_exit_code_contract(tmp_path, cfg):
    code, out, err = validate(cfg, tmp_path)
    assert code in (0, 2)
    if code:
        assert out == "" and isinstance(json.loads(err), dict)
    else:
        assert json.loads(out)["ok"] is True
