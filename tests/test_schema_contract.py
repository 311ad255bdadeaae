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


# replacement values: small enough that no mutant grows past abelian g = 2
POOL = (-1, 0, 1, 2, True, "x", "1/2", [], {}, [[1]])
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
