"""Custom models: an algebra, ample class and effective classes written out
in a config (model kind "custom").

Besides the builder this module holds the kind's config adapter and its
cross-field check (the dimensions, ``h``, ``unit``, ``integrate``, the
products and the effective classes against ``dims``), so only a custom
config compiles them.  A custom model takes no map kind of its own: its map
is the identity or the config's ``matrices``.
"""

from __future__ import annotations

from collections.abc import Mapping

# ``core.build_algebra`` is looked up when called, so a wrapper bound there
# (a tracer's) is the one that runs
from . import COMMUTATIVE, core, endo
from .errors import AmpleNotPositive, SchemaError, ShapeMismatch
from .linalg import as_fraction
from .models import (EffectiveClass, EmbeddedModel, check_divisor,
                     check_length)


def custom_model(params: Mapping) -> EmbeddedModel:
    """Build a model from the CLI's custom-model schema (kind "custom").

    Everything is validated; realizability is "unverified" unless overridden.
    A pullback comes from ``validate_pullback`` on the model's algebra.
    """
    top = int(params["top_degree"])
    dims = [int(d) for d in params["dims"]]
    sign_rule = params.get("sign_rule", COMMUTATIVE)
    products = {}
    for entry in params.get("products", ()):
        (i, p), (j, q) = entry["a"], entry["b"]
        value = entry["value"]
        items = value.items() if isinstance(value, Mapping) else value
        products[((int(i), int(p)), (int(j), int(q)))] = {
            int(k): as_fraction(c) for k, c in items}
    algebra = core.build_algebra(
        top, dims, sign_rule, products,
        integrate=[as_fraction(c) for c in params["integrate"]],
        unit=[as_fraction(c) for c in params.get("unit", (1,))],
    )
    h = algebra.homogeneous(2, [as_fraction(c) for c in params["h"]])
    effective = tuple(
        EffectiveClass(
            e.get("label", f"effective[{i}]"),
            algebra.homogeneous(
                int(e["degree"]), [as_fraction(c) for c in e["coords"]]
            ),
        )
        for i, e in enumerate(params.get("effective", ()))
    )
    return EmbeddedModel(
        algebra,
        h,
        ambient_dim=int(params["ambient_dim"]),
        realizability=params.get("realizability", "unverified"),
        provenance="custom",
        effective=effective,
    ).validate()


def build_custom(spec, map_spec):
    """The model of a custom config, with the identity map."""
    try:
        model = custom_model({k: v for k, v in spec.items() if k != "kind"})
    except (ShapeMismatch, AmpleNotPositive) as exc:
        # ``check_custom`` passed every shape, so h is what is left: h^r = 0,
        # deg(X) <= 0, or h not positive on an effective class
        raise SchemaError([("/model/h", str(exc))]) from exc
    return model, endo.identity_map(model.algebra)


def check_custom(c, spec, map_spec) -> None:
    """What ``custom_model`` would reject, with JSON pointers."""
    dims = spec["dims"]
    if len(dims) != spec["top_degree"] + 1:
        c.add("/model/dims", "expected top_degree + 1 dimensions")
        return
    if dims[0] != 1:
        c.add("/model/dims/0", "expected 1: degree 0 is spanned by the unit")
    check_divisor(c, "/model/h", spec["h"], dims)
    for key, degree, zero_path, what in (
        ("unit", 0, "/model/unit/0", "unit coordinate"),
        ("integrate", len(dims) - 1, "/model/integrate", "functional"),
    ):
        if key in spec and check_length(
            c, f"/model/{key}", spec[key], degree, dims
        ) and not any(map(as_fraction, spec[key])):
            c.add(zero_path, f"expected a nonzero {what}")
    _check_products(c, spec["products"], dims)
    for k, e in enumerate(spec.get("effective", ())):
        check_length(c, f"/model/effective/{k}/coords", e["coords"],
                     e["degree"], dims, f"/model/effective/{k}/degree")


def _check_products(c, products, dims) -> None:
    """Each entry multiplies two basis elements whose degrees sum to at most
    the top degree, into coordinates below ``dims[i + j]``; no two entries
    multiply the same ordered pair, and no entry names a coordinate twice."""
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
        elif len(set(coords := [int(key) for key in keys])) < len(coords):
            c.add(f"{path}/value",
                  f"repeats coordinate {max(coords, key=coords.count)}")
