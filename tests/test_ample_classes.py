"""The main theorem as a property test: asserted maps against drawn ample
classes, through ``dyndeg report`` in process.

The paper's radius is reached from *any* ample class, so every draw of an
asserted map with an ample class must report ``equality_asserted`` and
``equality_holds``, whether the class is the model's own (an abelian
``omega``) or the ``ample`` override.  The ample cone is drawn per kind:

- on E^g, g <= 3, for E without CM: omega_H for H = L L^T positive definite,
  with the map A (x) I_2.  A nonzero wedge^2 V (x) Sym^2 W part, or an
  indefinite H, gives no ample class, and both routes refuse it at their
  pointer (``/model/omega``, ``/ample/coords``);
- on (P^n)^k, k <= 3, n_i <= 2: h = sum a_i h_i with every a_i >= 1, with a
  permuted product of power maps.  A class with some a_i = 0 is nef, not
  ample, and the override refuses it at ``/ample/coords``.

The control shows the property can fail: random integer matrices on E^g,
most of them no endomorphism, are never asserted, and some miss max mu.
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dyndeg.abelian import abelian_variety
from dyndeg.cli import main
from dyndeg.gromov import gromov_closure, spectral_chain
from dyndeg.models import exterior_algebra
from dyndeg.projective import multiprojective

from support import omega_h, times_i2


def report(cfg, tmp_path):
    """Exit code, and the chain section or the error payload."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--config", str(path)])
    if code == 0:
        return code, json.loads(out.getvalue())["results"]["chain"]
    return code, json.loads(err.getvalue())


def l_d_lt(low, diag):
    """L diag(d) L^T."""
    g = len(low)
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(g))
             for j in range(g)] for i in range(g)]


@st.composite
def abelian_draws(draw):
    """``(accepted, refused)`` configs on E^g: refused ones with the pointer
    they must exit 2 at."""
    g = draw(st.integers(1, 3))
    a = draw(st.lists(st.lists(st.integers(-3, 3), min_size=g, max_size=g),
                      min_size=g, max_size=g))
    low = [[draw(st.integers(1, 3)) if j == i else draw(st.integers(-2, 2))
            if j < i else 0 for j in range(g)] for i in range(g)]
    matrix = times_i2(a)
    pairs = {tuple(i for i, (d, _) in enumerate(w) if d): p
             for p, w in enumerate(exterior_algebra(g).words[2])}

    def configs(omega):
        coords = [0] * len(pairs)
        for ij, c in omega.items():
            coords[pairs[ij]] = c
        chain = {"map": {"kind": "exterior", "matrix": matrix},
                 "analyses": ["chain"]}
        return (
            ({**chain, "model": {"kind": "abelian", "g": g,
                                 "omega": [[*ij, c] for ij, c in omega.items()]}},
             "/model/omega"),
            ({**chain, "model": {"kind": "abelian", "g": g},
              "ample": {"coords": coords}}, "/ample/coords"),
        )

    accepted = [cfg for cfg, _ in configs(omega_h(l_d_lt(low, [1] * g)))]
    refused = []
    if g > 1:
        # plus c e_2i^e_2j, c e_2i+1^e_2j+1 or c (e_2i^e_2j+1 + e_2i+1^e_2j):
        # a nonzero wedge^2 V (x) Sym^2 W part
        i, j = sorted(draw(st.sets(st.integers(0, g - 1), min_size=2,
                                   max_size=2)))
        c = draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        omega = omega_h(l_d_lt(low, [1] * g))
        part = draw(st.sampled_from((
            {(2 * i, 2 * j): c}, {(2 * i + 1, 2 * j + 1): c},
            {(2 * i, 2 * j + 1): c, (2 * i + 1, 2 * j): c})))
        for ij, x in part.items():
            omega[ij] = omega.get(ij, 0) + x
        refused += configs(omega)
        # H = L diag(d) L^T with some d_i < 0: indefinite
        diag = draw(st.lists(st.sampled_from((-1, 1)), min_size=g,
                             max_size=g).filter(lambda d: -1 in d))
        refused += configs(omega_h(l_d_lt(low, diag)))
    return accepted, refused


@st.composite
def product_draws(draw):
    """``(accepted, refused)`` configs on (P^n)^k, as ``abelian_draws``."""
    ns = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    k = len(ns)
    perm = list(range(k))
    for n in set(ns):  # a permutation of equal-dimension factors
        same = [i for i in range(k) if ns[i] == n]
        for i, p in zip(same, draw(st.permutations(same))):
            perm[i] = p
    d = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    weights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    # degree 2 holds h_i = x_i, the letter (2, 0) of factor i, alone
    position = [next(p for p, w in enumerate(
        multiprojective(ns).algebra.words[2]) if w[i][0] == 2) for i in range(k)]

    def override(a):
        coords = [0] * k
        for i, x in enumerate(a):
            coords[position[i]] = x
        return {"model": {"kind": "multiprojective", "n": ns},
                "map": {"kind": "product", "d": d, "perm": perm},
                "analyses": ["chain"], "ample": {"coords": coords}}

    nef = list(weights)
    nef[draw(st.integers(0, k - 1))] = 0
    return [override(weights)], [(override(nef), "/ample/coords")]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(draws=st.one_of(abelian_draws(), product_draws()))
def test_every_ample_class_is_asserted_and_reaches_max_mu(tmp_path_factory,
                                                          draws):
    tmp_path = tmp_path_factory.mktemp("ample")
    accepted, refused = draws
    for cfg in accepted:
        code, chain = report(cfg, tmp_path)
        assert code == 0, (cfg, chain)
        assert chain["realizability"] == "asserted", cfg
        assert chain["equality_asserted"] and chain["equality_holds"], cfg
    for cfg, pointer in refused:
        code, payload = report(cfg, tmp_path)
        assert code == 2, cfg
        assert payload["error"] == "SchemaError", (cfg, payload)
        assert [v["path"] for v in payload["violations"]] == [pointer], cfg


def test_unverified_random_maps_are_never_asserted_and_some_miss_max_mu():
    rng = random.Random(0)
    for g in (2, 3):
        misses = 0
        for _ in range(30):
            matrix = [[rng.randint(-3, 3) for _ in range(2 * g)]
                      for _ in range(2 * g)]
            model, f = abelian_variety(g, matrix)
            chain = spectral_chain(model, gromov_closure(f, model.h))
            assert not chain.equality_asserted, matrix
            misses += not chain.equality_holds
        assert misses, g
