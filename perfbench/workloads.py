"""Seeded generation of the benchmark's workloads.

Every input the program receives is made here from ``--seed``; the same seed
gives byte-identical config files.  Each workload is a list of distinct
configs and an ordered list of invocations ``(command, config name)`` that the
harness runs as one pass.

The seed varies *which* inputs are run, not *how much* work they are.  In
the two compute-bound workloads it draws isomorphic copies of fixed
problems: product maps with their factors renamed, abelian endomorphisms
conjugated by a signed permutation, and lattice exponents with a fixed sum.
Model sizes and M are fixed.  That keeps run-to-run spread across seeds
small enough for the end-to-end bounds in ``BENCHMARK.json``.

Why each workload exists:

* ``cli-small``: start-up bound.  Interpreter start plus ``import dyndeg``
  is most of each invocation, so a start-up change moves it and an
  exact-core change should not.  It also carries the malformed configs of
  the CLI contract, including the two known crashers.
* ``exact-core``: Fraction work in algebra checks, pullback validation,
  Berkowitz and the Gromov closure.  Where an integer core must show.  It
  also holds a rank-12 lattice isometry whose characteristic polynomial has
  coefficients of about 77 bits, for mpmath root certification, which is
  little of the time anywhere else.  That lattice stands in for a separate
  root-certification workload: the benchmark's time budget holds three
  workloads run long enough to be steady, not four.
* ``iterate-tables``: the degrees layer, iterated ``mat_vec`` in
  ``delta_table`` against per-(m, j) ``power_map`` in ``graph_class`` and
  ``segre_graph_degree``.  No closure or root certification runs.  M is
  fixed per model (16, 24, 32, 64) so that one pass stays under 10 s; at
  M = 64, (P^2)^3 alone would take about 15 s.

Abelian g = 4 is left out: its algebra checks alone take about 30 s at the
seed commit, and every check runs each workload 22 times.  It belongs in a
later benchmark once the integer core brings it under 10 s.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-small", "exact-core", "iterate-tables")
COMMANDS = ("report", "delta", "validate")

# Configs that break the CLI contract at the seed commit (exit 1 with a
# traceback instead of exit 2 with JSON).  They stay in the workload so the
# defect shows in failed_frac; a failure on any other config is unexpected.
KNOWN_DEFECTS = frozenset({"crash-custom-product", "crash-map-blocks"})

PELL = ((3, 4), (2, 3))  # an isometry of the form diag(1, -2)

# Fixed problems that the seed relabels: product maps h_i -> d_i h_perm(i)
# along one cycle, and endomorphisms A of E^g (entries in [-2, 2], det != 0).
CYCLE5 = ((2, 2, 3, 3, 4), (1, 2, 3, 4, 0))
CYCLE4 = ((2, 2, 3, 4), (1, 2, 3, 0))
CYCLE3 = ((2, 3, 4), (1, 2, 0))
A3 = ((1, -1, 2), (2, 1, -1), (-1, 2, 1))  # det 14
A2 = ((2, 1), (1, -1))  # det -3


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    configs: dict  # config name -> config object, in insertion order
    invocations: tuple  # ((command, config name), ...)
    malformed: frozenset  # config names that must exit 2

    def config_text(self, name: str) -> str:
        return json.dumps(self.configs[name], indent=1, sort_keys=True) + "\n"

    def write(self, directory: Path) -> dict:
        """Write every config as ``<name>.json``; return name -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name in self.configs:
            path = directory / f"{name}.json"
            path.write_text(self.config_text(name), encoding="utf-8")
            paths[name] = path
        return paths


def generate(name: str, seed: int, root: Path) -> Workload:
    """The workload ``name`` for ``seed``; ``root`` is the repository root."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; one of {WORKLOADS}")
    # a str seed is hashed with SHA-512, so every process gets the same stream
    rng = random.Random(f"{name}:{seed}")
    configs, commands, malformed = _GENERATORS[name](rng, root)
    invocations = tuple(
        (command, cfg) for cfg in configs for command in commands
    )
    return Workload(name, seed, configs, invocations, frozenset(malformed))


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def _relabel(rng: random.Random, degrees, perm) -> tuple[list, list]:
    """The product map h_i -> d_i h_perm(i) with its factors renamed by a
    seed-drawn permutation: an isomorphic copy, so the same work."""
    k = len(perm)
    sigma = list(range(k))
    rng.shuffle(sigma)
    new_degrees, new_perm = [0] * k, [0] * k
    for i in range(k):
        new_degrees[sigma[i]] = degrees[i]
        new_perm[sigma[i]] = sigma[perm[i]]
    return new_degrees, new_perm


def _conjugate(rng: random.Random, a) -> list[list[int]]:
    """S A S^T for a seed-drawn signed permutation S: the same endomorphism
    of E^g after permuting and negating factors, so the same work."""
    n = len(a)
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * signs[j] * a[order[i]][order[j]] for j in range(n)]
            for i in range(n)]


def _exponents(rng: random.Random, k: int) -> list[int]:
    """k distinct Pell exponents in 1..8 summing to 4.5 k, which fixes the
    size of the characteristic-polynomial coefficients."""
    while True:
        exponents = rng.sample(range(1, 9), k)
        if 2 * sum(exponents) == 9 * k:
            return exponents


def _kron_i2(a) -> list[list[int]]:
    """A (x) I_2: the action of an integer matrix on H^1 of E^k."""
    n = len(a)
    return [
        [a[i // 2][j // 2] if i % 2 == j % 2 else 0 for j in range(2 * n)]
        for i in range(2 * n)
    ]


def _pell_power(e: int) -> list[list[int]]:
    m = [[1, 0], [0, 1]]
    for _ in range(e):
        m = [
            [sum(m[i][k] * PELL[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)
        ]
    return m


def _lattice(exponents, analyses) -> dict:
    """Block sum of diag(1, -2) with Pell-power isometries, ample (1, 0, ...)."""
    rank = 2 * len(exponents)
    gram = [[0] * rank for _ in range(rank)]
    iso = [[0] * rank for _ in range(rank)]
    for b, e in enumerate(exponents):
        gram[2 * b][2 * b], gram[2 * b + 1][2 * b + 1] = 1, -2
        block = _pell_power(e)
        for i in range(2):
            for j in range(2):
                iso[2 * b + i][2 * b + j] = block[i][j]
    return {
        "schema_version": "1",
        "model": {"kind": "surface_lattice", "gram": gram,
                  "ample": [1 - i % 2 for i in range(rank)]},
        "map": {"kind": "isometry", "matrix": iso},
        "analyses": list(analyses),
    }


def _projective(n, d, analyses, m=16) -> dict:
    return {"schema_version": "1", "model": {"kind": "projective", "n": n},
            "map": {"kind": "power", "d": d}, "analyses": list(analyses),
            "M": m}


def _product(ns, degrees, perm, analyses, m=16) -> dict:
    return {"schema_version": "1",
            "model": {"kind": "multiprojective", "n": list(ns)},
            "map": {"kind": "product", "d": degrees, "perm": perm},
            "analyses": list(analyses), "M": m}


def _abelian(a, analyses, m=16) -> dict:
    return {"schema_version": "1", "model": {"kind": "abelian", "g": len(a)},
            "map": {"kind": "exterior", "matrix": _kron_i2(a)},
            "analyses": list(analyses), "M": m}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

ALL_ANALYSES = ("chain", "delta-table", "gromov", "graph-class", "bounds")
CORE = ("chain", "gromov")
TABLES = ("delta-table", "graph-class", "bounds")


def _malformed(rng: random.Random) -> dict:
    """The two known crashers plus two seed-chosen schema violations."""
    base = _projective(2, 2, ("delta-table",))
    crashers = {
        "crash-custom-product": {
            "schema_version": "1",
            "model": {"kind": "custom", "top_degree": 2, "dims": [1, 0, 1],
                      "products": [{"a": "x", "b": [2, 0], "value": {"0": 1}}],
                      "integrate": [1], "h": [1], "ambient_dim": 1},
            "map": {"kind": "identity"},
            "analyses": ["delta-table"],
        },
        "crash-map-blocks": {
            **base,
            "model": {"kind": "projective", "n": 1},
            "map": {"kind": "matrices", "blocks": [[[1]], [], [["x"]]]},
        },
    }
    mutations = {
        "bad-model-kind": {**base, "model": {"kind": "grassmannian", "n": 2}},
        "bad-M": {**base, "M": 0},
        "bad-analysis": {**base, "analyses": ["delta-table", "entropy"]},
        "bad-tol": {**base, "tol": -1},
        "ragged-matrix": {
            **base, "model": {"kind": "abelian", "g": 1},
            "map": {"kind": "exterior", "matrix": [[1, 0], [0]]},
        },
        "missing-map": {k: v for k, v in base.items() if k != "map"},
    }
    picked = sorted(rng.sample(sorted(mutations), 2))
    return {**crashers, **{f"malformed-{k}": mutations[k] for k in picked}}


def _cli_small(rng: random.Random, root: Path):
    shipped = sorted((root / "configs").glob("*.json"))
    if len(shipped) != 3:
        raise RuntimeError(f"expected 3 shipped configs under {root / 'configs'}")
    configs = {f"shipped-{path.stem}": json.loads(path.read_text("utf-8"))
               for path in shipped}
    for n in (1, 2, 3):
        configs[f"p{n}"] = _projective(n, rng.randint(2, 4), ALL_ANALYSES, 8)
    configs["p1xp1"] = _product(
        (1, 1), [rng.randint(2, 4), rng.randint(2, 4)], [1, 0],
        ("delta-table", "chain"), 8)
    configs["lattice2"] = _lattice([rng.randint(1, 4)], CORE)
    malformed = _malformed(rng)
    configs.update(malformed)
    return configs, COMMANDS, malformed


def _exact_core(rng: random.Random, root: Path):
    configs = {
        "p6": _projective(6, rng.randint(2, 4), CORE),
        "p1x5": _product((1,) * 5, *_relabel(rng, *CYCLE5), CORE),
        "p2x3": _product((2, 2, 2), *_relabel(rng, *CYCLE3), CORE),
        "abelian2": _abelian(_conjugate(rng, A2), CORE),
        "abelian3": _abelian(_conjugate(rng, A3), CORE),
        "lattice12": _lattice(_exponents(rng, 6), CORE),
    }
    return configs, ("report",), ()


def _iterate_tables(rng: random.Random, root: Path):
    configs = {
        "p2x3-M16": _product((2, 2, 2), *_relabel(rng, *CYCLE3), TABLES, 16),
        "p1x4-M24": _product((1,) * 4, *_relabel(rng, *CYCLE4), TABLES, 24),
        "abelian2-M32": _abelian(_conjugate(rng, A2), TABLES, 32),
        "p6-M64": _projective(6, 3, TABLES, 64),
    }
    return configs, ("report",), ()


_GENERATORS = {
    "cli-small": _cli_small,
    "exact-core": _exact_core,
    "iterate-tables": _iterate_tables,
}
