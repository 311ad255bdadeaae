"""In-process traced replay of CLI invocations.

Spans are recorded only here, never in ``src/``: while a :class:`Tracer` is
active, each public function listed in ``SPANS`` is replaced, in every
``dyndeg`` module that binds it, by a wrapper that times the call.  The
replay then calls ``cli.main`` exactly as a fresh process would, so the
spans are the calls ``cli.run`` really makes, nested as they happen (for
example ``gromov.spectral_chain`` > ``gromov.closure``, ``gromov.lambda_gr``
> ``spectral.spectral_radius`` > ``spectral.char_poly``).  A span's self
time is its duration minus its children's, so self times add up to the
replayed time without computing anything twice.

Counts are read from the arguments and results at the same boundaries, from
public data only.  Spans stay in memory until the caller writes them.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from collections import defaultdict
from dataclasses import dataclass, field

from dyndeg import cli, core, degrees, endo, gromov, models, spectral

MODULES = (cli, core, degrees, endo, gromov, models, spectral)


def _graded_counts(dims, top):
    """Basis pairs and triples that the unit/sign/associativity and
    multiplicativity checks visit, derived from the graded dimensions."""
    pos = [(i, d) for i, d in enumerate(dims) if i >= 1 and d]
    pairs = sum(a * b for i, a in pos for j, b in pos if i + j <= top)
    triples = sum(
        a * b * c
        for i, a in pos for j, b in pos if i + j < top
        for k, c in pos if i + j + k <= top
    )
    return pairs, triples


def _algebra_counts(algebra):
    pairs, triples = _graded_counts(algebra.dims, algebra.top_degree)
    return {"core.dim": sum(algebra.dims), "core.pairs": pairs,
            "core.triples": triples}


def _pullback_counts(pull):
    alg = pull.algebra
    return {"endo.pairs": _graded_counts(alg.dims, alg.top_degree)[0]}


def _closure_counts(closure):
    return {"gromov.closure_dim": closure.dimension,
            "gromov.sweeps": closure.sweeps}


def _poly_counts(coeffs):
    bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
               for c in coeffs)
    return {"spectral.poly_degree_max": len(coeffs) - 1,
            "spectral.coeff_bits_max": bits}


def _table_counts(table):
    return {"degrees.m_max": table.m_max}


# span name -> (owner, attribute, counter); a counter maps the call's result
# to {count name: value}
SPANS = {
    "cli.parse_config": (cli, "parse_config", None),
    "cli.build_model_and_map": (cli, "build_model_and_map", None),
    "cli.run": (cli, "run", None),
    "cli.encode": (cli, "dumps_canonical", None),
    "core.build_algebra": (core, "build_algebra", _algebra_counts),
    "endo.validate_pullback": (endo, "validate_pullback", _pullback_counts),
    "gromov.closure": (gromov, "gromov_closure", _closure_counts),
    "gromov.lambda_gr": (gromov, "lambda_gr", None),
    "gromov.spectral_chain": (gromov, "spectral_chain", None),
    "gromov.verify_certificates":
        (gromov.GromovSubalgebra, "verify_certificates", None),
    "spectral.char_poly": (spectral, "char_poly", _poly_counts),
    "spectral.spectral_radius": (spectral, "spectral_radius", None),
    "degrees.delta_table": (degrees, "delta_table", _table_counts),
    "degrees.growth_rates": (degrees, "growth_rates", None),
    "degrees.graph_class": (degrees, "graph_class", None),
    "degrees.segre": (degrees, "segre_graph_degree", None),
    "degrees.bound_constant": (degrees, "bound_constant", None),
    "degrees.check_intersection_bound":
        (degrees, "check_intersection_bound", None),
    "degrees.moving_ledger": (degrees, "moving_ledger", None),
}

COUNTS = (
    "core.dim", "core.pairs", "core.triples", "endo.pairs",
    "gromov.closure_dim", "gromov.sweeps", "spectral.poly_degree_max",
    "spectral.coeff_bits_max", "degrees.m_max",
)
# counts that take the maximum over calls; every other count is a sum
MAX_COUNTS = {"spectral.poly_degree_max", "spectral.coeff_bits_max",
              "degrees.m_max"}


@dataclass
class Span:
    name: str
    invocation: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Span recorder; ``with tracer:`` interposes the functions in ``SPANS``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.invocation = 0

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body; yields the :class:`Span`."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.invocation, parent, time.perf_counter_ns())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name, original, counter):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = original(*args, **kwargs)
            if counter is not None:
                span.counts = counter(result)
            return result

        return traced

    def __enter__(self):
        for name, (owner, attr, counter) in SPANS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            owners = (owner,) if isinstance(owner, type) else MODULES
            for target in owners:
                if getattr(target, attr, None) is original:
                    self._saved.append((target, attr, original))
                    setattr(target, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)
        return False


def replay(command: str, config_path: str) -> tuple[int, bytes, bytes]:
    """Run ``dyndeg <command> --config <path>`` in this process.

    Returns ``(exit code, stdout, stderr)`` as a fresh process would give
    them; an uncaught exception is exit 1, as for the interpreter.  The
    exterior-algebra cache is cleared first, because a fresh process pays for
    building it.
    """
    models.exterior_algebra.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", config_path])
        except Exception as exc:  # the process would die with a traceback
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def layer_totals(spans: list[Span]) -> tuple[dict, dict, dict]:
    """``(inclusive seconds by span name, self seconds by name, counts)``."""
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts = dict.fromkeys(COUNTS, 0)
    for s, t in zip(spans, self_seconds(spans)):
        inclusive[s.name] += s.seconds
        own[s.name] += t
        for key, value in s.counts.items():
            if key in MAX_COUNTS:
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return dict(inclusive), dict(own), counts
