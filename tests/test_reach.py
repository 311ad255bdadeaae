"""Every function in ``src/dyndeg`` is run by a command, a script or a check.

One subprocess replays, under ``sys.setprofile``: ``dyndeg.cli.main`` on the
shipped configs under every command, on a custom model with a ``matrices``
map, on a config the schema rejects and with ``--help``; then both scripts
under ``scripts/``.  Every function and method that ``ast`` finds in the
package must have been entered, except those that ``ALLOWED`` names, each
with the reason it is kept.  A name there covers the function of that
qualified name and everything defined inside it.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dyndeg"

ALLOWED = {
    "core.Element.__hash__": "an element is a dict key or set member in the "
                             "tests; defining __eq__ alone would drop it",
    "core.Element.__repr__": "what a failing assertion prints",
    "cli._io_error": "only an unreadable config or --out path reaches it "
                     "(test_cli's I/O cases)",
    "cli.entry": "it ends the process, so it runs only in a child "
                 "(python -m dyndeg, the dyndeg script): test_cli's "
                 "TestProcessEntry",
    "lattice.build_surface_lattice": "no shipped config is a lattice surface; "
                                     "test_schema_contract builds one",
    "lattice.check_surface_lattice": "as lattice.build_surface_lattice",
    "errors.DynDegError.payload": "the stderr payload of a failure without "
                                  "its own, such as a UsageError",
    "spectral.char_poly": "the rational polynomial for library callers: "
                          "perfbench's tracer wraps it as a span, and "
                          "test_spectral compares it with the oracles",
    "spectral._separate": "runs only when the first polish round does not "
                          "certify, as on close or huge roots "
                          "(test_spectral's root-certificate cases)",
    "estimators.trace_radius_estimate": "acceptance criterion 6",
    "estimators.combined_limsup_bound": "acceptance criterion 7",
}

_PROBE = r"""
import contextlib, io, json, os, runpy, sys

root, tmp = sys.argv[1], sys.argv[2]
package = os.path.join(root, "src", "dyndeg")
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


custom = {
    "model": {"kind": "custom", "top_degree": 4, "dims": [1, 0, 1, 0, 1],
              "sign_rule": "commutative",
              "products": [{"a": [2, 0], "b": [2, 0], "value": [[0, 1]]}],
              "integrate": [1], "unit": [1], "h": [1], "ambient_dim": 2,
              "effective": [{"label": "line", "degree": 2, "coords": [1]}],
              "realizability": "unverified"},
    "map": {"kind": "matrices", "blocks": [[[1]], [], [[2]], [], [[4]]]},
    "analyses": ["chain", "delta-table", "gromov", "graph-class", "bounds"],
}
rejected = {  # a repeated omega entry
    "model": {"kind": "abelian", "g": 2,
              "omega": [[0, 1, 1], [0, 1, 1], [2, 3, 1]]},
    "map": {"kind": "identity"},
    "analyses": ["chain"],
}
argvs = [[command, "--config", os.path.join(root, "configs", name)]
         for name in sorted(os.listdir(os.path.join(root, "configs")))
         for command in ("report", "validate", "delta")]
for name, config in (("custom", custom), ("rejected", rejected)):
    path = os.path.join(tmp, name + ".json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    argvs.append(["report", "--config", path])

sys.setprofile(profile)
from dyndeg import cli

with contextlib.redirect_stdout(io.StringIO()), \
        contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs + [["--help"]]]
    for script in ("chain_survey.py", "estimator_convergence.py"):
        runpy.run_path(os.path.join(root, "scripts", script),
                       run_name="__main__")
sys.setprofile(None)
print(json.dumps({
    "codes": codes,
    "entered": sorted(
        [os.path.realpath(f), line] for f, line in entered
        if os.path.realpath(f).startswith(os.path.realpath(package))
    ),
}))
"""


def _functions():
    """``{qualified name: (file, first line)}`` of every function and method,
    nested ones included; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (path, line)
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), os.path.realpath(path),
             path.stem + ".")
    return found


def _covers(allowed, name):
    return name == allowed or name.startswith(allowed + ".")


def test_every_function_in_the_package_is_reached(tmp_path):
    env_path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT), str(tmp_path)],
        capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, env_path))},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    entered = {tuple(pair) for pair in result["entered"]}
    functions = _functions()
    unreached = sorted(
        name for name, where in functions.items() if where not in entered
        and not any(_covers(a, name) for a in ALLOWED))
    assert unreached == [], f"no command, script or check runs {unreached}"
    # nine shipped runs and the custom report succeed; the rejected config
    # exits 2
    assert result["codes"] == [0] * 10 + [2, 0]
    stale = sorted(a for a in ALLOWED
                   if not any(_covers(a, name) for name in functions))
    assert stale == [], f"ALLOWED names functions that are gone: {stale}"
