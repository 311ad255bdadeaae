"""A ceiling on the source lines that a seed-0 benchmark pass compiles.

Where bytecode is not written (``PYTHONDONTWRITEBYTECODE=1``, no
``__pycache__`` shipped), every ``python -m dyndeg`` child compiles each
module of the package it imports from source, so start-up grows with the
lines those modules hold.  For each benchmark workload this generates the
seed-0 invocations from ``perfbench/workloads.py``, runs each in a fresh
child, and sums ``wc -l`` over every ``dyndeg`` module the child holds at
exit, plus ``__main__.py``.  A change that raises a total must raise its
ceiling here and say why.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from support import perfbench_workload

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "dyndeg"

# lines compiled over one seed-0 pass, summed over its children
CEILINGS = {"cli-small": 70_905, "exact-core": 17_033, "iterate-tables": 9_526}

# runs ``python -m dyndeg ARGS`` and, as it exits (``cli.entry`` ends with
# ``os._exit``), writes the files of the ``dyndeg`` modules it holds to OUT:
# ``python -c CHILD OUT ARGS...``
_CHILD = """
import json, os, runpy, sys

out, exit_now = sys.argv[1], os._exit
sys.argv = ["dyndeg", *sys.argv[2:]]


def held(code):
    files = sorted(m.__file__ for name, m in list(sys.modules.items())
                   if name.split(".")[0] == "dyndeg")
    with open(out, "w") as fh:
        json.dump(files, fh)
    exit_now(code)


os._exit = held
runpy.run_module("dyndeg", run_name="__main__", alter_sys=True)
"""


def _lines(path) -> int:
    """``wc -l``: the newlines in the file."""
    return pathlib.Path(path).read_bytes().count(b"\n")


@pytest.mark.parametrize("name", sorted(CEILINGS))
def test_a_seed_0_pass_compiles_at_most_its_ceiling(tmp_path, monkeypatch, name):
    workload, _ = perfbench_workload(monkeypatch, name)
    paths = workload.write(tmp_path / "configs")
    out = tmp_path / "held.json"
    total = 0
    for command, config in workload.invocations:
        subprocess.run(
            [sys.executable, "-c", _CHILD, str(out), command,
             "--config", str(paths[config])],
            capture_output=True, check=False, timeout=120)
        files = json.loads(out.read_text())
        out.unlink()
        assert str(PACKAGE / "cli.py") in files, (command, config)
        total += sum(map(_lines, files)) + _lines(PACKAGE / "__main__.py")
    assert total <= CEILINGS[name], (name, total)
