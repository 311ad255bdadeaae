"""The child processes that tests start (``python -m dyndeg``,
``python -c``) import the package from this checkout's ``src``, as the tests
themselves do through ``pythonpath`` in ``pyproject.toml``, so the suite
needs no install.

Neither the suite nor its children write bytecode: a ``__pycache__`` left
in ``src/dyndeg`` would let a later benchmark pass in the same tree skip
compiling, which is about a quarter of a short command's wall time, so
its numbers would describe another program."""

import os
import pathlib
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
