"""The child processes that tests start (``python -m dyndeg``,
``python -c``) import the package from this checkout's ``src``, as the tests
themselves do through ``pythonpath`` in ``pyproject.toml``, so the suite
needs no install."""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
