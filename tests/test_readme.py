"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    """The ``python`` block under ``## Library``."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_its_commented_lines():
    code = library_block()
    expected = [line.rsplit("# ", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected, "the Library block prints nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
