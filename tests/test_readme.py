"""The README's Library example runs and prints what its comments say, and
each command of its CLI block runs."""

import contextlib
import io
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def fenced_block(heading: str, language: str) -> str:
    """The first ``language`` block under ``## heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_its_commented_lines():
    code = fenced_block("Library", "python")
    expected = [line.rsplit("# ", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected, "the Library block prints nothing"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_each_cli_command_exits_zero_and_out_holds_its_stdout(tmp_path):
    # each command runs through ``python -m dyndeg`` in a directory holding
    # a copy of ``configs/``; one with ``--out`` runs again without it, and
    # the file it wrote must be the bytes that run printed
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def dyndeg(argv):
        proc = subprocess.run([sys.executable, "-m", "dyndeg", *argv],
                              cwd=tmp_path, env=env, capture_output=True)
        assert (proc.returncode, proc.stderr) == (0, b""), argv
        return proc.stdout

    commands = [shlex.split(line, comments=True)
                for line in fenced_block("CLI", "sh").splitlines() if line]
    assert commands and all(c[0] == "dyndeg" for c in commands)
    for command in commands:
        argv = command[1:]
        stdout = dyndeg(argv)
        if "--out" in argv:
            at = argv.index("--out")
            assert stdout == b"", argv
            written = (tmp_path / argv[at + 1]).read_bytes()
            assert written == dyndeg(argv[:at] + argv[at + 2:]), argv
        else:
            assert stdout, argv
