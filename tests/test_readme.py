"""The README's Python snippets and Quick start commands run as written."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import qduet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippets_run():
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so a traceback points at the README line
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})


def test_readme_quick_start_commands_run(tmp_path):
    section = README.read_text().split("## Quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("qduet ")]
    assert commands
    src = Path(qduet.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    for _, *argv in commands:
        proc = subprocess.run([sys.executable, "-m", "qduet", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
