"""The README's Python snippets run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_snippets_run():
    text = README.read_text()
    blocks = list(re.finditer(r"```python\n(.*?)```", text, re.S))
    assert blocks
    for block in blocks:
        # pad with blank lines so a traceback points at the README line
        code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(code, str(README), "exec"), {})
