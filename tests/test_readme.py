"""README's Python API sketch runs as written and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_sketch() -> str:
    text = README.read_text(encoding="utf-8")
    match = re.search(r"Python API sketch:\n\n```python\n(.*?)```", text, re.S)
    assert match, "README has no Python API sketch block"
    return match.group(1)


def test_readme_api_sketch_prints_its_comments():
    code = _api_sketch()
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    assert prints and all("#" in line for line in prints)
    expected = [line.rpartition("#")[2].strip() for line in prints]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
