"""The README's library example runs as documented."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_the_pour_skill_to_success():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", text,
                      re.MULTILINE | re.DOTALL)
    assert block is not None, "README has no ## Library example python block"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block.group(1), str(README), "exec"), {})
    summary = ast.literal_eval(printed.getvalue().strip())
    assert summary["success"] is True
    assert [p["outcome"] for p in summary["phases"]] == ["done"] * 3
