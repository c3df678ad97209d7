"""The README's library example runs as written.

    PYTHONPATH=src python -m pytest -q tests/test_readme.py
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # The loop prints the nonzero constants of x_s1 * x_s1.
    assert capsys.readouterr().out == "(1,) a1\n(2, 1) 1\n"
