"""README's Python examples run as written, and the values their comments
state are the values they compute."""

import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# a line `expression  # 24 ...`: the comment opens with the expression's value
STATED = re.compile(r"^(\S.*?)\s+#\s+(-?[0-9]+)\b", re.MULTILINE)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    for expression, value in STATED.findall(block):
        assert eval(expression, namespace) == int(value), expression
