"""The documented API: README examples run, and every exported name resolves."""

import re
from pathlib import Path

import pytest

import gamegrad

README = Path(__file__).resolve().parent.parent / "README.md"
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(PYTHON_BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(PYTHON_BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(PYTHON_BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_every_exported_name_resolves():
    missing = [name for name in gamegrad.__all__ if not hasattr(gamegrad, name)]
    assert missing == []
    assert len(set(gamegrad.__all__)) == len(gamegrad.__all__)
