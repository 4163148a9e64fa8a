"""The documented API: README examples run, and every exported name resolves."""

import re
from pathlib import Path

import pytest

import gamegrad
from gamegrad.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
README_TEXT = README.read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)
SYNOPSIS = re.search(r"^## CLI\n\n```\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)[1]


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


@pytest.mark.parametrize("command", sorted(main.commands))
def test_cli_synopsis_names_exactly_the_declared_options(command):
    lines = [line for line in SYNOPSIS.splitlines() if line.split()[:2] == ["gamegrad", command]]
    assert len(lines) == 1
    declared = {opt for param in main.commands[command].params for opt in param.opts
                if opt.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", lines[0])) == declared
