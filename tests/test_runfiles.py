"""The run-files module: the package's one reader, atomic writer and worker pool."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import sennap
from sennap.errors import ConfigError
from sennap.runfiles import write_atomic

PACKAGE = Path(sennap.__file__).parent


def _package_imports(source: str) -> set[str]:
    """The `sennap` modules a module's source imports, by name ("sennap" for the package)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, from . import x
                module = node.module
            elif node.module == "sennap" or node.module.startswith("sennap."):
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.add(module.partition(".")[0])
            else:
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sennap" or alias.name.startswith("sennap."):
                    found.add(alias.name.split(".")[1] if "." in alias.name else "sennap")
    return found


def test_runfiles_is_the_bottom_layer():
    checked = "import os, sennap.cli\nfrom . import model\nfrom .training import fit\nimport sennap"
    assert _package_imports(checked) == {"cli", "model", "training", "sennap"}
    source = (PACKAGE / "runfiles.py").read_text(encoding="utf-8")
    assert _package_imports(source) == {"errors"}
    for call in ("ProcessPoolExecutor(", "os.replace("):
        holders = sorted(
            path.name for path in PACKAGE.glob("*.py") if call in path.read_text(encoding="utf-8")
        )
        assert holders == ["runfiles.py"], call



def test_write_atomic_makes_directories_and_names_an_unwritable_path(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    write_atomic(target, "text\n")
    assert target.read_text() == "text\n"
    blocked = target / "below_a_file.txt"
    with pytest.raises(ConfigError, match=re.escape(f"{blocked}: cannot write")):
        write_atomic(blocked, b"bytes")
    assert sorted(p.name for p in target.parent.iterdir()) == ["out.txt"]
