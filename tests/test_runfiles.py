"""The run-files module: the package's one reader, atomic writer and worker pool."""

from __future__ import annotations

import ast
import re
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import sennap
from sennap.errors import ConfigError
from sennap.runfiles import map_in_workers, write_atomic

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


RESULT_BYTES = 4 << 20


def _large_result(job, item: int) -> np.ndarray:
    time.sleep(0.2)  # results arrive one by one, as a long task's would
    return np.full(RESULT_BYTES, item, dtype=np.uint8)


def test_map_in_workers_releases_each_result_as_it_is_yielded():
    taken = []
    tracemalloc.start()
    try:
        for item, result in enumerate(map_in_workers(None, _large_result, range(8))):
            assert result.nbytes == RESULT_BYTES and result[0] == item
            # every result before this one was dropped by the loop and must be gone
            assert [ref() is None for ref in taken] == [True] * item
            taken.append(weakref.ref(result))
            del result
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one result in transit is three under tracemalloc (the pipe's read chunk, its
    # buffer and the unpickled copy); all eight held would be eight or more
    assert peak < 5 * RESULT_BYTES
