"""Every repository path the prose names resolves in the tree.

README.md, DESIGN.md and EXPERIMENTS.md point at code with backticked paths
(`perf/run.py`, `net/virtual.py`) and at symbols in a Python file
(`tests/faults/test_chaos.py::TestFullSweepTrace`, `x.py::Class.method`).  A
path resolves when exactly one file of the tree is that path or ends with it
(`net/virtual.py` is `src/repro/net/virtual.py`); a symbol resolves when that
file defines it.  A file that is deleted or renamed then fails here instead
of sending a reader to nothing; history that names a deleted file says what
it was without a path.
"""

from __future__ import annotations

import ast
import os
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
SKIPPED_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "build"}

#: a backticked relative path with a file suffix, then optional ``::symbol``s
REFERENCE = re.compile(
    r"`((?:[\w.-]+/)*[\w.-]+\.(?:py|md|json|jsonl|txt|toml|ya?ml|cfg|ini))"
    r"((?:::[\w.\[\]-]+)*)`"
)


@lru_cache(maxsize=None)
def tree_files():
    files = []
    for top, dirs, names in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in SKIPPED_DIRS]
        rel = Path(top).relative_to(ROOT)
        files += [(rel / name).as_posix() for name in names]
    return tuple(files)


@lru_cache(maxsize=None)
def defined_names(path):
    """Every ``Name`` and ``Class.member`` a Python file defines at the top."""
    names = set()

    def collect(body, prefix):
        for node in body:
            targets = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            for name in targets:
                names.add(prefix + name)
            if isinstance(node, ast.ClassDef) and not prefix:
                collect(node.body, node.name + ".")

    collect(ast.parse((ROOT / path).read_text(encoding="utf-8")).body, "")
    return names


def unresolved(text):
    """The references in *text* that name no file, or no symbol in it."""
    bad = []
    for match in REFERENCE.finditer(text):
        path, symbols = match.groups()
        hits = [f for f in tree_files() if f == path or f.endswith("/" + path)]
        if len(hits) != 1:
            bad.append(match.group(0))
        elif symbols:
            symbol = ".".join(re.sub(r"\[.*\]$", "", s) for s in symbols.split("::")[1:])
            if symbol not in defined_names(hits[0]):
                bad.append(match.group(0))
    return bad


@pytest.mark.parametrize("doc", DOCS)
def test_every_path_in_the_doc_resolves(doc):
    assert unresolved((ROOT / doc).read_text(encoding="utf-8")) == []


def test_a_stale_path_or_symbol_is_caught():
    good = "`net/virtual.py` and `tests/faults/test_chaos.py::TestFullSweepTrace`"
    assert unresolved(good) == []
    stale = [
        "`examples/paper_figure2.py`",  # no such file
        "`replay.py`",  # two files end with it
        "`tests/faults/test_chaos.py::TestNoSuchClass`",
        "`src/repro/net/virtual.py::_Pipe.no_such_method`",
    ]
    assert unresolved(" ".join(stale)) == stale
