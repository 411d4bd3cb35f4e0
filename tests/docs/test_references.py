"""Tier-1 doc check: what README.md and DESIGN.md cite exists.

Every ``*.py`` path either document names must be the tail of a file in
the tree (``sim/simulator.py`` names ``src/repro/sim/simulator.py``; a
bare ``agent.py`` names any ``agent.py``), and every dotted
``repro.*`` name must import, or be an attribute of a module that does
(``repro.verify.races.run_shape``).  A file renamed or deleted without
its mentions fails here instead of leaving the docs describing code
that is gone.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOCS = ("README.md", "DESIGN.md")

_PY_PATH = re.compile(r"[A-Za-z0-9_./-]*[A-Za-z0-9_]\.py\b")
_MODULE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def _tree_paths() -> set:
    """Every ``*.py`` in the tree, as tuples of path components."""
    paths = set()
    for path in REPO_ROOT.rglob("*.py"):
        parts = path.relative_to(REPO_ROOT).parts
        if not any(part.startswith(".") for part in parts):
            paths.add(parts)
    return paths


def _resolves(cited: str, tree: set) -> bool:
    want = tuple(part for part in cited.split("/") if part not in ("", "."))
    return any(parts[-len(want):] == want for parts in tree)


def _imports(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_cited_py_paths_exist(doc):
    text = (REPO_ROOT / doc).read_text()
    cited = sorted(set(_PY_PATH.findall(text)))
    assert cited, f"{doc} cites no *.py path: the pattern is broken"
    tree = _tree_paths()
    missing = [path for path in cited if not _resolves(path, tree)]
    assert missing == [], f"{doc} cites files not in the tree: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_cited_modules_import(doc):
    text = (REPO_ROOT / doc).read_text()
    cited = sorted(set(_MODULE.findall(text)))
    assert cited, f"{doc} cites no repro.* name: the pattern is broken"
    missing = [name for name in cited if not _imports(name)]
    assert missing == [], f"{doc} cites names that do not resolve: {missing}"
