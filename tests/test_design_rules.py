"""Source-level design rules of the package, checked on the files themselves.

* no module imports a private name (``_name``; dunders such as
  ``__version__`` are fine) from another module of the package: shared
  helpers are public where they live;
* no module reaches into ``__dict__``: state such as caches is a plain
  attribute set in ``__init__``.
"""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "swcohom").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = ["line %d: %s" % (node.lineno, alias.name)
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if re.match(r"_[a-z]", alias.name)]
    assert not private, private


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dict_access(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    hits = ["line %d" % k for k, line in enumerate(lines, 1) if "__dict__" in line]
    assert not hits, hits
