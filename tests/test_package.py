"""The package surface: every name in ``dalg.__all__`` exists, so a name
left there after its deletion fails here and not first in a user's
``from dalg import *``; and every one is named in README.md, so the top
level cannot grow past what the README documents.  Every module imports
only what it uses."""

import ast
import re
from pathlib import Path

import dalg


def test_public_names_resolve():
    missing = [name for name in dalg.__all__ if not hasattr(dalg, name)]
    assert missing == []
    assert len(set(dalg.__all__)) == len(dalg.__all__)


def test_public_names_are_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    undocumented = [name for name in dalg.__all__
                    if not re.search(rf"`{name}\b", readme)]
    assert undocumented == []


def test_star_import():
    namespace: dict = {}
    exec("from dalg import *", namespace)
    assert set(dalg.__all__) <= namespace.keys()


def test_modules_use_every_name_they_import():
    # __init__.py imports to re-export; every other module of the package
    # names each imported name somewhere in its body
    unused = []
    for path in sorted(Path(dalg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text("utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
